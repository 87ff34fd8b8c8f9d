import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    Dag,
    GraphError,
    ValidationError,
    additional_edges,
    canonical,
    load_dag,
    load_summary,
    mutilate_summary,
    save_dag,
    save_summary,
)
from causalsumm.cli_io import ParseError, cli, export_summary_dot, load_similarity
from causalsumm.fixtures import redshift_missing_edge


class TestDagFiles:
    @pytest.mark.parametrize("suffix", [".json", ".dot"])
    def test_round_trip(self, g1, redshift, tmp_path, suffix):
        for g in (g1, redshift):
            path = tmp_path / f"g{suffix}"
            save_dag(g, path)
            assert load_dag(path) == g

    def test_files_are_lf_terminated(self, g1, tmp_path):
        path = tmp_path / "g.json"
        save_dag(g1, path)
        raw = path.read_bytes()
        assert raw.endswith(b"\n") and b"\r" not in raw

    def test_unknown_extension(self, g1, tmp_path):
        with pytest.raises(ValidationError, match="extension"):
            save_dag(g1, tmp_path / "g.yaml")

    def test_version_is_checked(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"version": 99, "nodes": ["A"], "edges": []}')
        with pytest.raises(ParseError, match="version"):
            load_dag(path)

    def test_json_syntax_errors_carry_a_position(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"version": 1,\n  "nodes": [}')
        with pytest.raises(ParseError, match="line 2"):
            load_dag(path)


class TestDotParsing:
    def parse(self, text, tmp_path):
        path = tmp_path / "g.dot"
        path.write_text(text)
        return load_dag(path)

    def test_minimal(self, tmp_path):
        g = self.parse('digraph { "A"; "A" -> "B"; }', tmp_path)
        assert g == Dag("AB", [("A", "B")])

    def test_unquoted_names_and_graph_name(self, tmp_path):
        g = self.parse("digraph g {\n  A -> B;\n  C;\n}\n", tmp_path)
        assert g.nodes == ("A", "B", "C")

    def test_endpoints_need_no_declaration(self, tmp_path):
        g = self.parse("digraph { X -> Y; }", tmp_path)
        assert g.node_set == {"X", "Y"}

    def test_missing_semicolon_is_located(self, tmp_path):
        # reported at the token found where the ';' should have been
        with pytest.raises(ParseError, match=r"line 3, column 1: expected ';'"):
            self.parse("digraph {\n  A -> B\n}\n", tmp_path)

    def test_stray_character_is_located(self, tmp_path):
        with pytest.raises(ParseError, match="unexpected character '&'"):
            self.parse("digraph { A & B; }", tmp_path)

    def test_truncated_file(self, tmp_path):
        with pytest.raises(ParseError, match=r"expected '\}'"):
            self.parse("digraph { A;", tmp_path)

    def test_not_a_digraph(self, tmp_path):
        with pytest.raises(ParseError, match="expected 'digraph'"):
            self.parse("graph { A; }", tmp_path)


class TestSummaryFiles:
    def test_round_trip(self, h1, tmp_path):
        path = tmp_path / "h.json"
        save_summary(h1, path)
        assert load_summary(path) == h1

    def test_mutilated_flag_round_trips(self, h1, tmp_path):
        cut = mutilate_summary(h1, frozenset({"BC"}), frozenset())
        path = tmp_path / "h.json"
        save_summary(cut, path)
        assert load_summary(path) == cut
        assert load_summary(path).mutilated

    def test_dot_export_labels_clusters_with_members(self, h1, tmp_path):
        path = tmp_path / "h.dot"
        export_summary_dot(h1, path)
        text = path.read_text()
        assert '"BC" [label="B,C"];' in text
        assert '"BC" -> "D";' in text

    def test_summaries_do_not_load_from_dot(self, h1, tmp_path):
        path = tmp_path / "h.dot"
        save_summary(h1, path)  # allowed: render-only
        with pytest.raises(ValidationError, match="JSON"):
            load_summary(path)

    def test_overlapping_clusters_are_rejected(self, h1, tmp_path):
        from causalsumm.cli_io import summary_to_doc

        doc = summary_to_doc(h1)
        doc["clusters"]["D"] = ["D", "B"]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="two clusters"):
            load_summary(path)


class TestSimilarityCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "sim.csv"
        path.write_text(text)
        return path

    def test_load(self, tmp_path):
        path = self.write(tmp_path, ",A,B\nA,1,0.4\nB,0.4,1\n")
        sim = load_similarity(path, threshold=0.3)
        assert sim.labels == ("A", "B")
        assert sim.threshold == 0.3
        assert sim.values[0, 1] == 0.4

    def test_bad_number_is_located(self, tmp_path):
        path = self.write(tmp_path, ",A,B\nA,1,oops\nB,0.4,1\n")
        with pytest.raises(ParseError, match="line 2, column 3"):
            load_similarity(path, threshold=0.3)

    def test_missing_row(self, tmp_path):
        path = self.write(tmp_path, ",A,B\nA,1,0.4\n")
        with pytest.raises(ParseError, match="missing rows"):
            load_similarity(path, threshold=0.3)

    def test_nan_cell_is_named(self, tmp_path):
        path = self.write(tmp_path, ",A,B\nA,1,nan\nB,0.4,1\n")
        with pytest.raises(ValidationError, match="NaN"):
            load_similarity(path, threshold=0.3)


class TestCommands:
    def test_gen_then_summarize(self, tmp_path, capsys):
        g_path = str(tmp_path / "g.json")
        h_path = str(tmp_path / "h.json")
        assert cli(["gen", "--n", "9", "--density", "0.4", "--out", g_path]) == 0
        assert cli(["summarize", "--in", g_path, "--k", "4", "--out", h_path]) == 0
        h = load_summary(h_path)
        assert h.quotient.num_nodes == 4
        assert h.base == load_dag(g_path)

    def test_gen_is_byte_deterministic(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        for out in (a, b):
            cli(["gen", "--n", "7", "--density", "0.5", "--seed", "3", "--out", out])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_canonical(self, fixtures_dir, tmp_path, h1):
        out = str(tmp_path / "c.json")
        assert cli(["canonical", "--in", str(fixtures_dir / "h1.json"), "--out", out]) == 0
        assert load_dag(out) == canonical(h1)

    def test_rb_on_a_graph(self, fixtures_dir, capsys):
        assert cli(["rb", "--in", str(fixtures_dir / "g1.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["C | B | A", "D | A | B,C", "E | A,B,C | D"]

    def test_rb_on_a_summary(self, fixtures_dir, capsys):
        assert cli(["rb", "--in", str(fixtures_dir / "h1.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["D | A | B,C", "E | A,B,C | D"]

    def test_query_exit_codes(self, fixtures_dir, capsys):
        g = str(fixtures_dir / "g1.json")
        assert cli(["query", "--in", g, "--mode", "dsep", "--x", "E", "--y", "A",
                    "--z", "D"]) == 0
        assert capsys.readouterr().out == "SEPARATED\n"
        assert cli(["query", "--in", g, "--mode", "dsep", "--x", "E", "--y", "A"]) == 1
        assert capsys.readouterr().out == "CONNECTED\n"

    def test_query_on_a_summary(self, fixtures_dir, capsys):
        h = str(fixtures_dir / "h1.json")
        code = cli(["query", "--in", h, "--mode", "ssep", "--x", "E", "--y", "A",
                    "--z", "D"])
        assert code == 0 and capsys.readouterr().out == "SEPARATED\n"

    def test_docalc(self, fixtures_dir, capsys):
        h = str(fixtures_dir / "h1.json")
        base = ["docalc", "--in", h, "--rule", "r1", "--y", "E", "--z", "A"]
        assert cli(base + ["--w", "D"]) == 0
        assert capsys.readouterr().out == "APPLIES SEPARATED\n"
        assert cli(base) == 0
        assert capsys.readouterr().out == "NOT-APPLICABLE CONNECTED\n"

    def test_docalc_r3_variant_flag(self, fixtures_dir, capsys):
        h = str(fixtures_dir / "h1.json")
        args = ["docalc", "--in", h, "--rule", "r3", "--y", "A", "--z", "D",
                "--no-zw-in-hbar"]
        assert cli(args) == 0
        assert capsys.readouterr().out == "APPLIES SEPARATED\n"

    def test_metrics(self, fixtures_dir, capsys):
        code = cli(["metrics", "--a", str(fixtures_dir / "h1.json"),
                    "--b", str(fixtures_dir / "h2.json")])
        assert code == 0
        assert capsys.readouterr().out == "0.00,100.00,1,3\n"

    def test_bruteforce(self, fixtures_dir, tmp_path):
        out = str(tmp_path / "h.json")
        code = cli(["bruteforce", "--in", str(fixtures_dir / "g1.json"),
                    "--k", "4", "--out", out])
        assert code == 0
        assert additional_edges(load_summary(out)) == 1

    def test_perturb_matches_the_fixture(self, fixtures_dir, tmp_path):
        out = str(tmp_path / "p.json")
        code = cli(["perturb", "--in", str(fixtures_dir / "redshift.json"),
                    "--add", "0", "--remove", "1", "--seed", "13", "--out", out])
        assert code == 0
        assert load_dag(out) == redshift_missing_edge()


class TestCliErrors:
    def test_usage_errors_exit_2(self, fixtures_dir, tmp_path, capsys):
        assert cli(["no-such-command"]) == 2
        assert cli(["gen", "--n", "5"]) == 2  # missing --density/--out
        g1, out = str(fixtures_dir / "g1.json"), str(tmp_path / "h.json")
        assert cli(["summarize", "--in", g1, "--k", "3", "--no-preprocess", "--out", out]) == 2
        capsys.readouterr()

    def test_similarity_needs_tau(self, fixtures_dir, tmp_path, capsys):
        code = cli(["summarize", "--in", str(fixtures_dir / "g1.json"), "--k", "3",
                    "--similarity", "sim.csv", "--out", str(tmp_path / "h.json")])
        assert code == 2
        assert "together" in capsys.readouterr().err

    def test_domain_errors_exit_1(self, fixtures_dir, tmp_path, capsys):
        assert cli(["rb", "--in", str(tmp_path / "missing.json")]) == 1
        assert capsys.readouterr().err.startswith("error:")
        code = cli(["summarize", "--in", str(fixtures_dir / "g1.json"), "--k", "99",
                    "--out", str(tmp_path / "h.json")])
        assert code == 1
        assert "k" in capsys.readouterr().err

    def test_parse_errors_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.dot"
        bad.write_text("digraph {\n  A -> B\n}\n")
        assert cli(["rb", "--in", str(bad)]) == 1
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("edges", [["A", "BC"], "x"]),
            ("edges", "x"),
            ("base_order", "ABCDE"),
        ],
    )
    def test_malformed_summary_exits_1(self, h1, tmp_path, capsys, field, value):
        from causalsumm.cli_io import summary_to_doc

        doc = summary_to_doc(h1)
        doc[field] = value
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        code = cli(["query", "--in", str(path), "--mode", "ssep", "--x", "A", "--y", "E"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


def test_console_script(fixtures_dir):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "causalsumm.cli_io", "rb", "--in", str(fixtures_dir / "g1.json")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["C | B | A", "D | A | B,C", "E | A,B,C | D"]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def damaged(draw, doc):
    """``doc`` with one entry, at any depth, replaced by a random JSON value."""
    doc = copy.deepcopy(doc)
    node = doc
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        if not keys:
            return doc
        key = draw(st.sampled_from(keys))
        if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
            node = node[key]
            continue
        node[key] = draw(json_values)
        return doc


def _summary_doc():
    from causalsumm import fixtures
    from causalsumm.cli_io import summary_to_doc

    return summary_to_doc(fixtures.h1())


file_contents = st.one_of(
    st.builds(json.dumps, damaged(_summary_doc())).map(str.encode),
    st.builds(json.dumps, json_values).map(str.encode),
    st.text(max_size=40).map(str.encode),
    st.binary(max_size=20),
)


class TestLoaderFuzz:
    @settings(max_examples=150, deadline=None)
    @given(content=file_contents, suffix=st.sampled_from([".json", ".dot", ".csv"]))
    def test_only_graph_errors_escape(self, tmp_path_factory, content, suffix):
        path = tmp_path_factory.mktemp("fuzz") / f"in{suffix}"
        path.write_bytes(content)
        loaders = {
            ".json": (load_dag, load_summary),
            ".dot": (load_dag,),
            ".csv": (lambda p: load_similarity(p, 0.5),),
        }
        for load in loaders[suffix]:
            try:
                load(path)
            except GraphError:
                pass

    @settings(max_examples=60, deadline=None)
    @given(content=file_contents)
    def test_cli_never_prints_a_traceback(self, tmp_path_factory, content):
        folder = tmp_path_factory.mktemp("fuzz")
        bad_json, bad_csv = folder / "in.json", folder / "sim.csv"
        bad_json.write_bytes(content)
        bad_csv.write_bytes(content)
        g1 = str(Path(__file__).resolve().parent.parent / "fixtures" / "g1.json")
        runs = [
            ["rb", "--in", bad_json],
            ["canonical", "--in", bad_json, "--out", folder / "c.json"],
            ["query", "--in", bad_json, "--mode", "ssep", "--x", "A", "--y", "E"],
            ["summarize", "--in", g1, "--k", "2", "--similarity", bad_csv, "--tau", "0.5",
             "--out", folder / "h.json"],
        ]
        for argv in runs:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = cli([str(a) for a in argv])
            assert code in (0, 1)
            assert "Traceback" not in err.getvalue()
            if code:
                assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"version": 1, "nodes": ["A", "B"], "edges": [["A", ["B"]]]},
            {"version": 1, "nodes": ["A", "B"], "edges": [[{}, "B"]]},
        ],
    )
    def test_unhashable_edge_labels_are_parse_errors(self, tmp_path, doc):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="pair of labels"):
            load_dag(path)

    @pytest.mark.parametrize("field", ["clusters", "base_order"])
    def test_unhashable_summary_members_are_parse_errors(self, tmp_path, capsys, field):
        doc = _summary_doc()
        if field == "clusters":
            doc["clusters"]["BC"] = [["B"], "C"]
        else:
            doc["base_order"][0] = ["A"]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            load_summary(path)
        assert cli(["rb", "--in", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")
