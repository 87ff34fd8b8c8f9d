import contextlib
import copy
import errno
import io
import json
import os
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    Dag,
    DuplicateEdgeError,
    GenSpec,
    GraphError,
    ValidationError,
    additional_edges,
    canonical,
    gen_random_dag,
    graph_core,
    load_dag,
    load_summary,
    mutilate_summary,
    save_dag,
    save_summary,
    topological_order,
    trivial_summary,
)
from causalsumm.cli_io import (
    ParseError,
    _build_parser,
    _format_of,
    _parse,
    cli,
    export_summary_dot,
    load_similarity,
)
from conftest import FIXTURES_DIR, TRICKY_LABELS, tricky_dags
from oracles import (
    dag_to_doc,
    partition_summary,
    reference_canonical,
    reference_dot,
    reference_summary_json,
    summary_to_doc,
)
from test_summary import _random_mutilation, _random_summary


class TestDagFiles:
    @pytest.mark.parametrize("suffix", [".json", ".dot"])
    def test_round_trip(self, g1, redshift, tmp_path, suffix):
        for g in (g1, redshift):
            path = tmp_path / f"g{suffix}"
            save_dag(g, path)
            assert load_dag(path) == g

    def test_the_empty_graph_round_trips_byte_for_byte(self, tmp_path, capsys):
        text = json.dumps({"version": 1, "nodes": [], "edges": []}, indent=2) + "\n"
        src, out = tmp_path / "g.json", tmp_path / "out.json"
        src.write_text(text)
        save_dag(load_dag(src), out)
        assert out.read_text() == text
        assert cli(["rb", "--in", str(src)]) == 0
        assert capsys.readouterr() == ("", "")

    def test_dot_escapes_quotes_and_backslashes(self, tmp_path):
        g = Dag(['a"b', "Z", "c\\"], [('a"b', "Z"), ("c\\", "Z")])
        path = tmp_path / "g.dot"
        save_dag(g, path)
        assert path.read_text() == (
            'digraph {\n  "a\\"b";\n  "Z";\n  "c\\\\";\n'
            '  "a\\"b" -> "Z";\n  "c\\\\" -> "Z";\n}\n'
        )
        assert load_dag(path) == g

    @settings(max_examples=80, deadline=None)
    @given(g=tricky_dags())
    def test_dot_round_trips_every_label(self, tmp_path_factory, g):
        path = tmp_path_factory.mktemp("dot") / "g.dot"
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

    @pytest.mark.parametrize(
        "path",
        ["g.json", "g.JSON", "g.dot", "d/g.Dot", "g.json/", "g.json/.", "g.json//", "d.json/g",
         ".json", "d/.dot", "g.json.", "g..json", "...json", "g.yaml", "g", "", "/", ".", ".."],
    )
    def test_format_is_read_from_the_path_suffix(self, path):
        # the rule of Path(path).suffix, for text and for Path arguments
        suffix = Path(path).suffix.lower()
        for given in (path, Path(path)):
            if suffix in (".json", ".dot"):
                assert _format_of(given) == suffix[1:]
            else:
                with pytest.raises(ValidationError) as raised:
                    _format_of(given)
                assert str(raised.value) == f"unsupported file extension: {given}"

    def test_version_is_checked(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text('{"version": 99, "nodes": ["A"], "edges": []}')
        with pytest.raises(ParseError, match="version"):
            load_dag(path)

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_version_must_be_the_integer_one(self, h1, tmp_path, version):
        path = tmp_path / "g.json"
        path.write_text(f'{{"version": {version}, "nodes": ["A"], "edges": []}}')
        with pytest.raises(ParseError, match="version"):
            load_dag(path)
        doc = summary_to_doc(h1)
        doc["version"] = json.loads(version)
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="version"):
            load_summary(path)

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

    def test_other_backslashes_are_literal(self, tmp_path):
        g = self.parse('digraph { "a\\x" -> "b\\\\\\"c"; }', tmp_path)
        assert g.nodes == ("a\\x", 'b\\"c')

    def test_unterminated_escape_is_located(self, tmp_path):
        with pytest.raises(ParseError, match="line 1, column 11: unexpected character"):
            self.parse('digraph { "a\\"; }', tmp_path)

    def test_not_a_digraph(self, tmp_path):
        with pytest.raises(ParseError, match="expected 'digraph'"):
            self.parse("graph { A; }", tmp_path)

    def test_missing_edge_head_is_located(self, tmp_path):
        with pytest.raises(ParseError) as raised:
            self.parse("digraph { A -> ; }", tmp_path)
        assert str(raised.value) == "line 1, column 13: expected a node identifier after '->'"


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

    def test_dot_export_escapes_labels(self, tmp_path):
        g = Dag(['a"b', "c\\"], [('a"b', "c\\")])
        h = partition_summary(g, ('a"b', "c\\"), [['a"b', "c\\"]])
        path = tmp_path / "h.dot"
        export_summary_dot(h, path)
        assert '  "a\\"bc\\\\" [label="a\\"b,c\\\\"];' in path.read_text().splitlines()

    def test_summaries_do_not_load_from_dot(self, h1, tmp_path):
        path = tmp_path / "h.dot"
        save_summary(h1, path)  # allowed: render-only
        with pytest.raises(ValidationError, match="JSON"):
            load_summary(path)

    @pytest.mark.parametrize(
        "members, message",
        [
            ("A", "cluster 'A' must be a list of labels"),
            ({"A": 1}, "cluster 'A' must be a list of labels"),
            ([], "cluster 'A' is empty"),
            (["A", 1], "cluster 'A' members must be labels"),
        ],
    )
    def test_bad_cluster_is_named(self, h1, tmp_path, members, message):
        doc = summary_to_doc(h1)
        doc["clusters"]["A"] = members
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match=f"^{message}$"):
            load_summary(path)

    def test_overlapping_clusters_are_rejected(self, h1, tmp_path):
        doc = summary_to_doc(h1)
        doc["clusters"]["D"] = ["D", "B"]
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError, match="two clusters"):
            load_summary(path)


class TestCanonicalExport:
    """``canonical --out`` streams its rows: the bytes must be those of the
    definitional canonical DAG laid out by ``json.dumps`` or by the DOT
    reference, and the grounded graph is never built."""

    def assert_export_matches(self, h, folder):
        src = folder / "h.json"
        save_summary(h, src)
        ref = reference_canonical(h)
        expected = {".json": json.dumps(dag_to_doc(ref), indent=2) + "\n", ".dot": reference_dot(ref)}
        for suffix, text in expected.items():
            out = folder / f"out{suffix}"
            assert cli(["canonical", "--in", str(src), "--out", str(out)]) == 0
            assert out.read_bytes() == text.encode()

    @settings(max_examples=80, deadline=None)
    @given(g=tricky_dags(), rng=st.randoms(use_true_random=False), cut=st.booleans())
    def test_bytes_equal_save_dag_of_canonical(self, tmp_path_factory, g, rng, cut):
        h = _random_summary(g, rng)
        if cut:
            h = _random_mutilation(h, rng)
        self.assert_export_matches(h, tmp_path_factory.mktemp("export"))

    @pytest.mark.parametrize("case", ["edgeless", "edgeless, k=1", "trivial", "k=1"])
    def test_extremes(self, redshift, tmp_path, case):
        g = Dag(TRICKY_LABELS) if case.startswith("edgeless") else redshift
        order = topological_order(g)
        h = partition_summary(g, order, [order]) if "k=1" in case else trivial_summary(g)
        self.assert_export_matches(h, tmp_path)

    def test_suffixed_labels(self, tmp_path):
        g = Dag(["A", "B", "AB", 'a"b'], [("A", "AB"), ("B", "AB"), ("AB", 'a"b')])
        h = partition_summary(g, ("A", "B", "AB", 'a"b'), [["A", "B"], ["AB"], ['a"b']])
        assert h.quotient.nodes == ("AB#2", "AB", 'a"b')
        self.assert_export_matches(h, tmp_path)

    @pytest.mark.parametrize("pair", [("A", "A!"), ('"', "#2"), ("é", "z")])
    def test_quoted_order_is_not_label_order(self, tmp_path, pair):
        # json.dumps or DOT quoting sorts these two labels the other way
        # round, so rows must be ordered by label, never by their text
        p, q = pair
        g = Dag(["S", p, q, "T"], [("S", p), ("S", q), (p, "T"), (q, "T")])
        order = topological_order(g)
        for blocks in ([[v] for v in order], [order], [["S"], [p, q], ["T"]], [["S", p], [q, "T"]]):
            h = partition_summary(g, order, blocks)
            self.assert_export_matches(h, tmp_path)
            self.assert_export_matches(mutilate_summary(h, {h.mapping[q]}, set()), tmp_path)


class TestExportWorkIsCounted:
    """Counted, not timed: the canonical rows sort once per cluster, and the
    export encodes each label once, however many edges it writes."""

    @pytest.fixture
    def h(self):
        g = gen_random_dag(GenSpec(120, 0.1, 3))
        order = topological_order(g)
        return partition_summary(g, order, [order[i : i + 20] for i in range(0, 120, 20)])

    def test_rows_sort_once_per_cluster(self, h, monkeypatch):
        from causalsumm import summary

        edges = reference_canonical(h).num_edges
        calls = []

        def counting_sorted(*args, **kwargs):
            calls.append(args)
            return sorted(*args, **kwargs)

        monkeypatch.setattr(summary, "sorted", counting_sorted, raising=False)
        rows = list(summary.canonical_rows(h, str))
        assert 0 < len(calls) <= len(h.quotient.nodes) + 1
        assert [u for u, _ in rows] == sorted(h.base.nodes)
        assert sum(map(len, (heads for _, heads in rows))) == edges

    @pytest.mark.parametrize(
        "suffix, encoder",
        [
            pytest.param(".json", "json.encoder.encode_basestring_ascii", id=".json-json.encoder"),
            (".dot", "causalsumm.cli_io._dot_quote"),
        ],
    )
    def test_export_encodes_each_label_once(self, h, tmp_path, monkeypatch, suffix, encoder):
        src = tmp_path / "h.json"
        save_summary(h, src)
        module, name = encoder.rsplit(".", 1)
        encode = getattr(sys.modules[module], name)
        calls = []

        def counting_encode(label, *args, **kwargs):
            calls.append(label)
            return encode(label, *args, **kwargs)

        monkeypatch.setattr(encoder, counting_encode)
        out = tmp_path / f"c{suffix}"
        assert cli(["canonical", "--in", str(src), "--out", str(out)]) == 0
        assert sorted(calls) == sorted(h.base.nodes)


class TestSummaryJsonBytes:
    """``save_summary`` streams its JSON: the bytes must be those of
    ``json.dumps(doc, indent=2)`` of the summary document."""

    def assert_bytes_match(self, h, path):
        save_summary(h, path)
        assert path.read_bytes() == reference_summary_json(h).encode()

    @settings(max_examples=100, deadline=None)
    @given(g=tricky_dags(), rng=st.randoms(use_true_random=False), cut=st.booleans())
    def test_bytes_equal_json_dumps(self, tmp_path_factory, g, rng, cut):
        h = _random_summary(g, rng)
        if cut:
            h = _random_mutilation(h, rng)
        self.assert_bytes_match(h, tmp_path_factory.mktemp("summary") / "h.json")

    def test_suffixed_labels(self, tmp_path):
        g = Dag(["A", "B", "AB", 'a"b'], [("A", "AB"), ("B", "AB"), ("AB", 'a"b')])
        h = partition_summary(g, ("A", "B", "AB", 'a"b'), [["A", "B"], ["AB"], ['a"b']])
        assert h.quotient.nodes == ("AB#2", "AB", 'a"b')
        self.assert_bytes_match(h, tmp_path / "h.json")
        self.assert_bytes_match(mutilate_summary(h, {"AB"}, set()), tmp_path / "h.json")

    def test_edgeless_and_single_cluster(self, tmp_path):
        g = Dag(TRICKY_LABELS)
        self.assert_bytes_match(trivial_summary(g), tmp_path / "h.json")
        self.assert_bytes_match(partition_summary(g, g.nodes, [g.nodes]), tmp_path / "h.json")


#: every command that writes an ``--out`` file, its inputs named in fixtures/
WRITING_COMMANDS = [
    ["gen", "--n", "9", "--density", "0.4", "--seed", "2"],
    ["summarize", "--in", "g1.json", "--k", "3", "--seed", "1"],
    ["bruteforce", "--in", "g1.json", "--k", "3"],
    ["perturb", "--in", "redshift.json", "--add", "2", "--remove", "1", "--seed", "5"],
    ["canonical", "--in", "h1.json"],
]


def _in_fixtures(fixtures_dir, argv):
    return [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]


def _write_output(kind, h, path):
    """Write ``h`` as one of the package's outputs, by ``kind``."""
    if kind == "save_dag":
        save_dag(h.base, path)
    elif kind == "save_summary":
        save_summary(h, path)
    else:
        src = path.parent / "canonical-in" / "h.json"
        src.parent.mkdir(exist_ok=True)
        save_summary(h, src)
        assert cli(["canonical", "--in", str(src), "--out", str(path)]) == 0


class TestRewriteInPlace:
    """An output is written over an existing file in place and cut to the
    new length: the file ends up as ``open(path, "w")`` would leave it."""

    KINDS = ["save_dag", "save_summary", "canonical"]

    @pytest.mark.parametrize("suffix", [".json", ".dot"])
    @pytest.mark.parametrize("kind", KINDS)
    def test_short_over_long_is_a_fresh_write(self, tmp_path, h1, redshift, kind, suffix):
        out, fresh = tmp_path / f"out{suffix}", tmp_path / f"fresh{suffix}"
        _write_output(kind, trivial_summary(redshift), out)
        longer = out.stat().st_size
        inode = out.stat().st_ino
        _write_output(kind, h1, out)
        _write_output(kind, h1, fresh)
        assert out.read_bytes() == fresh.read_bytes()
        assert out.stat().st_size < longer and out.stat().st_ino == inode

    @pytest.mark.parametrize("kind", KINDS)
    def test_an_existing_file_keeps_its_mode(self, tmp_path, h1, kind):
        out = tmp_path / "out.json"
        out.write_text("x" * 5000)
        out.chmod(0o640)
        _write_output(kind, h1, out)
        assert stat.S_IMODE(out.stat().st_mode) == 0o640
        assert b"x" not in out.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "symlink") or os.name == "nt", reason="needs symlinks")
    @pytest.mark.parametrize("kind", KINDS)
    def test_a_symlink_is_followed_and_kept(self, tmp_path, h1, kind):
        target, link, fresh = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "f.json"
        target.write_text("x" * 5000)
        link.symlink_to(target)
        _write_output(kind, h1, link)
        _write_output(kind, h1, fresh)
        assert link.is_symlink() and target.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not hasattr(os, "symlink") or os.name == "nt", reason="needs symlinks")
    def test_out_may_point_at_devnull(self, fixtures_dir, tmp_path, capsys):
        # /dev/null is written but, not being a regular file, never truncated
        for suffix in (".json", ".dot"):
            null = tmp_path / f"null{suffix}"
            null.symlink_to(os.devnull)
            for argv in WRITING_COMMANDS:
                assert cli(_in_fixtures(fixtures_dir, argv) + ["--out", str(null)]) == 0, argv[0]
            assert capsys.readouterr().err == ""

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs FIFOs")
    def test_a_fifo_is_written_and_not_truncated(self, tmp_path, g1):
        fifo, fresh = tmp_path / "pipe.json", tmp_path / "fresh.json"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            save_dag(g1, fifo)
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        save_dag(g1, fresh)
        assert received == [fresh.read_bytes()]

    @pytest.mark.parametrize("suffix", [".json", ".dot"])
    def test_a_failed_write_leaves_no_old_tail(self, tmp_path, suffix):
        from causalsumm.cli_io import _write_graph

        def rows(name):  # the first row, then a failure mid-file
            yield name("A"), [name("B")]
            raise RuntimeError("stop")

        out, fresh, whole = (tmp_path / f"{name}{suffix}" for name in ("out", "fresh", "whole"))
        out.write_text("x" * 5000)
        for path in (out, fresh):
            with pytest.raises(RuntimeError, match="stop"):
                _write_graph(path, ["A", "B"], rows)
        assert out.read_bytes() == fresh.read_bytes()
        _write_graph(whole, ["A", "B"], lambda name: [(name("A"), [name("B")])])
        assert whole.read_bytes().startswith(out.read_bytes()) and b"x" not in out.read_bytes()

    def test_a_failed_wrap_closes_the_descriptor(self, tmp_path, g1, monkeypatch):
        # when the descriptor cannot be wrapped in a text file, it is closed
        # and the error propagates
        from causalsumm import cli_io

        opened = []
        real_open = cli_io.os.open

        def recording_open(*args, **kwargs):
            opened.append(real_open(*args, **kwargs))
            return opened[-1]

        def failing_wrap(*args, **kwargs):
            raise OSError("cannot wrap")

        monkeypatch.setattr(cli_io.os, "open", recording_open)
        monkeypatch.setattr(cli_io.io, "open", failing_wrap)
        with pytest.raises(OSError, match="^cannot wrap$"):
            save_dag(g1, tmp_path / "g.json")
        assert len(opened) == 1
        with pytest.raises(OSError) as closed:
            os.fstat(opened[0])
        assert closed.value.errno == errno.EBADF

    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_out_errors_as_open_does(self, fixtures_dir, tmp_path, capsys, where):
        for suffix in (".json", ".dot"):
            if where == "directory":
                out = tmp_path / f"dir{suffix}"
                out.mkdir()
            else:
                out = tmp_path / "missing" / f"h{suffix}"
            # the error open(path, "w") raises, as the CLI printed it before
            with pytest.raises(OSError) as opened:
                open(out, "w")
            for argv in WRITING_COMMANDS:
                assert cli(_in_fixtures(fixtures_dir, argv) + ["--out", str(out)]) == 1, argv[0]
                assert capsys.readouterr().err == f"error: {opened.value}\n", argv[0]


@pytest.mark.parametrize("suffix", [".json", ".dot"])
@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=lambda argv: argv[0])
def test_each_command_opens_its_output_once_without_truncating(
    fixtures_dir, tmp_path, monkeypatch, argv, suffix
):
    # counted, not timed: one open per output, never with O_TRUNC, on the
    # first write and on the rewrite of the same path
    from causalsumm import cli_io

    opened = []
    real_open = cli_io.os.open

    def recording_open(path, flags, *args, **kwargs):
        if flags & (os.O_WRONLY | os.O_RDWR):
            opened.append((os.fspath(path), flags))
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(cli_io.os, "open", recording_open)
    out = tmp_path / f"out{suffix}"
    argv = _in_fixtures(fixtures_dir, argv)
    written = []
    for _ in range(2):
        opened.clear()
        assert cli(argv + ["--out", str(out)]) == 0
        assert [path for path, _ in opened] == [str(out)]
        assert not opened[0][1] & os.O_TRUNC
        written.append(out.read_bytes())
    assert written[0] == written[1]


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

    def test_a_field_over_the_csv_limit_is_malformed(self, tmp_path):
        path = self.write(tmp_path, ",A\nA," + "1" * 131073 + "\n")
        with pytest.raises(ParseError, match=r"^malformed CSV: field larger than field limit"):
            load_similarity(path, threshold=0.3)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = self.write(tmp_path, ",A,B\n\nA,1,0.4\n\nB,0.4,1\n\n")
        assert load_similarity(path, threshold=0.3).values.tolist() == [[1, 0.4], [0.4, 1]]


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
        # rule 3 has one reading and no flag that picks another
        h = str(fixtures_dir / "h1.json")
        args = ["docalc", "--in", h, "--rule", "r3", "--y", "A", "--z", "D"]
        for flag in ("--zw-in-hbar", "--no-zw-in-hbar"):
            assert cli(args + [flag]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines()[-1].endswith(f"error: unrecognized arguments: {flag}")

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

    def test_perturb_matches_the_fixture(self, fixtures_dir, tmp_path, redshift_missing_edge):
        out = str(tmp_path / "p.json")
        code = cli(["perturb", "--in", str(fixtures_dir / "redshift.json"),
                    "--add", "0", "--remove", "1", "--seed", "13", "--out", out])
        assert code == 0
        assert load_dag(out) == redshift_missing_edge


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
        # a lone surrogate loads from JSON but cannot be written as UTF-8
        lone = tmp_path / "lone.json"
        lone.write_text('{"version": 1, "nodes": ["\\ud800"], "edges": []}')
        for argv in (
            ["summarize", "--in", lone, "--k", "1", "--out", tmp_path / "h.dot"],
            ["perturb", "--in", lone, "--add", "0", "--remove", "0", "--out", tmp_path / "p.dot"],
        ):
            assert cli([str(a) for a in argv]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "5", "--density", "0.5", "--seed", "-1"],
            ["perturb", "--in", "g1.json", "--add", "1", "--remove", "1", "--seed", "-1"],
            ["summarize", "--in", "g1.json", "--k", "2", "--seed", "-1"],
        ],
    )
    def test_negative_seed_exits_1(self, fixtures_dir, tmp_path, capsys, argv):
        argv = [str(fixtures_dir / a) if a.endswith(".json") else a for a in argv]
        assert cli(argv + ["--out", str(tmp_path / "g.json")]) == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen", "--n", "300", "--density", "0.5"],
            ["summarize", "--in", "missing.json", "--k", "2"],
            ["bruteforce", "--in", "missing.json", "--k", "2"],
            ["perturb", "--in", "missing.json", "--add", "1", "--remove", "1"],
            ["canonical", "--in", "missing.json"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_an_unsupported_out_fails_before_any_work(self, tmp_path, monkeypatch, capsys, argv):
        # the --out extension is reported before any input is read and before
        # a graph is generated, summarized or perturbed
        from causalsumm import bench, cagres, cli_io

        def never(*args):
            raise AssertionError("called before the --out check")

        for module, name in [(bench, "gen_random_dag"), (cagres, "summarize"),
                             (bench, "brute_force_summarize"), (bench, "perturb"),
                             (cli_io, "load_dag"), (cli_io, "load_summary")]:
            monkeypatch.setattr(module, name, never)
        out = tmp_path / "h.txt"
        argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
        assert cli(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: unsupported file extension: {out}\n"
        assert not out.exists()

    @pytest.mark.parametrize("message", ["Unable to allocate 5.96 GiB", ""])
    def test_out_of_memory_is_one_line(self, fixtures_dir, monkeypatch, capsys, message):
        # a MemoryError inside a handler, raised without allocating anything
        from causalsumm import cli_io

        def exhausted(path):
            raise MemoryError(message)

        monkeypatch.setattr(cli_io, "load_dag", exhausted)
        g1 = str(fixtures_dir / "g1.json")
        assert cli(["query", "--in", g1, "--mode", "dsep", "--x", "A", "--y", "E"]) == 1
        captured = capsys.readouterr()
        expected = f"error: out of memory: {message}\n" if message else "error: out of memory\n"
        assert captured.err == expected and captured.out == ""

    def test_summarize_over_the_engine_limit_is_one_line(self, tmp_path, monkeypatch, capsys):
        # an edgeless graph one node past the limit, refused before numpy
        # allocates; a missed guard would end in the patched zeros' traceback
        from causalsumm import cagres

        def zeros(*args, **kwargs):
            raise AssertionError("allocated past the size guard")

        n = cagres.ENGINE_NODE_LIMIT + 1
        graph, out = tmp_path / "g.json", tmp_path / "h.json"
        save_dag(Dag([f"X{i:05d}" for i in range(n)]), graph)
        monkeypatch.setattr(cagres.np, "zeros", zeros)
        assert cli(["summarize", "--in", str(graph), "--k", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith("error: ")
        assert captured.err.endswith(f"; refusing {n} nodes (limit {n - 1})\n")
        assert not out.exists()

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
            # a mutilated summary skips edge preservation: only JSON true counts
            ("mutilated", "false"),
            ("mutilated", 0),
            ("mutilated", None),
        ],
    )
    def test_malformed_summary_exits_1(self, h1, tmp_path, capsys, field, value):
        doc = summary_to_doc(h1)
        doc[field] = value
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        code = cli(["query", "--in", str(path), "--mode", "ssep", "--x", "A", "--y", "E"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


class TestParserReuse:
    def test_interleaved_calls_match_a_fresh_parser(self, fixtures_dir, tmp_path):
        # one parser serves every cli() call in a process; no default, flag or
        # error state may carry over from one call to the next
        from causalsumm import trivial_summary

        g1, out = str(fixtures_dir / "g1.json"), tmp_path / "out.json"
        # R3 applies with do(X) held fixed and not without it
        cut = tmp_path / "cut.json"
        save_summary(
            trivial_summary(Dag("UZXWY", [("U", "Z"), ("U", "Y"), ("Z", "X"), ("X", "W")])),
            cut,
        )
        r3 = ["docalc", "--in", cut, "--rule", "r3", "--y", "Y", "--z", "Z", "--w", "W"]
        sim = tmp_path / "sim.csv"
        sim.write_text(",A,B,C,D,E\nA,1,1,1,1,1\nB,1,1,0.5,1,1\nC,1,0.5,1,1,1\n"
                       "D,1,1,1,1,1\nE,1,1,1,1,1\n")
        summarize = ["summarize", "--in", g1, "--k", "4", "--out", out]
        calls = [
            r3 + ["--x", "X"],
            r3,
            summarize + ["--similarity", sim, "--tau", "0.8"],
            summarize,
            ["summarize", "--in", g1, "--k", "four", "--out", out],
            ["rb", "--in", g1],
        ]

        def run(argv):
            out.unlink(missing_ok=True)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli([str(a) for a in argv])
            written = out.read_bytes() if out.exists() else None
            return code, stdout.getvalue(), stderr.getvalue(), written

        parser = _build_parser()
        shared = [run(argv) for argv in calls]
        assert _build_parser() is parser
        fresh = []
        for argv in calls:
            _build_parser.cache_clear()
            fresh.append(run(argv))
        assert shared == fresh
        assert [code for code, *_ in shared] == [0, 0, 0, 0, 2, 0]
        assert shared[0][1] == "APPLIES SEPARATED\n"
        assert shared[1][1] == "NOT-APPLICABLE CONNECTED\n"
        assert shared[2][3] != shared[3][3]  # the similarity keeps B and C apart
        assert "usage:" in shared[4][2]


def _parsed(parse, argv):
    """What ``parse(argv)`` prints, its exit code and its namespace, less
    the ``command`` attribute that only the top-level parse sets."""
    stdout, stderr = io.StringIO(), io.StringIO()
    code, args = None, None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            args = vars(parse(argv))
        except SystemExit as exc:
            code = exc.code
    if args is not None:
        args.pop("command", None)
    return code, args, stdout.getvalue(), stderr.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--help"],
        ["nope"],
        ["Rb", "--in", "g.json"],
        ["rb", "--in", "g.json", "extra", "--more"],
        ["rb", "--in", "g.json", "--in"],
        ["gen", "--n", "x", "--density", "0.5", "--out", "o.json"],
        ["query", "--in", "h.json", "--mode", "zzz", "--x", "A", "--y", "B"],
        ["--", "rb", "--in", "g.json"],
        ["rb", "--in", "g.json", "--"],
        ["rb", "--", "--in", "g.json"],
        ["gen", "--n", "3"],
        ["gen", "-h"],
        ["summarize", "--he"],
        ["metrics", "--a", "a.json", "--b"],
        ["rb", "--in=g.json"],
        ["docalc", "--in", "h.json", "--rule", "r3", "--y", "A", "--z", "B", "--no-zw"],
    ],
)
def test_a_command_word_parses_as_the_top_level_parser_does(argv):
    # help, usage errors and leftovers print the same text and exit with
    # the same code; a parse that succeeds gives the same namespace
    parser, _ = _build_parser()
    routed = _parsed(_parse, argv)
    assert routed == _parsed(parser.parse_args, argv)
    if routed[0] is not None:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert cli(argv) == routed[0]


@pytest.mark.parametrize(
    "argv, builds",
    [
        # a summary load builds only the base and the quotient
        (["canonical", "--in", "h1.json", "--out", "c.json"], []),
        (["query", "--in", "h1.json", "--mode", "ssep", "--x", "E", "--y", "A", "--z", "D"], []),
        (["rb", "--in", "h1.json"], []),
        # each rule d-separates in one or two mutilations of the quotient
        (["docalc", "--in", "h1.json", "--rule", "r1", "--y", "E", "--z", "A"], [(4, 3)]),
        (["docalc", "--in", "h1.json", "--rule", "r2", "--y", "E", "--z", "BC"], [(4, 2)]),
        (["docalc", "--in", "h1.json", "--rule", "r3", "--y", "A", "--z", "D", "--x", "BC"],
         [(4, 2), (4, 1)]),
        # the second load; neither direction grounds a canonical DAG
        (["metrics", "--a", "h1.json", "--b", "h2.json"], [(5, 5), (4, 4)]),
    ],
    ids=["canonical", "ssep", "rb", "docalc-r1", "docalc-r2", "docalc-r3", "metrics"],
)
def test_dag_builds_are_pinned(fixtures_dir, tmp_path, monkeypatch, capsys, argv, builds):
    # every Dag a command builds, as (nodes, edges): no command rebuilds a
    # graph it loaded, and canonical --out never builds the grounded graph;
    # the 5-node base is proven by base_order, never by a Kahn pass
    recorded, kahn_passes = [], []
    init, kahn = Dag.__init__, graph_core._kahn

    def recording_init(self, nodes, edges=(), **order):
        nodes, edges = list(nodes), list(edges)
        recorded.append((len(nodes), len(edges)))
        init(self, nodes, edges, **order)

    def counting_kahn(order, edges):
        kahn_passes.append(len(order))
        return kahn(order, edges)

    monkeypatch.setattr(Dag, "__init__", recording_init)
    monkeypatch.setattr(graph_core, "_kahn", counting_kahn)
    folder = {"h1.json": fixtures_dir, "h2.json": fixtures_dir, "c.json": tmp_path}
    assert cli([str(folder[a] / a) if a in folder else a for a in argv]) == 0
    capsys.readouterr()
    assert recorded == [(5, 5), (4, 3)] + builds
    assert kahn_passes and 5 not in kahn_passes


@pytest.mark.parametrize("command", ["ssep", "r1", "r2", "r3", "canonical", "rb", "metrics"])
def test_a_summary_load_proves_its_base_by_one_order_test(
    tmp_path, monkeypatch, capsys, command
):
    # counted: on the commands that answer on the quotient, a valid summary's
    # base is built once per load and proven acyclic by exactly one forward
    # pass over base_order, made inside Dag.__init__; Kahn's pass never runs
    # on it, SummaryDag finds the order already proven, and the base's
    # parent and child sets are never built
    g = gen_random_dag(GenSpec(60, 0.1, 3))
    order = topological_order(g)
    path = tmp_path / "h.json"
    save_summary(partition_summary(g, order, [order[i : i + 10] for i in range(0, 60, 10)]), path)
    y, z, x, w = load_summary(path).quotient.nodes[:4]
    argv = {
        "ssep": ["query", "--in", path, "--mode", "ssep", "--x", x, "--y", y, "--z", z],
        "canonical": ["canonical", "--in", path, "--out", tmp_path / "c.json"],
        "rb": ["rb", "--in", path],
        "metrics": ["metrics", "--a", path, "--b", path],
    }.get(command, ["docalc", "--in", path, "--rule", command, "--y", y, "--z", z,
                    "--x", x, "--w", w])
    loads = 2 if command == "metrics" else 1

    built, kahn_passes, passes, adjacency, inside = [], [], [], [], []
    init, kahn, require_order, freeze = (
        Dag.__init__, graph_core._kahn, Dag._require_order, Dag._freeze
    )

    def counting_init(self, nodes, edges=(), **order):
        nodes = list(nodes)
        built.append(len(nodes))
        inside.append(self)
        try:
            init(self, nodes, edges, **order)
        finally:
            inside.pop()

    def counting_kahn(order, edges):
        kahn_passes.append(len(order))
        return kahn(order, edges)

    def counting_require_order(self, order, name, owner):
        if order != self._proven_order:  # a real pass, not the recorded order
            passes.append((len(order), bool(inside)))
        require_order(self, order, name, owner)

    def counting_freeze(self):
        adjacency.append(self.num_nodes)
        freeze(self)

    monkeypatch.setattr(Dag, "__init__", counting_init)
    monkeypatch.setattr(graph_core, "_kahn", counting_kahn)
    monkeypatch.setattr(Dag, "_require_order", counting_require_order)
    monkeypatch.setattr(Dag, "_freeze", counting_freeze)
    assert cli([str(a) for a in argv]) in (0, 1)
    assert capsys.readouterr().err == ""
    assert built.count(60) == loads and passes == [(60, True)] * loads
    assert 60 not in kahn_passes and 60 not in adjacency
    # the quotient and its mutilations, each proven by Kahn's pass
    assert max(n for n in built if n != 60) == 6 and 6 in kahn_passes


def test_console_script(fixtures_dir, tmp_path):
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "causalsumm", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )

    proc = run("rb", "--in", str(fixtures_dir / "g1.json"))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines() == ["C | B | A", "D | A | B,C", "E | A,B,C | D"]
    proc = run("rb", "--in", str(tmp_path / "missing.json"))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["query", "--in", "h4.json", "--mode", "ssep", "--x", "A", "--y", "E", "--z", "D"],
         "unknown node: 'D'"),
        (["docalc", "--in", "h4.json", "--rule", "r1", "--y", "Q", "--z", "R", "--x", "S"],
         "unknown node: 'Q'"),
        (["query", "--in", "cut.json", "--mode", "ssep", "--x", "A", "--y", "E"],
         "edge preservation violated: A -> B has no image A -> BC in the quotient"),
        (["query", "--in", "reversed.json", "--mode", "ssep", "--x", "A", "--y", "E"],
         "base_order is not topological: edge A -> B goes backwards"),
    ],
    ids=["labels", "clusters", "edge-preservation", "base-order"],
)
def test_error_text_is_the_same_under_every_hash_seed(fixtures_dir, tmp_path, argv, message):
    # with several bad labels or edges the message names the smallest, not
    # the first in set iteration order, which moves with PYTHONHASHSEED
    h1 = json.loads((fixtures_dir / "h1.json").read_text())
    (tmp_path / "cut.json").write_text(json.dumps({**h1, "edges": []}))
    (tmp_path / "reversed.json").write_text(
        json.dumps({**h1, "base_order": h1["base_order"][::-1]})
    )
    folder = {"h4.json": fixtures_dir, "cut.json": tmp_path, "reversed.json": tmp_path}
    argv = [str(folder[a] / a) if a in folder else a for a in argv]
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    for seed in range(4):
        proc = subprocess.run(
            # what the installed console script runs
            [sys.executable, "-c", "from causalsumm.cli_io import main; main()", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": str(seed)},
        )
        expected = (1, "", f"error: {message}\n")
        assert (proc.returncode, proc.stdout, proc.stderr) == expected, f"PYTHONHASHSEED={seed}"


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


def _h1_doc():
    return json.loads((FIXTURES_DIR / "h1.json").read_text(encoding="utf-8"))


file_contents = st.one_of(
    st.builds(json.dumps, damaged(_h1_doc())).map(str.encode),
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
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli([str(a) for a in argv])
            assert code in (0, 1)
            assert "Traceback" not in err.getvalue()
            # query exits 1 to answer CONNECTED on a file that is still valid
            if code and out.getvalue() != "CONNECTED\n":
                assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        for load in (load_dag, load_summary):
            with pytest.raises(ParseError, match="nested too deeply"):
                load(path)
        for argv in (["rb", "--in", path], ["canonical", "--in", path, "--out", tmp_path / "c.json"],
                     ["query", "--in", path, "--mode", "ssep", "--x", "A", "--y", "E"]):
            assert cli([str(a) for a in argv]) == 1
            err = capsys.readouterr().err
            assert err == "error: document is nested too deeply\n"

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

    @pytest.mark.parametrize("where", ["graph", "base", "quotient"])
    @pytest.mark.parametrize("pair", ["AB", {"A": 1, "B": 2}], ids=["joined", "object"])
    def test_an_edge_must_be_a_list(self, tmp_path, where, pair):
        # both values unpack into the labels "A" and "B", yet neither is a pair
        if where == "graph":
            doc, load = {"version": 1, "nodes": ["A", "B"], "edges": [pair]}, load_dag
        else:
            doc, load = _h1_doc(), load_summary
            edges = doc["base"]["edges"] if where == "base" else doc["edges"]
            edges[edges.index(["A", "BC"] if where == "quotient" else ["A", "B"])] = pair
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError) as error:
            load(path)
        assert str(error.value) == f"edge must be a [tail, head] pair of labels: {pair}"

    def test_a_repeated_base_edge_is_named(self, tmp_path):
        # the recorded order proves no graph with a repeated edge; the
        # constructor then names the edge
        doc = _h1_doc()
        doc["base"]["edges"].append(["A", "B"])
        path = tmp_path / "h.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DuplicateEdgeError, match="^duplicate edge: A -> B$"):
            load_summary(path)

    @pytest.mark.parametrize("field", ["clusters", "base_order"])
    def test_unhashable_summary_members_are_parse_errors(self, tmp_path, capsys, field):
        doc = _h1_doc()
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


def _is_pair(value):
    return isinstance(value, list) and len(value) == 2 and all(isinstance(v, str) for v in value)


def _unpacking_pairs(tail, head):
    """Values other than a list that unpack into ``tail, head``: their text
    joined, when both are one character long, and an object keyed by them."""
    joined = [tail + head] if len(tail) == len(head) == 1 else []
    return joined + [{tail: 1, head: 2}]


#: values no label may take: empty, with whitespace or a reserved character,
#: not UTF-8, or not text
BAD_LABELS = ["", " ", "a b", "x\t", "a,b", "|", ";", "\ud800", 1, None, ["A"], {"A": 1}]


@st.composite
def mangled(draw, doc):
    """``doc`` after one to three edits of entries other than a version: a
    label swapped for a bad one or one already in use, a list entry dropped
    or repeated, a list reversed or two of its entries swapped, a key
    renamed, an entry replaced by random JSON, an edge dropped or added
    between two labels already in use, or an edge pair replaced by a value
    that is not a list yet unpacks into its two labels."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        slots = []  # (container, key) of every entry but a version

        def collect(node):
            keys = list(node) if isinstance(node, dict) else range(len(node))
            for key in keys:
                if key != "version":
                    slots.append((node, key))
                    if isinstance(node[key], (dict, list)):
                        collect(node[key])

        collect(doc)
        labels = sorted({v for node, key in slots if isinstance(v := node[key], str)})
        edit = draw(
            st.sampled_from(
                ["label", "drop", "repeat", "reverse", "swap", "rename", "json", "edge",
                 "pair"]
            )
        )
        fits = {
            "pair": lambda node, key: isinstance(node, list) and _is_pair(node[key]),
            "swap": lambda node, key: isinstance(node[key], list) and len(node[key]) > 1,
            "edge": lambda node, key: key == "edges" and isinstance(node[key], list),
            "label": lambda node, key: isinstance(node[key], str),
            "drop": lambda node, key: isinstance(node, list),
            "repeat": lambda node, key: isinstance(node, list),
            "reverse": lambda node, key: isinstance(node[key], list),
            "rename": lambda node, key: isinstance(node, dict),
            "json": lambda node, key: True,
        }[edit]
        targets = [slot for slot in slots if fits(*slot)]
        if not targets:
            continue
        node, key = draw(st.sampled_from(targets))
        if edit == "label":
            node[key] = copy.deepcopy(draw(st.sampled_from(labels + BAD_LABELS)))
        elif edit == "drop":
            del node[key]
        elif edit == "repeat":
            node.insert(key, copy.deepcopy(node[key]))
        elif edit == "reverse":
            node[key].reverse()
        elif edit == "swap":
            i, j = draw(st.permutations(range(len(node[key]))))[:2]
            node[key][i], node[key][j] = node[key][j], node[key][i]
        elif edit == "edge" and node[key] and draw(st.booleans()):
            node[key].pop(draw(st.integers(0, len(node[key]) - 1)))
        elif edit == "edge":  # perhaps a self-loop, a repeat, or closing a cycle
            ends = st.sampled_from(labels or ["A"])
            node[key].append([draw(ends), draw(ends)])
        elif edit == "pair":  # "AB" or {"A": 1, "B": 2} in place of ["A", "B"]
            node[key] = draw(st.sampled_from(_unpacking_pairs(*node[key])))
        elif edit == "rename":
            new = draw(st.sampled_from(labels + [k for k in BAD_LABELS if isinstance(k, str)]))
            items = [(new if k == key else k, v) for k, v in node.items()]
            node.clear()
            node.update(items)
        else:
            node[key] = draw(json_values)
    return doc


@st.composite
def graph_and_summary_docs(draw):
    """The graph and summary documents of a random (possibly mutilated)
    summary over tricky labels."""
    g = draw(tricky_dags(max_nodes=6))
    rng = draw(st.randoms(use_true_random=False))
    h = _random_summary(g, rng)
    if rng.random() < 0.3:
        h = _random_mutilation(h, rng)
    return dag_to_doc(g), summary_to_doc(h)


def _outcome(load, doc):
    """What loading ``doc`` gives: the value's every field, or the error."""
    try:
        value = load(doc)
    except Exception as exc:  # the oracle must raise the same, whatever it is
        return type(exc), str(exc)

    def fields(g):
        return g.nodes, g.edges, [(g.parents(v), g.children(v)) for v in g.nodes]

    if isinstance(value, Dag):
        return fields(value)
    return (
        fields(value.base),
        fields(value.quotient),
        list(value.mapping.items()),
        value.base_order,
        value.mutilated,
    )


class TestLoaderMatchesThePerItemOracle:
    """The loaders check whole collections at once and fall back to the
    per-item loop only to name the offender: every document must load to
    the same value as the per-item loader, or fail with the same error."""

    @settings(max_examples=250, deadline=None)
    @given(docs=graph_and_summary_docs(), data=st.data())
    def test_same_value_or_same_error(self, docs, data):
        from causalsumm.cli_io import _dag_from_doc, _summary_from_doc
        from oracles import reference_dag_from_doc, reference_summary_from_doc

        graph, summary = docs
        if data.draw(st.booleans()):
            graph = data.draw(mangled(graph))
            summary = data.draw(mangled(summary))
        # what a file holds: JSON text parsed back
        graph, summary = json.loads(json.dumps(graph)), json.loads(json.dumps(summary))
        assert _outcome(_dag_from_doc, graph) == _outcome(reference_dag_from_doc, graph)
        assert _outcome(_summary_from_doc, summary) == _outcome(
            reference_summary_from_doc, summary
        )


class TestOrderedBase:
    """A valid summary's base, which ``_dag_from_doc(doc, order)`` proves
    acyclic by one forward pass over ``base_order``, with no Kahn pass and
    its adjacency left for first use, is the graph ``Dag`` builds."""

    @settings(max_examples=150, deadline=None)
    @given(docs=graph_and_summary_docs(), data=st.data())
    def test_equals_the_constructor(self, docs, data):
        from causalsumm.cli_io import _dag_from_doc

        def kahn(*args):
            raise AssertionError("a valid base must not reach Kahn's pass")

        _, summary = docs
        doc = json.loads(json.dumps(summary))["base"]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph_core, "_kahn", kahn)
            g = _dag_from_doc(doc, summary["base_order"])
        assert g._proven_order == tuple(summary["base_order"])
        expected = Dag(doc["nodes"], map(tuple, doc["edges"]))
        assert g._parents is None  # no adjacency yet
        assert g.nodes == expected.nodes and g.edges == expected.edges
        subsets = st.sets(st.sampled_from(g.nodes), max_size=3) if g.nodes else st.just(set())
        s = data.draw(subsets)
        # reachability first: it must build the adjacency by itself
        assert g.descendants(s) == expected.descendants(s)
        assert g.ancestors(s) == expected.ancestors(s)
        for v in g.nodes:
            assert g.parents(v) == expected.parents(v)
            assert g.children(v) == expected.children(v)
        for _ in range(3):
            s = data.draw(subsets)
            assert g.descendants(s) == expected.descendants(s)
            assert g.ancestors(s) == expected.ancestors(s)

    def test_only_the_proving_order_skips_the_order_test(self, fixtures_dir):
        from causalsumm import SummaryDag

        h = load_summary(fixtures_dir / "h1.json")
        assert h.base._proven_order == h.base_order
        with pytest.raises(ValidationError, match="base_order is not topological: edge A -> B"):
            SummaryDag(h.base, h.quotient, h.mapping, h.base_order[::-1])
