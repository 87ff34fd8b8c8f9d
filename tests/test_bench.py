import contextlib
import io
import os
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    REPORT_COLUMNS,
    CagresConfig,
    ComparisonReport,
    CycleError,
    Dag,
    GenSpec,
    GraphError,
    SizeLimitError,
    ValidationError,
    additional_edges,
    brute_force_summarize,
    canonical,
    compare,
    gen_random_dag,
    implication_percentage,
    load_dag,
    load_summary,
    perturb,
    random_summarize,
    report_row,
    save_dag,
    save_summary,
    summarize,
    trivial_summary,
    write_report,
)
import oracles
from causalsumm import bench, graph_core, summary
from causalsumm.cli_io import cli
from causalsumm.graph_core import topological_order
from causalsumm.separation import d_separated
from causalsumm.summary import ground_ci, summary_recursive_basis
from conftest import dags
from oracles import (
    all_set_partitions,
    compatible_dags,
    moral_d_separated,
    partition_summary,
    reference_brute_force_summarize,
    reference_gen_random_dag,
    reference_implication_percentage,
    reference_perturb,
)
from test_cagres import random_dags
from test_summary import _random_mutilation, _random_summary


def test_numpy_draws_what_the_golden_corpus_was_recorded_with():
    # gen, perturb and random_summarize draw through these Generator
    # calls, and the golden corpus and every seeded instance pin what they
    # drew under numpy 2.4.6: a numpy that draws otherwise fails here by
    # name, not as hundreds of changed golden lines
    import numpy as np

    pinned = {
        "permutation": (lambda r: r.permutation(8).tolist(), [0, 6, 7, 2, 4, 5, 1, 3]),
        "random": (
            lambda r: r.random(3).tolist(),
            [0.625095466604667, 0.8972138009695755, 0.7756856902451935],
        ),
        "integers": (lambda r: [int(r.integers(n)) for n in (2, 10, 1000)], [1, 6, 684]),
        "choice": (lambda r: r.choice(10, size=4, replace=False).tolist(), [6, 5, 9, 8]),
    }
    changed = [
        f"Generator.{name}" for name, (draw, want) in pinned.items()
        if draw(np.random.default_rng(7)) != want
    ]
    assert not changed, (
        f"numpy {np.__version__} draws differently from numpy 2.4.6 in "
        f"{', '.join(changed)}, so every seeded graph and summary changes"
    )


class TestGenRandomDag:
    def test_spec_validation(self):
        with pytest.raises(ValidationError):
            GenSpec(n=0, density=0.5)
        with pytest.raises(ValidationError):
            GenSpec(n=3, density=1.5)

    def test_negative_seeds_are_validation_errors(self, g1):
        # numpy would raise a bare ValueError for each of these
        message = "seed must be >= 0, got -1"
        with pytest.raises(ValidationError, match=message):
            GenSpec(n=5, density=0.5, seed=-1)
        with pytest.raises(ValidationError, match=message):
            perturb(g1, 1, 1, seed=-1)
        with pytest.raises(ValidationError, match=message):
            random_summarize(g1, 3, seed=-1)
        # random.Random would take |seed|, so the coin of -1 would be that of 1
        with pytest.raises(ValidationError, match=message):
            CagresConfig(k=3, seed=-1)

    def test_density_extremes(self):
        empty = gen_random_dag(GenSpec(n=6, density=0.0, seed=1))
        full = gen_random_dag(GenSpec(n=6, density=1.0, seed=1))
        assert len(empty.edges) == 0
        assert len(full.edges) == 6 * 5 // 2

    def test_single_node(self):
        g = gen_random_dag(GenSpec(n=1, density=1.0))
        assert g.nodes == ("X1",) and not g.edges

    def test_labels_are_zero_padded(self):
        g = gen_random_dag(GenSpec(n=12, density=0.0))
        assert g.nodes[0] == "X01" and g.nodes[-1] == "X12"
        assert sorted(g.nodes) == list(g.nodes)

    def test_deterministic_in_seed(self):
        spec = GenSpec(n=8, density=0.4, seed=42)
        assert gen_random_dag(spec) == gen_random_dag(spec)
        other = gen_random_dag(GenSpec(n=8, density=0.4, seed=43))
        assert gen_random_dag(spec) != other

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 60),
        density=st.sampled_from([0, 1, 0.0, 1.0, 0.05, 0.5]) | st.floats(0, 1),
        seed=st.integers(0, 2**32),
        block=st.sampled_from([1, 7, 64, bench._DRAW_BLOCK]),
    )
    def test_matches_one_draw_per_pair(self, n, density, seed, block):
        # the block draws give the numbers of one scalar draw per pair,
        # wherever a block boundary falls in a row
        spec = GenSpec(n, density, seed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(bench, "_DRAW_BLOCK", block)
            g = gen_random_dag(spec)
        expected = reference_gen_random_dag(spec)
        assert (g.nodes, g.edges) == (expected.nodes, expected.edges)

    @given(st.integers(0, 10_000), st.sampled_from([0.2, 0.5, 0.8]))
    @settings(max_examples=40)
    def test_always_a_dag(self, seed, density):
        # Dag construction itself rejects cycles, so surviving is the test
        g = gen_random_dag(GenSpec(n=7, density=density, seed=seed))
        assert g.num_nodes == 7


class TestBruteForce:
    def test_running_example(self, g1):
        h = brute_force_summarize(g1, k=4)
        assert additional_edges(h) == 1
        assert set(h.quotient.nodes) == {"A", "BC", "D", "E"}

    def test_tighter_budget(self, g1):
        assert additional_edges(brute_force_summarize(g1, k=3)) == 2

    def test_k_equal_n_is_free(self, g1):
        h = brute_force_summarize(g1, k=5)
        assert additional_edges(h) == 0
        assert h == trivial_summary(g1)

    def test_guards(self, g1, redshift):
        with pytest.raises(SizeLimitError):
            brute_force_summarize(redshift, k=5)
        with pytest.raises(ValidationError):
            brute_force_summarize(g1, k=0)
        with pytest.raises(ValidationError):
            brute_force_summarize(g1, k=6)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_partition_scan(self, seed):
        # independent minimum: score every acyclic partition directly
        g = gen_random_dag(GenSpec(n=5, density=0.5, seed=seed))
        order = topological_order(g)
        for k in (2, 3):
            scores = []
            for blocks in all_set_partitions(order):
                if len(blocks) > k:
                    continue
                try:
                    h = partition_summary(g, order, blocks)
                except CycleError:
                    continue
                scores.append(canonical(h).num_edges - g.num_edges)
            assert additional_edges(brute_force_summarize(g, k)) == min(scores)


def _brute_force_outcome(summarize, g, k):
    try:
        h = summarize(g, k)
    except GraphError as exc:
        return type(exc)
    return h.mapping, h.quotient.nodes, h.quotient.edges


class TestBruteForceMatchesThePlainSearch:
    @settings(max_examples=40, deadline=None)
    @given(random_dags(max_nodes=8))
    def test_every_budget(self, g):
        for k in range(1, g.num_nodes + 1):
            h = brute_force_summarize(g, k)
            assert h.quotient.num_nodes == k
            outcome = h.mapping, h.quotient.nodes, h.quotient.edges
            assert outcome == _brute_force_outcome(reference_brute_force_summarize, g, k), k

    def test_ten_nodes_at_the_size_guard(self):
        g = gen_random_dag(GenSpec(n=10, density=0.35, seed=3))
        h = brute_force_summarize(g, 5)
        assert sorted(h.quotient.nodes) == ["X01X02", "X03X04X05", "X06X08X09", "X07", "X10"]
        assert additional_edges(h) == 8
        outcome = h.mapping, h.quotient.nodes, h.quotient.edges
        assert outcome == _brute_force_outcome(reference_brute_force_summarize, g, 5)


#: search nodes ``brute_force_summarize`` expands on each fixture graph, at
#: k = 1, 2, ...; each is at most the unpruned search's count
EXPANDED = {
    "g1": [6, 19, 21, 9, 6],
    "g2": [6, 25, 15, 9, 6],
    "g3": [6, 25, 29, 22, 6],
    "h3_canonical": [6, 16, 12, 15, 16],
}


def _search_nodes(module, search, g, k):
    """How many search nodes ``search(g, k)`` expands: the calls of the
    ``extend`` function nested in it, one per node."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        code = frame.f_code
        if event == "call" and code.co_name == "extend" and code.co_filename == module.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        search(g, k)
    finally:
        sys.setprofile(None)
    return calls


class TestBruteForceWorkIsCounted:
    """Counted, not timed: the completion bound keeps the search small."""

    @pytest.mark.parametrize("name", sorted(EXPANDED))
    def test_nodes_expanded_are_pinned(self, fixtures_dir, name):
        g = load_dag(fixtures_dir / f"{name}.json")
        assert len(EXPANDED[name]) == g.num_nodes
        for k, pin in enumerate(EXPANDED[name], start=1):
            assert pin <= _search_nodes(oracles, reference_brute_force_summarize, g, k), k
            assert _search_nodes(bench, brute_force_summarize, g, k) < 1.25 * pin, k


class TestRandomSummarize:
    def test_reaches_the_budget(self, g1):
        h = random_summarize(g1, k=3, seed=5)
        assert h.quotient.num_nodes == 3

    def test_k_equal_n_is_trivial(self, g1):
        assert random_summarize(g1, k=5, seed=0) == trivial_summary(g1)

    def test_deterministic_in_seed(self, redshift):
        a = random_summarize(redshift, k=6, seed=11)
        b = random_summarize(redshift, k=6, seed=11)
        assert a == b

    def test_single_cluster_possible_on_a_chain(self):
        chain = Dag("ABC", [("A", "B"), ("B", "C")])
        h = random_summarize(chain, k=1, seed=2)
        assert h.quotient.num_nodes == 1

    def test_infeasible_k(self, g1):
        with pytest.raises(ValidationError):
            random_summarize(g1, k=0)

    @settings(max_examples=60, deadline=None)
    @given(random_dags(max_nodes=20), st.integers(0, 2**32 - 1))
    def test_always_reaches_one_cluster(self, g, seed):
        # with no similarity a valid pair always exists: two clusters next
        # to each other in a topological order of the quotient are joined
        # by no path of two or more edges
        assert random_summarize(g, 1, seed).quotient.num_nodes == 1


@pytest.mark.parametrize(
    "build",
    [
        lambda g: summarize(g, CagresConfig(k=3)),
        lambda g: random_summarize(g, 3, seed=1),
        lambda g: brute_force_summarize(g, 3),
        trivial_summary,
    ],
    ids=["summarize", "random_summarize", "brute_force_summarize", "trivial_summary"],
)
def test_a_constructed_graph_is_not_proven_again(monkeypatch, build):
    # counted: a summary of a constructed graph is built along the order
    # its Kahn pass recorded, so the summary's order test makes no pass
    g = gen_random_dag(GenSpec(9, 0.3, 4))
    checked, passes = [], []
    require_order = Dag._require_order

    def counting_require_order(self, order, name, owner):
        checked.append(self)
        if order != self._proven_order:  # a real pass, not the recorded order
            passes.append(order)
        require_order(self, order, name, owner)

    monkeypatch.setattr(Dag, "_require_order", counting_require_order)
    assert build(g).base is g
    assert checked == [g] and passes == []


class TestImplicationPercentage:
    def test_running_example_pairs(self, h1, h2, h3, g1):
        assert implication_percentage(h2, h1) == 0.0
        assert implication_percentage(h3, h1) == 50.0
        assert implication_percentage(h1, h2) == 100.0
        assert implication_percentage(trivial_summary(g1), h2) == 100.0

    def test_every_summary_implies_itself(self, h1, h2, h3, h4):
        for h in (h1, h2, h3, h4):
            assert implication_percentage(h, h) == 100.0

    def test_empty_basis_counts_as_full(self):
        lone = trivial_summary(Dag("A", []))
        assert implication_percentage(lone, lone) == 100.0

    @settings(max_examples=40, deadline=None)
    @given(dags(min_nodes=3, max_nodes=5), st.randoms(use_true_random=False))
    def test_counted_statements_hold_in_every_compatible_dag(self, g, rng):
        # a statement of b's basis counts as implied only when a guarantees
        # it: it holds in every DAG the summary a stands for
        a = _random_summary(g, rng)
        b = trivial_summary(g) if rng.random() < 0.5 else _random_summary(g, rng)
        statements = [ground_ci(b, s) for s in summary_recursive_basis(b)]
        canon = canonical(a)
        implied = [s for s in statements if d_separated(canon, s)]
        expected = 100.0 * len(implied) / len(statements) if statements else 100.0
        assert implication_percentage(a, b) == expected
        for _, edges in compatible_dags(a):
            for s in implied:
                assert moral_d_separated(edges, s.x, s.y, s.z), (edges, s)

    @settings(max_examples=60, deadline=None)
    @given(dags(min_nodes=1, max_nodes=8), st.randoms(use_true_random=False), st.booleans())
    def test_matches_the_grounded_reference(self, g, rng, cut):
        a = _random_summary(g, rng)
        if cut:
            a = _random_mutilation(a, rng)
        for b in (a, trivial_summary(g), _random_summary(g, rng)):
            assert implication_percentage(a, b) == reference_implication_percentage(a, b)
            assert implication_percentage(b, a) == reference_implication_percentage(b, a)

    def test_builds_no_dag_and_no_canonical(self, h1, h2, monkeypatch):
        # every statement is decided over a's clusters: nothing is grounded
        built = []
        monkeypatch.setattr(Dag, "__init__", lambda self, *args, **order: built.append(args))
        monkeypatch.setattr(summary, "canonical", lambda h: built.append(h))
        assert not hasattr(bench, "canonical")
        assert implication_percentage(h1, h2) == 100.0
        assert implication_percentage(h2, h1) == 0.0
        assert built == []

    def test_base_graphs_must_match(self, h1, redshift):
        with pytest.raises(ValidationError, match="same base"):
            implication_percentage(h1, trivial_summary(redshift))

    def test_compare_bundles_both_directions(self, h1, h2):
        report = compare(h1, h2)
        assert report == ComparisonReport(
            implied_a_by_b=0.0,
            implied_b_by_a=100.0,
            additional_edges_a=1,
            additional_edges_b=3,
        )


class TestPerturb:
    def test_noop_is_identity(self, redshift):
        assert perturb(redshift, add=0, remove=0, seed=9) == redshift

    def test_seed_13_drops_the_cache_hit_edge(self, redshift, redshift_missing_edge):
        # the one-edge removal used in the robustness fixtures
        assert perturb(redshift, add=0, remove=1, seed=13) == redshift_missing_edge

    def test_deterministic_in_seed(self, redshift):
        a = perturb(redshift, add=5, remove=1, seed=3)
        assert a == perturb(redshift, add=5, remove=1, seed=3)
        assert len(a.edges) == len(redshift.edges) + 4

    def test_validation(self, g1):
        with pytest.raises(ValidationError):
            perturb(g1, add=-1, remove=0)
        with pytest.raises(ValidationError):
            perturb(g1, add=0, remove=6)
        full = gen_random_dag(GenSpec(n=4, density=1.0))
        with pytest.raises(ValidationError, match="slots"):
            perturb(full, add=1, remove=0)

    @given(st.integers(0, 10_000))
    @settings(max_examples=40)
    def test_preserves_nodes_and_acyclicity(self, seed):
        g = gen_random_dag(GenSpec(n=8, density=0.4, seed=1))
        p = perturb(g, add=3, remove=2, seed=seed)
        assert p.nodes == g.nodes
        assert len(p.edges) == len(g.edges) + 1


    @settings(max_examples=300, deadline=None)
    @given(
        dags() | st.just(Dag([], [])),
        st.integers(0, 8),
        st.integers(0, 5),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_listing_reference(self, g, add, remove, seed):
        # the slot-count draw picks the very edges the listed slots gave,
        # or fails with the same text, "only 0 slots" on the empty graph
        def outcome(run):
            try:
                p = run(g, add, remove, seed)
            except ValidationError as exc:
                return str(exc)
            return p.nodes, p.edges

        assert outcome(perturb) == outcome(reference_perturb)

    def test_empty_graph_has_no_slots(self):
        with pytest.raises(ValidationError, match=r"^cannot add 1 forward edges; only 0 slots$"):
            perturb(Dag([], []), add=1, remove=0)

    @pytest.mark.parametrize("add, passes", [(2, 2), (0, 1)])
    def test_builds_only_the_result(self, monkeypatch, add, passes):
        # one Dag, the result, whose constructor runs Kahn once; placing
        # added edges takes one more Kahn pass over the kept edges
        g = gen_random_dag(GenSpec(n=12, density=0.3, seed=2))
        counts = {"Dag": 0, "_kahn": 0}
        init, kahn = Dag.__init__, graph_core._kahn

        def counting_init(self, *args):
            counts["Dag"] += 1
            init(self, *args)

        def counting_kahn(*args):
            counts["_kahn"] += 1
            return kahn(*args)

        monkeypatch.setattr(Dag, "__init__", counting_init)
        monkeypatch.setattr(graph_core, "_kahn", counting_kahn)
        monkeypatch.setattr(bench, "_kahn", counting_kahn)
        p = perturb(g, add, 1, 5)
        assert counts == {"Dag": 1, "_kahn": passes}
        assert len(p.edges) == len(g.edges) + add - 1


def traced_peaks(make, n, seed=1):
    """The ``tracemalloc`` peaks of ``make(g)()`` on random DAGs of n and of
    2n nodes, each at density 2/size.

    ``make`` prepares a run untraced and returns it; only the run is traced.
    One untraced run at n goes first, so one-time allocations (a cache, a
    lazily built parser) fall in neither peak.
    """
    graphs = [gen_random_dag(GenSpec(size, 2 / size, seed)) for size in (n, 2 * n)]
    make(graphs[0])()
    peaks = []
    for g in graphs:
        run = make(g)
        tracemalloc.start()
        try:
            run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


class TestMemoryGrowsLinearly:
    # counted, not timed: doubling n at density 2/n may at most double the
    # traced peak, within 25%. A path that lists O(n²) pairs or basis
    # members reads 3.6-3.9 here, a linear one 1.6-1.9.

    def assert_linear(self, make, n=400):
        small, large = traced_peaks(make, n)
        assert large <= 2.5 * small, (small, large, large / small)

    def test_implication_percentage_streams_the_basis(self):
        def make(g):
            h = trivial_summary(g)
            return lambda: implication_percentage(h, h)

        self.assert_linear(make)

    def test_perturb_lists_no_slots(self):
        self.assert_linear(lambda g: lambda: perturb(g, 3, 1, 1))

    def test_rb_prints_as_it_goes(self, tmp_path):
        def make(g):
            path = tmp_path / "g.json"
            save_dag(g, path)

            def run():
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    assert cli(["rb", "--in", str(path)]) == 0

            return run

        self.assert_linear(make)

    def test_load_summary(self, tmp_path):
        # eight clusters of consecutive nodes in topological order, as the
        # query workload's summaries have; such a partition is never cyclic
        def make(g):
            order = topological_order(g)
            size = len(order) // 8
            blocks = [order[i : i + size] for i in range(0, len(order), size)]
            path = tmp_path / "h.json"
            save_summary(partition_summary(g, order, blocks), path)
            return lambda: load_summary(path)

        self.assert_linear(make)

    def test_canonical_export(self, tmp_path):
        # 5-node blocks of consecutive nodes in topological order: the
        # canonical edges grow linearly, and so must the export's memory
        def make(g):
            order = topological_order(g)
            blocks = [order[i : i + 5] for i in range(0, len(order), 5)]
            path, out = tmp_path / "s.json", tmp_path / "out.json"
            save_summary(partition_summary(g, order, blocks), path)
            return lambda: cli(["canonical", "--in", str(path), "--out", str(out)])

        self.assert_linear(make)


class TestReport:
    def test_row_shape(self):
        spec = GenSpec(n=6, density=0.5, seed=4)
        row = report_row("i0", "random", spec, 3, lambda g: random_summarize(g, 3, 0))
        assert tuple(row) == REPORT_COLUMNS
        assert row["clusters"] == 3
        assert row["n"] == 6 and row["seed"] == 4
        assert row["runtime_ms"] >= 0

    def test_csv_is_sorted_and_line_terminated(self):
        spec = GenSpec(n=5, density=0.5, seed=1)
        rows = [
            report_row("i1", "random", spec, 3, lambda g: random_summarize(g, 3, 0)),
            report_row("i0", "brute", spec, 3, lambda g: brute_force_summarize(g, 3)),
        ]
        out = io.StringIO()
        write_report(rows, out)
        lines = out.getvalue().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert lines[1].startswith("i0,brute,5,") and lines[2].startswith("i1,random,5,")
        assert out.getvalue().endswith("\n") and "\r" not in out.getvalue()
