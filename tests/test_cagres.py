import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    CagresConfig,
    Dag,
    GraphError,
    SimilarityMatrix,
    StuckError,
    ValidationError,
    additional_edges,
    contract,
    get_cost,
    is_compatible,
    is_valid_pair,
    random_summarize,
    summarize,
    trivial_summary,
)
from causalsumm.cagres import _Engine
from conftest import dags
from oracles import (
    canonical_delta,
    reference_random_summarize,
    reference_summarize,
)
from test_summary import _random_summary


def full_similarity(g, overrides=None, threshold=0.8):
    labels = sorted(g.node_set)
    values = np.ones((len(labels), len(labels)))
    for (u, v), s in (overrides or {}).items():
        i, j = labels.index(u), labels.index(v)
        values[i, j] = values[j, i] = s
    return SimilarityMatrix(labels, values, threshold)


@st.composite
def random_dags(draw, max_nodes=30):
    """A random DAG with n <= max_nodes, sparse or dense.

    Half the graphs use unpadded numeric labels ("1", "2", "12", ...), whose
    concatenations can collide with node labels.
    """
    n = draw(st.integers(1, max_nodes))
    numeric = draw(st.booleans())
    labels = [str(i + 1) if numeric else f"N{i:02d}" for i in range(n)]
    order = draw(st.permutations(labels))
    density = draw(st.sampled_from([0.05, 0.1, 0.2, 0.4, 0.8]))
    rng = draw(st.randoms(use_true_random=False))
    edges = [
        (order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Dag(labels, edges)


class TestSimilarityMatrix:
    def test_nan_has_its_own_message(self):
        values = np.ones((2, 2))
        values[0, 1] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            SimilarityMatrix(["A", "B"], values, 0.5)


class TestGetCost:
    def test_worked_examples(self, g1):
        h = trivial_summary(g1)
        assert get_cost(h, "B", "C") == 1  # only the clique edge is new
        assert get_cost(h, "D", "E") == 2  # E inherits parents B and C
        assert get_cost(h, "A", "B") == 2  # C and D each gain one parent
        assert get_cost(h, "B", "A") == 2  # symmetric

    def test_invalid_pair_raises(self, g1):
        with pytest.raises(ValidationError):
            get_cost(trivial_summary(g1), "A", "D")

    @given(dags(min_nodes=2, max_nodes=7), st.randoms(use_true_random=False))
    def test_cost_equals_canonical_edge_delta(self, g, rng):
        h = _random_summary(g, rng)
        labels = sorted(h.quotient.nodes)
        for i, a in enumerate(labels):
            for b in labels[i + 1 :]:
                if is_valid_pair(h, a, b):
                    assert get_cost(h, a, b) == canonical_delta(h, a, b)


class TestIsValidPair:
    def test_cycle_guard(self, g1):
        h = trivial_summary(g1)
        assert not is_valid_pair(h, "A", "D")
        assert is_valid_pair(h, "B", "C")

    def test_similarity_threshold(self, g1):
        h = trivial_summary(g1)
        cfg = CagresConfig(k=1, similarity=full_similarity(g1, {("B", "C"): 0.5}))
        assert not is_valid_pair(h, "B", "C", cfg)
        assert is_valid_pair(h, "D", "E", cfg)


class TestEngine:
    def test_merge_evicts_the_merge_neighbourhood(self, g1):
        engine = _Engine.of_graph(g1)
        engine.prices()
        assert not engine.stale
        a, b, c, d = (engine.id_of(v) for v in "ABCD")
        engine.merge(b, c)
        # the merged cluster and its neighbours A and D are re-priced
        assert engine.stale == {a, b, d}
        assert engine.labels[b] == "BC"
        h = trivial_summary(g1)
        assert engine.prices()[a, b] == get_cost(contract(h, "B", "C"), "A", "BC")

    def test_memo_entries_outside_the_neighbourhood_survive(self):
        engine = _Engine.of_graph(Dag("ABCXY", [("A", "B"), ("X", "Y")]))
        a, b, c, x, y = (engine.id_of(v) for v in "ABCXY")
        engine.prices()
        engine.merge(a, b)
        assert engine.stale == {a}
        assert engine.memo[x, y] == 0 and engine.memo[x, c] == 2

    def test_reachability_is_ored_into_ancestors(self):
        g = Dag("ABCDE", [("A", "B"), ("C", "D"), ("D", "E")])
        engine = _Engine.of_graph(g)
        a, b, c, d, e = (engine.id_of(v) for v in "ABCDE")
        assert engine.acyclic(a, e)
        engine.merge(b, c)  # now A -> BC -> D -> E
        assert not engine.acyclic(a, d) and not engine.acyclic(a, e)
        assert engine.acyclic(a, b) and engine.acyclic(d, e)


class TestSummarize:
    def test_g1_k5_is_trivial(self, g1):
        h = summarize(g1, CagresConfig(k=5, seed=0))
        assert h == trivial_summary(g1)

    def test_g1_k4_picks_the_cheapest_merge(self, g1):
        for seed in range(5):
            h = summarize(g1, CagresConfig(k=4, seed=seed))
            assert h.quotient.node_set == {"A", "BC", "D", "E"}
            assert additional_edges(h) == 1

    def test_redshift_k5(self, redshift):
        h = summarize(redshift, CagresConfig(k=5, seed=7))
        assert h.quotient.num_nodes == 5
        assert is_compatible(redshift, h)

    def test_monotone_cluster_counts(self, redshift):
        for k in (10, 7, 4, 2):
            assert summarize(redshift, CagresConfig(k=k)).quotient.num_nodes == k

    def test_infeasible_k(self, g1):
        with pytest.raises(ValidationError):
            summarize(g1, CagresConfig(k=6))
        with pytest.raises(ValidationError):
            CagresConfig(k=0)

    def test_determinism(self, redshift):
        a = summarize(redshift, CagresConfig(k=4, seed=123))
        b = summarize(redshift, CagresConfig(k=4, seed=123))
        assert a == b

    def test_similarity_stuck(self, g1):
        sim = full_similarity(g1, threshold=0.9)
        sim.values[:] = np.eye(5) + (1 - np.eye(5)) * 0.1
        cfg = CagresConfig(k=2, similarity=sim)
        with pytest.raises(StuckError):
            summarize(g1, cfg)

    def test_redshift_k4_summaries_are_pinned(self, redshift):
        # recorded with the full-rescan summarizer; any drift in the pair
        # scan or the coin sequence changes at least one of these
        a = [
            "CompileTimeLockWaitTimePlanTimeElapsedTime",
            "NumColumnsReturnedRowsReturnedBytes",
            "NumJoinsNumTablesResultCacheHitExecTime",
            "QueryTemplate",
        ]
        b = [
            "CompileTimeLockWaitTimePlanTimeElapsedTime",
            "ExecTime",
            "NumJoinsNumTablesResultCacheHit",
            "QueryTemplateNumColumnsReturnedRowsReturnedBytes",
        ]
        expected = [b, a, b, a, a, a, a, a, a, a]
        for seed, want in enumerate(expected):
            h = summarize(redshift, CagresConfig(k=4, seed=seed))
            assert sorted(h.quotient.nodes) == want, seed

    @pytest.mark.parametrize(
        "labels, merged",
        [(["A", "B", "AB", "C"], "AB#2"), (["1", "2", "12", "C"], "12#2")],
    )
    def test_concatenated_labels_may_collide(self, labels, merged):
        # merging the two children of C (and parents of D) mints a label a
        # node already has; that merge costs 1, every other valid pair >= 2
        g = Dag(
            labels + ["D"],
            [("C", labels[0]), ("C", labels[1]), (labels[0], "D"), (labels[1], "D")],
        )
        for seed in range(5):
            h = summarize(g, CagresConfig(k=4, seed=seed))
            assert h.quotient.node_set == {merged, labels[2], "C", "D"}
            assert h.members(merged) == set(labels[:2])
            assert h.members(labels[2]) == {labels[2]}

    @settings(deadline=None)
    @given(random_dags(max_nodes=12), st.integers(0, 10_000))
    def test_first_merge_is_a_cheapest_valid_pair(self, g, seed):
        h = trivial_summary(g)
        labels = sorted(h.quotient.nodes)
        costs = [
            get_cost(h, a, b)
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            if is_valid_pair(h, a, b)
        ]
        if costs:
            merged = summarize(g, CagresConfig(k=g.num_nodes - 1, seed=seed))
            assert additional_edges(merged) == min(costs)

    @given(dags(min_nodes=2, max_nodes=7), st.integers(0, 1000))
    def test_output_is_always_a_valid_summary(self, g, seed):
        k = max(1, g.num_nodes // 2)
        h = summarize(g, CagresConfig(k=k, seed=seed))
        assert h.quotient.num_nodes == k
        assert is_compatible(g, h)


@st.composite
def greedy_cases(draw):
    """A random DAG, a budget k and an optional similarity."""
    g = draw(random_dags())
    n, labels = g.num_nodes, list(g.nodes)
    similarity = None
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        values = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
        values = (values + values.T) / 2
        np.fill_diagonal(values, 1.0)
        threshold = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
        similarity = SimilarityMatrix(labels, values, threshold)
    cfg = CagresConfig(
        k=draw(st.integers(1, n)),
        seed=draw(st.integers(0, 10_000)),
        similarity=similarity,
    )
    return g, cfg


def _outcome(run):
    try:
        return run()
    except GraphError as exc:
        return type(exc)


class TestEngineMatchesTheRescan:
    @settings(max_examples=60, deadline=None)
    @given(greedy_cases())
    def test_summarize_matches_the_reference_rescan(self, case):
        g, cfg = case
        assert _outcome(lambda: summarize(g, cfg)) == _outcome(
            lambda: reference_summarize(g, cfg)
        )

    @settings(max_examples=40, deadline=None)
    @given(greedy_cases())
    def test_random_summarize_matches_the_reference_rescan(self, case):
        g, cfg = case
        assert _outcome(lambda: random_summarize(g, cfg.k, cfg.seed)) == _outcome(
            lambda: reference_random_summarize(g, cfg.k, cfg.seed)
        )
