import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    CagresConfig,
    CostCaches,
    Dag,
    GenSpec,
    SimilarityMatrix,
    StuckError,
    ValidationError,
    additional_edges,
    gen_random_dag,
    get_cost,
    is_compatible,
    is_valid_pair,
    low_cost_merges,
    summarize,
    trivial_summary,
)
from causalsumm.cagres import invalidate_neighbors
from conftest import dags
from oracles import canonical_delta
from test_summary import _random_summary


def full_similarity(g, overrides=None, threshold=0.8):
    labels = sorted(g.node_set)
    values = np.ones((len(labels), len(labels)))
    for (u, v), s in (overrides or {}).items():
        i, j = labels.index(u), labels.index(v)
        values[i, j] = values[j, i] = s
    return SimilarityMatrix(labels, values, threshold)


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

    def test_invalid_answers_are_cached(self, g1):
        h = trivial_summary(g1)
        caches = CostCaches()
        assert not is_valid_pair(h, "A", "D", None, caches)
        assert ("A", "D") in caches.invalid_pairs
        # the cached verdict short-circuits the recomputation
        assert not is_valid_pair(h, "A", "D", None, caches)

    def test_valid_answers_are_not_cached(self, g1):
        caches = CostCaches()
        assert is_valid_pair(trivial_summary(g1), "B", "C", None, caches)
        assert not caches.invalid_pairs


class TestInvalidateNeighbors:
    def test_neighborhood_eviction(self, g1):
        h = trivial_summary(g1)
        caches = CostCaches()
        for pair in [("B", "C"), ("D", "E"), ("A", "B"), ("A", "C")]:
            caches.cost[pair] = get_cost(h, *pair)
        invalidate_neighbors(caches, h, ("B", "C"))
        # everything touching B, C or their neighbors A, D is gone
        assert caches.cost == {}

    def test_disjoint_entries_survive(self):
        g = Dag("ABCXY", [("A", "B"), ("X", "Y")])
        h = trivial_summary(g)
        caches = CostCaches()
        caches.cost[("X", "Y")] = get_cost(h, "X", "Y")
        invalidate_neighbors(caches, h, ("A", "B"))
        assert ("X", "Y") in caches.cost

    def test_empty_cache_is_fine(self, g1):
        caches = CostCaches()
        invalidate_neighbors(caches, trivial_summary(g1), ("B", "C"))
        assert caches.cost == {}


class TestLowCostMerges:
    def test_diamond_merges_identical_neighborhoods(self):
        g = Dag("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        h = low_cost_merges(trivial_summary(g), CagresConfig(k=3))
        assert h.quotient.node_set == {"A", "BC", "D"}

    def test_chain_collapses(self):
        g = Dag("ABCD", [("A", "B"), ("B", "C"), ("C", "D")])
        h = low_cost_merges(trivial_summary(g), CagresConfig(k=2))
        assert h.quotient.num_nodes == 2

    def test_stops_at_k(self, g1):
        h = low_cost_merges(trivial_summary(g1), CagresConfig(k=5))
        assert h.quotient.num_nodes == 5

    def test_respects_similarity(self):
        g = Dag("ABCD", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D")])
        cfg = CagresConfig(k=3, similarity=full_similarity(g, {("B", "C"): 0.1}))
        h = low_cost_merges(trivial_summary(g), cfg)
        assert h.quotient.num_nodes == 4  # the only candidate pair is barred


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

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_caching_never_changes_the_output(self, seed):
        # the caches are pure accelerations: cached and uncached runs visit
        # the same pairs with the same costs and draw the same coins
        g = gen_random_dag(GenSpec(n=12, density=0.3, seed=seed))
        for prep in (True, False):
            cached = summarize(
                g, CagresConfig(k=6, seed=seed, use_cache=True, use_preprocessing=prep)
            )
            uncached = summarize(
                g, CagresConfig(k=6, seed=seed, use_cache=False, use_preprocessing=prep)
            )
            assert cached == uncached

    @given(dags(min_nodes=2, max_nodes=7), st.integers(0, 1000))
    def test_output_is_always_a_valid_summary(self, g, seed):
        k = max(1, g.num_nodes // 2)
        h = summarize(g, CagresConfig(k=k, seed=seed))
        assert h.quotient.num_nodes == k
        assert is_compatible(g, h)
