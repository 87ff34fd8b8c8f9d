import hashlib
import random
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    CagresConfig,
    Dag,
    GenSpec,
    GraphError,
    SimilarityMatrix,
    SizeLimitError,
    StuckError,
    UnknownNodeError,
    ValidationError,
    additional_edges,
    contract,
    gen_random_dag,
    get_cost,
    is_compatible,
    is_valid_pair,
    random_summarize,
    summarize,
    topological_order,
    trivial_summary,
)
from causalsumm import cagres
from causalsumm.cagres import _Engine
from causalsumm.summary import cluster_labels
from conftest import dags
from oracles import (
    canonical_delta,
    reference_cost,
    reference_random_summarize,
    reference_summarize,
    reference_valid,
)
from test_summary import _random_mutilation, _random_summary, colliding_summaries


def on_both_forms(run):
    """``run()``'s result with every engine in its loop form, then in its
    array form, whatever the graph's size: ``SMALL_GRAPH`` is patched to
    the engine's node limit, then to 0."""
    results = []
    for small_graph in (cagres.ENGINE_NODE_LIMIT, 0):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cagres, "SMALL_GRAPH", small_graph)
            results.append(run())
    return results


@pytest.fixture
def array_form(monkeypatch):
    """Every engine the test builds runs the array form, however small."""
    monkeypatch.setattr(cagres, "SMALL_GRAPH", 0)


def full_similarity(g, overrides=None, threshold=0.8):
    labels = sorted(g.node_set)
    values = np.ones((len(labels), len(labels)))
    for (u, v), s in (overrides or {}).items():
        i, j = labels.index(u), labels.index(v)
        values[i, j] = values[j, i] = s
    return SimilarityMatrix(labels, values, threshold)


@st.composite
def random_dags(draw, max_nodes=30, min_nodes=1):
    """A random DAG with min_nodes <= n <= max_nodes, sparse or dense.

    Half the graphs use unpadded numeric labels ("1", "2", "12", ...), whose
    concatenations can collide with node labels.
    """
    n = draw(st.integers(min_nodes, max_nodes))
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


@st.composite
def hashed_dags(draw, max_nodes=12):
    """A random DAG whose i-th label is a run of i "1"s, some with a "#"
    suffix ("1", "11#", "111", "1111#2", ...): merged labels often equal
    node labels, and node labels can contain "#" and equal suffixed labels."""
    n = draw(st.integers(1, max_nodes))
    suffixes = st.sampled_from(["", "", "", "#", "#2"])
    labels = ["1" * (i + 1) + draw(suffixes) for i in range(n)]
    order = draw(st.permutations(labels))
    rng = draw(st.randoms(use_true_random=False))
    edges = [
        (order[i], order[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3
    ]
    return Dag(labels, edges)


class TestSimilarityMatrix:
    def test_nan_has_its_own_message(self):
        values = np.ones((2, 2))
        values[0, 1] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            SimilarityMatrix(["A", "B"], values, 0.5)

    @pytest.mark.parametrize(
        "labels, off, threshold, message",
        [
            ("AA", 0.5, 0.5, "similarity labels must be unique"),
            ("ABC", 0.5, 0.5, r"similarity matrix must be 3x3, got \(2, 2\)"),
            ("AB", -0.5, 0.5, r"similarity values must lie in \[0, 1\]"),
            ("AB", 1.5, 0.5, r"similarity values must lie in \[0, 1\]"),
            ("AB", 0.5, 1.5, r"similarity threshold must lie in \[0, 1\]"),
            ("AB", 0.5, -0.1, r"similarity threshold must lie in \[0, 1\]"),
        ],
    )
    def test_refusals(self, labels, off, threshold, message):
        values = np.array([[1.0, off], [off, 1.0]])
        with pytest.raises(ValidationError, match=f"^{message}$"):
            SimilarityMatrix(list(labels), values, threshold)

    def test_sim_of_an_unknown_label(self):
        sim = SimilarityMatrix(["A", "B"], np.array([[1.0, 0.4], [0.4, 1.0]]), 0.5)
        assert sim.sim("B", "A") == 0.4
        with pytest.raises(UnknownNodeError, match="unknown node: 'C'"):
            sim.sim("A", "C")

    def test_zero_labels_are_a_similarity_that_misses_every_node(self, g1):
        # every check holds vacuously; like any similarity that misses a
        # node, it is refused by summarize, naming the first base node
        sim = SimilarityMatrix([], np.zeros((0, 0)), 0.5)
        assert sim.labels == () and sim.values.shape == (0, 0)
        with pytest.raises(UnknownNodeError, match="unknown node: 'A'"):
            summarize(g1, CagresConfig(k=2, similarity=sim))


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


@st.composite
def query_cases(draw):
    """A random summary, of a plain, ``#``-labelled or colliding-label
    graph and mutilated half the time, with a similarity over its base."""
    rngs = st.randoms(use_true_random=False)
    graphs = dags() | hashed_dags(max_nodes=8)
    h = draw(st.builds(_random_summary, graphs, rngs) | colliding_summaries())
    if draw(st.booleans()):
        h = _random_mutilation(h, draw(rngs))
    labels = h.base.nodes
    values = uniform_values(len(labels), draw(rngs))
    threshold = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
    return h, CagresConfig(k=1, similarity=SimilarityMatrix(labels, values, threshold))


def _failure(run):
    try:
        run()
    except GraphError as exc:
        return type(exc), str(exc)


class TestOneShotQueriesMatchTheReference:
    @settings(max_examples=80, deadline=None)
    @given(query_cases())
    def test_every_pair(self, case):
        h, cfg = case
        for a, b in permutations(h.quotient.nodes, 2):
            valid = reference_valid(h, a, b)
            assert is_valid_pair(h, a, b) == valid
            assert is_valid_pair(h, a, b, cfg) == reference_valid(h, a, b, cfg.similarity)
            if valid:
                assert get_cost(h, a, b) == reference_cost(h, a, b)
            else:
                assert _failure(lambda: get_cost(h, a, b)) == (
                    ValidationError,
                    f"({a}, {b}) is not a valid pair to merge",
                )

    @settings(max_examples=40, deadline=None)
    @given(query_cases(), st.data())
    def test_errors_come_in_a_fixed_order(self, case, data):
        h, cfg = case
        a = data.draw(st.sampled_from(h.quotient.nodes))
        queries = [
            lambda x, y: get_cost(h, x, y),
            lambda x, y: is_valid_pair(h, x, y),
            lambda x, y: is_valid_pair(h, x, y, cfg),
        ]
        for query in queries:
            # an unknown a is named before an unknown b; a == b comes last
            assert _failure(lambda: query("?a", "?b")) == (UnknownNodeError, "unknown node: '?a'")
            assert _failure(lambda: query("?a", a)) == (UnknownNodeError, "unknown node: '?a'")
            assert _failure(lambda: query(a, "?b")) == (UnknownNodeError, "unknown node: '?b'")
            assert _failure(lambda: query(a, a)) == (
                ValidationError,
                f"({a}, {a}) is not a valid pair to merge",
            )
        # a similarity missing base nodes names the first in base order,
        # before any label is checked
        missing = data.draw(st.sets(st.sampled_from(h.base.nodes), min_size=1))
        kept = [v for v in h.base.nodes if v not in missing] + ["?z"]
        similarity = SimilarityMatrix(kept, np.ones((len(kept), len(kept))), 0.5)
        cfg = CagresConfig(k=1, similarity=similarity)
        first = next(v for v in h.base_order if v in missing)
        for x, y in [("?a", "?b"), (a, "?b"), (a, a), (a, a + "?")]:
            assert _failure(lambda: is_valid_pair(h, x, y, cfg)) == (
                UnknownNodeError,
                f"unknown node: {first!r}",
            )


def test_one_shot_queries_build_no_engine(g1, h1, h2, h3, h4):
    built = []
    init = _Engine.__init__

    def counted_init(engine, *args):
        built.append(engine)
        init(engine, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "__init__", counted_init)
        for h in (h1, h2, h3, h4):
            cfg = CagresConfig(k=1, similarity=full_similarity(h.base, threshold=0.5))
            for a, b in permutations(h.quotient.nodes, 2):
                is_valid_pair(h, a, b, cfg)
                if is_valid_pair(h, a, b):
                    get_cost(h, a, b)
        assert not built
        summarize(g1, CagresConfig(k=2, seed=3))
        assert len(built) == 1
        random_summarize(g1, 2, seed=3)
        assert len(built) == 2


class TestEngine:
    @pytest.mark.usefixtures("array_form")
    def test_merge_evicts_the_merge_neighbourhood(self, g1):
        engine = _Engine(g1)
        assert engine.dense
        engine.prices()
        assert not engine.stale
        a, b, c, d = (engine.position[v] for v in "ABCD")
        engine.merge(b, c)
        # the merged cluster and its neighbours A and D are re-priced
        assert engine.stale == {a, b, d}
        assert engine.labels[b] == "BC"
        h = trivial_summary(g1)
        assert engine.prices()[a, b] == get_cost(contract(h, "B", "C"), "A", "BC")

    @pytest.mark.usefixtures("array_form")
    def test_memo_entries_outside_the_neighbourhood_survive(self):
        engine = _Engine(Dag("ABCXY", [("A", "B"), ("X", "Y")]))
        assert engine.dense
        a, b, c, x, y = (engine.position[v] for v in "ABCXY")
        engine.prices()
        engine.merge(a, b)
        assert engine.stale == {a}
        assert engine.memo[x, y] == 0 and engine.memo[x, c] == 2

    @pytest.mark.usefixtures("array_form")
    def test_reachability_is_ored_into_ancestors(self):
        g = Dag("ABCDE", [("A", "B"), ("C", "D"), ("D", "E")])
        engine = _Engine(g)
        assert engine.dense
        a, b, c, d, e = (engine.position[v] for v in "ABCDE")

        def acyclic(x, y):  # no path of two or more edges either way
            return not (engine.far[x, y] or engine.far[y, x])

        assert acyclic(a, e)
        engine.merge(b, c)  # now A -> BC -> D -> E
        assert not acyclic(a, d) and not acyclic(a, e)
        assert acyclic(a, b) and acyclic(d, e)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(random_dags(max_nodes=20), hashed_dags()), st.randoms(use_true_random=False))
    def test_labels_follow_cluster_labels_after_every_merge(self, g, rng):
        for engine in on_both_forms(lambda: _Engine(g)):
            while True:
                first, second = engine.valid_pairs()
                if not len(first):
                    break
                pick = rng.randrange(len(first))
                engine.merge(int(first[pick]), int(second[pick]))
                live = sorted(engine.order, key=lambda x: engine.position[engine.members[x][0]])
                labels = [engine.labels[x] for x in live]
                assert labels == cluster_labels(engine.members[x] for x in live)
                assert {engine.labels[x]: x for x in engine.order} == dict(zip(labels, live))
                in_order = [engine.labels[x] for x in engine.order]
                assert in_order == sorted(in_order)
                # a retired id keeps its old members, a strict part of a live cluster
                clusters = set(engine.summary().ordered_clusters.values())
                built_from = {x for x, vs in enumerate(engine.members) if tuple(vs) in clusters}
                assert set(engine.order) == built_from

    @settings(max_examples=60, deadline=None)
    @given(random_dags(max_nodes=16), st.randoms(use_true_random=False))
    def test_reach_is_the_quotient_reachability_after_every_merge(self, g, rng):
        # each live id's reach bitset is exactly what its cluster reaches in
        # the summary's quotient, itself included: at construction, which
        # fills it children first, and after every random valid merge
        for engine in on_both_forms(lambda: _Engine(g)):
            while True:
                q = engine.summary().quotient
                ids = {engine.labels[x]: x for x in engine.order}
                for x in engine.order:
                    reached = q.descendants({engine.labels[x]})
                    assert engine.reach[x] == sum(1 << ids[c] for c in reached)
                first, second = engine.valid_pairs()
                if not len(first):
                    break
                pick = rng.randrange(len(first))
                engine.merge(int(first[pick]), int(second[pick]))


def _edgeless(n):
    return Dag([f"X{i:05d}" for i in range(n)])


class TestSizeGuard:
    # numpy.zeros, as the engine sees it, raises: no test here allocates a
    # dense matrix, and one past the limit is refused before it is ordered
    class Allocated(Exception):
        pass

    @pytest.fixture(autouse=True)
    def no_dense_matrix(self, monkeypatch):
        def zeros(*args, **kwargs):
            raise self.Allocated

        monkeypatch.setattr(cagres.np, "zeros", zeros)

    runs = pytest.mark.parametrize(
        "run",
        [lambda g: summarize(g, CagresConfig(k=1)), lambda g: random_summarize(g, 1)],
        ids=["summarize", "random_summarize"],
    )

    @runs
    def test_one_past_the_limit_is_refused_first(self, monkeypatch, run):
        def never(g):
            raise AssertionError("ordered before the guard")

        monkeypatch.setattr(cagres, "topological_order", never)
        n = cagres.ENGINE_NODE_LIMIT + 1
        message = (
            rf"^the greedy engine's dense matrices would need about 1\.0 GiB; "
            rf"refusing {n} nodes \(limit {n - 1}\)$"
        )
        with pytest.raises(SizeLimitError, match=message):
            run(_edgeless(n))

    @runs
    def test_the_limit_itself_passes_the_guard(self, run):
        with pytest.raises(self.Allocated):
            run(_edgeless(cagres.ENGINE_NODE_LIMIT))


def _scrambled(n, seed=0):
    """A random DAG on n nodes, drawn without numpy."""
    rng = random.Random(seed)
    labels = [f"X{i:05d}" for i in range(n)]
    order = rng.sample(labels, n)
    edges = [(u, v) for i, u in enumerate(order) for v in order[i + 1 :] if rng.random() < 0.3]
    return Dag(labels, edges)


class TestLoopForm:
    # a graph of at most SMALL_GRAPH nodes runs the loop form, which
    # allocates no numpy array; one node more runs the array form
    class Allocated(Exception):
        pass

    def refuse_arrays(self, monkeypatch):
        """From here on, numpy's array constructors raise Allocated. The
        random baseline gets a Generator seeded before that, because
        seeding one allocates."""

        def refuse(*args, **kwargs):
            raise self.Allocated

        seeded = np.random.default_rng(0)
        monkeypatch.setattr(np.random, "default_rng", lambda seed: seeded)
        for name in ("zeros", "ones", "empty", "array", "tri", "fromiter"):
            monkeypatch.setattr(cagres.np, name, refuse)

    runs = pytest.mark.parametrize(
        "run",
        [
            lambda g, sim: summarize(g, CagresConfig(k=1)),
            lambda g, sim: summarize(g, CagresConfig(k=2, seed=5, similarity=sim)),
            lambda g, sim: random_summarize(g, 1),
        ],
        ids=["summarize", "similarity", "random_summarize"],
    )

    @runs
    def test_small_graphs_allocate_no_array(self, monkeypatch, run):
        g = _scrambled(cagres.SMALL_GRAPH)
        sim = full_similarity(g, threshold=0.5)
        self.refuse_arrays(monkeypatch)
        run(g, sim)

    @runs
    def test_one_node_more_allocates(self, monkeypatch, run):
        g = _scrambled(cagres.SMALL_GRAPH + 1)
        sim = full_similarity(g, threshold=0.5)
        self.refuse_arrays(monkeypatch)
        with pytest.raises(self.Allocated):
            run(g, sim)


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
        assert on_both_forms(lambda: _outcome(lambda: summarize(g1, cfg))) == [StuckError] * 2

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
            cfg = CagresConfig(k=4, seed=seed)
            got = on_both_forms(lambda: sorted(summarize(redshift, cfg).quotient.nodes))
            assert got == [want, want], seed

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
            for h in on_both_forms(lambda: summarize(g, CagresConfig(k=4, seed=seed))):
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
            cfg = CagresConfig(k=g.num_nodes - 1, seed=seed)
            merged = on_both_forms(lambda: additional_edges(summarize(g, cfg)))
            assert merged == [min(costs)] * 2

    @given(dags(min_nodes=2, max_nodes=7), st.integers(0, 1000))
    def test_output_is_always_a_valid_summary(self, g, seed):
        k = max(1, g.num_nodes // 2)
        h = summarize(g, CagresConfig(k=k, seed=seed))
        assert h.quotient.num_nodes == k
        assert is_compatible(g, h)


def uniform_values(n, rng):
    """An n-by-n symmetric similarity with unit diagonal, uniform elsewhere."""
    values = np.array([[rng.random() for _ in range(n)] for _ in range(n)])
    values = (values + values.T) / 2
    np.fill_diagonal(values, 1.0)
    return values


@st.composite
def greedy_cases(draw):
    """A random DAG, a budget k and an optional similarity."""
    g = draw(random_dags())
    n, labels = g.num_nodes, list(g.nodes)
    similarity = None
    if draw(st.booleans()):
        values = uniform_values(n, draw(st.randoms(use_true_random=False)))
        threshold = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
        similarity = SimilarityMatrix(labels, values, threshold)
    cfg = CagresConfig(
        k=draw(st.integers(1, n)),
        seed=draw(st.integers(0, 10_000)),
        similarity=similarity,
    )
    return g, cfg


@st.composite
def similarity_cases(draw):
    """A random DAG with 4-12 nodes, a budget k and always a uniform random
    similarity, at the two thresholds that block some merges but not most."""
    g = draw(random_dags(max_nodes=12, min_nodes=4))
    n = g.num_nodes
    values = uniform_values(n, draw(st.randoms(use_true_random=False)))
    threshold = draw(st.sampled_from([0.3, 0.5]))
    cfg = CagresConfig(
        k=draw(st.integers(1, n)),
        seed=draw(st.integers(0, 10_000)),
        similarity=SimilarityMatrix(list(g.nodes), values, threshold),
    )
    return g, cfg


@st.composite
def near_symmetric_cases(draw):
    """A random DAG with 4-8 nodes, a budget k and a similarity at tau 0.5
    whose entries are 0.5 on one side of the diagonal and 0.5 - 1e-7 on the
    other, for about half the pairs, and 0.2 or 0.9 on both for the rest."""
    g = draw(random_dags(max_nodes=8, min_nodes=4))
    n = g.num_nodes
    rng = draw(st.randoms(use_true_random=False))
    values = np.ones((n, n))
    for i in range(n):
        for j in range(i):
            if rng.random() < 0.5:
                high, low = (i, j), (j, i)
                if rng.random() < 0.5:
                    high, low = low, high
                values[high], values[low] = 0.5, 0.5 - 1e-7
            else:
                values[i, j] = values[j, i] = rng.choice([0.2, 0.9])
    cfg = CagresConfig(
        k=draw(st.integers(1, n)),
        seed=draw(st.integers(0, 10_000)),
        similarity=SimilarityMatrix(list(g.nodes), values, 0.5),
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
        want = _outcome(lambda: reference_summarize(g, cfg))
        assert on_both_forms(lambda: _outcome(lambda: summarize(g, cfg))) == [want, want]

    @settings(max_examples=60, deadline=None)
    @given(similarity_cases())
    def test_summarize_matches_the_reference_rescan_under_a_similarity(self, case):
        # every merge must carry the merged cluster's clash row and column
        g, cfg = case
        want = _outcome(lambda: reference_summarize(g, cfg))
        assert on_both_forms(lambda: _outcome(lambda: summarize(g, cfg))) == [want, want]

    @settings(max_examples=60, deadline=None)
    @given(near_symmetric_cases())
    def test_a_near_symmetric_similarity_reads_the_smaller_entry(self, case):
        # entries that straddle the threshold by 1e-7 pass the symmetry
        # check: the engine, is_valid_pair in both orders and the rescan
        # must all read the smaller of the two
        g, cfg = case
        values = cfg.similarity.values
        assert (values == values.T).all()
        h = trivial_summary(g)
        for a, b in permutations(g.nodes, 2):
            assert is_valid_pair(h, a, b, cfg) == is_valid_pair(h, b, a, cfg)
        want = _outcome(lambda: reference_summarize(g, cfg))
        assert on_both_forms(lambda: _outcome(lambda: summarize(g, cfg))) == [want, want]

    @settings(max_examples=40, deadline=None)
    @given(greedy_cases())
    def test_random_summarize_matches_the_reference_rescan(self, case):
        g, cfg = case
        want = _outcome(lambda: reference_random_summarize(g, cfg.k, cfg.seed))
        got = on_both_forms(lambda: _outcome(lambda: random_summarize(g, cfg.k, cfg.seed)))
        assert got == [want, want]

    @settings(max_examples=60, deadline=None)
    @given(greedy_cases())
    def test_summarize_draws_as_many_coins_as_the_rescan(self, case):
        g, cfg = case
        made = []

        class Recorded(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(random, "Random", Recorded)
            on_both_forms(lambda: _outcome(lambda: summarize(g, cfg)))
            _outcome(lambda: reference_summarize(g, cfg))
        loop, array, rescan = made
        assert loop.getstate() == array.getstate() == rescan.getstate()


def block_similarity(g, groups=8, threshold=0.5):
    """Similarity 1 within contiguous blocks of ``topological_order(g)``, 0.3 across."""
    order = topological_order(g)
    group = {v: i * groups // len(order) for i, v in enumerate(order)}
    codes = np.array([group[v] for v in g.nodes])
    values = np.where(codes[:, None] == codes[None, :], 1.0, 0.3)
    return SimilarityMatrix(g.nodes, values, threshold)


def noisy_similarity(g, seed, threshold=0.1):
    """Uniform random similarity: each cluster blocks its own few partners."""
    n = g.num_nodes
    values = np.random.default_rng(seed).random((n, n))
    values = (values + values.T) / 2
    np.fill_diagonal(values, 1.0)
    return SimilarityMatrix(g.nodes, values, threshold)


def partition_digest(h):
    clusters = sorted(sorted(members) for members in h.clusters.values())
    return hashlib.sha256(repr(clusters).encode()).hexdigest()[:16]


def _workload_graph(n, degree, seed, relabel=False):
    g = gen_random_dag(GenSpec(n, degree / n, seed))
    if not relabel:
        return g
    # "1", "11", "111", ...: the merged label of two or more singletons
    # is usually another node's label, so clusters take "#n" suffixes
    name = {v: "1" * (i + 1) for i, v in enumerate(g.nodes)}
    return Dag([name[v] for v in g.nodes], [(name[u], name[v]) for u, v in g.edges])


# recorded with the engine that unpacked its bitsets into a fresh boolean
# matrix every iteration and priced with integer matrix products; a drift
# in the scan, the pricing, the relabelling or the coin changes a digest
SCALE_PINS = {
    ("greedy", 60, 2): "4abc4a20f21d42fd",
    ("greedy", 60, 4): "bbdeda1e30de4271",
    ("greedy", 150, 2): "13901e29ecf0575d",
    ("greedy", 150, 4): "407442a62672aa9f",
    ("colliding", 150, 2): "ba2a06a080ca7f2d",
    ("similarity", 150, 4): "53d53ac83cf89584",
    ("noisy", 150, 2): "40b40dfbd8c961f4",
    ("random", 150, 2): "572dcfa43a708375",
    ("random", 150, 4): "5c8356a95fa9e6d2",
}


class TestWorkloadScale:
    """The benchmark's instance sizes, where pricing spans several 32-row
    chunks, similarity clash sets are merged and labels take the slow
    relabelling path."""

    @pytest.mark.parametrize("kind, n, degree", list(SCALE_PINS))
    def test_partitions_are_pinned(self, kind, n, degree):
        g = _workload_graph(n, degree, seed=n + degree, relabel=kind == "colliding")
        if kind == "random":

            def run():
                return random_summarize(g, n // 5, seed=degree)

        else:
            similarity = {
                "similarity": block_similarity(g),
                "noisy": noisy_similarity(g, seed=n),
            }.get(kind)
            cfg = CagresConfig(k=n // 5, seed=degree, similarity=similarity)

            def run():
                return summarize(g, cfg)

        assert on_both_forms(lambda: partition_digest(run())) == [SCALE_PINS[kind, n, degree]] * 2


# merges, rows handed to _Engine._price and coin draws of summarize on
# three n=300 graphs (density 2/n, k=60, so the array form), as recorded
# with the engine that unpacked its bitsets every iteration; the contract
# fails at +25%
COUNT_PINS = {
    1: {"merges": 240, "rows priced": 1011, "coin draws": 21687},
    2: {"merges": 240, "rows priced": 1026, "coin draws": 12505},
    3: {"merges": 240, "rows priced": 1208, "coin draws": 26083},
}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_engine_work_is_counted(seed):
    g = _workload_graph(300, 2, seed)
    counts = {"merges": 0, "rows priced": 0, "coin draws": 0, "slow relabels": 0}
    merge, price = _Engine.merge, _Engine._price

    def counted_merge(engine, a, b):
        counts["merges"] += 1
        return merge(engine, a, b)

    def counted_price(engine, rows):
        counts["rows priced"] += len(rows)
        return price(engine, rows)

    class Counted(random.Random):
        def random(self):
            counts["coin draws"] += 1
            return super().random()

    # patching the cagres binding counts the engine's slow relabels only,
    # not from_partition's own call
    def counted_labels(blocks):
        counts["slow relabels"] += 1
        return cluster_labels(blocks)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Engine, "merge", counted_merge)
        mp.setattr(_Engine, "_price", counted_price)
        mp.setattr(random, "Random", Counted)
        mp.setattr(cagres, "cluster_labels", counted_labels)
        summarize(g, CagresConfig(k=60, seed=seed))
    for name, pinned in COUNT_PINS[seed].items():
        assert counts[name] <= 1.25 * pinned, name
    # zero-padded labels never collide, so every merge relabels on the short path
    assert counts["slow relabels"] == 0
