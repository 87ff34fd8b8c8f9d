from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    Dag,
    SeparationQuery,
    SizeLimitError,
    UnknownNodeError,
    ValidationError,
    canonical,
    d_separated,
    mutilate_summary,
    s_separated,
    trivial_summary,
)
from causalsumm.separation import _canonical_walk
from conftest import dags
from oracles import (
    canonical_s_separated,
    d_separated_oracle,
    moral_d_separated,
    mutilated_compatible_dags,
    nx_d_separated,
    strictly_compatible_dags,
)
from test_cagres import hashed_dags
from test_summary import _random_mutilation, _random_summary, colliding_summaries


class TestQueryValidation:
    def test_empty_x_rejected(self):
        with pytest.raises(ValidationError):
            SeparationQuery(set(), {"A"})

    def test_empty_y_rejected(self):
        with pytest.raises(ValidationError):
            SeparationQuery({"A"}, set())

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError, match="disjoint"):
            SeparationQuery({"A"}, {"B"}, {"A"})

    def test_unknown_member_rejected(self, g1):
        with pytest.raises(UnknownNodeError):
            d_separated(g1, SeparationQuery({"A"}, {"X"}))
        # with several unknown labels the smallest is named
        with pytest.raises(UnknownNodeError, match="'V'"):
            d_separated(g1, SeparationQuery({"A", "Y"}, {"X", "W"}, {"V", "Z"}))


class TestDSeparation:
    # the running example: A -> B, A -> C, B -> D, C -> D, D -> E
    @pytest.mark.parametrize(
        "x, y, z, expected",
        [
            ({"B"}, {"C"}, {"A"}, True),  # common cause blocked
            ({"B"}, {"C"}, set(), False),  # open through A
            ({"B"}, {"C"}, {"A", "D"}, False),  # collider D opened
            ({"B"}, {"C"}, {"A", "E"}, False),  # collider's descendant opened
            ({"A"}, {"E"}, {"D"}, True),  # chain cut
            ({"A"}, {"E"}, set(), False),
            ({"A"}, {"D"}, {"B", "C"}, True),
            ({"E"}, {"A", "B", "C"}, {"D"}, True),
        ],
    )
    def test_running_example(self, g1, x, y, z, expected):
        query = SeparationQuery(x, y, z)
        assert d_separated(g1, query) is expected
        assert d_separated_oracle(g1, query) is expected

    def test_oracle_refuses_large_graphs(self):
        g = Dag([f"N{i}" for i in range(13)])
        with pytest.raises(SizeLimitError):
            d_separated_oracle(g, SeparationQuery({"N0"}, {"N1"}))

    @given(dags(min_nodes=2, max_nodes=6), st.data())
    def test_reachability_matches_trail_oracle(self, g, data):
        query = _draw_query(data, g)
        assert d_separated(g, query) == d_separated_oracle(g, query)

    @given(dags(min_nodes=2, max_nodes=7), st.data())
    def test_reachability_matches_networkx(self, g, data):
        query = _draw_query(data, g)
        assert d_separated(g, query) == nx_d_separated(g, query.x, query.y, query.z)

    @given(dags(min_nodes=2, max_nodes=7), st.data())
    def test_moralization_oracle_matches_networkx(self, g, data):
        query = _draw_query(data, g)
        expected = nx_d_separated(g, query.x, query.y, query.z)
        assert moral_d_separated(g.edges, query.x, query.y, query.z) == expected

    @given(dags(min_nodes=2, max_nodes=6), st.data())
    def test_symmetry(self, g, data):
        query = _draw_query(data, g)
        flipped = SeparationQuery(query.y, query.x, query.z)
        assert d_separated(g, query) == d_separated(g, flipped)

    @given(dags(min_nodes=2, max_nodes=9), st.data())
    def test_each_state_reads_its_neighbours_once(self, g, data):
        # ball passing visits at most 2|V| (node, direction) states and
        # reads a node's parents and its children at most once per state:
        # at most twice per node, so at most 2|V| times each per query;
        # as Bayes-ball, it computes no ancestor or descendant set
        query = _draw_query(data, g)
        calls = Counter()
        parents, children = Dag.parents, Dag.children

        def counted_parents(self, v):
            calls["parents", v] += 1
            return parents(self, v)

        def counted_children(self, v):
            calls["children", v] += 1
            return children(self, v)

        def closure(self, vs):
            calls["closure"] += 1
            return frozenset()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Dag, "parents", counted_parents)
            mp.setattr(Dag, "children", counted_children)
            mp.setattr(Dag, "ancestors", closure)
            mp.setattr(Dag, "descendants", closure)
            d_separated(g, query)
        assert "closure" not in calls
        assert max(calls.values(), default=0) <= 2


def _draw_query(data, g):
    nodes = sorted(g.node_set)
    x = data.draw(st.sets(st.sampled_from(nodes), min_size=1, max_size=2), label="x")
    rest = [v for v in nodes if v not in x]
    if not rest:
        x = {nodes[0]}
        rest = nodes[1:]
    y = data.draw(
        st.sets(st.sampled_from(rest), min_size=1, max_size=2), label="y"
    )
    rest = [v for v in rest if v not in y]
    z = (
        data.draw(st.sets(st.sampled_from(rest), max_size=3), label="z")
        if rest
        else set()
    )
    return SeparationQuery(x, y, z)


class TestSSeparation:
    def test_takes_cluster_labels_only(self, h1):
        with pytest.raises(UnknownNodeError):
            s_separated(h1, SeparationQuery({"B"}, {"A"}))

    def test_grounds_through_the_canonical_dag(self, h1):
        # E and A separated by D holds in every DAG compatible with h1
        assert s_separated(h1, SeparationQuery({"E"}, {"A"}, {"D"}))
        # but BC and A are joined by a quotient edge
        assert not s_separated(h1, SeparationQuery({"BC"}, {"A"}))

    def test_trivial_summary_answers_like_the_base(self, g1):
        h = trivial_summary(g1)
        query = SeparationQuery({"B"}, {"C"}, {"A"})
        assert s_separated(h, query) == d_separated(g1, query)

    @given(dags(min_nodes=2, max_nodes=7), st.data())
    def test_quotient_answer_matches_canonical_grounding(self, g, data):
        rng = data.draw(st.randoms(use_true_random=False), label="rng")
        h = _random_summary(g, rng)
        if h.quotient.num_nodes < 2:
            return
        for s in (h, _random_mutilation(h, rng)):
            for _ in range(3):
                query = _draw_query(data, s.quotient)
                assert s_separated(s, query) == canonical_s_separated(s, query)

    @settings(max_examples=60, deadline=None)
    @given(dags(min_nodes=2, max_nodes=5), st.randoms(use_true_random=False))
    def test_every_connected_answer_has_a_strictly_compatible_witness(self, g, rng):
        # completeness: a CONNECTED query, grounded, is d-connected in some
        # DAG that contracts to exactly the quotient
        h = _random_summary(g, rng)
        pending = _unwitnessed(_connected_answers(h, rng), strictly_compatible_dags(h))
        assert not pending, list(pending)

    @settings(max_examples=60, deadline=None)
    @given(dags(min_nodes=2, max_nodes=5), st.randoms(use_true_random=False))
    def test_every_connected_answer_of_a_mutilated_summary_has_a_witness(self, g, rng):
        # completeness after mutilation: a CONNECTED query is d-connected in
        # some strictly compatible DAG mutilated the same way; each cluster
        # joins x or z with chance 1/4, so that about 40% of the mutilated
        # summaries still answer CONNECTED somewhere
        h = _random_summary(g, rng)
        labels = sorted(h.quotient.nodes)
        bar_x = [c for c in labels if rng.random() < 0.25]
        under_z = [c for c in labels if rng.random() < 0.25]
        connected = _connected_answers(mutilate_summary(h, bar_x, under_z), rng)
        pending = _unwitnessed(connected, mutilated_compatible_dags(h, bar_x, under_z))
        assert not pending, list(pending)


def _connected_answers(h, rng):
    """The CONNECTED answers of ``s_separated`` on one query per pair of
    clusters (random z), grounded to member sets."""
    labels = sorted(h.quotient.nodes)
    connected = set()
    for x, y in combinations(labels, 2):
        z = {c for c in labels if c not in (x, y) and rng.random() < 0.5}
        if not s_separated(h, SeparationQuery({x}, {y}, z)):
            connected.add(tuple(frozenset().union(*map(h.members, s)) for s in ({x}, {y}, z)))
    return connected


def _unwitnessed(connected, graphs):
    """The grounded queries in ``connected`` that no DAG of ``graphs`` d-connects."""
    for _, edges in graphs:
        if not connected:
            break
        connected = {q for q in connected if moral_d_separated(edges, *q)}
    return connected


@st.composite
def summaries(draw):
    """A random summary of a plain or ``#``-labelled graph, or one with a
    colliding ``AB#2`` label, mutilated half the time."""
    rng = draw(st.randoms(use_true_random=False))
    graphs = dags(min_nodes=2, max_nodes=9) | hashed_dags(max_nodes=9).filter(
        lambda g: g.num_nodes > 1
    )
    h = draw(st.builds(_random_summary, graphs, st.just(rng)) | colliding_summaries())
    return _random_mutilation(h, rng) if draw(st.booleans()) else h


def _draw_base_query(data, h):
    """Disjoint x, y and z of any sizes over the base variables, x and y non-empty."""
    order = data.draw(st.permutations(h.base.nodes), label="order")
    a = data.draw(st.integers(1, len(order) - 1), label="x ends")
    b = data.draw(st.integers(a + 1, len(order)), label="y ends")
    c = data.draw(st.integers(b, len(order)), label="z ends")
    return SeparationQuery(order[:a], order[a:b], order[b:c])


class TestCanonicalWalk:
    @settings(max_examples=150, deadline=None)
    @given(summaries(), st.data())
    def test_matches_d_separation_in_the_canonical_dag(self, h, data):
        canon, separated = canonical(h), _canonical_walk(h)
        for _ in range(3):
            query = _draw_base_query(data, h)
            assert separated(query.x, query.y, query.z) == d_separated(canon, query)

    @settings(max_examples=80, deadline=None)
    @given(summaries(), st.data())
    def test_each_statement_is_counted(self, h, data):
        # each (member, direction) state tests y once, so at most 2n tests;
        # each cluster reads its quotient parents, and its quotient
        # children, at most once, and the base graph is never read
        query = _draw_base_query(data, h)
        tests = []

        class CountedSet(frozenset):
            def __contains__(self, v):
                tests.append(v)
                return frozenset.__contains__(self, v)

        calls = Counter()
        parents, children = Dag.parents, Dag.children

        def counted_parents(self, v):
            calls[self is h.quotient, "parents", v] += 1
            return parents(self, v)

        def counted_children(self, v):
            calls[self is h.quotient, "children", v] += 1
            return children(self, v)

        separated = _canonical_walk(h)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Dag, "parents", counted_parents)
            mp.setattr(Dag, "children", counted_children)
            answer = separated(query.x, CountedSet(query.y), query.z)
        assert answer == d_separated(canonical(h), query)
        assert len(tests) <= 2 * h.base.num_nodes
        assert max(Counter(tests).values(), default=0) <= 2
        assert all(on_quotient for on_quotient, _, _ in calls)
        assert max(calls.values(), default=0) <= 1
