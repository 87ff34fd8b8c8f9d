import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    CycleError,
    Dag,
    DuplicateEdgeError,
    GenSpec,
    UnknownNodeError,
    ValidationError,
    contract,
    gen_random_dag,
    topological_order,
    trivial_summary,
)
from conftest import dags
from oracles import (
    has_long_path,
    naive_contraction_is_cyclic,
    reference_dag,
    reference_topological_order,
    to_nx,
)
from test_cagres import random_dags

# labels Dag refuses (empty, whitespace, reserved, not UTF-8, not text) or
# that no graph below declares
odd_labels = st.sampled_from(["", "a b", "\t", "a,b", "|", "x;", "\ud800", 3, None, ("A",), "Z"])
some_labels = st.sampled_from("ABCDE") | odd_labels


class StrLabel(str):
    """A label of a str subclass, which the per-label check accepts."""


class Pair(tuple):
    """An edge of a tuple subclass, which the constructor accepts."""


# edges Dag refuses by their shape: a non-iterable, text, a set or a dict
# read as its members, a tuple of one or three, an unhashable end
not_pairs = {
    "none": None, "int": 5, "text": "AB", "set": {"A", "B"}, "dict": {"A": 1, "B": 2},
    "one": ("A",), "three": ("A", "B", "C"), "list-in-list": ["A", ["B"]],
    "list-in-tuple": (["A"], "B"), "list-in-subclass": Pair(("A", ["B"])),
}


class TestDagConstruction:
    def test_nodes_preserve_order(self):
        g = Dag("CBA")
        assert g.nodes == ("C", "B", "A")

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValidationError, match="duplicate node"):
            Dag(["A", "A"])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownNodeError):
            Dag("AB", [("A", "X")])

    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError):
            Dag("AB", [("A", "A")])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(DuplicateEdgeError):
            Dag("AB", [("A", "B"), ("A", "B")])

    def test_cycle_rejected_and_named(self):
        with pytest.raises(CycleError) as exc:
            Dag("ABC", [("A", "B"), ("B", "C"), ("C", "A")])
        cycle = exc.value.cycle
        assert cycle[0] == cycle[-1] and set(cycle) == {"A", "B", "C"}
        # with no cycle recovered the message names none
        assert str(CycleError()) == "directed cycle" and CycleError().cycle == []

    @pytest.mark.parametrize("edge", not_pairs.values(), ids=not_pairs.keys())
    def test_an_edge_that_is_not_a_pair_is_named(self, edge):
        # named before a later edge's endpoints or a cycle, never read as its members
        for edges in ([edge, ("A", "Z")], [("A", "B"), ("B", "A"), edge]):
            with pytest.raises(ValidationError) as exc:
                Dag("AB", edges)
            assert str(exc.value) == f"edges must be (tail, head) pairs, got {edge!r}"
        with pytest.raises(ValidationError, match="pairs, got {'(AX|BX)', '(AX|BX)'}$"):
            Dag(["AX", "BX"], [{"AX", "BX"}])
        # a tuple or list subclass of two labels is an edge like any other
        assert Dag("AB", [Pair("AB")]).edges == Dag("AB", [["A", "B"]]).edges == {("A", "B")}

    @pytest.mark.parametrize("label", ["", "a b", "a,b", "a;b", "a|b", 3, "\ud800"])
    def test_bad_labels_rejected(self, label):
        with pytest.raises(ValidationError):
            Dag([label])

    @settings(max_examples=300, deadline=None)
    @given(
        nodes=st.permutations("ABCDE")
        | st.tuples(st.permutations("ABCDE"), st.integers(0, 4), odd_labels).map(
            lambda t: t[0][: t[1]] + [t[2]] + t[0][t[1] + 1 :]
        )
        | st.lists(some_labels, max_size=6)
        | st.permutations("ABCDE").map(lambda vs: [StrLabel(v) for v in vs]),
        edges=st.lists(st.permutations("ABCDE").map(lambda vs: tuple(vs[:2])), max_size=8)
        | st.lists(st.permutations("ABCDE").map(lambda vs: Pair(vs[:2])), max_size=4)
        | st.lists(
            st.tuples(some_labels, some_labels)
            | st.lists(st.sampled_from("ABCDE"), max_size=3)
            | st.sampled_from(list(not_pairs.values())),
            max_size=8,
        ),
    )
    def test_matches_the_per_item_constructor(self, nodes, edges):
        # whole-collection checks, and the per-item loop only on a failure:
        # the same graph as the per-item constructor, or the same error
        def outcome(build):
            try:
                g = build(nodes, edges)
            except Exception as exc:
                return type(exc), str(exc)
            return g.nodes, g.edges, [(g.parents(v), g.children(v)) for v in g.nodes]

        assert outcome(Dag) == outcome(reference_dag)

    def test_equality_ignores_node_order(self):
        assert Dag("AB", [("A", "B")]) == Dag("BA", [("A", "B")])
        assert Dag("AB") != Dag("AB", [("A", "B")])
        # a graph loaded on a recorded order is the same value, and hashes so
        loaded = Dag._ordered("BA", [("A", "B")], "AB")
        assert loaded == Dag("AB", [("A", "B")])
        assert hash(loaded) == hash(Dag("AB", [("A", "B")]))
        assert (Dag("A") == "A") is False
        assert "A" in loaded and "Z" not in loaded


class TestStructuralQueries:
    def test_parents_children(self, g1):
        assert g1.parents("D") == {"B", "C"}
        assert g1.children("A") == {"B", "C"}
        with pytest.raises(UnknownNodeError):
            g1.parents("X")
        assert g1.require(["A", "B", "A"]) == frozenset({"A", "B"})
        # with several unknown labels the smallest is named
        for query in (g1.require, g1.descendants, g1.ancestors):
            for labels in ({"Y", "X"}, {"A", "Z", "Y", "X", "W", "V"}):
                with pytest.raises(UnknownNodeError) as exc:
                    query(labels)
                assert exc.value.label == min(labels - g1.node_set)

    def test_descendants_include_the_seed(self, g1):
        assert g1.descendants({"B"}) == {"B", "D", "E"}

    def test_ancestors_exclude_the_seed(self, g1):
        assert g1.ancestors({"D"}) == {"A", "B", "C"}
        assert g1.ancestors({"A"}) == set()

    @settings(max_examples=100, deadline=None)
    @given(g=random_dags(), data=st.data())
    def test_reachability_matches_networkx(self, g, data):
        # descendants keeps every seed; ancestors keeps a seed only when it
        # is an ancestor of another seed, which a drawn edge's two ends are
        seeds = data.draw(st.sets(st.sampled_from(g.nodes)))
        edge = data.draw(st.sampled_from([None, *sorted(g.edges)]))
        seeds |= set(edge or ())
        graph = to_nx(g)
        below = seeds.union(*(nx.descendants(graph, v) for v in seeds))
        above = set().union(*(nx.ancestors(graph, v) for v in seeds))
        assert g.descendants(seeds) == below
        assert g.ancestors(seeds) == above
        if edge is not None:
            assert edge[0] in g.ancestors(seeds)

    def test_topological_order_is_lexicographic_kahn(self):
        g = Dag("ZYX", [("Z", "X")])
        assert topological_order(g) == ("Y", "Z", "X")

    @given(dags())
    def test_topological_order_is_topological(self, g):
        order = topological_order(g)
        assert set(order) == g.node_set
        position = {v: i for i, v in enumerate(order)}
        assert all(position[u] < position[v] for u, v in g.edges)

    @settings(max_examples=100, deadline=None)
    @given(g=random_dags(), data=st.data())
    def test_topological_order_matches_the_reference(self, g, data):
        # the constructor's Kahn pass is topological_order, whatever order
        # the nodes come in, and records it; a graph proven by another order
        # (a loaded summary's base) still gets the same topological_order
        nodes = data.draw(st.permutations(g.nodes))
        shuffled = Dag(nodes, list(g.edges))
        expected = reference_topological_order(g)
        assert shuffled._proven_order == topological_order(shuffled) == expected
        indegree = {v: len(g.parents(v)) for v in nodes}
        ready, order = [v for v in nodes if not indegree[v]], []
        while ready:  # Kahn's procedure with drawn choices: a random topological order
            v = ready.pop(data.draw(st.integers(0, len(ready) - 1)))
            order.append(v)
            for child in g.children(v):
                indegree[child] -= 1
                if not indegree[child]:
                    ready.append(child)
        loaded = Dag._ordered(nodes, list(g.edges), order)
        assert loaded._proven_order == tuple(order)
        assert topological_order(loaded) == expected

    def test_topological_order_builds_no_adjacency(self, monkeypatch):
        # counted: topological_order reads the edge set, never the parent
        # and child sets, on a graph from either constructor
        g = gen_random_dag(GenSpec(40, 0.2, 1))
        expected = reference_topological_order(g)
        fresh = Dag(g.nodes, g.edges)
        # proven by another order: the reverse of the reversed graph's
        order = topological_order(Dag(g.nodes, [(v, u) for u, v in g.edges]))[::-1]
        loaded = Dag._ordered(g.nodes, list(g.edges), order)
        assert loaded._proven_order == order != expected
        monkeypatch.setattr(Dag, "_freeze", lambda self: pytest.fail("adjacency built"))
        for h in (fresh, loaded):
            assert topological_order(h) == expected
            assert h._parents is None


class TestAdjacencyIsBuiltOnce:
    @settings(max_examples=100, deadline=None)
    @given(
        g=dags(),
        ordered=st.booleans(),
        reads=st.lists(st.sampled_from(["parents", "children", "descendants", "ancestors"]),
                       min_size=1, max_size=6),
        data=st.data(),
    )
    def test_any_mix_of_reads_freezes_once(self, g, ordered, reads, data):
        # counted: from either constructor a graph holds no parent or child
        # sets, and its first read of any kind builds both, once
        if ordered:
            h = Dag._ordered(g.nodes, list(g.edges), topological_order(g))
        else:
            h = Dag(g.nodes, g.edges)
        assert h._parents is None and h._children is None
        expected = {v: (g.parents(v), g.children(v)) for v in g.nodes}
        frozen, freeze = [], Dag._freeze

        def counting_freeze(self):
            frozen.append(self)
            freeze(self)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Dag, "_freeze", counting_freeze)
            for read in reads:
                v = data.draw(st.sampled_from(g.nodes))
                if read in ("parents", "children"):
                    assert getattr(h, read)(v) == getattr(g, read)(v)
                else:
                    assert getattr(h, read)({v}) == getattr(g, read)({v})
        assert len(frozen) == 1 and frozen[0] is h
        assert {v: (h.parents(v), h.children(v)) for v in h.nodes} == expected


class TestDirectedPathLen2:
    # contracting u and v closes a cycle exactly when a directed path of two
    # or more edges joins them; contract leaves that to the quotient's own
    # acyclicity check, over arbitrary labels here
    def test_direct_edge_is_not_a_long_path(self, g1):
        assert not has_long_path(g1, "D", "E")
        assert contract(trivial_summary(g1), "D", "E").members("DE") == {"D", "E"}

    def test_two_edge_path_detected_both_directions(self, g1):
        h = trivial_summary(g1)
        for u, v in (("A", "D"), ("D", "A")):
            assert has_long_path(g1, u, v)
            with pytest.raises(CycleError, match=f"contracting {u} and {v} creates a directed cycle"):
                contract(h, u, v)

    def test_same_node_rejected(self, g1):
        with pytest.raises(ValidationError):
            contract(trivial_summary(g1), "A", "A")

    @given(dags(min_nodes=2, max_nodes=6))
    def test_matches_naive_contraction_oracle(self, g):
        h = trivial_summary(g)
        nodes = sorted(g.node_set)
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                cyclic = naive_contraction_is_cyclic(g, u, v)
                assert has_long_path(g, u, v) == cyclic
                try:
                    contract(h, u, v)
                    assert not cyclic
                except CycleError:
                    assert cyclic
