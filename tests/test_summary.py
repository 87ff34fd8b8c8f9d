import dataclasses
import inspect

import pytest
from hypothesis import given
from hypothesis import strategies as st

from causalsumm import (
    CiStatement,
    CycleError,
    Dag,
    RecursiveBasis,
    SeparationQuery,
    SummaryDag,
    UnknownNodeError,
    ValidationError,
    additional_edges,
    canonical,
    contract,
    d_separated,
    ground_ci,
    implication_percentage,
    is_compatible,
    load_dag,
    load_summary,
    mutilate,
    mutilate_summary,
    recursive_basis,
    s_separated,
    save_summary,
    summary_recursive_basis,
    topological_order,
    trivial_summary,
)
from causalsumm.cli_io import _summary_from_doc, cli
from causalsumm.summary import BASE, CLUSTER, _basis, _grounded_basis
from conftest import dags, tricky_dags
from oracles import contraction, has_long_path, reference_canonical, summary_to_doc

_rngs = st.randoms(use_true_random=False)
#: random summaries of plain and tricky-labelled graphs, and ones whose
#: first merge is labeled AB#2
_summaries = st.deferred(
    lambda: st.builds(_random_summary, dags() | tricky_dags(), _rngs) | colliding_summaries()
)


def stmt_sets(statements):
    return [(set(s.x), set(s.y), set(s.z)) for s in statements]


class TestContract:
    def test_bc_merge_gives_h1(self, g1, h1):
        h = contract(trivial_summary(g1), "B", "C")
        assert h.quotient.node_set == {"A", "BC", "D", "E"}
        assert h.quotient.edges == {("A", "BC"), ("BC", "D"), ("D", "E")}
        assert h == h1
        assert hash(h) == hash(h1)
        assert (h1 == object()) is False
        # another base order or the mutilated flag makes another summary
        for order, mutilated in (("ACBDE", False), ("ABCDE", True)):
            assert SummaryDag(g1, h1.quotient, h1.mapping, order, mutilated) != h1

    def test_direct_edge_pair_is_legal(self, g1):
        h = contract(trivial_summary(g1), "D", "E")
        assert "DE" in h.quotient.node_set
        assert h.members("DE") == {"D", "E"}

    def test_two_edge_path_raises(self, g1):
        with pytest.raises(CycleError, match="contracting A and D creates a directed cycle"):
            contract(trivial_summary(g1), "A", "D")
        with pytest.raises(CycleError, match="contracting D and A creates a directed cycle"):
            contract(trivial_summary(g1), "D", "A")

    def test_merged_label_follows_base_order(self, g1):
        h = contract(trivial_summary(g1), "C", "B")
        assert "BC" in h.quotient.node_set

    def test_base_never_changes(self, g1, h1):
        assert h1.base == g1
        assert contract(h1, "D", "E").base == g1

    def test_self_merge_rejected(self, h1):
        with pytest.raises(ValidationError):
            contract(h1, "BC", "BC")

    def test_unknown_cluster_rejected(self, h1):
        with pytest.raises(UnknownNodeError):
            contract(h1, "B", "D")
        # with two unknown labels the smaller is named, whatever the order
        with pytest.raises(UnknownNodeError, match="'Y'"):
            contract(h1, "Z", "Y")

    def test_label_collision_gets_a_suffix(self):
        # merging A and B would mint the label "AB", which already names a
        # singleton cluster; the singleton keeps it and the merge takes the
        # first free suffix, so f⁻¹ stays intact
        g = Dag(["A", "B", "AB", "AB#2"], [])
        h = contract(trivial_summary(g), "A", "B")
        assert h.quotient.node_set == {"AB#3", "AB", "AB#2"}
        assert h.members("AB#3") == {"A", "B"}
        assert h.members("AB") == {"AB"}
        # two merged clusters can concatenate to the same text, too
        g = Dag(["A", "BC", "AB", "C"], [])
        h = contract(contract(trivial_summary(g), "A", "BC"), "AB", "C")
        assert h.quotient.node_set == {"ABC", "ABC#2"}
        assert h.members("ABC") == {"A", "BC"}


class TestTrivialSummary:
    def test_identity_partition(self, g1):
        h = trivial_summary(g1)
        assert h.quotient == g1
        assert all(h.members(v) == {v} for v in g1.nodes)

    def test_edgeless_graph(self):
        h = trivial_summary(Dag("XYZ"))
        assert h.quotient.num_nodes == 3 and h.quotient.num_edges == 0

    def test_redshift_counts(self, redshift):
        h = trivial_summary(redshift)
        assert h.quotient.num_nodes == 12 and h.quotient.num_edges == 23


class TestCompatibility:
    def test_g1_and_g2_compatible_with_h1(self, fixtures_dir, g1, h1):
        assert is_compatible(g1, h1)
        assert is_compatible(load_dag(fixtures_dir / "g2.json"), h1)

    def test_g3_not_compatible_with_h1(self, fixtures_dir, h1):
        assert not is_compatible(load_dag(fixtures_dir / "g3.json"), h1)

    def test_trivial_summary_is_always_compatible(self, g1):
        assert is_compatible(g1, trivial_summary(g1))

    def test_node_universe_mismatch(self, h1):
        with pytest.raises(ValidationError):
            is_compatible(Dag("AB"), h1)


class TestCanonical:
    def test_h3_matches_worked_example(self, fixtures_dir, h3):
        assert canonical(h3) == load_dag(fixtures_dir / "h3_canonical.json")
        assert additional_edges(h3) == 2

    def test_h1_gains_exactly_the_bc_edge(self, g1, h1):
        assert canonical(h1).edges == g1.edges | {("B", "C")}
        assert additional_edges(h1) == 1

    def test_trivial_summary_is_the_identity(self, g1):
        assert canonical(trivial_summary(g1)) == g1
        assert additional_edges(trivial_summary(g1)) == 0

    @given(dags(min_nodes=2, max_nodes=6), st.randoms(use_true_random=False))
    def test_canonical_is_a_compatible_supergraph(self, g, rng):
        h = _random_summary(g, rng)
        canon = canonical(h)
        assert g.edges <= canon.edges
        assert is_compatible(canon, h)
        assert is_compatible(g, h)

    @given(dags(min_nodes=1, max_nodes=7), st.randoms(use_true_random=False))
    def test_additional_edges_counts_the_canonical_dag(self, g, rng):
        h = _random_summary(g, rng)
        for s in (h, _random_mutilation(h, rng)):
            assert additional_edges(s) == canonical(s).num_edges - g.num_edges

    @given(_summaries, _rngs, st.booleans())
    def test_canonical_is_the_definition(self, h, rng, cut):
        if cut:
            h = _random_mutilation(h, rng)
        canon, ref = canonical(h), reference_canonical(h)
        assert canon == ref and canon.nodes == ref.nodes == h.base_order

    @given(_summaries, _rngs, st.booleans())
    def test_canonical_contracts_to_exactly_the_quotient(self, h, rng, cut):
        # canonical(h) is strictly compatible with h, so it witnesses every
        # CONNECTED answer: the completeness half of s-separation
        if cut:
            h = _random_mutilation(h, rng)
        assert contraction(h, canonical(h).edges) == set(h.quotient.edges)

    def test_colliding_labels_ground_by_members(self):
        g = Dag(["A", "B", "AB", "C"], [("A", "B"), ("B", "AB"), ("AB", "C")])
        h = contract(trivial_summary(g), "A", "B")
        assert h.quotient.nodes == ("AB#2", "AB", "C")
        assert canonical(h).edges == g.edges | {("A", "AB")}


def _random_summary(g, rng):
    """A random contraction sequence applied to the trivial summary."""
    return _random_merges(trivial_summary(g), rng)


def _random_merges(h, rng):
    """Fewer random valid contractions of ``h`` than it has clusters."""
    merges = rng.randrange(h.quotient.num_nodes)
    for _ in range(merges):
        labels = sorted(h.quotient.nodes)
        pairs = [
            (a, b)
            for i, a in enumerate(labels)
            for b in labels[i + 1 :]
            if not has_long_path(h.quotient, a, b)
        ]
        if not pairs:
            break
        h = contract(h, *rng.choice(pairs))
    return h


@st.composite
def colliding_summaries(draw):
    """Random summaries that start by merging A and B while a base node is
    named AB, so the merged cluster is labeled AB#2."""
    labels = ["A", "B", "AB"] + [f"N{i}" for i in range(draw(st.integers(0, 4)))]
    order = [v for v in draw(st.permutations(labels)) if v != "B"]
    # B right after A in the topological order: no path A -> ... -> B
    order.insert(order.index("A") + 1, "B")
    edges = [
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if draw(st.booleans())
    ]
    h = contract(trivial_summary(Dag(labels, edges)), "A", "B")
    return _random_merges(h, draw(_rngs))


def _random_mutilation(h, rng):
    """``mutilate_summary`` of ``h`` on random, possibly empty, label sets."""
    labels = sorted(h.quotient.nodes)
    bar_x = rng.sample(labels, rng.randrange(len(labels) + 1))
    under_z = rng.sample(labels, rng.randrange(len(labels) + 1))
    return mutilate_summary(h, bar_x, under_z)


class TestRecursiveBasis:
    def test_g1_row(self, g1):
        rb = recursive_basis(g1, topological_order(g1))
        assert stmt_sets(rb) == [
            ({"C"}, {"B"}, {"A"}),
            ({"D"}, {"A"}, {"B", "C"}),
            ({"E"}, {"A", "B", "C"}, {"D"}),
        ]

    def test_canonical_h3_row(self, h3):
        g = canonical(h3)
        rb = recursive_basis(g, topological_order(g))
        assert stmt_sets(rb) == [({"E"}, {"A", "B", "C"}, {"D"})]

    def test_chain(self):
        g = Dag("ABC", [("A", "B"), ("B", "C")])
        rb = recursive_basis(g, ("A", "B", "C"))
        assert stmt_sets(rb) == [({"C"}, {"A"}, {"B"})]
        assert len(rb) == 1
        # a statement over base variables grounds to itself
        assert ground_ci(trivial_summary(g), rb.statements[0]) is rb.statements[0]

    @given(dags(), _rngs)
    def test_collects_the_one_basis_loop(self, g, rng):
        # _basis yields; both public forms collect the same statements, and
        # the grounded stream is the collected basis grounded
        order = topological_order(g)
        rb = recursive_basis(g, order)
        assert type(rb) is RecursiveBasis and rb.statements == tuple(_basis(g, order, BASE))
        h = _random_summary(g, rng)
        q = h.quotient
        srb = summary_recursive_basis(h)
        assert type(srb) is RecursiveBasis
        assert srb.statements == tuple(_basis(q, topological_order(q), CLUSTER))
        assert list(_grounded_basis(h)) == [ground_ci(h, s) for s in srb]
        assert inspect.isgenerator(_basis(g, order, BASE))

    def test_invalid_order_rejected(self, g1):
        # every edge goes backwards; the smallest is named
        with pytest.raises(ValidationError, match="edge A -> B goes backwards"):
            recursive_basis(g1, ("E", "D", "C", "B", "A"))
        with pytest.raises(ValidationError):
            recursive_basis(g1, ("A", "B", "C"))

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("h1", [({"D"}, {"A"}, {"B", "C"}), ({"E"}, {"A", "B", "C"}, {"D"})]),
            ("h2", [({"E"}, {"A", "C"}, {"B", "D"})]),
            ("h3", [({"E"}, {"A", "B", "C"}, {"D"})]),
            ("h4", [({"D", "E"}, {"A"}, {"B", "C"})]),
        ],
    )
    def test_summary_rows_ground_to_expected_statements(self, fixtures_dir, name, expected):
        h = load_summary(fixtures_dir / f"{name}.json")
        grounded = [ground_ci(h, s) for s in summary_recursive_basis(h)]
        assert stmt_sets(grounded) == expected

    def test_trivial_summary_rb_equals_graph_rb(self, g1):
        h = trivial_summary(g1)
        assert stmt_sets(summary_recursive_basis(h)) == stmt_sets(
            recursive_basis(g1, topological_order(g1))
        )

    def test_statement_validation(self):
        with pytest.raises(ValidationError):
            CiStatement(x=set(), y={"A"}, z=set())
        with pytest.raises(ValidationError):
            CiStatement(x={"A"}, y={"A"}, z=set())
        with pytest.raises(ValidationError, match="^unknown universe: 'other'$"):
            CiStatement(x={"A"}, y={"B"}, z=set(), universe="other")

    def test_a_statement_is_a_separation_query(self, h1):
        assert issubclass(CiStatement, SeparationQuery)
        assert [f.name for f in dataclasses.fields(CiStatement)] == ["x", "y", "z", "universe"]
        s = CiStatement({"A"}, {"B"}, {"C"})
        assert s != SeparationQuery({"A"}, {"B"}, {"C"}) and s.members() == {"A", "B", "C"}
        assert repr(s).startswith("CiStatement(x=frozenset({'A'}), y=frozenset({'B'})")
        # the basis goes to the deciders as it is: over labels, and grounded
        canon = canonical(h1)
        basis = summary_recursive_basis(h1)
        assert len(basis) == 2
        for s in basis:
            assert s_separated(h1, s) and d_separated(canon, ground_ci(h1, s))

    @given(
        st.sets(st.sampled_from("ABCD"), max_size=3),
        st.sets(st.sampled_from("ABCD"), max_size=3),
        st.sets(st.sampled_from("ABCD"), max_size=3),
        st.sampled_from([BASE, CLUSTER]),
    )
    def test_statements_accept_what_queries_accept(self, x, y, z, universe):
        def outcome(build, *extra):
            try:
                made = build(x, y, z, *extra)
            except ValidationError as exc:
                return str(exc)
            return made.x, made.y, made.z

        assert outcome(CiStatement, universe) == outcome(SeparationQuery)


class TestMutilation:
    def test_bar_removes_incoming(self, g1):
        assert mutilate(g1, {"D"}, set()).edges == {
            ("A", "B"),
            ("A", "C"),
            ("D", "E"),
        }

    def test_under_removes_outgoing(self, g1):
        assert mutilate(g1, set(), {"D"}).edges == {
            ("A", "B"),
            ("A", "C"),
            ("B", "D"),
            ("C", "D"),
        }

    def test_identity(self, g1):
        assert mutilate(g1, set(), set()) == g1

    def test_unknown_node(self, g1):
        with pytest.raises(UnknownNodeError):
            mutilate(g1, {"X"}, set())
        for bar_x, under_z in (({"Y", "X"}, set()), ({"Y"}, {"X", "Z"}), (set(), set("QRSTUVWX"))):
            with pytest.raises(UnknownNodeError) as exc:
                mutilate(g1, bar_x, under_z)
            assert exc.value.label == min(bar_x | under_z)

    def test_summary_bar(self, h1):
        cut = mutilate_summary(h1, {"D"}, set())
        assert cut.quotient.edges == {("A", "BC"), ("D", "E")}
        assert cut.mutilated and cut.base == h1.base

    def test_summary_under(self, h1):
        cut = mutilate_summary(h1, set(), {"BC"})
        assert cut.quotient.edges == {("A", "BC"), ("D", "E")}

    def test_summary_identity(self, h1):
        assert mutilate_summary(h1, set(), set()) == h1

    def test_canonical_of_mutilated_summary_drops_severed_groundings(self, h1):
        cut = mutilate_summary(h1, {"D"}, set())
        canon = canonical(cut)
        # no edge may enter D, but the D -> E grounding must survive
        assert canon.parents("D") == set()
        assert canon.has_edge("D", "E")
        # within-cluster order edge B -> C survives mutilation
        assert canon.has_edge("B", "C")

    def test_grounded_mutilated_base_is_a_subgraph(self, g1, h1):
        # cutting cluster-wise at the summary covers cutting node-wise at
        # the base: supergraph soundness carries over to do-queries
        cut = canonical(mutilate_summary(h1, {"BC"}, set()))
        base_cut = mutilate(g1, {"B", "C"}, set())
        assert base_cut.edges <= cut.edges


class TestSummaryDagInvariants:
    def test_mapping_must_cover_every_cluster(self, g1):
        from causalsumm import SummaryDag

        quotient = Dag(["ABC", "DE"], [("ABC", "DE")])
        mapping = dict.fromkeys("ABC", "ABC") | dict.fromkeys("DE", "DE")
        h = SummaryDag(g1, quotient, mapping, tuple("ABCDE"))
        assert h.members("ABC") == {"A", "B", "C"}

        with pytest.raises(ValidationError, match="surjective"):
            SummaryDag(g1, quotient, dict.fromkeys("ABCDE", "ABC"), tuple("ABCDE"))

    def test_an_unknown_label_is_named(self, h1):
        for lookup in (h1.members, h1.cluster_of, h1.cluster_size):
            with pytest.raises(UnknownNodeError, match="^unknown node: 'Z'$"):
                lookup("Z")

    def test_edge_preservation_enforced(self, g1):
        from causalsumm import SummaryDag

        quotient = Dag(["A", "BC", "D", "E"], [("A", "BC"), ("D", "E")])
        mapping = {"A": "A", "B": "BC", "C": "BC", "D": "D", "E": "E"}
        # B -> D and C -> D both lack an image; the smaller is named
        with pytest.raises(ValidationError, match="edge preservation violated: B -> D "):
            SummaryDag(g1, quotient, mapping, tuple("ABCDE"))

    def test_base_order_must_be_topological(self, g1, h1):
        from causalsumm import SummaryDag

        with pytest.raises(ValidationError, match="topological: edge A -> B goes backwards"):
            SummaryDag(g1, h1.quotient, h1.mapping, tuple("EDCBA"))

    @given(_summaries, _rngs, st.sampled_from(["contracted", "mutilated", "loaded"]))
    def test_ordered_clusters_bucket_the_base_order(self, h, rng, kind):
        if kind == "mutilated":
            h = _random_mutilation(h, rng)
        elif kind == "loaded":
            # a document may list clusters, and their members, in any order
            doc = summary_to_doc(h)
            clusters = list(doc["clusters"].items())
            rng.shuffle(clusters)
            doc["clusters"] = {c: rng.sample(vs, len(vs)) for c, vs in clusters}
            h = _summary_from_doc(doc)
        expected = {c: [] for c in h.quotient.nodes}
        for v in h.base_order:
            expected[h.mapping[v]].append(v)
        view = h.ordered_clusters
        assert list(view) == list(h.quotient.nodes)
        assert {c: list(vs) for c, vs in view.items()} == expected
        assert h.clusters == {c: frozenset(vs) for c, vs in expected.items()}

    def test_members_are_bucketed_at_most_once(self, fixtures_dir, tmp_path, monkeypatch):
        buckets = []
        view = SummaryDag.ordered_clusters.fget

        def counted(h):
            if h._ordered is None:
                buckets.append(h)
            return view(h)

        monkeypatch.setattr(SummaryDag, "ordered_clusters", property(counted))
        path = fixtures_dir / "h1.json"
        assert cli(["canonical", "--in", str(path), "--out", str(tmp_path / "c.json")]) == 0
        assert len(buckets) == 1
        loaded = load_summary(path)
        # a loaded summary buckets once; one built from a partition never
        for h, expected in ((loaded, [loaded]), (contract(loaded, "A", "BC"), [])):
            buckets.clear()
            canonical(h)
            save_summary(h, tmp_path / "h.json")
            save_summary(h, tmp_path / "h.dot")
            implication_percentage(h, h)
            assert h.clusters and h.members(h.quotient.nodes[0])
            assert buckets == expected

    @given(dags(min_nodes=2, max_nodes=6), st.randoms(use_true_random=False))
    def test_random_contraction_sequences_stay_valid(self, g, rng):
        h = _random_summary(g, rng)
        assert is_compatible(g, h)
        sizes = sum(len(h.members(c)) for c in h.quotient.nodes)
        assert sizes == g.num_nodes

    @given(dags(min_nodes=2, max_nodes=5), st.randoms(use_true_random=False))
    def test_canonical_separation_transfers_to_base(self, g, rng):
        h = _random_summary(g, rng)
        canon = canonical(h)
        nodes = sorted(g.node_set)
        for x in nodes:
            for y in nodes:
                if x >= y:
                    continue
                z = frozenset(rng.sample(nodes, rng.randrange(len(nodes) - 1)))
                if x in z or y in z:
                    continue
                query = SeparationQuery({x}, {y}, z)
                if d_separated(canon, query):
                    assert d_separated(g, query)
