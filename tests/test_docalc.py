from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalsumm import (
    Dag,
    DoQuery,
    SeparationQuery,
    UnknownNodeError,
    ValidationError,
    adjustment_set,
    canonical,
    d_separated,
    is_compatible,
    mutilate,
    rule_applies,
    s_separated,
    trivial_summary,
)
from causalsumm import docalc
from causalsumm.docalc import RULES
from conftest import dags
from oracles import (
    all_dags,
    compatible_dags,
    grounded_rule,
    reordered_canonical,
    satisfies_backdoor,
    strictly_compatible_dags,
    summary_rule_applies,
)
from test_summary import _random_mutilation, _random_summary, _summaries


class TestDoQuery:
    def test_requires_y_and_z(self):
        with pytest.raises(ValidationError):
            DoQuery(y=set(), z={"A"})
        with pytest.raises(ValidationError):
            DoQuery(y={"A"}, z=set())

    def test_requires_disjoint_sets(self):
        with pytest.raises(ValidationError, match="disjoint"):
            DoQuery(y={"A"}, z={"B"}, w={"B"})

    def test_x_and_w_may_be_empty(self):
        q = DoQuery(y={"A"}, z={"B"})
        assert q.x == frozenset() and q.w == frozenset()


class TestRuleApplies:
    def test_r1_observation_insertion(self, h1):
        # A tells E nothing once D is held fixed
        assert rule_applies(h1, "R1", DoQuery(y={"E"}, z={"A"}, w={"D"}))
        assert not rule_applies(h1, "R1", DoQuery(y={"E"}, z={"A"}))

    def test_r2_action_observation_exchange(self, h1):
        assert rule_applies(h1, "R2", DoQuery(y={"E"}, z={"BC"}, w={"D"}))

    def test_r2_differs_from_r1_by_the_underline(self, h1):
        q = DoQuery(y={"E"}, z={"BC"})
        assert not rule_applies(h1, "R1", q)  # BC -> D -> E is open
        assert rule_applies(h1, "R2", q)  # cutting BC's out-edges closes it

    def test_r3_action_deletion(self, h1):
        # intervening on D cannot move A, so do(D) can be dropped...
        assert rule_applies(h1, "R3", DoQuery(y={"A"}, z={"D"}))
        # ...but do(BC) still reaches E through D
        assert not rule_applies(h1, "R3", DoQuery(y={"E"}, z={"BC"}))

    def test_r3_empty_w_bars_all_of_z(self, h1):
        q = DoQuery(y={"E"}, z={"A"})
        # z(w) = z when w is empty: both readings agree by construction
        assert rule_applies(h1, "R3", q) == summary_rule_applies(
            h1, "R3", q, zw_in_hbar=False
        )

    def test_r1_with_empty_x_is_plain_s_separation(self, h1):
        q = DoQuery(y={"E"}, z={"A"}, w={"D"})
        assert rule_applies(h1, "R1", q) == s_separated(
            h1, SeparationQuery({"E"}, {"A"}, {"D"})
        )

    def test_unknown_rule(self, h1):
        with pytest.raises(ValidationError):
            rule_applies(h1, "R4", DoQuery(y={"E"}, z={"A"}))

    def test_unknown_cluster(self, h1):
        with pytest.raises(UnknownNodeError):
            rule_applies(h1, "R1", DoQuery(y={"E"}, z={"B"}))
        # with several unknown labels the smallest is named
        for q, smallest in (
            (DoQuery(y={"Q"}, z={"R"}, x={"S"}), "Q"),
            (DoQuery(y={"E", "V"}, z={"U", "T"}, x={"S", "R"}, w={"Q", "B"}), "B"),
        ):
            with pytest.raises(UnknownNodeError) as exc:
                rule_applies(h1, "R2", q)
            assert exc.value.label == smallest

    def test_zw_variants_differ_when_x_cuts_the_ancestral_path(self):
        # Z reaches W only through X, and a confounder U ties Z to Y.
        # Mutilated reading: barring X makes Z a non-ancestor of W, so
        # z(w) = {Z} and U -> Z is cut too, separating Y from Z.
        # Literal reading: Z stays an ancestor of W, z(w) is empty, and
        # the backdoor Z <- U -> Y stays open.
        g = Dag("UZXWY", [("U", "Z"), ("U", "Y"), ("Z", "X"), ("X", "W")])
        h = trivial_summary(g)
        q = DoQuery(y={"Y"}, z={"Z"}, x={"X"}, w={"W"})
        assert rule_applies(h, "R3", q)
        assert not summary_rule_applies(h, "R3", q, zw_in_hbar=False)

    @settings(max_examples=80, deadline=None)
    @given(_summaries, st.randoms(use_true_random=False), st.booleans())
    def test_matches_the_mutilated_summary_formulation(self, h, rng, cut):
        # d-separation in the mutilated quotient answers exactly as
        # s-separation in the summary mutilated the same way
        if cut:
            h = _random_mutilation(h, rng)
        labels = sorted(h.quotient.nodes)
        if len(labels) < 2:
            return
        for _ in range(4):
            q = _random_do_query(labels, rng)
            for rule in RULES:
                assert rule_applies(h, rule, q) == summary_rule_applies(h, rule, q), (rule, q)

    @settings(max_examples=80, deadline=None)
    @given(_summaries, st.randoms(use_true_random=False), st.booleans())
    def test_the_literal_r3_reading_never_applies_alone(self, h, rng, cut):
        # taken in the unmutilated quotient, z(w) loses every z cluster that
        # reaches w only through x, so the literal reading bars fewer
        # clusters and tests separation in a supergraph: by the soundness
        # theorem it applies only where rule_applies does
        if cut:
            h = _random_mutilation(h, rng)
        labels = sorted(h.quotient.nodes)
        if len(labels) < 2:
            return
        for _ in range(4):
            q = _random_do_query(labels, rng)
            if summary_rule_applies(h, "R3", q, zw_in_hbar=False):
                assert rule_applies(h, "R3", q), q

    def test_the_literal_r3_reading_refuses_a_rule_that_holds(self):
        # N0 reaches w = N2 only through x = N1: the literal reading keeps
        # N3 -> N0 and refuses, yet the rule holds in every compatible DAG
        g = Dag(
            [f"N{i}" for i in range(5)],
            [("N0", "N1"), ("N0", "N4"), ("N1", "N2"), ("N1", "N4"), ("N3", "N0"),
             ("N3", "N1"), ("N3", "N2")],
        )
        h = trivial_summary(g)
        q = DoQuery(y={"N3"}, z={"N0"}, x={"N1"}, w={"N2"})
        assert rule_applies(h, "R3", q)
        assert not summary_rule_applies(h, "R3", q, zw_in_hbar=False)
        holds = grounded_rule("R3", q.x, q.y, q.z, q.w)
        assert all(holds(edges) for _, edges in compatible_dags(h))

    @settings(max_examples=50, deadline=None)
    @given(_summaries, st.randoms(use_true_random=False))
    def test_builds_at_most_two_mutilated_quotients(self, h, rng):
        labels = sorted(h.quotient.nodes)
        if len(labels) < 2:
            return
        q = _random_do_query(labels, rng)
        calls = []

        def counted_mutilate(*args):
            calls.append(args)
            return mutilate(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(docalc, "mutilate", counted_mutilate)
            for rule in RULES:
                calls.clear()
                rule_applies(h, rule, q)
                assert len(calls) == (2 if rule == "R3" else 1)

    @given(dags(min_nodes=3, max_nodes=6), st.randoms(use_true_random=False))
    def test_positive_answers_transfer_to_the_mutilated_base(self, g, rng):
        # a licensed R2 means the grounded separation holds in the base
        # graph mutilated the same way (supergraph soundness)
        h = _random_summary(g, rng)
        labels = sorted(h.quotient.nodes)
        if len(labels) < 2:
            return
        y, z = labels[0], labels[1]
        q = DoQuery(y={y}, z={z})
        if rule_applies(h, "R2", q):
            base_cut = mutilate(g, set(), h.members(z))
            assert d_separated(
                base_cut, SeparationQuery(h.members(y), h.members(z))
            )

    @settings(max_examples=20, deadline=None)
    @given(dags(min_nodes=3, max_nodes=5), st.randoms(use_true_random=False))
    def test_sound_in_every_compatible_dag(self, g, rng):
        # a positive answer holds when the rule is grounded in every DAG the
        # (unmutilated) summary stands for
        h = _random_summary(g, rng)
        verdicts = _grounded_verdicts(h, rng)
        checks = {v: grounded_rule(*v) for v, applies in verdicts.items() if applies}
        if not checks:
            return
        for _, edges in compatible_dags(h):
            for positive, holds in checks.items():
                assert holds(edges), (edges, positive)

    @settings(max_examples=20, deadline=None)
    @given(dags(min_nodes=3, max_nodes=5), st.randoms(use_true_random=False))
    def test_every_refusal_fails_in_a_strictly_compatible_dag(self, g, rng):
        # completeness: a NOT-APPLICABLE rule, grounded, fails in some DAG
        # that contracts to exactly the quotient
        h = _random_summary(g, rng)
        verdicts = _grounded_verdicts(h, rng)
        checks = {v: grounded_rule(*v) for v, applies in verdicts.items() if not applies}
        for _, edges in strictly_compatible_dags(h):
            if not checks:
                break
            checks = {v: holds for v, holds in checks.items() if holds(edges)}
        assert not checks, list(checks)


def _grounded_verdicts(h, rng):
    """``rule_applies`` for every rule on one random query per ordered pair
    of clusters (singleton y and z), keyed by the rule and the query's
    grounded x, y, z and w."""
    labels = sorted(h.quotient.nodes)
    verdicts = {}
    for y, z in permutations(labels, 2):
        rest = [c for c in labels if c not in (y, z)]
        x = {c for c in rest if rng.random() < 0.25}
        w = {c for c in rest if c not in x and rng.random() < 0.5}
        q = DoQuery(y={y}, z={z}, x=x, w=w)
        grounded = [frozenset().union(*map(h.members, s)) for s in (q.x, q.y, q.z, q.w)]
        for rule in RULES:
            verdicts[rule, *grounded] = rule_applies(h, rule, q)
    return verdicts


def _random_do_query(labels, rng):
    """A DoQuery over ``labels`` (at least two): non-empty y and z, and
    x and w drawn from the rest."""
    order = rng.sample(labels, len(labels))
    i = rng.randrange(1, len(order))
    j = rng.randrange(i + 1, len(order) + 1)
    rest = order[j:]
    x = {c for c in rest if rng.random() < 0.3}
    w = {c for c in rest if c not in x and rng.random() < 0.5}
    return DoQuery(y=order[:i], z=order[i:j], x=x, w=w)


class TestAdjustmentSet:
    def test_grounded_cluster_parents(self, h1):
        # D's one quotient parent is BC, grounded to its members
        assert adjustment_set(h1, "D", "E") == {"B", "C"}

    def test_trivial_summary_gives_plain_parents(self, g1):
        assert adjustment_set(trivial_summary(g1), "D", "E") == {"B", "C"}

    def test_root_cluster_member_needs_nothing(self, h1):
        assert adjustment_set(h1, "A", "E") == frozenset()

    def test_treatment_sharing_its_cluster_is_refused(self, h1, h3):
        # {A} was returned for B in BC, but C -> B, C -> D opens B <- C -> D -> E;
        # the empty set was returned for A in ABC
        with pytest.raises(ValidationError, match="shares cluster"):
            adjustment_set(h1, "B", "E")
        with pytest.raises(ValidationError, match="shares cluster"):
            adjustment_set(h3, "A", "E")

    def test_outcome_in_a_parent_cluster_is_refused(self, g1, h1):
        with pytest.raises(ValidationError, match="parent cluster"):
            adjustment_set(h1, "D", "B")
        with pytest.raises(ValidationError, match="parent cluster"):
            adjustment_set(trivial_summary(g1), "B", "A")

    def test_validation(self, h1):
        with pytest.raises(UnknownNodeError):
            adjustment_set(h1, "Q", "E")
        with pytest.raises(UnknownNodeError, match="'Y'"):
            adjustment_set(h1, "Z", "Y")
        with pytest.raises(ValidationError):
            adjustment_set(h1, "B", "B")

    def test_treatment_comes_first_in_its_cluster(self, h3):
        # C is last in cluster ABC under base order; the reordered
        # canonical DAG must not give it in-cluster parents
        reordered = reordered_canonical(h3, "C")
        assert reordered.parents("C") == set()
        assert reordered.has_edge("C", "A") and reordered.has_edge("C", "B")

    @given(dags(min_nodes=2, max_nodes=6), st.randoms(use_true_random=False))
    def test_never_contains_t_or_its_descendants(self, g, rng):
        h = _random_summary(g, rng)
        nodes = sorted(g.node_set)
        t = rng.choice(nodes)
        o = rng.choice([v for v in nodes if v != t])
        parents = h.quotient.parents(h.cluster_of(t))
        if h.cluster_size(h.cluster_of(t)) > 1 or h.cluster_of(o) in parents:
            with pytest.raises(ValidationError):
                adjustment_set(h, t, o)
            return
        adj = adjustment_set(h, t, o)
        assert t not in adj and o not in adj
        reordered = reordered_canonical(h, t)
        assert not (adj & (reordered.descendants({t}) - {t}))

    @given(dags(min_nodes=2, max_nodes=7), st.randoms(use_true_random=False))
    def test_matches_reordered_canonical_parents(self, g, rng):
        h = _random_summary(g, rng)
        for s in (h, _random_mutilation(h, rng)):
            for t in sorted(g.node_set):
                if s.cluster_size(s.cluster_of(t)) > 1:
                    continue
                parents = reordered_canonical(s, t).parents(t)
                outcomes = sorted(g.node_set - parents - {t})
                if outcomes:
                    o = rng.choice(outcomes)
                    assert adjustment_set(s, t, o) == parents

    @settings(max_examples=60, deadline=None)
    @given(dags(min_nodes=2, max_nodes=5), st.randoms(use_true_random=False))
    def test_sound_in_every_compatible_dag(self, g, rng):
        # every returned set satisfies the backdoor criterion in every DAG
        # the (unmutilated) summary stands for
        h = _random_summary(g, rng)
        nodes = sorted(g.node_set)
        t = rng.choice(nodes)
        o = rng.choice([v for v in nodes if v != t])
        try:
            adj = adjustment_set(h, t, o)
        except ValidationError:
            return
        for labels, edges in compatible_dags(h):
            assert satisfies_backdoor(labels, edges, t, o, adj), (edges, t, o, adj)

    @settings(max_examples=40, deadline=None)
    @given(dags(min_nodes=2, max_nodes=5), st.randoms(use_true_random=False))
    def test_refusals_below_the_treatment_admit_no_set(self, g, rng):
        # completeness of the refusals: when o's cluster is t's or one of
        # its quotient descendants, every set of the other nodes fails the
        # backdoor criterion in some strictly compatible DAG
        h = _random_summary(g, rng)
        nodes = sorted(g.node_set)
        pending = set()
        for t, o in permutations(nodes, 2):
            if h.cluster_of(o) not in h.quotient.descendants({h.cluster_of(t)}):
                continue
            try:
                adjustment_set(h, t, o)
            except ValidationError:
                others = [v for v in nodes if v not in (t, o)]
                for size in range(len(others) + 1):
                    pending.update((t, o, z) for z in combinations(others, size))
        for labels, edges in strictly_compatible_dags(h):
            if not pending:
                break
            pending = {q for q in pending if satisfies_backdoor(labels, edges, *q)}
        assert not pending, list(pending)

    @settings(max_examples=15, deadline=None)
    @given(dags(min_nodes=1, max_nodes=4), st.randoms(use_true_random=False))
    def test_compatible_dags_are_the_compatible_filter(self, g, rng):
        # the oracle's product enumeration equals filtering every labeled
        # DAG by is_compatible
        h = _random_summary(g, rng)
        expected = {
            frozenset(edges)
            for labels, edges in all_dags(g.nodes)
            if is_compatible(Dag(labels, edges), h)
        }
        found = [frozenset(edges) for _, edges in compatible_dags(h)]
        assert len(found) == len(set(found)) and set(found) == expected

    def test_canonical_agreement_for_singleton_clusters(self, g1, h1):
        # when t's cluster is a singleton the reordering is the identity,
        # so the adjustment set is just t's parents in the canonical DAG
        assert adjustment_set(h1, "D", "E") == canonical(h1).parents("D")
