"""Do-calculus applicability checks on summary DAGs.

Each of Pearl's three rules is licensed by a separation statement in a
suitably mutilated graph. Here the graph is a summary's quotient DAG,
mutilated cluster-wise, and the separation is d-separation in it: the
summary's s-separation (d-separation in cluster DAGs; Anand et al., AAAI
2023), so a positive answer transfers to every causal DAG compatible with
the summary. Interventions address whole clusters: do(X) for a cluster X
means intervening on all its members.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .graph_core import ValidationError
from .separation import SeparationQuery, d_separated
from .summary import mutilate

RULES = ("R1", "R2", "R3")


@dataclass(frozen=True)
class DoQuery:
    """Cluster sets (x, y, z, w) for a rule check.

    y and z are the sets the rule manipulates and must be non-empty;
    x (interventions held fixed) and w (extra conditioning) may be empty.
    All four must be pairwise disjoint.
    """

    y: frozenset
    z: frozenset
    x: frozenset = field(default_factory=frozenset)
    w: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        for name in ("x", "y", "z", "w"):
            object.__setattr__(self, name, frozenset(getattr(self, name)))
        if not self.y or not self.z:
            raise ValidationError("do-query needs non-empty y and z")
        for a, b in combinations((self.x, self.y, self.z, self.w), 2):
            if shared := a & b:
                raise ValidationError(
                    f"do-query sets must be pairwise disjoint; shared: {sorted(shared)}"
                )


def rule_applies(h, rule, q):
    """Does do-calculus rule ``rule`` apply to query ``q`` on summary ``h``?

    R1 (insertion/deletion of observations):  y ⊥ z | x ∪ w  in  H with
        incoming edges of x removed.
    R2 (action/observation exchange):         y ⊥ z | x ∪ w  in  H with
        incoming edges of x and outgoing edges of z removed.
    R3 (insertion/deletion of actions):       y ⊥ z | x ∪ w  in  H with
        incoming edges of x ∪ z(w) removed, where z(w) is the part of z
        with no descendants in w.

    Here H is the quotient and each separation is d-separation in the
    mutilated quotient, which is the s-separation of the summary mutilated
    the same way (see ``s_separated``); no mutilated summary is built.

    R3's ancestor sets are taken in the x-mutilated quotient, as Pearl
    states the rule. Taking them in the unmutilated quotient instead finds
    more ancestors, so it bars fewer z clusters and tests separation in a
    supergraph of this graph: by the soundness theorem it can only answer
    APPLIES where this reading does too, and it refuses some queries whose
    rule holds in every compatible DAG.
    """
    if rule not in RULES:
        raise ValidationError(f"unknown rule {rule!r}; expected one of {RULES}")
    g = h.quotient
    g.require(q.x | q.y | q.z | q.w)
    sep = SeparationQuery(x=q.y, y=q.z, z=q.x | q.w)
    if rule == "R1":
        return d_separated(mutilate(g, q.x, ()), sep)
    if rule == "R2":
        return d_separated(mutilate(g, q.x, q.z), sep)
    # R3: drop the z-clusters that are not ancestors of w, then bar them too
    zw = q.z - mutilate(g, q.x, ()).ancestors(q.w)
    return d_separated(mutilate(g, q.x | zw, ()), sep)


def adjustment_set(h, t, o):
    """A backdoor adjustment set for the effect of ``t`` on ``o``.

    Returns the members of the quotient parents of t's cluster. ``t`` must
    be alone in its cluster: then every parent of ``t`` in a DAG compatible
    with the summary lies in that set and none of its members descends
    from ``t``, so the set blocks every backdoor path at its first node and
    satisfies the backdoor criterion (Pearl, *Causality*, 2009, §3.3) in
    every compatible DAG. Raises ValidationError when ``t`` shares its
    cluster, since a cluster-mate can open a backdoor path the quotient
    does not show, and when ``o`` lies in one of those parent clusters,
    since the set would contain the outcome.

    The first refusal is deliberately wider than it must be. When ``o``
    lies outside the quotient descendants of t's cluster, some set, often
    the empty one, may satisfy the criterion in every compatible DAG, but
    it is not searched for. When ``o``'s cluster is t's or descends from
    it, no set does: with a cluster-mate m of t, one DAG with exactly the
    summary's structure has a backdoor path ``t <- m -> ... -> o``, and
    in the DAG with ``m -> t`` reversed, every node that could block
    that path descends from t.
    """
    h.base.require((t, o))
    if t == o:
        raise ValidationError("treatment and outcome must differ")
    cluster = h.cluster_of(t)
    if h.cluster_size(cluster) > 1:
        raise ValidationError(
            f"treatment {t!r} shares cluster {cluster!r}; "
            "an adjustment set is sound only for a treatment alone in its cluster"
        )
    adjust = frozenset().union(*(h.members(c) for c in h.quotient.parents(cluster)))
    if o in adjust:
        raise ValidationError(
            f"outcome {o!r} lies in a parent cluster of the treatment {t!r}"
        )
    return adjust
