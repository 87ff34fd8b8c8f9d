"""Do-calculus applicability checks on summary DAGs.

Each of Pearl's three rules is licensed by a separation statement in a
suitably mutilated graph. Here the graphs are summary DAGs and the
separations are s-separations, so a positive answer transfers to every
causal DAG compatible with the summary. Interventions address whole
clusters: do(X) for a cluster X means intervening on all its members.
"""

from dataclasses import dataclass, field

from .graph_core import UnknownNodeError, ValidationError
from .separation import SeparationQuery, s_separated
from .summary import mutilate_summary

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
        sets = [self.x, self.y, self.z, self.w]
        for i in range(len(sets)):
            for j in range(i + 1, len(sets)):
                if sets[i] & sets[j]:
                    raise ValidationError(
                        "do-query sets must be pairwise disjoint; "
                        f"shared: {sorted(sets[i] & sets[j])}"
                    )


def _check_clusters(h, q):
    for label in q.x | q.y | q.z | q.w:
        if label not in h.quotient.node_set:
            raise UnknownNodeError(label)


def rule_applies(h, rule, q, zw_in_hbar=True):
    """Does do-calculus rule ``rule`` apply to query ``q`` on summary ``h``?

    R1 (insertion/deletion of observations):  y ⊥ z | x ∪ w  in  H with
        incoming edges of x removed.
    R2 (action/observation exchange):         y ⊥ z | x ∪ w  in  H with
        incoming edges of x and outgoing edges of z removed.
    R3 (insertion/deletion of actions):       y ⊥ z | x ∪ w  in  H with
        incoming edges of x ∪ z(w) removed, where z(w) is the part of z
        with no descendants in w.

    ``zw_in_hbar`` picks where R3's ancestor sets are computed: in the
    x-mutilated quotient (default, the standard reading) or in the
    unmutilated quotient (the literal alternative); the two differ only
    when x lies on an ancestral path from z to w.
    """
    if rule not in RULES:
        raise ValidationError(f"unknown rule {rule!r}; expected one of {RULES}")
    _check_clusters(h, q)
    sep = SeparationQuery(x=q.y, y=q.z, z=q.x | q.w)
    if rule == "R1":
        return s_separated(mutilate_summary(h, q.x, frozenset()), sep)
    if rule == "R2":
        return s_separated(mutilate_summary(h, q.x, q.z), sep)
    # R3: drop the z-clusters that are not ancestors of w, then bar them too
    host = mutilate_summary(h, q.x, frozenset()).quotient if zw_in_hbar else h.quotient
    zw = q.z - host.ancestors(q.w)
    return s_separated(mutilate_summary(h, q.x | zw, frozenset()), sep)


def adjustment_set(h, t, o):
    """A backdoor adjustment set for the effect of ``t`` on ``o``.

    Returns the members of the quotient parents of t's cluster, which are
    t's parents in the canonical causal DAG rebuilt with ``t`` first among
    its cluster-mates. In every DAG compatible with the summary this set
    holds every parent of t's cluster from outside it and no descendant of
    it, so it satisfies the backdoor criterion for intervening on the
    whole cluster. For ``t`` alone in a multi-member cluster it can miss a
    backdoor path through a cluster-mate. ``o`` is only validated.
    """
    for v in (t, o):
        if v not in h.base.node_set:
            raise UnknownNodeError(v)
    if t == o:
        raise ValidationError("treatment and outcome must differ")
    parents = h.quotient.parents(h.cluster_of(t))
    return frozenset().union(*(h.members(c) for c in parents))
