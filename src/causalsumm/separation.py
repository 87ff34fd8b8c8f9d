"""d-separation over DAGs and s-separation over summary DAGs.

``d_separated`` is the workhorse (linear-time reachability over edge
orientations); the tests cross-check it against a trail-enumeration
oracle of the textbook definition (``tests/oracles.py``). ``s_separated``
answers a query over cluster labels with ``d_separated`` on the summary's
quotient DAG; its definition, d-separation of the grounded query in the
canonical causal DAG, is kept as a test oracle.
"""

from collections import deque
from dataclasses import dataclass, field

from .graph_core import Dag, ValidationError


@dataclass(frozen=True)
class SeparationQuery:
    """A separation triple: is x independent of y given z?

    x and y must be non-empty and x, y, z pairwise disjoint. Empty x or y
    is rejected rather than treated as vacuously separated, to surface
    caller bugs.
    """

    x: frozenset
    y: frozenset
    z: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "y", frozenset(self.y))
        object.__setattr__(self, "z", frozenset(self.z))
        if not self.x or not self.y:
            raise ValidationError("separation query needs non-empty x and y")
        if self.x & self.y or self.x & self.z or self.y & self.z:
            overlap = (self.x & self.y) | (self.x & self.z) | (self.y & self.z)
            raise ValidationError(
                f"separation query sets must be disjoint; shared: {sorted(overlap)}"
            )

    def members(self):
        return self.x | self.y | self.z


# Directions a trail can arrive at a node from. Arriving "down" means the
# last edge pointed into the node (came from a parent); arriving "up" means
# the last edge was traversed against its direction (came from a child).
_DOWN = "down"
_UP = "up"


def d_separated(g, query):
    """Decide whether x and y are d-separated by z in ``g``.

    True iff every trail between a node of x and a node of y is blocked
    given z: some non-head-to-head node on the trail is in z, or some
    head-to-head node is outside z with no descendant in z.

    Decided by ball-passing reachability over (node, arrival-direction)
    states rather than trail enumeration; the slow reference, which
    enumerates trails, is a test oracle in ``tests/oracles.py``.

    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> d_separated(g, SeparationQuery({"B"}, {"C"}, {"A"}))
    True
    >>> d_separated(g, SeparationQuery({"B"}, {"C"}, {"A", "D"}))
    False
    """
    g.require(query.members())
    x, y, z = query.x, query.y, query.z

    # colliders may be passed when they (or a descendant) are conditioned on:
    # exactly the set z together with its ancestors
    opened = z | g.ancestors(z)

    visited = set()
    frontier = deque((s, _UP) for s in x)
    while frontier:
        v, direction = frontier.popleft()
        if (v, direction) in visited:
            continue
        visited.add((v, direction))
        # the trail into v already satisfied every interior blocking rule,
        # and endpoints are exempt from them — so touching y means connected
        if v in y:
            return False
        if direction == _UP:
            # came from a child: v is a chain or fork node here
            if v not in z:
                for parent in g.parents(v):
                    frontier.append((parent, _UP))
                for child in g.children(v):
                    frontier.append((child, _DOWN))
        else:
            # came from a parent: continuing downward keeps v a chain node,
            # turning back up makes v a head-to-head node
            if v not in z:
                for child in g.children(v):
                    frontier.append((child, _DOWN))
            if v in opened:
                for parent in g.parents(v):
                    frontier.append((parent, _UP))
    return True


def s_separated(h, query):
    """Decide the query over a summary DAG (all members are cluster labels).

    By definition the query holds when its grounding (every label replaced
    by its members) is d-separated in the canonical causal DAG of ``h``.
    Computed as d-separation of the labels in the quotient instead, which
    decides the same thing: the canonical DAG grounds each quotient edge to
    all member pairs and orders each cluster totally, so a query naming
    only whole clusters is d-separated there exactly when it is in the
    quotient (d-separation in cluster DAGs; Anand et al., "Causal Effect
    Identification in Cluster DAGs", AAAI 2023). Every canonical DAG, a
    mutilated summary's included, is built from the quotient and the base
    order alone. Like the definition, the answer is sound and complete for
    the CIs guaranteed by every DAG the summary could have come from.
    """
    return d_separated(h.quotient, query)
