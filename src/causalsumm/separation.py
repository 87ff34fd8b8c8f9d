"""d-separation over DAGs and s-separation over summary DAGs.

``SeparationQuery`` is the triple (x; y | z). A recursive-basis statement,
``summary.CiStatement``, is one, so it goes to the deciders as it is.
``d_separated`` is the workhorse (linear-time reachability over edge
orientations); the tests cross-check it against a trail-enumeration
oracle of the textbook definition (``tests/oracles.py``). ``s_separated``
answers a query over cluster labels with ``d_separated`` on the summary's
quotient DAG; its definition, d-separation of the grounded query in the
canonical causal DAG, is kept as a test oracle. ``_canonical_walk`` runs
the same reachability in the canonical DAG over base variables without
grounding it, for the RB-implication metric.
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

    Decided by Bayes-ball (Shachter, UAI 1998): reachability over (node,
    arrival-direction) states rather than trail enumeration. A collider
    sends the ball back up only when it is in z; one with a descendant in
    z gets the ball back from below, where that descendant bounces it, so
    no ancestor set is computed. The slow reference, which enumerates
    trails, is a test oracle in ``tests/oracles.py``.

    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> d_separated(g, SeparationQuery({"B"}, {"C"}, {"A"}))
    True
    >>> d_separated(g, SeparationQuery({"B"}, {"C"}, {"A", "D"}))
    False
    """
    g.require(query.members())
    x, y, z = query.x, query.y, query.z
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
        if v not in z:  # on to the children, as a chain or fork node
            frontier.extend((child, _DOWN) for child in g.children(v))
        # on to the parents: from a child as a chain or fork node outside z,
        # from a parent only as a head-to-head node in z, which bounces the ball
        if (direction == _UP) == (v not in z):
            frontier.extend((parent, _UP) for parent in g.parents(v))
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


def _canonical_walk(h):
    """d-separation in ``canonical(h)``, decided without grounding it.

    Returns ``separated(x, y, z)``, which takes disjoint sets of base
    variables, x and y non-empty, and answers as
    ``d_separated(canonical(h), SeparationQuery(x, y, z))`` does.

    In the canonical DAG a member of cluster c has as parents its
    cluster-mates earlier in base order and every member of c's quotient
    parents; its children are its later cluster-mates and every member of
    c's quotient children. So ``d_separated``'s ball passing runs here over
    member ids, numbered cluster by cluster in base order: the members a
    cluster's mates push up are a prefix of it, those they push down a
    suffix, and each cluster pushes its quotient parents, and its quotient
    children, at most once, as whole clusters. A collider sends the ball
    back up only when it is in z, as in Bayes-ball (Shachter 1998): one
    with a descendant in z gets the ball back from below, where it bounces,
    so no ancestor set is needed. Each statement visits at most 2n
    (member, direction) states, in O(n + quotient edges) time.

    >>> from causalsumm import contract, trivial_summary
    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> separated = _canonical_walk(contract(trivial_summary(g), "B", "C"))
    >>> separated({"B"}, {"E"}, {"D"}), separated({"B"}, {"C"}, {"A"})
    (True, False)
    """
    q = h.quotient
    label, cluster, span = [], [], {}  # span: cluster -> (first id, end id)
    for c, vs in h.ordered_clusters.items():
        span[c] = (len(label), len(label) + len(vs))
        label += vs
        cluster += [c] * len(vs)
    ident = {v: i for i, v in enumerate(label)}

    # a state is 2 * id for "up" (arrived from a child), 2 * id + 1 for "down"
    def lift(stack, up, c, end):
        """Push c's members before id ``end`` up, skipping those pushed already."""
        start = up.get(c, span[c][0])
        if end > start:
            stack.extend(range(2 * start, 2 * end, 2))
            up[c] = end

    def lower(stack, down, c, start):
        """Push c's members from id ``start`` on down, skipping those pushed already."""
        end = down.get(c, span[c][1])
        if start < end:
            stack.extend(range(2 * start + 1, 2 * end + 1, 2))
            down[c] = start

    def separated(x, y, z):
        up, down = {}, {}  # cluster -> end of its prefix pushed up, start of its suffix down
        lifted, lowered = set(), set()  # clusters that pushed their quotient parents, children
        seen = bytearray(2 * len(label))
        stack = [2 * ident[v] for v in x]
        while stack:
            state = stack.pop()
            if seen[state]:
                continue
            seen[state] = 1
            i = state >> 1
            v = label[i]
            if v in y:
                return False
            c = cluster[i]
            passes = v not in z
            if passes:  # on to the children, as a chain or fork node
                lower(stack, down, c, i + 1)
                if c not in lowered:
                    lowered.add(c)
                    for d in q.children(c):
                        lower(stack, down, d, span[d][0])
            if state & 1:  # arrived down: back up only as a collider in z
                passes = not passes
            if passes:  # on to the parents
                lift(stack, up, c, i)
                if c not in lifted:
                    lifted.add(c)
                    for p in q.parents(c):
                        lift(stack, up, p, span[p][1])
        return True

    return separated
