"""Immutable labeled DAG values and the structural queries everything else uses.

Nodes are plain text labels; edges are (tail, head) pairs. Acyclicity,
label uniqueness and the label charset are checked once at construction,
so downstream algorithms never re-validate. Graphs are values: every
"mutation" elsewhere in the package returns a new graph.
"""

from collections import deque
import heapq

#: characters reserved by the file formats (field separators)
RESERVED_CHARS = frozenset(",;|")


class GraphError(Exception):
    """Base class for every domain error raised by this package."""


class ValidationError(GraphError):
    """A value violates one of its type invariants."""


class UnknownNodeError(GraphError):
    """A label was used against a graph that does not contain it."""

    def __init__(self, label):
        self.label = label
        super().__init__(f"unknown node: {label!r}")


class DuplicateEdgeError(ValidationError):
    """The same ordered pair appeared twice in an edge list."""

    def __init__(self, edge):
        self.edge = tuple(edge)
        super().__init__(f"duplicate edge: {edge[0]} -> {edge[1]}")


class CycleError(GraphError):
    """A directed cycle where acyclicity is required.

    ``cycle`` holds one offending node sequence (first node repeated last)
    when the constructor could recover it, so error messages can name the
    cycle rather than just assert its existence.
    """

    def __init__(self, cycle=(), message=None):
        self.cycle = list(cycle)
        if message is None:
            if self.cycle:
                message = "directed cycle: " + " -> ".join(self.cycle)
            else:
                message = "directed cycle"
        super().__init__(message)


class SizeLimitError(GraphError):
    """An exhaustive helper was called on an instance above its guard size."""


def _check_label(label):
    if not isinstance(label, str) or not label:
        raise ValidationError(f"node labels must be non-empty text, got {label!r}")
    if label.split() != [label]:  # split() cuts at exactly the str.isspace() characters
        raise ValidationError(f"label {label!r} contains whitespace (reserved)")
    bad = RESERVED_CHARS.intersection(label)
    if bad:
        raise ValidationError(
            f"label {label!r} contains reserved character {sorted(bad)[0]!r}"
        )
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"label {label!r} cannot be encoded as UTF-8") from None


class Dag:
    """A labeled directed acyclic graph, immutable after construction.

    Parameters
    ----------
    nodes:
        Iterable of labels. Order is preserved (it is the serialization
        order) and labels must be unique, non-empty, encodable as UTF-8,
        and free of whitespace and the characters ``,;|``.
    edges:
        Iterable of (tail, head) pairs over ``nodes``. Self-loops,
        duplicate pairs, endpoints outside ``nodes``, and directed cycles
        all raise.

    Examples
    --------
    >>> g = Dag("ABCDE", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("D", "E")])
    >>> sorted(g.parents("D"))
    ['B', 'C']
    >>> sorted(g.descendants({"B"}))
    ['B', 'D', 'E']
    """

    __slots__ = ("_order", "_nodes", "_edges", "_parents", "_children")

    def __init__(self, nodes, edges=()):
        order = []
        seen = set()
        for label in nodes:
            _check_label(label)
            if label in seen:
                raise ValidationError(f"duplicate node label: {label!r}")
            seen.add(label)
            order.append(label)
        self._order = tuple(order)
        self._nodes = frozenset(seen)

        parents = {v: set() for v in order}
        children = {v: set() for v in order}
        edge_set = set()
        for tail, head in edges:
            if tail not in self._nodes:
                raise UnknownNodeError(tail)
            if head not in self._nodes:
                raise UnknownNodeError(head)
            if tail == head:
                raise ValidationError(f"self-loop on node {tail!r}")
            if (tail, head) in edge_set:
                raise DuplicateEdgeError((tail, head))
            edge_set.add((tail, head))
            children[tail].add(head)
            parents[head].add(tail)
        self._edges = frozenset(edge_set)
        self._parents = {v: frozenset(ps) for v, ps in parents.items()}
        self._children = {v: frozenset(cs) for v, cs in children.items()}
        self._raise_if_cyclic()

    # === structure ===

    @property
    def nodes(self):
        """Node labels as a tuple, in construction order."""
        return self._order

    @property
    def node_set(self):
        """Node labels as a frozenset."""
        return self._nodes

    @property
    def edges(self):
        """The (tail, head) pairs as a frozenset."""
        return self._edges

    @property
    def num_nodes(self):
        return len(self._order)

    @property
    def num_edges(self):
        return len(self._edges)

    def __contains__(self, label):
        return label in self._nodes

    def has_edge(self, tail, head):
        return (tail, head) in self._edges

    def __eq__(self, other):
        if not isinstance(other, Dag):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self):
        return hash((self._nodes, self._edges))

    def __repr__(self):
        return f"Dag({self.num_nodes} nodes, {self.num_edges} edges)"

    # === local queries ===

    def require(self, labels):
        """``labels`` as a frozenset, all of them nodes of this graph.

        Raises ``UnknownNodeError`` naming the smallest unknown label, so
        the error is the same on every run.
        """
        labels = frozenset(labels)
        unknown = labels - self._nodes
        if unknown:
            raise UnknownNodeError(min(unknown, key=str))
        return labels

    def parents(self, v):
        """π(v): the set of tails of edges into ``v``."""
        if v not in self._nodes:
            raise UnknownNodeError(v)
        return self._parents[v]

    def children(self, v):
        """The set of heads of edges out of ``v``."""
        if v not in self._nodes:
            raise UnknownNodeError(v)
        return self._children[v]

    # === reachability ===

    def descendants(self, s):
        """All nodes reachable from ``s`` by directed paths, including ``s`` itself.

        The reflexive convention (v is its own descendant) matters for
        collider activation in d-separation, where "has a descendant in Z"
        must cover the collider itself being in Z.
        """
        s = self.require(s)
        result = set(s)
        frontier = deque(s)
        while frontier:
            v = frontier.popleft()
            for child in self._children[v]:
                if child not in result:
                    result.add(child)
                    frontier.append(child)
        return frozenset(result)

    def ancestors(self, s):
        """All nodes with a directed path into some member of ``s``.

        Deliberately irreflexive: a member of ``s`` appears in the result
        only if it is an ancestor of another member. (Rule R3's
        Z \\ ancestors(W) must not erase Z trivially.)
        """
        s = self.require(s)
        result = set()
        frontier = deque()
        for v in s:
            frontier.extend(self._parents[v])
        while frontier:
            v = frontier.popleft()
            if v not in result:
                result.add(v)
                frontier.extend(self._parents[v])
        return frozenset(result)

    def _raise_if_cyclic(self):
        indegree = {v: len(self._parents[v]) for v in self._order}
        queue = deque(v for v in self._order if indegree[v] == 0)
        emitted = 0
        while queue:
            v = queue.popleft()
            emitted += 1
            for child in self._children[v]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    queue.append(child)
        if emitted != len(self._order):
            raise CycleError(self._recover_cycle(indegree))

    def _recover_cycle(self, indegree):
        # every node left with indegree > 0 sits on or downstream of a cycle;
        # walking parents inside that residue must eventually repeat a node
        residue = {v for v, d in indegree.items() if d > 0}
        v = min(residue)
        trail, seen = [], {}
        while v not in seen:
            seen[v] = len(trail)
            trail.append(v)
            v = min(p for p in self._parents[v] if p in residue)
        cycle = trail[seen[v]:] + [v]
        cycle.reverse()  # parent-walk found it against edge direction
        return cycle


def topological_order(g):
    """Kahn's procedure with a lexicographic tie-break among ready nodes.

    Returns a tuple: a permutation of ``g.nodes`` in which every edge goes
    from earlier to later. The tie-break makes the order (and everything
    derived from it, like canonical DAGs) reproducible across runs.

    >>> topological_order(Dag("CBA", [("C", "B"), ("B", "A")]))
    ('C', 'B', 'A')
    """
    indegree = {v: len(g.parents(v)) for v in g.nodes}
    ready = [v for v in g.nodes if indegree[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for child in sorted(g.children(v)):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    return tuple(order)
