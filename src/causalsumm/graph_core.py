"""Immutable labeled DAG values and the structural queries everything else uses.

Nodes are plain text labels; edges are (tail, head) pairs. Acyclicity,
label uniqueness and the label charset are checked once at construction,
so downstream algorithms never re-validate. Graphs are values: every
"mutation" elsewhere in the package returns a new graph.
"""

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


def _labels_ok(labels):
    """Are the labels distinct and would each pass ``_check_label``?

    Tested over the whole sequence at once: the labels joined by single
    spaces split back into exactly the labels iff none is empty or holds
    whitespace, and one pass each tests that text for reserved characters
    and for UTF-8. False for anything but plain ``str`` labels, which the
    per-label check decides.
    """
    if not {*map(type, labels)} <= {str} or len(set(labels)) != len(labels):
        return False
    text = " ".join(labels)
    if text.split() != list(labels) or not RESERVED_CHARS.isdisjoint(text):
        return False
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _check_labels(labels):
    """Raise at the first label that is bad or repeats an earlier one."""
    seen = set()
    for label in labels:
        _check_label(label)
        if label in seen:
            raise ValidationError(f"duplicate node label: {label!r}")
        seen.add(label)


def _check_edges(nodes, edges):
    """Raise at the first edge that is not a (tail, head) pair of hashable
    values, has an endpoint outside ``nodes``, is a self-loop, or repeats."""
    seen = set()
    for edge in edges:
        try:  # a tuple or list of two hashable values
            tail, head = edge if isinstance(edge, (tuple, list)) else ()
            hash((tail, head))
        except (TypeError, ValueError):
            raise ValidationError(f"edges must be (tail, head) pairs, got {edge!r}") from None
        if tail not in nodes:
            raise UnknownNodeError(tail)
        if head not in nodes:
            raise UnknownNodeError(head)
        if tail == head:
            raise ValidationError(f"self-loop on node {tail!r}")
        if (tail, head) in seen:
            raise DuplicateEdgeError((tail, head))
        seen.add((tail, head))


def _recover_cycle(edges, indegree):
    # every node left with indegree > 0 sits on or downstream of a cycle;
    # walking parents inside that residue must eventually repeat a node
    residue = {v for v, d in indegree.items() if d > 0}
    parents = {}
    for tail, head in edges:
        parents.setdefault(head, []).append(tail)
    v = min(residue)
    trail, seen = [], {}
    while v not in seen:
        seen[v] = len(trail)
        trail.append(v)
        v = min(p for p in parents[v] if p in residue)
    cycle = trail[seen[v]:] + [v]
    cycle.reverse()  # parent-walk found it against edge direction
    return cycle


def _kahn(order, edges):
    """Kahn's procedure over ``order``'s labels, the smallest ready label
    first: the emitted labels as a tuple, and each label's leftover indegree
    (above zero for the nodes on or below a cycle). An endpoint outside
    ``order`` raises ``KeyError``."""
    children = {v: [] for v in order}
    indegree = dict.fromkeys(order, 0)
    for tail, head in edges:
        children[tail].append(head)
        indegree[head] += 1
    ready = [v for v in order if not indegree[v]]
    heapq.heapify(ready)
    emitted = []
    while ready:
        v = heapq.heappop(ready)
        emitted.append(v)
        for child in children[v]:
            left = indegree[child] - 1
            indegree[child] = left
            if not left:
                heapq.heappush(ready, child)
    return tuple(emitted), indegree


class Dag:
    """A labeled directed acyclic graph, immutable after construction.

    Parameters
    ----------
    nodes:
        Iterable of labels. Order is preserved (it is the serialization
        order) and labels must be unique, non-empty, encodable as UTF-8,
        and free of whitespace and the characters ``,;|``.
    edges:
        Iterable of (tail, head) pairs over ``nodes``, each a tuple or list.
        Any other edge (text, a set, ...), self-loops, duplicate pairs,
        endpoints outside ``nodes``, and directed cycles all raise.

    The constructor's Kahn pass records the order that proves the graph
    acyclic: ``topological_order``'s. The parent and child sets are built
    from the edge set once, by ``_freeze`` on first read.
    ``_require_order`` is the one test of a topological order.

    Examples
    --------
    >>> g = Dag("ABCDE", [("A", "B"), ("A", "C"), ("B", "D"), ("C", "D"), ("D", "E")])
    >>> sorted(g.parents("D"))
    ['B', 'C']
    >>> sorted(g.descendants({"B"}))
    ['B', 'D', 'E']
    """

    __slots__ = ("_order", "_nodes", "_edges", "_parents", "_children", "_proven_order")

    def __init__(self, nodes, edges=()):
        # Each check tests the whole input at once; only when one fails does
        # the per-item loop run, to raise the error that names the offender.
        order = tuple(nodes)
        if not _labels_ok(order):
            _check_labels(order)  # names the first bad or repeated label
        node_set = frozenset(order)

        edges = list(edges)
        try:
            kinds = {*map(type, edges)}  # one pass; a subclass needs isinstance, a list a copy
            if not kinds <= {tuple, list} and not all(isinstance(e, (tuple, list)) for e in edges):
                raise TypeError("edges must be tuples or lists")
            edge_set = set(edges if kinds <= {tuple} else map(tuple, edges))
            emitted, indegree = _kahn(order, edge_set)  # an unknown endpoint raises KeyError
        except (TypeError, ValueError, KeyError):  # not a pair of known labels
            edge_set = None
        # a repeated edge shrinks the set; a self-loop or a cycle leaves nodes unemitted
        if edge_set is None or len(edge_set) != len(edges) or len(emitted) != len(order):
            _check_edges(node_set, edges)  # names the first bad edge, before any cycle
            raise CycleError(_recover_cycle(edge_set, indegree))

        self._order = order
        self._nodes = node_set
        self._edges = frozenset(edge_set)  # copied from a set: sized to its contents
        self._parents, self._children, self._proven_order = None, None, emitted

    @classmethod
    def _ordered(cls, nodes, edges, order):
        """``Dag(nodes, edges)``, proven acyclic by ``order`` with no Kahn
        pass, or None. A forward pass over a permutation of the labels
        proves every endpoint a label, no edge a self-loop and the graph
        acyclic. None when a label, an edge or the order fails; then
        ``Dag(nodes, edges)`` names the fault."""
        nodes = tuple(nodes)
        if not _labels_ok(nodes):
            return None
        self = cls.__new__(cls)
        self._order = nodes
        self._nodes = frozenset(nodes)
        self._parents = self._children = self._proven_order = None
        try:
            self._edges = frozenset(map(tuple, edges))
            if len(self._edges) != len(edges):
                return None
            self._require_order(order, "order", "graph's")
        except (TypeError, ValueError, KeyError, ValidationError):  # not labels, or not in order
            return None
        return self

    def _require_order(self, order, name, owner):
        """Raise ``ValidationError`` unless ``order`` is topological, by one
        forward pass; the last order proven is recorded and passes at once."""
        if order == self._proven_order:
            return
        order = tuple(order)
        if len(order) != len(self._order) or {*order} != self._nodes:
            raise ValidationError(f"{name} must be a permutation of the {owner} nodes")
        position = {v: i for i, v in enumerate(order)}
        edge = min(((u, v) for u, v in self._edges if position[u] >= position[v]), default=None)
        if edge is not None:
            u, v = edge
            raise ValidationError(f"{name} is not topological: edge {u} -> {v} goes backwards")
        self._proven_order = order

    def _freeze(self):
        """Build the frozen parent and child sets from the edge set."""
        parents = {v: [] for v in self._order}
        children = {v: [] for v in self._order}
        for tail, head in self._edges:
            children[tail].append(head)
            parents[head].append(tail)
        self._children = dict(zip(self._order, map(frozenset, children.values())))
        # set last: a reader that sees the parents sees the children too
        self._parents = dict(zip(self._order, map(frozenset, parents.values())))

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
        if self._parents is None:
            self._freeze()
        return self._parents[v]

    def children(self, v):
        """The set of heads of edges out of ``v``."""
        if v not in self._nodes:
            raise UnknownNodeError(v)
        if self._parents is None:
            self._freeze()
        return self._children[v]

    # === reachability ===

    def descendants(self, s):
        """All nodes reachable from ``s`` by directed paths, including ``s`` itself.

        The reflexive convention (v is its own descendant) matters for
        collider activation in d-separation, where "has a descendant in Z"
        must cover the collider itself being in Z. The result is ``s`` plus one
        walk over children, the loop ``ancestors`` runs over parents.
        """
        s = self.require(s)
        return self._walk(s, set(s), down=True)

    def ancestors(self, s):
        """All nodes with a directed path into some member of ``s``.

        Deliberately irreflexive: a member of ``s`` appears in the result
        only if it is an ancestor of another member. (Rule R3's
        Z \\ ancestors(W) must not erase Z trivially.) One walk over parents.
        """
        return self._walk(self.require(s), set(), down=False)

    def _walk(self, seeds, found, down):
        """``found`` plus every node one or more edges from ``seeds``, walked
        tail to head when ``down`` and head to tail otherwise, frozen."""
        if self._parents is None:
            self._freeze()
        step = self._children if down else self._parents
        frontier = list(seeds)
        while frontier:
            for w in step[frontier.pop()]:
                if w not in found:
                    found.add(w)
                    frontier.append(w)
        return frozenset(found)


def topological_order(g):
    """Kahn's procedure with a lexicographic tie-break among ready nodes.

    Returns a tuple: a permutation of ``g.nodes`` in which every edge goes
    from earlier to later. The tie-break makes the order (and everything
    derived from it, like canonical DAGs) reproducible across runs. The
    constructor records this order, so it passes ``_require_order`` at once.

    >>> topological_order(Dag("CBA", [("C", "B"), ("B", "A")]))
    ('C', 'B', 'A')
    """
    return _kahn(g.nodes, g.edges)[0]
