"""Summary DAGs as first-class values.

A summary DAG groups the nodes of a causal DAG ("the base") into clusters
and keeps a quotient DAG over cluster labels. This module provides the
operations the rest of the package builds on: building a summary from a
partition, node contraction (refused when it would close a directed
cycle), compatibility checking, the canonical causal DAG a summary stands
for, recursive-basis extraction, and edge mutilation of a graph
(``mutilate``, which the do-calculus checks run on the quotient) and of a
summary (``mutilate_summary``).

Everything here is a pure function over immutable values; summaries are
never modified in place.
"""

import bisect
from dataclasses import dataclass, field

from .graph_core import (
    CycleError,
    Dag,
    UnknownNodeError,
    ValidationError,
    topological_order,
)
from .separation import SeparationQuery

#: Universe tags for CI statements: over base variables or cluster labels.
BASE = "base"
CLUSTER = "cluster"


@dataclass(frozen=True)
class CiStatement(SeparationQuery):
    """A conditional-independence statement (x ⊥ y | z): a separation query.

    ``universe`` records whether the member names are base variables or
    cluster labels, so callers never mix the two by accident; a statement
    goes as it is to ``d_separated`` (base) or ``s_separated`` (cluster).
    """

    universe: str = BASE

    def __post_init__(self):
        super().__post_init__()
        if self.universe not in (BASE, CLUSTER):
            raise ValidationError(f"unknown universe: {self.universe!r}")


@dataclass(frozen=True)
class RecursiveBasis:
    """An ordered list of CI statements, one per node, trivial ones omitted."""

    statements: tuple = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "statements", tuple(self.statements))

    def __iter__(self):
        return iter(self.statements)

    def __len__(self):
        return len(self.statements)


class SummaryDag:
    """A cluster DAG over the nodes of a base causal DAG.

    Fields
    ------
    base : Dag
        The original causal DAG. Never changed by summary operations.
    quotient : Dag
        DAG over cluster labels.
    mapping : dict
        Total function from base nodes to cluster labels, surjective onto
        the quotient's nodes. Its fibers partition the base nodes.
    base_order : tuple
        The recorded topological order of ``base`` that fixes label
        construction and the within-cluster edge orientation used by
        ``canonical``.
    mutilated : bool
        True when this summary was produced by ``mutilate_summary``; the
        quotient then no longer edge-preserves the base, which goes
        unchecked. ``canonical`` grounds it from the quotient like any other.

    >>> g = Dag("ABC", [("A", "B"), ("B", "C")])
    >>> h = contract(trivial_summary(g), "B", "C")
    >>> sorted(h.quotient.nodes)
    ['A', 'BC']
    >>> sorted(h.members("BC"))
    ['B', 'C']
    """

    __slots__ = ("base", "quotient", "mapping", "base_order", "mutilated", "_ordered")

    def __init__(self, base, quotient, mapping, base_order, mutilated=False):
        self.base = base
        self.quotient = quotient
        self.mapping = dict(mapping)
        self.base_order = tuple(base_order)
        self.mutilated = bool(mutilated)
        self._ordered = None
        self._validate()

    def _validate(self):
        self.base._require_order(self.base_order, "base_order", "base")
        if set(self.mapping) != self.base.node_set:
            raise ValidationError("mapping must be total on the base nodes")
        images = set(self.mapping.values())
        if images != self.quotient.node_set:
            raise ValidationError("mapping must be surjective onto the quotient nodes")
        edge = None if self.mutilated else _edge_without_image(self, self.base.edges)
        if edge is not None:
            u, v = edge
            raise ValidationError(
                f"edge preservation violated: {u} -> {v} has no image "
                f"{self.mapping[u]} -> {self.mapping[v]} in the quotient"
            )

    @property
    def ordered_clusters(self):
        """Mapping from cluster label, in quotient node order, to a tuple of
        its members in base order: the within-cluster order of ``canonical``.

        ``from_partition`` fills it; any other summary buckets ``base_order``
        once, on first use.
        """
        if self._ordered is None:
            members = {label: [] for label in self.quotient.nodes}
            for v in self.base_order:
                members[self.mapping[v]].append(v)
            self._ordered = {label: tuple(vs) for label, vs in members.items()}
        return self._ordered

    @property
    def clusters(self):
        """Mapping from cluster label to frozenset of member base nodes."""
        return {label: frozenset(vs) for label, vs in self.ordered_clusters.items()}

    def members(self, label):
        """The base nodes grouped under ``label`` (f⁻¹)."""
        try:
            return frozenset(self.ordered_clusters[label])
        except KeyError:
            raise UnknownNodeError(label) from None

    def cluster_of(self, v):
        """The cluster label of base node ``v`` (f)."""
        try:
            return self.mapping[v]
        except KeyError:
            raise UnknownNodeError(v) from None

    def cluster_size(self, label):
        return len(self.members(label))

    def _key(self):
        """The fields that make a summary's identity, for ``==`` and ``hash``."""
        mapping = frozenset(self.mapping.items())
        return self.base, self.quotient, mapping, self.base_order, self.mutilated

    def __eq__(self, other):
        if not isinstance(other, SummaryDag):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        parts = ",".join(sorted(self.quotient.nodes))
        flag = ", mutilated" if self.mutilated else ""
        return f"SummaryDag(clusters=[{parts}]{flag})"

    @classmethod
    def from_partition(cls, base, base_order, block_of, block_edges, mutilated=False):
        """The summary of ``base`` whose clusters are the blocks of a partition.

        ``block_of`` maps every base node to a block id and ``block_edges``
        holds (block, block) quotient edges between distinct blocks.
        Clusters are labeled by ``cluster_labels`` and the quotient lists
        them by their earliest member. Raises ``CycleError`` when the block
        edges are cyclic.

        >>> g = Dag("ABC", [("A", "B"), ("B", "C")])
        >>> h = SummaryDag.from_partition(g, "ABC", {"A": 0, "B": 1, "C": 1}, [(0, 1)])
        >>> h.quotient.nodes, sorted(h.quotient.edges)
        (('A', 'BC'), [('A', 'BC')])
        """
        members = {}
        for v in base_order:
            members.setdefault(block_of[v], []).append(v)
        labels = dict(zip(members, cluster_labels(members.values())))
        quotient = Dag(
            labels.values(), sorted((labels[a], labels[b]) for a, b in block_edges)
        )
        mapping = {v: labels[block] for v, block in block_of.items()}
        h = cls(base, quotient, mapping, base_order, mutilated=mutilated)
        h._ordered = {labels[block]: tuple(vs) for block, vs in members.items()}
        return h


def cluster_labels(blocks):
    """Labels for member lists given in base order, by their earliest member.

    A singleton keeps its node's label. A larger cluster is labeled by its
    members concatenated in base order; when that text is already taken,
    by a node label or by an earlier cluster, the first free ``#2``,
    ``#3``, ... suffix is appended. The labels therefore depend only on
    the partition and the base order, and are unique.

    >>> cluster_labels([["A", "B"], ["AB"], ["C"]])
    ['AB#2', 'AB', 'C']
    """
    blocks = list(blocks)
    taken = {vs[0] for vs in blocks if len(vs) == 1}
    labels = []
    for vs in blocks:
        label = "".join(vs)
        if len(vs) > 1:
            suffix = 1
            while label in taken:
                suffix += 1
                label = f"{''.join(vs)}#{suffix}"
            taken.add(label)
        labels.append(label)
    return labels


def trivial_summary(g):
    """The identity summary: every node its own singleton cluster.

    >>> h = trivial_summary(Dag("AB", [("A", "B")]))
    >>> h.quotient == h.base
    True
    """
    return SummaryDag.from_partition(
        g, topological_order(g), {v: v for v in g.nodes}, g.edges
    )


def contract(h, a, b):
    """Merge clusters ``a`` and ``b`` of a summary into one.

    Every cluster of the result, the merged one included, is labeled from
    its members (see ``cluster_labels``).
    Raises ``CycleError`` exactly when the quotient has a directed path of
    at least two edges between ``a`` and ``b`` (in either direction): the
    contracted quotient then contains a directed cycle, which its own
    ``Dag`` acyclicity check reports.

    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> h1 = contract(trivial_summary(g), "B", "C")
    >>> sorted(h1.quotient.edges)
    [('A', 'BC'), ('BC', 'D'), ('D', 'E')]
    >>> contract(trivial_summary(g), "A", "D")
    Traceback (most recent call last):
        ...
    causalsumm.graph_core.CycleError: contracting A and D creates a directed cycle: they are joined by a directed path of length >= 2
    """
    if a == b:
        raise ValidationError(f"cannot contract a cluster with itself: {a}")
    h.quotient.require((a, b))

    def block(label):
        return a if label == b else label

    block_of = {v: block(label) for v, label in h.mapping.items()}
    edges = {(block(u), block(v)) for u, v in h.quotient.edges} - {(a, a)}
    try:
        return SummaryDag.from_partition(
            h.base, h.base_order, block_of, edges, mutilated=h.mutilated
        )
    except CycleError:
        raise CycleError(
            message=f"contracting {a} and {b} creates a directed cycle: "
            "they are joined by a directed path of length >= 2"
        ) from None


def is_compatible(g, h):
    """Is ``g`` compatible with summary ``h``?

    True iff every edge of ``g`` stays inside a cluster or maps onto an
    edge of the quotient. ``g`` must range over the same variables as the
    summary's base.
    """
    if g.node_set != h.base.node_set:
        raise ValidationError("graph and summary range over different variables")
    return _edge_without_image(h, g.edges) is None


def _edge_without_image(h, edges):
    """The smallest of ``edges`` that joins two clusters with no quotient
    edge between them, or None when every edge has an image in ``h``."""
    f, has_edge = h.mapping, h.quotient.has_edge
    # the distinct cluster pairs first; only a missing one needs the edge scan
    missing = {(f[u], f[v]) for u, v in edges} - h.quotient.edges
    if all(a == b for a, b in missing):
        return None
    return min((u, v) for u, v in edges if (a := f[u]) != (b := f[v]) and not has_edge(a, b))


def canonical(h):
    """The canonical causal DAG the summary stands for.

    Over the base variables, with an edge (u, v) present iff
      (i)  the clusters of u and v are joined by a quotient edge, or
      (ii) u and v share a cluster and u precedes v in base order.

    Always acyclic and compatible with ``h``; a supergraph of the base
    unless ``h`` is mutilated, since edge preservation and a topological
    base order put every base edge under (i) or (ii).

    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> h1 = contract(trivial_summary(g), "B", "C")
    >>> sorted(canonical(h1).edges)
    [('A', 'B'), ('A', 'C'), ('B', 'C'), ('B', 'D'), ('C', 'D'), ('D', 'E')]
    """
    return Dag(h.base_order, ((u, v) for u, heads in canonical_rows(h, str) for v in heads))


def canonical_rows(h, name):
    """The edges of ``canonical(h)`` as ``(tail, heads)`` rows, without an edge set.

    One row per base node, in sorted order. A tail's heads, sorted, are its
    cluster-mates later in base order and the members of its cluster's
    quotient children; the two sets are disjoint. The rows therefore list
    the edges in ``sorted(edges)`` order, each once. Every label appears as
    ``name(label)``, called once per node, so a writer gets its text
    directly; the sorting is by label, whatever the text.

    Each cluster sorts its children's members once. Walking its own members
    from last to first in base order, a member's heads are a copy of the
    sorted heads so far, and the member then joins them at its place.

    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> list(canonical_rows(contract(trivial_summary(g), "B", "C"), str.lower))
    [('a', ['b', 'c']), ('b', ['c', 'd']), ('c', ['d']), ('d', ['e']), ('e', [])]
    """
    labels = sorted(h.base_order)
    text = list(map(name, labels))
    rank = {v: i for i, v in enumerate(labels)}
    members = {c: [rank[v] for v in vs] for c, vs in h.ordered_clusters.items()}
    rows = [None] * len(labels)
    for c, ranks in members.items():
        keys = sorted([i for d in h.quotient.children(c) for i in members[d]])
        heads = [text[i] for i in keys]
        for i in reversed(ranks):
            rows[i] = heads.copy()
            at = bisect.bisect(keys, i)
            keys.insert(at, i)
            heads.insert(at, text[i])
    return zip(text, rows)


def canonical_edge_count(sizes, edges):
    """How many edges the canonical DAG of a partition has, without building it.

    ``sizes`` maps each cluster to its member count and ``edges`` lists the
    quotient edges. Every quotient edge grounds to |a|·|b| edges and every
    cluster to |c|(|c|-1)/2 order edges; the two sets are disjoint, and
    every base edge of an unmutilated summary already lies in one of them.
    """
    grounded = sum(sizes[a] * sizes[b] for a, b in edges)
    return grounded + sum(s * (s - 1) // 2 for s in sizes.values())


def additional_edges(h):
    """How many edges ``canonical(h)`` has beyond the base DAG.

    Negative when a mutilated summary's quotient drops base edges.
    """
    sizes = {label: len(vs) for label, vs in h.ordered_clusters.items()}
    return canonical_edge_count(sizes, h.quotient.edges) - h.base.num_edges


def recursive_basis(g, order):
    """The recursive basis of ``g`` along a topological order.

    For the i-th node emits (X_i ⊥ {X_1..X_{i-1}} \\ parents | parents);
    statements with nothing on the left of the bar are omitted.

    >>> g = Dag("ABC", [("A", "B"), ("B", "C")])
    >>> [s.y for s in recursive_basis(g, ("A", "B", "C"))]
    [frozenset({'A'})]
    """
    order = tuple(order)
    g._require_order(order, "order", "graph's")
    return _basis(g, order, BASE)


def summary_recursive_basis(h):
    """The recursive basis of the quotient, built over cluster labels.

    Statements can be grounded to base variables with ``ground_ci``.
    """
    return _basis(h.quotient, topological_order(h.quotient), CLUSTER)


def _basis(g, order, universe):
    """The recursive basis of ``g`` along ``order``, a topological order,
    with its statements in ``universe``."""
    statements = []
    seen = set()
    for v in order:
        z = g.parents(v)
        y = seen - z
        if y:
            statements.append(CiStatement({v}, y, z, universe))  # frozen by CiStatement
        seen.add(v)
    return RecursiveBasis(tuple(statements))


def ground_ci(h, statement):
    """Replace cluster labels by their member sets (f⁻¹), set-wise.

    Statements already over base variables pass through unchanged; either
    way the result goes as it is to ``d_separated(canonical(h), ...)``.
    """
    if statement.universe == BASE:
        return statement

    def expand(labels):
        return frozenset().union(*map(h.members, labels))

    return CiStatement(expand(statement.x), expand(statement.y), expand(statement.z))


def mutilate(g, bar_x, under_z):
    """Drop every edge into ``bar_x`` and every edge out of ``under_z``.

    >>> g = Dag("ABC", [("A", "B"), ("B", "C")])
    >>> sorted(mutilate(g, {"B"}, set()).edges)
    [('B', 'C')]
    """
    bar_x, under_z = frozenset(bar_x), frozenset(under_z)
    g.require(bar_x | under_z)
    edges = [(u, v) for u, v in sorted(g.edges) if v not in bar_x and u not in under_z]
    return Dag(g.nodes, edges)


def mutilate_summary(h, bar_x, under_z):
    """Mutilate a summary's quotient cluster-wise, as a summary value.

    The base is left intact and the result is flagged as mutilated, since
    its quotient no longer edge-preserves the base; ``canonical`` grounds it
    from that quotient, so severed base edges stay severed. Mutilating with
    two empty sets is the identity. The do-calculus checks do not build
    this value: they run on ``mutilate`` of the quotient alone.
    """
    bar_x, under_z = frozenset(bar_x), frozenset(under_z)
    if not bar_x and not under_z:
        return h
    quotient = mutilate(h.quotient, bar_x, under_z)
    return SummaryDag(h.base, quotient, h.mapping, h.base_order, mutilated=True)
