"""Independent reference implementations the tests check the library against.

Everything here is deliberately written differently from the package:
networkx for graph algorithms, naive enumeration instead of the
library's pruned/incremental algorithms. When a library value and an
oracle value agree, the agreement is meaningful.
"""

from itertools import combinations

import networkx as nx


def to_nx(g):
    graph = nx.DiGraph()
    graph.add_nodes_from(g.nodes)
    graph.add_edges_from(g.edges)
    return graph


def nx_d_separated(g, x, y, z):
    return nx.is_d_separator(to_nx(g), set(x), set(y), set(z))


def naive_contraction_is_cyclic(g, a, b):
    """Merge a and b in a networkx graph and look for a directed cycle.

    A direct a-b edge is absorbed into the merged node (no self-loop):
    only a genuine cycle through a third node counts.
    """
    graph = to_nx(g)
    merged = nx.contracted_nodes(graph, a, b, self_loops=False)
    return not nx.is_directed_acyclic_graph(merged)


def all_set_partitions(items):
    """Every partition of ``items``, by recursive insertion (not RGS)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_set_partitions(rest):
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1 :]
        yield [[first]] + partition


def all_dags(labels):
    """Every labeled DAG over ``labels``, by filtering all edge subsets."""
    labels = list(labels)
    slots = [(u, v) for u, v in combinations(labels, 2)] + [
        (v, u) for u, v in combinations(labels, 2)
    ]
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        graph = nx.DiGraph()
        graph.add_nodes_from(labels)
        graph.add_edges_from(edges)
        if nx.is_directed_acyclic_graph(graph):
            yield labels, edges


def canonical_delta(h, a, b):
    """The merge cost defined the slow way: contract, then count new edges."""
    from causalsumm import canonical, contract

    return canonical(contract(h, a, b)).num_edges - canonical(h).num_edges


def canonical_s_separated(h, query):
    """s-separation by its definition: ground the labels, then d-separate
    in the materialised canonical causal DAG."""
    from causalsumm import SeparationQuery, canonical, d_separated

    def ground(labels):
        return frozenset().union(*(h.members(c) for c in labels))

    grounded = SeparationQuery(ground(query.x), ground(query.y), ground(query.z))
    return d_separated(canonical(h), grounded)


def reordered_canonical(h, t):
    """Canonical DAG under a base order that puts ``t`` first in its cluster.

    Built from the quotient groundings and within-cluster order edges only;
    base edges are not copied, since a base edge into ``t`` from a
    cluster-mate would contradict the reordering.
    """
    from causalsumm import Dag

    mates = h.members(h.cluster_of(t)) - {t}
    if mates:
        rest = [v for v in h.base_order if v != t]
        at = min(rest.index(v) for v in mates)
        order = tuple(rest[:at]) + (t,) + tuple(rest[at:])
    else:
        order = h.base_order
    position = {v: i for i, v in enumerate(order)}

    edges = set()
    for cu, cv in h.quotient.edges:
        for u in h.members(cu):
            for v in h.members(cv):
                edges.add((u, v))
    for members in h.clusters.values():
        ordered = sorted(members, key=position.get)
        for i, u in enumerate(ordered):
            for v in ordered[i + 1 :]:
                edges.add((u, v))
    return Dag(order, sorted(edges))


def partition_summary(g, order, blocks):
    """The summary whose clusters are ``blocks``, with the quotient edges the
    base edges induce. Raises ``CycleError`` for a cyclic partition."""
    from causalsumm import SummaryDag

    block_of = {v: i for i, block in enumerate(blocks) for v in block}
    edges = {
        (block_of[u], block_of[v]) for u, v in g.edges if block_of[u] != block_of[v]
    }
    return SummaryDag.from_partition(g, order, block_of, edges)
