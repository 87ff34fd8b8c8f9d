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


def reference_valid(h, a, b, similarity=None):
    """Pair validity the definitional way: the path check on the quotient
    ``Dag``, then every cross-member similarity."""
    from causalsumm import has_directed_path_len_ge2

    if has_directed_path_len_ge2(h.quotient, a, b):
        return False
    if similarity is None:
        return True
    return all(
        similarity.sim(u, v) >= similarity.threshold
        for u in h.members(a)
        for v in h.members(b)
    )


def reference_cost(h, a, b):
    """The merge cost read off the summary's quotient neighborhoods."""
    q = h.quotient
    size_a, size_b = h.cluster_size(a), h.cluster_size(b)

    def grounded(labels):
        return sum(h.cluster_size(c) for c in labels)

    cost = 0 if q.has_edge(a, b) or q.has_edge(b, a) else size_a * size_b
    partners = {a, b}
    cost += grounded(q.parents(a) - q.parents(b) - partners) * size_b
    cost += grounded(q.parents(b) - q.parents(a) - partners) * size_a
    cost += grounded(q.children(a) - q.children(b) - partners) * size_b
    cost += grounded(q.children(b) - q.children(a) - partners) * size_a
    return cost


def reference_summarize(g, cfg):
    """Greedy summarization as a full rescan: every iteration re-checks and
    re-prices every pair of a freshly contracted summary, with the same
    seeded sequential tie-break coin as ``summarize``."""
    import random

    from causalsumm import StuckError, ValidationError, contract, trivial_summary

    if not 1 <= cfg.k <= g.num_nodes:
        raise ValidationError(f"infeasible k={cfg.k} for a graph with {g.num_nodes} nodes")
    rng = random.Random(cfg.seed)
    h = trivial_summary(g)
    while h.quotient.num_nodes > cfg.k:
        best_pair, best_cost = None, None
        for a, b in combinations(sorted(h.quotient.nodes), 2):
            if not reference_valid(h, a, b, cfg.similarity):
                continue
            cost = reference_cost(h, a, b)
            if best_cost is None or cost < best_cost:
                best_pair, best_cost = (a, b), cost
            elif cost == best_cost and rng.random() < 0.5:
                best_pair = (a, b)
        if best_pair is None:
            raise StuckError(
                f"no valid pair left at {h.quotient.num_nodes} clusters (target k={cfg.k})"
            )
        h = contract(h, *best_pair)
    return h


def reference_random_summarize(g, k, seed=0):
    """The random baseline as a rescan that contracts after every merge."""
    import numpy as np

    from causalsumm import StuckError, ValidationError, contract, trivial_summary

    if not 1 <= k <= g.num_nodes:
        raise ValidationError(f"infeasible k={k} for {g.num_nodes} nodes")
    rng = np.random.default_rng(seed)
    h = trivial_summary(g)
    while h.quotient.num_nodes > k:
        pairs = [
            (a, b)
            for a, b in combinations(sorted(h.quotient.nodes), 2)
            if reference_valid(h, a, b)
        ]
        if not pairs:
            raise StuckError(
                f"no valid pair left at {h.quotient.num_nodes} clusters (target k={k})"
            )
        h = contract(h, *pairs[int(rng.integers(len(pairs)))])
    return h
