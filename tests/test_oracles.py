"""The exhaustive oracles against their plain definitions."""

from itertools import combinations, permutations

import networkx as nx
import pytest

from oracles import all_dags, satisfies_backdoor


def networkx_filter_dags(labels):
    """Every labeled DAG as every ordered-pair edge subset networkx finds acyclic."""
    slots = list(permutations(labels, 2))
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        graph = nx.DiGraph(edges)
        graph.add_nodes_from(labels)
        if nx.is_directed_acyclic_graph(graph):
            yield edges


@pytest.mark.parametrize("n, count", [(0, 1), (1, 1), (2, 3), (3, 25), (4, 543)])
def test_all_dags_is_every_labeled_dag(n, count):
    # the number of labeled DAGs on n nodes is OEIS A003024
    labels = list("ABCD"[:n])
    found = []
    for nodes, edges in all_dags(labels):
        assert nodes == labels
        found.append(frozenset(edges))
    assert len(found) == len(set(found)) == count
    assert set(found) == {frozenset(edges) for edges in networkx_filter_dags(labels)}


def networkx_backdoor(graph, t, o, z):
    """The backdoor criterion read off networkx: no member of ``z`` descends
    from ``t``, and ``z`` d-separates ``t`` from ``o`` without t's out-edges."""
    if set(z) & nx.descendants(graph, t):
        return False
    cut = graph.copy()
    cut.remove_edges_from(list(graph.out_edges(t)))
    return nx.is_d_separator(cut, {t}, {o}, set(z))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_satisfies_backdoor_matches_networkx(n):
    labels = list("ABCD"[:n])
    for nodes, edges in all_dags(labels):
        graph = nx.DiGraph(edges)
        graph.add_nodes_from(nodes)
        for t, o in permutations(labels, 2):
            rest = [v for v in labels if v not in (t, o)]
            for z in (set(c) for r in range(len(rest) + 1) for c in combinations(rest, r)):
                expected = networkx_backdoor(graph, t, o, z)
                assert satisfies_backdoor(nodes, edges, t, o, z) == expected, (edges, t, o, z)
