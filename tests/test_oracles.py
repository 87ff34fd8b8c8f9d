"""The exhaustive oracles against their plain definitions."""

from itertools import permutations

import networkx as nx
import pytest

from oracles import all_dags


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
