"""Greedy causal-DAG summarization.

``summarize`` repeatedly merges the cheapest valid cluster pair until the
summary has at most k clusters. "Cheapest" is measured by ``get_cost``,
which prices a merge by exactly the number of edges the canonical causal
DAG would gain. Two optional accelerations preserve the output: a
low-cost-merge preprocessing pass and caching of pair validity / pair
cost between iterations.
"""

import random
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .graph_core import (
    Dag,
    GraphError,
    UnknownNodeError,
    ValidationError,
    has_directed_path_len_ge2,
)
from .summary import contract, trivial_summary


class StuckError(GraphError):
    """No valid pair is left to merge but the cluster budget is not met."""


class SimilarityMatrix:
    """Pairwise semantic similarity over base nodes, with a merge threshold.

    A cluster pair may only merge when every cross-cluster member pair has
    similarity at least ``threshold``.
    """

    __slots__ = ("labels", "values", "threshold", "_index")

    def __init__(self, labels, values, threshold):
        self.labels = tuple(labels)
        self.values = np.asarray(values, dtype=float)
        self.threshold = float(threshold)
        n = len(self.labels)
        if len(set(self.labels)) != n:
            raise ValidationError("similarity labels must be unique")
        if self.values.shape != (n, n):
            raise ValidationError(
                f"similarity matrix must be {n}x{n}, got {self.values.shape}"
            )
        if np.isnan(self.values).any():
            raise ValidationError("similarity matrix contains NaN")
        if not np.allclose(self.values, self.values.T):
            raise ValidationError("similarity matrix must be symmetric")
        if not np.allclose(np.diag(self.values), 1.0):
            raise ValidationError("similarity diagonal must be 1")
        if self.values.min() < 0.0 or self.values.max() > 1.0:
            raise ValidationError("similarity values must lie in [0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError("similarity threshold must lie in [0, 1]")
        self._index = {label: i for i, label in enumerate(self.labels)}

    def sim(self, u, v):
        try:
            return float(self.values[self._index[u], self._index[v]])
        except KeyError as exc:
            raise UnknownNodeError(exc.args[0]) from None


@dataclass(frozen=True)
class CagresConfig:
    """Knobs for ``summarize``.

    k is the target cluster count; seed drives the tie-break coin;
    use_cache / use_preprocessing toggle the two accelerations (for
    ablations — results are unchanged); similarity, when given, forbids
    merges below its threshold.
    """

    k: int
    seed: int = 0
    use_cache: bool = True
    use_preprocessing: bool = True
    similarity: SimilarityMatrix = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")


@dataclass
class CostCaches:
    """Merge-candidate caches carried across summarize iterations.

    invalid_pairs: unordered label pairs known to be unmergeable (staying
    invalid is monotone, so these are never evicted). cost: unordered
    label pair -> last computed merge cost; entries are evicted when a
    nearby merge may have changed them (see ``invalidate_neighbors``).
    """

    invalid_pairs: set = field(default_factory=set)
    cost: dict = field(default_factory=dict)


def _pair_key(a, b):
    return (a, b) if a <= b else (b, a)


def get_cost(h, a, b):
    """The number of canonical-DAG edges that merging ``a`` and ``b`` adds.

    Counted directly from the quotient neighborhoods: members of the two
    clusters become pairwise adjacent (unless a quotient edge already
    grounds those pairs), and each cluster inherits the other's remaining
    parents and children. Sizes are grounded variable counts, so this
    equals additional_edges(contract(h,a,b)) - additional_edges(h) exactly.

    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> h = trivial_summary(g)
    >>> get_cost(h, "B", "C"), get_cost(h, "D", "E"), get_cost(h, "A", "B")
    (1, 2, 2)
    """
    q = h.quotient
    for label in (a, b):
        if label not in q.node_set:
            raise UnknownNodeError(label)
    if a == b or has_directed_path_len_ge2(q, a, b):
        raise ValidationError(f"({a}, {b}) is not a valid pair to merge")

    size_a, size_b = h.cluster_size(a), h.cluster_size(b)

    def grounded(labels):
        return sum(h.cluster_size(c) for c in labels)

    cost = 0
    # members of a and b become one clique; existing direct edges already
    # ground all |a|*|b| cross pairs
    if not (q.has_edge(a, b) or q.has_edge(b, a)):
        cost += size_a * size_b
    partners = {a, b}
    # parents one side gains from the other (the partner itself is not a
    # "new parent": its members are priced by the clique term above)
    cost += grounded(q.parents(a) - q.parents(b) - partners) * size_b
    cost += grounded(q.parents(b) - q.parents(a) - partners) * size_a
    cost += grounded(q.children(a) - q.children(b) - partners) * size_b
    cost += grounded(q.children(b) - q.children(a) - partners) * size_a
    return cost


def is_valid_pair(h, a, b, cfg=None, caches=None):
    """May clusters ``a`` and ``b`` be merged?

    False when a directed path of length >= 2 joins them (the contraction
    would create a cycle) or when a configured similarity constraint is
    violated by any cross-cluster member pair. Negative answers are
    remembered in ``caches`` — once invalid, a pair never becomes valid
    again, because contraction only ever adds quotient paths and never
    changes surviving clusters' members.
    """
    key = _pair_key(a, b)
    if caches is not None and key in caches.invalid_pairs:
        return False
    valid = not has_directed_path_len_ge2(h.quotient, a, b)
    if valid and cfg is not None and cfg.similarity is not None:
        sim = cfg.similarity
        valid = all(
            sim.sim(u, v) >= sim.threshold
            for u in h.members(a)
            for v in h.members(b)
        )
    if not valid and caches is not None:
        caches.invalid_pairs.add(key)
    return valid


def invalidate_neighbors(caches, h, merged):
    """Evict cost entries a merge may have changed.

    ``h`` is the summary just before merging the pair ``merged``. Any
    cached cost involving one of the merged clusters or one of their
    quotient neighbors may now differ, so those entries go; pairs fully
    outside the neighborhood keep their values.
    """
    a, b = merged
    q = h.quotient
    touched = {a, b}
    for label in (a, b):
        touched |= q.parents(label) | q.children(label)
    caches.cost = {
        pair: value
        for pair, value in caches.cost.items()
        if not (pair[0] in touched or pair[1] in touched)
    }
    return caches


def _rule_identical_neighborhoods(q, a, b):
    return q.parents(a) == q.parents(b) and q.children(a) == q.children(b)


def _rule_chain_link(q, a, b):
    if not (q.has_edge(a, b) or q.has_edge(b, a)):
        return False
    return all(
        len(q.parents(x)) <= 1 and len(q.children(x)) <= 1 for x in (a, b)
    )


def low_cost_merges(h, cfg, caches=None):
    """Greedy preprocessing: apply obviously-cheap merges to a fixpoint.

    Two patterns are merged eagerly: cluster pairs with identical parent
    and child sets (cost is exactly the clique term), and adjacent links
    of a non-branching chain (each side having at most one parent and one
    child). Merges still honor is_valid_pair and never push the cluster
    count below cfg.k.
    """
    changed = True
    while changed and h.quotient.num_nodes > cfg.k:
        changed = False
        q = h.quotient
        for a, b in combinations(sorted(q.nodes), 2):
            if not (
                _rule_identical_neighborhoods(q, a, b) or _rule_chain_link(q, a, b)
            ):
                continue
            if not is_valid_pair(h, a, b, cfg, caches):
                continue
            h = contract(h, a, b)
            changed = True
            break
    return h


def summarize(g, cfg):
    """Summarize ``g`` down to at most ``cfg.k`` clusters, greedily.

    Starts from the identity summary; each iteration scans all valid
    cluster pairs in label order, prices each with ``get_cost``, and
    merges a minimum-cost pair (ties are broken by a seeded coin, so runs
    are reproducible). Raises StuckError if the similarity constraint
    exhausts valid pairs before the budget is met.

    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> h = summarize(g, CagresConfig(k=4, seed=7, use_preprocessing=False))
    >>> sorted(h.quotient.nodes)
    ['A', 'BC', 'D', 'E']
    """
    if not 1 <= cfg.k <= g.num_nodes:
        raise ValidationError(
            f"infeasible k={cfg.k} for a graph with {g.num_nodes} nodes"
        )
    rng = random.Random(cfg.seed)
    caches = CostCaches() if cfg.use_cache else None

    h = trivial_summary(g)
    if cfg.use_preprocessing:
        h = low_cost_merges(h, cfg, caches)

    while h.quotient.num_nodes > cfg.k:
        best_pair = None
        best_cost = None
        for a, b in combinations(sorted(h.quotient.nodes), 2):
            if not is_valid_pair(h, a, b, cfg, caches):
                continue
            key = _pair_key(a, b)
            if caches is not None and key in caches.cost:
                cost = caches.cost[key]
            else:
                cost = get_cost(h, a, b)
                if caches is not None:
                    caches.cost[key] = cost
            if best_cost is None or cost < best_cost:
                best_pair, best_cost = (a, b), cost
            elif cost == best_cost and rng.random() < 0.5:
                # equal cost: randomly decide whether to switch candidates
                best_pair = (a, b)
        if best_pair is None:
            raise StuckError(
                f"no valid pair left at {h.quotient.num_nodes} clusters "
                f"(target k={cfg.k})"
            )
        if caches is not None:
            invalidate_neighbors(caches, h, best_pair)
        h = contract(h, *best_pair)
    return h
