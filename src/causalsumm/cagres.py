"""Greedy causal-DAG summarization.

``summarize`` repeatedly merges the cheapest valid cluster pair until the
summary has at most k clusters. "Cheapest" is measured by ``get_cost``,
which prices a merge by exactly the number of edges the canonical causal
DAG would gain.

``summarize`` and the random baseline ``bench.random_summarize`` run on
one incremental engine instead of rebuilding a summary per merge. The
engine keeps the working partition as integer cluster ids with their
members, sizes, labels and a quotient adjacency matrix. Reachability is
kept as Python-int bitsets: a merge ORs the merged row into the rows of
its ancestors, in the style of incremental transitive closure (Italiano,
TCS 1986), so validity is a bit test. Merge prices are memoized per
pair; a merge marks only its neighbourhood for re-pricing, the pattern of
agglomerative clustering (Müllner, arXiv:1109.2378). Every iteration
still scans all valid pairs in label order (vectorized with numpy), so
the output, tie-break coins included, equals the plain rescan kept in the
tests as the reference. The summary is built once, at the end.
"""

import random
from dataclasses import dataclass

import numpy as np

from .graph_core import GraphError, UnknownNodeError, ValidationError, topological_order
from .summary import SummaryDag, cluster_labels


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
    similarity, when given, forbids merges below its threshold.
    """

    k: int
    seed: int = 0
    similarity: SimilarityMatrix = None

    def __post_init__(self):
        if self.k < 1:
            raise ValidationError(f"k must be >= 1, got {self.k}")


class _Engine:
    """The working partition of a greedy run, updated in place by each merge.

    Clusters are integer ids; a merge keeps the first id and retires the
    second. ``adj`` is the quotient's 0/1 adjacency matrix (``adj[x, y]``
    is an edge x -> y) and ``size`` the member counts. Bit y of a bitset
    row stands for cluster y: ``reach[x]`` holds x and every cluster x
    reaches, ``far[x]`` the clusters x reaches by a path of at least two
    edges, and ``clash[x]`` the clusters with a member below the
    similarity threshold to one of x's. ``memo`` holds merge prices; the
    rows of ``stale`` clusters are due for re-pricing. ``summary()``
    builds the result.
    """

    def __init__(self, base, base_order, quotient, clusters, similarity=None):
        self.base, self.base_order = base, tuple(base_order)
        self.position = {v: i for i, v in enumerate(self.base_order)}
        self.labels = list(quotient.nodes)
        self.ids = {label: i for i, label in enumerate(self.labels)}
        n = len(self.labels)
        self.members = [
            sorted(clusters[label], key=self.position.__getitem__) for label in self.labels
        ]
        self.size = np.array([len(vs) for vs in self.members], dtype=np.int64)
        children = [[self.ids[c] for c in quotient.children(label)] for label in self.labels]
        edges = [(x, w) for x, heads in enumerate(children) for w in heads]
        self.adj = np.zeros((n, n), dtype=np.int64)
        self.adj[[x for x, _ in edges], [w for _, w in edges]] = 1
        self.alive = list(range(n))
        self.reach = [0] * n
        for label in reversed(topological_order(quotient)):
            x = self.ids[label]
            row = 1 << x
            for w in children[x]:
                row |= self.reach[w]
            self.reach[x] = row
        self.far = [self._far_row(heads) for heads in children]
        self.clash = self._clashes(similarity)
        self.memo = np.zeros((n, n), dtype=np.int64)
        self.stale = set(self.alive)

    @classmethod
    def of(cls, h, similarity=None):
        """An engine over the clusters of summary ``h``."""
        return cls(h.base, h.base_order, h.quotient, h.clusters, similarity)

    @classmethod
    def of_graph(cls, g, similarity=None):
        """An engine over the identity summary of ``g``."""
        return cls(g, topological_order(g), g, {v: (v,) for v in g.nodes}, similarity)

    def _far_row(self, children):
        row = 0
        for w in children:
            row |= self.reach[w] & ~(1 << w)
        return row

    def _clashes(self, similarity):
        if similarity is None:
            return [0] * len(self.labels)
        index = similarity._index
        for v in self.base_order:
            if v not in index:
                raise UnknownNodeError(v)
        rows = [index[v] for v in self.base_order]
        below = similarity.values[np.ix_(rows, rows)] < similarity.threshold
        spots = [[self.position[v] for v in vs] for vs in self.members]
        # base positions below the threshold to some member, per cluster;
        # then clusters holding such a position
        near = np.array([below[p].any(axis=0) for p in spots])
        clash = np.array([near[:, p].any(axis=1) for p in spots])
        packed = np.packbits(clash, axis=1, bitorder="little")
        return [int.from_bytes(row.tobytes(), "little") for row in packed]

    def id_of(self, label):
        try:
            return self.ids[label]
        except KeyError:
            raise UnknownNodeError(label) from None

    def acyclic(self, a, b):
        """Is merging ``a`` and ``b`` free of a directed cycle?"""
        return not (self.far[a] >> b & 1 or self.far[b] >> a & 1)

    def valid(self, a, b):
        """Is merging ``a`` and ``b`` acyclic and within the similarity?"""
        return self.acyclic(a, b) and not self.clash[a] >> b & 1

    def prices(self):
        """The merge price of every pair of live clusters, as a matrix."""
        if self.stale:
            self._price(self.stale)
            self.stale.clear()
        return self.memo

    def _price(self, rows):
        """Price every pair involving a cluster in ``rows``.

        A merge adds |a|*|b| clique edges unless a quotient edge already
        grounds them, and each side gains the other's remaining parents
        and children, weighted by the partner's size. With ``weight`` the
        size of a cluster's neighbours and ``shared`` the size of the
        neighbours two clusters have in common (in the same role) that is
        |a||b|(1 - linked) + |b|(weight_a - shared - linked|b|)
        + |a|(weight_b - shared - linked|a|).
        """
        adj, size = self.adj, self.size
        weight = size @ adj + adj @ size
        rows = sorted(rows)
        for start in range(0, len(rows), 32):  # keeps the temporaries small
            chunk = rows[start : start + 32]
            into, out = adj[:, chunk].T, adj[chunk]
            parents, children = np.flatnonzero(into.any(axis=0)), np.flatnonzero(out.any(axis=0))
            shared = (into[:, parents] * size[parents]) @ adj[parents]
            shared += (out[:, children] * size[children]) @ adj[:, children].T
            linked = into + out
            s_row, s_col = size[chunk, None], size[None, :]
            prices = (
                s_row * s_col * (1 - linked)
                + s_col * (weight[chunk, None] - shared - linked * s_col)
                + s_row * (weight[None, :] - shared - linked * s_row)
            )
            self.memo[chunk] = prices
            self.memo[:, chunk] = prices.T

    def order(self):
        """Live cluster ids sorted by label: the scan order of every pass."""
        return sorted(self.alive, key=self.labels.__getitem__)

    def merge(self, a, b):
        """Contract clusters ``a`` and ``b`` (a valid pair) into cluster ``a``."""
        adj = self.adj
        # the merge changes the price of exactly the pairs touching a, b or
        # one of their neighbours
        self.stale.update(np.flatnonzero(adj[a] | adj[b] | adj[:, a] | adj[:, b]).tolist())
        self.stale.add(a)
        self.stale.discard(b)
        adj[a] |= adj[b]
        adj[:, a] |= adj[:, b]
        adj[b] = adj[:, b] = adj[a, a] = 0
        self.members[a] = sorted(self.members[a] + self.members[b], key=self.position.__getitem__)
        self.size[a] += self.size[b]
        clash = self.clash[a] | self.clash[b]
        self.clash[a] = clash
        while clash:
            low = clash & -clash
            y = low.bit_length() - 1
            self.clash[y] = self.clash[y] & ~(1 << b) | 1 << a
            clash ^= low
        self.alive.remove(b)

        either, not_b = 1 << a | 1 << b, ~(1 << b)
        row = (self.reach[a] | self.reach[b]) & not_b
        ancestors = [x for x in self.alive if self.reach[x] & either]
        for x in ancestors:
            self.reach[x] = (self.reach[x] | row) & not_b
        for x in ancestors:
            self.far[x] = self._far_row(np.flatnonzero(adj[x]).tolist())
        self._relabel()

    def _relabel(self):
        live = sorted(self.alive, key=lambda x: self.position[self.members[x][0]])
        for x, label in zip(live, cluster_labels(self.members[x] for x in live)):
            self.labels[x] = label

    def _bits(self, rows):
        """Bitset rows unpacked into a boolean matrix, one column per id."""
        n = len(self.labels)
        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), np.uint8)
        bits = np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n, bitorder="little")
        return bits.view(bool)

    def valid_pairs(self):
        """Every valid pair as two id arrays, in scan order: the label order
        ``combinations`` walks."""
        ids = np.array(self.order(), dtype=np.intp)
        far = self._bits([self.far[x] for x in ids])[:, ids]
        clash = self._bits([self.clash[x] for x in ids])[:, ids]
        keep = ~(far | far.T | clash)
        first, second = np.nonzero(np.triu(keep, 1))
        return ids[first], ids[second]

    def cheapest_pair(self, rng):
        """A minimum-price valid pair in scan order, ties broken by the coin.

        Reproduces the sequential scan: the first pair sets the running
        minimum, a cheaper pair replaces the candidate without a draw, and
        every pair equal to the running minimum draws once and replaces
        the candidate when the draw is below 0.5.
        """
        first, second = self.valid_pairs()
        if not len(first):
            return None
        costs = self.prices()[first, second]
        before = np.concatenate(([costs[0] + 1], np.minimum.accumulate(costs)[:-1]))
        last = best = int(np.flatnonzero(costs < before)[-1])
        for i in np.flatnonzero(costs == before).tolist():
            if rng.random() < 0.5 and i > last:
                best = i
        return int(first[best]), int(second[best])

    def stuck(self, k):
        return StuckError(f"no valid pair left at {len(self.alive)} clusters (target k={k})")

    def summary(self):
        """The summary of the current partition."""
        block_of = {v: x for x in self.alive for v in self.members[x]}
        tails, heads = np.nonzero(self.adj)
        return SummaryDag.from_partition(
            self.base, self.base_order, block_of, zip(tails.tolist(), heads.tolist())
        )


def _pair_ids(engine, a, b):
    i, j = engine.id_of(a), engine.id_of(b)
    if i == j:
        raise ValidationError(f"({a}, {b}) is not a valid pair to merge")
    return i, j


def get_cost(h, a, b):
    """The number of canonical-DAG edges that merging ``a`` and ``b`` adds.

    Counted directly from the quotient neighborhoods: members of the two
    clusters become pairwise adjacent (unless a quotient edge already
    grounds those pairs), and each cluster inherits the other's remaining
    parents and children. Sizes are grounded variable counts, so this
    equals additional_edges(contract(h,a,b)) - additional_edges(h) exactly.

    >>> from causalsumm import Dag, trivial_summary
    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> h = trivial_summary(g)
    >>> get_cost(h, "B", "C"), get_cost(h, "D", "E"), get_cost(h, "A", "B")
    (1, 2, 2)
    """
    engine = _Engine.of(h)
    i, j = _pair_ids(engine, a, b)
    if not engine.acyclic(i, j):
        raise ValidationError(f"({a}, {b}) is not a valid pair to merge")
    engine._price([i])
    return int(engine.memo[i, j])


def is_valid_pair(h, a, b, cfg=None):
    """May clusters ``a`` and ``b`` be merged?

    False when a directed path of length >= 2 joins them (the contraction
    would create a cycle) or when a configured similarity constraint is
    violated by any cross-cluster member pair.
    """
    engine = _Engine.of(h, cfg.similarity if cfg is not None else None)
    return engine.valid(*_pair_ids(engine, a, b))


def summarize(g, cfg):
    """Summarize ``g`` down to at most ``cfg.k`` clusters, greedily.

    Starts from the identity summary; each iteration scans all valid
    cluster pairs in label order, prices each with ``get_cost``, and
    merges a minimum-cost pair, so every merge is a cheapest valid merge
    of the summary it is made in. Raises StuckError if the similarity
    constraint exhausts valid pairs before the budget is met, and
    UnknownNodeError if the similarity matrix misses a node of ``g``.

    Ties are broken by a seeded coin, so runs are reproducible. The coin
    is sequential, not uniform: one ``random()`` draw is made at every
    scanned pair whose cost equals the running minimum, and the pair
    replaces the current candidate when the draw is below 0.5. Among m
    final ties the first therefore survives with probability 2^-(m-1).
    This coin is kept for fidelity to the reference implementation, and
    the incremental engine reproduces its draws exactly.

    >>> from causalsumm import Dag
    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> h = summarize(g, CagresConfig(k=4, seed=7))
    >>> sorted(h.quotient.nodes)
    ['A', 'BC', 'D', 'E']
    """
    if not 1 <= cfg.k <= g.num_nodes:
        raise ValidationError(
            f"infeasible k={cfg.k} for a graph with {g.num_nodes} nodes"
        )
    rng = random.Random(cfg.seed)
    engine = _Engine.of_graph(g, cfg.similarity)
    while len(engine.alive) > cfg.k:
        pair = engine.cheapest_pair(rng)
        if pair is None:
            raise engine.stuck(cfg.k)
        engine.merge(*pair)
    return engine.summary()
