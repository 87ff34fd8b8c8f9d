"""Greedy causal-DAG summarization.

``summarize`` repeatedly merges the cheapest valid cluster pair until the
summary has at most k clusters. "Cheapest" is measured by ``get_cost``,
which prices a merge by exactly the number of edges the canonical causal
DAG would gain.

``summarize`` and the random baseline ``bench.random_summarize`` run on
one incremental engine instead of rebuilding a summary per merge. The
engine keeps the working partition as integer cluster ids with their
members, sizes, labels and quotient adjacency, and a merge updates each
of them in place:

- Reachability is kept as Python-int bitsets: a merge ORs the merged
  row into the rows of its ancestors, in the style of incremental
  transitive closure (Italiano, TCS 1986). Validity is refreshed from
  those bitsets only for the ancestors.
- Merge prices are memoized per pair; a merge marks only its
  neighbourhood for re-pricing, the pattern of agglomerative clustering
  (Müllner, arXiv:1109.2378).
- The live ids are one list sorted by label; a merge drops one, moves one.

Every iteration still scans all valid pairs in label order, so the
output, tie-break coins included, equals the plain rescan kept in the
tests as the reference. The summary is built once, at the end. Graphs of
at most ``SMALL_GRAPH`` nodes price and scan pairs in Python loops over
the bitsets; larger ones in numpy, with one float64 matrix product per
block of re-priced rows and one vectorized pass over the label-ordered
grid per scan.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .graph_core import (
    GraphError,
    SizeLimitError,
    UnknownNodeError,
    ValidationError,
    topological_order,
)
from .summary import SummaryDag, cluster_labels

#: the most nodes the greedy engine takes. Its peak RSS grew by 41-45
#: bytes per n² (``summarize`` at n = 500-1500, density 2/n, k = n/5), so
#: this limit sits near 1 GiB; the time grows about as n^3.3.
ENGINE_NODE_LIMIT = 5000

#: the most nodes the greedy engine prices and scans in its loop form; a
#: larger graph runs the array form. Per ``summarize`` call (k = n/2, 30
#: graphs per size, densities 0.35 and 4/n) the loop form ran 2.3x as fast
#: at n = 8, 1.4-1.5x at n = 16, 1.0-1.14x at n = 22 and 0.89-0.94x at n = 24.
SMALL_GRAPH = 22


class StuckError(GraphError):
    """No valid pair is left to merge but the cluster budget is not met."""


class SimilarityMatrix:
    """Pairwise semantic similarity over base nodes, with a merge threshold.

    A cluster pair may only merge when every cross-cluster member pair has
    similarity at least ``threshold``. A matrix symmetric only to within
    ``np.allclose`` is stored as the elementwise minimum of it and its
    transpose, so both orders of a pair read the smaller entry.
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
        self.values = np.minimum(self.values, self.values.T)
        if not np.allclose(np.diag(self.values), 1.0):
            raise ValidationError("similarity diagonal must be 1")
        if ((self.values < 0.0) | (self.values > 1.0)).any():  # min() refuses zero labels
            raise ValidationError("similarity values must lie in [0, 1]")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValidationError("similarity threshold must lie in [0, 1]")
        self._index = {label: i for i, label in enumerate(self.labels)}

    def sim(self, u, v):
        try:
            return float(self.values[self._index[u], self._index[v]])
        except KeyError as exc:
            raise UnknownNodeError(exc.args[0]) from None


def _check_seed(seed):
    # numpy refuses a negative seed with a bare ValueError; random.Random takes |seed|
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")


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
        _check_seed(self.seed)


class _Engine:
    """The working partition of a greedy run over a graph, updated in place
    by each merge.

    Clusters are integer ids, starting as each node's ``base_order``
    position; a merge keeps the first id and retires the second. Bit y of
    a bitset stands for cluster y: ``kids[x]`` holds x's children and
    ``reach[x]`` holds x and every cluster x reaches, filled first by one
    pass over the ids in reverse (children before parents). ``size``
    holds the member counts and ``weight`` the total neighbour size the
    last pricing set. ``memo`` holds merge prices; the rows of ``stale``
    clusters are due for re-pricing. ``order``, the live ids sorted by
    label, is the one record of which clusters are live, so no scan reads
    a retired id again. ``summary()`` builds the result from the members
    and ``kids``.

    How pairs are priced and scanned depends on the graph's size alone. A
    graph of at most ``SMALL_GRAPH`` nodes runs the loop form, which
    allocates no numpy array: ``parents`` bitsets sit beside ``kids``,
    ``far[x]`` is the bitset of clusters x reaches by a path of at least
    two edges and ``clash[x]`` that of clusters with a member pair below
    the similarity threshold (None without a similarity), ``size``,
    ``weight`` and the ``memo`` rows are lists, and each valid pair in a
    stale row is priced by ``_merge_price`` on Python ints. A larger
    graph runs the array form, whose numpy calls cost less than those
    loops there:
    ``links[x]`` is x's 0/1 row of parents followed by its row of
    children, ``far`` and ``clash`` are boolean matrices, and ``size``,
    ``weight``, ``links`` and ``memo`` are float64, so pricing runs as a
    BLAS product, exact because every price is a small integer. Both
    forms price with the same formula and scan the same valid pairs in
    the same label order with the same coin, so their outputs are
    identical.

    A graph of more than ``ENGINE_NODE_LIMIT`` nodes raises SizeLimitError
    before anything is ordered or allocated.
    """

    def __init__(self, g, similarity=None):
        if g.num_nodes > ENGINE_NODE_LIMIT:
            need = 42 * g.num_nodes**2 / 2**30  # bytes per n², from the fit above
            raise SizeLimitError(
                f"the greedy engine's dense matrices would need about {need:.1f} GiB; "
                f"refusing {g.num_nodes} nodes (limit {ENGINE_NODE_LIMIT})"
            )
        self.base, self.base_order = g, topological_order(g)
        self.position = {v: i for i, v in enumerate(self.base_order)}
        self.labels = list(self.base_order)
        n = len(self.labels)
        self.members = [[v] for v in self.labels]
        children = [[self.position[c] for c in g.children(v)] for v in self.labels]
        self.kids = [sum(1 << w for w in ws) for ws in children]
        self.reach = [0] * n
        for x in reversed(range(n)):  # children first
            row = 1 << x
            for w in children[x]:
                row |= self.reach[w]
            self.reach[x] = row
        far = [self._far_row(x) for x in range(n)]
        self.clash = None
        if similarity is not None:
            index = _similarity_index(similarity, self.base_order)
            rows = [index[v] for v in self.labels]
        self.stale = set(range(n))
        self.plain = True  # every label is its one member
        self.order = sorted(range(n), key=self.labels.__getitem__)
        self.dense = n > SMALL_GRAPH
        if not self.dense:
            self.size, self.weight, self.far = [1] * n, [0] * n, far
            self.parents = [0] * n
            for x, heads in enumerate(children):
                for w in heads:
                    self.parents[w] |= 1 << x
            if similarity is not None:
                values, threshold = similarity.values, similarity.threshold
                self.clash = [
                    sum(1 << y for y, j in enumerate(rows) if values.item(i, j) < threshold)
                    for i in rows
                ]
            self.memo = [[0] * n for _ in range(n)]
            return
        self.size = np.ones(n)
        tails = [x for x, heads in enumerate(children) for _ in heads]
        heads = [w for ws in children for w in ws]
        self.links = np.zeros((n, 2 * n))
        self.links[heads, tails] = self.links[tails, [n + w for w in heads]] = 1
        self.weight = np.empty(n)  # unread until _price sets the rows it prices
        self.far = self._bits(far)
        if similarity is not None:
            self.clash = similarity.values[np.ix_(rows, rows)] < similarity.threshold
        self.memo = np.zeros((n, n))
        self.lower = np.tri(n, dtype=bool)

    def _far_row(self, x):
        """The clusters ``x`` reaches by a path of at least two edges, as a bitset."""
        row, kids = 0, self.kids[x]
        while kids:
            low = kids & -kids
            row |= self.reach[low.bit_length() - 1] & ~low
            kids ^= low
        return row

    def prices(self):
        """The merge price of every pair of live clusters, as a matrix
        (array form) or a list of rows (loop form)."""
        if self.stale:
            (self._price if self.dense else self._price_loop)(self.stale)
            self.stale.clear()
        return self.memo

    def _price_loop(self, rows):
        """Price every valid pair involving a cluster in ``rows`` by
        ``_merge_price``, after refreshing those rows' ``weight`` (loop
        form). An invalid pair keeps its old price: it stays invalid until
        one of its clusters merges, and that re-prices the merged row."""
        size, weight, memo, far, clash = self.size, self.weight, self.memo, self.far, self.clash
        kids, parents = self.kids, self.parents
        for x in rows:
            weight[x] = _mass(kids[x] | parents[x], size)
        done = 0
        for x in rows:
            done |= 1 << x
            skip = done | far[x] if clash is None else done | far[x] | clash[x]
            for y in self.order:
                if not (skip >> y | far[y] >> x) & 1:
                    common = kids[x] & kids[y] | parents[x] & parents[y]
                    memo[x][y] = memo[y][x] = _merge_price(
                        size[x],
                        size[y],
                        weight[x],
                        weight[y],
                        _mass(common, size) if common else 0,
                        (kids[x] >> y | kids[y] >> x) & 1,
                    )

    def _price(self, rows):
        """Price every pair involving a cluster in ``rows`` by ``_merge_price``,
        after refreshing those rows' ``weight`` (array form). Every term is
        an integer far below 2^53, so float64 arithmetic is exact."""
        links, size, weight = self.links, self.size, self.weight
        n = len(size)
        sizes = np.concatenate((size, size))  # the size of each column of links
        rows = np.fromiter(rows, dtype=np.intp, count=len(rows))
        weight[rows] = links[rows] @ sizes
        for start in range(0, len(rows), 32):  # keeps the temporaries small
            chunk = rows[start : start + 32]
            near = links[chunk]
            roles = near.any(axis=0).nonzero()[0]
            shared = (near[:, roles] * sizes[roles]) @ links[:, roles].T
            linked = near[:, :n] + near[:, n:]
            prices = _merge_price(
                size[chunk][:, None], size, weight[chunk][:, None], weight, shared, linked
            )
            self.memo[chunk] = prices
            self.memo[:, chunk] = prices.T

    def merge(self, a, b):
        """Contract clusters ``a`` and ``b`` (a valid pair) into cluster ``a``."""
        either, not_b = 1 << a | 1 << b, ~(1 << b)
        # the merge changes the price of exactly the pairs touching a, b or
        # one of their neighbours
        near = self._merge_links(a, b) if self.dense else self._merge_parents(a, b)
        self.stale.update(near)
        self.stale.add(a)
        self.stale.discard(b)
        self.members[a] = sorted(self.members[a] + self.members[b], key=self.position.__getitem__)
        self.size[a] += self.size[b]
        del self.order[bisect_left(self.order, self.labels[b], key=self.labels.__getitem__)]

        for x in near:
            if self.kids[x] >> b & 1:
                self.kids[x] = self.kids[x] & not_b | 1 << a
        self.kids[a] = (self.kids[a] | self.kids[b]) & ~either
        row = (self.reach[a] | self.reach[b]) & not_b
        ancestors = [x for x in self.order if self.reach[x] & either]
        for x in ancestors:
            self.reach[x] = (self.reach[x] | row) & not_b
        rows = [self._far_row(x) for x in ancestors]
        if self.dense:
            self.far[ancestors] = self._bits(rows)
        else:
            for x, row in zip(ancestors, rows):
                self.far[x] = row
        self._relabel(a)

    def _merge_links(self, a, b):
        """Fold b's ``links`` and ``clash`` rows and columns into a's (array
        form); returns the merged cluster's neighbours."""
        links = self.links
        n = len(links)
        np.maximum(links[a], links[b], out=links[a])
        near = (links[a, :n] + links[a, n:]).nonzero()[0].tolist()
        sides = links.reshape(n, 2, n)
        np.maximum(sides[:, :, a], sides[:, :, b], out=sides[:, :, a])
        links[b] = sides[:, :, b] = sides[a, :, a] = 0
        if self.clash is not None:
            self.clash[a] |= self.clash[b]
            self.clash[:, a] = self.clash[a]
        return near

    def _merge_parents(self, a, b):
        """Fold b's ``parents`` and ``clash`` bits into a's (loop form);
        returns the merged cluster's neighbours."""
        either, not_b = 1 << a | 1 << b, ~(1 << b)
        parents = self.parents
        near = list(_ones((parents[a] | parents[b] | self.kids[a] | self.kids[b]) & ~either))
        for x in near:
            if parents[x] >> b & 1:
                parents[x] = parents[x] & not_b | 1 << a
        parents[a] = (parents[a] | parents[b]) & ~either
        if self.clash is not None:
            self.clash[a] |= self.clash[b]
            for y in _ones(self.clash[a]):
                self.clash[y] |= 1 << a
        return near

    def _relabel(self, a):
        """Label the live clusters as ``cluster_labels`` would, after a
        merge into ``a``, and keep ``order`` sorted by label.

        While every label is its members' concatenation (no ``#n`` suffix
        is in use) and the merged concatenation is not another live label,
        all concatenations stay distinct, so only ``a``'s label changes
        and only ``a`` moves in ``order``: one bisection for the new label
        both finds a collision and gives the insert point. Otherwise every
        label is recomputed: a collision can add a suffix here, or lift
        one elsewhere. Testing the labels themselves rather than looking
        for ``#`` keeps node labels that contain ``#`` on the short path.
        """
        order, key = self.order, self.labels.__getitem__
        del order[bisect_left(order, key(a), key=key)]
        label = "".join(self.members[a])
        i = bisect_left(order, label, key=key)
        if self.plain and (i == len(order) or key(order[i]) != label):
            self.labels[a] = label
            order.insert(i, a)
            return
        live = sorted(order + [a], key=lambda x: self.position[self.members[x][0]])
        for x, label in zip(live, cluster_labels(self.members[x] for x in live)):
            self.labels[x] = label
        self.plain = all(self.labels[x] == "".join(self.members[x]) for x in live)
        self.order = sorted(live, key=key)

    def _bits(self, rows):
        """Bitsets unpacked into a boolean matrix, one column per id (array form)."""
        n = len(self.labels)
        width = (n + 7) // 8
        packed = np.frombuffer(b"".join(row.to_bytes(width, "little") for row in rows), np.uint8)
        bits = np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n, bitorder="little")
        return bits.view(bool)

    def _grid(self):
        """The live ids in label order, and which cells of the id-by-id grid
        in that order are *not* a valid pair: the lower triangle and the
        pairs that would close a cycle or break the similarity (array form)."""
        ids = np.array(self.order)
        far = self.far.take(ids, 0).take(ids, 1)
        bad = far | far.T
        bad |= self.lower[: len(ids), : len(ids)]
        if self.clash is not None:
            bad |= self.clash.take(ids, 0).take(ids, 1)
        return ids, bad

    def _loop_pairs(self):
        """Every valid pair, in scan order, read off the bitsets (loop form)."""
        far, clash, order = self.far, self.clash, self.order
        for i, x in enumerate(order):
            bad = far[x] if clash is None else far[x] | clash[x]
            for y in order[i + 1 :]:
                if not (bad >> y | far[y] >> x) & 1:
                    yield x, y

    def valid_pairs(self):
        """Every valid pair as two id sequences, in scan order: the label
        order ``combinations`` walks."""
        if not self.dense:
            pairs = list(self._loop_pairs())
            return [x for x, _ in pairs], [y for _, y in pairs]
        ids, bad = self._grid()
        first, second = (~bad).nonzero()
        return ids[first], ids[second]

    def cheapest_pair(self, rng):
        """A minimum-price valid pair in scan order, ties broken by the coin.

        The loop form walks the pairs: the first pair sets the running
        minimum, a cheaper pair replaces the candidate without a draw, and
        every pair equal to the running minimum draws once and replaces
        the candidate when the draw is below 0.5. The array form
        reproduces that walk: the last record is the first pair at the
        overall minimum, so only the pairs before it need a running
        minimum, to count their draws. Invalid cells are NaN, which
        ``fmin`` skips and no comparison matches.
        """
        memo = self.prices()
        if not self.dense:
            best = low = None
            for x, y in self._loop_pairs():
                price = memo[x][y]
                if best is None or price < low:
                    best, low = (x, y), price
                elif price == low and rng.random() < 0.5:
                    best = (x, y)
            return best
        ids, bad = self._grid()
        costs = np.where(bad, np.nan, memo.take(ids, 0).take(ids, 1)).ravel()
        low = np.fmin.reduce(costs)
        if low != low:  # NaN: no valid pair
            return None
        last = best = int((costs == low).argmax())
        head = costs[:last]
        for _ in range(np.count_nonzero(head[1:] == np.fmin.accumulate(head)[:-1])):
            rng.random()
        for i in (costs[last + 1 :] == low).nonzero()[0].tolist():
            if rng.random() < 0.5:
                best = last + 1 + i
        first, second = divmod(best, len(ids))
        return int(ids[first]), int(ids[second])

    def summary(self):
        """The summary of the current partition."""
        block_of = {v: x for x in self.order for v in self.members[x]}
        edges = [(x, w) for x in self.order for w in _ones(self.kids[x])]
        return SummaryDag.from_partition(self.base, self.base_order, block_of, edges)


def _ones(bits):
    """The positions of a bitset's set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def _mass(bits, size):
    """The total ``size`` of the clusters in a bitset. The bits are walked
    inline: summing over ``_ones`` made a 16-node ``summarize`` call about
    25% slower."""
    total = 0
    while bits:
        low = bits & -bits
        total += size[low.bit_length() - 1]
        bits ^= low
    return total


def _merge_price(size_a, size_b, weight_a, weight_b, shared, linked):
    """The canonical-DAG edges that merging clusters a and b adds.

    The merge adds |a||b| clique edges unless a quotient edge already
    grounds them (``linked`` is 1 when one joins a and b, else 0), and
    each side gains the other's remaining parents and children, weighted
    by the partner's size. ``weight_x`` is the total size of x's
    neighbours and ``shared`` that of the neighbours a and b have in
    common in the same role. Works on numbers and on numpy arrays alike.
    """
    both = size_a + size_b
    return (
        size_a * (size_b + weight_b)
        + size_b * weight_a
        - both * shared
        - linked * (size_a * both + size_b * size_b)
    )


def _similarity_index(similarity, base_order):
    """The similarity's row index, once it covers every node of
    ``base_order``; otherwise UnknownNodeError names the first it misses."""
    index = similarity._index
    for v in base_order:
        if v not in index:
            raise UnknownNodeError(v)
    return index


def _acyclic(q, a, b):
    """Does merging clusters ``a`` and ``b`` keep the quotient ``q`` acyclic?

    It does not when a path of at least two edges joins them, that is
    when one side reaches the other from a child other than the other
    side. Raises UnknownNodeError naming ``a`` before ``b``, then
    ValidationError when they are the same cluster.
    """
    seeds = (q.children(a) - {b}) | (q.children(b) - {a})
    if a == b:
        raise ValidationError(f"({a}, {b}) is not a valid pair to merge")
    return {a, b}.isdisjoint(q.descendants(seeds))


def get_cost(h, a, b):
    """The number of canonical-DAG edges that merging ``a`` and ``b`` adds.

    Counted directly from the quotient neighborhoods by ``_merge_price``,
    the formula the greedy engine prices with: members of the two
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
    q, size = h.quotient, h.cluster_size
    if not _acyclic(q, a, b):
        raise ValidationError(f"({a}, {b}) is not a valid pair to merge")
    pa, ca, pb, cb = q.parents(a), q.children(a), q.parents(b), q.children(b)

    def total(*groups):
        return sum(size(c) for group in groups for c in group)

    return _merge_price(
        size(a), size(b), total(pa, ca), total(pb, cb), total(pa & pb, ca & cb), int(b in pa | ca)
    )


def is_valid_pair(h, a, b, cfg=None):
    """May clusters ``a`` and ``b`` be merged?

    False when a directed path of length >= 2 joins them (the contraction
    would create a cycle) or when a configured similarity constraint is
    violated by any cross-cluster member pair. A similarity that misses a
    base node raises UnknownNodeError before the labels are checked.
    """
    similarity = cfg.similarity if cfg is not None else None
    if similarity is not None:
        index = _similarity_index(similarity, h.base_order)
    if not _acyclic(h.quotient, a, b):
        return False
    if similarity is None:
        return True
    rows_a = [index[v] for v in h.members(a)]
    rows_b = [index[v] for v in h.members(b)]
    return not (similarity.values[np.ix_(rows_a, rows_b)] < similarity.threshold).any()


def summarize(g, cfg):
    """Summarize ``g`` down to at most ``cfg.k`` clusters, greedily.

    Starts from the identity summary; each iteration scans all valid
    cluster pairs in label order, prices each with the formula
    ``get_cost`` also uses, and merges a minimum-cost pair, so every merge
    is a cheapest valid merge of the summary it is made in. Raises
    StuckError if the similarity constraint exhausts valid pairs before
    the budget is met, and UnknownNodeError if the similarity matrix
    misses a node of ``g``.

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
    engine = _Engine(g, cfg.similarity)
    while len(engine.order) > cfg.k:
        pair = engine.cheapest_pair(rng)
        if pair is None:
            raise StuckError(
                f"no valid pair left at {len(engine.order)} clusters (target k={cfg.k})"
            )
        engine.merge(*pair)
    return engine.summary()
