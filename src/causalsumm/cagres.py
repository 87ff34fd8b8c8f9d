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
  transitive closure (Italiano, TCS 1986). Validity, the clusters each
  may not merge with by a path or a similarity clash, is one bitset per
  cluster, refreshed only for the ancestors.
- Above ``SMALL_GRAPH`` nodes merge prices are memoized per pair; a
  merge marks only its neighbourhood for re-pricing, the pattern of
  agglomerative clustering (Müllner, arXiv:1109.2378).
- The live ids are one list sorted by label; a merge drops one, moves one.

Every iteration still scans all valid pairs in label order, so the
output, tie-break coins included, equals the plain rescan kept in the
tests as the reference. The summary is built once, at the end. Graphs of
at most ``SMALL_GRAPH`` nodes price each valid pair as the scan reaches
it, in Python loops over the bitsets, as the rescan does; larger ones
keep the price memo in numpy, with one float64 matrix product per block
of re-priced rows, unpacked from the same bitsets, and one vectorized
pass over the label-ordered grid per scan.
"""

import random
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .graph_core import (
    GraphError,
    SizeLimitError,
    UnknownNodeError,
    ValidationError,
    topological_order,
)
from .summary import SummaryDag, cluster_labels

#: the most nodes the greedy engine takes. Its peak RSS grew by 28-29
#: bytes per n² (``summarize`` at n = 500-1500, density 2/n, k = n/5), so
#: this limit sits near 0.7 GiB; the time grows about as n^3.3.
ENGINE_NODE_LIMIT = 5000

#: the most nodes the greedy engine prices and scans in its loop form; a
#: larger graph runs the array form. Per ``summarize`` call (k = n/2, 30
#: graphs per size, densities 0.35 and 4/n, min of 5) the loop form ran
#: 2.5x as fast at n = 8, 1.4-1.5x at n = 16, 1.03-1.21x at n = 22,
#: 0.90-1.02x at n = 24 and 0.77-0.86x at n = 28.
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
    ``parents[x]`` its parents, the one adjacency both forms keep, and
    ``reach[x]`` holds x and every cluster x reaches, filled first by one
    pass over the ids in reverse (children before parents). ``size``
    holds the member counts. ``clash[x]`` holds the clusters with a member
    pair below the similarity threshold (none without one), and row x of
    ``far`` every cluster x may not merge with: those in ``clash[x]`` and
    those x reaches by a path of at least two edges. A pair is valid when
    neither row holds the other, so a merge gives its id to the clusters
    it newly clashes with in ``clash`` alone. ``order``, the live ids
    sorted by label, is the one record of which clusters are live, so no
    scan reads a retired id again. ``summary()`` builds the result from
    the members and ``kids``.

    How pairs are priced and scanned depends on the graph's size alone. A
    graph of at most ``SMALL_GRAPH`` nodes runs the loop form, which
    allocates no numpy array and keeps no prices: ``far`` is a list of
    bitsets, ``size`` is a list, and each scan prices every valid pair it
    reaches by ``_merge_price`` on Python ints. A larger graph runs the
    array form, whose numpy calls cost less than those loops there:
    ``far`` is a boolean matrix, ``memo`` holds merge prices, the rows of
    ``stale`` clusters are due for re-pricing, ``weight`` is the total
    neighbour size the last pricing set, and ``size``, ``weight`` and
    ``memo`` are float64. Pricing unpacks the re-priced rows' bitsets and
    those of the clusters that share their neighbours into 0/1 blocks and
    runs a BLAS product on them, exact because every price is a small
    integer. Both forms price with the same formula and scan the same
    valid pairs in the same label order with the same coin, so their
    outputs are identical.

    A graph of more than ``ENGINE_NODE_LIMIT`` nodes raises SizeLimitError
    before anything is ordered or allocated.
    """

    def __init__(self, g, similarity=None):
        if g.num_nodes > ENGINE_NODE_LIMIT:
            need = 29 * g.num_nodes**2 / 2**30  # bytes per n², from the fit above
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
        self.clash = [0] * n
        if similarity is not None:
            index = _similarity_index(similarity, self.base_order)
            rows, bit = [index[v] for v in self.labels], [1 << y for y in range(n)]
            values, threshold = similarity.values, similarity.threshold
            for x, i in enumerate(rows):  # one row of values at a time keeps the peak low
                below = map(threshold.__gt__, map(values[i].tolist().__getitem__, rows))
                self.clash[x] = sum(compress(bit, below))
        far = [self._far_row(x) for x in range(n)]
        self.plain = True  # every label is its one member
        self.order = sorted(range(n), key=self.labels.__getitem__)
        self.parents = [0] * n
        for x, heads in enumerate(children):
            for w in heads:
                self.parents[w] |= 1 << x
        self.dense = n > SMALL_GRAPH
        if not self.dense:
            self.size, self.far = [1] * n, far
            return
        self.size = np.ones(n)
        self.weight = np.empty(n)  # unread until _price sets the rows it prices
        self.far = _bits(far, n)
        self.memo = np.zeros((n, n))
        self.stale = set(range(n))
        self.lower = np.tri(n, dtype=bool)

    def _far_row(self, x):
        """The clusters ``x`` may not merge with, as a bitset: those in
        ``clash[x]`` and those it reaches by a path of at least two edges."""
        row, kids, reach = self.clash[x], self.kids[x], self.reach
        while kids:
            low = kids & -kids
            row |= reach[low.bit_length() - 1] & ~low
            kids ^= low
        return row

    def prices(self):
        """The merge price of every pair of live clusters, as a matrix
        (array form)."""
        if self.stale:
            self._price(self.stale)
            self.stale.clear()
        return self.memo

    def _price(self, rows):
        """Price every pair involving a cluster in ``rows`` by ``_merge_price``
        (array form). Each row is unpacked into its role columns, its
        parents then its children; a role's holders are the clusters that
        share it, a parent's ``kids`` or a child's ``parents``. Every row's
        ``weight`` is refreshed before the first chunk reads them all.
        Every term is an integer far below 2^53, so float64 arithmetic is
        exact."""
        size, weight, kids, parents = self.size, self.weight, self.kids, self.parents
        n = len(size)
        sizes = np.concatenate((size, size))  # the size of each role column
        rows = np.fromiter(rows, dtype=np.intp, count=len(rows))
        near = _bits([parents[x] | kids[x] << n for x in rows.tolist()], 2 * n)
        starts = range(0, len(rows), 32)  # chunks keep the temporaries small
        for start in starts:
            weight[rows[start : start + 32]] = near[start : start + 32] @ sizes
        for start in starts:
            chunk, roles_of = rows[start : start + 32], near[start : start + 32]
            roles = roles_of.any(axis=0).nonzero()[0]
            holders = _bits([kids[r] if r < n else parents[r - n] for r in roles.tolist()], n)
            shared = (roles_of[:, roles] * sizes[roles]) @ holders
            linked = roles_of[:, :n] | roles_of[:, n:]
            prices = _merge_price(
                size[chunk][:, None], size, weight[chunk][:, None], weight, shared, linked
            )
            self.memo[chunk] = prices
            self.memo[:, chunk] = prices.T

    def merge(self, a, b):
        """Contract clusters ``a`` and ``b`` (a valid pair) into cluster ``a``."""
        either, not_b = 1 << a | 1 << b, ~(1 << b)
        kids, parents = self.kids, self.parents
        near = list(_ones((parents[a] | parents[b] | kids[a] | kids[b]) & ~either))
        for x in near:
            if parents[x] >> b & 1:
                parents[x] = parents[x] & not_b | 1 << a
            if kids[x] >> b & 1:
                kids[x] = kids[x] & not_b | 1 << a
        parents[a] = (parents[a] | parents[b]) & ~either
        kids[a] = (kids[a] | kids[b]) & ~either
        clash = self.clash
        # a takes the clashes only b had, and those clusters take a; a's far
        # row picks them up below, since a is an ancestor of the merge
        gained = clash[b] & ~clash[a]
        clash[a] |= gained
        for y in _ones(gained):
            clash[y] |= 1 << a
        if self.dense:
            # the merge changes the price of exactly the pairs touching a, b
            # or one of their neighbours
            self.stale.update(near)
            self.stale.add(a)
            self.stale.discard(b)
        self.members[a] = sorted(self.members[a] + self.members[b], key=self.position.__getitem__)
        self.size[a] += self.size[b]
        del self.order[bisect_left(self.order, self.labels[b], key=self.labels.__getitem__)]

        row = (self.reach[a] | self.reach[b]) & not_b
        ancestors = [x for x in self.order if self.reach[x] & either]
        for x in ancestors:
            self.reach[x] = (self.reach[x] | row) & not_b
        rows = [self._far_row(x) for x in ancestors]
        if self.dense:
            self.far[ancestors] = _bits(rows, len(self.labels))
        else:
            for x, row in zip(ancestors, rows):
                self.far[x] = row
        self._relabel(a)

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

    def _grid(self):
        """The live ids in label order, and which cells of the id-by-id grid
        in that order are *not* a valid pair: the lower triangle and the
        pairs ``far`` forbids (array form)."""
        ids = np.array(self.order)
        far = self.far.take(ids, 0).take(ids, 1)
        bad = far | far.T
        bad |= self.lower[: len(ids), : len(ids)]
        return ids, bad

    def _loop_pairs(self):
        """Every valid pair, in scan order, read off the bitsets (loop form)."""
        far, order = self.far, self.order
        for i, x in enumerate(order):
            bad = far[x]
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

        The loop form walks the pairs and prices each as it comes, after
        one refresh of every live cluster's neighbour mass: the first pair
        sets the running minimum, a cheaper pair replaces the candidate
        without a draw, and every pair equal to the running minimum draws
        once and replaces the candidate when the draw is below 0.5. The
        array form reads its memo and reproduces that walk: the last
        record is the first pair at the overall minimum, so only the pairs
        before it need a running minimum, to count their draws. Invalid
        cells are NaN, which ``fmin`` skips and no comparison matches.
        """
        if not self.dense:
            size, kids, parents = self.size, self.kids, self.parents
            weight = {x: _mass(kids[x] | parents[x], size) for x in self.order}
            best = low = None
            for x, y in self._loop_pairs():
                common = kids[x] & kids[y] | parents[x] & parents[y]
                price = _merge_price(
                    size[x],
                    size[y],
                    weight[x],
                    weight[y],
                    _mass(common, size) if common else 0,
                    (kids[x] >> y | kids[y] >> x) & 1,
                )
                if best is None or price < low:
                    best, low = (x, y), price
                elif price == low and rng.random() < 0.5:
                    best = (x, y)
            return best
        ids, bad = self._grid()
        costs = np.where(bad, np.nan, self.prices().take(ids, 0).take(ids, 1)).ravel()
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


def _bits(rows, count):
    """Bitsets unpacked into a boolean matrix of ``count`` columns, one per
    bit (array form)."""
    width = (count + 7) // 8
    # join lists a generator first; a list comprehension halves the cost
    packed = np.frombuffer(b"".join([row.to_bytes(width, "little") for row in rows]), np.uint8)
    bits = np.unpackbits(packed.reshape(len(rows), width), axis=1, count=count, bitorder="little")
    return bits.view(bool)


def _mass(bits, size):
    """The total ``size`` of the clusters (or brute-force blocks) in a
    bitset. The bits are walked inline: summing over ``_ones`` made a
    16-node ``summarize`` call about 25% slower."""
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
