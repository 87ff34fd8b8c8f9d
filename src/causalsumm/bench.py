"""Baselines, metrics and instance generation for evaluating summaries.

Provides the exhaustive and random baselines the greedy summarizer is
measured against, the RB-implication quality metric, a reproducible
random-DAG generator, a structural perturbation helper, and a small CSV
report writer. All randomness flows through numpy Generators seeded per
call, so every artifact is reproducible from its parameters.
"""

import csv
import time
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .cagres import _check_seed, _Engine
from .graph_core import Dag, SizeLimitError, ValidationError, _kahn, topological_order
from .separation import _canonical_walk
from .summary import SummaryDag, _grounded_basis, additional_edges


@dataclass(frozen=True)
class GenSpec:
    """Parameters of a synthetic instance: node count, edge density, seed."""

    n: int
    density: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValidationError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.density <= 1.0:
            raise ValidationError(f"density must lie in [0, 1], got {self.density}")
        _check_seed(self.seed)


@dataclass(frozen=True)
class ComparisonReport:
    """Pairwise RB-implication percentages and edge counts for two summaries."""

    implied_a_by_b: float
    implied_b_by_a: float
    additional_edges_a: int
    additional_edges_b: int


#: the most uniforms drawn at once, so memory stays bounded at large n
_DRAW_BLOCK = 1 << 20


def gen_random_dag(spec):
    """A random DAG: uniform topological order, each forward edge i.i.d.

    Labels are X01..Xn (zero-padded so lexicographic and numeric order
    agree). Deterministic in ``spec.seed``. The pairs (i, j > i) of the
    order take one uniform each, row by row; they are drawn in blocks of
    at most ``_DRAW_BLOCK``, which gives the same numbers as one draw per
    pair.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.n
    width = len(str(n))
    labels = [f"X{i + 1:0{width}d}" for i in range(n)]
    order = [labels[i] for i in rng.permutation(n)]
    # pair k of the flattened upper triangle lies in row i, the number of
    # rows that end at or before k, and column j = k - ends[i] + n
    ends = list(accumulate(range(n - 1, 0, -1)))
    pairs = n * (n - 1) // 2
    edges = []
    for start in range(0, pairs, _DRAW_BLOCK):
        draws = rng.random(min(_DRAW_BLOCK, pairs - start))
        for k in (start + np.flatnonzero(draws < spec.density)).tolist():
            i = bisect_right(ends, k)
            edges.append((order[i], order[k - ends[i] + n]))
    return Dag(labels, edges)


def brute_force_summarize(g, k):
    """The exact baseline: best summary over all partitions into <= k blocks.

    Enumerates set partitions as restricted-growth strings over the nodes
    in topological order, as a depth-first branch and bound whose state is
    kept incrementally in integer indices: each assigned node's block, the
    block sizes, and per block bitmasks of its in- and out-neighbour blocks
    and of the blocks it reaches (reflexively). Placing node i in block b
    adds only the edges (block of p, b) for i's parents p, so the prefix
    turns cyclic exactly when b already reaches one of those source
    blocks, and such prefixes are pruned.

    The score of a partition is the canonical DAG's additional edges. A
    prefix's bound on the score of every completion is its canonical edge
    count (kept in O(blocks) per node, the sum ``canonical_edge_count``
    takes in closed form), minus the base edges among the placed nodes,
    plus, for each unplaced node j, the total size of the distinct blocks
    that hold j's placed parents minus the number of those parents. It is
    admissible: block sizes and block edges only grow, and j, wherever it
    goes, gains an edge from every member of each such block. The sum is
    kept through each unplaced node's mask of parent blocks and a count,
    per block, of the unplaced nodes whose mask holds it, so a branch
    costs O(children of i). Branches are taken cheapest bound first, and
    the first whose bound is strictly above the best score found ends the
    node, so every tied partition is still reached. Ties go to the
    lexicographically smallest partition signature (blocks as node tuples
    in topological order), so the result is deterministic and equals the
    unpruned search. Only the winner is built as a summary. Exponential:
    guarded to 10 nodes.

    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> h = brute_force_summarize(g, 4)
    >>> h.quotient.nodes, additional_edges(h)
    (('A', 'BC', 'D', 'E'), 1)
    """
    if g.num_nodes > 10:
        raise SizeLimitError(
            f"exhaustive search is exponential; refusing {g.num_nodes} nodes (limit 10)"
        )
    if not 1 <= k <= g.num_nodes:
        raise ValidationError(f"infeasible k={k} for {g.num_nodes} nodes")

    order = topological_order(g)
    n = len(order)
    index = {v: i for i, v in enumerate(order)}
    children = [[index[w] for w in g.children(v)] for v in order]
    block = [0] * n
    size = [0] * k
    into, out = [0] * k, [0] * k
    reach = [1 << b for b in range(k)]
    # the completion bound's state: above[j] masks the blocks of unplaced
    # node j's placed parents, and waiting[b] counts the unplaced nodes
    # whose mask holds b, which each gain an edge when b grows
    above = [0] * n
    waiting = [0] * k
    best = None  # (additional_edges, signature, assignment)

    def weight(mask):
        """The total size of the blocks in ``mask``."""
        total = 0
        while mask:
            low = mask & -mask
            total += size[low.bit_length() - 1]
            mask ^= low
        return total

    def tally(mask, step):
        """Add ``step`` to the waiting count of every block in ``mask``."""
        while mask:
            low = mask & -mask
            waiting[low.bit_length() - 1] += step
            mask ^= low

    def extend(i, nblocks, count, slack):
        # count + slack bounds every completion's score: count is the
        # prefix's canonical edge count, slack the bound's other terms
        nonlocal best
        if i == n:
            blocks = [[] for _ in range(nblocks)]
            for v, b in zip(order, block):
                blocks[b].append(v)
            score = count + slack
            signature = tuple(tuple(vs) for vs in blocks)
            if best is None or (score, signature) < best[:2]:
                best = (score, signature, block[:])
            return
        sources = above[i]
        tally(sources, -1)  # i leaves the unplaced nodes
        kids = children[i]
        # i's own term leaves the sum, and each child gains i as a parent
        slack -= weight(sources) + len(kids)
        candidates = []
        # restricted growth: reuse any existing block, or open block
        # nblocks (only while the block budget allows)
        for b in range(min(nblocks + 1, k)):
            bit = 1 << b
            if reach[b] & sources & ~bit:
                continue  # b reaches one of its new sources: a cycle
            new = sources & ~bit & ~into[b]
            grown = size[b] + 1
            # b's clique gains size[b] edges, each edge at b gains the
            # neighbour's size, and each new edge x -> b |x|(|b| + 1)
            count_b = count + size[b] + weight(into[b] | out[b]) + weight(new) * grown
            # a child that gets b as a new parent block gains an edge from
            # every member of b, i included; an unplaced node that already
            # has a parent in b gains one, from i
            fresh = [j for j in kids if not above[j] & bit]
            bound = count_b + slack + waiting[b] + grown * len(fresh)
            candidates.append((bound, b, count_b, new, fresh))
        candidates.sort()
        for bound, b, count_b, new, fresh in candidates:
            if best is not None and bound > best[0]:
                break
            bit = 1 << b
            saved = reach[:], out[:], into[b]
            block[i] = b
            size[b] += 1
            into[b] |= new
            for x in range(nblocks):
                if new >> x & 1:
                    out[x] |= bit
                if reach[x] & new:
                    reach[x] |= reach[b]
            for j in fresh:
                above[j] |= bit
            waiting[b] += len(fresh)
            extend(i + 1, max(nblocks, b + 1), count_b, bound - count_b)
            waiting[b] -= len(fresh)
            for j in fresh:
                above[j] ^= bit
            reach[:], out[:], into[b] = saved
            size[b] -= 1
        tally(sources, 1)

    extend(0, 0, 0, 0)
    _, _, assignment = best
    block_of = dict(zip(order, assignment))
    edges = {(block_of[u], block_of[v]) for u, v in g.edges if block_of[u] != block_of[v]}
    return SummaryDag.from_partition(g, order, block_of, edges)


def random_summarize(g, k, seed=0):
    """The random baseline: contract uniformly chosen valid pairs down to k.

    Each step lists the valid pairs in label order and draws one index
    from a numpy Generator seeded with ``seed``.
    """
    if not 1 <= k <= g.num_nodes:
        raise ValidationError(f"infeasible k={k} for {g.num_nodes} nodes")
    _check_seed(seed)
    engine = _Engine(g)  # the size guard refuses before numpy runs
    rng = np.random.default_rng(seed)
    while len(engine.order) > k:
        first, second = engine.valid_pairs()
        pick = int(rng.integers(len(first)))
        engine.merge(int(first[pick]), int(second[pick]))
    return engine.summary()


def implication_percentage(a, b):
    """How much of b's recursive basis the summary ``a`` implies, in percent.

    Each statement of b's RB is grounded to base variables as it is made
    and tested by d-separation in canonical(a) — sound and complete for the
    CIs entailed by a — decided over a's clusters without grounding it;
    only the verdict is kept. Both summaries must share the same base
    graph. An empty RB is fully implied (100).

    >>> from causalsumm import contract, trivial_summary
    >>> g = Dag("ABCDE", [("A","B"), ("A","C"), ("B","D"), ("C","D"), ("D","E")])
    >>> h1 = contract(trivial_summary(g), "B", "C")
    >>> implication_percentage(trivial_summary(g), h1)
    100.0
    >>> round(implication_percentage(h1, trivial_summary(g)), 2)  # h1 joins B -> C
    66.67
    """
    if a.base != b.base:
        raise ValidationError("summaries must share the same base graph")
    separated = _canonical_walk(a)
    implied = [separated(s.x, s.y, s.z) for s in _grounded_basis(b)]
    return 100.0 * sum(implied) / len(implied) if implied else 100.0


def compare(a, b):
    """Pairwise RB implication and edge overhead for two summaries."""
    return ComparisonReport(
        implied_a_by_b=implication_percentage(b, a),
        implied_b_by_a=implication_percentage(a, b),
        additional_edges_a=additional_edges(a),
        additional_edges_b=additional_edges(b),
    )


def perturb(g, add, remove, seed=0):
    """Remove then add random edges, keeping the node set and acyclicity.

    Removes ``remove`` uniformly chosen edges, then adds ``add`` uniformly
    chosen non-edges that point forward along ``topological_order`` of the
    reduced graph, got by one Kahn pass over the kept edges: only the
    result is built as a ``Dag``. These slots are numbered row by row
    along the order, without being listed: one draw of ``add`` slot
    numbers, each mapped to its row by bisection over the row ends and to
    its column by stepping past the row's children. Deterministic in ``seed``.
    """
    if add < 0 or remove < 0:
        raise ValidationError("add and remove must be non-negative")
    _check_seed(seed)
    rng = np.random.default_rng(seed)

    edges = sorted(g.edges)  # the removal draw indexes this order
    if remove > len(edges):
        raise ValidationError(
            f"cannot remove {remove} edges from a graph with {len(edges)}"
        )
    if remove:
        dropped = set(rng.choice(len(edges), size=remove, replace=False).tolist())
        edges = [e for i, e in enumerate(edges) if i not in dropped]

    if add:
        order = _kahn(g.nodes, edges)[0]
        n = len(order)
        position = {v: i for i, v in enumerate(order)}
        children = [[] for _ in order]
        for u, v in edges:
            children[position[u]].append(position[v])
        # row i's slots are the n - 1 - i later nodes that are not its children
        ends = list(accumulate(n - 1 - i - len(js) for i, js in enumerate(children)))
        slots = ends[-1] if ends else 0
        if add > slots:
            raise ValidationError(f"cannot add {add} forward edges; only {slots} slots")
        for k in rng.choice(slots, size=add, replace=False).tolist():
            i = bisect_right(ends, k)
            j = k - ends[i] + n - len(children[i])  # i + 1 + k's offset in row i
            for child in sorted(children[i]):
                j += child <= j  # step past each child at or before the column
            edges.append((order[i], order[j]))
    return Dag(g.nodes, edges)


#: column order of the sweep report CSV
REPORT_COLUMNS = (
    "instance_id",
    "method",
    "n",
    "density",
    "k",
    "seed",
    "clusters",
    "additional_edges",
    "runtime_ms",
)


def report_row(instance_id, method, spec, k, summarizer):
    """Run one (instance, method) cell and record it as a report row."""
    g = gen_random_dag(spec)
    start = time.perf_counter()
    h = summarizer(g)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return {
        "instance_id": instance_id,
        "method": method,
        "n": spec.n,
        "density": spec.density,
        "k": k,
        "seed": spec.seed,
        "clusters": h.quotient.num_nodes,
        "additional_edges": additional_edges(h),
        "runtime_ms": round(elapsed_ms, 3),
    }


def write_report(rows, stream):
    """Write report rows as CSV, ordered by (instance_id, method)."""
    writer = csv.DictWriter(stream, fieldnames=REPORT_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in sorted(rows, key=lambda r: (r["instance_id"], r["method"])):
        writer.writerow(row)
