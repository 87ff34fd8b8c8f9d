"""Independent reference implementations the tests check the library against.

Everything here is deliberately written differently from the package:
networkx for graph algorithms, naive enumeration instead of the
library's pruned/incremental algorithms. When a library value and an
oracle value agree, the agreement is meaningful.
"""

import heapq
from itertools import combinations, product

import networkx as nx


def to_nx(g):
    graph = nx.DiGraph()
    graph.add_nodes_from(g.nodes)
    graph.add_edges_from(g.edges)
    return graph


def nx_d_separated(g, x, y, z):
    return nx.is_d_separator(to_nx(g), set(x), set(y), set(z))


def d_separated_oracle(g, query):
    """Trail-enumeration reference for ``d_separated`` (small graphs only).

    Enumerates every simple trail between x and y and applies the blocking
    rules to each interior node verbatim. Exponential; guarded to 12 nodes.
    """
    from causalsumm import SizeLimitError, UnknownNodeError

    if g.num_nodes > 12:
        raise SizeLimitError(
            f"oracle is exponential; refusing {g.num_nodes} nodes (limit 12)"
        )
    for v in query.members():
        if v not in g.node_set:
            raise UnknownNodeError(v)
    x, y, z = query.x, query.y, query.z

    adjacency = {v: sorted(g.parents(v) | g.children(v)) for v in g.nodes}

    def trails_from(start):
        # all simple trails start..(first y hit); stopping at the first hit
        # is complete, since a blocked prefix blocks every extension of it
        stack = [(start, [start], {start})]
        while stack:
            v, trail, on_trail = stack.pop()
            if v in y:
                yield trail
                continue
            for nb in adjacency[v]:
                if nb not in on_trail:
                    stack.append((nb, trail + [nb], on_trail | {nb}))

    def is_active(trail):
        for i in range(1, len(trail) - 1):
            prev, v, nxt = trail[i - 1], trail[i], trail[i + 1]
            if g.has_edge(prev, v) and g.has_edge(nxt, v):
                # head-to-head: needs v or a descendant of v inside z
                if not (g.descendants({v}) & z):
                    return False
            elif v in z:
                return False
        return True

    for start in sorted(x):
        for trail in trails_from(start):
            if is_active(trail):
                return False
    return True


_last_descendants = (None, None)


def _reflexive_descendants(g):
    # kept for the last graph asked about, matched by identity: callers ask
    # about many pairs of one quotient in a row, and comparing equal but
    # distinct graphs would cost more than the map
    global _last_descendants
    if _last_descendants[0] is not g:
        desc = {}

        def visit(v):
            if v not in desc:
                desc[v] = frozenset({v}).union(*(visit(c) for c in g.children(v)))
            return desc[v]

        for v in g.nodes:
            visit(v)
        _last_descendants = (g, desc)
    return _last_descendants[1]


def has_long_path(g, u, v):
    """True iff a directed path of at least two edges runs u→…→v or v→…→u:
    some child w of one end, other than the far end, reaches the far end."""
    desc = _reflexive_descendants(g)
    return any(
        far in desc[w] for near, far in ((u, v), (v, u)) for w in g.children(near) if w != far
    )


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
    """Every labeled DAG over ``labels``, by backtracking over the node pairs.

    Each pair gets no edge or one edge either way. An edge u→v is refused
    when v already reaches u, so a cyclic prefix is never extended;
    reachability is a reflexive bitmask per node, copied on each edge.
    """
    labels = list(labels)
    pairs = list(combinations(range(len(labels)), 2))
    edges = []

    def extend(k, reach):
        if k == len(pairs):
            yield labels, list(edges)
            return
        yield from extend(k + 1, reach)
        for u, v in (pairs[k], pairs[k][::-1]):
            if not reach[v] >> u & 1:
                edges.append((labels[u], labels[v]))
                yield from extend(k + 1, [r | reach[v] if r >> u & 1 else r for r in reach])
                edges.pop()

    yield from extend(0, [1 << i for i in range(len(labels))])


def compatible_dags(h):
    """Every DAG compatible with the summary ``h``, as (labels, edges) pairs.

    Compatible means every edge stays inside a cluster or grounds a quotient
    edge. Edges between clusters then follow the acyclic quotient, so such a
    graph is acyclic exactly when its part inside each cluster is: the
    compatible DAGs are every choice of one ``all_dags`` graph per cluster
    together with every subset of the grounded quotient edges.
    """
    labels = list(h.base.nodes)
    inside = [[edges for _, edges in all_dags(sorted(h.members(c)))] for c in h.quotient.nodes]
    slots = sorted(
        (u, v) for a, b in h.quotient.edges for u in h.members(a) for v in h.members(b)
    )
    for parts in product(*inside):
        within = [e for edges in parts for e in edges]
        for mask in range(1 << len(slots)):
            yield labels, within + [slots[i] for i in range(len(slots)) if mask >> i & 1]


def contraction(h, edges):
    """The quotient edges that ``edges`` ground under ``h.mapping``: the
    cluster pairs joined by at least one edge between their members."""
    f = h.mapping
    return {(f[u], f[v]) for u, v in edges if f[u] != f[v]}


def strictly_compatible_dags(h):
    """The ``compatible_dags`` of ``h`` that contract to exactly its
    quotient, so that every quotient edge is grounded by at least one edge.

    Completeness is stated over these: a summary that answers CONNECTED or
    NOT-APPLICABLE must be right about one DAG with exactly its structure,
    not about one that drops a quotient edge."""
    quotient = set(h.quotient.edges)
    for labels, edges in compatible_dags(h):
        if contraction(h, edges) == quotient:
            yield labels, edges


def satisfies_backdoor(labels, edges, t, o, z):
    """The backdoor criterion for ``z`` relative to (t, o) in one DAG: no
    member of ``z`` descends from ``t``, and ``z`` d-separates ``t`` from
    ``o`` once the edges out of ``t`` are removed (Pearl 2009, §3.3)."""
    children = {v: [] for v in labels}
    for u, v in edges:
        children[u].append(v)
    below, stack = set(), list(children[t])
    while stack:
        v = stack.pop()
        if v not in below:
            below.add(v)
            stack.extend(children[v])
    if below & set(z):
        return False
    return moral_d_separated([(u, v) for u, v in edges if u != t], {t}, {o}, z)


def _ancestral(edges, seeds):
    """``seeds`` and every node with a directed path into one of them."""
    parents = {}
    for u, v in edges:
        parents.setdefault(v, []).append(u)
    found, stack = set(), list(seeds)
    while stack:
        v = stack.pop()
        if v not in found:
            found.add(v)
            stack.extend(parents.get(v, ()))
    return found


def moral_d_separated(edges, x, y, z):
    """d-separation by the moralization criterion (Lauritzen et al. 1990):
    z separates x from y in the moral graph of the ancestral set of x ∪ y ∪ z."""
    x, y, z = set(x), set(y), set(z)
    keep = _ancestral(edges, x | y | z)
    parents = {v: set() for v in keep}
    for u, v in edges:
        if v in keep:
            parents[v].add(u)
    neighbours = {v: set(ps) for v, ps in parents.items()}
    for v, ps in parents.items():
        for p in ps:
            neighbours[p] |= ps - {p} | {v}
    reached, stack = set(x), list(x)
    while stack:
        for u in neighbours[stack.pop()] - z - reached:
            if u in y:
                return False
            reached.add(u)
            stack.append(u)
    return True


def grounded_rule(rule, x, y, z, w):
    """Pearl's do-calculus rule over base-variable sets, as a test of one
    DAG's edges: y ⊥ z | x ∪ w once edges into x (and, for R2, out of z;
    for R3, into the z nodes that are not ancestors of w in the x-barred
    graph) are removed (Pearl 2009, §3.4).

    What does not depend on the DAG is fixed once, here, and DAGs whose
    x-barred (for R2, also z-underbarred) edge sets coincide share one
    answer, since the rule reads nothing else of them."""
    given = x | w
    cut = z if rule == "R2" else frozenset()
    answers = {}

    def holds(edges):
        kept = frozenset((u, v) for u, v in edges if v not in x and u not in cut)
        if kept not in answers:
            mutilated = kept
            if rule == "R3":
                barred = z - _ancestral(kept, w)
                mutilated = [(u, v) for u, v in kept if v not in barred]
            answers[kept] = moral_d_separated(mutilated, y, z, given)
        return answers[kept]

    return holds


def summary_rule_applies(h, rule, q, zw_in_hbar=True):
    """``rule_applies`` as first written: s-separation in the summary
    mutilated by ``mutilate_summary``, a whole validated summary value per
    mutilation, rather than d-separation in the mutilated quotient.

    ``zw_in_hbar=False`` is R3's literal reading, which the package does
    not offer: z(w) is taken in the unmutilated quotient rather than the
    x-mutilated one. It bars a subset of the z clusters the package bars,
    so it can only lose APPLIES answers; the tests keep it to show that."""
    from causalsumm import SeparationQuery, mutilate_summary, s_separated

    sep = SeparationQuery(x=q.y, y=q.z, z=q.x | q.w)
    if rule == "R1":
        return s_separated(mutilate_summary(h, q.x, frozenset()), sep)
    if rule == "R2":
        return s_separated(mutilate_summary(h, q.x, q.z), sep)
    host = mutilate_summary(h, q.x, frozenset()).quotient if zw_in_hbar else h.quotient
    zw = q.z - host.ancestors(q.w)
    return s_separated(mutilate_summary(h, q.x | zw, frozenset()), sep)


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


def reference_implication_percentage(a, b):
    """RB implication by grounding: each statement of b's recursive basis,
    grounded to base variables, d-separated in the materialised
    ``canonical(a)``."""
    from causalsumm import ValidationError, canonical, d_separated
    from causalsumm.summary import ground_ci, summary_recursive_basis

    if a.base != b.base:
        raise ValidationError("summaries must share the same base graph")
    statements = [ground_ci(b, s) for s in summary_recursive_basis(b)]
    if not statements:
        return 100.0
    canon = canonical(a)
    implied = sum(d_separated(canon, s) for s in statements)
    return 100.0 * implied / len(statements)


def _grounded_edges(h, order):
    """Every member pair of a quotient edge, plus each cluster's members
    joined pairwise along ``order``: the canonical edges that ``h`` grounds
    from its quotient."""
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
    return edges


def reference_canonical(h):
    """The canonical causal DAG by its definition, as an edge set.

    An edge (u, v) is present iff
      (i)   (u, v) is a base edge (skipped for mutilated summaries, whose
            quotient overrides the base),
      (ii)  the clusters of u and v are joined by a quotient edge, or
      (iii) u and v share a cluster and u precedes v in base order.
    """
    from causalsumm import Dag

    edges = _grounded_edges(h, h.base_order)
    if not h.mutilated:
        edges |= h.base.edges
    return Dag(h.base_order, sorted(edges))


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
    return Dag(order, sorted(_grounded_edges(h, order)))


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
    if has_long_path(h.quotient, a, b):
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


def reference_topological_order(g):
    """The lexicographic Kahn order, read from the parent and child sets:
    the ready nodes sit in a heap, and each node's children are released
    in sorted order."""
    indegree = {v: len(g.parents(v)) for v in g.nodes}
    ready = [v for v in g.nodes if indegree[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for child in sorted(g.children(v)):
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    return tuple(order)


def _reference_is_acyclic(nodes, edges):
    indegree = {v: 0 for v in nodes}
    children = {v: [] for v in nodes}
    for u, v in edges:
        indegree[v] += 1
        children[u].append(v)
    ready = [v for v in nodes if indegree[v] == 0]
    seen = 0
    while ready:
        u = ready.pop()
        seen += 1
        for v in children[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                ready.append(v)
    return seen == len(indegree)


def reference_brute_force_summarize(g, k):
    """The exact baseline as a plain search: best summary over all
    partitions into <= k blocks, without pruning by score. Every prefix
    rebuilds its block edges and runs a full Kahn cycle check.

    Enumerates set partitions as restricted-growth strings over the nodes
    in topological order, pruning prefixes whose induced quotient is
    already cyclic, and keeps a partition minimizing the canonical DAG's
    additional edges, counted in closed form from the block sizes and
    block edges (``canonical_edge_count``). Ties go to the
    lexicographically smallest partition signature, so the result is
    deterministic. Only the winner is built as a summary. Exponential:
    guarded to 10 nodes.
    """
    from collections import Counter

    from causalsumm import SizeLimitError, SummaryDag, ValidationError, topological_order
    from causalsumm.summary import canonical_edge_count

    if g.num_nodes > 10:
        raise SizeLimitError(
            f"exhaustive search is exponential; refusing {g.num_nodes} nodes (limit 10)"
        )
    if not 1 <= k <= g.num_nodes:
        raise ValidationError(f"infeasible k={k} for {g.num_nodes} nodes")

    order = topological_order(g)
    n = len(order)
    best = None  # (additional_edges, signature, assignment, block edges)

    def block_edges(assignment):
        block_of = dict(zip(order, assignment))
        edges = set()
        for u, v in g.edges:
            if u in block_of and v in block_of and block_of[u] != block_of[v]:
                edges.add((block_of[u], block_of[v]))
        return edges

    def extend(assignment, nblocks):
        nonlocal best
        edges = block_edges(assignment)
        if not _reference_is_acyclic(set(assignment), edges):
            return
        i = len(assignment)
        if i == n:
            blocks = [[] for _ in range(nblocks)]
            for v, b in zip(order, assignment):
                blocks[b].append(v)
            score = canonical_edge_count(Counter(assignment), edges) - g.num_edges
            signature = tuple(tuple(block) for block in blocks)
            if best is None or (score, signature) < (best[0], best[1]):
                best = (score, signature, assignment, edges)
            return
        # restricted growth: reuse any existing block, or open block
        # nblocks (only while the block budget allows)
        for b in range(nblocks):
            extend(assignment + [b], nblocks)
        if nblocks < k:
            extend(assignment + [nblocks], nblocks + 1)

    extend([], 0)
    _, _, assignment, edges = best
    return SummaryDag.from_partition(g, order, dict(zip(order, assignment)), edges)


# --- the loader as written before its checks ran over whole collections -------
#
# ``reference_dag`` is the per-label, per-edge ``Dag`` constructor and
# ``reference_summary_from_doc`` the per-item summary loader, each building
# the same values as the package. Only the cluster check differs from the
# first version: a cluster that is not a list is named as such, not as empty.


def _reference_check_label(label):
    from causalsumm.graph_core import RESERVED_CHARS, ValidationError

    if not isinstance(label, str) or not label:
        raise ValidationError(f"node labels must be non-empty text, got {label!r}")
    if label.split() != [label]:  # split() cuts at exactly the str.isspace() characters
        raise ValidationError(f"label {label!r} contains whitespace (reserved)")
    bad = RESERVED_CHARS.intersection(label)
    if bad:
        raise ValidationError(
            f"label {label!r} contains reserved character {sorted(bad)[0]!r}"
        )
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(f"label {label!r} cannot be encoded as UTF-8") from None


def reference_dag(nodes, edges=()):
    """``Dag(nodes, edges)``, one label and one edge at a time."""
    from collections import deque

    from causalsumm.graph_core import (
        CycleError,
        Dag,
        DuplicateEdgeError,
        UnknownNodeError,
        ValidationError,
    )

    self = Dag.__new__(Dag)
    order = []
    seen = set()
    for label in nodes:
        _reference_check_label(label)
        if label in seen:
            raise ValidationError(f"duplicate node label: {label!r}")
        seen.add(label)
        order.append(label)
    self._order = tuple(order)
    self._nodes = frozenset(seen)

    parents = {v: set() for v in order}
    children = {v: set() for v in order}
    edge_set = set()
    for edge in edges:
        shaped = isinstance(edge, (tuple, list)) and len(edge) == 2
        if shaped:
            try:
                hash(tuple(edge))
            except TypeError:  # an unhashable end
                shaped = False
        if not shaped:
            raise ValidationError(f"edges must be (tail, head) pairs, got {edge!r}")
        tail, head = edge
        if tail not in self._nodes:
            raise UnknownNodeError(tail)
        if head not in self._nodes:
            raise UnknownNodeError(head)
        if tail == head:
            raise ValidationError(f"self-loop on node {tail!r}")
        if (tail, head) in edge_set:
            raise DuplicateEdgeError((tail, head))
        edge_set.add((tail, head))
        children[tail].add(head)
        parents[head].add(tail)
    self._edges = frozenset(edge_set)
    self._parents = {v: frozenset(ps) for v, ps in parents.items()}
    self._children = {v: frozenset(cs) for v, cs in children.items()}
    self._proven_order = None

    indegree = {v: len(self._parents[v]) for v in self._order}
    queue = deque(v for v in self._order if indegree[v] == 0)
    emitted = 0
    while queue:
        v = queue.popleft()
        emitted += 1
        for child in self._children[v]:
            indegree[child] -= 1
            if indegree[child] == 0:
                queue.append(child)
    if emitted != len(self._order):
        # every node left with indegree > 0 sits on or downstream of a cycle;
        # walking parents inside that residue must eventually repeat a node
        residue = {v for v, d in indegree.items() if d > 0}
        v = min(residue)
        trail, seen = [], {}
        while v not in seen:
            seen[v] = len(trail)
            trail.append(v)
            v = min(p for p in self._parents[v] if p in residue)
        cycle = trail[seen[v]:] + [v]
        cycle.reverse()  # parent-walk found it against edge direction
        raise CycleError(cycle)
    return self


def _reference_labels(values):
    return isinstance(values, list) and all(isinstance(v, str) for v in values)


def _reference_edge_pairs(edges, what):
    from causalsumm.cli_io import _require

    _require(isinstance(edges, list), f"{what} needs an 'edges' list")
    for e in edges:
        _require(
            _reference_labels(e) and len(e) == 2,
            f"edge must be a [tail, head] pair of labels: {e}",
        )
    return [tuple(e) for e in edges]


def reference_dag_from_doc(doc):
    """A graph document's ``Dag``, checked one item at a time."""
    from causalsumm.cli_io import _require, _require_version

    _require(isinstance(doc, dict), "graph document must be an object")
    _require_version(doc)
    nodes = doc.get("nodes")
    _require(isinstance(nodes, list), "graph document needs a 'nodes' list")
    return reference_dag(nodes, _reference_edge_pairs(doc.get("edges", []), "graph document"))


def _reference_check_order(g, order, name, owner):
    from causalsumm import ValidationError

    if set(order) != g.node_set or len(order) != g.num_nodes:
        raise ValidationError(f"{name} must be a permutation of the {owner} nodes")
    position = {v: i for i, v in enumerate(order)}
    edge = min(((u, v) for u, v in g.edges if position[u] >= position[v]), default=None)
    if edge is not None:
        u, v = edge
        raise ValidationError(f"{name} is not topological: edge {u} -> {v} goes backwards")


def reference_summary(base, quotient, mapping, base_order, mutilated=False):
    """``SummaryDag(...)``, validated by a scan over every base edge."""
    from causalsumm import SummaryDag, ValidationError

    self = SummaryDag.__new__(SummaryDag)
    self.base = base
    self.quotient = quotient
    self.mapping = dict(mapping)
    self.base_order = tuple(base_order)
    self.mutilated = bool(mutilated)
    self._ordered = None
    _reference_check_order(self.base, self.base_order, "base_order", "base")
    if set(self.mapping) != self.base.node_set:
        raise ValidationError("mapping must be total on the base nodes")
    images = set(self.mapping.values())
    if images != self.quotient.node_set:
        raise ValidationError("mapping must be surjective onto the quotient nodes")
    f, has_edge = self.mapping, self.quotient.has_edge
    bad = ((u, v) for u, v in base.edges if (a := f[u]) != (b := f[v]) and not has_edge(a, b))
    edge = None if self.mutilated else min(bad, default=None)
    if edge is not None:
        u, v = edge
        raise ValidationError(
            f"edge preservation violated: {u} -> {v} has no image "
            f"{self.mapping[u]} -> {self.mapping[v]} in the quotient"
        )
    return self


def reference_summary_from_doc(doc):
    """A summary document's ``SummaryDag``, checked one item at a time."""
    from causalsumm.cli_io import _require, _require_version

    _require(isinstance(doc, dict), "summary document must be an object")
    _require_version(doc)
    for key in ("base", "base_order", "clusters", "edges"):
        _require(key in doc, f"summary document needs {key!r}")
    base = reference_dag_from_doc(doc["base"])
    _require(_reference_labels(doc["base_order"]), "'base_order' must be a list of labels")
    edges = _reference_edge_pairs(doc["edges"], "summary document")
    clusters = doc["clusters"]
    _require(isinstance(clusters, dict), "'clusters' must map label -> members")
    mapping = {}
    for label, members in clusters.items():
        _require(isinstance(members, list), f"cluster {label!r} must be a list of labels")
        _require(members, f"cluster {label!r} is empty")
        _require(_reference_labels(members), f"cluster {label!r} members must be labels")
        for v in members:
            _require(v not in mapping, f"node {v!r} appears in two clusters")
            mapping[v] = label
    # a mutilated summary skips edge preservation, so only JSON true may say so
    mutilated = doc.get("mutilated", False)
    _require(type(mutilated) is bool, "'mutilated' must be true or false")
    quotient = reference_dag(list(clusters), edges)
    return reference_summary(base, quotient, mapping, doc["base_order"], mutilated=mutilated)


def reference_gen_random_dag(spec):
    """``gen_random_dag`` with one scalar draw per forward pair."""
    import numpy as np

    from causalsumm import Dag

    rng = np.random.default_rng(spec.seed)
    width = len(str(spec.n))
    labels = [f"X{i + 1:0{width}d}" for i in range(spec.n)]
    order = [labels[i] for i in rng.permutation(spec.n)]
    edges = []
    for i in range(spec.n):
        for j in range(i + 1, spec.n):
            if rng.random() < spec.density:
                edges.append((order[i], order[j]))
    return Dag(labels, edges)


def reference_perturb(g, add, remove, seed=0):
    """``perturb`` with its slots listed: every forward non-edge of the
    reduced graph's topological order, as pairs, before the draw."""
    import numpy as np

    from causalsumm import Dag, ValidationError, topological_order
    from causalsumm.cagres import _check_seed

    if add < 0 or remove < 0:
        raise ValidationError("add and remove must be non-negative")
    _check_seed(seed)
    rng = np.random.default_rng(seed)

    edges = sorted(g.edges)
    if remove > len(edges):
        raise ValidationError(
            f"cannot remove {remove} edges from a graph with {len(edges)}"
        )
    if remove:
        dropped = set(rng.choice(len(edges), size=remove, replace=False).tolist())
        edges = [e for i, e in enumerate(edges) if i not in dropped]
    reduced = Dag(g.nodes, edges)

    if add:
        order = topological_order(reduced)
        candidates = [
            (u, v)
            for i, u in enumerate(order)
            for v in order[i + 1 :]
            if not reduced.has_edge(u, v)
        ]
        if add > len(candidates):
            raise ValidationError(
                f"cannot add {add} forward edges; only {len(candidates)} slots"
            )
        chosen = rng.choice(len(candidates), size=add, replace=False).tolist()
        edges = edges + [candidates[i] for i in sorted(chosen)]
    return Dag(g.nodes, sorted(edges))


def dag_to_doc(g):
    """The graph document ``save_dag`` writes, as a dict."""
    from causalsumm.cli_io import FORMAT_VERSION

    return {
        "version": FORMAT_VERSION,
        "nodes": list(g.nodes),
        "edges": [list(e) for e in sorted(g.edges)],
    }


def reference_dot(g):
    """The text of ``save_dag(g, "….dot")``: every node in graph order, then
    every edge in sorted order, each label in double quotes with its
    backslashes and double quotes escaped by a backslash."""

    def quote(label):
        return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'

    lines = [f"  {quote(v)};" for v in g.nodes]
    lines += [f"  {quote(u)} -> {quote(v)};" for u, v in sorted(g.edges)]
    return "digraph {\n" + "".join(line + "\n" for line in lines) + "}\n"


def summary_to_doc(h):
    """The summary document ``save_summary`` writes, as a dict."""
    from causalsumm.cli_io import FORMAT_VERSION

    position = {v: i for i, v in enumerate(h.base_order)}
    doc = {
        "version": FORMAT_VERSION,
        "base": dag_to_doc(h.base),
        "base_order": list(h.base_order),
        "clusters": {
            label: sorted(h.members(label), key=position.get)
            for label in h.quotient.nodes
        },
        "edges": [list(e) for e in sorted(h.quotient.edges)],
    }
    if h.mutilated:
        doc["mutilated"] = True
    return doc


def reference_summary_json(h):
    """The text of ``save_summary(h, "….json")``, laid out by ``json.dumps``."""
    import json

    return json.dumps(summary_to_doc(h), indent=2) + "\n"
