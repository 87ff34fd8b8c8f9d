"""The benchmark's three workloads: inputs from a seed, timed operations, checks.

Each workload builds its inputs in ``setup`` (untimed; the driver times it
as ``setup_s``), exposes a fixed list of ``Op``s derived from the seed, and
checks every result outside the timed region. The operations call only the
package's public functions and its in-process ``cli()`` entry point, and
look each one up on its module at call time, so that a tracer's wrapper is
what they call.
"""

import contextlib
import hashlib
import io
import json
import random
import statistics
from pathlib import Path

import numpy as np

import causalsumm
from causalsumm import (
    CagresConfig,
    Dag,
    GenSpec,
    SeparationQuery,
    SimilarityMatrix,
    SummaryDag,
    additional_edges,
    d_separated,
    gen_random_dag,
    is_compatible,
    mutilate,
    save_summary,
    topological_order,
)
from causalsumm import cli_io

HERE = Path(__file__).resolve().parent
EXPECTED_QUERY = HERE / "expected_query.json"


class Op:
    """One timed call: ``run()`` is timed, ``check(result)`` returns an error or None."""

    __slots__ = ("label", "run", "check")

    def __init__(self, label, run, check):
        self.label = label
        self.run = run
        self.check = check


def run_cli(argv):
    """``cli(argv)`` in this process, with stdout and stderr kept in buffers."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_io.cli([str(a) for a in argv])
    return code, out.getvalue(), err.getvalue()


def _seeds(rng, count):
    return [rng.randrange(2**31) for _ in range(count)]


# --- summarize ---------------------------------------------------------------

LARGE_N = 150
LARGE_PER_DENSITY = 4
SMALL_N = 60
SMALL_PER_DENSITY = 8
RANDOM_COUNT = 2
SIMILARITY_GROUPS = 8
TAU = 0.5


def grouped_similarity(g, groups=SIMILARITY_GROUPS):
    """Similarity 1 within contiguous blocks of ``topological_order(g)``, 0.3 across."""
    order = topological_order(g)
    group = {v: i * groups // len(order) for i, v in enumerate(order)}
    codes = np.array([group[v] for v in g.nodes])
    values = np.where(codes[:, None] == codes[None, :], 1.0, 0.3)
    return SimilarityMatrix(g.nodes, values, TAU)


class Summarize:
    """Greedy ``summarize`` and ``random_summarize`` on ``gen_random_dag`` instances."""

    name = "summarize"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.quality = {}

    def setup(self):
        rng = random.Random(f"summarize:{self.seed}")

        def graphs(n, count):
            return [
                gen_random_dag(GenSpec(n, d / n, s))
                for s in _seeds(rng, count)
                for d in (2, 4)
            ]

        self.large = graphs(LARGE_N, LARGE_PER_DENSITY)
        self.small = graphs(SMALL_N, SMALL_PER_DENSITY)
        self.constrained = gen_random_dag(GenSpec(LARGE_N, 4 / LARGE_N, _seeds(rng, 1)[0]))
        self.similarity = grouped_similarity(self.constrained)
        self.run_seeds = _seeds(rng, len(self.large) + len(self.small) + 1 + RANDOM_COUNT)

    def ops(self):
        k_large, k_small = LARGE_N // 5, SMALL_N // 5
        seeds = iter(self.run_seeds)
        ops = []
        for label, gs, k in (("large", self.large, k_large), ("small", self.small, k_small)):
            for g in gs:
                cfg = CagresConfig(k=k, seed=next(seeds))
                ops.append(self._greedy(label, g, cfg, len(ops)))
        g = self.constrained
        cfg = CagresConfig(k=k_large, seed=next(seeds), similarity=self.similarity)
        ops.append(self._greedy("constrained", g, cfg, len(ops)))
        # the random baseline on the denser half of the large set
        for g in self.large[1::2][:RANDOM_COUNT]:
            s = next(seeds)
            ops.append(
                Op(
                    "random",
                    lambda g=g, s=s: causalsumm.random_summarize(g, k_large, seed=s),
                    lambda h, g=g: _check_summary(g, h, k_large),
                )
            )
        return ops

    def _greedy(self, label, g, cfg, index):
        def check(h):
            error = _check_summary(g, h, cfg.k)
            if error is None and cfg.similarity is not None:
                error = _check_similarity(h, cfg.similarity)
            if error is None:
                self.quality[index] = additional_edges(h)
            return error

        return Op(label, lambda: causalsumm.summarize(g, cfg), check)

    def excess_edges(self):
        return sum(self.quality.values())

    def report(self, medians):
        def mean(label):
            values = [t for op, t in medians if op.label == label]
            return sum(values) / max(len(values), 1), len(values)

        large, n_large = mean("large")
        small, n_small = mean("small")
        constrained, _ = mean("constrained")
        rand, n_rand = mean("random")
        return [
            ("summarize.large_s", large, "s", f"mean over {n_large} graphs, n={LARGE_N}"),
            ("summarize.small_ms", small * 1e3, "ms", f"mean over {n_small} graphs, n={SMALL_N}"),
            ("summarize.constrained_s", constrained, "s", f"n={LARGE_N}, tau={TAU}"),
            ("summarize.random_s", rand, "s", f"mean over {n_rand} graphs, n={LARGE_N}"),
            ("summarize.additional_edges", self.excess_edges(), "count", "greedy summaries"),
        ]


def _check_summary(g, h, k):
    if h.quotient.num_nodes != k:
        return f"{h.quotient.num_nodes} clusters, expected {k}"
    if not is_compatible(g, h):
        return "summary is not compatible with its graph"
    return None


def _check_similarity(h, similarity):
    for members in h.clusters.values():
        for u in members:
            for v in members:
                if similarity.sim(u, v) < similarity.threshold:
                    return f"cluster joins {u} and {v} below the similarity threshold"
    return None


# --- query ---------------------------------------------------------------------

QUERY_N = 800
QUERY_CLUSTERS = (8, 32)
SSEP_PER_SUMMARY = 3
DOCALC_RULES = ("r1", "r2", "r3")


def block_summary(g, order, clusters):
    """The summary whose clusters are contiguous blocks of ``order``."""
    labels = [f"C{i:02d}" for i in range(clusters)]
    mapping = {v: labels[i * clusters // len(order)] for i, v in enumerate(order)}
    edges = {(mapping[u], mapping[v]) for u, v in g.edges if mapping[u] != mapping[v]}
    return SummaryDag(g, Dag(labels, sorted(edges)), mapping, order)


def quotient_rule_applies(h, rule, y, z, x, w):
    """Do-calculus rule check by d-separation on the mutilated quotient."""
    q = h.quotient
    if rule == "r1":
        host = mutilate(q, x, ())
    elif rule == "r2":
        host = mutilate(q, x, z)
    else:
        zw = z - mutilate(q, x, ()).ancestors(w)
        host = mutilate(q, x | zw, ())
    return d_separated(host, SeparationQuery(y, z, x | w))


def canonical_json(h):
    """The bytes ``canonical --out FILE.json`` must write, and their edge count.

    Built from the definition of the canonical DAG, not from ``canonical``.
    """
    position = {v: i for i, v in enumerate(h.base_order)}
    members = {c: sorted(vs, key=position.get) for c, vs in h.clusters.items()}
    edges = set(h.base.edges)
    for cu, cv in h.quotient.edges:
        edges.update((u, v) for u in members[cu] for v in members[cv])
    for ordered in members.values():
        edges.update((u, v) for i, u in enumerate(ordered) for v in ordered[i + 1 :])
    doc = {
        "version": 1,
        "nodes": list(h.base_order),
        "edges": [list(e) for e in sorted(edges)],
    }
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8"), len(edges)


def load_expected():
    """Recorded answers by seed; empty while the file is being regenerated."""
    try:
        with open(EXPECTED_QUERY, encoding="utf-8") as fh:
            return json.load(fh)["answers"]
    except FileNotFoundError:
        return {}


class Query:
    """s-separation, do-calculus and canonical export through ``cli()``."""

    name = "query"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out = Path(workdir) / "canonical.json"
        self.workdir = Path(workdir)
        self.expected = load_expected().get(str(seed))
        self.reference = {}

    def setup(self):
        rng = random.Random(f"query:{self.seed}")
        g = gen_random_dag(GenSpec(QUERY_N, 4 / QUERY_N, _seeds(rng, 1)[0]))
        order = topological_order(g)
        self.summaries = {}
        self.specs = []
        for clusters in QUERY_CLUSTERS:
            h = block_summary(g, order, clusters)
            path = self.workdir / f"summary_{clusters}.json"
            save_summary(h, path)
            self.summaries[path] = h
            q = h.quotient
            labels = list(q.nodes)  # in topological order
            unlinked = [
                (x, y)
                for i, y in enumerate(labels)
                for x in labels[:i]
                if x not in q.parents(y)
            ]
            for i in range(SSEP_PER_SUMMARY):
                if i == 0 and unlinked:
                    # x precedes y but is not its parent, so y's parents
                    # separate them (the local Markov property)
                    x, y = rng.choice(unlinked)
                    z = q.parents(y)
                else:
                    x, y, *z = rng.sample(labels, 2 + rng.randrange(3))
                self.specs.append(("ssep", path, x, y, ",".join(sorted(z)), ""))
            for rule in DOCALC_RULES:
                y, z, *xw = rng.sample(labels, 4)
                x, w = (c if rng.random() < 0.5 else "" for c in xw)
                self.specs.append((rule, path, y, z, x, w))
        self.specs.append(("export", next(iter(self.summaries)), "", "", "", ""))

    def ops(self):
        ops = []
        for index, spec in enumerate(self.specs):
            kind, path, a, b, c, d = spec
            if kind == "ssep":
                argv = ["query", "--in", path, "--mode", "ssep", "--x", a, "--y", b, "--z", c]
                label = "ssep"
            elif kind == "export":
                argv = ["canonical", "--in", path, "--out", self.out]
                label = "export"
            else:
                argv = ["docalc", "--in", path, "--rule", kind, "--y", a, "--z", b]
                argv += ["--x", c, "--w", d]
                label = "docalc"
            ops.append(
                Op(
                    label,
                    lambda argv=argv: run_cli(argv),
                    lambda result, i=index: self._check(i, result),
                )
            )
        return ops

    def answer(self, index, result):
        """The answer an op gave, as recorded in ``expected_query.json``."""
        code, stdout, stderr = result
        kind = self.specs[index][0]
        if kind == "ssep":
            if code != (0 if stdout.strip() == "SEPARATED" else 1):
                return f"exit {code}: {stdout.strip()} {stderr.strip()}"
            return stdout.strip()
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        if kind == "export":
            return "sha256:" + hashlib.sha256(self.out.read_bytes()).hexdigest()
        return stdout.strip()

    def reference_answer(self, index):
        """The answer derived from the definitions, independently of the checked path."""
        if index not in self.reference:
            kind, path, a, b, c, d = self.specs[index]
            h = self.summaries[path]
            sets = [frozenset(s.split(",")) if s else frozenset() for s in (a, b, c, d)]
            if kind == "ssep":
                q = SeparationQuery(*sets[:3])
                answer = "SEPARATED" if d_separated(h.quotient, q) else "CONNECTED"
            elif kind == "export":
                data, edges = canonical_json(h)
                answer = "sha256:" + hashlib.sha256(data).hexdigest()
                self.export_excess = edges - h.base.num_edges
            else:
                applies = quotient_rule_applies(h, kind, *sets)
                answer = "APPLIES SEPARATED" if applies else "NOT-APPLICABLE CONNECTED"
            self.reference[index] = answer
        return self.reference[index]

    def _check(self, index, result):
        answer = self.answer(index, result)
        if answer != self.reference_answer(index):
            return f"answer {answer!r}, definition gives {self.reference_answer(index)!r}"
        if self.expected is not None and answer != self.expected[index]:
            return f"answer {answer!r}, expected_query.json has {self.expected[index]!r}"
        return None

    def excess_edges(self):
        self.reference_answer(len(self.specs) - 1)  # the export, last in the list
        return self.export_excess

    def report(self, medians):
        def times(label):
            return [t for op, t in medians if op.label == label]

        ssep, docalc, export = times("ssep"), times("docalc"), times("export")
        return [
            ("query.ssep_ms", median(ssep) * 1e3, "ms", f"median of {len(ssep)} queries"),
            ("query.docalc_ms", median(docalc) * 1e3, "ms", f"median of {len(docalc)} queries"),
            ("query.export_s", median(export), "s", f"median of {len(export)} exports"),
        ]


# --- evaluate ------------------------------------------------------------------

EVAL_INSTANCES = 200
EVAL_DENSITY = 0.35
#: one instance in this many has n=9; the rest alternate n=7 and n=8
EVAL_N9_EVERY = 20


class Evaluate:
    """The paper's evaluation loop through ``cli()``, one small instance at a time."""

    name = "evaluate"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self.edges = {}

    def setup(self):
        rng = random.Random(f"evaluate:{self.seed}")
        self.instances = []
        for i in range(EVAL_INSTANCES):
            # brute force at n=9 takes 0.15-0.9 s, so more n=9 instances
            # would dominate both the time and its spread across seeds
            n = 9 if i % EVAL_N9_EVERY == EVAL_N9_EVERY - 1 else 7 + i % 2
            s = rng.randrange(2**31)
            # perturb removes an edge, so every instance needs one
            while not gen_random_dag(GenSpec(n, EVAL_DENSITY, s)).num_edges:
                s = rng.randrange(2**31)
            self.instances.append((n, s))
        # first calls pay one-off costs (argparse, regexes); users pay them once
        self.instance(8, 0)

    def instance(self, n, s):
        k = n // 2
        g, exact, greedy, perturbed, greedy2 = (
            self.workdir / f"{name}.json"
            for name in ("g", "exact", "greedy", "perturbed", "greedy2")
        )
        calls = [
            ["gen", "--n", n, "--density", EVAL_DENSITY, "--seed", s, "--out", g],
            ["bruteforce", "--in", g, "--k", k, "--out", exact],
            ["summarize", "--in", g, "--k", k, "--seed", s, "--out", greedy],
            ["metrics", "--a", greedy, "--b", exact],
            ["rb", "--in", greedy],
            ["perturb", "--in", g, "--add", 2, "--remove", 1, "--seed", s, "--out", perturbed],
            ["summarize", "--in", perturbed, "--k", k, "--seed", s, "--out", greedy2],
        ]
        return [(argv[0], run_cli(argv)) for argv in calls]

    def ops(self):
        return [
            Op(
                "instance",
                lambda n=n, s=s: self.instance(n, s),
                lambda result, i=i: self._check(i, result),
            )
            for i, (n, s) in enumerate(self.instances)
        ]

    def _check(self, index, result):
        for command, (code, stdout, stderr) in result:
            if code != 0:
                return f"{command} exited {code}: {stderr.strip()}"
        metrics = dict(result)["metrics"][1].strip().split(",")
        greedy, exact = int(metrics[2]), int(metrics[3])
        if exact > greedy:
            return f"exhaustive {exact} > greedy {greedy} additional edges"
        self.edges[index] = (greedy, exact)
        return None

    def excess_edges(self):
        return sum(greedy for greedy, _ in self.edges.values())

    def report(self, medians):
        values = [t for _, t in medians]
        excess = sum(greedy - exact for greedy, exact in self.edges.values())
        return [
            ("evaluate.instance_p50_ms", median(values) * 1e3, "ms", f"{len(values)} instances"),
            ("evaluate.instance_p90_ms", p90(values) * 1e3, "ms", f"{len(values)} instances"),
            ("evaluate.greedy_excess_edges", excess, "count", "sum of greedy - exhaustive"),
        ]


def median(values):
    return statistics.median(values) if values else 0.0


def p90(values):
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


WORKLOADS = {w.name: w for w in (Summarize, Query, Evaluate)}
