"""The acceptance gate: ten end-to-end checks, one verdict line each.

Every test prints ``ACCEPTANCE <n> <PASS|FAIL> (<seconds>) <label>`` with
capture suspended, so the verdicts stay visible on the real stdout no
matter how pytest was invoked. A criterion fails if its check fails or
its runtime budget is exceeded.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations
from math import ceil

import pytest

from causalsumm import (
    CagresConfig,
    CycleError,
    Dag,
    GenSpec,
    SeparationQuery,
    additional_edges,
    brute_force_summarize,
    canonical,
    contract,
    d_separated,
    gen_random_dag,
    get_cost,
    ground_ci,
    is_compatible,
    is_valid_pair,
    load_dag,
    random_summarize,
    summarize,
    summary_recursive_basis,
    topological_order,
    trivial_summary,
)
from causalsumm.cli_io import cli
from oracles import (
    all_dags,
    d_separated_oracle,
    naive_contraction_is_cyclic,
    partition_summary,
    reference_summarize,
)
from test_summary import _random_summary

DENSITIES = (0.2, 0.5, 0.8)


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def run(number, label, budget=None):
        def emit(verdict, elapsed):
            with capsys.disabled():
                print(
                    f"ACCEPTANCE {number:>2} {verdict} ({elapsed:.2f}s) {label}",
                    flush=True,
                )

        start = time.perf_counter()
        try:
            yield
        except BaseException:
            emit("FAIL", time.perf_counter() - start)
            raise
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            emit("FAIL", elapsed)
            pytest.fail(f"runtime {elapsed:.2f}s exceeds the {budget}s budget")
        emit("PASS", elapsed)

    return run


def _stmt(x, y, z):
    return (frozenset(x), frozenset(y), frozenset(z))


def _parse_rb_line(line):
    parts = [p.strip() for p in line.split("|")]
    return tuple(frozenset(p.split(",")) if p else frozenset() for p in parts)


def test_criterion_01_recursive_bases(criterion, fixtures_dir, capsys):
    expected = {
        "g1.json": {_stmt("C", "B", "A"), _stmt("D", "A", "BC"), _stmt("E", "ABC", "D")},
        "h1.json": {_stmt("D", "A", "BC"), _stmt("E", "ABC", "D")},
        "h3.json": {_stmt("E", "ABC", "D")},
        "h4.json": {_stmt("DE", "A", "BC")},
    }
    with criterion(1, "recursive bases of the worked summaries via rb", budget=1.0):
        for name, want in expected.items():
            assert cli(["rb", "--in", str(fixtures_dir / name)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert {_parse_rb_line(line) for line in lines} == want, name


def test_criterion_02_canonical_grounding(criterion, fixtures_dir, h3):
    with criterion(2, "canonical DAG of the three-cluster summary"):
        want = Dag(
            "ABCDE",
            [
                ("A", "B"),
                ("A", "C"),
                ("A", "D"),
                ("B", "C"),
                ("B", "D"),
                ("C", "D"),
                ("D", "E"),
            ],
        )
        assert canonical(h3) == want
        assert canonical(h3) == load_dag(fixtures_dir / "h3_canonical.json")
        assert additional_edges(h3) == 2


def test_criterion_03_cost_exactness(criterion):
    with criterion(3, "merge cost equals the canonical edge delta", budget=60.0):
        for i in range(500):
            g = gen_random_dag(GenSpec(n=4 + i % 7, density=DENSITIES[i % 3], seed=i))
            rng = random.Random(i)
            h = trivial_summary(g)
            while h.quotient.num_nodes > 1:
                labels = sorted(h.quotient.nodes)
                valid = [
                    (a, b)
                    for a, b in combinations(labels, 2)
                    if is_valid_pair(h, a, b)
                ]
                before = additional_edges(h)
                for a, b in valid:
                    merged = contract(h, a, b)
                    assert get_cost(h, a, b) == additional_edges(merged) - before
                h = contract(h, *rng.choice(valid))


def test_criterion_04_separation_oracle_equivalence(criterion):
    with criterion(4, "reachability d-separation matches the trail oracle"):
        count = 0
        for labels, edges in all_dags("ABCD"):
            count += 1
            g = Dag(labels, edges)
            for x, y in combinations(labels, 2):
                others = [v for v in labels if v not in (x, y)]
                for r in range(3):
                    for z in combinations(others, r):
                        q = SeparationQuery({x}, {y}, set(z))
                        assert d_separated(g, q) == d_separated_oracle(g, q)
        assert count == 543


def test_criterion_05_summary_ci_soundness(criterion):
    label = "summary CIs hold in the canonical DAG and transfer to the base"
    with criterion(5, label):
        for seed in range(200):
            spec = GenSpec(n=3 + seed % 5, density=DENSITIES[seed % 3], seed=seed)
            g = gen_random_dag(spec)
            rng = random.Random(seed)
            h = _random_summary(g, rng)
            canon = canonical(h)
            for s in summary_recursive_basis(h):
                grounded = ground_ci(h, s)
                assert d_separated(canon, SeparationQuery(grounded.x, grounded.y, grounded.z))
            nodes = sorted(g.node_set)
            for x, y in combinations(nodes, 2):
                others = [v for v in nodes if v not in (x, y)]
                for _ in range(2):
                    z = rng.sample(others, rng.randrange(len(others) + 1))
                    q = SeparationQuery({x}, {y}, set(z))
                    if d_separated(canon, q):
                        assert d_separated(g, q)


def test_criterion_06_contraction_cycle_predicate(criterion):
    with criterion(6, "contraction cycle check matches brute-force detection"):
        for seed in range(200):
            spec = GenSpec(n=3 + seed % 4, density=DENSITIES[seed % 3], seed=seed)
            g = gen_random_dag(spec)
            h = trivial_summary(g)
            for a, b in combinations(sorted(g.node_set), 2):
                try:
                    contract(h, a, b)
                    cyclic = False
                except CycleError:
                    cyclic = True
                assert cyclic == naive_contraction_is_cyclic(g, a, b)


def test_criterion_07_greedy_between_exact_and_random(criterion):
    with criterion(7, "greedy beats random and never beats exhaustive"):
        wins = 0
        for i in range(100):
            n = 4 + i % 5
            k = ceil(n / 2)
            g = gen_random_dag(GenSpec(n=n, density=DENSITIES[i % 3], seed=i))
            exact = additional_edges(brute_force_summarize(g, k))
            greedy = additional_edges(summarize(g, CagresConfig(k=k, seed=i)))
            assert exact <= greedy
            mean = (
                sum(
                    additional_edges(random_summarize(g, k, seed=s))
                    for s in range(10)
                )
                / 10
            )
            wins += greedy <= mean
        assert wins >= 80, f"greedy matched the random baseline on only {wins}/100"


def test_criterion_08_redshift_end_to_end(criterion, redshift):
    with criterion(8, "12-node workload summary beats the reference partition", budget=5.0):
        # a hand-built five-cluster partition of the workload graph
        blocks = [
            ["QueryTemplate", "ReturnedRows", "ReturnedBytes", "NumColumns"],
            ["NumJoins", "NumTables"],
            ["ResultCacheHit", "ExecTime"],
            ["PlanTime", "LockWaitTime"],
            ["CompileTime", "ElapsedTime"],
        ]
        order = topological_order(redshift)
        reference = additional_edges(partition_summary(redshift, order, blocks))
        assert reference == 23
        h = summarize(redshift, CagresConfig(k=5))
        assert h.base == redshift
        assert h.quotient.num_nodes == 5
        assert is_compatible(redshift, h)
        assert additional_edges(h) <= reference


def test_criterion_09_ablations(criterion):
    cells = [
        (n, density, seed)
        for n in (20, 30, 40)
        for density in (0.2, 0.4)
        for seed in (0, 1, 2)
    ]

    def sweep(summarizer):
        out = {}
        for n, density, seed in cells:
            g = gen_random_dag(GenSpec(n=n, density=density, seed=seed))
            out[(n, density, seed)] = summarizer(g, CagresConfig(k=n // 2, seed=seed))
        return out

    def timed(summarizer, only_n):
        chosen = [c for c in cells if c[0] == only_n]
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            for n, density, seed in chosen:
                g = gen_random_dag(GenSpec(n=n, density=density, seed=seed))
                summarizer(g, CagresConfig(k=n // 2, seed=seed))
            best = min(best, time.perf_counter() - start)
        return best

    label = "the engine changes runtime, never the summary"
    with criterion(9, label):
        assert sweep(summarize) == sweep(reference_summarize)
        engine, rescan = timed(summarize, 40), timed(reference_summarize, 40)
        assert engine <= rescan, f"{engine:.3f}s vs {rescan:.3f}s for the rescan"


def test_criterion_10_determinism(criterion, fixtures_dir, tmp_path, capsys):
    g1 = str(fixtures_dir / "g1.json")
    h1 = str(fixtures_dir / "h1.json")
    h2 = str(fixtures_dir / "h2.json")
    red = str(fixtures_dir / "redshift.json")

    def twice(args, out_arg=False):
        # the second run writes over the first run's path, after it has been
        # filled with a longer file: a rewrite must leave no old tail
        outputs = []
        path = tmp_path / f"{abs(hash(tuple(args)))}.json"
        for run in ("x", "y"):
            argv = list(args)
            if out_arg:
                if outputs:
                    path.write_bytes(outputs[0][1] * 2 + b"old tail\n")
                argv += ["--out", str(path)]
            code = cli(argv)
            text = capsys.readouterr().out
            outputs.append((code, path.read_bytes() if out_arg else text))
        assert outputs[0] == outputs[1], args[0]
        return outputs[0]

    with criterion(10, "identical invocations are byte-identical, all subcommands"):
        code, gen_bytes = twice(["gen", "--n", "8", "--density", "0.4", "--seed", "2"],
                                out_arg=True)
        assert code == 0
        src = tmp_path / "src.json"
        src.write_bytes(gen_bytes)
        twice(["summarize", "--in", str(src), "--k", "3", "--seed", "1"], out_arg=True)
        twice(["canonical", "--in", h1], out_arg=True)
        twice(["bruteforce", "--in", g1, "--k", "4"], out_arg=True)
        twice(["perturb", "--in", red, "--add", "2", "--remove", "1", "--seed", "5"],
              out_arg=True)
        twice(["rb", "--in", h1])
        twice(["query", "--in", g1, "--mode", "dsep", "--x", "E", "--y", "A", "--z", "D"])
        twice(["docalc", "--in", h1, "--rule", "r1", "--y", "E", "--z", "A", "--w", "D"])
        twice(["metrics", "--a", h1, "--b", h2])
