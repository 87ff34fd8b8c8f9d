"""Tests of the benchmark itself: tracer arithmetic, patching, determinism.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import causalsumm  # noqa: E402
from causalsumm import bench, cagres, cli_io, graph_core, separation, summary  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import METRICS, TARGETS, Tracer  # noqa: E402


def _bindings():
    modules = (causalsumm, bench, cagres, cli_io, graph_core, separation, summary)
    return {(m.__name__, name): value for m in modules for name, value in vars(m).items()} | {
        ("Dag", "__init__"): vars(graph_core.Dag)["__init__"],
        ("SummaryDag", "__init__"): vars(summary.SummaryDag)["__init__"],
    }


def test_self_time_subtracts_wrapped_children_only():
    # root(0..10) calls mid(1..6), which calls leaf(3..4); then root calls
    # leaf(7..9). Root's self time is what its wrapped children leave over.
    ticks = iter([0, 1, 3, 4, 6, 7, 9, 10])
    layers = tuple((name, "", "", (), None, None) for name in ("root", "mid", "leaf"))
    tracer = Tracer(targets=layers, clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    mid = tracer.wrap("mid", leaf)

    def root_body():
        mid()
        leaf()

    root = tracer.wrap("root", root_body)
    tracer.recording = True
    root()
    stats = tracer.stats
    assert [stats[n].calls for n in ("root", "mid", "leaf")] == [1, 1, 2]
    assert stats["root"].self_s == 10 - 5 - 2
    assert stats["mid"].self_s == 5 - 1
    assert stats["leaf"].self_s == 1 + 2


def test_nothing_is_counted_while_not_recording():
    tracer = Tracer(targets=(("f", "", "", (), None, None),))
    f = tracer.wrap("f", lambda x: x + 1)
    assert f(1) == 2
    assert tracer.stats["f"].calls == 0


def test_every_binding_is_wrapped_and_then_restored():
    before = _bindings()
    canonical = summary.canonical
    path_check = graph_core.has_directed_path_len_ge2
    with Tracer():
        for module in (summary, separation, bench, cli_io, causalsumm):
            assert module.canonical.__wrapped__ is canonical
        for module in (graph_core, summary, cagres):
            assert module.has_directed_path_len_ge2.__wrapped__ is path_check
        assert vars(graph_core.Dag)["__init__"].__wrapped__ is before[("Dag", "__init__")]
    assert _bindings() == before


def test_a_missing_function_is_reported_absent():
    extra = (("summary.gone", "summary", "no_such_function", (), None, None),)
    before = _bindings()
    with Tracer(targets=TARGETS + extra) as tracer:
        pass
    assert tracer.absent == ["summary.gone"]
    assert _bindings() == before


def test_counts_repeat_exactly():
    g = causalsumm.gen_random_dag(causalsumm.GenSpec(30, 0.1, 3))
    counts = []
    for _ in range(2):
        with Tracer() as tracer:
            tracer.recording = True
            causalsumm.summarize(g, causalsumm.CagresConfig(k=6, seed=1))
            tracer.recording = False
        counts.append({layer: stat.calls for layer, stat in tracer.stats.items()})
    assert counts[0] == counts[1]
    assert counts[0]["cagres.summarize"] == 1
    assert counts[0]["cagres.is_valid_pair"] > 0
    assert counts[0]["summary.canonical"] == 0


class _Probe:
    """A one-op workload that records which ``canonical`` its op called."""

    name = "probe"

    def __init__(self):
        self.seen = []

    def setup(self):
        pass

    def ops(self):
        def op():
            self.seen.append(causalsumm.canonical)
            return None

        return [workloads.Op("probe", op, lambda result: None)]

    def excess_edges(self):
        return 1

    def report(self, medians):
        return []


def test_untraced_run_calls_unpatched_functions():
    original = causalsumm.canonical
    probe = _Probe()
    run.measure(probe, 0, trace=0)
    assert probe.seen and all(f is original for f in probe.seen)
    probe = _Probe()
    run.measure(probe, 0, trace=1)
    untraced, traced = probe.seen
    assert untraced is original
    assert traced.__wrapped__ is original
    assert causalsumm.canonical is original


def _inputs(cls, seed, tmp_path):
    workload = cls(seed, tmp_path)
    workload.setup()
    if cls is workloads.Summarize:
        graphs = workload.large + workload.small + [workload.constrained]
        return [sorted(g.edges) for g in graphs], workload.run_seeds
    if cls is workloads.Query:
        return [(spec[0],) + spec[2:] for spec in workload.specs]
    return workload.instances


def test_one_seed_gives_identical_inputs_and_another_different(tmp_path):
    for cls in (workloads.Summarize, workloads.Query, workloads.Evaluate):
        first = _inputs(cls, 5, tmp_path)
        assert _inputs(cls, 5, tmp_path) == first
        assert _inputs(cls, 6, tmp_path) != first


def test_benchmark_json_lists_the_emitted_metrics():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(METRICS)
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
