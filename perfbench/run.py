"""Run one workload of the causalsumm benchmark and print its metrics.

    python3 perfbench/run.py --workload summarize --seed 1 --seconds 25 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. ``--workload all`` runs every
workload, each in its own process, and prints all their lines.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones of ``BENCHMARK.json``: the seed's operation list runs once
in full, then again from the top until ``--seconds`` have passed, and each
operation is reported at the median of its samples. With ``--trace 1`` the
list runs exactly twice, untraced and then traced, and the metrics are the
per-layer counters and self times of the traced pass plus the ratio of the
two passes' wall times. See README.md for the workloads and metrics.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("summarize", "query", "evaluate")
SETUP_REPEATS = 5
#: a seed kept out of tuning, for checking a later claim on fresh inputs
HELD_OUT_SEED = 1009

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("work_s", "s"),
    ("excess_edges", "count"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context():
    import numpy

    loc = sum(
        1
        for path in sorted((SRC / "causalsumm").rglob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "package_loc": loc,
        "held_out_seed": HELD_OUT_SEED,
    }


class Runner:
    """Times ops one at a time, checks each result, and keeps the tallies."""

    def __init__(self, ops):
        self.ops = ops
        self.samples = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def run(self, index, tracer=None):
        """Run op ``index`` once; returns its wall time, or 0 if it failed."""
        op = self.ops[index]
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is not None:
                tracer.recording = True
            try:
                result = op.run()
            finally:
                if tracer is not None:
                    tracer.recording = False
            elapsed = time.perf_counter() - start
            error = op.check(result)
        except Exception as exc:  # a failing op is counted, and the run goes on
            error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.label}[{index}]: {error}")
            return 0.0
        self.samples[index].append(elapsed)
        return elapsed

    def medians(self):
        return [(op, statistics.median(s)) for op, s in zip(self.ops, self.samples) if s]


def measure(workload, seconds, trace):
    """Set up, run and check ``workload``; returns (metrics, runner, report)."""
    from tracer import METRICS, Tracer

    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    runner = Runner(workload.ops())
    count = len(runner.ops)
    if trace:
        untraced = sum(runner.run(i) for i in range(count))
        report = workload.report(runner.medians())
        with Tracer() as tracer:
            traced = sum(runner.run(i, tracer) for i in range(count))
        values = tracer.metrics(traced / untraced if untraced else 0.0)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in METRICS}
        if tracer.absent:
            report.append(("absent_layers", len(tracer.absent), "count", ", ".join(tracer.absent)))
    else:
        deadline = time.perf_counter() + seconds
        done = 0
        while done < count or time.perf_counter() < deadline:
            runner.run(done % count)
            done += 1
        report = workload.report(runner.medians())
        values = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "work_s": sum(t for _, t in runner.medians()),
            "excess_edges": workload.excess_edges(),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, runner, report


def run_all(args):
    """Every workload in its own process (so peak RSS stays per workload)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        argv += ["--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "causalsumm" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/causalsumm", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))  # ahead of any installed copy
    import workloads

    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        metrics, runner, report = measure(workload, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    print(
        f"causalsumm benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("context " + json.dumps(context()))
    for name, value, unit, note in report:
        print(f"  {name} = {value:.6g} {unit} ({note})")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{args.workload}: attempted {runner.attempted} failed {runner.failed}")
    for error in runner.errors[:20]:
        print(f"  FAILED {error}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
