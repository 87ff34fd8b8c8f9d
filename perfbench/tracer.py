"""Per-layer tracing by wrapping the package's functions from outside it.

A ``Tracer`` replaces every module binding of each target function, and
the ``__init__``/``_descendants_map`` methods of ``Dag`` and
``SummaryDag`` on their classes, with a wrapper that counts calls and
self time while ``recording`` is on. ``uninstall`` puts every original
object back. Nothing under ``src/`` is modified, so a change to the
package cannot change what measures it.

The self time of a span is its duration minus the durations of the
wrapped spans it directly encloses; unwrapped callees count as self time.
"""

import functools
import os
import sys
import time

PACKAGE = "causalsumm"


def _size(path):
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index] if len(args) > index else None


# Counters filled at the span boundaries. ``pre`` runs before the call and
# returns a token; ``post`` runs after a call that returned.


def _unbuilt_pre(args, kwargs):
    return getattr(args[0], "_desc_map", None) is None


def _builds_post(stat, result, args, kwargs, unbuilt, parent):
    stat.extra["builds"] += unbuilt


def _edges_post(stat, result, args, kwargs, token, parent):
    stat.extra["edges"] += result.num_edges


def _merges_post(stat, result, args, kwargs, token, parent):
    h = _arg(args, kwargs, 0, "h")
    stat.extra["merges"] += h.quotient.num_nodes - result.quotient.num_nodes


def _valid_post(stat, result, args, kwargs, token, parent):
    if result:
        stat.extra["valid"] += 1
        stat.extra["valid_in_scan"] += parent == "cagres.summarize"


def _load_pre(args, kwargs):
    return _size(_arg(args, kwargs, 0, "path"))


def _load_post(stat, result, args, kwargs, size, parent):
    stat.extra["bytes"] += size


def _save_post(stat, result, args, kwargs, token, parent):
    stat.extra["bytes"] += _size(_arg(args, kwargs, 1, "path"))


#: (layer, module, attribute path, counters, pre hook, post hook)
TARGETS = (
    ("graph_core.Dag", "graph_core", "Dag.__init__", (), None, None),
    ("graph_core.topological_order", "graph_core", "topological_order", (), None, None),
    (
        "graph_core.descendants_map",
        "graph_core",
        "Dag._descendants_map",
        ("builds",),
        _unbuilt_pre,
        _builds_post,
    ),
    (
        "graph_core.has_directed_path_len_ge2",
        "graph_core",
        "has_directed_path_len_ge2",
        (),
        None,
        None,
    ),
    ("summary.SummaryDag", "summary", "SummaryDag.__init__", (), None, None),
    ("summary.contract", "summary", "contract", (), None, None),
    ("summary.canonical", "summary", "canonical", ("edges",), None, _edges_post),
    ("summary.mutilate_summary", "summary", "mutilate_summary", (), None, None),
    (
        "cagres.is_valid_pair",
        "cagres",
        "is_valid_pair",
        ("valid", "valid_in_scan"),
        None,
        _valid_post,
    ),
    ("cagres.get_cost", "cagres", "get_cost", (), None, None),
    ("cagres.invalidate_neighbors", "cagres", "invalidate_neighbors", (), None, None),
    ("cagres.low_cost_merges", "cagres", "low_cost_merges", ("merges",), None, _merges_post),
    ("cagres.summarize", "cagres", "summarize", (), None, None),
    ("separation.d_separated", "separation", "d_separated", (), None, None),
    ("separation.s_separated", "separation", "s_separated", (), None, None),
    ("docalc.rule_applies", "docalc", "rule_applies", (), None, None),
    ("bench.gen_random_dag", "bench", "gen_random_dag", (), None, None),
    ("bench.perturb", "bench", "perturb", (), None, None),
    ("bench.brute_force_summarize", "bench", "brute_force_summarize", (), None, None),
    ("bench.implication_percentage", "bench", "implication_percentage", (), None, None),
    ("bench.random_summarize", "bench", "random_summarize", (), None, None),
    ("cli_io.cli", "cli_io", "cli", (), None, None),
    ("cli_io.load_dag", "cli_io", "load_dag", ("bytes",), _load_pre, _load_post),
    ("cli_io.save_dag", "cli_io", "save_dag", ("bytes",), None, _save_post),
    ("cli_io.load_summary", "cli_io", "load_summary", ("bytes",), _load_pre, _load_post),
    ("cli_io.save_summary", "cli_io", "save_summary", ("bytes",), None, _save_post),
)

#: (metric name, unit) of every per-layer metric, in report order
METRICS = (
    tuple(
        (f"{layer}.{'builds' if 'builds' in counters else 'calls'}", "count")
        for layer, _, _, counters, _, _ in TARGETS
    )
    + tuple((f"{layer}.self_s", "s") for layer, *_ in TARGETS)
    + (
        ("summary.canonical.edges", "count"),
        ("cagres.low_cost_merges.merges", "count"),
        ("cagres.is_valid_pair.valid_ratio", "ratio"),
        ("cagres.cost_cache.hit_ratio", "ratio"),
        ("cli_io.load_dag.bytes", "B"),
        ("cli_io.save_dag.bytes", "B"),
        ("cli_io.load_summary.bytes", "B"),
        ("cli_io.save_summary.bytes", "B"),
        ("trace.overhead_ratio", "ratio"),
    )
)


class Stat:
    __slots__ = ("calls", "self_s", "extra")

    def __init__(self, counters):
        self.calls = 0
        self.self_s = 0.0
        self.extra = dict.fromkeys(counters, 0)


class Tracer:
    """Counts calls and self time of the target layers while ``recording``."""

    def __init__(self, targets=TARGETS, clock=time.perf_counter):
        self.targets = targets
        self.clock = clock
        self.stats = {t[0]: Stat(t[3]) for t in targets}
        self.absent = []
        self.recording = False
        self._stack = []  # one [layer, seconds in wrapped children] per open span
        self._restore = []  # (owner, attribute, original)

    def wrap(self, layer, fn, pre=None, post=None):
        """``fn`` wrapped so that each call while recording is a span of ``layer``."""
        stat = self.stats[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            token = pre(args, kwargs) if pre else None
            parent = self._stack[-1][0] if self._stack else None
            frame = [layer, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
            if post:
                post(stat, result, args, kwargs, token, parent)
            return result

        return traced

    def install(self):
        """Wrap every binding of every target; note targets the package lacks."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for layer, module_name, path, _, pre, post in self.targets:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(owner, owner_path, None)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(layer)
                continue
            wrapper = self.wrap(layer, original, pre, post)
            if owner_path:  # a method: patch it once, on its class
                self._set(owner, attr, wrapper, original)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, name, wrapper, original)

    def _set(self, owner, attr, wrapper, original):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        """Put every original binding back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        try:
            self.install()
        except BaseException:
            self.uninstall()
            raise
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def metrics(self, overhead_ratio):
        """Every metric of ``METRICS`` as {name: value}; absent layers read 0."""
        out = {}
        for layer, stat in self.stats.items():
            if "builds" in stat.extra:
                out[f"{layer}.builds"] = stat.extra["builds"]
            else:
                out[f"{layer}.calls"] = stat.calls
            out[f"{layer}.self_s"] = stat.self_s
        valid = self.stats["cagres.is_valid_pair"]
        scanned = valid.extra["valid_in_scan"]
        out["summary.canonical.edges"] = self.stats["summary.canonical"].extra["edges"]
        out["cagres.low_cost_merges.merges"] = self.stats["cagres.low_cost_merges"].extra[
            "merges"
        ]
        # valid_ratio: valid answers / is_valid_pair calls. hit_ratio: 1 -
        # get_cost calls / valid pairs the summarize scan loop saw. 0 if no base.
        out["cagres.is_valid_pair.valid_ratio"] = (
            valid.extra["valid"] / valid.calls if valid.calls else 0.0
        )
        out["cagres.cost_cache.hit_ratio"] = (
            1.0 - self.stats["cagres.get_cost"].calls / scanned if scanned else 0.0
        )
        for layer in ("load_dag", "save_dag", "load_summary", "save_summary"):
            out[f"cli_io.{layer}.bytes"] = self.stats[f"cli_io.{layer}"].extra["bytes"]
        out["trace.overhead_ratio"] = overhead_ratio
        return out
