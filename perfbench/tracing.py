"""Outside-in tracing of claimtree, driven from the benchmark's side.

The tracer replaces public functions at the module attribute their caller
looks up at call time (``hybrid.fit`` reaches ``grow`` through the
``claimtree.hybrid`` namespace, so the wrapper goes there), records one
span per call and restores every original afterwards. Spans stay in
memory; the runner writes them out when the run ends. No code inside the
package is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a top-level span
    pass_id: str
    counters: dict = field(default_factory=dict)


def _grow_nodes(args, result, exc):
    return {"nodes": len(result.nodes)} if exc is None else {}


def _cd_counts(args, result, exc):
    if exc is not None:
        return {}
    return {"sweeps": int(result.sweeps), "unconverged": int(not result.converged)}


def _ols_counts(args, result, exc):
    # RankDeficiencyError is the one exception hybrid.fit recovers from.
    return {"rank_deficient": int(type(exc).__name__ == "RankDeficiencyError")}


def _fold_failures(args, result, exc):
    return {"fold_failures": len(result.failures)} if exc is None else {}


def _terminal_kinds(args, result, exc):
    if exc is not None:
        return {}
    kinds = [nm.kind for nm in result.node_models.values()]
    return {k: kinds.count(k) for k in ("zero", "mean", "linear")}


def _rows_loaded(args, result, exc):
    return {"rows": result.n} if exc is None else {}


def _rows_saved(args, result, exc):
    return {"rows": args[0].n}


def _rows_predicted(args, result, exc):
    return {"rows": len(result[0])} if exc is None else {}


# (module, attribute, span name, counter reader). soft_threshold is left
# out on purpose: it runs millions of times per lambda.min fit.
TARGETS = [
    ("claimtree.simulate", "simulate", "simulate.simulate", None),
    ("claimtree.cli", "simulate", "simulate.simulate", None),
    ("claimtree.cli", "load_csv", "data.load_csv", _rows_loaded),
    ("claimtree.cli", "save_csv", "data.save_csv", _rows_saved),
    ("claimtree.cart", "feature_matrix", "data.feature_matrix", None),
    ("claimtree.hybrid", "feature_matrix", "data.feature_matrix", None),
    ("claimtree.hybrid", "grow", "cart.grow", _grow_nodes),
    ("claimtree.hybrid", "prune", "cart.prune", None),
    ("claimtree.cart", "Tree.classify_batch", "cart.classify_batch", None),
    ("claimtree.cart", "Tree.classify", "cart.classify", None),
    ("claimtree.hybrid", "fit_ols", "elastic_net.fit_ols", _ols_counts),
    ("claimtree.hybrid", "fit_elastic_net", "elastic_net.fit_elastic_net", None),
    ("claimtree.elastic_net", "lambda_path_cv", "elastic_net.lambda_path_cv", None),
    ("claimtree.elastic_net", "coordinate_descent", "elastic_net.coordinate_descent", _cd_counts),
    ("claimtree.hybrid", "fit", "hybrid.fit", _terminal_kinds),
    ("claimtree.cli", "fit", "hybrid.fit", _terminal_kinds),
    ("claimtree.hybrid", "predict_batch", "hybrid.predict_batch", _rows_predicted),
    ("claimtree.cli", "predict_batch", "hybrid.predict_batch", _rows_predicted),
    ("claimtree.hybrid", "predict", "hybrid.predict", None),
    ("claimtree.hybrid", "save", "hybrid.save", None),
    ("claimtree.cli", "save", "hybrid.save", None),
    ("claimtree.hybrid", "load", "hybrid.load", None),
    ("claimtree.cli", "load", "hybrid.load", None),
    ("claimtree.evaluate", "grid_search", "evaluate.grid_search", None),
    ("claimtree.evaluate", "kfold_cv", "evaluate.kfold_cv", _fold_failures),
    ("claimtree.evaluate", "compute_metrics", "evaluate.compute_metrics", None),
    ("claimtree.cli", "compute_metrics", "evaluate.compute_metrics", None),
]

# Per-layer metrics reported by a traced run, in BENCHMARK.json order.
# Each is (metric name, unit); see perfbench/README.md for the end-to-end
# metric and workload each one should move.
PER_LAYER = [
    ("simulate.simulate.s", "s"),
    ("data.load_csv.calls", "count"),
    ("data.load_csv.s", "s"),
    ("data.load_csv.rows_per_s", "rows/s"),
    ("data.save_csv.s", "s"),
    ("data.save_csv.rows_per_s", "rows/s"),
    ("data.feature_matrix.calls", "count"),
    ("data.feature_matrix.s", "s"),
    ("cart.grow.calls", "count"),
    ("cart.grow.s", "s"),
    ("cart.grow.nodes", "count"),
    ("cart.prune.calls", "count"),
    ("cart.prune.s", "s"),
    ("cart.classify_batch.calls", "count"),
    ("cart.classify_batch.s", "s"),
    ("cart.classify.calls", "count"),
    ("cart.classify.s", "s"),
    ("elastic_net.fit_ols.calls", "count"),
    ("elastic_net.fit_ols.s", "s"),
    ("elastic_net.fit_ols.rank_deficient", "count"),
    ("elastic_net.fit_elastic_net.calls", "count"),
    ("elastic_net.fit_elastic_net.s", "s"),
    ("elastic_net.lambda_path_cv.calls", "count"),
    ("elastic_net.lambda_path_cv.s", "s"),
    ("elastic_net.lambda_path_cv.self_s", "s"),
    ("elastic_net.coordinate_descent.calls", "count"),
    ("elastic_net.coordinate_descent.s", "s"),
    ("elastic_net.coordinate_descent.sweeps", "count"),
    ("elastic_net.coordinate_descent.unconverged", "count"),
    ("hybrid.fit.calls", "count"),
    ("hybrid.fit.s", "s"),
    ("hybrid.fit.self_s", "s"),
    ("hybrid.terminals.zero", "count"),
    ("hybrid.terminals.mean", "count"),
    ("hybrid.terminals.linear", "count"),
    ("hybrid.predict_batch.calls", "count"),
    ("hybrid.predict_batch.s", "s"),
    ("hybrid.predict_batch.rows_per_s", "rows/s"),
    ("hybrid.predict.calls", "count"),
    ("hybrid.predict.s", "s"),
    ("hybrid.predict.p50_us", "us"),
    ("hybrid.predict.p99_us", "us"),
    ("hybrid.save.s", "s"),
    ("hybrid.load.s", "s"),
    ("evaluate.grid_search.s", "s"),
    ("evaluate.kfold_cv.calls", "count"),
    ("evaluate.kfold_cv.s", "s"),
    ("evaluate.kfold_cv.fold_failures", "count"),
    ("evaluate.compute_metrics.s", "s"),
    ("cli.simulate.s", "s"),
    ("cli.simulate.self_s", "s"),
    ("cli.train.s", "s"),
    ("cli.train.self_s", "s"),
    ("cli.predict.s", "s"),
    ("cli.predict.self_s", "s"),
    ("cli.evaluate.s", "s"),
    ("cli.evaluate.self_s", "s"),
    ("cli.nonzero_exits", "count"),
    ("trace.overhead_s", "s"),
]

# Counters read from return values that are reported under another name.
_COUNTER_METRICS = {
    "hybrid.fit.zero": "hybrid.terminals.zero",
    "hybrid.fit.mean": "hybrid.terminals.mean",
    "hybrid.fit.linear": "hybrid.terminals.linear",
    **{f"cli.{cmd}.nonzero_exits": "cli.nonzero_exits"
       for cmd in ("simulate", "train", "predict", "evaluate")},
}


def _resolve(module_name: str, attr_path: str):
    """Return (owner object, attribute name) or None when the target is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, last = attr_path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, last, None)):
        return None
    return owner, last


class Tracer:
    """Collects spans while installed; a fresh tracer records nothing.

    ``span`` marks benchmark-side operations (one CLI command, say) and is
    a no-op unless the tracer is installed, so the same workload code runs
    traced and untraced.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.counter_errors: set[str] = set()
        self.pass_id = ""
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    @property
    def active(self) -> bool:
        return bool(self._originals)

    def install(self) -> None:
        self.missing = []
        for module_name, attr_path, span_name, counts in TARGETS:
            found = _resolve(module_name, attr_path)
            if found is None:
                self.missing.append(f"{module_name}.{attr_path}")
                continue
            owner, attr = found
            original = owner.__dict__.get(attr, getattr(owner, attr))
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(getattr(owner, attr), span_name, counts))

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self, pass_id: str):
        self.pass_id = pass_id
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrap(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, counts, fn, args, kwargs)

        return wrapper

    def _call(self, name, counts, fn, args, kwargs):
        idx = self._open(name)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as e:
            exc = e
            raise
        finally:
            self._close(idx, self._read_counters(name, counts, args, result, exc))

    def _read_counters(self, name, counts, args, result, exc) -> dict:
        # A refactor can change what a function returns; the run goes on
        # without that span's counters and lists the failure.
        if counts is None:
            return {}
        try:
            return counts(args, result, exc)
        except Exception as e:  # noqa: BLE001 - never fail the traced program
            self.counter_errors.add(f"{name}: {type(e).__name__}: {e}")
            return {}

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a benchmark-side span; yields a dict for its counters."""
        counters: dict = {}
        if not self.active:
            yield counters
            return
        idx = self._open(name)
        try:
            yield counters
        finally:
            self._close(idx, counters)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, counters: dict) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.counters = counters
        self._stack.pop()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def layer_metrics(spans: list[Span], pass_ids: set[str]) -> dict[str, float]:
    """Aggregate the spans of the given passes into the PER_LAYER metrics.

    ``self_s`` is a span's duration minus the durations of its direct
    children, which run inside it one after another.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s.pass_id not in pass_ids:
            continue
        dur = s.end - s.start
        for key, value in (("calls", 1), ("s", dur), ("self_s", dur - child_time[i])):
            totals[f"{s.name}.{key}"] = totals.get(f"{s.name}.{key}", 0) + value
        for key, value in s.counters.items():
            metric = f"{s.name}.{key}"
            metric = _COUNTER_METRICS.get(metric, metric)
            totals[metric] = totals.get(metric, 0) + value
    for name in ("data.load_csv", "data.save_csv", "hybrid.predict_batch"):
        secs = totals.get(f"{name}.s", 0.0)
        totals[f"{name}.rows_per_s"] = totals.get(f"{name}.rows", 0) / secs if secs else 0.0
    single = [s.end - s.start for s in spans if s.name == "hybrid.predict" and s.pass_id in pass_ids]
    if single:
        p50, p99 = np.percentile(single, [50, 99]) * 1e6
        totals["hybrid.predict.p50_us"], totals["hybrid.predict.p99_us"] = float(p50), float(p99)
    return {name: totals.get(name, 0) for name, _ in PER_LAYER}
