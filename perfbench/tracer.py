"""Span tracing of fcco's layers, installed from outside the package.

The solvers reach their helpers through module globals and the problem
oracles through instance attributes, so a traced solve rebinds those names to
timing wrappers and puts the originals back afterwards.  No file of the
package knows about tracing.

A span records its name, parent, start, end and self time: its duration minus
the time its children cover.  Spans are kept in flat arrays in memory and are
summarised, or saved, when a phase of the benchmark ends.
"""

from __future__ import annotations

import sys
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# The layers a solve splits into, named after the package's modules.
SOLVE_LAYERS = ("core", "problems", "penalty", "smoothing", "sonex", "alexr2", "metrics")

# Span name of one metric row (sonex._metric_row, also used by alexr2).
ROW = "metrics.row"

# (span name, module, attribute) of module-level functions.  Every fcco module
# global bound to one of them is rebound, because callers import them by name.
MODULE_FUNCTIONS = (
    ("core.sample_data_batch", "fcco.core", "sample_data_batch"),
    ("core.sample_components", "fcco.core", "sample_components"),
    ("core.ensure_finite", "fcco.core", "ensure_finite"),
    ("smoothing.moreau_grad", "fcco.smoothing", "moreau_grad"),
    ("smoothing.moreau_value", "fcco.smoothing", "moreau_value"),
    ("smoothing.dual_tracker_update", "fcco.smoothing", "dual_tracker_update"),
    ("sonex.gradient_estimate", "fcco.sonex", "gradient_estimate"),
    ("sonex.msvr_update", "fcco.sonex", "msvr_update"),
    ("sonex.momentum_step", "fcco.sonex", "momentum_step"),
    ("sonex.adam_step", "fcco.sonex", "adam_step"),
    ("alexr2.run_inner_alexr", "fcco.alexr2", "run_inner_alexr"),
    ("alexr2.inner_primal_step", "fcco.alexr2", "inner_primal_step"),
    ("alexr2.extrapolated_inner_value", "fcco.alexr2", "extrapolated_inner_value"),
    ("alexr2.outer_momentum_step", "fcco.alexr2", "outer_momentum_step"),
    ("metrics.eval_exact", "fcco.metrics", "eval_exact"),
    ("metrics.stationarity_report", "fcco.metrics", "stationarity_report"),
    (ROW, "fcco.sonex", "_metric_row"),
    ("penalty.kkt_report", "fcco.penalty", "kkt_report"),
    ("penalty.regularity_check", "fcco.penalty", "regularity_check"),
)

# FccoProblem oracle attribute -> ConstrainedProblem oracle behind it on a
# penalty problem.  There the FccoProblem callable is the penalty wrapper.
PENALTY_ORACLES = {
    "inner_value": "constraint_value",
    "inner_vjp": "constraint_grad",
    "inner_exact": "constraint_value_exact",
    "inner_jacobian_exact": "constraint_grad_exact",
}


@dataclass
class SpanStats:
    """Totals per span name over one or more phases."""

    calls: dict = field(default_factory=dict)
    self_s: dict = field(default_factory=dict)
    inclusive_s: dict = field(default_factory=dict)
    calls_in_row: dict = field(default_factory=dict)
    # Self time per solve layer, where everything under a metric row counts
    # to the metrics layer: the stages of one iteration.
    stage_s: dict = field(default_factory=dict)

    def add(self, other: "SpanStats") -> None:
        for mine, theirs in (
            (self.calls, other.calls),
            (self.self_s, other.self_s),
            (self.inclusive_s, other.inclusive_s),
            (self.calls_in_row, other.calls_in_row),
            (self.stage_s, other.stage_s),
        ):
            for key, value in theirs.items():
                mine[key] = mine.get(key, 0) + value


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[list] = []  # [span index, time covered by children]
        self.clear()

    def clear(self) -> None:
        """Drop recorded spans; a new phase starts."""
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1][0] if stack else -1)
            tracer.end.append(0.0)
            tracer.self_time.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            tracer.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - tracer.start[idx]
                tracer.end[idx] = t1
                tracer.self_time[idx] = duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def summary(self) -> SpanStats:
        ids = np.array(self.name_id, dtype=np.int64)
        start = np.array(self.start)
        end = np.array(self.end)
        self_t = np.array(self.self_time)
        width = len(self.names)
        calls = np.bincount(ids, minlength=width)
        self_s = np.bincount(ids, weights=self_t, minlength=width)
        inclusive = np.bincount(ids, weights=end - start, minlength=width)

        # Metric rows never nest, so a span lies in a row when it starts
        # within the last row opened before it and ends before that row does.
        is_row = ids == self._ids.get(ROW, -1)
        row_start, row_end = start[is_row], end[is_row]
        k = np.searchsorted(row_start, start, side="right") - 1
        in_row = (k >= 0) & ~is_row
        in_row[in_row] &= end[in_row] <= row_end[k[in_row]]
        calls_in_row = np.bincount(ids[in_row], minlength=width)

        layers = [n.split(".")[0] for n in self.names]
        layer_index = np.array(
            [SOLVE_LAYERS.index(lay) if lay in SOLVE_LAYERS else -1 for lay in layers],
            dtype=np.int64,
        )
        layer_of = layer_index[ids]
        outside = ~in_row & ~is_row & (layer_of >= 0)
        stage = np.bincount(layer_of[outside], weights=self_t[outside], minlength=len(SOLVE_LAYERS))
        stats = SpanStats(
            calls={n: int(calls[i]) for i, n in enumerate(self.names)},
            self_s={n: float(self_s[i]) for i, n in enumerate(self.names)},
            inclusive_s={n: float(inclusive[i]) for i, n in enumerate(self.names)},
            calls_in_row={n: int(calls_in_row[i]) for i, n in enumerate(self.names)},
            stage_s={layer: float(stage[j]) for j, layer in enumerate(SOLVE_LAYERS)},
        )
        stats.stage_s["metrics"] += float(np.sum(end[is_row] - start[is_row]))
        return stats

    def save(self, path) -> None:
        """Write the recorded spans; times are seconds from the first span."""
        start = np.array(self.start)
        origin = start[0] if len(start) else 0.0
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=start - origin,
            end=np.array(self.end) - origin,
            self_time=np.array(self.self_time),
        )


@contextmanager
def installed(tracer: Tracer, problem, constrained=None):
    """Trace every layer of ``problem``'s solve while the block runs.

    ``constrained`` is the ConstrainedProblem behind a penalty problem; its
    oracles are the problems layer and the FccoProblem callables around them
    are the penalty wrapper.
    """
    undo = []

    def rebind(owner, attr, name):
        original = getattr(owner, attr)
        if original is None:
            return
        setattr(owner, attr, tracer.wrap(name, original))
        undo.append((owner, attr, original))

    try:
        modules = [m for key, m in sys.modules.items() if key == "fcco" or key.startswith("fcco.")]
        for name, module, attr in MODULE_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            traced = tracer.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        undo.append((mod, key, original))
        rebind(sys.modules["fcco.core"].SeededRng, "spawn", "core.spawn")
        for outer_type in {type(o) for o in problem.outers}:
            rebind(outer_type, "prox", "smoothing.prox")
        for attr, inner in PENALTY_ORACLES.items():
            if constrained is None:
                rebind(problem, attr, f"problems.{attr}")
            else:
                rebind(problem, attr, "penalty.wrap")
                rebind(constrained, inner, f"problems.{attr}")
        if problem.additive is not None:
            rebind(problem.additive, "value", "problems.additive_value")
            rebind(problem.additive, "grad", "problems.additive_grad")
            rebind(problem.additive, "grad_exact", "problems.additive_grad")
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
