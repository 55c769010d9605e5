"""Span tracer that wraps the public functions of each mtunlearn layer.

The tracer replaces every module-level binding of a wrapped function, in
every ``mtunlearn`` module, with a timing wrapper, so calls that reach a
function through ``from .linalg import solve_spd`` are seen as well as
calls through ``linalg.solve_spd``. Spans nest: a span's self time is its
duration minus the time covered by the spans it caused. Spans are folded
into per-op totals as they close, so memory does not grow with the op.

Work counters are recorded at the same boundaries as the spans.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

PACKAGE = "mtunlearn"

# Layer -> functions timed as spans. Every name is a public function of
# the layer's module.
TIMED = {
    "cli": ("main", "checkpoint_to_json", "trace_to_json", "write_manifest"),
    "data": ("generate_synthetic", "default_forget_split", "problem_to_json"),
    "model": ("train_reference", "subset_gradient", "subset_loss"),
    "subspace": ("init_subspaces", "regularize_step"),
    "surgery": (
        "project_pair",
        "sequential_orthogonalize",
        "orthogonalize",
        "apply_update",
    ),
    "unlearn": ("run_unlearning",),
    "evaluation": ("evaluate", "per_instance_losses", "mia_auc", "uis"),
    "linalg": ("orthonormalize", "solve_spd"),
    "theory": (
        "check_first_order_interference",
        "check_aggregation_linearity",
        "check_optimal_direction",
        "check_projection_bound",
        "check_orthogonalization_identity",
        "predict_interference",
    ),
}
LAYERS = tuple(TIMED)

# Functions only counted, not timed: they run tens of thousands of times
# per op and take about a microsecond each, so a span would mostly
# measure the tracer.
COUNTED = {"linalg": ("as_matrix",)}


def _pairs_in(args, kwargs, result):
    return {"model.pairs_in": len(args[2] if len(args) > 2 else kwargs["pairs"])}


def _pairs_compared(args, kwargs, result):
    return {"evaluation.mia_auc.pairs_compared": len(args[0]) * len(args[1])}


def _epochs(args, kwargs, result):
    trace = result[1]
    return {
        "unlearn.epochs_run": len(trace.records) - 1,
        "unlearn.selected_epochs": trace.selected_epoch,
    }


WORK = {
    "model.subset_gradient": _pairs_in,
    "model.subset_loss": _pairs_in,
    "evaluation.mia_auc": _pairs_compared,
    "unlearn.run_unlearning": _epochs,
}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TIMED.items() for fn in fns]


class Tracer:
    """Installs wrappers on the ``mtunlearn`` package and folds spans per op."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.work = defaultdict(int)
        self._stack: list[list[float]] = []  # [start, child seconds]
        self._restore: list[tuple[object, str, object]] = []

    def reset(self):
        """Start a new op: clear the per-op totals."""
        self.calls.clear()
        self.self_s.clear()
        self.work.clear()

    def _timed(self, name, fn):
        work = WORK.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += duration
                self.calls[name] += 1
                self.self_s[name] += duration - frame[1]
            if work is not None:
                for key, amount in work(args, kwargs, result).items():
                    self.work[key] += amount
            return result

        return wrapper

    def _counted(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every binding of every traced function in the package."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = [
            m
            for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for table, make in ((TIMED, self._timed), (COUNTED, self._counted)):
            for layer, fns in table.items():
                home = sys.modules[f"{PACKAGE}.{layer}"]
                for fn_name in fns:
                    original = getattr(home, fn_name)
                    wrapper = make(f"{layer}.{fn_name}", original)
                    for module in modules:
                        for attr, value in list(vars(module).items()):
                            if value is original:
                                self._restore.append((module, attr, original))
                                setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def layer_self_s(self) -> dict[str, float]:
        totals = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            totals[name.split(".", 1)[0]] += seconds
        return totals

    def snapshot(self) -> dict:
        """Per-op totals: calls, self seconds per span and per layer, work."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "layer_self_s": self.layer_self_s(),
            "work": dict(self.work),
        }
