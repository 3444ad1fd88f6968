"""Spans around the calls into each qmaxent layer, for the traced run only.

A traced pass replaces each function named in ``TARGETS`` with a wrapper at
every place the package binds it (its own module, the package namespace and
any module that imported it by name), so both the benchmark's calls and the
package's calls between its own layers are recorded, with their parents.
``ConstraintSet`` validation and ``numpy.linalg.eigh``/``eigvalsh`` are
wrapped too, the latter two only counted.  ``Tracer.installed`` puts every
original back on exit; ``wrapped_bindings`` proves that nothing is left
wrapped, and the untraced run checks it before and after measuring.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

import qmaxent
import qmaxent.cli  # not imported by the package itself; its bindings are traced too


def _trajectory_steps(trajectory) -> int:
    # integrate_flow's own rule: ceil of |lambda_end| / step, near-integral ratios rounded
    return math.ceil(abs(trajectory.samples[-1].lam) / trajectory.step - 1e-9)


# (layer, public name, count taken from each call's result)
TARGETS = (
    ("maxent", "solve_maxent", lambda r: r.iterations),
    ("maxent", "dual_objective", None),
    ("maxent", "solve_prior_tilt", None),
    ("flow", "integrate_flow", _trajectory_steps),
    ("flow", "closed_form_flow", None),
    ("flow", "flow_to_constraint", None),
    ("flow", "flow_field", None),
    ("geometry", "metric_vectors", None),
    ("geometry", "metric_forms", None),
    ("entropy", "von_neumann_entropy", None),
    ("entropy", "relative_entropy", None),
    ("documents", "problem_from_document", None),
    ("documents", "operator_to_document", None),
    ("cli", "run", None),
)
LAYERS = ("maxent", "flow", "geometry", "entropy", "documents", "cli")
COUNTED = ("eigh", "eigvalsh")

_ORIGINALS = {
    f"{layer}.{name}": getattr(sys.modules[f"qmaxent.{layer}"], name)
    for layer, name, _ in TARGETS
}
# ConstraintSet is a class that isinstance checks may name, so its
# validation hook is wrapped in place of the class itself.
_POST_INIT = qmaxent.ConstraintSet.__post_init__
_COUNTED = {name: getattr(np.linalg, name) for name in COUNTED}


def _snapshot_bindings():
    """(module, attribute, span name) for every place the package binds a target."""
    names = {id(fn): key for key, fn in _ORIGINALS.items()}
    return [
        (module, attr, names[id(value)])
        for key, module in sorted(sys.modules.items())
        if key.split(".")[0] == "qmaxent"
        for attr, value in vars(module).items()
        if id(value) in names
    ]


_BINDINGS = _snapshot_bindings()


def wrapped_bindings() -> int:
    """How many traced bindings differ from the program's own objects right now."""
    wrapped = sum(getattr(m, attr) is not _ORIGINALS[key] for m, attr, key in _BINDINGS)
    wrapped += qmaxent.ConstraintSet.__post_init__ is not _POST_INIT
    wrapped += sum(getattr(np.linalg, name) is not fn for name, fn in _COUNTED.items())
    return wrapped


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    op: int
    error: type | None
    count: int | None


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[Span | None] = []
        self.counts = {name: 0 for name in COUNTED}
        self._stack: list[int] = []
        self._op = -1

    def _record(self, name: str, call, extract=None):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        error = None
        count = None
        start = time.perf_counter()
        try:
            result = call()
            if extract is not None:
                count = extract(result)
            return result
        except BaseException as exc:
            error = type(exc)
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op, error, count)

    def operation(self, op: int, call):
        """Run one benchmark operation under a root span tagged with its index."""
        self._op = op
        return self._record("bench.op", call)

    def _wrap(self, fn, name: str, extract=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._record(name, lambda: fn(*args, **kwargs), extract)

        return wrapper

    def _counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore the originals."""
        extracts = {f"{layer}.{name}": extract for layer, name, extract in TARGETS}
        wrappers = {key: self._wrap(fn, key, extracts[key]) for key, fn in _ORIGINALS.items()}
        try:
            for module, attr, key in _BINDINGS:
                setattr(module, attr, wrappers[key])
            qmaxent.ConstraintSet.__post_init__ = self._wrap(_POST_INIT, "maxent.ConstraintSet")
            for name, fn in _COUNTED.items():
                setattr(np.linalg, name, self._counter(fn, name))
            yield self
        finally:
            for module, attr, key in _BINDINGS:
                setattr(module, attr, _ORIGINALS[key])
            qmaxent.ConstraintSet.__post_init__ = _POST_INIT
            for name, fn in _COUNTED.items():
                setattr(np.linalg, name, fn)


def summarize(tracer: Tracer) -> dict[str, float]:
    """Per-function calls, busy time, failures and counts, plus per-layer self time."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.end - s.start
    out: dict[str, float] = {}
    for key in list(_ORIGINALS) + ["maxent.ConstraintSet"]:
        out[f"{key}.calls"] = 0
        out[f"{key}.busy_ms"] = 0.0
        out[f"{key}.failures"] = 0
        out[f"{key}.count"] = 0
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = 0.0
    for s, children in zip(spans, child_time):
        if s.name == "bench.op":
            continue
        duration = s.end - s.start
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.busy_ms"] += 1e3 * duration
        # an input or infeasibility error is a correct answer, not a failure
        out[f"{s.name}.failures"] += s.error is not None and issubclass(
            s.error, qmaxent.NumericalFailure
        )
        out[f"{s.name}.count"] += s.count or 0
        out[f"{s.name.split('.')[0]}.self_ms"] += 1e3 * (duration - children)
    for name, value in tracer.counts.items():
        out[f"operators.{name}.calls"] = value
    return out
