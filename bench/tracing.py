"""Spans around the calls into each gibbsaccel module, for the traced run.

The traced run replaces module attributes with timing wrappers.  Callers
bind many functions by name (``sweeps`` imports ``pointwise_error`` and
``saturation_floor``, ``series`` imports ``filter_weights``, ``conformal``
imports ``_euler_sigma_table``), so each name is wrapped in the namespace
of the module that calls it.  The coefficient callable of a catalog entry
is per term and far too fine for one span per call: it is wrapped through
``dataclasses.replace`` on the entry's series, and its calls and time are
added to the enclosing span instead.

A span records name, start, end, parent span and op id.  Self time is
the span's duration minus the time of its child spans and coefficient
calls.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import dataclasses
import json
import math
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "op", "start", "end", "child", "attrs")

    def __init__(self, sid, name, parent, op, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.op = op
        self.start = start
        self.end = start
        self.child = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self.coeff_calls = 0
        self.coeff_s = 0.0
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child += span.duration

    def wrap(self, fn, name: str, describe=None):
        """Wrap ``fn`` in a span; ``describe(args, kwargs, result)`` adds attributes."""

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.attrs["raised"] = type(exc).__name__
                raise
            finally:
                self.close(span)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        return traced

    def traced_coeff(self, coeff):
        def counted(n):
            t0 = perf_counter()
            value = coeff(n)
            dt = perf_counter() - t0
            self.coeff_calls += 1
            self.coeff_s += dt
            if self._stack:
                top = self._stack[-1]
                top.child += dt
                top.attrs["coeff_calls"] = top.attrs.get("coeff_calls", 0) + 1
            return value

        return counted

    def traced_entry(self, entry):
        """The catalog entry with its coefficient callable counted."""
        series = dataclasses.replace(
            entry.series, coeff=self.traced_coeff(entry.series.coeff)
        )
        return dataclasses.replace(entry, series=series)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                record = {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "op": s.op,
                    "start": s.start,
                    "end": s.end,
                    "self": s.self_time,
                }
                record.update(s.attrs)
                fh.write(json.dumps(record) + "\n")


def _nonfinite(result) -> int:
    return int((~np.isfinite(np.asarray(result))).sum())


def _weights(args, kwargs, result):
    return {"kind": args[0].kind, "N": args[1], "nonfinite": _nonfinite(result)}


def _euler_table(args, kwargs, result):
    return {"kind": "euler", "N": args[0], "nonfinite": _nonfinite(result)}


def _sum(args, kwargs, result):
    return {"terms": 2 * args[2] + 1}


def _recoefficient(args, kwargs, result):
    return {"order": args[2]}


def _equivalence(args, kwargs, result):
    series, N = args[0], args[1]
    scale = math.fsum(abs(a) for a in series.coeffs[: N + 1])
    return {"rel_residual": result / scale if scale > 0 else 0.0}


def _sweep(args, kwargs, result):
    rows = sum(len(t.rows) for t in result)
    saturated = sum(1 for t in result for r in t.rows if r.saturated)
    return {"rows": rows, "saturated": saturated}


def _main(args, kwargs, result):
    return {"cmd": args[0][0], "exit": result}


def install(tracer: Tracer, lib) -> list:
    """Wrap every traced name; returns what ``uninstall`` needs to undo it."""

    def entry_factory(fn):
        def make(*args, **kwargs):
            return tracer.traced_entry(fn(*args, **kwargs))

        return make

    plan = [
        (lib.series, "filter_weights", "filters.weights", _weights),
        (lib.series, "filtered_partial_sum", "series.sum", _sum),
        (lib.sweeps, "pointwise_error", "series.error", None),
        (lib.sweeps, "saturation_floor", "series.floor", None),
        (lib.sweeps, "sweep_errors", "sweeps.sweep", _sweep),
        (lib.sweeps, "fit_envelope", "sweeps.fit", None),
        (lib.sweeps, "render_csv", "sweeps.csv", None),
        (lib.sweeps, "rho_of_x", "rates.rho", None),
        (lib.sweeps, "acceleration_penalty_region", "rates.penalty", None),
        (lib.rates, "rho_of_x", "rates.rho", None),
        (lib.conformal, "_euler_sigma_table", "filters.weights", _euler_table),
        (lib.conformal, "recoefficient", "conformal.recoefficient", _recoefficient),
        (lib.conformal, "accelerate_sum", "conformal.accelerate", None),
        (lib.conformal, "euler_equivalence_check", "conformal.equivalence", _equivalence),
        (lib.conformal, "estimate_radius", "conformal.radius", None),
        (lib.cli, "_euler_sigma_table", "filters.weights", _euler_table),
        (lib.cli, "_euler_mu_row", "filters.weights", _euler_table),
        (lib.cli, "sweep_errors", "sweeps.sweep", _sweep),
        (lib.cli, "fit_envelope", "sweeps.fit", None),
        (lib.cli, "render_csv", "sweeps.csv", None),
        (lib.cli, "sweep_csv", "sweeps.csv", None),
        (lib.cli, "parse_sweep_csv", "sweeps.parse", None),
        (lib.cli, "rho_of_x", "rates.rho", None),
        (lib.cli, "rho_curve", "sweeps.rho_curve", None),
        (lib.cli, "compare_filters", "sweeps.compare", None),
        (lib.cli, "main", "cli.main", _main),
    ]
    saved = []
    for module, name, span_name, describe in plan:
        original = getattr(module, name)
        saved.append((module, name, original))
        setattr(module, name, tracer.wrap(original, span_name, describe))
    for module in (lib.sweeps, lib.cli):
        original = module.get_function
        saved.append((module, "get_function", original))
        module.get_function = entry_factory(original)
    return saved


def uninstall(saved: list) -> None:
    for module, name, original in reversed(saved):
        setattr(module, name, original)
