"""Error sweeps, envelope fitting and CSV output.

The experiment harness measures |f(x) - filtered partial sum| over a range
of truncation degrees, extracts the monotone upper hull of the error
sequence (its envelope), and fits the model A * exp(-q*N)/N^alpha to it
with ``rates.fit_rate``.  ``fit_traces`` is the one place that decides
which filter has a rate law: an Euler trace carries the prediction at its
x (``rates.rho_of_x``); the other filters have no rate law.  The law is
the fit's only model: ``fit_envelope`` fits a trace with its law's alpha,
or alpha = 1 without a law, and takes no alpha of its own, so a refit
reproduces the trace's fit record.  The fitted slope q-hat is the
empirical convergence rate to compare against the predicted one.

CSV outputs carry their configuration and fit results in ``#`` lines of
``key=value`` tokens, written by ``meta_line`` and read by ``parse_meta``.
Every fit record, the ``# fit`` lines of ``sweep`` and ``compare`` files
and the ``envelope`` report lines, is written by ``fit_line`` from the
trace alone.  This module owns the sweep file's layout both ways:
``sweep_csv`` writes the config echo and the rows, and
``parse_sweep_csv`` reads back the one sweep a file holds as an
``ExperimentConfig`` and its traces; a second header, or a ``saturated``
cell other than 0 or 1, is a ConfigError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .catalog import DEFAULT_N_MAX, TestFunction, get_function
from .filters import VALID_KINDS, FilterSpec
from .rates import RatePrediction, SingularitySet, fit_rate, image_table, penalty_flags
from .rates import rho_of_x, x_grid
# acceleration_penalty_region, the sample-list form of the image table,
# stays in this namespace for callers that wrap it here (bench/tracing.py)
from .rates import acceleration_penalty_region  # noqa: F401
# pointwise_error, the one-row case of trace_errors, stays in this
# namespace for callers that wrap it here (bench/tracing.py)
from .series import pointwise_error, saturation_floor, trace_errors  # noqa: F401

MIN_ENVELOPE_POINTS = 5
SWEEP_HEADER = ["x", "filter", "N", "error", "saturated"]


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, empty range, ...)."""


class InsufficientDataError(RuntimeError):
    """Not enough unsaturated envelope points to fit a rate."""


class ErrorRow(NamedTuple):
    """One measured error: the truncation degree N, |f(x) - S_N(x)|, and
    whether that error is below the saturation floor.  An immutable
    tuple, built by position or by keyword."""

    N: int
    error: float
    saturated: bool


@dataclass
class ErrorTrace:
    """Measured errors for one (x, filter) pair, plus the envelope fit.

    ``rows`` is a plain list of ``ErrorRow``, which callers may extend
    before fitting.  ``envelope`` indexes the rows on the monotone upper
    hull of log(error) vs N; ``fit`` is (A, q_hat) for the model
    A*exp(-q*N)/N^alpha, or None before fitting and when the fit is
    skipped.  ``law`` is the rate law, set by ``fit_traces``:
    ``rates.rho_of_x`` at x for an Euler trace, None for the other
    filters and before fitting.  ``fit_envelope`` fits with the law's
    alpha, or alpha = 1 when ``law`` is None.
    Saturated rows (error below the double precision floor), rows with a
    zero or infinite error and the degree-0 row never enter the envelope
    or the fit.
    """

    x: float
    filter_kind: str
    rows: list[ErrorRow] = field(default_factory=list)
    envelope: list[int] = field(default_factory=list)
    fit: tuple[float, float] | None = None
    law: RatePrediction | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep request: function, filters, evaluation points, N range."""

    function_key: str
    filters: tuple[str, ...] = ("euler",)
    xs: tuple[float, ...] = ()
    n_min: int = 2
    n_max: int = 60
    n_stride: int = 1
    p: float | None = None
    phi: float | None = None

    def degrees(self) -> range:
        return range(self.n_min, self.n_max + 1, self.n_stride)

    def validate(self) -> TestFunction:
        """Check the request; returns the catalog entry it names.  A sweep
        names at least one filter and one x, and none of either twice."""
        if self.n_stride < 1:
            raise ConfigError("stride must be >= 1")
        degrees = self.degrees()
        if not degrees:
            raise ConfigError("empty truncation-degree range")
        if not self.filters or not self.xs:
            raise ConfigError("need at least one filter and one x")
        for k, kind in enumerate(self.filters):
            if kind not in VALID_KINDS:
                raise ConfigError(f"unknown filter kind {kind!r}")
            if kind in self.filters[:k]:
                raise ConfigError(f"filter {kind!r} named twice")
        fn = _resolve_function(self.function_key, self.p, self.phi)
        if degrees[0] < 0 or degrees[-1] > fn.series.n_max:
            raise ConfigError(f"truncation degree outside [0, n_max={fn.series.n_max}]")
        for k, x in enumerate(self.xs):
            if not math.isfinite(x):
                raise ConfigError(f"x={x} is not finite")
            if x in self.xs[:k]:
                raise ConfigError(f"x={x} named twice")
            if fn.series.singularities.real_distance(x) == 0.0:
                raise ConfigError(f"x={x} sits on the real singularity")
        return fn


def _resolve_function(key: str, p: float | None, phi: float | None) -> TestFunction:
    """The catalog entry, with the catalog's KeyError or ValueError (an
    unknown key, a bad p or phi) raised as ConfigError."""
    try:
        return get_function(key, p=p, phi=phi)
    except (KeyError, ValueError) as exc:
        raise ConfigError(exc.args[0]) from None


def sweep_errors(config: ExperimentConfig) -> list[ErrorTrace]:
    """Measure pointwise errors for every (x, filter) pair in the config.

    Each x folds the coefficients once, at the top degree, and every
    filter and N sums a prefix of that fold, or of the declared Euler
    terms (``series.trace_errors``); the rows are bit-identical to per-N
    ``pointwise_error`` sums, except the Euler rows of a dense trace of a
    series without declared terms, which come from one re-expansion and
    agree with them to well within a saturation floor.  Rows
    are produced in ascending N for each trace and traces in the order
    (x outer, filter inner), so identical configs give identical output.
    Every trace is given its law and envelope-fitted by ``fit_traces``;
    a trace with too few unsaturated hull points keeps ``fit = None`` and
    its ``envelope``, which the CSV writers report as a skipped fit.
    """
    fn = config.validate()
    degrees = config.degrees()  # a range: each layer checks it in O(1)
    floors = saturation_floor(fn.series, degrees)
    specs = [FilterSpec(kind) for kind in config.filters]
    traces = []
    for x in config.xs:
        errors = trace_errors(fn.series, x, degrees, specs)
        saturated = (np.array(errors) < floors).tolist()
        for kind, errs, sat in zip(config.filters, errors, saturated):
            # tuple.__new__ is ErrorRow's own constructor, less its call overhead
            rows = map(tuple.__new__, repeat(ErrorRow), zip(degrees, errs, sat))
            traces.append(ErrorTrace(x, kind, list(rows)))
    fit_traces(fn.series.singularities, traces)
    return traces


def fit_traces(sings: SingularitySet, traces: list[ErrorTrace]) -> list[str]:
    """Give each trace its rate law, then fit its envelope (``fit_envelope``).

    Only Euler has a rate law: an Euler trace gets ``rho_of_x(sings, x)``
    on ``trace.law``, every other trace None.
    Returns one ``"x=... filter=...: <reason>"`` per trace left without a
    fit (``fit_envelope`` raised InsufficientDataError), in trace order.
    """
    skipped = []
    for trace in traces:
        trace.law = rho_of_x(sings, trace.x) if trace.filter_kind == "euler" else None
        try:
            fit_envelope(trace)
        except InsufficientDataError as exc:
            skipped.append(f"x={trace.x} filter={trace.filter_kind}: {exc}")
    return skipped


def fit_envelope(trace: ErrorTrace) -> tuple[float, float]:
    """Fit A*exp(-q*N)/N^alpha to the upper hull of the error sequence.

    alpha is the trace's own: ``trace.law.alpha``, or 1 when the trace
    has no law, the alpha that ``fit_line`` prints, so a refit never
    changes the trace's fit record.  The rows that may enter are the
    unsaturated ones with 0 < error < inf and N >= 1 (the model takes
    log N).  The rows may come in any order (``parse_sweep_csv`` keeps a
    file's): they are taken in ascending N, by a stable sort, so rows
    with a repeated N stay in order.  ``rates.fit_rate`` fits them with
    that alpha held fixed: the envelope is the suffix-maximum hull of
    log(error) vs N, and A is anchored so that A*exp(-q*N)/N^alpha bounds
    every envelope point, a tight upper envelope of the whole trace.
    Stores the hull on ``trace.envelope`` (row indices in N order) and
    the fit on ``trace.fit``, and returns (A, q_hat).  Raises
    InsufficientDataError, keeping the hull and leaving ``trace.fit`` as
    it was, when the hull has fewer than ``MIN_ENVELOPE_POINTS`` points
    or sits at fewer than three distinct N (rows a caller appended with a
    repeated N), which fix no slope.
    """
    usable = [
        (i, r.N, math.log(r.error))
        for i, r in enumerate(trace.rows)
        if not r.saturated and 0.0 < r.error < math.inf and r.N >= 1
    ]
    usable.sort(key=itemgetter(1))  # stable: a repeated N keeps its rows
    index, ns, logs = np.array(usable).reshape(-1, 3).T
    hull, log_a, q_hat, _ = fit_rate(ns, logs, trace.law.alpha if trace.law else 1.0)
    trace.envelope = index[hull].astype(int).tolist()
    if len(trace.envelope) < MIN_ENVELOPE_POINTS:
        raise InsufficientDataError(
            f"only {len(trace.envelope)} unsaturated envelope points; need "
            f"{MIN_ENVELOPE_POINTS}"
        )
    if math.isnan(q_hat):  # fit_rate found fewer than 3 distinct N
        raise InsufficientDataError("hull at fewer than 3 distinct N")
    trace.fit = (math.exp(log_a), q_hat)
    return trace.fit


def meta_line(*tags: str, **fields) -> str:
    """One metadata line: bare tags, then ``key=value`` tokens.

    A value is written as its ``str`` (a float's shortest round-trip
    repr) and None as an empty value (a skipped fit's ``A=``).
    ``parse_meta`` reads the line back.  Every ``#`` line of the CSV
    outputs and the ``envelope`` report line is written here.
    """
    pairs = (f"{k}={'' if v is None else v}" for k, v in fields.items())
    return " ".join([*tags, *pairs])


def parse_meta(line: str) -> tuple[list[str], dict]:
    """Split a ``meta_line`` into its tags and its typed values.

    A value is read as an int, else a float, else kept as a string; an
    empty value is None.
    """
    tokens = [token.partition("=") for token in line.split()]
    tags = [key for key, eq, _ in tokens if not eq]
    return tags, {key: _typed(text) for key, eq, text in tokens if eq}


def _typed(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text or None


def _echo(key: str, p: float | None, phi: float | None, *lines: str) -> list[str]:
    """The config echo: the fn line, ``lines``, then p and phi when set."""
    params = [meta_line(**{k: v}) for k, v in (("p", p), ("phi", phi)) if v is not None]
    return [meta_line(fn=key), *lines, *params]


def _config_echo(config: ExperimentConfig, *lines: str) -> list[str]:
    """``_echo`` of a sweep config, with its N range after ``lines``."""
    span = meta_line(n_min=config.n_min, n_max=config.n_max, stride=config.n_stride)
    return _echo(config.function_key, config.p, config.phi, *lines, span)


def fit_line(trace: ErrorTrace, *tags: str, **where) -> str:
    """The trace's fit record: ``tags``, ``where`` (its x and filter), then
    A and q_hat (empty if the fit was skipped), the alpha it was fitted
    with, its law's q_predicted and rel_gap = |q_hat - q_predicted| /
    q_predicted (both empty without a law, rel_gap also without a fit),
    and its number of hull_points.  q_predicted underflows to 0.0 within
    about 6e-162 of the real singularity; rel_gap is then inf."""
    a, q_hat = trace.fit or (None, None)
    alpha, q = (trace.law.alpha, trace.law.q) if trace.law else (1.0, None)
    gap = None if q_hat is None or q is None else abs(q_hat - q) / q if q else math.inf
    fields = dict(A=a, q_hat=q_hat, alpha=alpha, q_predicted=q, rel_gap=gap)
    return meta_line(*tags, **where, **fields, hull_points=len(trace.envelope))


def render_csv(comments: list[str], header: list[str], rows: list) -> str:
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(map(str, row)) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_csv(config: ExperimentConfig, traces: list[ErrorTrace]) -> str:
    comments = _config_echo(config)
    comments += [fit_line(t, "fit", x=t.x, filter=t.filter_kind) for t in traces]
    rows = [
        [t.x, t.filter_kind, r.N, r.error, int(r.saturated)]
        for t in traces
        for r in t.rows
    ]
    return render_csv(comments, SWEEP_HEADER, rows)


def rho_curve(
    function_key: str,
    resolution: int,
    p: float | None = None,
    phi: float | None = None,
) -> str:
    """CSV of the predicted convergence factor over a uniform x grid.

    Columns: x, rho, then the image modulus of each declared singularity
    under the name ``rates.image_table`` gives it (``zeta_real`` first
    when present, then one ``zeta_off<j>`` per declared off-axis entry,
    which stands for its conjugate pair), and a penalty flag
    (``rates.penalty_flags``) when off-axis singularities exist.  All
    columns come from one ``rates.image_table`` call over the grid,
    bit-identical to ``rho_of_x`` point by point.  A resolution outside
    [2, ``DEFAULT_N_MAX``] is a ConfigError, raised before any array is
    built; one that is not an integer raises TypeError
    (``rates.x_grid``).
    """
    if not 2 <= resolution <= DEFAULT_N_MAX:
        raise ConfigError(f"resolution must be in [2, {DEFAULT_N_MAX}]")
    sings = _resolve_function(function_key, p, phi).series.singularities
    xs = x_grid(resolution)
    rho, images = image_table(sings, xs)
    header = ["x", "rho", *images]
    columns = [xs, rho, *images.values()]
    if sings.off_axis:
        header.append("penalty")
        columns.append(penalty_flags(sings, rho).astype(int))
    rows = list(zip(*(column.tolist() for column in columns)))
    comments = _echo(function_key, p, phi, meta_line(resolution=resolution))
    return render_csv(comments, header, rows)


def compare_filters(config: ExperimentConfig) -> str:
    """Run every configured filter at one x; one error column per filter.

    Fitted rates are recorded in trailing comment lines, one per filter
    (a skipped fit has empty A and q_hat and its number of hull points)."""
    if len(config.xs) != 1:
        raise ConfigError("filter comparison wants exactly one x")
    traces = sweep_errors(config)
    header = ["N"] + [f"err_{t.filter_kind}" for t in traces]
    degrees = config.degrees()
    rows = [[N] + [t.rows[k].error for t in traces] for k, N in enumerate(degrees)]
    comments = _config_echo(config, meta_line(x=config.xs[0]))
    comments += [fit_line(t, "fit", filter=t.filter_kind) for t in traces]
    return render_csv(comments, header, rows)


def parse_sweep_csv(text: str) -> tuple[ExperimentConfig, list[ErrorTrace]]:
    """Read back the one sweep a sweep CSV holds: its config and its traces.

    The config carries the echo's fn, n_min, n_max, stride, p and phi
    (the values of the untagged comment lines), and the file's filters
    and x's, each in order of first appearance, so ``sweep_csv`` of the
    config and the refitted traces gives the file back.  Raises ConfigError
    when the first non-comment line is not the sweep header (a
    ``compare`` output, for one), at a second header (two files
    concatenated), when a data row does not have the five sweep cells,
    a cell does not convert or a ``saturated`` cell is neither 0 nor 1,
    or when a degree repeats within one (x, filter) trace, which the
    rate fit cannot use; the message names the line.  Then raises
    InsufficientDataError when there is no data row, and ConfigError
    when the echo has no ``fn=``, a non-numeric ``p=`` or ``phi=``, or
    no integer ``n_min=``, ``n_max=`` or ``stride=``, and, naming the
    line, for a row whose N is not one of the echo's degrees.
    """
    meta: dict = {}
    grouped: dict[tuple[float, str], list[ErrorRow]] = {}  # each trace's rows
    first_line: dict[tuple[float, str, int], int] = {}  # of each (x, kind, N)
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    for tags, fields in (parse_meta(ln[1:]) for _, ln in lines if ln.startswith("#")):
        if not tags:
            meta.update(fields)
    rows = [(i, ln.split(",")) for i, ln in lines if not ln.startswith("#")]
    if rows and rows[0][1] != SWEEP_HEADER:
        raise ConfigError(f"not a sweep CSV: header {','.join(rows[0][1])!r}")
    for lineno, cells in rows[1:]:
        if cells == SWEEP_HEADER:
            raise ConfigError(f"line {lineno}: a second sweep header")
        try:
            x_s, kind, n_s, err_s, sat_s = cells
            if sat_s not in ("0", "1"):
                raise ValueError(f"saturated={sat_s!r} is neither 0 nor 1")
            x, row = float(x_s), ErrorRow(int(n_s), float(err_s), sat_s == "1")
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad sweep row {','.join(cells)!r} ({exc})"
            ) from None
        if (first := first_line.setdefault((x, kind, row.N), lineno)) != lineno:
            raise ConfigError(f"line {lineno}: repeats N={row.N} of line {first}")
        grouped.setdefault((x, kind), []).append(row)
    if not grouped:
        raise InsufficientDataError("no traces found in input")
    if meta.get("fn") is None:
        raise ConfigError("input has no fn= line naming the swept function")
    for key in ("p", "phi"):
        if isinstance(meta.get(key), str):  # parse_meta keeps a non-number as text
            raise ConfigError(f"input has a non-numeric {key}={meta[key]}")
    span = {key: meta.get(key) for key in ("n_min", "n_max", "stride")}
    for key, value in span.items():
        if type(value) is not int:  # missing, empty, or not an integer
            raise ConfigError(f"input has no integer {key}= in its echo")
    xs, kinds = (tuple(dict.fromkeys(column)) for column in zip(*grouped))
    config = ExperimentConfig(
        meta["fn"], kinds, xs, *span.values(), p=meta.get("p"), phi=meta.get("phi")
    )
    if config.n_stride >= 1:  # ExperimentConfig.validate rejects the others
        degrees = config.degrees()
        for (_, _, N), lineno in first_line.items():
            if N not in degrees:
                raise ConfigError(
                    f"line {lineno}: N={N} is not in the echo's degrees "
                    f"n_min={config.n_min} n_max={config.n_max} stride={config.n_stride}"
                )
    return config, [ErrorTrace(x, kind, group) for (x, kind), group in grouped.items()]
