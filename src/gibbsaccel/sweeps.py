"""Error sweeps, envelope fitting and CSV output.

The experiment harness measures |f(x) - filtered partial sum| over a range
of truncation degrees, extracts the monotone upper hull of the error
sequence (its envelope), and fits the model A * exp(-q*N)/N to it.  The
fitted slope q-hat is the empirical convergence rate to compare against
the prediction from the singularity set.

CSV outputs carry their configuration and fit results in ``#`` lines of
``key=value`` tokens, written by ``meta_line`` and read by ``parse_meta``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import TestFunction, get_function
from .filters import VALID_KINDS, FilterSpec
from .rates import image_table, penalty_flags, x_grid
# rho_of_x and acceleration_penalty_region, the scalar and sample-list
# forms of the image table, stay in this namespace for callers that wrap
# them here (bench/tracing.py)
from .rates import acceleration_penalty_region, rho_of_x  # noqa: F401
# pointwise_error, the one-row case of trace_errors, stays in this
# namespace for callers that wrap it here (bench/tracing.py)
from .series import pointwise_error, saturation_floor, trace_errors  # noqa: F401

MIN_ENVELOPE_POINTS = 5
SWEEP_HEADER = ["x", "filter", "N", "error", "saturated"]


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, empty range, ...)."""


class InsufficientDataError(RuntimeError):
    """Not enough unsaturated envelope points to fit a rate."""


@dataclass(frozen=True)
class ErrorRow:
    N: int
    error: float
    saturated: bool


@dataclass
class ErrorTrace:
    """Measured errors for one (x, filter) pair, plus the envelope fit.

    ``envelope`` indexes the rows on the monotone upper hull of
    log(error) vs N; ``fit`` is (A, q_hat) for the model A*exp(-q*N)/N,
    or None before fitting.  Saturated rows (error below the double
    precision floor) never enter the envelope or the fit.
    """

    x: float
    filter_kind: str
    rows: list[ErrorRow] = field(default_factory=list)
    envelope: list[int] = field(default_factory=list)
    fit: tuple[float, float] | None = None


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

    def degrees(self) -> list[int]:
        return list(range(self.n_min, self.n_max + 1, self.n_stride))

    def validate(self) -> TestFunction:
        """Check the request; returns the catalog entry it names."""
        if self.n_stride < 1:
            raise ConfigError("stride must be >= 1")
        degrees = self.degrees()
        if not degrees:
            raise ConfigError("empty truncation-degree range")
        for kind in self.filters:
            if kind not in VALID_KINDS:
                raise ConfigError(f"unknown filter kind {kind!r}")
        fn = _resolve_function(self.function_key, self.p, self.phi)
        if degrees[0] < 0 or degrees[-1] > fn.series.n_max:
            raise ConfigError(f"truncation degree outside [0, n_max={fn.series.n_max}]")
        sings = fn.series.singularities
        for x in self.xs:
            if not math.isfinite(x):
                raise ConfigError(f"x={x} is not finite")
            if sings is not None and sings.real_distance(x) == 0.0:
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
    filter and N sums a prefix of that fold (``series.trace_errors``);
    the rows are bit-identical to per-N ``pointwise_error`` sums, except
    the Euler rows of a dense trace, which come from one re-expansion and
    agree with them to well within a saturation floor.  Rows
    are produced in ascending N for each trace and traces in the order
    (x outer, filter inner), so identical configs give identical output.
    Each trace is envelope-fitted when possible; a trace with too few
    unsaturated hull points keeps ``fit = None`` and its ``envelope``,
    which the CSV writers report as a skipped fit.
    """
    fn = config.validate()
    degrees = config.degrees()
    floors = saturation_floor(fn.series, np.array(degrees))
    specs = [FilterSpec(kind) for kind in config.filters]
    traces = []
    for x in config.xs:
        errors = trace_errors(fn.series, x, degrees, specs)
        for kind, errs in zip(config.filters, errors):
            rows = [ErrorRow(N, e, e < f) for N, e, f in zip(degrees, errs, floors)]
            trace = ErrorTrace(x=x, filter_kind=kind, rows=rows)
            try:
                fit_envelope(trace)
            except InsufficientDataError:
                pass
            traces.append(trace)
    return traces


def fit_envelope(trace: ErrorTrace) -> tuple[float, float]:
    """Fit A*exp(-q*N)/N to the upper hull of the error sequence.

    The envelope is the monotone-decreasing upper hull of log(error) vs
    N, found in a single backward pass over the unsaturated rows.  The
    slope comes from ordinary least squares on (N, log error + log N);
    the prefactor is then raised until the model bounds every envelope
    point, making A*exp(-q*N)/N a tight upper envelope of the whole
    trace.  Stores the hull on ``trace.envelope`` (also when it has too
    few points and InsufficientDataError is raised) and the fit on
    ``trace.fit``, and returns (A, q_hat).
    """
    usable = [
        (i, r) for i, r in enumerate(trace.rows) if not r.saturated and r.error > 0.0
    ]
    hull: list[tuple[int, ErrorRow]] = []
    best = -math.inf
    for i, row in reversed(usable):
        logerr = math.log(row.error)
        if logerr >= best:
            best = logerr
            hull.append((i, row))
    hull.reverse()
    trace.envelope = [i for i, _ in hull]
    if len(hull) < MIN_ENVELOPE_POINTS:
        raise InsufficientDataError(
            f"only {len(hull)} unsaturated envelope points; need "
            f"{MIN_ENVELOPE_POINTS}"
        )
    ns = np.array([row.N for _, row in hull], dtype=float)
    ys = np.array([math.log(row.error) + math.log(row.N) for _, row in hull])
    slope, intercept = np.polyfit(ns, ys, 1)
    q_hat = -float(slope)
    # anchor the prefactor so the model bounds every envelope point
    log_a = max(ys + q_hat * ns)
    amplitude = math.exp(log_a)
    trace.fit = (amplitude, q_hat)
    return amplitude, q_hat


def _text(value) -> str:
    """A CSV cell or metadata value: shortest round-trip repr for floats,
    empty for None."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def meta_line(*tags: str, **fields) -> str:
    """One metadata line: bare tags, then ``key=value`` tokens.

    Floats are written as their shortest round-trip repr and None as an
    empty value.  ``parse_meta`` reads the line back.  Every ``#`` line of
    the CSV outputs and the ``envelope`` report line is written here.
    """
    return " ".join([*tags, *(f"{k}={_text(v)}" for k, v in fields.items())])


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


def _fit_line(trace: ErrorTrace, **where) -> str:
    """The trace's fit, or empty A and q_hat plus its hull size if skipped."""
    if trace.fit is None:
        skipped = {"A": None, "q_hat": None, "hull_points": len(trace.envelope)}
        return meta_line("fit", **where, **skipped)
    return meta_line("fit", **where, A=trace.fit[0], q_hat=trace.fit[1])


def render_csv(comments: list[str], header: list[str], rows: list) -> str:
    lines = [f"# {c}" for c in comments] + [",".join(header)]
    lines += [",".join(_text(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def sweep_csv(config: ExperimentConfig, traces: list[ErrorTrace]) -> str:
    comments = _config_echo(config)
    for t in traces:
        comments.append(meta_line("trace", x=t.x, filter=t.filter_kind))
        comments.append(_fit_line(t, x=t.x, filter=t.filter_kind))
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
    (the real one first when present), and a penalty flag when off-axis
    singularities exist.  All columns come from one ``rates.image_table``
    call over the grid, bit-identical to ``rho_of_x`` point by point.
    """
    if resolution < 2:
        raise ConfigError("resolution must be >= 2")
    fn = _resolve_function(function_key, p, phi)
    sings = fn.series.singularities
    if sings is None:
        raise ConfigError(f"{function_key} declares no singularity set")
    header = ["x", "rho"]
    if sings.real_singularity is not None:
        header.append("zeta_real")
    header += [f"zeta_off{j}" for j in range(len(sings.off_axis))]
    xs = x_grid(resolution)
    rho, dominating, images = image_table(sings, xs)
    columns = [xs, rho, *images]
    if sings.off_axis:
        header.append("penalty")
        columns.append(penalty_flags(sings, rho, dominating)[1].astype(int))
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
    comments += [_fit_line(t, filter=t.filter_kind) for t in traces]
    return render_csv(comments, header, rows)


def parse_sweep_csv(text: str) -> tuple[dict, list[ErrorTrace]]:
    """Read back a sweep CSV: config echo from comments, rows into traces.

    The returned dict holds the values of the untagged comment lines (fn,
    n_min, n_max, stride, and p and phi when set).  Raises ConfigError
    when the first non-comment line is not the sweep header (a
    ``compare`` output, for one), and when a data row does not have the
    five sweep cells or a cell does not convert; the message names the
    line.
    """
    meta: dict = {}
    traces: dict[tuple[float, str], ErrorTrace] = {}
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    for tags, fields in (parse_meta(ln[1:]) for _, ln in lines if ln.startswith("#")):
        if not tags:
            meta.update(fields)
    rows = [(i, ln.split(",")) for i, ln in lines if not ln.startswith("#")]
    if rows and rows[0][1] != SWEEP_HEADER:
        raise ConfigError(f"not a sweep CSV: header {','.join(rows[0][1])!r}")
    for lineno, cells in (r for r in rows if r[1] != SWEEP_HEADER):
        try:
            x_s, kind, n_s, err_s, sat_s = cells
            x, row = float(x_s), ErrorRow(int(n_s), float(err_s), bool(int(sat_s)))
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: bad sweep row {','.join(cells)!r} ({exc})"
            ) from None
        if (x, kind) not in traces:
            traces[x, kind] = ErrorTrace(x=x, filter_kind=kind)
        traces[x, kind].rows.append(row)
    return meta, list(traces.values())
