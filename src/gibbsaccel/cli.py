"""Experiment command line.

Subcommands:

* ``weights``  -- print a filter weight table.
* ``sweep``    -- measure filtered truncation errors over a range of N.
* ``rho``      -- tabulate the predicted convergence factor over x.
* ``compare``  -- run several filters at one x side by side.
* ``envelope`` -- refit the envelope of a previously written sweep CSV
  and report the empirical rate, one line per trace: the sweep's own
  fit line without its ``fit`` tag.  A file holds one sweep, read by
  ``sweeps.parse_sweep_csv`` as its config and its traces.  Every trace
  is reported before the exit status is set.

All tabular output is CSV with ``#`` comment lines of ``key=value``
tokens carrying the config echo and fit results.  Every fit record (a
``fit`` line, an ``envelope`` line) is one ``sweeps.fit_line``: the
trace's ``A`` and ``q_hat``, the ``alpha`` of the model
A*exp(-q*N)/N^alpha it fits, ``q_predicted`` and ``rel_gap``, and its
number of ``hull_points``.  Only Euler traces have a rate law
(``sweeps.fit_traces``); the other filters have empty ``q_predicted``
and ``rel_gap`` and are fitted with alpha = 1.  A skipped fit has empty
``A``, ``q_hat`` and ``rel_gap``.  Rows are flagged ``saturated``
when their error is below the fixed floor 100*eps*sum|c_n|
(``series.saturation_floor``).
Exit codes: 0 success, 2 configuration error (also an unknown function
key, a bad ``--p`` or ``--phi`` or one the function does not take, a
``--M`` or ``--resolution`` above the catalog's ``DEFAULT_N_MAX``, an
``envelope`` input that ``parse_sweep_csv`` or
``ExperimentConfig.validate`` rejects, among them a second header, a
``saturated`` cell other than 0 or 1, an echo without an integer
``n_min``, ``n_max`` or ``stride`` and a row whose N is not one of the
echo's degrees, an input that is not UTF-8 text,
and an input or output file that cannot be opened), 3 insufficient
data (for ``envelope``, an input without traces, or any trace without a
fit, each named on stderr).
"""

from __future__ import annotations

import argparse
import functools
import sys

# get_function, called through sweeps._resolve_function, stays in this
# namespace for callers that wrap it here (bench/tracing.py)
from .catalog import DEFAULT_N_MAX, FUNCTION_KEYS, get_function  # noqa: F401
from .filters import VALID_KINDS, _euler_sigma_table, _euler_mu_row
# rho_of_x and fit_envelope, called through sweeps.fit_traces, stay in
# this namespace for callers that wrap them here (bench/tracing.py)
from .rates import rho_of_x  # noqa: F401
from .sweeps import fit_envelope  # noqa: F401
from .sweeps import (
    ConfigError,
    ExperimentConfig,
    InsufficientDataError,
    compare_filters,
    fit_line,
    fit_traces,
    meta_line,
    parse_sweep_csv,
    render_csv,
    rho_curve,
    sweep_csv,
    sweep_errors,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INSUFFICIENT = 3


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _cmd_weights(args: argparse.Namespace) -> int:
    if not 1 <= args.M <= DEFAULT_N_MAX:
        raise ConfigError(f"M must be in [1, {DEFAULT_N_MAX}]")
    sigma, mu = _euler_sigma_table(args.M), _euler_mu_row(args.M)
    rows = [*zip(range(args.M + 1), sigma.tolist(), mu.tolist()), (args.M + 1, 0.0, "")]
    text = render_csv([meta_line(filter="euler", M=args.M)], ["j", "sigma", "mu"], rows)
    _write(text, args.out)
    return EXIT_OK


def _config(args: argparse.Namespace, filters: tuple[str, ...]) -> ExperimentConfig:
    return ExperimentConfig(
        function_key=args.fn,
        filters=filters,
        xs=(args.x,),
        n_min=args.n_min,
        n_max=args.n_max,
        n_stride=args.stride,
        p=args.p,
        phi=args.phi,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config(args, (args.filter,))
    _write(sweep_csv(config, sweep_errors(config)), args.out)
    return EXIT_OK


def _cmd_rho(args: argparse.Namespace) -> int:
    _write(rho_curve(args.fn, args.resolution, p=args.p, phi=args.phi), args.out)
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    _write(compare_filters(_config(args, tuple(args.filters.split(",")))), args.out)
    return EXIT_OK


def _cmd_envelope(args: argparse.Namespace) -> int:
    with open(getattr(args, "in")) as fh:
        config, traces = parse_sweep_csv(fh.read())
    skipped = fit_traces(config.validate().series.singularities, traces)
    for trace in traces:
        print(fit_line(trace, x=trace.x, filter=trace.filter_kind))
    if skipped:
        raise InsufficientDataError("; ".join(skipped))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process.

    argparse keeps no state between ``parse_args`` calls, and each
    subcommand looks up the module globals it calls when it runs, so one
    parser serves every ``main`` call.
    """
    parser = argparse.ArgumentParser(
        prog="gibbsaccel",
        description="Accelerated-Fourier-series error experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each option is declared once: --out on every subcommand that writes,
    # --fn, --p and --phi on those that read a function, the degree range on the
    # two that sum one.
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None)
    fn = argparse.ArgumentParser(add_help=False, parents=[out])
    fn.add_argument("--fn", required=True, choices=FUNCTION_KEYS)
    fn.add_argument("--p", type=float, default=None)
    fn.add_argument("--phi", type=float, default=None)
    run = argparse.ArgumentParser(add_help=False, parents=[fn])
    run.add_argument("--x", type=float, required=True)
    run.add_argument("--n-min", type=int, default=2)
    run.add_argument("--n-max", type=int, required=True)
    run.add_argument("--stride", type=int, default=1)

    w = sub.add_parser("weights", parents=[out], help="print a filter weight table")
    w.add_argument("--filter", default="euler", choices=("euler",))
    w.add_argument("--M", type=int, required=True)
    w.set_defaults(run=_cmd_weights)

    s = sub.add_parser(
        "sweep", parents=[run], help="error sweep over truncation degree"
    )
    s.add_argument("--filter", default="euler", choices=VALID_KINDS)
    s.set_defaults(run=_cmd_sweep)

    r = sub.add_parser("rho", parents=[fn], help="predicted convergence factor over x")
    r.add_argument("--resolution", type=int, required=True)
    r.set_defaults(run=_cmd_rho)

    c = sub.add_parser("compare", parents=[run], help="compare filters at one x")
    c.add_argument("--filters", default="euler,erfclog,hdaf")
    c.set_defaults(run=_cmd_compare)

    e = sub.add_parser("envelope", help="refit the envelope of a sweep CSV")
    e.add_argument("--in", required=True)
    e.set_defaults(run=_cmd_envelope)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, OSError, UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT


if __name__ == "__main__":
    sys.exit(main())
