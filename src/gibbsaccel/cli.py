"""Experiment command line.

Subcommands:

* ``weights``  -- print a filter weight table.
* ``sweep``    -- measure filtered truncation errors over a range of N.
* ``rho``      -- tabulate the predicted convergence factor over x.
* ``compare``  -- run several filters at one x side by side.
* ``envelope`` -- refit the envelope of a previously written sweep CSV
  and report the empirical rate against the prediction.

All tabular output is CSV with ``#`` comment lines of ``key=value``
tokens carrying the config echo and fit results.  A trace whose fit was
skipped has a ``fit`` line with empty ``A`` and ``q_hat`` and its number
of ``hull_points``.  Rows are flagged ``saturated`` when their error is
below the fixed floor 100*eps*sum|c_n| (``series.saturation_floor``).
Exit codes: 0 success, 2 configuration error (also an unknown function
key, a bad ``--p`` or ``--phi``, and an input or output file that cannot
be opened), 3 insufficient data.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

# get_function, called through sweeps._resolve_function, stays in this
# namespace for callers that wrap it here (bench/tracing.py)
from .catalog import FUNCTION_KEYS, get_function  # noqa: F401
from .filters import VALID_KINDS, _euler_sigma_table, _euler_mu_row
from .rates import rho_of_x
from .sweeps import (
    ConfigError,
    ExperimentConfig,
    InsufficientDataError,
    _resolve_function,
    compare_filters,
    fit_envelope,
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
    if args.M < 1:
        raise ConfigError("M must be >= 1")
    sigma = _euler_sigma_table(args.M)
    mu = _euler_mu_row(args.M)
    rows = [
        [j, float(sigma[j]), float(mu[j]) if j <= args.M else None]
        for j in range(args.M + 2)
    ]
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
        meta, traces = parse_sweep_csv(fh.read())
    if not traces:
        raise InsufficientDataError("no traces found in input")
    if meta.get("fn") is None:
        raise ConfigError("input has no fn= line naming the swept function")
    fn = _resolve_function(meta["fn"], meta.get("p"), meta.get("phi"))
    sings = fn.series.singularities
    for trace in traces:
        amplitude, q_hat = fit_envelope(trace)
        fields = dict(x=trace.x, filter=trace.filter_kind, A=amplitude, q_hat=q_hat)
        if sings is not None:
            q_pred = rho_of_x(sings, trace.x).q
            gap = abs(q_hat - q_pred) / q_pred if q_pred != 0 else math.inf
            fields.update(q_predicted=q_pred, rel_gap=gap)
        print(meta_line(**fields))
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

    w = sub.add_parser("weights", help="print a filter weight table")
    w.add_argument("--filter", default="euler", choices=("euler",))
    w.add_argument("--M", type=int, required=True)
    w.add_argument("--out", default=None)
    w.set_defaults(run=_cmd_weights)

    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--fn", required=True, choices=FUNCTION_KEYS)
    run.add_argument("--x", type=float, required=True)
    run.add_argument("--n-min", type=int, default=2)
    run.add_argument("--n-max", type=int, required=True)
    run.add_argument("--stride", type=int, default=1)
    run.add_argument("--p", type=float, default=None)
    run.add_argument("--out", default=None)

    s = sub.add_parser(
        "sweep", parents=[run], help="error sweep over truncation degree"
    )
    s.add_argument("--filter", default="euler", choices=VALID_KINDS)
    s.add_argument("--phi", type=float, default=None)
    s.set_defaults(run=_cmd_sweep)

    r = sub.add_parser("rho", help="predicted convergence factor over x")
    r.add_argument("--fn", required=True, choices=FUNCTION_KEYS)
    r.add_argument("--resolution", type=int, required=True)
    r.add_argument("--p", type=float, default=None)
    r.add_argument("--phi", type=float, default=None)
    r.add_argument("--out", default=None)
    r.set_defaults(run=_cmd_rho)

    c = sub.add_parser("compare", parents=[run], help="compare filters at one x")
    c.add_argument("--filters", default="euler,erfclog,hdaf")
    c.set_defaults(run=_cmd_compare, phi=None)

    e = sub.add_parser("envelope", help="refit the envelope of a sweep CSV")
    e.add_argument("--in", required=True)
    e.set_defaults(run=_cmd_envelope)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InsufficientDataError as exc:
        print(f"insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT


if __name__ == "__main__":
    sys.exit(main())
