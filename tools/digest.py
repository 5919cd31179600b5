"""Print one SHA-256 per output family of the package, to show which
outputs a change moves and which it keeps bit for bit.

The families, each one ``<sha256> <family>`` line:

* ``sweep <key> <filter> <n_min>..<n_max>/<stride>``: the CSV that
  ``sweeps.sweep_csv`` writes, every row and fit line, for each catalog
  key and filter at x in {0.3, 1.1, 2.5, 3.0}, over N = 2..400/5,
  100..1600/100, 3..1500/62 and 0..40/1;
* ``resum <key> c=<c> N=<N>``: ``conformal.recoefficient``'s b,
  ``accelerate_sum`` and ``estimate_radius`` (or the ValueError it
  raises) of the key's fold at x = 1.1, for c in {1.5, 2, 3} and N in
  {50, 100, 200};
* ``weights <kind> <x_dist>``: the whole rows that
  ``filters.filter_weights`` returns for erfclog and hdaf at x_dist in
  {0.3, 1.5, 3.0}, over N = 3..1500/62 and 1000..20000/1900, which take
  HDAF rows past Temme's depth 83 at every distance; a change to a weight
  kernel shows here even where a sweep's rows do not move;
* ``readme <command>``: the exit code, stdout and written files of each
  ``gibbsaccel`` command in README's CLI block, run in order through
  ``cli.main`` in one temporary directory.

    python tools/digest.py [repo-root]   # default: the checkout this file is in

The package is imported from ``<repo-root>/src``, so one copy of this
tool digests any checkout.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import sys
import tempfile
from pathlib import Path

XS = (0.3, 1.1, 2.5, 3.0)
RANGES = ((2, 400, 5), (100, 1600, 100), (3, 1500, 62), (0, 40, 1))
RESUM_X = 1.1
RESUM_CS = (1.5, 2.0, 3.0)
RESUM_NS = (50, 100, 200)
WEIGHT_KINDS = ("erfclog", "hdaf")
WEIGHT_XS = (0.3, 1.5, 3.0)
WEIGHT_DEGREES = sorted([*range(3, 1501, 62), *range(1000, 20001, 1900)])


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


def readme_commands(readme: Path) -> list[list[str]]:
    """The argv of each ``gibbsaccel`` line in README's CLI block."""
    return [
        line.split()[1:]
        for line in readme.read_text().splitlines()
        if line.startswith("gibbsaccel ")
    ]


def digests(readme: Path) -> dict[str, str]:
    """The SHA-256 of every family, by family name, in a fixed order."""
    from gibbsaccel import cli, conformal
    from gibbsaccel.catalog import FUNCTION_KEYS, get_function
    from gibbsaccel.filters import VALID_KINDS, FilterSpec, filter_weights
    from gibbsaccel.sweeps import ExperimentConfig, sweep_csv, sweep_errors

    commands = readme_commands(readme)
    out = {}
    sweeps = itertools.product(FUNCTION_KEYS, VALID_KINDS, RANGES)
    for key, kind, (lo, hi, stride) in sweeps:
        config = ExperimentConfig(key, (kind,), XS, lo, hi, stride)
        text = sweep_csv(config, sweep_errors(config))
        out[f"sweep {key} {kind} {lo}..{hi}/{stride}"] = _sha(text.encode())
    for key, c, N in itertools.product(FUNCTION_KEYS, RESUM_CS, RESUM_NS):
        series = conformal.PowerSeries(get_function(key).series.folded(RESUM_X, N))
        mapping = conformal.MobiusMap(c)
        b = conformal.recoefficient(series, mapping, N)
        total = conformal.accelerate_sum(series, mapping, N)
        try:
            radius = repr(conformal.estimate_radius(b))
        except ValueError as exc:
            radius = repr(exc)
        out[f"resum {key} c={c} N={N}"] = _sha(
            b.coeffs.tobytes(), repr(total).encode(), radius.encode()
        )
    for kind, x in itertools.product(WEIGHT_KINDS, WEIGHT_XS):
        rows = filter_weights(FilterSpec(kind), WEIGHT_DEGREES, x)
        out[f"weights {kind} {x}"] = _sha(rows.tobytes())
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in commands:
                before = set(os.listdir())
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli.main(argv)
                written = sorted(set(os.listdir()) - before)
                out[f"readme {argv[0]}"] = _sha(
                    str(code).encode(),
                    stdout.getvalue().encode(),
                    *(name.encode() + Path(name).read_bytes() for name in written),
                )
        finally:
            os.chdir(home)
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1]
    sys.path.insert(0, str(root / "src"))
    for name, digest in digests(root / "README.md").items():
        print(digest, name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
