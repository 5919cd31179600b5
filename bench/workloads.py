"""The four benchmark workloads: seeded inputs, one op each, output checks.

Each workload is a closed loop: one client in one process sends the next
op when the last one returns.  Inputs come in blocks from a
``random.Random`` seeded by the workload name and ``--seed``.  Every block
has the same mix of keys, filters and size classes; the continuous inputs
(x and N_max) follow quasi-random sequences from seeded starting points.
The library only ever sees the generated (key, x, N-range, c) inputs.

An op's output is checked after its timer stops, against ``oracle``.  A
failed op whose every failing piece lies in the region of a documented
seed defect (Euler weights for N with 0.5**N == 0, HDAF partial sums past
the double-precision maximum) counts as a *known* failure: it still
counts in ``failed``; any other failure marks the run incorrect.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field

import oracle

# A trace row may differ from its reference error by at most one
# saturation floor (100 eps sum|c_n|).  The reference weights are
# correctly rounded, so the difference is the library's own roundoff,
# which stays below 0.05 floors at the seed.
RESUM_TOL = 1e-14  # resummation outputs, relative to sum |a_n|
EQUIV_TOL = 1e-12  # c = 2 equivalence residual, relative to sum |a_n|
RHO_TOL = 1e-12
RISE_FACTOR = 1e3  # a trace may not climb this far above the floor once saturated
# Rows below the floor that count as saturation onset.  A single such row
# can be an accidental zero crossing of an oscillating error whose
# envelope is still far above the floor; two in a row cannot.
SATURATED_RUN = 2


@dataclass
class Verdict:
    failed: bool = False
    known: bool = True  # every failure lies in a documented defect region
    gap: float | None = None  # |q_hat - q_pred| / q_pred
    notes: list = field(default_factory=list)

    def fail(self, note: str, known: bool = False) -> None:
        self.failed = True
        self.known = self.known and known
        self.notes.append(note)


class QuasiRandom:
    """Points of the R2 additive recurrence in [0, 1)^2 from a seeded start.

    Consecutive points fill the square evenly whatever the start, so every
    run, whatever its seed, covers the input ranges alike and its medians
    do not hinge on the luck of the draw.
    """

    ALPHA = (0.7548776662466927, 0.5698402909980532)  # 1/g, 1/g^2, g^3 = g + 1

    def __init__(self, rng: random.Random):
        self.point = [rng.random(), rng.random()]

    def next(self) -> tuple[float, float]:
        self.point = [(p + a) % 1.0 for p, a in zip(self.point, self.ALPHA)]
        return self.point[0], self.point[1]


def _check_rate(verdict, key, x, p, pred, q_hat):
    """Compare the library's predicted rate with the reference, record the gap."""
    ref = oracle.rho(key, x, 2.0, p)
    if not abs(pred.rho - ref) <= RHO_TOL * ref:
        verdict.fail(f"rho_of_x={pred.rho!r} reference={ref!r}")
    if q_hat is not None and math.isfinite(q_hat) and pred.q > 0:
        verdict.gap = abs(q_hat - pred.q) / pred.q


class Workload:
    name = ""
    INPUT = ""  # input size, stated with ops_per_s
    trace_blocks = 1
    # Blocks per second of --seconds.  A timed run is a fixed number of
    # blocks, not a deadline, so the same seed and --seconds always run
    # the same ops and give the same attempted and failed counts.  The
    # rates are the seed's on the 2-vCPU host the bounds were set on.
    BLOCKS_PER_S = 1.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(f"{self.name}:{seed}")

    def warm_up(self) -> None:
        """Catalog construction and one small untimed op per code path."""

    def blocks(self, seconds: float) -> int:
        """Blocks in a timed run of ``seconds``."""
        return max(1, round(self.BLOCKS_PER_S * seconds))

    def block(self) -> list:
        raise NotImplementedError

    def trace_ops(self) -> list:
        """The fixed op list of a traced run."""
        return [op for _ in range(self.trace_blocks) for op in self.block()]

    def run(self, op):
        raise NotImplementedError

    def check(self, op, out) -> Verdict:
        raise NotImplementedError

    def use_tracer(self, tracer) -> None:
        """Called with the tracer of a traced pass, and with None after it."""

    def close(self) -> None:
        pass


@dataclass(frozen=True)
class TraceOp:
    key: str
    kind: str
    x: float
    n_min: int
    n_max: int
    stride: int
    p: float | None = None


class _TraceWorkload(Workload):
    """Ops that are one ``sweeps.sweep_errors`` trace for one filter at one x."""

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.sings = {}

    def _singularities(self, key, p):
        if (key, p) not in self.sings:
            fn = self.lib.catalog.get_function(key, p=p)
            self.sings[(key, p)] = fn.series.singularities
        return self.sings[(key, p)]

    def run(self, op: TraceOp):
        lib = self.lib
        config = lib.sweeps.ExperimentConfig(
            function_key=op.key,
            filters=(op.kind,),
            xs=(op.x,),
            n_min=op.n_min,
            n_max=op.n_max,
            n_stride=op.stride,
            p=op.p,
        )
        (trace,) = lib.sweeps.sweep_errors(config)
        pred = lib.rates.rho_of_x(self._singularities(op.key, op.p), op.x)
        return trace, pred

    def check(self, op: TraceOp, out) -> Verdict:
        verdict = Verdict()
        if isinstance(out, Exception):
            verdict.fail(f"raised {out!r}")
            return verdict
        trace, pred = out
        x_s = oracle.singularities(op.key, op.p)[0][0]
        x_dist = abs(math.remainder(op.x - x_s, 2.0 * math.pi))
        below = 0  # consecutive rows below the floor
        for row in trace.rows:
            known = self._known_defect(op, row.N, x_dist)
            floor = oracle.saturation_floor(op.key, row.N, op.p)
            if not math.isfinite(row.error):
                verdict.fail(f"N={row.N} non-finite error", known)
                continue
            if below >= SATURATED_RUN and row.error > RISE_FACTOR * floor:
                verdict.fail(f"N={row.N} rose to {row.error:.3g} after saturating", known)
            if below < SATURATED_RUN:
                below = below + 1 if row.error < floor else 0
            ref = self._reference_error(op, row.N, x_dist)
            if not abs(row.error - ref) <= floor:
                verdict.fail(f"N={row.N} error {row.error:.6g} reference {ref:.6g}", known)
        q_hat = trace.fit[1] if trace.fit is not None and op.kind == "euler" else None
        _check_rate(verdict, op.key, op.x, op.p, pred, q_hat)
        return verdict

    def _reference_error(self, op, N, x_dist):
        if op.key == "delta" and op.kind == "euler":
            return abs(self.lib.rates.delta_truncation_error(op.x, N))
        return oracle.filtered_error(op.key, op.x, N, op.kind, x_dist, op.p)

    @staticmethod
    def _known_defect(op, N, x_dist) -> bool:
        if op.kind == "euler":
            return oracle.euler_collapses(N)
        if op.kind == "hdaf":
            return oracle.hdaf_sum_overflows(N, x_dist)
        return False


class SweepJump(_TraceWorkload):
    """Euler traces for the jump functions; dense moderate N, every tenth op deep."""

    name = "sweep-jump"
    INPUT = "Euler traces: N=2..N_max stride 5, N_max in [120, 400]; every 10th N=100..1600 stride 100"
    trace_blocks = 2
    BLOCKS_PER_S = 0.8
    KEYS = ("sws", "delta")
    MODERATE = 9  # moderate ops per key and block; each key then gets one deep op
    X_LO = 0.3

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.points = {key: QuasiRandom(self.rng) for key in self.KEYS}
        self.deep_points = {key: QuasiRandom(self.rng) for key in self.KEYS}

    def warm_up(self):
        for key in self.KEYS:
            self._singularities(key, None)
        self.run(TraceOp("sws", "euler", 1.0, 2, 20, 2))

    def block(self):
        """Per key, 9 moderate ops at (x, N_max) in (0.3, pi] x [120, 400]
        and one deep op; ops 10 and 20 of the block are the deep ones."""
        ops = []
        for key in self.KEYS:
            for _ in range(self.MODERATE):
                u, v = self.points[key].next()
                x = self.X_LO + (math.pi - self.X_LO) * u
                ops.append(TraceOp(key, "euler", x, self.rng.randint(2, 6), int(120 + 280 * v), 5))
        self.rng.shuffle(ops)
        deep = []
        for key in self.KEYS:
            x = self.X_LO + (math.pi - self.X_LO) * self.deep_points[key].next()[0]
            deep.append(TraceOp(key, "euler", x, 100, 1600, 100))
        return ops[: self.MODERATE] + deep[:1] + ops[self.MODERATE :] + deep[1:]


class CompareFar(_TraceWorkload):
    """One filter per op, rotating, far from the jump, N up to about 1500."""

    name = "compare-far"
    INPUT = "single-filter traces: 24 rows, N_max log-uniform in [30, 1500], x_dist in [1.5, 3]"
    trace_blocks = 2
    BLOCKS_PER_S = 0.54
    PER_KIND = 10  # ops per filter and block
    KEYS = ("sws", "sws+lorentzian")
    ROWS = 24  # Euler traces with N_max up to ~250 keep enough unsaturated rows to fit
    N_LO, N_HI = 30, 1500
    KINDS = ("euler", "erfclog", "hdaf")

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.points = {
            (kind, key): QuasiRandom(self.rng) for kind in self.KINDS for key in self.KEYS
        }

    def warm_up(self):
        for key in self.KEYS:
            self._singularities(key, oracle.COMPOSITE_P if key != "sws" else None)
        for kind in self.KINDS:
            self.run(TraceOp("sws", kind, 2.0, 2, 20, 2))

    def block(self):
        """Per filter and key, 5 ops at (x_dist, log N_max) in [1.5, 3] x
        [log 30, log 1500]; the filters take turns."""
        lo, hi = math.log(self.N_LO), math.log(self.N_HI)
        per_kind = []
        for kind in self.KINDS:
            ops = []
            for key in self.KEYS * (self.PER_KIND // len(self.KEYS)):
                u, v = self.points[(kind, key)].next()
                d = 1.5 + 1.5 * u
                n_max = int(math.exp(lo + (hi - lo) * v))
                n_min = self.rng.randint(2, 5)
                stride = max(1, round((n_max - n_min) / self.ROWS))
                p = oracle.COMPOSITE_P if key == "sws+lorentzian" else None
                ops.append(TraceOp(key, kind, d, n_min, n_max, stride, p))
            self.rng.shuffle(ops)
            per_kind.append(ops)
        return [op for group in zip(*per_kind) for op in group]

    def trace_ops(self):
        """The seeded blocks, then one HDAF trace into the overflow region,
        so that ``filters.weights_nonfinite`` sees the defect."""
        return super().trace_ops() + [TraceOp("sws", "hdaf", 3.0, 5, self.N_HI, 62)]


@dataclass(frozen=True)
class ResumOp:
    key: str
    x: float
    N: int
    c: int


class ResumConformal(Workload):
    """Inflate a series at x, re-expand under the Möbius map, sum, estimate radius."""

    name = "resum-conformal"
    INPUT = "PowerSeries of N in {50, 100, 200} terms, c in {2, 3}"
    trace_blocks = 1
    BLOCKS_PER_S = 0.36
    # (N, c) per key and block, cheapest first.  Three cheaper ops, three of
    # the middle class and three dearer ones put p50 in the middle of the
    # (100, 2) class and p90 inside the (200, 2) class, not on the edge
    # between two classes, where it would jump from run to run.
    SIZES = (
        (50, 3), (50, 2), (100, 3),
        (100, 2), (100, 2), (100, 2),
        (200, 3), (200, 2), (200, 2),
    )
    KEYS = ("log2", "sws", "lorentzian")
    MP_CHECK_N = 50  # mpmath re-check on this subsample

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.entries = {}
        self.active = {}
        self.points = {key: QuasiRandom(self.rng) for key in self.KEYS}

    def use_tracer(self, tracer):
        """Route the inflation's coefficient calls through ``tracer`` (or not)."""
        self.active = {
            k: tracer.traced_entry(fn) if tracer else fn
            for k, fn in self.entries.items()
        }

    def warm_up(self):
        for key in self.KEYS:
            p = oracle.LORENTZIAN_P if key == "lorentzian" else None
            phi = oracle.LORENTZIAN_PHI if key == "lorentzian" else None
            self.entries[key] = self.lib.catalog.get_function(key, p=p, phi=phi)
        self.use_tracer(None)
        self.run(ResumOp("log2", 1.0, 20, 2))

    def block(self):
        """Every key at every size, at distances in [0.5, pi] from the key's
        singularity, in random order."""
        ops = []
        for key in self.KEYS:
            x_s = oracle.singularities(key)[0][0]
            for N, c in self.SIZES:
                d = 0.5 + (math.pi - 0.5) * self.points[key].next()[0]
                ops.append(ResumOp(key, math.remainder(x_s + d, 2.0 * math.pi), N, c))
        self.rng.shuffle(ops)
        return ops

    def inflate(self, key, x, N):
        """The one-sided series a_0 = c_0, a_n = c_n e^{inx} + c_-n e^{-inx}."""
        coeff = self.active[key].series.coeff
        a = [complex(coeff(0))]
        for n in range(1, N + 1):
            a.append(coeff(n) * cmath.exp(1j * n * x) + coeff(-n) * cmath.exp(-1j * n * x))
        return self.lib.conformal.PowerSeries(tuple(a))

    def run(self, op: ResumOp):
        conformal = self.lib.conformal
        series = self.inflate(op.key, op.x, op.N)
        mapping = conformal.MobiusMap(float(op.c))
        b = conformal.recoefficient(series, mapping, op.N)
        total = conformal.accelerate_sum(series, mapping, op.N)
        radius = conformal.estimate_radius(b)
        residual = pred = None
        if op.c == 2:
            residual = conformal.euler_equivalence_check(series, op.N)
            pred = self.lib.rates.rho_of_x(self.active[op.key].series.singularities, op.x)
        return series, b, total, radius, residual, pred

    def check(self, op: ResumOp, out) -> Verdict:
        import numpy as np

        verdict = Verdict()
        if isinstance(out, Exception):
            verdict.fail(f"raised {out!r}")
            return verdict
        series, b, total, radius, residual, pred = out
        ns = np.arange(op.N + 1)
        c_pos = oracle.coefficients(op.key, ns)
        c_neg = oracle.coefficients(op.key, -ns)
        a_ref = c_pos * np.exp(1j * ns * op.x) + c_neg * np.exp(-1j * ns * op.x)
        a_ref[0] = c_pos[0]
        a = np.array(series.coeffs)
        scale = float(np.abs(a_ref).sum())
        values = np.concatenate([np.array(b.coeffs), [total, radius]])
        if not np.isfinite(values).all():
            verdict.fail("non-finite output")
            return verdict
        if not np.abs(a - a_ref).max() <= RESUM_TOL * scale:
            verdict.fail("inflated coefficients differ from the closed form")
        b_ref = oracle.mobius_table(op.c, op.N) @ a
        if not np.abs(np.array(b.coeffs) - b_ref).max() <= RESUM_TOL * scale:
            verdict.fail("re-expanded coefficients differ from the closed-form table")
        if not abs(total - b_ref.sum()) <= RESUM_TOL * scale:
            verdict.fail(f"accelerated sum {total!r} reference {b_ref.sum()!r}")
        if op.N == self.MP_CHECK_N:
            exact = oracle.mobius_sum_mp(series.coeffs, op.c, op.N)
            if not abs(total - exact) <= RESUM_TOL * scale:
                verdict.fail(f"accelerated sum {total!r} mpmath {exact!r}")
        if residual is not None:
            if not residual <= EQUIV_TOL * scale:
                verdict.fail(f"equivalence residual {residual!r} > 1e-12 sum|a_n|")
            _check_rate(verdict, op.key, op.x, None, pred, math.log(radius))
        return verdict


# The five README commands, verbatim and in README order.
README_COMMANDS = (
    ("weights", "--filter", "euler", "--M", "8"),
    ("sweep", "--fn", "sws", "--x", "1.9635", "--n-min", "5", "--n-max", "50",
     "--out", "sweep.csv"),
    ("envelope", "--in", "sweep.csv"),
    ("rho", "--fn", "lorentzian", "--resolution", "501", "--p", "0.8187"),
    ("compare", "--fn", "sws+lorentzian", "--p", "0.5", "--x", "0.2618",
     "--n-max", "400", "--n-min", "40", "--stride", "4"),
)
# Data rows each command's CSV must hold.
README_ROWS = {"weights": 10, "sweep": 46, "rho": 501, "compare": 91}


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV with '#' comment lines; raises if ragged."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("no header")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    for row in rows:
        if len(row) != len(header):
            raise ValueError(f"row {row} does not match header {header}")
    return header, rows


class ReadmeCli(Workload):
    """The README commands through ``cli.main(argv)``, in order, over cycles."""

    name = "readme-cli"
    INPUT = "the five README commands; compare sums N=40..400 stride 4 for 3 filters"
    trace_blocks = 3
    BLOCKS_PER_S = 1.38

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed)
        self.workdir = workdir
        self.home = os.getcwd()
        os.makedirs(workdir, exist_ok=True)
        os.chdir(workdir)

    def close(self):
        os.chdir(self.home)
        for name in os.listdir(self.workdir):
            os.remove(os.path.join(self.workdir, name))
        os.rmdir(self.workdir)

    def warm_up(self):
        self.lib.cli.build_parser()
        self.run(("weights", "--filter", "euler", "--M", "2"))

    def block(self):
        return list(README_COMMANDS)

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.lib.cli.main(list(argv))
        return code, out.getvalue(), err.getvalue()

    def check(self, argv, out) -> Verdict:
        verdict = Verdict()
        if isinstance(out, Exception):
            verdict.fail(f"raised {out!r}")
            return verdict
        code, stdout, stderr = out
        cmd = argv[0]
        if code != 0:
            verdict.fail(f"{cmd} exited {code}: {stderr.strip()}")
            return verdict
        try:
            if cmd == "envelope":
                fields = dict(tok.split("=", 1) for tok in stdout.split())
                gap = float(fields["rel_gap"])
                if not math.isfinite(gap):
                    raise ValueError("rel_gap is not finite")
                verdict.gap = gap
                return verdict
            if cmd == "sweep":
                with open("sweep.csv") as fh:
                    stdout = fh.read()
            header, rows = parse_csv(stdout)
            if len(rows) != README_ROWS[cmd]:
                raise ValueError(f"{len(rows)} rows, expected {README_ROWS[cmd]}")
            for row in rows:
                for cell in row:
                    if cell not in ("", "euler", "sws") and not math.isfinite(float(cell)):
                        raise ValueError(f"non-finite cell {cell}")
            if cmd == "weights":
                sigma = [float(r[1]) for r in rows]
                ref = list(oracle.euler_weights(8)) + [0.0]
                if max(abs(s - r) for s, r in zip(sigma, ref)) > 1e-14:
                    raise ValueError("Euler weights differ from the reference")
        except (ValueError, KeyError) as exc:
            verdict.fail(f"{cmd} output does not parse: {exc}")
        return verdict


WORKLOADS = {w.name: w for w in (SweepJump, CompareFar, ResumConformal, ReadmeCli)}
