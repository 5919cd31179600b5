"""End-to-end acceptance gate.

Each test exercises one headline capability at desk scale and reports a
single PASS/FAIL line on the real stdout (bypassing capture) so the
whole gate is readable at a glance in any pytest run.
"""

import cmath
import math
import sys
import time

import numpy as np
import pytest

from gibbsaccel.catalog import (
    get_function,
    log2_series,
    make_composite,
    make_delta,
    make_sws,
)
from gibbsaccel.conformal import (
    MOBIUS2,
    MobiusMap,
    PowerSeries,
    accelerate_sum,
    estimate_radius,
    euler_equivalence_check,
    recoefficient,
)
from gibbsaccel.filters import FilterSpec, euler_mu, euler_sigma, filter_weights
from gibbsaccel.rates import (
    SingularitySet,
    acceleration_penalty_region,
    delta_truncation_error,
    rho_of_x,
    zeta_image_modulus,
)
from gibbsaccel.series import (
    FourierSeries,
    filtered_partial_sum,
    pointwise_error,
)
from gibbsaccel.sweeps import (
    ExperimentConfig,
    compare_filters,
    fit_envelope,
    sweep_csv,
    sweep_errors,
)

SAWTOOTH_SET = SingularitySet(real_singularity=0.0)


@pytest.fixture
def report(capfd):
    def _report(num, label, ok):
        verdict = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {num} ({label}): {verdict}", flush=True)
        return ok

    return _report


def test_01_euler_mobius_equivalence(report):
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    ok = True
    for _ in range(100):
        n = int(rng.integers(8, 65))
        a = rng.uniform(-1, 1, n + 1) + 1j * rng.uniform(-1, 1, n + 1)
        a /= np.maximum(np.abs(a), 1.0)  # enforce |a_n| <= 1
        residual = euler_equivalence_check(PowerSeries(tuple(a)), n)
        ok = ok and residual <= 1e-11 * np.abs(a).sum()
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert report(1, "euler/mobius equivalence", ok)


def test_02_log2_error_ratios(report):
    series = log2_series(40)
    ok = True
    for mapping, target, tol in ((MOBIUS2, 0.5, 0.05), (MobiusMap(3.0), 1 / 3, 0.04)):
        errs = [
            abs(accelerate_sum(series, mapping, N) - math.log(2.0))
            for N in range(10, 31)
        ]
        floor = 100 * sys.float_info.epsilon  # saturated terms are pure roundoff
        ratios = [b / a for a, b in zip(errs, errs[1:]) if a > floor and b > floor]
        geo_mean = math.exp(math.fsum(math.log(r) for r in ratios) / len(ratios))
        ok = ok and abs(geo_mean - target) <= tol
    assert report(2, "log(2) successive-error ratios", ok)


@pytest.mark.xfail(
    reason="the accelerated tail carries a 1/N prefactor, so the true error "
    "at N = 20 is ~0.05*2^-20 (and ~0.04*3^-20), below the 0.1 lower edge "
    "of the stated window",
    strict=True,
)
def test_02b_log2_error_window(report):
    series = log2_series(20)
    err2 = abs(accelerate_sum(series, MOBIUS2, 20) - math.log(2.0))
    err3 = abs(accelerate_sum(series, MobiusMap(3.0), 20) - math.log(2.0))
    ok = 0.1 * 2.0**-20 <= err2 <= 10 * 2.0**-20
    ok = ok and 0.1 * 3.0**-20 <= err3 <= 10 * 3.0**-20
    assert report("2b", "log(2) error inside [0.1, 10] window", ok)


def test_03_sawtooth_geometric_recovery(report):
    sws = make_sws().series
    spec = FilterSpec("euler")
    ok = True
    for x, n_lo, n_hi, stride, tol in (
        (5 * math.pi / 8, 5, 50, 1, 0.05),
        (math.pi / 8, 50, 600, 2, 0.08),
    ):
        from gibbsaccel.sweeps import ErrorRow, ErrorTrace

        trace = ErrorTrace(x=x, filter_kind="euler")
        for N in range(n_lo, n_hi + 1, stride):
            trace.rows.append(ErrorRow(N, pointwise_error(sws, x, N, spec), False))
        _, q_hat = fit_envelope(trace)
        q_pred = -math.log(math.cos(x / 2))
        ok = ok and abs(q_hat - q_pred) <= tol * q_pred
    assert report(3, "sawtooth geometric rate recovery", ok)


def test_04_exact_delta_oracle(report):
    delta = make_delta().series
    spec = FilterSpec("euler")
    ok = True
    eps = sys.float_info.epsilon
    for x in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
        for N in range(1, 41):
            oracle = abs(delta_truncation_error(x, N))
            measured = pointwise_error(delta, x, N, spec)
            # 1e-12 relative, floored at the summation roundoff of the
            # 2N+1 filtered terms (the oracle itself can be exactly 0)
            tol = max(1e-12 * oracle, 2 * eps * (2 * N + 1))
            ok = ok and abs(measured - oracle) <= tol
    for N in (1, 10, 40):
        ok = ok and abs(delta_truncation_error(math.pi, N)) < 1e-15
        ok = ok and pointwise_error(delta, math.pi, N, spec) < 1e-13 * (2 * N + 1)
    assert report(4, "exact filtered-delta oracle", ok)


def test_05_rate_theory_consistency(report):
    ok = True
    for x in np.linspace(-3.1, 3.1, 1000):
        want = 1.0 / math.cos(x / 2)
        ok = ok and abs(zeta_image_modulus(1.0, float(x)) - want) <= 1e-12 * want
    xs = np.linspace(0.0, math.pi, 2001)
    step = xs[1] - xs[0]
    capped = [x for x in xs if rho_of_x(SAWTOOTH_SET, float(x)).rho >= 2.0 - 1e-12]
    crossover = min(capped)
    ok = ok and abs(crossover - 2 * math.pi / 3) <= step + 1e-12
    assert report(5, "rate-theory consistency", ok)


def test_06_off_axis_penalty(report):
    sings = get_function("lorentzian", p=math.exp(-0.2)).series.singularities
    samples = acceleration_penalty_region(sings, 4096)
    rho_min = min(s.rho_euler for s in samples)
    r = math.exp(0.2)
    ok = abs(rho_min - 2 * r / (1 + r)) <= 1e-3
    flagged = [s for s in samples if s.flagged]
    ok = ok and len(flagged) > 0
    ok = ok and all(s.rho_euler < r for s in flagged)
    assert report(6, "off-axis acceleration penalty", ok)


def test_07_radius_estimation_vs_theory(report):
    fn = make_composite(math.exp(-0.2), n_max=500).series
    ok = True
    for x in (2.5, 2.7, 2.8, 2.9, 3.05):
        pred = rho_of_x(fn.singularities, x)
        assert pred.rho < 2.0
        a = tuple(fn.coeff(n) * cmath.exp(1j * n * x) for n in range(451))
        est = estimate_radius(recoefficient(PowerSeries(a), MOBIUS2, 450))
        ok = ok and abs(est - pred.rho) <= 0.03 * pred.rho
    assert report(7, "root-test radius vs rate theory", ok)


def test_08_filter_comparison(report):
    start = time.perf_counter()
    config = ExperimentConfig(
        "sws+lorentzian",
        filters=("euler", "erfclog", "hdaf"),
        xs=(math.pi / 12,),
        p=0.5,
        n_min=40,
        n_max=400,
        n_stride=4,
    )
    fits = {}
    for line in compare_filters(config).splitlines():
        if line.startswith("# fit filter="):
            tokens = dict(
                t.partition("=")[::2] for t in line[2:].split() if "=" in t
            )
            fits[tokens["filter"]] = float(tokens["q_hat"])
    ok = all(q > 0 for q in fits.values())
    ok = ok and fits["erfclog"] > fits["euler"]
    ok = ok and fits["hdaf"] > fits["euler"]
    ok = ok and (time.perf_counter() - start) < 30.0
    assert report(8, "ordinal filter comparison", ok)


def test_09_property_suites(report):
    ok = True
    # filter weight invariants: row sums, monotonicity, symmetry
    for M in (5, 32, 100):
        ok = ok and abs(math.fsum(euler_mu(M, k) for k in range(M + 1)) - 1) < 1e-13
        sig = [euler_sigma(j, M) for j in range(M + 2)]
        ok = ok and all(a >= b - 1e-13 for a, b in zip(sig, sig[1:]))
    from gibbsaccel.filters import erfclog_sigma

    ok = ok and all(
        erfclog_sigma(t, 4.0) == erfclog_sigma(-t, 4.0) for t in (0.1, 0.4, 0.9)
    )
    # composition-oracle equivalence (spot check)
    rng = np.random.default_rng(909)
    a = rng.standard_normal(21) + 1j * rng.standard_normal(21)
    zc = np.array([0.0] + [0.5 * 2.0 ** -(k - 1) for k in range(1, 21)])
    want = np.zeros(21, dtype=complex)
    power = np.zeros(21, dtype=complex)
    power[0] = 1.0
    for n in range(21):
        want += a[n] * power
        power = np.convolve(power, zc)[:21]
    got = np.array(recoefficient(PowerSeries(tuple(a)), MOBIUS2, 20).coeffs)
    ok = ok and np.abs(got - want).max() < 1e-13 * np.abs(want).max()
    # linearity and realness of filtered sums
    sws = make_sws(200).series
    comp = make_composite(0.5, n_max=200).series
    spec = FilterSpec("euler")
    f = filtered_partial_sum(sws, 1.1, 64, spec)
    g = filtered_partial_sum(comp, 1.1, 64, spec)
    combined = FourierSeries(
        coeff=lambda n: 2.0 * sws.coeff(n) + comp.coeff(n), n_max=200
    )
    h = filtered_partial_sum(combined, 1.1, 64, spec)
    ok = ok and abs(h - (2.0 * f + g)) < 1e-12
    ok = ok and abs(f.imag) < 1e-12 and abs(g.imag) < 1e-12
    # CSV determinism
    config = ExperimentConfig("sws", xs=(0.9,), n_min=5, n_max=40)
    ok = ok and sweep_csv(config, sweep_errors(config)) == sweep_csv(
        config, sweep_errors(config)
    )
    assert report(9, "property suites", ok)
