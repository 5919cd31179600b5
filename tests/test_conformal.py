import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from gibbsaccel import conformal
from gibbsaccel.catalog import log2_series, make_lorentzian, make_sws
from gibbsaccel.conformal import (
    MOBIUS2,
    MobiusMap,
    PowerSeries,
    accelerate_sum,
    estimate_radius,
    euler_equivalence_check,
    recoefficient,
)
from gibbsaccel.filters import FilterSpec
from gibbsaccel.rates import zeta_image_modulus
from gibbsaccel.series import filtered_partial_sum


def mobius_coeffs(c, K):
    """Taylor coefficients of Z_c(w) = (c-1)w/(c-w): ((c-1)/c) c^-(k-1), k >= 1."""
    return np.array([0.0] + [(c - 1.0) / c * c ** -(k - 1) for k in range(1, K + 1)])


def exact_recoefficient(a, c, N):
    """b = T_c a with T_c[m, n] = ((c-1)/c)^n c^-(m-n) C(m-1, n-1) and
    T_c[0, 0] = 1, in exact rational arithmetic rounded once to complex."""
    c = Fraction(c)
    r = (c - 1) / c
    re = [Fraction(float(x.real)) for x in a[: N + 1]]
    im = [Fraction(float(x.imag)) for x in a[: N + 1]]
    out = [complex(a[0])]
    for m in range(1, N + 1):
        row = [r**n * c ** (n - m) * math.comb(m - 1, n - 1) for n in range(1, m + 1)]
        out.append(
            complex(
                float(sum(t * x for t, x in zip(row, re[1:]))),
                float(sum(t * x for t, x in zip(row, im[1:]))),
            )
        )
    return np.array(out)


def exact_recoefficient_int(a, c, N):
    """The table of ``exact_recoefficient`` in integer arithmetic, fast
    enough for c = 1.01 at N = 300.

    With c = u/v, u^m T_c[m, n] = C(m-1, n-1) (u-v)^n v^(m-n) is an
    integer, and the a_n are integers over one power of two D, so b_m is
    one integer over u^m D, rounded once by Python's correctly rounded
    int division."""
    u, v = float(c).as_integer_ratio()
    parts = [[float(x.real) for x in a[: N + 1]], [float(x.imag) for x in a[: N + 1]]]
    D = max(x.as_integer_ratio()[1] for part in parts for x in part)
    re, im = (
        [num * (D // den) for num, den in (x.as_integer_ratio() for x in part)]
        for part in parts
    )
    out = [complex(a[0])]
    row = [0, u - v]  # u^m T_c[m, n] for m = 1
    for m in range(1, N + 1):
        if m > 1:  # T[m, n] = T[m-1, n]/c + ((c-1)/c) T[m-1, n-1], times u^m
            row = [0] + [v * t + (u - v) * s for t, s in zip(row[1:] + [0], row)]
        den = u**m * D
        out.append(
            complex(
                sum(t * x for t, x in zip(row, re)) / den,
                sum(t * x for t, x in zip(row, im)) / den,
            )
        )
    return np.array(out)


def reference_recoefficient(a, c, N):
    """The per-order row recurrence: row m of T_c from row m-1 by one
    vector update, then b_m as one dot product, for every m."""
    r = (c - 1.0) / c
    b = np.empty(N + 1, dtype=complex)
    b[0] = a[0]
    row = np.zeros(N + 1)
    row[0] = 1.0
    for m in range(1, N + 1):
        row[1 : m + 1] = row[1 : m + 1] / c + r * row[:m]
        row[0] = 0.0
        b[m] = a[1 : m + 1] @ row[1 : m + 1]
    return b


def exact_accelerated_sum(a, c, N):
    """sum_{m<=N} b_m = a_0 + sum_n a_n sum_{m=n..N} T_c[m, n] from the
    closed-form table, in exact rational arithmetic rounded once."""
    c = Fraction(c)
    r = (c - 1) / c
    cols = [Fraction(1)] + [
        sum(r**n * c ** (n - m) * math.comb(m - 1, n - 1) for m in range(n, N + 1))
        for n in range(1, N + 1)
    ]
    re = sum(w * Fraction(float(x.real)) for w, x in zip(cols, a))
    im = sum(w * Fraction(float(x.imag)) for w, x in zip(cols, a))
    return complex(float(re), float(im))


def brute_force_composition(a, zc, N):
    """Oracle: expand sum a_n * Z(w)^n by nested polynomial multiplies."""
    out = np.zeros(N + 1, dtype=complex)
    out[0] = a[0]
    power = np.zeros(N + 1, dtype=complex)
    power[0] = 1.0
    for n in range(1, len(a)):
        full = np.convolve(power, zc)[: N + 1]
        power = np.zeros(N + 1, dtype=complex)
        power[: len(full)] = full
        out += a[n] * power
    return out


class TestPowerSeries:
    @pytest.mark.parametrize(
        "coeffs",
        [(1.0, 0.5j, complex(math.nan, 0.0)), (1.0, complex(0.0, math.inf), 0.25)],
        ids=["nan-last-real", "inf-imag"],
    )
    def test_non_finite_rejected(self, coeffs):
        with pytest.raises(ValueError, match="finite"):
            PowerSeries(coeffs)

    def test_array_and_tuple_give_the_same_coefficients(self):
        rng = np.random.default_rng(200)
        a = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        for coeffs in (a, a.real):
            from_array = PowerSeries(coeffs).coeffs
            assert type(from_array) is np.ndarray and from_array.dtype == complex
            assert from_array.tolist() == [complex(v) for v in coeffs]
            assert (
                from_array.tolist()
                == PowerSeries(tuple(coeffs.tolist())).coeffs.tolist()
            )

    def test_coefficients_are_a_read_only_copy(self):
        a = np.array([1.0, 0.5j, -0.25])
        series = PowerSeries(a)
        assert not series.coeffs.flags.writeable
        with pytest.raises(ValueError):
            series.coeffs[0] = 2.0
        a[0] = 7.0
        assert series.coeffs.tolist() == [1.0, 0.5j, -0.25]
        b = np.array([1.0, 2.0], dtype=complex)
        assert not np.shares_memory(PowerSeries(b).coeffs, b)

    def test_shape_rejected(self):
        for coeffs in ((), [[1.0, 2.0], [3.0, 4.0]], 1.0):
            with pytest.raises(ValueError):
                PowerSeries(coeffs)


def map_endpoints(mapping, N=80):
    """Z_c(0) and Z_c(1) from the re-expansion of the series z itself.

    The re-expanded coefficients are the Taylor coefficients of Z_c(w),
    so b_0 is Z_c(0) and their sum through w^N is Z_c(1) up to the
    geometric tail c^-N.
    """
    b = recoefficient(PowerSeries((0.0, 1.0) + (0.0,) * (N - 1)), mapping, N)
    return b.coeffs[0], complex(np.sum(b.coeffs))


class TestMobiusMap:
    def test_forward_endpoints(self):
        at_zero, at_one = map_endpoints(MOBIUS2)
        assert at_zero == 0.0
        assert at_one == pytest.approx(1.0, abs=1e-15)

    def test_general_map_endpoints(self):
        at_zero, at_one = map_endpoints(MobiusMap(3.0))
        assert at_zero == 0.0
        assert at_one == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("c", [1.0, 0.5, -2.0])
    def test_c_must_exceed_one(self, c):
        with pytest.raises(ValueError, match="exceed 1"):
            MobiusMap(c)


class TestRecoefficient:
    def test_log2_leading_coefficients(self):
        b = recoefficient(log2_series(16), MOBIUS2, 16).coeffs
        assert b[0] == 0.0
        assert b[1] == pytest.approx(0.5, abs=1e-14)
        assert b[2] == pytest.approx(0.125, abs=1e-14)
        assert b[3] == pytest.approx(1.0 / 24.0, abs=1e-14)

    def test_log2_closed_form_window(self):
        # re-expansion of log(1+z) under the c=2 map is -log(1 - w/2)
        b = recoefficient(log2_series(40), MOBIUS2, 40).coeffs
        for n in range(1, 41):
            assert b[n] == pytest.approx(0.5**n / n, rel=1e-12)

    def test_constant_series_invariant(self):
        b = recoefficient(PowerSeries((1.0, 0.0, 0.0, 0.0)), MOBIUS2, 3).coeffs
        assert b.tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_composition_against_brute_force_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            deg = int(rng.integers(1, 21))
            a = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
            mapping = MOBIUS2 if rng.random() < 0.5 else MobiusMap(3.0)
            N = int(rng.integers(1, deg + 1))
            got = np.array(recoefficient(PowerSeries(tuple(a)), mapping, N).coeffs)
            want = brute_force_composition(a, mobius_coeffs(mapping.c, N), N)
            scale = max(np.abs(want).max(), 1.0)
            assert np.abs(got - want).max() <= 1e-13 * scale

    def test_prefix_property(self):
        series_short = log2_series(24)
        series_long = log2_series(96)
        short = recoefficient(series_short, MOBIUS2, 24).coeffs
        long = recoefficient(series_long, MOBIUS2, 96).coeffs
        assert short.tolist() == long[:25].tolist()

    def test_range_check(self):
        with pytest.raises(ValueError):
            recoefficient(log2_series(10), MOBIUS2, 11)

    @pytest.mark.parametrize("c", [2.0, 3.0, 2.5])
    def test_against_exact_table(self, c):
        rng = np.random.default_rng(int(10 * c))
        N = 200
        a = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
        got = np.array(recoefficient(PowerSeries(tuple(a)), MobiusMap(c), N).coeffs)
        want = exact_recoefficient(a, c, N)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(a).sum()

    def test_past_euler_underflow(self):
        # 2^-1100 underflows; the table's small entries may flush to zero,
        # but the output must stay finite and the sum right to rounding
        series = log2_series(1100)
        b = recoefficient(series, MOBIUS2, 1100)
        assert np.isfinite(np.array(b.coeffs)).all()
        assert abs(accelerate_sum(series, MOBIUS2, 1100) - math.log(2)) <= 4e-16

    def test_repeat_calls_bit_identical(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal(151) + 1j * rng.standard_normal(151)
        series = PowerSeries(tuple(a))
        for mapping in (MOBIUS2, MobiusMap(3.0)):
            first = recoefficient(series, mapping, 150).coeffs
            assert recoefficient(series, mapping, 150).coeffs.tolist() == first.tolist()


class TestBlockRecurrence:
    """``recoefficient`` advances the row recurrence 64 orders per step;
    these cases sit on and next to the block edges m = 64, 128."""

    @pytest.mark.parametrize("c", [2.0, 3.0, 2.5, 1.01, 100.0])
    def test_integer_oracle_is_the_fraction_oracle(self, c):
        rng = np.random.default_rng(7)
        a = rng.standard_normal(31) + 1j * rng.standard_normal(31)
        want = exact_recoefficient(a, c, 30)
        assert np.array_equal(exact_recoefficient_int(a, c, 30), want)

    @pytest.mark.parametrize("c", [2.0, 3.0, 2.5, 1.01, 100.0])
    def test_against_exact_table(self, c):
        for N in (0, 1, 2, 63, 64, 65, 129, 300):
            rng = np.random.default_rng(N)
            a = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
            got = np.array(recoefficient(PowerSeries(a), MobiusMap(c), N).coeffs)
            want = exact_recoefficient_int(a, c, N)
            assert got.shape == (N + 1,)
            assert np.abs(got - want).max() <= 1e-14 * np.abs(a).sum(), N

    def test_prefix_across_block_boundary(self):
        rng = np.random.default_rng(70)
        a = rng.standard_normal(201) + 1j * rng.standard_normal(201)
        for mapping in (MOBIUS2, MobiusMap(3.0)):
            short = recoefficient(PowerSeries(a[:71]), mapping, 70).coeffs
            long = recoefficient(PowerSeries(a), mapping, 200).coeffs
            assert short.tolist() == long[:71].tolist()

    def test_matches_per_order_loop(self):
        rng = np.random.default_rng(1100)
        a = rng.standard_normal(1101) + 1j * rng.standard_normal(1101)
        got = np.array(recoefficient(PowerSeries(a), MobiusMap(3.0), 1100).coeffs)
        want = reference_recoefficient(a, 3.0, 1100)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(a).sum()


class TestAccelerateSum:
    def test_log2_geometric_error(self):
        err = abs(accelerate_sum(log2_series(20), MOBIUS2, 20) - math.log(2))
        assert err < 3.0 * 2.0**-20

    def test_log2_balanced_map(self):
        err = abs(accelerate_sum(log2_series(20), MobiusMap(3.0), 20) - math.log(2))
        assert err < 3.0 * 3.0**-20

    def test_constant_series_exact(self):
        c = 2.5 - 0.5j
        assert accelerate_sum(PowerSeries((c, 0.0, 0.0)), MOBIUS2, 2) == c

    def test_against_exact_table(self):
        N = 200
        rng = np.random.default_rng(25)
        a = rng.standard_normal(N + 1) + 1j * rng.standard_normal(N + 1)
        got = accelerate_sum(PowerSeries(tuple(a)), MobiusMap(2.5), N)
        assert abs(got - exact_accelerated_sum(a, 2.5, N)) <= 1e-14 * np.abs(a).sum()

    def test_does_not_re_expand(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("recoefficient called")

        series = log2_series(64)
        want = {c: accelerate_sum(series, MobiusMap(c), 64) for c in (2.0, 3.0)}
        monkeypatch.setattr(conformal, "recoefficient", refuse)
        for c, total in want.items():
            assert accelerate_sum(series, MobiusMap(c), 64) == total
        with pytest.raises(AssertionError):
            euler_equivalence_check(series, 64)

    def test_balanced_map_against_mpmath(self):
        # sum_{m<=N} b_m = a_0 + sum_n a_n sum_{m=n..N} T_3[m, n], with
        # T_3[m, n] = 2^n 3^-m C(m-1, n-1), evaluated at 40 digits
        c, N = 3, 400
        rng = np.random.default_rng(400)
        a = rng.uniform(-1, 1, N + 1) + 1j * rng.uniform(-1, 1, N + 1)
        with mpmath.workdps(40):
            total = mpmath.mpc(a[0])
            for n in range(1, N + 1):
                term = mpmath.mpf(c - 1) ** n / mpmath.mpf(c) ** n  # T[n, n]
                column = term
                for m in range(n + 1, N + 1):
                    term = term * (m - 1) / (m - n) / c
                    column += term
                total += column * mpmath.mpc(a[n])
            want = complex(total)
        got = accelerate_sum(PowerSeries(tuple(a)), MobiusMap(float(c)), N)
        assert abs(got - want) <= 1e-14 * np.abs(a).sum()


class TestEulerEquivalence:
    def test_log2_example(self):
        series = log2_series(16)
        total = sum(abs(c) for c in series.coeffs)
        assert euler_equivalence_check(series, 16) <= 1e-14 * total

    def test_constant_series(self):
        assert euler_equivalence_check(PowerSeries((1.0, 0.0, 0.0)), 2) == 0.0

    def test_random_sequences(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            a = rng.uniform(-1, 1, 33) + 1j * rng.uniform(-1, 1, 33)
            series = PowerSeries(tuple(a))
            assert euler_equivalence_check(series, 32) <= 1e-14 * np.abs(a).sum()

    def test_random_sequences_degree_64(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = rng.uniform(-1, 1, 65) + 1j * rng.uniform(-1, 1, 65)
            series = PowerSeries(tuple(a))
            assert euler_equivalence_check(series, 64) <= 1e-14 * np.abs(a).sum()


def abel_value(series, x, z, N):
    """The Abel extension sum_n c_n z^|n| exp(inx) at |z| < 1, through z^N:
    the power series of the folded coefficients a_n evaluated at z."""
    return complex(np.polynomial.polynomial.polyval(z, series.folded(x, N)))


class TestAbelExtend:
    """The inflated series, from ``FourierSeries.folded``, against closed forms."""

    def test_center_value(self):
        sws = make_sws().series
        assert abel_value(sws, 1.0, 0.0, 50) == 0.0

    def test_sawtooth_closed_form(self):
        sws = make_sws().series
        for z in (0.3, 0.5, 0.6, 0.9):
            for x in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
                closed = (
                    x
                    - math.pi
                    + 2 * math.atan((1 - z) / (1 + z) / math.tan(x / 2))
                )
                value = abel_value(sws, x, z, 400)
                assert value.real == pytest.approx(closed, abs=1e-10)
                assert abs(value.imag) < 1e-12

    def test_delta_closed_form(self):
        from gibbsaccel.catalog import make_delta

        delta = make_delta().series
        x, z = math.pi / 3, 0.5
        closed = (1 - z * z) / ((1 + z * z) - 2 * z * math.cos(x))
        assert closed == pytest.approx(1.0, abs=1e-15)
        assert abel_value(delta, x, z, 100).real == pytest.approx(closed, abs=1e-12)


class TestEstimateRadius:
    def test_pure_geometric(self):
        series = PowerSeries(tuple(0.5**n for n in range(61)))
        assert 1.98 <= estimate_radius(series) <= 2.02

    def test_log2_image_radius(self):
        # verified against recoefficient on its clean double-precision
        # window (test_log2_closed_form_window); extended by closed form
        # so the root test can reach its asymptotic regime
        b = [0.0] + [0.5**n / n for n in range(1, 401)]
        assert 1.95 <= estimate_radius(PowerSeries(tuple(b)), None) <= 2.05

    def test_balanced_map_radius(self):
        # re-expansion of log(1+z) under the c=3 map is log((1+w/3)/(1-w/3)):
        # odd coefficients 2/(n 3^n), even ones vanish
        b = [0.0] + [
            (2.0 / (n * 3.0**n) if n % 2 else 0.0) for n in range(1, 401)
        ]
        got = recoefficient(log2_series(40), MobiusMap(3.0), 40).coeffs
        for n in range(1, 41):
            assert got[n] == pytest.approx(b[n], rel=1e-9, abs=2e-15)
        assert 2.9 <= estimate_radius(PowerSeries(tuple(b)), None) <= 3.1

    def test_lorentzian_image_matches_rate_theory(self):
        tau = 0.2
        fn = make_lorentzian(p=math.exp(-tau), phi=math.pi, n_max=500).series
        x = math.pi
        a = tuple(fn.coeff(n) * np.exp(1j * n * x) for n in range(451))
        b = recoefficient(PowerSeries(a), MOBIUS2, 450)
        predicted = zeta_image_modulus(math.exp(tau), x - math.pi)
        assert estimate_radius(b) == pytest.approx(predicted, rel=0.02)

    def test_needs_enough_coefficients(self):
        with pytest.raises(ValueError):
            estimate_radius(PowerSeries(tuple(0.5**n for n in range(10))))

    def test_all_zero_tail_rejected(self):
        coeffs = (1.0,) + (0.0,) * 40
        with pytest.raises(ValueError):
            estimate_radius(PowerSeries(coeffs))


class TestRegularity:
    def test_acceleration_preserves_convergent_series(self):
        # a geometrically convergent series stays convergent under the
        # Euler weights: the filtered sums approach the closed form
        fn = make_lorentzian(p=0.3, phi=0.0, n_max=10_000).series
        spec = FilterSpec("euler")
        for x in (0.5, 1.5, 2.5):
            exact = fn.exact_eval(x)
            err = abs(exact - filtered_partial_sum(fn, x, 220, spec))
            assert err < 1e-10
