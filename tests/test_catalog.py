import cmath
import math

import numpy as np
import pytest

from gibbsaccel.catalog import (
    FUNCTION_KEYS,
    composite_coeff,
    composite_value,
    delta_coeff,
    get_function,
    log2_series,
    lorentzian,
    lorentzian_coeff,
    make_composite,
    make_log2,
    make_lorentzian,
    make_sws,
    sws,
    sws_coeff,
)
from gibbsaccel.conformal import MOBIUS2, PowerSeries, estimate_radius, recoefficient
from gibbsaccel.filters import FilterSpec
from gibbsaccel.series import filtered_partial_sum, partial_sum


class TestSawtooth:
    def test_values(self):
        assert sws(math.pi) == pytest.approx(0.0, abs=1e-15)
        assert sws(math.pi / 2) == pytest.approx(-math.pi / 2, rel=1e-15)
        assert sws(3 * math.pi / 2) == pytest.approx(math.pi / 2, rel=1e-15)

    def test_periodicity(self):
        for x in (0.3, 1.7, -2.2):
            assert sws(x + 2 * math.pi) == pytest.approx(sws(x), abs=1e-12)
            assert sws(x - 2 * math.pi) == pytest.approx(sws(x), abs=1e-12)

    def test_jump_value(self):
        assert sws(0.0) == -math.pi

    def test_coefficients(self):
        assert sws_coeff(0) == 0j
        assert sws_coeff(1) == 1j
        assert sws_coeff(-3) == pytest.approx(-1j / 3)

    def test_coefficients_sum_to_function(self):
        series = make_sws().series
        for x in (math.pi / 8, math.pi / 2, 7 * math.pi / 8):
            assert abs(partial_sum(series, x, 2000) - sws(x)) <= 10.0 / 2000


class TestLorentzian:
    def test_peak_and_trough(self):
        p = 0.5
        assert lorentzian(0.0, p) == pytest.approx((1 + p) / (1 - p), rel=1e-15)
        assert lorentzian(math.pi, p) == pytest.approx((1 - p) / (1 + p), rel=1e-15)

    def test_weak_pole_limit(self):
        assert lorentzian(1.3, 1e-9) == pytest.approx(1.0, abs=1e-8)

    def test_parameter_range(self):
        with pytest.raises(ValueError):
            lorentzian(0.0, 1.5)
        with pytest.raises(ValueError):
            lorentzian_coeff(1, -0.1)

    def test_coefficients(self):
        assert lorentzian_coeff(0, 0.5) == 1.0
        assert lorentzian_coeff(2, 0.5, 0.0) == pytest.approx(0.25)
        assert lorentzian_coeff(1, 0.5, math.pi) == pytest.approx(-0.5)
        assert lorentzian_coeff(-1, 0.5, math.pi) == pytest.approx(-0.5)

    def test_coefficients_sum_to_function(self):
        series = make_lorentzian(0.5, 0.0).series
        for x in (0.0, 1.0, math.pi):
            assert partial_sum(series, x, 200) == pytest.approx(
                lorentzian(x, 0.5), rel=1e-12
            )

    def test_declared_pole_depth_recoverable(self):
        # the off-axis tau declared by the factory should agree with the
        # radius measured from the re-expanded coefficients at the pole phase
        fn = make_lorentzian(math.exp(-1.0), math.pi, n_max=200)
        tau = fn.series.singularities.off_axis[0].tau
        assert abs(tau) == pytest.approx(1.0, rel=1e-14)
        x = math.pi
        a = tuple(fn.series.coeff(n) * cmath.exp(1j * n * x) for n in range(121))
        est = estimate_radius(recoefficient(PowerSeries(a), MOBIUS2, 120))
        r = math.exp(1.0)
        predicted = 2 * r / math.sqrt(1 + r * r + 2 * r)  # theta = 0 at the peak
        assert est == pytest.approx(predicted, rel=0.03)


class TestDeltaAndComposite:
    def test_delta_coefficients(self):
        assert delta_coeff(0) == 1.0
        assert delta_coeff(-17) == 1.0

    def test_composite_value(self):
        assert composite_value(math.pi, 0.5) == pytest.approx(3.0, rel=1e-15)

    def test_composite_coefficient(self):
        assert composite_coeff(1, 0.5) == pytest.approx(1j - 0.5)

    def test_weak_pole_reduces_to_sawtooth(self):
        for x in (0.7, 2.0, -1.1):
            assert composite_value(x, 1e-10) == pytest.approx(
                sws(x) + 1.0, abs=1e-8
            )

    def test_composite_declares_both_singularity_kinds(self):
        sings = make_composite(0.5).series.singularities
        assert sings.real_singularity == 0.0
        taus = sorted(s.tau for s in sings.off_axis)
        assert taus == pytest.approx([-math.log(2.0), math.log(2.0)])


class TestLogTwo:
    def test_series_terms(self):
        s = log2_series(8)
        assert s.coeffs[0] == 0.0
        assert s.coeffs[1] == 1.0
        assert s.coeffs[2] == -0.5
        assert s.coeffs[8] == pytest.approx(-0.125)

    def test_partial_sum_converges_slowly(self):
        n = 10_000
        total = math.fsum((-1.0) ** (k + 1) / k for k in range(1, n + 1))
        assert abs(total - math.log(2.0)) < 1e-4
        assert abs(total - math.log(2.0)) > 1e-5

    def test_abel_value_inside_disc(self):
        # the inflated series of the folded coefficients at x = 0, z = 0.5
        a = make_log2(n_max=200).series.folded(0.0, 200)
        assert np.polynomial.polynomial.polyval(0.5, a) == pytest.approx(
            math.log(1.5), rel=1e-12
        )

    def test_function_form(self):
        fn = make_log2(n_max=2000)
        assert fn.series.exact_eval(0.0) == pytest.approx(math.log(2.0))
        # filtered partial sum at x = 0 is the accelerated alternating sum
        got = filtered_partial_sum(fn.series, 0.0, 40, FilterSpec("euler"))
        assert got == pytest.approx(math.log(2.0), abs=1e-11)

    def test_real_singularity_at_pi(self):
        fn = make_log2()
        assert fn.series.singularities.real_singularity == math.pi


class TestRegistry:
    def test_all_keys_resolve(self):
        for key in FUNCTION_KEYS:
            fn = get_function(key)
            assert fn.name == key
            fn.series.coeff(3)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_function("heaviside")

    def test_parameters_forwarded(self):
        fn = get_function("lorentzian", p=0.25, phi=0.0)
        assert fn.series.exact_eval(0.0) == pytest.approx(5.0 / 3.0)
        fn = get_function("sws+lorentzian", p=0.25)
        assert fn.series.exact_eval(math.pi) == pytest.approx(5.0 / 3.0)

    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    def test_array_call_matches_scalar_calls(self, key):
        coeff = get_function(key).series.coeff
        ns = np.arange(-60, 61).reshape(11, 11)
        got = coeff(ns)
        assert got.shape == ns.shape and got.dtype == complex
        want = np.array([[complex(coeff(int(n))) for n in row] for row in ns])
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    def test_conjugate_symmetry_of_real_entries(self):
        for key in ("sws", "delta", "lorentzian", "sws+lorentzian"):
            series = get_function(key).series
            assert series.real_valued
            for n in (1, 2, 5):
                assert series.coeff(-n) == pytest.approx(
                    series.coeff(n).conjugate(), rel=1e-15
                )

    def test_exact_eval_matches_partial_sums(self):
        rng = np.random.default_rng(20260826)
        # the smooth entry converges geometrically ...
        series = get_function("lorentzian", p=0.4).series
        for x in rng.uniform(0.3, 2 * math.pi - 0.3, 4):
            err = abs(partial_sum(series, float(x), 60) - series.exact_eval(float(x)))
            assert err < 1e-12
        # ... while the jump-bearing one is limited to the 1/N Gibbs tail
        series = get_function("sws+lorentzian", p=0.4).series
        for x in rng.uniform(0.3, 2 * math.pi - 0.3, 4):
            err = abs(partial_sum(series, float(x), 400) - series.exact_eval(float(x)))
            assert err < 10.0 / 400
