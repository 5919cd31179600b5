import cmath
import dataclasses
import math

import mpmath
import numpy as np
import pytest

import gibbsaccel.catalog
from gibbsaccel.catalog import (
    FUNCTION_KEYS,
    delta_coeff,
    get_function,
    log2_series,
    make_composite,
    make_log2,
    make_lorentzian,
    make_sws,
    sws,
    sws_coeff,
)
from gibbsaccel.conformal import MOBIUS2, PowerSeries, estimate_radius, recoefficient
from gibbsaccel.filters import FilterSpec
from gibbsaccel.series import filtered_partial_sum, saturation_floor

IDENTITY = FilterSpec("identity")


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

    def test_reduction_is_fmod_shifted_when_negative(self):
        # Python's float % is fmod plus 2 pi when negative, bit for bit
        def fmod_sws(x):
            r = math.fmod(x, math.tau)
            if r < 0:
                r += math.tau
            return r - math.pi

        taus = [k * math.tau for k in (-3, -1, 1, 2, 1e6)]
        for x in (0.0, 5e-324, 1e-300, 1e6, 1.0, math.pi, *taus):
            for v in (x, -x):
                assert sws(v).hex() == fmod_sws(v).hex(), v
        assert sws(-5e-324) == math.pi  # fmod's -5e-324 + 2 pi rounds to 2 pi

    def test_non_finite_is_nan(self):
        # x % 2pi is NaN at +-inf, where math.fmod raises "math domain error"
        for x in (math.inf, -math.inf, math.nan):
            assert math.isnan(sws(x))

    def test_coefficients(self):
        assert sws_coeff(0) == 0j
        assert sws_coeff(1) == 1j
        assert sws_coeff(-3) == pytest.approx(-1j / 3)

    def test_coefficients_sum_to_function(self):
        series = make_sws().series
        for x in (math.pi / 8, math.pi / 2, 7 * math.pi / 8):
            value = filtered_partial_sum(series, x, 2000, IDENTITY)
            assert abs(value - sws(x)) <= 10.0 / 2000


class TestLorentzian:
    # the factory's phase defaults to pi, so each test passes phi itself
    def test_peak_and_trough(self):
        p = 0.5
        value = make_lorentzian(p, 0.0).series.exact_eval
        assert value(0.0) == pytest.approx((1 + p) / (1 - p), rel=1e-15)
        assert value(math.pi) == pytest.approx((1 - p) / (1 + p), rel=1e-15)

    def test_weak_pole_limit(self):
        value = make_lorentzian(1e-9, 0.0).series.exact_eval
        assert value(1.3) == pytest.approx(1.0, abs=1e-8)

    def test_parameter_range(self):
        builds = (
            lambda p: make_lorentzian(p, 0.0),
            make_composite,
            lambda p: get_function("lorentzian", p=p),
            lambda p: get_function("sws+lorentzian", p=p),
        )
        for p in (1.5, -0.1, 0.0, 1.0, math.nan):
            for build in builds:
                with pytest.raises(ValueError, match="outside"):
                    build(p)
        for phi in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="not finite"):
                make_lorentzian(0.5, phi)

    def test_coefficients(self):
        coeff = make_lorentzian(0.5, 0.0).series.coeff
        assert coeff(0) == 1.0
        assert coeff(2) == pytest.approx(0.25)
        coeff = make_lorentzian(0.5, math.pi).series.coeff
        assert coeff(0) == 1.0
        assert coeff(1) == pytest.approx(-0.5)
        assert coeff(-1) == pytest.approx(-0.5)

    def test_coefficients_sum_to_function(self):
        series = make_lorentzian(0.5, 0.0).series
        for x in (0.0, 1.0, math.pi):
            assert filtered_partial_sum(series, x, 200, IDENTITY) == pytest.approx(
                0.75 / (1.25 - math.cos(x)), rel=1e-12
            )

    @pytest.mark.parametrize("phi", [1e3, 1 + 2 * math.pi * 1e9, 1e17, -1e300])
    def test_phase_reduced_mod_two_pi(self, phi):
        # n*phi, cos(x - phi) and x - sigma each lose the bits of phi beyond
        # 2*pi; the entry is that of the exact remainder, bit for bit
        got = get_function("lorentzian", p=0.5, phi=phi).series
        reduced = math.remainder(phi, 2 * math.pi)
        want = get_function("lorentzian", p=0.5, phi=reduced).series
        ns = np.arange(65)
        assert got.coeff(ns).tobytes() == want.coeff(ns).tobytes()
        assert [got.coeff(n) for n in range(65)] == [want.coeff(n) for n in range(65)]
        xs = (-2.0, 0.0, 1.0, 2.0, 3.0)
        assert [got.exact_eval(x) for x in xs] == [want.exact_eval(x) for x in xs]
        assert got.singularities == want.singularities

    def test_far_phase_against_mpmath(self):
        # the phase, like x, is taken modulo the double 2*pi; the sums then
        # converge to the closed form of that phase
        series = get_function("lorentzian", p=0.5, phi=1e17).series
        phase = mpmath.mpf(math.remainder(1e17, 2 * math.pi))
        with mpmath.workdps(40):
            exact = float(0.75 / (1.25 - mpmath.cos(2 - phase)))
        floor = saturation_floor(series, 60)
        assert abs(series.exact_eval(2.0) - exact) <= floor
        assert abs(filtered_partial_sum(series, 2.0, 60, IDENTITY) - exact) <= floor

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
        value = make_composite(0.5).series.exact_eval
        assert value(math.pi) == pytest.approx(3.0, rel=1e-15)

    def test_composite_coefficient(self):
        coeff = get_function("sws+lorentzian", p=0.5).series.coeff
        assert coeff(1) == pytest.approx(1j - 0.5)
        np.testing.assert_allclose(coeff(np.array([1, -2])), [1j - 0.5, 0.25 - 0.5j])

    def test_weak_pole_reduces_to_sawtooth(self):
        value = make_composite(1e-10).series.exact_eval
        for x in (0.7, 2.0, -1.1):
            assert value(x) == pytest.approx(sws(x) + 1.0, abs=1e-8)

    def test_composite_declares_both_singularity_kinds(self):
        sings = make_composite(0.5).series.singularities
        assert sings.real_singularity == 0.0
        # one entry stands for the conjugate pair pi +- i*log(2)
        assert len(sings.off_axis) == 1
        assert sings.off_axis[0].sigma == math.pi
        assert sings.off_axis[0].tau == pytest.approx(math.log(2.0), rel=1e-15)


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
            fn.series.coeff(3)

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            get_function("heaviside")

    @pytest.mark.parametrize(
        "key, params",
        [
            ("sws", {"p": 0.5}),
            ("delta", {"p": 0.5}),
            ("log2", {"p": 0.5}),
            ("sws", {"phi": 0.0}),
            ("sws+lorentzian", {"phi": 0.0}),
        ],
    )
    def test_parameter_the_entry_lacks(self, key, params):
        with pytest.raises(ValueError, match="has no pole"):
            get_function(key, **params)

    def test_equal_arguments_give_the_identical_entry(self):
        for key, params in (("sws", {}), ("lorentzian", {"p": 0.8, "phi": 1.0})):
            entry = get_function(key, **params)
            assert get_function(key, **params) is entry
            assert get_function(key, params.get("p"), params.get("phi")) is entry
        assert get_function("sws+lorentzian", p=0.5) is get_function("sws+lorentzian", 0.5)
        assert get_function("lorentzian", p=0.8) is not get_function("lorentzian", p=0.7)
        with pytest.raises(dataclasses.FrozenInstanceError):
            entry.series.n_max = 5

    def test_bad_arguments_raise_on_every_call(self):
        for _ in range(3):
            with pytest.raises(KeyError, match="heaviside"):
                get_function("heaviside")
            with pytest.raises(ValueError, match="outside"):
                get_function("lorentzian", p=1.5)
            with pytest.raises(ValueError, match="not finite"):
                get_function("lorentzian", phi=math.nan)
            with pytest.raises(ValueError, match="has no pole"):
                get_function("sws", p=0.5)

    def test_unknown_key_before_parameters(self):
        with pytest.raises(KeyError):
            get_function("heaviside", p=0.5)

    def test_defaults_are_the_factories(self):
        for key, factory in (
            ("lorentzian", make_lorentzian), ("sws+lorentzian", make_composite)
        ):
            got = get_function(key).series
            want = factory().series
            assert got.singularities == want.singularities
            assert got.exact_eval(0.7) == want.exact_eval(0.7)

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
        # c(-n) = conj(c(n)) on both coefficient paths (index arrays and ints)
        for key, params in (
            ("sws", {}),
            ("delta", {}),
            ("lorentzian", {}),
            ("lorentzian", {"p": 0.3, "phi": 1.0}),
            ("sws+lorentzian", {}),
            ("sws+lorentzian", {"p": 0.25}),
        ):
            series = get_function(key, **params).series
            ns = np.array([*range(9), series.n_max // 2, series.n_max])
            c = series.coeff(ns)
            np.testing.assert_allclose(series.coeff(-ns), c.conj(), rtol=1e-15, atol=0)
            for n in ns.tolist():
                assert series.coeff(-n) == pytest.approx(
                    series.coeff(n).conjugate(), rel=1e-15
                )
        log2 = get_function("log2").series
        assert log2.coeff(-1) != pytest.approx(log2.coeff(1).conjugate())

    def test_exact_eval_matches_partial_sums(self):
        rng = np.random.default_rng(20260826)
        # the smooth entry converges geometrically ...
        series = get_function("lorentzian", p=0.4).series
        for x in rng.uniform(0.3, 2 * math.pi - 0.3, 4):
            value = filtered_partial_sum(series, float(x), 60, IDENTITY)
            err = abs(value - series.exact_eval(float(x)))
            assert err < 1e-12
        # ... while the jump-bearing one is limited to the 1/N Gibbs tail
        series = get_function("sws+lorentzian", p=0.4).series
        for x in rng.uniform(0.3, 2 * math.pi - 0.3, 4):
            value = filtered_partial_sum(series, float(x), 400, IDENTITY)
            err = abs(value - series.exact_eval(float(x)))
            assert err < 10.0 / 400


#: Every entry, with default and non-default parameters (phi inside
#: (-pi, pi], which make_lorentzian leaves as it is)
ENTRIES = [
    ("sws", {}),
    ("delta", {}),
    ("log2", {}),
    ("lorentzian", {}),
    ("lorentzian", {"p": 0.3, "phi": 2.0}),
    ("sws+lorentzian", {}),
    ("sws+lorentzian", {"p": 0.9}),
]
#: Lorentzian entries at more phases and depths, for the bit-for-bit check
#: of the int path, which multiplies a bound -1j*phi by n.
PHASED = [
    ("lorentzian", {"p": p, "phi": phi})
    for p in (0.5, 0.99)
    for phi in (-math.pi / 3, 0.0, 2.5, -3.0, 7.0)
]


def entry_ids(entries):
    return [
        key + "".join(f"-{k}={v}" for k, v in params.items()) for key, params in entries
    ]


ENTRY_IDS = entry_ids(ENTRIES)


def closed_form(key, n, p=None, phi=None):
    """c_n written out in plain Python, independently of the catalog."""
    sawtooth = 1j / n if n else 0j
    if key == "sws":
        return sawtooth
    if key == "delta":
        return 1 + 0j
    if key == "log2":
        return complex((-1.0) ** (n + 1) / n) if n > 0 else 0j
    if key == "lorentzian":
        p, phi = p or math.exp(-0.2), math.pi if phi is None else phi
        phi = math.remainder(phi, math.tau)  # the factory's reduction
        return p ** abs(n) * cmath.exp(-1j * n * phi)
    p = p or 0.5
    return sawtooth + p ** abs(n) * cmath.exp(-1j * n * math.pi)


def bits(z):
    """The exact bits of a complex, signed zeros included."""
    return z.real.hex(), z.imag.hex()


class TestScalarPath:
    SAMPLE = [-3, 0, 1, 7]

    def test_int_path_stays_in_plain_python(self, monkeypatch):
        coeffs = [get_function(key, **params).series.coeff for key, params in ENTRIES]

        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"int path touched np.{name}")

        with monkeypatch.context() as patch:
            patch.setattr(gibbsaccel.catalog, "np", NoNumpy())
            got = [[coeff(n) for n in self.SAMPLE] for coeff in coeffs]
        for values in got:
            assert all(type(v) is complex for v in values)

    @pytest.mark.parametrize("key, params", ENTRIES, ids=ENTRY_IDS)
    def test_numpy_integer_takes_the_array_path(self, key, params):
        # a numpy integer is a 0-d index, not an int: its result is 0-d
        # and equals its entry of the array bit for bit
        coeff = get_function(key, **params).series.coeff
        for n in [*self.SAMPLE, 10**6, -(10**6)]:
            for index in (np.int64(n), np.int32(n)):
                value = coeff(index)
                assert isinstance(value, (np.ndarray, np.generic))
                assert np.ndim(value) == 0
                want = coeff(np.array([index]))[0]
                assert bits(complex(value)) == bits(complex(want)), (n, type(index))

    @pytest.mark.parametrize(
        "key, params", ENTRIES + PHASED, ids=entry_ids(ENTRIES + PHASED)
    )
    def test_bit_for_bit_against_closed_form(self, key, params):
        coeff = get_function(key, **params).series.coeff
        for n in [*range(-500, 501), 10**6, -(10**6), 2 * 10**6]:
            want = complex(closed_form(key, n, **params))
            assert bits(coeff(n)) == bits(want), n


class TestBoundParameters:
    def test_per_term_calls_check_nothing(self, monkeypatch):
        # an entry checks p when it is built; its calls only evaluate
        series = [get_function(key, **params).series for key, params in ENTRIES]

        def refuse(p):
            raise AssertionError(f"p={p} checked again")

        monkeypatch.setattr(gibbsaccel.catalog, "_check_p", refuse)
        ns = np.arange(-40, 41)
        for s in series:
            assert s.coeff(ns).shape == ns.shape
            assert all(type(s.coeff(n)) is complex for n in ns.tolist())
            assert np.ndim(s.coeff(np.int64(7))) == 0
            s.exact_eval(0.7)
        with pytest.raises(AssertionError, match="checked again"):
            make_composite(0.5)
