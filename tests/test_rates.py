import math

import numpy as np
import pytest

from gibbsaccel.catalog import (
    FUNCTION_KEYS,
    get_function,
    make_composite,
    make_delta,
    make_lorentzian,
    make_sws,
)
from gibbsaccel.filters import FilterSpec
from gibbsaccel.rates import (
    DOMINATED_BY_METRIC,
    DOMINATED_BY_REAL,
    Singularity,
    SingularitySet,
    acceleration_penalty_region,
    delta_truncation_error,
    image_table,
    periodic_distance,
    rho_of_x,
    x_grid,
    z_image,
    zeta_image_modulus,
)
from gibbsaccel.series import pointwise_error
from gibbsaccel.sweeps import ErrorRow, ErrorTrace, fit_envelope

SAWTOOTH_SET = SingularitySet(real_singularity=0.0)


def lorentzian_set(tau, sigma=math.pi):
    return SingularitySet(
        real_singularity=None,
        off_axis=(Singularity(sigma, tau), Singularity(sigma, -tau)),
    )


class TestSingularitySet:
    def test_real_location_range(self):
        with pytest.raises(ValueError):
            SingularitySet(real_singularity=4.0)

    def test_conjugate_pairs_enforced(self):
        with pytest.raises(ValueError):
            SingularitySet(off_axis=(Singularity(1.0, 0.5),))
        SingularitySet(
            off_axis=(Singularity(1.0, 0.5),), conjugate_pairs=False
        )

    def test_off_axis_needs_nonzero_tau(self):
        with pytest.raises(ValueError):
            SingularitySet(off_axis=(Singularity(1.0, 0.0),))

    @pytest.mark.parametrize(
        "sigma, tau",
        [(math.nan, 0.5), (1.0, math.nan), (math.inf, 0.5), (1.0, math.inf)],
    )
    def test_non_finite_location_rejected(self, sigma, tau):
        # a NaN pair would pass the conjugate check by object identity
        nan_pair = (Singularity(sigma, tau), Singularity(sigma, -tau))
        with pytest.raises(ValueError, match="not finite"):
            SingularitySet(off_axis=nan_pair)
        with pytest.raises(ValueError, match="not finite"):
            SingularitySet(off_axis=nan_pair, conjugate_pairs=False)


class TestFloatOrArray:
    """One law for both input kinds: a float in gives a float out, an
    array in gives the elementwise values of the float calls."""

    XS = np.array([-7.0, -math.pi, -1.0, 0.0, 0.5, math.pi, 2 * math.pi, 9.5])

    def test_periodic_distance(self):
        got = periodic_distance(self.XS, 0.3)
        assert type(periodic_distance(0.5, 0.3)) is float
        assert got.tolist() == [periodic_distance(x, 0.3) for x in self.XS.tolist()]
        assert periodic_distance(2 * math.pi, 0.0) == 0.0

    def test_z_image_and_modulus(self):
        for sing in ((math.pi, 0.2), (math.pi, -0.2), (0.0, 0.0)):
            r, theta = z_image(sing, self.XS)
            images = zeta_image_modulus(r, theta)
            scalar = [zeta_image_modulus(*z_image(sing, x)) for x in self.XS.tolist()]
            assert all(type(v) is float for v in scalar)
            assert images.tolist() == scalar


class TestZImage:
    def test_real_singularity(self):
        r, theta = z_image((0.0, 0.0), math.pi / 3)
        assert r == 1.0
        assert abs(theta) == pytest.approx(math.pi / 3, abs=1e-15)

    def test_off_axis(self):
        r, theta = z_image((math.pi, 0.2), math.pi)
        assert r == pytest.approx(math.exp(0.2), rel=1e-14)
        assert theta == 0.0
        r_neg, theta_neg = z_image((math.pi, -0.2), math.pi)
        assert r_neg == r
        assert theta_neg == 0.0

    def test_coincident_point(self):
        r, theta = z_image((1.2, 0.0), 1.2)
        assert (r, theta) == (1.0, 0.0)


class TestZetaImageModulus:
    def test_unit_circle_at_origin_angle(self):
        assert zeta_image_modulus(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_matches_secant_form(self):
        # away from +-pi, where 1 + cos(x) itself cancels catastrophically
        for x in np.linspace(-3.0, 3.0, 1000):
            assert zeta_image_modulus(1.0, float(x)) == pytest.approx(
                1.0 / math.cos(x / 2), rel=1e-12
            )

    def test_off_axis_minimum(self):
        r = math.exp(0.2)
        assert zeta_image_modulus(r, 0.0) == pytest.approx(
            2 * r / (1 + r), rel=1e-14
        )
        assert zeta_image_modulus(r, 0.0) == pytest.approx(1.0997, abs=5e-4)

    def test_infinite_image(self):
        assert zeta_image_modulus(1.0, math.pi) == math.inf


class TestRhoOfX:
    def test_crossover_to_metric_cap(self):
        at_crossover = rho_of_x(SAWTOOTH_SET, 2 * math.pi / 3)
        assert at_crossover.rho == pytest.approx(2.0, rel=1e-12)
        beyond = rho_of_x(SAWTOOTH_SET, 2.5)
        assert beyond.rho == 2.0
        assert beyond.dominating == "metric"

    def test_secant_value(self):
        pred = rho_of_x(SAWTOOTH_SET, math.pi / 2)
        assert pred.rho == pytest.approx(math.sqrt(2), rel=1e-13)
        assert pred.dominating == "real"

    def test_small_x_expansion(self):
        for x in (0.05, 0.02, 0.01):
            assert rho_of_x(SAWTOOTH_SET, x).rho == pytest.approx(
                1 + x * x / 8, abs=x**4
            )

    def test_at_singularity_marker(self):
        pred = rho_of_x(SAWTOOTH_SET, 0.0)
        assert pred.rho == 1.0
        assert pred.q == 0.0
        assert pred.at_singularity

    def test_monotone_then_capped(self):
        xs = np.linspace(0, 2 * math.pi / 3, 200)
        rhos = [rho_of_x(SAWTOOTH_SET, float(x)).rho for x in xs]
        assert all(a <= b + 1e-14 for a, b in zip(rhos, rhos[1:]))
        for x in np.linspace(2 * math.pi / 3, math.pi, 50):
            assert rho_of_x(SAWTOOTH_SET, float(x)).rho == pytest.approx(
                2.0, rel=1e-12
            )

    def test_off_axis_can_dominate(self):
        sings = lorentzian_set(0.2)
        pred = rho_of_x(sings, math.pi)
        r = math.exp(0.2)
        assert pred.rho == pytest.approx(2 * r / (1 + r), rel=1e-13)
        assert isinstance(pred.dominating, int)


def envelope(sings, x, N, prefactor):
    """The predicted error envelope prefactor * exp(-q(x)*N)/N."""
    return prefactor * math.exp(-rho_of_x(sings, x).q * N) / N


class TestPredictedEnvelope:
    """``rho_of_x`` of a real singularity against the closed form
    rho = 1/cos(d/2), and the envelope exp(-qN)/N it predicts."""

    def test_figure_style_values(self):
        x = 5 * math.pi / 8
        assert rho_of_x(SAWTOOTH_SET, x).rho == pytest.approx(
            1 / math.cos(x / 2), rel=1e-14
        )
        want = 2 * math.cos(5 * math.pi / 16) ** 40 / 40
        assert envelope(SAWTOOTH_SET, x, 40, 2.0) == pytest.approx(want, rel=1e-12)
        x = math.pi / 8
        assert rho_of_x(SAWTOOTH_SET, x).rho == pytest.approx(
            1 / math.cos(x / 2), rel=1e-14
        )
        want = 12 * math.cos(math.pi / 16) ** 100 / 100
        assert envelope(SAWTOOTH_SET, x, 100, 12.0) == pytest.approx(
            want, rel=1e-12
        )

    def test_capped_rate(self):
        # 1/cos(1.5) = 14.1 lies above the cap, so rho = 2
        pred = rho_of_x(SAWTOOTH_SET, 3.0)
        assert (pred.rho, pred.dominating) == (2.0, "metric")
        assert envelope(SAWTOOTH_SET, 3.0, 1, 1.0) == pytest.approx(0.5, rel=1e-14)


class TestDeltaTruncationError:
    def test_vanishes_at_pi(self):
        for N in (1, 7, 20):
            assert abs(delta_truncation_error(math.pi, N)) < 1e-15

    def test_value_at_half_pi(self):
        # exact modulus 1/16 at N = 9 (verified against the filtered sum)
        assert abs(delta_truncation_error(math.pi / 2, 9)) == pytest.approx(
            1.0 / 16.0, rel=1e-13
        )

    def test_matches_filtered_delta_everywhere(self):
        delta = make_delta().series
        spec = FilterSpec("euler")
        for x in (math.pi / 4, math.pi / 2, 3 * math.pi / 4):
            for N in range(1, 41):
                oracle = abs(delta_truncation_error(x, N))
                measured = pointwise_error(delta, x, N, spec)
                # abs floor covers summation roundoff once the true error
                # drops below double precision
                assert measured == pytest.approx(oracle, rel=1e-12, abs=1e-13)

    def test_growth_bounded_by_inverse_x(self):
        N = 10
        products = [
            abs(delta_truncation_error(x, N)) * x
            for x in np.geomspace(1e-3, 0.5, 50)
        ]
        assert max(products) < 5.0

    def test_singular_point_rejected(self):
        with pytest.raises(ValueError):
            delta_truncation_error(0.0, 5)
        with pytest.raises(ValueError):
            delta_truncation_error(2 * math.pi, 5)


def special_points(sings):
    """x = x_s, the 2*pi/3 crossovers around it, and +-pi."""
    xs = [-math.pi, math.pi, 0.0]
    if sings.real_singularity is not None:
        x_s = sings.real_singularity
        xs += [x_s, x_s + 2 * math.pi / 3, x_s - 2 * math.pi / 3]
    for s in sings.off_axis:
        xs += [s.sigma, s.sigma + 2 * math.pi / 3]
    return np.array(xs)


class TestImageTable:
    """The array table against the scalar functions, value for value."""

    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    @pytest.mark.parametrize("p", [None, 0.3])
    @pytest.mark.parametrize("resolution", [2, 33, 501, 1001, 4096])
    def test_bit_identical_to_scalar(self, key, p, resolution):
        sings = get_function(key, p=p).series.singularities
        xs = np.concatenate([x_grid(resolution), special_points(sings)])
        rho, dominating, images = image_table(sings, xs)
        preds = [rho_of_x(sings, x) for x in xs.tolist()]
        assert rho.tolist() == [pred.rho for pred in preds]
        codes = {"metric": DOMINATED_BY_METRIC, "real": DOMINATED_BY_REAL}
        assert dominating.tolist() == [
            codes.get(pred.dominating, pred.dominating) for pred in preds
        ]
        expected = []
        if sings.real_singularity is not None:
            expected.append(
                [zeta_image_modulus(1.0, sings.real_distance(x)) for x in xs.tolist()]
            )
        for s in sings.off_axis:
            expected.append(
                [zeta_image_modulus(*z_image((s.sigma, s.tau), x)) for x in xs.tolist()]
            )
        assert [image.tolist() for image in images] == expected

    def test_special_points(self):
        xs = np.array([0.0, -math.pi, math.pi])
        rho, dominating, (real,) = image_table(SAWTOOTH_SET, xs)
        # at the singularity rho is 1 and the real image binds
        assert rho[0] == 1.0 and dominating[0] == DOMINATED_BY_REAL
        # at +-pi the real image escapes to infinity and the cap binds
        assert real[1:].tolist() == [math.inf, math.inf]
        assert rho[1:].tolist() == [2.0, 2.0]
        assert dominating[1:].tolist() == [DOMINATED_BY_METRIC] * 2

    def test_grid(self):
        for resolution in (2, 33, 501):
            expected = [
                -math.pi + 2.0 * math.pi * i / (resolution - 1)
                for i in range(resolution)
            ]
            assert x_grid(resolution).tolist() == expected
        with pytest.raises(ValueError):
            x_grid(1)


class TestPenaltyRegion:
    def test_shallow_poles_are_flagged_near_their_phase(self):
        samples = acceleration_penalty_region(lorentzian_set(0.2), 512)
        rho_raw = math.exp(0.2)
        flagged = [s for s in samples if s.flagged]
        assert flagged
        assert all(s.rho_raw == pytest.approx(rho_raw, rel=1e-14) for s in samples)
        # slowdown concentrates around the pole phase +-pi
        assert all(abs(abs(s.x) - math.pi) < math.pi / 2 for s in flagged)
        near_pi = min(samples, key=lambda s: abs(s.x - math.pi))
        assert near_pi.rho_euler == pytest.approx(1.0997, abs=1e-3)
        assert near_pi.flagged

    def test_unflagged_away_from_poles(self):
        samples = acceleration_penalty_region(lorentzian_set(0.2), 512)
        near_zero = min(samples, key=lambda s: abs(s.x))
        assert not near_zero.flagged

    def test_deep_poles_never_flagged(self):
        samples = acceleration_penalty_region(lorentzian_set(50.0), 256)
        assert not any(s.flagged for s in samples)

    def test_requires_off_axis(self):
        with pytest.raises(ValueError):
            acceleration_penalty_region(SAWTOOTH_SET, 64)

    @pytest.mark.parametrize("key", ["lorentzian", "sws+lorentzian"])
    def test_samples_follow_rho_of_x(self, key):
        sings = get_function(key).series.singularities
        rho_raw = math.exp(min(abs(s.tau) for s in sings.off_axis))
        for sample in acceleration_penalty_region(sings, 501):
            pred = rho_of_x(sings, sample.x)
            flagged = pred.rho < rho_raw and isinstance(pred.dominating, int)
            assert (sample.rho_euler, sample.rho_raw, sample.flagged) == (
                pred.rho, rho_raw, flagged
            )


class TestMeasuredVersusPredicted:
    @pytest.mark.parametrize(
        "x,n_lo,n_hi,stride,tol",
        [
            (math.pi / 8, 50, 600, 2, 0.05),
            (math.pi / 4, 10, 150, 2, 0.05),
            (5 * math.pi / 8, 5, 50, 1, 0.05),
        ],
    )
    def test_sawtooth_envelope_slope(self, x, n_lo, n_hi, stride, tol):
        sws = make_sws().series
        spec = FilterSpec("euler")
        trace = ErrorTrace(x=x, filter_kind="euler")
        for N in range(n_lo, n_hi + 1, stride):
            trace.rows.append(ErrorRow(N, pointwise_error(sws, x, N, spec), False))
        _, q_hat = fit_envelope(trace)
        q_pred = rho_of_x(SAWTOOTH_SET, x).q
        assert abs(q_hat - q_pred) <= tol * q_pred

    def test_composite_radius_cross_check(self):
        # covered in depth by the acceptance suite; spot-check one x here
        from gibbsaccel.conformal import MOBIUS2, PowerSeries, estimate_radius, recoefficient

        fn = make_composite(math.exp(-0.2), n_max=500).series
        x = 2.8
        a = tuple(fn.coeff(n) * np.exp(1j * n * x) for n in range(451))
        est = estimate_radius(recoefficient(PowerSeries(a), MOBIUS2, 450))
        pred = rho_of_x(fn.singularities, x)
        assert pred.rho < 2.0
        assert est == pytest.approx(pred.rho, rel=0.03)
