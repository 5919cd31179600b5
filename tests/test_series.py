import cmath
import math

import numpy as np
import pytest

from gibbsaccel.catalog import (
    FUNCTION_KEYS,
    get_function,
    make_composite,
    make_delta,
    make_sws,
)
from gibbsaccel.filters import VALID_KINDS, FilterSpec, filter_weights
from gibbsaccel.rates import delta_truncation_error, rho_of_x
from gibbsaccel.series import (
    FourierSeries,
    filtered_partial_sum,
    partial_sum,
    pointwise_error,
    saturation_floor,
    trace_errors,
)
from gibbsaccel.sweeps import ExperimentConfig, sweep_errors

EULER = FilterSpec("euler")
IDENTITY = FilterSpec("identity")


def random_series(rng, n_max, real_valued=False):
    values = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)

    def coeff(n):
        c = values[np.abs(n)]
        mirrored = c.conjugate() if real_valued else c * 0.7 - 0.1j
        return np.where(np.asarray(n) < 0, mirrored, c)

    if real_valued:
        values[0] = values[0].real
    return FourierSeries(coeff=coeff, n_max=n_max, real_valued=real_valued)


class TestPartialSum:
    def test_sawtooth_trivial_points(self):
        sws = make_sws().series
        assert partial_sum(sws, math.pi, 0) == 0

    def test_delta_at_origin(self):
        delta = make_delta().series
        assert partial_sum(delta, 0.0, 3) == pytest.approx(7.0, abs=1e-14)

    def test_sawtooth_algebraic_rate(self):
        sws = make_sws().series
        value = partial_sum(sws, math.pi / 2, 200)
        assert abs(value - (-math.pi / 2)) < 2.0 / 200
        assert abs(value.imag) < 1e-12

    def test_degree_beyond_n_max_rejected(self):
        series = FourierSeries(coeff=lambda n: 1.0, n_max=10)
        with pytest.raises(ValueError):
            partial_sum(series, 0.3, 11)


class TestArraySum:
    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    @pytest.mark.parametrize("kind", ["identity", "euler", "hdaf"])
    def test_matches_per_term_fsum(self, key, kind):
        # the pairwise reduction stays within one saturation floor of an
        # exactly rounded sum of scalar coefficient calls
        series = get_function(key).series
        spec = FilterSpec(kind)
        for x, N in ((0.7, 1), (2.3, 37), (-1.9, 400)):
            w = filter_weights(spec, N, series.real_singularity_distance(x))
            terms = [
                w[abs(n)] * complex(series.coeff(n)) * cmath.exp(1j * n * x)
                for n in range(-N, N + 1)
            ]
            ref = complex(
                math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms)
            )
            got = filtered_partial_sum(series, x, N, spec)
            assert abs(got - ref) <= saturation_floor(series, N)

    def test_constant_coefficients_broadcast(self):
        series = FourierSeries(coeff=lambda n: 1.0, n_max=10)
        assert partial_sum(series, 0.0, 10) == pytest.approx(21.0, abs=1e-14)
        assert saturation_floor(series, 10) == 100.0 * np.finfo(float).eps * 21.0


class TestFolded:
    def test_matches_two_sided_terms(self):
        sws = make_sws().series
        x, N = 0.7, 30
        a = sws.folded(x, N)
        c = sws.coefficients(N)  # c[N + n] = c_n
        ns = np.arange(1, N + 1)
        want = c[N + 1 :] * np.exp(1j * ns * x) + c[N - 1 :: -1] * np.exp(-1j * ns * x)
        assert a.shape == (N + 1,) and a[0] == c[N]
        np.testing.assert_allclose(a[1:], want, rtol=0, atol=1e-16)

    def test_degree_range(self):
        series = FourierSeries(coeff=lambda n: 1.0, n_max=10)
        assert series.folded(0.0, 0).tolist() == [1.0]
        for N in (-1, 11):
            with pytest.raises(ValueError):
                series.folded(0.3, N)


class TestSaturationFloor:
    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    def test_array_matches_per_degree(self, key):
        series = get_function(key).series
        degrees = np.array([0, 1, 2, 37, 400, 1600])
        floors = saturation_floor(series, degrees)
        assert floors.shape == degrees.shape
        eps = np.finfo(float).eps
        for N, floor in zip(degrees.tolist(), floors):
            direct = 100.0 * eps * np.abs(series.coefficients(N)).sum()
            per_degree = saturation_floor(series, N)
            assert floor == pytest.approx(per_degree, rel=1e-14, abs=0.0)
            assert floor == pytest.approx(direct, rel=1e-14, abs=0.0)

    def test_negative_degree_rejected(self):
        series = make_delta().series
        with pytest.raises(ValueError):
            saturation_floor(series, np.array([3, -1]))


class TestFilteredPartialSum:
    def test_identity_filter_is_plain_sum(self):
        sws = make_sws().series
        for x in (0.3, 1.1, 2.9):
            assert filtered_partial_sum(sws, x, 25, IDENTITY) == partial_sum(
                sws, x, 25
            )

    def test_sawtooth_euler_envelope(self):
        sws = make_sws().series
        x = 5 * math.pi / 8
        q = -math.log(math.cos(5 * math.pi / 16))
        err = abs(sws.exact_eval(x) - filtered_partial_sum(sws, x, 40, EULER))
        assert 0 < err < 2.0 * math.exp(-q * 40) / 40

    def test_delta_euler_vanishes_at_pi(self):
        delta = make_delta().series
        for N in (1, 5, 17, 40):
            assert abs(filtered_partial_sum(delta, math.pi, N, EULER)) < 1e-13 * (
                2 * N + 1
            )


class TestPointwiseError:
    def test_zero_at_zero_error_point(self):
        sws = make_sws().series
        assert pointwise_error(sws, math.pi, 0, IDENTITY) == 0.0

    def test_delta_matches_exact_truncation_error(self):
        delta = make_delta().series
        measured = pointwise_error(delta, math.pi / 2, 10, EULER)
        assert measured == pytest.approx(
            abs(delta_truncation_error(math.pi / 2, 10)), rel=1e-12
        )

    def test_sawtooth_below_predicted_envelope(self):
        sws = make_sws().series
        x = math.pi / 8
        q = rho_of_x(sws.singularities, x).q
        err = pointwise_error(sws, x, 100, EULER)
        assert 0 < err < 12.0 * math.exp(-q * 100) / 100

    def test_requires_exact_eval(self):
        series = FourierSeries(coeff=lambda n: 0.5 ** abs(n), n_max=100)
        with pytest.raises(ValueError):
            pointwise_error(series, 0.5, 10, IDENTITY)
        with pytest.raises(ValueError):
            trace_errors(series, 0.5, [2, 10], [IDENTITY, EULER])

    def test_rejects_singular_point(self):
        sws = make_sws().series
        with pytest.raises(ValueError):
            pointwise_error(sws, 0.0, 10, EULER)
        with pytest.raises(ValueError):
            pointwise_error(sws, 2 * math.pi, 10, EULER)


def per_degree_error(series, x, N, spec):
    """The error from a fold at N itself: the reference for a trace."""
    w = filter_weights(spec, N, series.real_singularity_distance(x))
    return abs(complex(series.exact_eval(x)) - complex(np.sum(w * series.folded(x, N))))


class TestTraceErrors:
    def test_constant_coefficients_match_per_degree_fold(self):
        # the broadcast path: one scalar coefficient for the whole fold
        series = FourierSeries(
            coeff=lambda n: 1.0, n_max=300, exact_eval=lambda x: 0.0
        )
        specs = [FilterSpec(kind) for kind in VALID_KINDS]
        degrees = [0, 1, 7, 150, 300]
        for x in (0.4, 2.9):
            errors = trace_errors(series, x, degrees, specs)
            for spec, errs in zip(specs, errors):
                assert errs == [pointwise_error(series, x, N, spec) for N in degrees]
                assert errs == [per_degree_error(series, x, N, spec) for N in degrees]

    def test_sweep_rows_match_per_degree_fold(self):
        config = ExperimentConfig(
            "sws+lorentzian", filters=VALID_KINDS, xs=(0.7, 2.6),
            n_min=3, n_max=240, n_stride=17,
        )
        series = get_function("sws+lorentzian").series
        traces = sweep_errors(config)
        assert len(traces) == 2 * len(VALID_KINDS)
        for trace in traces:
            spec = FilterSpec(trace.filter_kind)
            for row in trace.rows:
                assert row.error == pointwise_error(series, trace.x, row.N, spec)
                assert row.error == per_degree_error(series, trace.x, row.N, spec)

    def test_degree_range(self):
        sws = make_sws(n_max=50).series
        for degrees in ([-1, 10], [10, 51]):
            with pytest.raises(ValueError):
                trace_errors(sws, 0.3, degrees, [EULER])


class TestInvariants:
    def test_linearity(self):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n_max = 64
            f = random_series(rng, n_max)
            g = random_series(rng, n_max)
            a, b = 1.7 - 0.3j, -0.6 + 2.1j
            combo = FourierSeries(
                coeff=lambda n: a * f.coeff(n) + b * g.coeff(n), n_max=n_max
            )
            x = float(rng.uniform(-math.pi, math.pi))
            N = int(rng.integers(4, n_max + 1))
            lhs = filtered_partial_sum(combo, x, N, EULER)
            rhs = a * filtered_partial_sum(f, x, N, EULER) + b * filtered_partial_sum(
                g, x, N, EULER
            )
            scale = max(abs(lhs), abs(rhs), 1.0)
            assert abs(lhs - rhs) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["identity", "euler", "erfclog", "hdaf"])
    def test_realness_for_symmetric_filters(self, kind):
        rng = np.random.default_rng(11)
        series = random_series(rng, 48, real_valued=True)
        spec = FilterSpec(kind)
        total = math.fsum(abs(series.coeff(n)) for n in range(-48, 49))
        for x in (0.0, 0.4, 2.2, -1.3):
            value = filtered_partial_sum(series, x, 48, spec)
            assert abs(value.imag) <= 1e-12 * total

    def test_determinism(self):
        composite = make_composite(0.5).series
        first = filtered_partial_sum(composite, 1.234, 77, EULER)
        second = filtered_partial_sum(composite, 1.234, 77, EULER)
        assert first == second

    def test_real_valued_flag_checked(self):
        with pytest.raises(ValueError):
            FourierSeries(coeff=lambda n: 1j, n_max=10, real_valued=True)

    def test_real_valued_probe_reaches_n_max(self):
        # conjugate-symmetric up to |n| = 600, then c(n) = c(-n) = 1j
        def coeff(n):
            return np.where(np.abs(n) > 600, 1j, 1.0)

        FourierSeries(coeff=coeff, n_max=600, real_valued=True)
        with pytest.raises(ValueError, match="n=1000"):
            FourierSeries(coeff=coeff, n_max=1000, real_valued=True)
