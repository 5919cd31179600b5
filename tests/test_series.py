import cmath
import dataclasses
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from test_filters import exact_euler_tails

import gibbsaccel.catalog as catalog_module
import gibbsaccel.series as series_module
import gibbsaccel.sweeps as sweeps_module
from gibbsaccel.catalog import (
    FUNCTION_KEYS,
    get_function,
    make_composite,
    make_delta,
    make_sws,
)
from gibbsaccel.filters import (
    _KEPT_TABLE_MAX_M,
    VALID_KINDS,
    FilterSpec,
    filter_weights,
    weight_bands,
)
from gibbsaccel.rates import delta_truncation_error, rho_of_x
from gibbsaccel.series import (
    FourierSeries,
    _filtered_sums,
    filtered_partial_sum,
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
    return FourierSeries(coeff=coeff, n_max=n_max)


class TestPartialSum:
    def test_sawtooth_trivial_points(self):
        sws = make_sws().series
        assert filtered_partial_sum(sws, math.pi, 0, IDENTITY) == 0

    def test_delta_at_origin(self):
        delta = make_delta().series
        value = filtered_partial_sum(delta, 0.0, 3, IDENTITY)
        assert value == pytest.approx(7.0, abs=1e-14)

    def test_sawtooth_algebraic_rate(self):
        sws = make_sws().series
        value = filtered_partial_sum(sws, math.pi / 2, 200, IDENTITY)
        assert abs(value - (-math.pi / 2)) < 2.0 / 200
        assert abs(value.imag) < 1e-12

    def test_degree_beyond_n_max_rejected(self):
        series = FourierSeries(coeff=lambda n: 1.0, n_max=10)
        with pytest.raises(ValueError):
            filtered_partial_sum(series, 0.3, 11, IDENTITY)


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
        value = filtered_partial_sum(series, 0.0, 10, IDENTITY)
        assert value == pytest.approx(21.0, abs=1e-14)
        assert saturation_floor(series, 10) == 100.0 * np.finfo(float).eps * 21.0


def complex_fold(series, x, N):
    """c_n e^{inx} + c_-n e^{-inx} for n = 0..N in complex128, a_0 = c_0."""
    c = series.coefficients(N)  # c[N + n] = c_n
    phase = np.exp(1j * np.arange(N + 1) * math.remainder(x, math.tau))
    a = c[N:] * phase + c[N::-1] * phase.conj()
    a[0] = c[N]
    return a


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

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_x_rejected(self, x):
        with pytest.raises(ValueError, match="not finite"):
            make_sws().series.folded(x, 3)

    @pytest.mark.parametrize(
        "key, params",
        [
            ("sws", {}),
            ("delta", {}),
            ("lorentzian", {"p": math.exp(-0.2), "phi": math.pi}),
            ("lorentzian", {"p": math.exp(-0.2), "phi": 7.0}),
            ("sws+lorentzian", {"p": 0.5}),
        ],
    )
    def test_real_function_folds_in_float64(self, key, params):
        # c_-n == conj(c_n), so the complex fold's imaginary part is exactly
        # zero and the float64 fold is its real part
        series = get_function(key, **params).series
        for N, x in itertools.product((0, 1, 2048, 2049, 5000), (0.3, 1.1, 2.5, 3.0)):
            a = series.folded(x, N)
            want = complex_fold(series, x, N)
            assert a.dtype == np.float64, (N, x)
            assert (want.imag == 0.0).all(), (N, x)
            assert np.array_equal(a, want.real), (N, x)

    @pytest.mark.parametrize("K", [1, 2, 2048, 2049, 4096, 4097, 4098, 6000])
    def test_real_through_the_last_symmetric_degree(self, K):
        # c_-K breaks the symmetry: below K the fold is real, from K on
        # complex, whatever degree was folded before (kept table or not)
        def coeff(n):
            n = np.asarray(n, dtype=float)
            return np.where(n == -K, 2.0, 1.0 / (1.0 + n * n))

        series = FourierSeries(coeff=coeff, n_max=7000)
        for N in (7000, K + 1, K, K - 1, 0, K - 1, K, 7000):
            want = np.float64 if N < K else np.complex128
            assert series.folded(0.4, N).dtype == want, N

    @pytest.mark.parametrize("N", [1, 2048, 2049, 5000])
    def test_other_series_fold_in_complex128(self, N):
        series = random_series(np.random.default_rng(5), 5000)
        for x in (0.3, 2.5):
            for s in (get_function("log2").series, series):
                a = s.folded(x, N)
                assert a.dtype == np.complex128
                assert a.tobytes() == complex_fold(s, x, N).tobytes()


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

    def test_degree_beyond_n_max_rejected(self):
        # the floor of a sum that folded() refuses to form is no floor
        series = make_sws(n_max=10).series
        with pytest.raises(ValueError, match="outside"):
            series.folded(1.0, 20)
        for N in (20, np.array([5, 20]), np.array([11])):
            with pytest.raises(ValueError, match=r"outside \[0, n_max=10\]"):
                saturation_floor(series, N)
        assert saturation_floor(series, np.array([0, 10])).shape == (2,)


def counting_series(coeff=None, n_max=10_000):
    """A series on ``coeff`` (the sawtooth's by default) that records the
    argument of every call its generator gets."""
    calls = []
    coeff = coeff or make_sws().series.coeff

    def counted(n):
        calls.append(n)
        return coeff(n)

    return FourierSeries(counted, n_max), calls


def bits(c):
    return np.ascontiguousarray(c).view(np.uint64).tolist()


def direct_floors(series, degrees):
    """The floors as summed before the series kept a table: the magnitudes
    of one fresh coefficient call at the top degree, |c_0| plus a running
    sum of |c_n| + |c_-n|."""
    top = max(degrees)
    mag = np.abs(series.coeff(np.arange(-top, top + 1)).astype(complex))
    pairs = mag[top + 1 :] + mag[:top][::-1]
    totals = mag[top] + np.concatenate(([0.0], np.cumsum(pairs)))
    return 100.0 * np.finfo(float).eps * totals[np.asarray(degrees)]


class TestKeptTable:
    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    def test_slices_equal_a_fresh_call(self, key):
        # the kept values are the same elementwise closed form, so a slice
        # of a larger table has the bits of a call at its own degree
        entry = get_function(key).series
        for first, then in ((1500, 37), (37, 1500), (0, 2048), (2048, 1)):
            series = dataclasses.replace(entry)  # an empty table
            for N in (first, then, first):
                want = entry.coeff(np.arange(-N, N + 1)).astype(complex)
                assert bits(series.coefficients(N)) == bits(want)

    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    def test_floors_equal_the_direct_sum(self, key):
        series = dataclasses.replace(get_function(key).series)
        for degrees in ([0], [0, 0, 1, 2], [0, 5, 300], [0, 1600], [3, 40], [0, 2048]):
            got = saturation_floor(series, degrees)
            assert got.tolist() == direct_floors(series, degrees).tolist()
            assert saturation_floor(series, degrees[-1]) == got[-1]

    def test_returned_arrays_are_read_only(self):
        series, _ = counting_series()
        for N in (0, 30, _KEPT_TABLE_MAX_M + 1):
            c = series.coefficients(N)
            with pytest.raises(ValueError, match="read-only"):
                c[0] = 1.0
        assert series.coefficients(30)[30] == 0  # c_0, unchanged

    def test_generator_output_stays_writeable(self):
        # the table is a read-only view: the generator's own array is not
        # frozen by the series that kept it
        values = np.arange(-5, 6).astype(complex)
        series = FourierSeries(lambda n: values, 5)
        assert not series.coefficients(5).flags.writeable
        assert values.flags.writeable

    def test_one_call_per_larger_degree(self):
        series, calls = counting_series()
        for N in (40, 10, 40, 0, 300, 299, 300):
            series.coefficients(N)
            series.folded(0.7, N)
            saturation_floor(series, [0, N])
        assert [len(ns) for ns in calls] == [81, 601]

    def test_replace_starts_empty(self):
        series = get_function("sws").series
        series.coefficients(50)
        other, calls = counting_series(make_delta().series.coeff)
        swapped = dataclasses.replace(series, coeff=other.coeff)
        assert swapped == dataclasses.replace(series, coeff=other.coeff)
        assert swapped.coefficients(5).tolist() == [1.0] * 11 and len(calls) == 1
        assert series.coefficients(5)[6] == 1j  # the sawtooth's c_1, still kept

    def test_degrees_above_the_bound_keep_nothing(self):
        bound = _KEPT_TABLE_MAX_M
        series, calls = counting_series()
        for N in (bound + 1, bound + 1, bound):
            series.coefficients(N)
        saturation_floor(series, [5, bound + 1])
        series.coefficients(bound)  # kept since the third call
        above, kept = 2 * bound + 3, 2 * bound + 1
        assert [len(ns) for ns in calls] == [above, above, kept, above]

    def test_far_delta_sweep_peak_does_not_rise(self):
        # 160.0 MB at N = 2,000,000 with the table and without it: above the
        # bound nothing is kept, and each coefficient array is freed as soon
        # as its magnitudes are taken
        config = ExperimentConfig(
            "delta", xs=(0.003,), n_min=1_999_000, n_max=2_000_000, n_stride=1000
        )
        sweep_errors(config)
        tracemalloc.start()
        try:
            sweep_errors(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 161e6

    def test_sweep_makes_one_array_call(self, monkeypatch):
        # one call at the top degree serves the floors and every x's fold
        series, calls = counting_series()
        entry = catalog_module.TestFunction(
            dataclasses.replace(make_sws().series, coeff=series.coeff)
        )
        monkeypatch.setattr(sweeps_module, "get_function", lambda *args, **kw: entry)
        config = ExperimentConfig(
            "sws", filters=("euler", "hdaf"), xs=(0.5, 1.5, 2.5), n_min=5, n_max=300
        )
        traces = sweep_errors(config)
        assert len(traces) == 6
        assert [len(ns) for ns in calls] == [601]


class TestFilteredPartialSum:
    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_a_real_series_sums_to_a_float(self, kind):
        spec = FilterSpec(kind)
        for key, N in itertools.product(FUNCTION_KEYS, (0, 7, 300)):
            value = filtered_partial_sum(get_function(key).series, 1.1, N, spec)
            assert type(value) is (complex if key == "log2" and N else float), key

    def test_identity_filter_is_plain_sum(self):
        sws = make_sws().series
        for x in (0.3, 1.1, 2.9):
            plain = complex(np.sum(sws.folded(x, 25)))
            assert filtered_partial_sum(sws, x, 25, IDENTITY) == plain

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

    @pytest.mark.parametrize("kind", VALID_KINDS)
    @pytest.mark.parametrize("x", [0.0, 2 * math.pi])
    def test_singular_point_rejected_before_any_array(self, x, kind):
        # the row's fold and weights would take 160-190 MB at their peak
        sws, spec = make_sws().series, FilterSpec(kind)
        calls = [
            lambda: trace_errors(sws, x, [2_000_000], [spec]),
            lambda: pointwise_error(sws, x, 2_000_000, spec),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="declared real singularity"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_x(self, x):
        sws = make_sws().series
        calls = [
            lambda: pointwise_error(sws, x, 10, EULER),
            lambda: filtered_partial_sum(sws, x, 10, EULER),
            lambda: trace_errors(sws, x, [5, 10], [EULER]),
            lambda: delta_truncation_error(x, 10),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="not finite"):
                call()


def per_degree_error(series, x, N, spec):
    """The error from a fold at N itself: the reference for a trace."""
    w = filter_weights(spec, N, series.real_singularity_distance(x))
    return abs(complex(series.exact_eval(x)) - complex(np.sum(w * series.folded(x, N))))


def exact_table_sum(w, a):
    """sum w_n a_n over a whole row, each product rounded once and the
    products summed exactly."""
    terms = w * a
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


def assert_row_matches_full_row(series, x, N, spec, error):
    """A row whose band is the whole row is the full-row sum bit for bit;
    a narrower one lies within DENSE_TOL_FLOORS floors of the exactly
    summed full row."""
    x_dist = series.real_singularity_distance(x)
    if weight_bands(spec, [N], x_dist) == ([0], [N]):
        assert error == per_degree_error(series, x, N, spec)
        return
    ref = exact_table_sum(filter_weights(spec, N, x_dist), series.folded(x, N))
    exact_error = abs(complex(series.exact_eval(x)) - ref)
    assert abs(error - exact_error) <= DENSE_TOL_FLOORS * saturation_floor(series, N)


@functools.lru_cache(maxsize=None)
def cached_euler_tails(M):
    """``exact_euler_tails(M)``, built once per degree: the integer tails
    take most of the time of the dense-trace checks."""
    return exact_euler_tails(M)


def exact_euler_sum(a, N):
    """sum sigma_E(n) a_n over n <= N with correctly rounded Euler weights,
    each product rounded once and the products summed exactly."""
    terms = cached_euler_tails(N) * a[: N + 1]
    return complex(math.fsum(terms.real), math.fsum(terms.imag))


#: Euler rows of a dense trace may differ from the exactly weighted sum by
#: this many saturation floors.  Measured worst case 0.017, against 0.016
#: for the weight tables; a plain running sum of the re-expansion, not
#: blocked, reaches 0.096.
DENSE_TOL_FLOORS = 0.05


@pytest.fixture
def weight_kinds(monkeypatch):
    """The filter kind of every ``filter_weights`` call made by ``series``."""
    kinds = []

    def recording(spec, N, x_dist=0.0, bands=None):
        kinds.append(spec.kind)
        return filter_weights(spec, N, x_dist, bands)

    monkeypatch.setattr(series_module, "filter_weights", recording)
    return kinds


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
                for N, error in zip(degrees, errs):
                    assert_row_matches_full_row(series, x, N, spec, error)

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
            if spec.kind == "euler":
                # a dense trace: its Euler rows come from one re-expansion
                a = series.folded(trace.x, config.n_max)
                exact = complex(series.exact_eval(trace.x))
                for row in trace.rows:
                    ref = abs(exact - exact_euler_sum(a, row.N))
                    floor = saturation_floor(series, row.N)
                    assert abs(row.error - ref) <= DENSE_TOL_FLOORS * floor
                continue
            for row in trace.rows:
                assert row.error == pointwise_error(series, trace.x, row.N, spec)
                assert_row_matches_full_row(series, trace.x, row.N, spec, row.error)

    def test_rows_across_weight_batches(self):
        # several weight batches, one of them a single row larger than a
        # batch, and runs of rows, a repeated degree among them, that
        # straddle a batch boundary
        budget = series_module._WEIGHT_BATCH_ENTRIES
        half, third = budget // 2, budget // 3
        degrees = [0, 2, 3, third, third, third, third, half - 9, half, budget + 5]
        sizes = [N + 1 for N in degrees]  # the batches of whole rows (Euler's)
        batches = [degrees[rows] for rows in series_module._weight_batches(sizes)]
        assert [budget + 5] in batches
        assert [0, 2, 3, third, third] in batches and [third, third] in batches
        assert [half - 9, half] in batches
        series = FourierSeries(
            coeff=lambda n: 1.0, n_max=budget + 5, exact_eval=lambda x: 0.0
        )
        specs = [FilterSpec(kind) for kind in VALID_KINDS]
        errors = trace_errors(series, 2.2, degrees, specs)
        for spec, errs in zip(specs, errors):
            for N, error in zip(degrees, errs):
                assert_row_matches_full_row(series, 2.2, N, spec, error)

    def test_empty_degree_list_rejected(self):
        sws = make_sws(n_max=50).series
        with pytest.raises(ValueError, match="at least one degree"):
            trace_errors(sws, 1.0, [], [EULER])

    def test_degree_range(self):
        sws = make_sws(n_max=50).series
        for degrees in ([-1, 10], [10, 51]):
            with pytest.raises(ValueError):
                trace_errors(sws, 0.3, degrees, [EULER])

    @pytest.mark.parametrize("key", ["sws", "lorentzian", "sws+lorentzian"])
    def test_periodic_copies_of_x(self, key):
        # x is reduced into [-pi, pi] before the phases and the closed form.
        # x is taken as the exact remainder of its far copy, so the two are
        # the same point modulo the float 2*pi and their rows must agree;
        # unreduced phases were off by ~20 floors at k = 1000.
        series = get_function(key).series
        specs = [EULER, FilterSpec("hdaf")]
        degrees = list(range(2, 301, 3))
        floors = saturation_floor(series, np.array(degrees))
        for x0, k in itertools.product((0.4, 2.0, -2.9), (1, 10**3, 10**6)):
            far = x0 + 2 * math.pi * k
            x = math.remainder(far, 2 * math.pi)
            near = np.array(trace_errors(series, x, degrees, specs))
            far_rows = np.array(trace_errors(series, far, degrees, specs))
            assert np.max(np.abs(far_rows - near) / floors) <= 0.01, (x0, k)


class TestBandedRows:
    """Erfc-Log and HDAF rows read only their band lo..hi
    (``filters.weight_bands``) and the pairwise sum of a_0..a_{lo-1}."""

    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    def test_rows_match_exactly_summed_full_rows(self, key):
        series = get_function(key).series
        degrees = list(range(2, 1601, 37))
        floors = saturation_floor(series, np.array(degrees))
        starts = np.cumsum([0] + [N + 1 for N in degrees])
        narrow = 0
        for x, kind in itertools.product((0.3, 1.1, 2.0, 2.9), ("erfclog", "hdaf")):
            spec = FilterSpec(kind)
            (sums,) = _filtered_sums(series, x, degrees, [spec])
            a = series.folded(x, degrees[-1])
            x_dist = series.real_singularity_distance(x)
            w = filter_weights(spec, degrees, x_dist)  # whole rows
            ref = [
                exact_table_sum(w[start : start + N + 1], a[: N + 1])
                for start, N in zip(starts, degrees)
            ]
            worst = np.max(np.abs(np.subtract(sums, ref)) / floors)
            assert worst <= DENSE_TOL_FLOORS, (x, kind)
            narrow += sum(lo > 0 for lo in weight_bands(spec, degrees, x_dist)[0])
        assert narrow >= len(degrees)  # the prefix sums ran

    def test_batches_reach_filter_weights_as_lists(self, monkeypatch):
        # a sweep's degrees are a range, whose slices are ranges: each batch
        # is handed on as a list of degrees and one list of lo and of hi
        calls = []

        def recording(spec, N, x_dist=0.0, bands=None):
            calls.append((N, bands))
            return filter_weights(spec, N, x_dist, bands)

        monkeypatch.setattr(series_module, "filter_weights", recording)
        series = get_function("sws").series
        for kind in VALID_KINDS:
            trace_errors(series, 2.5, range(3, 1500, 61), [FilterSpec(kind)])
        assert len(calls) >= len(VALID_KINDS)
        for N, (los, his) in calls:
            assert type(N) is list and type(los) is list and type(his) is list


class TestDenseEulerRoute:
    """Euler rows of a dense trace, summed from one Möbius(2) re-expansion."""

    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    def test_rows_match_exact_integer_tails(self, key, weight_kinds):
        series = get_function(key).series
        for x, degrees in itertools.product(
            (0.05, 0.3, 1.1, 2.0, 2.9, 3.1),
            # every N, every 5th, and 25-row traces up to N = 1490 as in the
            # compare-far benchmark
            (
                list(range(2, 401)),
                list(range(2, 1601, 5)),
                list(range(3, 801, 33)),
                list(range(4, 1157, 48)),
                list(range(2, 1491, 62)),
            ),
        ):
            (sums,) = _filtered_sums(series, x, degrees, [EULER])
            a = series.folded(x, degrees[-1])
            ref = [exact_euler_sum(a, N) for N in degrees]
            floors = saturation_floor(series, np.array(degrees))
            worst = np.max(np.abs(np.subtract(sums, ref)) / floors)
            assert worst <= DENSE_TOL_FLOORS, (x, degrees[1] - degrees[0])
        assert weight_kinds == []  # every trace took the re-expansion

    def test_same_degree_equal_across_traces(self, weight_kinds):
        series = get_function("sws+lorentzian").series
        edges = {63, 64, 65, 127, 128, 129}  # around the 64-term blocks
        first = sorted(set(range(2, 400, 5)) | edges)
        second = sorted(set(range(0, 1000, 3)) | edges)
        shared = sorted(set(first) & set(second))
        for x in (0.7, 2.6):
            (sums_first,) = _filtered_sums(series, x, first, [EULER])
            (sums_second,) = _filtered_sums(series, x, second, [EULER])
            at_first = dict(zip(first, sums_first))
            at_second = dict(zip(second, sums_second))
            assert [at_first[N] for N in shared] == [at_second[N] for N in shared]
        assert weight_kinds == []

    @pytest.mark.parametrize("key", ["sws", "lorentzian", "log2"])
    def test_dense_and_table_routes_agree(self, key):
        series = get_function(key).series
        degrees = list(range(2, 700, 7))
        for x in (0.3, 2.9):
            (dense,) = _filtered_sums(series, x, degrees, [EULER])
            # one row, and a sparse trace of two, take the weight tables
            (sparse,) = _filtered_sums(series, x, [2, 1600], [EULER])
            assert abs(dense[0] - sparse[0]) <= saturation_floor(series, 2)
            for N, value in zip(degrees, dense):
                single = filtered_partial_sum(series, x, N, EULER)
                assert abs(value - single) <= saturation_floor(series, N)

    @pytest.mark.parametrize("key", ["sws", "lorentzian", "log2"])
    def test_undeclared_rows_match_exact_integer_tails(self, key, weight_kinds):
        # the catalog's coefficients without their declared terms take the
        # re-expansion of the fold
        series = dataclasses.replace(get_function(key).series, euler_terms=None)
        for x, degrees in itertools.product(
            (0.05, 1.1, 3.1), (list(range(2, 401)), list(range(2, 1601, 5)))
        ):
            (sums,) = _filtered_sums(series, x, degrees, [EULER])
            a = series.folded(x, degrees[-1])
            ref = [exact_euler_sum(a, N) for N in degrees]
            floors = saturation_floor(series, np.array(degrees))
            worst = np.max(np.abs(np.subtract(sums, ref)) / floors)
            assert worst <= DENSE_TOL_FLOORS, (x, degrees[1] - degrees[0])
        assert weight_kinds == []

    def test_density_rule(self, weight_kinds):
        # without declared terms, dense when N_max^2 <= 128 * sum(N + 1):
        # 256^2 = 128 * (255 + 257)
        declared = make_sws(n_max=300).series
        series = dataclasses.replace(declared, euler_terms=None)
        for degrees, euler_calls in (
            ([254, 256], []),
            ([253, 256], ["euler"]),
            ([0], ["euler"]),  # one row is never dense
        ):
            weight_kinds.clear()
            _filtered_sums(series, 1.0, degrees, [EULER, IDENTITY])
            assert weight_kinds == euler_calls + ["identity"]
            # with them, no Euler row reads a weight table
            weight_kinds.clear()
            _filtered_sums(declared, 1.0, degrees, [EULER, IDENTITY])
            assert weight_kinds == ["identity"]


class TestDeclaredEulerTerms:
    """Euler rows of a series that declares its re-expansion
    (``FourierSeries.euler_terms``): prefix sums of those terms."""

    @pytest.mark.parametrize("key", FUNCTION_KEYS)
    def test_every_row_is_its_one_degree_sum(self, key, weight_kinds):
        # bit for bit, whatever the trace's top degree and stride
        series = get_function(key).series
        for x, degrees in itertools.product(
            (0.3, 2.0, -2.9),
            (
                range(0, 41),
                range(2, 401, 5),
                range(100, 1601, 100),
                [3, 63, 64, 65, 1599],
                [1000, 1000, 2048],
            ),
        ):
            (errors,) = trace_errors(series, x, degrees, [EULER])
            assert errors == [pointwise_error(series, x, N, EULER) for N in degrees]
        assert weight_kinds == []

    def test_fold_built_only_for_other_filters(self, monkeypatch):
        series = get_function("sws").series
        folds = []

        def counting(self, x, N):
            folds.append(N)
            return original(self, x, N)

        original = FourierSeries.folded
        monkeypatch.setattr(FourierSeries, "folded", counting)
        trace_errors(series, 1.0, [5, 300], [EULER])
        filtered_partial_sum(series, 1.0, 300, EULER)
        assert folds == []
        trace_errors(series, 1.0, [5, 300], [EULER, IDENTITY])
        assert folds == [300]

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_checks_come_before_the_terms(self, x, monkeypatch):
        # a non-finite x, then a degree beyond n_max, raise as the fold
        # does, before the declared terms are asked for
        def refuse(x, N):
            raise AssertionError("terms built")

        series = dataclasses.replace(make_sws(n_max=50).series, euler_terms=refuse)
        with pytest.raises(ValueError, match="not finite"):
            filtered_partial_sum(series, x, 51, EULER)
        with pytest.raises(ValueError, match="outside"):
            filtered_partial_sum(series, 1.0, 51, EULER)
        with pytest.raises(TypeError, match="not an integer"):
            filtered_partial_sum(series, x, 2.5, EULER)


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

    def test_negative_n_max_rejected(self):
        with pytest.raises(ValueError, match="^N must be >= 0$"):
            FourierSeries(coeff=lambda n: 1.0, n_max=-1)
