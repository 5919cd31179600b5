import itertools
import math
import sys
import threading
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsaccel import filters as filters_module
from gibbsaccel.catalog import log2_series, make_sws
from gibbsaccel.conformal import (
    MOBIUS2,
    accelerate_sum,
    euler_equivalence_check,
    recoefficient,
)
from gibbsaccel.filters import (
    VALID_KINDS,
    FilterSpec,
    erfclog_sigma,
    euler_mu,
    euler_sigma,
    filter_weights,
    weight_bands,
)
from gibbsaccel.filters import (
    _BLOCK,
    _CODY_FAR,
    _CODY_HUGE,
    _CODY_SMALL,
    _HDAF_TEMME_DEPTH,
    _KEPT_TABLE_MAX_M,
    _binomial_steps,
    _block_row,
    _checked_degree,
    _checked_degrees,
    _erfc,
    _euler_mu_row,
    _euler_sigma_table,
    _hdaf_rows,
    _kept_euler_sigma_table,
    mobius_reexpand,
)
from gibbsaccel.rates import delta_truncation_error
from gibbsaccel.series import (
    FourierSeries,
    _weight_batches,
    pointwise_error,
    saturation_floor,
    trace_errors,
)
from gibbsaccel.sweeps import ExperimentConfig, sweep_errors


class TestEulerMu:
    def test_small_values(self):
        assert euler_mu(2, 1) == pytest.approx(0.5, abs=1e-15)
        assert euler_mu(2, 0) == pytest.approx(0.25, abs=1e-15)
        assert euler_mu(1, 0) == pytest.approx(0.5, abs=1e-15)

    def test_row_sums_to_one(self):
        for M in range(1, 201):
            total = math.fsum(euler_mu(M, k) for k in range(M + 1))
            assert total == pytest.approx(1.0, abs=1e-13)

    def test_positive_at_large_m(self):
        # recurrence stays finite far beyond where factorials overflow
        row = [euler_mu(1000, k) for k in (0, 500, 1000)]
        assert all(v > 0 for v in row)
        assert row[0] == pytest.approx(2.0**-1000, rel=1e-13)

    def test_matches_row_as_m_changes(self):
        # every euler_mu call reads a fresh row of its own M
        for M in (7, 300, 7, 8, 300):
            assert [euler_mu(M, k) for k in range(M + 1)] == _euler_mu_row(M).tolist()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            euler_mu(4, 5)
        with pytest.raises(ValueError):
            euler_mu(4, -1)


def binomial_tails(M):
    """sum_{k>=j} C(M, k) for j = 0..M, as exact integers."""
    row = [1]
    for k in range(M):
        row.append(row[-1] * (M - k) // (k + 1))
    return list(itertools.accumulate(reversed(row)))[::-1]


def exact_euler_tails(M):
    """sum_{k>=j} C(M, k) / 2^M for j = 0..M: integer tails, correctly rounded."""
    return np.array([t / 2**M for t in binomial_tails(M)])


class TestEulerSigma:
    def test_endpoints(self):
        for M in (1, 2, 7, 40):
            assert euler_sigma(0, M) == 1.0
            assert euler_sigma(M + 1, M) == 0.0

    def test_interior_values(self):
        assert euler_sigma(1, 2) == pytest.approx(0.75, abs=1e-15)
        assert euler_sigma(2, 2) == pytest.approx(0.25, abs=1e-15)

    def test_monotone_nonincreasing(self):
        for M in range(1, 201):
            values = [euler_sigma(j, M) for j in range(M + 2)]
            # slack covers the ~ulp drift of the cumulative tail sums
            assert all(a >= b - 1e-13 for a, b in zip(values, values[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            euler_sigma(4, 2)
        with pytest.raises(ValueError, match="^N must be >= 0$"):
            euler_sigma(0, -1)

    def test_large_tables_are_not_kept(self):
        # a table above the limit is rebuilt by each call and never cached;
        # one at the limit is built once and kept
        for M in (_KEPT_TABLE_MAX_M + 1, 10**6):
            before = _kept_euler_sigma_table.cache_info()
            table = _euler_sigma_table(M)
            assert table.shape == (M + 1,) and table[0] == 1.0
            assert _euler_sigma_table(M) is not table
            after = _kept_euler_sigma_table.cache_info()
            assert (after.hits, after.misses) == (before.hits, before.misses)
        kept = _euler_sigma_table(_KEPT_TABLE_MAX_M)
        assert _euler_sigma_table(_KEPT_TABLE_MAX_M) is kept

    @pytest.mark.parametrize("M", [1074, 1075, 1600])
    def test_matches_exact_integer_tails_past_underflow(self, M):
        # 0.5**M underflows to 0 from M = 1075 on; the table must not care
        sigma = filter_weights(FilterSpec("euler"), M)
        exact = exact_euler_tails(M)
        np.testing.assert_allclose(sigma, exact, rtol=1e-14, atol=1e-300)
        assert sigma[M // 2] == pytest.approx(0.5, abs=0.05)


def exact_binomial_tails(N, p):
    """P(Binomial(N, p) >= j) for j = 0..N, exact in rationals for the double p."""
    p = Fraction(p)
    pmf = [math.comb(N, k) * p**k * (1 - p) ** (N - k) for k in range(N + 1)]
    return np.array([float(t) for t in itertools.accumulate(reversed(pmf))][::-1])


class TestEulerKnopp:
    @pytest.mark.parametrize("p", [1 / 2, 2 / 3, 3 / 5])
    def test_tails_match_exact_binomial(self, p):
        sigma = _euler_sigma_table(200, p)
        exact = exact_binomial_tails(200, p)
        np.testing.assert_allclose(sigma, exact, rtol=0, atol=1e-15)
        # sigma(0..200); the 0 at j = 201 is euler_sigma's, not the table's
        assert sigma[0] == 1.0 and sigma.shape == (201,)

    def test_half_is_the_euler_table(self):
        for M in (1, 2, 37, 1100):
            table = _euler_sigma_table(M, 0.5)
            assert table.tolist() == [euler_sigma(j, M) for j in range(M + 1)]

    def test_rejects_p_outside_unit_interval(self):
        for p in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                _euler_mu_row(10, p)


class TestErfcLog:
    def test_halfway_point(self):
        for p in (1.0, 3.5, 40.0):
            assert erfclog_sigma(0.5, p) == pytest.approx(0.5, abs=1e-12)

    def test_endpoints_exact(self):
        assert erfclog_sigma(1.0, 2.0) == 0.0
        assert erfclog_sigma(-1.0, 2.0) == 0.0
        assert erfclog_sigma(0.0, 2.0) == 1.0

    def test_continuous_at_half(self):
        limit = erfclog_sigma(0.5, 7.0)
        for eps in (1e-8, -1e-8):
            assert abs(erfclog_sigma(0.5 + eps, 7.0) - limit) < 1e-7

    def test_symmetric(self):
        for theta in (0.1, 0.37, 0.5, 0.93):
            assert erfclog_sigma(-theta, 2.5) == erfclog_sigma(theta, 2.5)

    def test_range(self):
        for theta in np.linspace(0, 1, 101):
            v = erfclog_sigma(float(theta), 4.0)
            assert 0.0 <= v <= 1.0

    def test_rejects_theta_beyond_support(self):
        with pytest.raises(ValueError):
            erfclog_sigma(1.0001, 1.0)

    def test_array_matches_scalar_calls(self):
        theta = np.concatenate([np.linspace(-1, 1, 401), [0.5 + 1e-15, 0.5 - 1e-15]])
        for p in (0.3, 4.0, 250.0):
            w = erfclog_sigma(theta, p)
            assert w.shape == theta.shape
            assert w.tolist() == [erfclog_sigma(float(t), p) for t in theta]

    def test_array_endpoints_exact(self):
        w = erfclog_sigma(np.array([-1.0, 0.0, 1.0]), 2.0)
        assert w.tolist() == [0.0, 1.0, 0.0]

    def test_array_rejects_theta_beyond_support(self):
        with pytest.raises(ValueError):
            erfclog_sigma(np.array([0.2, -1.0001]), 1.0)

    def test_rejects_nan_theta(self):
        # a NaN |theta| fails the range check like |theta| > 1
        with pytest.raises(ValueError, match="theta"):
            erfclog_sigma(math.nan, 4.0)
        with pytest.raises(ValueError, match="theta"):
            erfclog_sigma(np.array([0.2, math.nan, 0.7]), 4.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_order_not_positive_finite(self, p):
        with pytest.raises(ValueError, match="order"):
            erfclog_sigma(0.3, p)
        with pytest.raises(ValueError, match="order"):
            erfclog_sigma(np.array([0.1, 0.3]), np.array([2.0, p]))

    def test_nan_distance_rejected(self):
        for N in (4, [0, 4]):
            with pytest.raises(ValueError, match="nonnegative"):
                filter_weights(FilterSpec("erfclog"), N, math.nan)

    def test_unrepresentable_order_rejected_before_allocation(self):
        # the order 1 + N*x_dist/(2 pi) takes HDAF's top-row bound
        # N*x_dist/15 < 2^53: an infinite distance, or a product past it at
        # representable degrees, raises before theta (10^6 or 10^7 doubles)
        for N, x_dist in ((10**6, math.inf), ([5, 10**7], 1e11)):
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="not representable"):
                    filter_weights(FilterSpec("erfclog"), N, x_dist)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6, (N, x_dist)

    @settings(max_examples=60, deadline=None)
    @given(
        degrees=st.lists(st.integers(0, 1600), min_size=1, max_size=6).map(sorted),
        x_dist=st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi)),
    )
    def test_rows_are_erfclog_sigma(self, degrees, x_dist):
        # filter_weights calls the unchecked kernel beneath erfclog_sigma:
        # whole and banded rows are erfclog_sigma(n/N, 1 + N*x_dist/(2 pi))
        # byte for byte, a degree-0 row at degree 1's order
        spec = FilterSpec("erfclog")
        rows = []
        for N in degrees:
            M = max(N, 1)
            rows.append(erfclog_sigma(np.arange(N + 1) / M, 1 + M * x_dist / math.tau))
            # the kernel's signs: 1 at theta = 0 and 0 at theta = 1
            assert rows[-1][0] == 1.0 and rows[-1][N] == float(N == 0)
        whole = filter_weights(spec, degrees, x_dist)
        assert whole.tobytes() == np.concatenate(rows).tobytes()
        los, his = weight_bands(spec, degrees, x_dist)
        banded = filter_weights(spec, degrees, x_dist, (los, his))
        slices = [w[lo : hi + 1] for w, lo, hi in zip(rows, los, his)]
        assert banded.tobytes() == np.concatenate(slices).tobytes()


def _kernel_edges() -> np.ndarray:
    """Every range boundary and both its neighbours, 0, 1e-300, the
    smallest subnormal and 40, then all of them negated."""
    edges = [
        v
        for b in (_CODY_SMALL, _CODY_FAR, _CODY_HUGE)
        for v in (b, np.nextafter(b, 0.0), np.nextafter(b, 50.0))
    ]
    edges += [0.0, 1e-300, 5e-324, 40.0]
    return np.concatenate([edges, np.negative(edges)])


def _kernel_points() -> np.ndarray:
    """[-40, 40] on a grid, 20000 seeded uniform points, both sides of
    every range boundary, +-0 and +-40."""
    grid = np.linspace(-40.0, 40.0, 8001)
    random = np.random.default_rng(12).uniform(-40.0, 40.0, 20_000)
    return np.concatenate([grid, random, _kernel_edges()])


class TestErfcKernel:
    """Cody's rational erfc against mpmath at 40 digits, each point given
    the Gaussian exp(-x^2) that a caller passes."""

    @pytest.fixture(scope="class")
    def reference(self):
        # the exact erfc and the correctly rounded exp(-x^2)
        xs = _kernel_points()
        with mpmath.workdps(40):
            exact = [mpmath.erfc(mpmath.mpf(x)) for x in xs.tolist()]
            gauss = [float(mpmath.exp(-mpmath.mpf(x) ** 2)) for x in xs.tolist()]
        return xs, exact, np.array(gauss)

    def test_relative_error_below_the_cut(self, reference):
        # every |x| <= 10, and on to Cody's cut XBIG = 26.543, past which
        # erfc is near the smallest normal double and is returned as 0
        xs, exact, gauss = reference
        got = _erfc(xs, gauss)
        worst = max(
            abs((mpmath.mpf(v) - e) / e)
            for x, v, e in zip(xs.tolist(), got.tolist(), exact)
            if abs(x) < 26.543
        )
        assert worst <= 2e-14

    def test_absolute_error_one_ulp_of_one(self, reference):
        # against the correctly rounded value: 2 - erfc(|x|) alone rounds
        # by up to half an ulp of 1 on the reflected side
        xs, exact, gauss = reference
        rounded = np.array([float(e) for e in exact])
        assert np.abs(_erfc(xs, gauss) - rounded).max() <= 2.0**-52

    def test_special_values(self):
        xs = np.array([0.0, -0.0, 40.0, -40.0, math.inf, -math.inf])
        got = _erfc(xs, np.exp(-xs * xs))
        assert got.tolist() == [1.0, 1.0, 0.0, 2.0, 0.0, 2.0]
        assert math.isnan(_erfc(math.nan, math.nan))

    def test_entries_independent_of_the_batch(self):
        # every range edge and both its neighbours, and NaN inside the
        # array, each entry with its Gaussian from the same array;
        # compared as bits, so NaN and -0.0 count
        edges = _kernel_edges()
        xs = np.concatenate([_kernel_points()[::7], edges, [math.nan, math.inf]])
        gauss = np.exp(-xs * xs)
        got = _erfc(xs, gauss)
        bits = got.view(np.int64)
        pairs = list(zip(xs.tolist(), gauss.tolist()))
        singles = np.array([float(_erfc(x, g)) for x, g in pairs])
        assert singles.view(np.int64).tolist() == bits.tolist()
        zero_d = np.array([_erfc(np.array(x), np.array(g))[()] for x, g in pairs])
        assert zero_d.view(np.int64).tolist() == bits.tolist()
        order = np.random.default_rng(3).permutation(xs.size)
        permuted = _erfc(xs[order], gauss[order])
        assert permuted.view(np.int64).tolist() == bits[order].tolist()
        column = _erfc(xs.reshape(-1, 1), gauss.reshape(-1, 1))
        assert column.shape == (xs.size, 1)
        assert column.ravel().view(np.int64).tolist() == bits.tolist()
        assert np.isnan(got[-2]) and got[-1] == 0.0

    @pytest.mark.parametrize("x_dist", [0.05, 0.2618, 1.3, 3.0])
    def test_erfclog_rows_match_math_erfc(self, x_dist):
        degrees = [1, 2, 7, 40, 401, 1500]
        got = filter_weights(FilterSpec("erfclog"), degrees, x_dist)
        expected = []
        for N in degrees:
            p = 1.0 + N * x_dist / (2 * math.pi)
            for n in range(N + 1):
                tb = n / N - 0.5
                if n in (0, N):
                    arg = math.copysign(40.0, tb)
                elif abs(tb) < 1e-14:
                    arg = 0.0
                else:
                    t2 = 4.0 * tb * tb
                    arg = 2.0 * math.sqrt(p) * tb * math.sqrt(-math.log1p(-t2) / t2)
                expected.append(0.5 * math.erfc(max(-40.0, min(40.0, arg))))
        assert np.abs(got - expected).max() <= 1e-15

    @pytest.mark.parametrize("x_dist", [1.5, 2.2, 3.0])
    def test_banded_erfclog_rows_match_mpmath(self, x_dist):
        # compare-far's rows and bands, against mpmath at the library's own
        # theta = n/N and order p = 1 + N*x_dist/(2 pi)
        spec, degrees = FilterSpec("erfclog"), list(range(3, 1501, 62))
        bands = weight_bands(spec, degrees, x_dist)
        got = filter_weights(spec, degrees, x_dist, bands)
        expected = []
        with mpmath.workdps(30):
            for N, lo, hi in zip(degrees, *bands):
                p = 1.0 + N * x_dist / math.tau
                for n in range(lo, hi + 1):
                    tb = mpmath.mpf(n / N) - 0.5
                    arg = mpmath.sqrt(-p * mpmath.log1p(-4 * tb * tb))
                    expected.append(float(mpmath.erfc(arg if tb >= 0 else -arg) / 2))
        assert len(expected) == got.size
        assert np.abs(got - expected).max() <= 2.0**-52


class TestOneExpPerWeight:
    """Each Erfc-Log and Temme weight takes one exp, whose value is also
    ``_erfc``'s Gaussian: one np.exp call per batch."""

    @pytest.mark.parametrize(
        "kind, degrees",
        [("erfclog", list(range(3, 1501, 62))), ("hdaf", list(range(415, 1501, 62)))],
    )
    @pytest.mark.parametrize("banded", [False, True])
    def test_one_exp_call_per_batch(self, kind, degrees, banded, monkeypatch):
        # every HDAF row is deep, so none takes the finite sum's exp
        x_dist = 3.0
        assert kind == "erfclog" or degrees[0] * x_dist // 15 >= _HDAF_TEMME_DEPTH
        spec = FilterSpec(kind)
        bands = weight_bands(spec, degrees, x_dist) if banded else None
        calls = []
        exp = np.exp

        def counting(*args, **kwargs):
            calls.append(args[0].size)
            return exp(*args, **kwargs)

        monkeypatch.setattr(np, "exp", counting)
        w = filter_weights(spec, degrees, x_dist, bands)
        assert calls == [w.size]


#: Largest distance of an HDAF weight from Q(J+1, s), at the library's own s,
#: and of one from Temme's expansion (depth >= _HDAF_TEMME_DEPTH; measured
#: at most 2^-53 on rows of depth 83-20000, and 12 and 47 * 2^-53 at
#: depths 2000 and 20000 with mu - log1p(mu) in place of its series).
HDAF_TOL = 2.0**-48
TEMME_TOL = 2.0**-50


def library_s(N, x_dist):
    """The s = N*x_dist*theta^2/2 that filter_weights forms for the whole
    row of degree N (degree 0 takes degree 1's parameters)."""
    n = max(N, 1)
    return n * x_dist * np.square(np.arange(N + 1) / n) / 2.0


def assert_hdaf_exact(w, N, x_dist, s=None, tol=HDAF_TOL):
    """Each weight within ``tol`` of mpmath's Q(J+1, s) at 30 digits, s the
    library's own (the whole row's unless given)."""
    depth = math.floor(max(N, 1) * x_dist / 15)
    s = library_s(N, x_dist) if s is None else s
    with mpmath.workdps(30):
        ref = [
            float(mpmath.gammainc(depth + 1, v, mpmath.inf, regularized=True))
            for v in map(mpmath.mpf, s.tolist())
        ]
    assert np.abs(w - ref).max() <= tol, (N, x_dist)


class TestHdaf:
    # row entry n of filter_weights(FilterSpec("hdaf"), N, x_dist) is the
    # weight at theta = n/N
    def test_identity_limits(self):
        assert filter_weights(FilterSpec("hdaf"), 10, 1.3)[0] == 1.0
        assert (filter_weights(FilterSpec("hdaf"), 10, 0.0) == 1.0).all()

    def test_direct_value(self):
        # s = 15, depth floor(30/15) = 2: exp(-15)*(1 + 15 + 112.5)
        expected = math.exp(-15.0) * (1.0 + 15.0 + 112.5)
        w = filter_weights(FilterSpec("hdaf"), 30, 1.0)
        assert w[30] == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(3.93e-5, rel=2e-3)

    @pytest.mark.parametrize(
        "N, x_dist",
        [(1, 0.7), (14, 0.0), (60, 1.0), (400, 0.2), (1500, 2.25), (2500, 3.1)],
    )
    def test_matches_plain_loop_bit_for_bit(self, N, x_dist):
        # named for the Poisson loop these rows once matched bit for bit;
        # now each weight is within 2^-48 of Q(J+1, s), and the row is the
        # same bits alone and in a batch with rows of other depths
        w = filter_weights(FilterSpec("hdaf"), N, x_dist)
        assert_hdaf_exact(w, N, x_dist)
        degrees = sorted([3, N, 900])
        start = sum(M + 1 for M in degrees[: degrees.index(N)])
        batch = filter_weights(FilterSpec("hdaf"), degrees, x_dist)
        assert np.array_equal(batch[start : start + N + 1], w)

    def test_one_batch_matches_plain_loop_row_by_row(self):
        # one list call at x_dist = 3: depth-0 rows (N*x_dist < 15),
        # shallow rows, both sides of _HDAF_TEMME_DEPTH and a deep row
        # (J = 300); each row is its one-degree call, bit for bit, and
        # within 2^-48 of Q(J+1, s).  The same rows out of depth order
        # are a decreasing list, which raises.
        x_dist = 3.0
        J0 = _HDAF_TEMME_DEPTH
        shuffled = [0, 1, 3, 4, 5, 9, 12, 27, 1500, 5 * J0, 2, 5 * J0 - 1, 60]
        with pytest.raises(ValueError, match="must not decrease"):
            filter_weights(FilterSpec("hdaf"), shuffled, x_dist)
        degrees = sorted(shuffled)
        depths = [math.floor(N * x_dist / 15) for N in degrees]
        assert {0, 300, J0 - 1, J0} <= set(depths)
        w = filter_weights(FilterSpec("hdaf"), degrees, x_dist)
        start = 0
        for N in degrees:
            row = w[start : start + N + 1]
            start += N + 1
            assert np.array_equal(row, filter_weights(FilterSpec("hdaf"), N, x_dist))
            assert_hdaf_exact(row, N, x_dist)
        assert start == w.size

    @pytest.mark.parametrize("side", ["below", "above"])
    def test_batch_on_one_side_of_the_cut(self, side):
        # every entry of the batch on one side of the cut s = J+1, rows in
        # rising depth; each row is its one-row call, bit for bit
        x_dist, degrees = 3.0, [700, 1200, 1500]
        rows, ss = [], []
        for N in degrees:
            J1 = math.floor(N * x_dist / 15) + 1.0
            s = J1 * (np.linspace(0.6, 0.99, 40) if side == "below" else
                      np.linspace(1.0, 1.4, 40))
            assert ((s < J1) == (side == "below")).all()
            rows.append(np.sqrt(2.0 * s / (N * x_dist)))
            ss.append(N * x_dist * np.square(rows[-1]) / 2.0)
        widths = np.array(degrees, dtype=float) * x_dist
        w = _hdaf_rows(np.concatenate(rows), widths, [40] * len(degrees))
        expected = [_hdaf_rows(t, widths[r : r + 1], [40]) for r, t in enumerate(rows)]
        assert np.array_equal(w, np.concatenate(expected))
        for row, N, s in zip(expected, degrees, ss):
            assert_hdaf_exact(row, N, x_dist, s)
        assert ((0.0 < w) & (w < 1.0)).sum() >= 60

    @pytest.mark.parametrize(
        "depth", [0, 1, _HDAF_TEMME_DEPTH - 1, _HDAF_TEMME_DEPTH, 50, 300, 2000]
    )
    def test_matches_mpmath_on_rows_and_bands(self, depth):
        # x_dist = 3 gives depth floor(N/5); the whole row, and its band;
        # Temme's rows to TEMME_TOL, and inside [0, 1] where their terms
        # underflow (unclamped, a row of depth >= 157 reads about -1e-309)
        N, x_dist = 5 * depth + 2, 3.0
        tol = HDAF_TOL if depth < _HDAF_TEMME_DEPTH else TEMME_TOL
        w = filter_weights(FilterSpec("hdaf"), N, x_dist)
        assert_hdaf_exact(w, N, x_dist, tol=tol)
        assert ((0.0 <= w) & (w <= 1.0)).all()
        (lo,), (hi,) = weight_bands(FilterSpec("hdaf"), [N], x_dist)
        band = filter_weights(FilterSpec("hdaf"), N, x_dist, ([lo], [hi]))
        assert_hdaf_exact(band, N, x_dist, library_s(N, x_dist)[lo : hi + 1], tol)

    def test_expansion_near_the_cut_at_large_depth(self):
        # J = 20000: every 10th entry of the band, to TEMME_TOL at the
        # library's own s, where mu - log(1 + mu) would cancel
        N, x_dist = 10**5, 3.0
        (lo,), (hi,) = weight_bands(FilterSpec("hdaf"), [N], x_dist)
        band = filter_weights(FilterSpec("hdaf"), N, x_dist, ([lo], [hi]))
        s = library_s(N, x_dist)[lo : hi + 1]
        assert_hdaf_exact(band[::10], N, x_dist, s[::10], TEMME_TOL)

    def test_shallow_rows_are_never_cut_below(self):
        # the finite sum can round to 1 - 2^-53, where a band's left-out
        # entries count as exactly 1: no row below _HDAF_TEMME_DEPTH may
        # have a band that starts above 0, and rows at that depth can
        J0 = _HDAF_TEMME_DEPTH
        for N in (10**4, 10**6):
            below = weight_bands(FilterSpec("hdaf"), [N], 15 * (J0 - 0.5) / N)
            at = weight_bands(FilterSpec("hdaf"), [N], 15 * (J0 + 0.5) / N)
            assert below[0] == [0] and at[0][0] > 0, N
        assert_band_sound("hdaf", 1245, 1.0)  # depth 83, its band from 32

    def test_weight_one_at_zero_s(self):
        # s = 0 at n = 0 for both kernels, with no log(0) warning
        for N in (5 * _HDAF_TEMME_DEPTH - 1, 5 * _HDAF_TEMME_DEPTH, 10**4):
            assert filter_weights(FilterSpec("hdaf"), N, 3.0, ([0], [3]))[0] == 1.0

    def test_matches_mpmath_where_terms_overflow(self):
        # s^j/j! overflows a double here; the weight is Q(J+1, s) all the same
        N, x_dist = 2000, 3.0
        depth = math.floor(N * x_dist / 15)
        w = filter_weights(FilterSpec("hdaf"), N, x_dist)
        with mpmath.workdps(30):
            ref = [
                float(
                    mpmath.gammainc(
                        depth + 1,
                        mpmath.mpf(N) * x_dist * (mpmath.mpf(n) / N) ** 2 / 2,
                        mpmath.inf,
                        regularized=True,
                    )
                )
                for n in range(N + 1)
            ]
        np.testing.assert_allclose(w, ref, rtol=1e-12, atol=1e-14)

    def test_matches_mpmath_at_large_depth(self):
        # J = 20000: indices around the cut s = J+1 (n ~ 36516) and in both tails
        N, x_dist = 10**5, 3.0
        depth = math.floor(N * x_dist / 15)
        w = filter_weights(FilterSpec("hdaf"), N, x_dist)
        ns = [0, 1, 5000, 20000, 30000, 34000, 35500, 36000, 36200, 36400,
              36500, 36516, 36600, 36800, 37000, 37500, 39000, 45000, 70000, N]
        with mpmath.workdps(30):
            ref = [
                float(
                    mpmath.gammainc(
                        depth + 1,
                        mpmath.mpf(N) * x_dist * (mpmath.mpf(n) / N) ** 2 / 2,
                        mpmath.inf,
                        regularized=True,
                    )
                )
                for n in ns
            ]
        assert 0.01 < w[36516] < 0.99
        np.testing.assert_allclose(w[ns], ref, rtol=1e-12, atol=1e-14)

    def test_unrepresentable_depth_rejected(self):
        with pytest.raises(ValueError):
            filter_weights(FilterSpec("hdaf"), 100, math.inf)
        with pytest.raises(ValueError, match="not representable"):
            # depth 200e15/15 >= 2^53; the rows at 5 and 40 are representable
            filter_weights(FilterSpec("hdaf"), [5, 40, 200], 1e15)

    def test_unrepresentable_depth_rejected_before_allocation(self):
        # 10^17 + 1 weights would need petabytes; the degree check must come
        # first, for every kind, not only for HDAF's depth
        for kind, N in itertools.product(VALID_KINDS, ([5, 10**17], 10**17)):
            with pytest.raises(ValueError, match="not representable"):
                filter_weights(FilterSpec(kind), N, 2.0)
        # HDAF's depth 10^7 * 10^11/15 >= 2^53 at representable degrees: one
        # check on the top row, before theta (10^7 doubles, 80 MB), rejects it
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="not representable"):
                filter_weights(FilterSpec("hdaf"), [5, 10**7], 1e11)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


#: Every Erfc-Log and HDAF weight outside its row's band is within this of
#: 1 (below the band) or at most this (above it).
BAND_TOL = 2.0**-60


def assert_band_sound(kind, N, x_dist):
    """The weights that ``weight_bands`` leaves out of the row: within
    BAND_TOL of 1 below the band, at most BAND_TOL above it; the band's
    own weights are the row's entries lo..hi."""
    spec = FilterSpec(kind)
    w = filter_weights(spec, N, x_dist)
    (lo,), (hi,) = weight_bands(spec, [N], x_dist)
    assert 0 <= lo <= hi <= N
    assert (1.0 - w[:lo] <= BAND_TOL).all(), (kind, N, x_dist, lo)
    assert (w[hi + 1 :] <= BAND_TOL).all(), (kind, N, x_dist, hi)
    assert np.array_equal(filter_weights(spec, N, x_dist, ([lo], [hi])), w[lo : hi + 1])


class TestWeightBands:
    @pytest.mark.parametrize("kind", ["erfclog", "hdaf"])
    @pytest.mark.parametrize("N", [0, 1, 2, 3, 17, 400, 1500, 10**5])
    def test_left_out_weights_within_tolerance(self, kind, N):
        for x_dist in (0.0, 5e-324, 1e-3, 0.26, 1.5, 3.0, math.pi):
            assert_band_sound(kind, N, x_dist)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["erfclog", "hdaf"]),
        N=st.integers(0, 3000),
        x_dist=st.floats(0.0, math.pi),
    )
    def test_left_out_weights_within_tolerance_drawn(self, kind, N, x_dist):
        assert_band_sound(kind, N, x_dist)

    def test_far_rows_are_narrow(self):
        # the band holds O(sqrt(N/x_dist)) entries: at N = 1000 and
        # x_dist = 2.2 about a third of the row
        for kind in ("erfclog", "hdaf"):
            (lo,), (hi,) = weight_bands(FilterSpec(kind), [1000], 2.2)
            assert 0 < lo and hi < 1000 and hi - lo + 1 < 400, kind

    def test_whole_rows(self):
        # Euler and identity rows are whole, and so is every row at
        # x_dist = 0: HDAF's weights are all 1 there, Erfc-Log's are not
        degrees = [0, 3, 400, 1500]
        whole = ([0] * len(degrees), degrees)
        for kind, x_dist in itertools.product(VALID_KINDS, (0.0, 2.0)):
            if x_dist == 0.0 or kind in ("identity", "euler"):
                assert weight_bands(FilterSpec(kind), degrees, x_dist) == whole
        # a band that would leave fewer than 32 entries below it starts at 0
        for kind, N in (("erfclog", 100), ("hdaf", 400)):
            (lo,), (hi,) = weight_bands(FilterSpec(kind), [N], math.pi)
            assert lo == 0 and hi < N, kind
        # every HDAF row is whole while N*x_dist <= 4L, and a row's band is
        # the same alone and among other rows
        top = math.floor(4 * 60 * math.log(2) / math.pi)
        assert weight_bands(FilterSpec("hdaf"), [7, top], math.pi) == ([0, 0], [7, top])
        for kind in ("erfclog", "hdaf"):
            degrees = [7, top, 100, 400, 1500]
            los, his = weight_bands(FilterSpec(kind), degrees, math.pi)
            for N, lo, hi in zip(degrees, los, his):
                assert weight_bands(FilterSpec(kind), [N], math.pi) == ([lo], [hi])
        assert (filter_weights(FilterSpec("hdaf"), 1500, 0.0) == 1.0).all()
        assert (1.0 - filter_weights(FilterSpec("erfclog"), 1500, 0.0)[1:] > BAND_TOL).all()

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_batch_of_bands_is_the_rows_slices(self, kind):
        degrees, x_dist = [0, 7, 40, 900, 1500], 2.5
        los, his = weight_bands(FilterSpec(kind), degrees, x_dist)
        got = filter_weights(FilterSpec(kind), degrees, x_dist, (los, his))
        rows = [filter_weights(FilterSpec(kind), N, x_dist) for N in degrees]
        expected = [w[lo : hi + 1] for w, lo, hi in zip(rows, los, his)]
        assert np.array_equal(got, np.concatenate(expected))

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_bad_band_rejected(self, kind):
        for bands in (([0], [11]), ([3], [2]), ([-1], [4]), ([0, 0], [5, 5]), ([0], [])):
            with pytest.raises(ValueError, match="band"):
                filter_weights(FilterSpec(kind), 10, 1.0, bands)

    @pytest.mark.parametrize("kind", ["erfclog", "hdaf"])
    def test_bad_distance_rejected_as_by_filter_weights(self, kind):
        # NaN and negative distances, and an infinite one for the adaptive
        # filters, raise filter_weights' own ValueError, with no warning
        # from an array built first (a RuntimeWarning fails the test)
        for x_dist in (math.nan, -0.5, math.inf):
            with pytest.raises(ValueError) as from_weights:
                filter_weights(FilterSpec(kind), [100, 400], x_dist)
            with pytest.raises(ValueError, match="nonnegative|representable") as raised:
                weight_bands(FilterSpec(kind), [100, 400], x_dist)
            assert str(raised.value) == str(from_weights.value)


class TestFilterWeights:
    def test_identity(self):
        assert np.all(filter_weights(FilterSpec("identity"), 12) == 1.0)

    def test_euler_matches_sigma(self):
        w = filter_weights(FilterSpec("euler"), 6)
        for n in range(7):
            assert w[n] == euler_sigma(n, 6)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec("vandeven")

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_negative_degree_and_distance_rejected(self, kind):
        # one rule for every kind, including those that ignore the distance
        for N in (-1, [3, -1]):
            with pytest.raises(ValueError, match="N must be >= 0"):
                filter_weights(FilterSpec(kind), N, 0.5)
        for N, x_dist in itertools.product((4, [0, 4]), (-0.5, math.nan)):
            with pytest.raises(ValueError, match="nonnegative"):
                filter_weights(FilterSpec(kind), N, x_dist)

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_empty_degree_list_rejected(self, kind):
        with pytest.raises(ValueError, match="at least one degree"):
            filter_weights(FilterSpec(kind), [], 0.5)

    @pytest.mark.parametrize("kind", VALID_KINDS)
    def test_decreasing_degree_list_rejected_before_any_array(self, kind):
        # a list of degrees does not decrease: the top row's 2*10^6 weights,
        # and the trace's fold at that degree, would take tens of megabytes
        spec, sws = FilterSpec(kind), make_sws().series
        calls = [
            lambda: filter_weights(spec, [2_000_000, 5], 1.0),
            lambda: weight_bands(spec, [2_000_000, 5], 1.0),
            lambda: trace_errors(sws, 1.0, [2_000_000, 5], [spec]),
        ]
        for call in calls:
            tracemalloc.start()
            try:
                with pytest.raises(ValueError, match="must not decrease"):
                    call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1e6
        # a repeated degree is allowed: its rows are equal (a two-row Euler
        # trace is dense, so its rows agree with the one-row sum to rounding)
        row = filter_weights(spec, 5, 1.0)
        assert np.array_equal(filter_weights(spec, [5, 5], 1.0), np.tile(row, 2))
        (lo,), (hi,) = weight_bands(spec, [5], 1.0)
        assert weight_bands(spec, [5, 5], 1.0) == ([lo, lo], [hi, hi])
        ((first, second),) = trace_errors(sws, 1.0, [5, 5], [spec])
        assert first == second == pytest.approx(pointwise_error(sws, 1.0, 5, spec))

    def test_degenerate_degree(self):
        for kind in ("identity", "euler", "erfclog", "hdaf"):
            w = filter_weights(FilterSpec(kind), 0, 0.5)
            assert w.shape == (1,)
            assert w[0] == 1.0

    def test_adaptive_order_erfclog(self):
        p = 1.0 + 10 * 2.0 / (2 * math.pi)
        w = filter_weights(FilterSpec("erfclog"), 10, x_dist=2.0)
        assert w.tolist() == [erfclog_sigma(n / 10, p) for n in range(11)]


#: One list of degrees in each form that the ``filters`` module docstring
#: accepts.
DEGREE_FORMS = {
    "list": [0, 15, 30, 45],
    "tuple": (0, 15, 30, 45),
    "range": range(0, 46, 15),
    "int64": np.array([0, 15, 30, 45], dtype=np.int64),
}


def degree_callers(kind):
    """Every public function that takes a list of degrees, at x = 1 on
    the sawtooth (x_dist = 1)."""
    spec, sws = FilterSpec(kind), make_sws().series
    return {
        "filter_weights": lambda N: filter_weights(spec, N, 1.0),
        "weight_bands": lambda N: weight_bands(spec, N, 1.0),
        "trace_errors": lambda N: trace_errors(sws, 1.0, N, [spec]),
        "saturation_floor": lambda N: saturation_floor(sws, N),
    }


RAGGED_LIST = [[1], [2, 3]]
RAGGED_TUPLE = [(1,), (2, 3)]


class TestDegreeLists:
    """One rule for a list of degrees (``filters._checked_degrees``)."""

    @pytest.mark.parametrize("kind", VALID_KINDS)
    @pytest.mark.parametrize("caller", list(degree_callers("euler")))
    def test_every_form_gives_the_same_result(self, caller, kind):
        call = degree_callers(kind)[caller]
        want = call(DEGREE_FORMS["list"])
        for form, degrees in DEGREE_FORMS.items():
            got = call(degrees)
            assert type(got) is type(want), form
            assert np.array_equal(got, want), form

    @pytest.mark.parametrize("kind", VALID_KINDS)
    @pytest.mark.parametrize(
        "degrees, error, message",
        [
            ([], ValueError, "need at least one degree"),
            ([2.5], TypeError, "degree 2.5 is not an integer"),
            ([1, 2.5], TypeError, "degree 2.5 is not an integer"),
            ([[1, 2]], TypeError, "a list of degrees must be 1-D"),
            (RAGGED_LIST, TypeError, "a list of degrees must be 1-D"),
            (RAGGED_TUPLE, TypeError, "a list of degrees must be 1-D"),
            ([3, -1], ValueError, "N must be >= 0"),
            ([5, 3], ValueError, "a list of degrees must not decrease"),
            (
                [2**53],
                ValueError,
                "degree 9007199254740992 is not representable: need N < 2^53",
            ),
            ([True], TypeError, "degree True is not an integer"),
            (["3"], TypeError, "degree '3' is not an integer"),
        ],
        ids=[
            "empty", "non-integer", "non-integral", "2-D", "ragged-list",
            "ragged-tuple", "negative", "decreasing", "2^53", "bool", "str",
        ],
    )
    def test_every_caller_raises_the_same_error(self, degrees, error, message, kind):
        # numpy builds no array of a ragged list: only its list and tuple forms
        ragged = degrees in (RAGGED_LIST, RAGGED_TUPLE)
        for caller, call in degree_callers(kind).items():
            for form in (list, tuple) if ragged else (list, tuple, np.array):
                with pytest.raises(error) as raised:
                    call(form(degrees))
                assert str(raised.value) == message, (caller, form)

    @pytest.mark.parametrize("kind", VALID_KINDS)
    @pytest.mark.parametrize(
        "degrees, message",
        [
            ([True, 2], "degree True is not an integer"),
            ([np.True_, 2], "degree True is not an integer"),
            ([False, 2, 3], "degree False is not an integer"),
            ([0, 2, np.False_], "degree False is not an integer"),
            ([2, 5, True, -1], "degree True is not an integer"),
        ],
        ids=["bool", "numpy-bool", "false", "decreasing", "negative"],
    )
    def test_bool_among_ints_is_refused(self, degrees, message, kind):
        # numpy casts such a list to the ints 0 and 1, so only a list's or a
        # tuple's own entries show the bool (an array of it holds ints)
        for caller, call in degree_callers(kind).items():
            for form in (list, tuple):
                with pytest.raises(TypeError) as raised:
                    call(form(degrees))
                assert str(raised.value) == message, (caller, form)
        assert _checked_degrees(np.array([True, 2])) == [1, 2]

    @pytest.mark.parametrize("kind", VALID_KINDS)
    @pytest.mark.parametrize(
        "degrees",
        [range(5, 0, -1), range(0), range(-1, 5), range(2**53 - 2, 2**53 + 2)],
        ids=["decreasing", "empty", "negative", "2^53"],
    )
    def test_range_raises_what_its_list_raises(self, degrees, kind):
        for caller, call in degree_callers(kind).items():
            with pytest.raises((TypeError, ValueError)) as want:
                call(list(degrees))
            with pytest.raises(want.type) as got:
                call(degrees)
            assert str(got.value) == str(want.value), caller

    def test_a_valid_range_is_returned_as_it_is(self):
        for degrees in (range(2, 401, 5), range(0, 1), range(0, 2**53, 2**52)):
            assert _checked_degrees(degrees) is degrees

    @pytest.mark.parametrize(
        "degrees, message",
        [
            (range(2**53 - 10**5, 2**53 + 1), "degree 9007199254740992 is not"),
            (range(-3, 10**5), "N must be >= 0"),
            (range(10**5, 0, -1), "a list of degrees must not decrease"),
        ],
        ids=["2^53", "negative", "decreasing"],
    )
    def test_a_bad_range_is_refused_by_its_ends(self, degrees, message):
        # refused from its two ends: no entry of the range is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^{message}"):
                _checked_degrees(degrees)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_a_sweep_range_is_checked_without_numpy(self, monkeypatch):
        # a dense Euler sweep: its floors and its one re-expansion read the
        # range itself; a weight table's batch would go on as a list
        calls = []
        atleast_1d = np.atleast_1d

        def spy(*args, **kwargs):
            if sys._getframe(1).f_code is _checked_degrees.__code__:
                calls.append(args)
            return atleast_1d(*args, **kwargs)

        monkeypatch.setattr(filters_module.np, "atleast_1d", spy)
        config = ExperimentConfig("sws", ("euler",), (1.1,), 2, 400, 5)
        assert sweep_errors(config)[0].fit is not None
        assert calls == []
        saturation_floor(make_sws().series, list(config.degrees()))
        assert len(calls) == 1  # the spy sees a list's check


def scalar_degree_callers():
    """Every public entry point that takes one degree (Euler's k and j
    too), each with its n_max far above the valid degrees used here."""
    sws, log2 = make_sws().series, log2_series(10)
    return {
        "coefficients": sws.coefficients,
        "folded": lambda N: sws.folded(1.0, N),
        "FourierSeries": lambda N: FourierSeries(lambda n: 1.0, N).n_max,
        "log2_series": lambda N: log2_series(N).coeffs,
        "_euler_mu_row": _euler_mu_row,
        "_euler_sigma_table": _euler_sigma_table,
        "euler_mu": lambda M: euler_mu(M, 0),
        "euler_mu k": lambda k: euler_mu(5, k),
        "euler_sigma": lambda M: euler_sigma(0, M),
        "euler_sigma j": lambda j: euler_sigma(j, 5),
        "recoefficient": lambda N: recoefficient(log2, MOBIUS2, N).coeffs,
        "accelerate_sum": lambda N: accelerate_sum(log2, MOBIUS2, N),
        "euler_equivalence_check": lambda N: euler_equivalence_check(log2, N),
        "delta_truncation_error": lambda N: delta_truncation_error(1.0, N),
    }


class TestScalarDegrees:
    """One rule for one degree (``filters._checked_degree``), the same
    at every entry point; only each one's n_max bound is its own."""

    @pytest.mark.parametrize(
        "N, error, message",
        [
            (2.5, TypeError, "degree 2.5 is not an integer"),
            (np.float64(3.0), TypeError, "degree 3.0 is not an integer"),
            (True, TypeError, "degree True is not an integer"),
            (np.True_, TypeError, "degree True is not an integer"),
            ("3", TypeError, "degree '3' is not an integer"),
            ([3], TypeError, "degree [3] is not an integer"),
            (np.array(3), TypeError, "degree array(3) is not an integer"),
            (-1, ValueError, "N must be >= 0"),
            (
                2**53,
                ValueError,
                "degree 9007199254740992 is not representable: need N < 2^53",
            ),
        ],
        ids=[
            "2.5", "float64", "True", "np.True_", "str", "list", "0-d", "-1", "2^53"
        ],
    )
    def test_every_entry_point_raises_the_same_error(self, N, error, message):
        for caller, call in scalar_degree_callers().items():
            with pytest.raises(error) as raised:
                call(N)
            assert str(raised.value) == message, caller

    @pytest.mark.parametrize("caller", list(scalar_degree_callers()))
    def test_numpy_integers_are_degrees(self, caller):
        call = scalar_degree_callers()[caller]
        want = call(3)
        for N in (np.int64(3), np.uint8(3)):
            assert np.array_equal(call(N), want), type(N)

    def test_half_integer_degrees_build_nothing(self):
        # each once returned a value: six coefficients at n = +-0.5, +-1.5,
        # +-2.5, and a degree-3 series
        with pytest.raises(TypeError, match="^degree 2.5 is not an integer$"):
            make_sws().series.coefficients(2.5)
        with pytest.raises(TypeError, match="^degree 2.5 is not an integer$"):
            log2_series(2.5)
        with pytest.raises(TypeError, match="^degree 2.5 is not an integer$"):
            make_sws(n_max=2.5)

    def test_numpy_bool_is_no_degree_of_a_list_caller(self):
        # once read as the degree-1 row
        with pytest.raises(TypeError, match="^degree True is not an integer$"):
            filter_weights(FilterSpec("euler"), np.True_, 1.0)

    def test_huge_table_is_refused_by_the_rule(self):
        # numpy's "array is too big" before the rule checked M
        with pytest.raises(ValueError, match=f"^degree {2**60} is not representable"):
            euler_mu(2**60, 0)

    def test_euler_indices_are_checked_before_any_table(self, monkeypatch):
        rows = []

        def counted_row(*args):
            rows.append(args)
            return _euler_mu_row(*args)

        monkeypatch.setattr(filters_module, "_euler_mu_row", counted_row)
        before = _kept_euler_sigma_table.cache_info()
        with pytest.raises(TypeError, match="^degree 1.5 is not an integer$"):
            euler_mu(3, 1.5)
        with pytest.raises(TypeError, match="^degree 1.5 is not an integer$"):
            euler_sigma(1.5, 3)
        assert _kept_euler_sigma_table.cache_info() == before
        assert rows == []
        assert euler_mu(2, 0) == 0.25 and rows == [(2,)]  # the probe sees a row
        with pytest.raises(ValueError, match=r"^k=5 outside \[0, M=4\]$"):
            euler_mu(4, 5)
        with pytest.raises(ValueError, match=r"^j=4 outside \[0, M\+1=3\]$"):
            euler_sigma(4, 2)

    def test_float_degree_is_refused_after_the_int_one(self):
        # 2.0 == 2 as a cache key: the rule runs before either cache
        assert euler_mu(2, 0) == 0.25 and _euler_sigma_table(2)[1] == 0.75
        with pytest.raises(TypeError, match="^degree 2.0 is not an integer$"):
            euler_mu(2.0, 0)
        with pytest.raises(TypeError, match="^degree 2.0 is not an integer$"):
            _euler_sigma_table(2.0)

    def test_plain_int_skips_numpy(self, monkeypatch):
        def no_numpy(N):
            raise AssertionError("a plain int reached numpy")

        monkeypatch.setattr(filters_module.np, "atleast_1d", no_numpy)
        assert _checked_degrees(7) == [7] and _checked_degree(7) == 7


#: Peak bytes that tracemalloc sees in one full weight batch at x_dist = 3
#: (7896 weights, degrees 5, 70, ..., 980): measured 1.08 MB for HDAF and
#: 0.82 MB for Erfc-Log (137 and 103 bytes a weight), under bounds of
#: 1.40e6 and 1.05e6 bytes.
PEAK_BATCH_BYTES = {"hdaf": 1.40e6, "erfclog": 1.05e6}


class TestBatchMemory:
    @pytest.mark.parametrize("kind", sorted(PEAK_BATCH_BYTES))
    def test_peak_of_a_full_batch(self, kind):
        # the largest batch that series makes of a far trace, as whole rows
        # (a band only drops entries): a larger budget, or a kernel holding
        # more arrays at once, fails here
        degrees = list(range(5, 1501, 65))
        batch = max(
            (degrees[rows] for rows in _weight_batches([N + 1 for N in degrees])),
            key=lambda b: sum(b) + len(b),
        )
        filter_weights(FilterSpec(kind), batch, 3.0)  # caches and first-call set-up
        tracemalloc.start()
        try:
            filter_weights(FilterSpec(kind), batch, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_BATCH_BYTES[kind]


class TestWeightProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["identity", "euler", "erfclog", "hdaf"]),
        N=st.integers(0, 2500),
        x_dist=st.floats(0.0, math.pi),
    )
    def test_finite_in_unit_interval_and_one_at_zero(self, kind, N, x_dist):
        w = filter_weights(FilterSpec(kind), N, x_dist)
        assert w.shape == (N + 1,)
        assert np.isfinite(w).all()
        assert ((0.0 <= w) & (w <= 1.0)).all()
        assert w[0] == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["identity", "euler", "erfclog", "hdaf"]),
        degrees=st.lists(
            st.one_of(st.integers(0, 1), st.integers(0, 1500)), min_size=1, max_size=8
        ).map(sorted),
        x_dist=st.one_of(st.just(0.0), st.floats(0.0, math.pi)),
    )
    def test_degree_list_concatenates_rows(self, kind, degrees, x_dist):
        spec = FilterSpec(kind)
        rows = np.concatenate([filter_weights(spec, N, x_dist) for N in degrees])
        assert np.array_equal(filter_weights(spec, degrees, x_dist), rows)

    @settings(max_examples=60, deadline=None)
    @given(M=st.integers(0, 4000))
    def test_euler_monotone_in_n(self, M):
        sigma = filter_weights(FilterSpec("euler"), M)
        assert (np.diff(sigma) <= 0.0).all()


class TestFilterOrderSanity:
    def test_erfclog_on_entire_function(self):
        # exp(cos x) is analytic and periodic, so a well-ordered filter
        # must not destroy its spectral accuracy: with the adaptive order
        # at x = pi the filtered error falls super-algebraically in N.
        scipy_special = pytest.importorskip("scipy.special")
        x = math.pi
        target = math.exp(math.cos(x))

        def filtered_error(N):
            c = scipy_special.iv(np.arange(N + 1), 1.0)
            w = filter_weights(FilterSpec("erfclog"), N, x_dist=abs(x))
            total = c[0] + 2 * sum(
                w[n] * c[n] * math.cos(n * x) for n in range(1, N + 1)
            )
            return abs(target - total)

        errors = [filtered_error(N) for N in (8, 16, 24, 32)]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        # super-algebraic: (32/8)^k decay with k >= 8 would be 6e4; the
        # observed drop is orders of magnitude beyond any fixed power
        assert errors[-1] < errors[0] * 1e-6
        assert errors[-1] < 1e-8


def unkept_reexpand(a: np.ndarray, c: float) -> np.ndarray:
    """``mobius_reexpand`` as it was before its block rows were kept: every
    call convolves its way from T[1] to each block's row."""
    N = a.size - 1
    steps = _binomial_steps(c)
    head, step = steps[:_BLOCK, :_BLOCK], steps[_BLOCK]
    padded = np.zeros(N + _BLOCK, dtype=a.dtype)
    padded[: N + 1] = a
    b = np.empty(N + _BLOCK, dtype=a.dtype)
    b[0] = a[0]
    k = a.dtype.itemsize // 8  # 2 for (re, im) pairs, 1 for real input
    parts = b.view(float).reshape(-1, k)
    row = np.array([0.0, (c - 1.0) / c])
    for m in range(1, N + 1, _BLOCK):
        lagged = np.correlate(padded[: m + _BLOCK], row)
        np.matmul(head, lagged.view(float).reshape(-1, k), out=parts[m : m + _BLOCK])
        if m + _BLOCK <= N:
            row = np.convolve(row, step)
    return b[: N + 1]


#: The rows of order 1 + kB <= _KEPT_TABLE_MAX_M: 32.
KEPT_ROWS = _KEPT_TABLE_MAX_M // _BLOCK


class TestKeptBlockRows:
    """The Möbius(c) block rows that ``_block_row`` keeps for
    ``mobius_reexpand``, one cache entry per c and row."""

    @pytest.mark.parametrize("c", [1.5, 2.0, 3.0, 7.0])
    def test_bit_identical_to_the_unkept_recurrence(self, c):
        _block_row.cache_clear()
        a = make_sws().series.folded(1.1, 2200)
        degrees = [0, 1, 63, 64, 65, 129, 2048, 2049, 2200]
        for N in degrees + degrees[::-1]:  # rising, then falling
            got, want = mobius_reexpand(a[: N + 1], c), unkept_reexpand(a[: N + 1], c)
            assert got.tobytes() == want.tobytes(), (c, N)

    @pytest.mark.parametrize("c", [1.5, 2.0, 3.0])
    def test_real_input_is_the_real_part_of_complex_input(self, c):
        a = make_sws().series.folded(1.1, 2200)
        assert a.dtype == np.float64
        for N in (0, 1, 63, 64, 65, 260, 1600, 2200):
            got = mobius_reexpand(a[: N + 1], c)
            want = mobius_reexpand(a[: N + 1].astype(complex), c)
            assert got.dtype == np.float64
            tol = 1e-16 * np.abs(a[: N + 1]).sum()
            assert np.abs(got - want.real).max() <= tol, N
            assert (want.imag == 0.0).all()

    def test_kept_rows_are_read_only(self):
        _block_row.cache_clear()
        a = make_sws().series.folded(1.1, 2048)
        mobius_reexpand(a, 2.0)
        assert _block_row.cache_info().currsize == KEPT_ROWS
        for k in range(KEPT_ROWS):
            row = _block_row(2.0, k)
            assert row.shape == (2 + _BLOCK * k,)
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 1.0

    def test_nothing_is_kept_past_the_bound(self):
        _block_row.cache_clear()
        a = make_sws().series.folded(1.1, 20000)
        b = mobius_reexpand(a, 2.0)
        assert np.isfinite(b).all()
        assert _block_row.cache_info().currsize == KEPT_ROWS
        # the orders past the bound read rows computed from the last kept one
        assert b[:2300].tobytes() == unkept_reexpand(a[:2300], 2.0).tobytes()

    def test_at_most_16_values_of_c_are_kept(self):
        # 20 values of c at N = 2200 ask for 640 rows: the cache holds the
        # last 512, and the first c's rows, evicted one by one, come back
        # with the bits of the unkept recurrence
        _block_row.cache_clear()
        a = make_sws().series.folded(1.1, 2200)
        cs = np.linspace(1.1, 9.0, 20).tolist()
        for c in cs:
            mobius_reexpand(a, c)
        assert _block_row.cache_info().currsize == 16 * KEPT_ROWS
        misses = _block_row.cache_info().misses
        b = mobius_reexpand(a, cs[0])
        assert _block_row.cache_info().misses == misses + KEPT_ROWS
        assert b.tobytes() == unkept_reexpand(a, cs[0]).tobytes()
        assert _block_row.cache_info().currsize == 16 * KEPT_ROWS

    def test_threads_read_whole_rows(self):
        # threads that race to build the kept rows of one c each read whole
        # rows, so every re-expansion keeps the bits of the unkept one
        _block_row.cache_clear()
        a = make_sws().series.folded(0.7, 2200)
        degrees = [2200, 5, 700, 2048, 64, 1300, 129, 2049]
        want = {N: unkept_reexpand(a[: N + 1], 2.5).tobytes() for N in degrees}
        bad = []

        def work(shift):
            for N in degrees[shift:] + degrees[:shift]:
                if mobius_reexpand(a[: N + 1], 2.5).tobytes() != want[N]:
                    bad.append(N)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert bad == []
        assert _block_row.cache_info().currsize == KEPT_ROWS
