import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gibbsaccel.filters import (
    VALID_KINDS,
    FilterSpec,
    erfclog_order,
    erfclog_sigma,
    euler_mu,
    euler_sigma,
    filter_weights,
    hdaf_sigma,
)
from gibbsaccel.filters import (
    _LOG_SQRT_TWO_PI,
    _euler_mu_row,
    _euler_sigma_table,
    _stirling_error,
)


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
        # euler_mu keeps only the last row it built
        for M in (7, 300, 7, 8, 300):
            assert [euler_mu(M, k) for k in range(M + 1)] == _euler_mu_row(M).tolist()

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            euler_mu(4, 5)
        with pytest.raises(ValueError):
            euler_mu(4, -1)


def exact_euler_tails(M):
    """sum_{k>=j} C(M, k) / 2^M for j = 0..M: integer tails, correctly rounded."""
    row = [1]
    for k in range(M):
        row.append(row[-1] * (M - k) // (k + 1))
    tails = list(itertools.accumulate(reversed(row)))[::-1]
    return np.array([t / 2**M for t in tails])


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
        np.testing.assert_allclose(sigma[:201], exact, rtol=0, atol=1e-15)
        assert sigma[0] == 1.0 and sigma[201] == 0.0

    def test_half_is_the_euler_table(self):
        for M in (1, 2, 37, 1100):
            table = _euler_sigma_table(M, 0.5)
            assert table.tolist() == [euler_sigma(j, M) for j in range(M + 2)]

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

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_order_not_positive_finite(self, p):
        with pytest.raises(ValueError, match="order"):
            erfclog_sigma(0.3, p)
        with pytest.raises(ValueError, match="order"):
            erfclog_sigma(np.array([0.1, 0.3]), np.array([2.0, p]))

    def test_nan_distance_rejected(self):
        for N in (4, [0, 4]):
            with pytest.raises(ValueError, match="order"):
                filter_weights(FilterSpec("erfclog"), N, math.nan)


class TestErfcLogOrder:
    def test_values(self):
        assert erfclog_order(0.0, 100) == 1.0
        assert erfclog_order(2 * math.pi, 100) == pytest.approx(101.0, rel=1e-14)
        assert erfclog_order(math.pi / 12, 60) == pytest.approx(3.5, rel=1e-14)


def reference_hdaf(theta, N, x_dist):
    """HDAF weights by the plain Poisson loop: every entry is updated until
    all have converged, one row at a time."""
    depth = math.floor(N * x_dist / 15)
    s = N * x_dist * np.square(theta, dtype=float) / 2.0
    below = s < depth + 1

    def log_pmf(j):
        if j == 0:
            return -s
        r = (s - j) / j
        log_peak = 0.5 * math.log(j) + _LOG_SQRT_TWO_PI + _stirling_error(j)
        return -j * (r - np.log1p(r)) - log_peak

    with np.errstate(divide="ignore"):
        lead = np.exp(np.where(below, log_pmf(depth + 1), log_pmf(depth)))
    s_above = np.where(below, 1.0, s)
    term = np.ones_like(s)
    total = np.ones_like(s)
    k = 0
    while (term > 2.0**-54 * total).any():
        k += 1
        down = max(depth + 1.0 - k, 0.0) / s_above
        term *= np.where(below, s / (depth + 1.0 + k), down)
        total += term
    tail = lead * total
    return np.where(below, 1.0 - tail, tail)


class TestHdaf:
    def test_identity_limits(self):
        assert hdaf_sigma(0.0, 10, 1.3) == 1.0
        for theta in (0.2, 0.7, 1.0):
            assert hdaf_sigma(theta, 10, 0.0) == 1.0

    def test_direct_value(self):
        # s = 15, depth floor(30/15) = 2: exp(-15)*(1 + 15 + 112.5)
        expected = math.exp(-15.0) * (1.0 + 15.0 + 112.5)
        assert hdaf_sigma(1.0, 30, 1.0) == pytest.approx(expected, rel=1e-13)
        assert expected == pytest.approx(3.93e-5, rel=2e-3)

    def test_symmetric(self):
        for theta in (0.25, 0.6):
            assert hdaf_sigma(-theta, 20, 0.8) == hdaf_sigma(theta, 20, 0.8)

    def test_array_matches_scalar_calls(self):
        theta = np.linspace(-1.0, 1.0, 41)
        w = hdaf_sigma(theta, 300, 2.2)
        assert w.shape == theta.shape
        assert np.array_equal(w, [hdaf_sigma(t, 300, 2.2) for t in theta])

    @pytest.mark.parametrize(
        "N, x_dist",
        [(1, 0.7), (14, 0.0), (60, 1.0), (400, 0.2), (1500, 2.25), (2500, 3.1)],
    )
    def test_matches_plain_loop_bit_for_bit(self, N, x_dist):
        theta = np.arange(N + 1) / N
        w = hdaf_sigma(theta, N, x_dist)
        assert np.array_equal(w, reference_hdaf(theta, N, x_dist))

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
            hdaf_sigma(0.5, 10**17, 2.0)
        with pytest.raises(ValueError):
            hdaf_sigma(0.5, 100, math.inf)
        with pytest.raises(ValueError):
            # depth 200e15/15 >= 2^53; the rows at 5 and 40 are representable
            filter_weights(FilterSpec("hdaf"), [5, 200, 40], 1e15)

    def test_unrepresentable_depth_rejected_before_allocation(self):
        # 10^17 + 1 weights would need petabytes; the degree check must come
        # first, for every kind, not only for HDAF's depth
        for kind, N in itertools.product(VALID_KINDS, ([5, 10**17], 10**17)):
            with pytest.raises(ValueError, match="not representable"):
                filter_weights(FilterSpec(kind), N, 2.0)


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

    def test_degenerate_degree(self):
        for kind in ("identity", "euler", "erfclog", "hdaf"):
            w = filter_weights(FilterSpec(kind), 0, 0.5)
            assert w.shape == (1,)
            assert w[0] == 1.0

    def test_adaptive_order_erfclog(self):
        p = erfclog_order(2.0, 10)
        w = filter_weights(FilterSpec("erfclog"), 10, x_dist=2.0)
        assert w.tolist() == [erfclog_sigma(n / 10, p) for n in range(11)]


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
        ),
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
