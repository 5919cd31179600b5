"""The Temme coefficients that ``filters`` derives, against mpmath.

The oracle here is independent of ``filters._temme_coefficients``: it
reverts eta = mu*h(mu) by Lagrange's formula and takes the Stirling
coefficients from Stirling's series in Bernoulli numbers, at 50 digits.
Temme's uniform expansion (SIAM J. Math. Anal. 10 (1979) 757-766; DLMF
8.12) of the regularized upper incomplete gamma function is

    Q(a, x) = erfc(eta*sqrt(a/2))/2 + exp(-a*eta^2/2)/sqrt(2*pi*a)
              * sum_k C_k(eta) a^-k,

with lambda = x/a, mu = lambda - 1 and eta^2/2 = mu - log(1 + mu), eta
of the sign of mu, and C_k(eta) = sum_n d_{k,n} eta^n.  The oracle
computes the d_{k,n} in four steps:

1. eta = mu*h(mu) with h = sqrt(2*(mu - log(1 + mu))/mu^2), and its
   reversion mu(eta) by Lagrange's formula;
2. C_0 = 1/mu - 1/eta, so d_{0,n} is the eta^(n+1) coefficient of
   eta/mu(eta);
3. the Stirling coefficients gamma_k of
   Gamma(a) = sqrt(2*pi/a) (a/e)^a sum_k gamma_k a^-k (DLMF 5.11.3),
   from the exponential of Stirling's series in Bernoulli numbers;
4. the recurrence C_k = C_{k-1}'/eta + (-1)^k gamma_k/mu (DLMF 8.12.12),
   that is d_{k,n} = (n+2) d_{k-1,n+2} + (-1)^k gamma_k d_{0,n}.  The
   1/eta terms of the two parts cancel, d_{k-1,1} = (-1)^(k-1) gamma_k,
   which is checked: steps 1-2 and step 3 are independent.
"""

import mpmath
import numpy as np

from gibbsaccel.filters import _TEMME_ROWS, _temme_coefficients

#: Powers a^0..a^-(K-1) and eta^0..eta^(NETA-1) of the table.
K = 6
NETA = 11

#: mpmath working digits of the oracle, before rounding to doubles.
DIGITS = 50

#: gamma_1..gamma_5 of Stirling's series (DLMF 5.11.4).
STIRLING = [(1, 12), (1, 288), (-139, 51840), (-571, 2488320), (163879, 209018880)]


def _mul(p: list, q: list, size: int) -> list:
    """The first ``size`` coefficients of the product of two series."""
    out = []
    for n in range(size):
        first, last = max(0, n + 1 - len(q)), min(n + 1, len(p))
        out.append(mpmath.fsum(p[i] * q[n - i] for i in range(first, last)))
    return out


def _inverse(p: list, size: int) -> list:
    """The first ``size`` coefficients of 1/p, for p[0] != 0."""
    out = [1 / p[0]]
    for n in range(1, size):
        terms = (p[i] * out[n - i] for i in range(1, min(n, len(p) - 1) + 1))
        out.append(-mpmath.fsum(terms) / p[0])
    return out


def _sqrt(p: list, size: int) -> list:
    """The first ``size`` coefficients of sqrt(p), for p[0] = 1."""
    out = [mpmath.mpf(1)]
    for n in range(1, size):
        out.append((p[n] - mpmath.fsum(out[i] * out[n - i] for i in range(1, n))) / 2)
    return out


def _exp(p: list, size: int) -> list:
    """The first ``size`` coefficients of exp(p), for p[0] = 0."""
    out = [mpmath.mpf(1)]
    for n in range(1, size):
        out.append(mpmath.fsum(i * p[i] * out[n - i] for i in range(1, n + 1)) / n)
    return out


def stirling_gammas(size: int) -> list:
    """gamma_0..gamma_(size-1): Gamma(a) ~ sqrt(2 pi/a) (a/e)^a sum gamma_k a^-k."""
    log_series = [mpmath.mpf(0)] * size  # in z = 1/a
    for m in range(1, size // 2 + 1):
        log_series[2 * m - 1] = mpmath.bernoulli(2 * m) / (2 * m * (2 * m - 1))
    return _exp(log_series, size)


def temme_coefficients(k_max: int, n_eta: int) -> list[list]:
    """d_{k,n} for k < k_max and n < n_eta, at the working precision."""
    size = n_eta + 2 * k_max + 1  # the recurrence reads d_{k-1, n+2}
    # h(mu)^2 = 2 (mu - log(1+mu))/mu^2 = sum_m 2 (-1)^m mu^m/(m+2)
    h = _sqrt([mpmath.mpf(2 * (-1) ** m) / (m + 2) for m in range(size + 1)], size + 1)
    # Lagrange: mu(eta) = sum_n b_n eta^n with b_n = [mu^(n-1)] h^-n / n
    phi = _inverse(h, size + 1)
    power, b = [mpmath.mpf(1)], [mpmath.mpf(0)]
    for n in range(1, size + 2):
        power = _mul(power, phi, size + 1)
        b.append(power[n - 1] / n)
    # eta/mu = 1/(b_1 + b_2 eta + ...), and d_{0,n} = [eta^(n+1)] eta/mu
    d0 = _inverse(b[1:], size + 1)[1:]
    gammas = stirling_gammas(k_max + 1)
    rows = [d0]
    for k in range(1, k_max):
        prev, g = rows[-1], (-1) ** k * gammas[k]
        assert abs(prev[1] + g) < mpmath.mpf(10) ** (20 - mpmath.mp.dps), k
        rows.append([(n + 2) * prev[n + 2] + g * d0[n] for n in range(len(prev) - 2)])
    return [row[:n_eta] for row in rows]


def test_every_coefficient_is_the_correctly_rounded_oracle():
    with mpmath.workdps(DIGITS):
        oracle = [[float(v) for v in row] for row in temme_coefficients(K, NETA)]
    assert _temme_coefficients() == oracle
    assert np.array_equal(_TEMME_ROWS, np.array(oracle)[::-1, :, None])


def test_known_coefficients():
    # Temme (1979) and DLMF 8.12: C_0 = -1/3 + eta/12 - 2 eta^2/135 + ...,
    # C_1(0) = -1/540, C_2(0) = 25/6048; each quotient correctly rounded
    d = _temme_coefficients()
    assert d[0][:6] == [-1 / 3, 1 / 12, -2 / 135, 1 / 864, 1 / 2835, -139 / 777600]
    assert d[1][0] == -1 / 540
    assert d[2][0] == 25 / 6048


def test_stirling_coefficients():
    # the recurrence's 1/eta terms cancel: (-1)^(k-1) d_{k-1,1} = gamma_k,
    # which the oracle's Stirling series also gives
    d = _temme_coefficients()
    with mpmath.workdps(DIGITS):
        gammas = [float(g) for g in stirling_gammas(len(STIRLING) + 1)]
    for k, (p, q) in enumerate(STIRLING, start=1):
        assert (-1) ** (k - 1) * d[k - 1][1] == gammas[k] == p / q, k
