"""Print the Taylor coefficients d_{k,n} of Temme's expansion of Q(a, x).

Temme's uniform expansion (SIAM J. Math. Anal. 10 (1979) 757-766; DLMF
8.12) of the regularized upper incomplete gamma function is

    Q(a, x) = erfc(eta*sqrt(a/2))/2 + exp(-a*eta^2/2)/sqrt(2*pi*a)
              * sum_k C_k(eta) a^-k,

with lambda = x/a, mu = lambda - 1 and eta^2/2 = mu - log(1 + mu), eta
of the sign of mu.  Each C_k is analytic for |eta| < 2*sqrt(pi), and
C_k(eta) = sum_n d_{k,n} eta^n.  This script computes the d_{k,n} with
mpmath, in four steps:

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
   which is checked here: steps 1-2 and step 3 are independent.

It prints ``_TEMME_D``, a tuple of ``K`` rows (k = 0..K-1), each holding
the ``NETA`` correctly rounded doubles d_{k,0..NETA-1}, in the layout of
``gibbsaccel.filters``.  Nothing is downloaded; mpmath is a test-only
dependency of the package, and the package reads only the literal.

    python tools/temme_table.py
"""

from __future__ import annotations

import sys

import mpmath

#: Powers a^0..a^-(K-1) and eta^0..eta^(NETA-1) of the checked-in table.
K = 6
NETA = 11

#: mpmath working digits of the checked-in table, before rounding to doubles.
DIGITS = 50


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
        if abs(prev[1] + g) > mpmath.mpf(10) ** (20 - mpmath.mp.dps):
            raise ArithmeticError(f"d_{k - 1},1 is not (-1)^{k - 1} gamma_{k}")
        rows.append([(n + 2) * prev[n + 2] + g * d0[n] for n in range(len(prev) - 2)])
    return [row[:n_eta] for row in rows]


def literal() -> str:
    """The ``_TEMME_D`` assignment, its doubles correctly rounded."""
    with mpmath.workdps(DIGITS):
        table = temme_coefficients(K, NETA)
        rows = [[float(v) for v in row] for row in table]
    lines = ["_TEMME_D = ("]
    for row in rows:
        lines.append("    (")
        for i in range(0, len(row), 3):
            lines.append("        " + " ".join(f"{v!r}," for v in row[i : i + 3]))
        lines.append("    ),")
    lines.append(")")
    return "\n".join(lines)


def main() -> int:
    print(literal())
    return 0


if __name__ == "__main__":
    sys.exit(main())
