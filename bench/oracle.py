"""Reference values written independently of gibbsaccel.

Every check the benchmark makes compares a library output with a value
computed here from the closed forms: exact Fourier coefficients, closed
form function values, the singularity images behind the predicted rate,
Euler weights and the Möbius re-expansion table from exact integer
binomials, and HDAF weights summed in extended precision.  Nothing in
this module imports the library, so a defect in the library cannot hide
in its own reference.
"""

from __future__ import annotations

import cmath
import itertools
import math
from functools import lru_cache

import numpy as np

EPS = float(np.finfo(float).eps)
LOG_DBL_MAX = math.log(np.finfo(float).max)
HDAF_DEPTH_DIVISOR = 15.0

# Parameters the workloads pass explicitly for the pole-bearing entries.
LORENTZIAN_P = math.exp(-0.2)
LORENTZIAN_PHI = math.pi
COMPOSITE_P = 0.5


def _log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n."""
    return np.array([math.lgamma(k + 1.0) for k in range(n + 1)])


def coefficients(key: str, ns: np.ndarray, p: float | None = None) -> np.ndarray:
    """Exact Fourier coefficients c_n of a catalog entry, vectorized over n."""
    ns = np.asarray(ns, dtype=np.int64)
    safe = np.where(ns == 0, 1, ns).astype(float)
    if key == "sws":
        return np.where(ns == 0, 0j, 1j / safe)
    if key == "delta":
        return np.ones(ns.shape, dtype=complex)
    if key == "lorentzian":
        p = LORENTZIAN_P if p is None else p
        return p ** np.abs(ns) * np.exp(-1j * ns * LORENTZIAN_PHI)
    if key == "sws+lorentzian":
        p = COMPOSITE_P if p is None else p
        pole = p ** np.abs(ns) * np.exp(-1j * ns * math.pi)
        return np.where(ns == 0, 0j, 1j / safe) + pole
    if key == "log2":
        sign = np.where(ns % 2 == 1, 1.0, -1.0)
        return np.where(ns >= 1, sign / safe, 0.0).astype(complex)
    raise KeyError(key)


def value(key: str, x: float, p: float | None = None) -> complex:
    """Closed-form value of the summed function at x."""
    saw = math.fmod(x, 2.0 * math.pi)
    if saw < 0:
        saw += 2.0 * math.pi
    saw -= math.pi
    if key == "sws":
        return complex(saw)
    if key == "delta":
        return 0j
    if key in ("lorentzian", "sws+lorentzian"):
        if key == "lorentzian":
            p, phi = (LORENTZIAN_P if p is None else p), LORENTZIAN_PHI
        else:
            p, phi = (COMPOSITE_P if p is None else p), math.pi
        pole = (1 - p * p) / ((1 + p * p) - 2 * p * math.cos(x - phi))
        return complex(pole + (saw if key == "sws+lorentzian" else 0.0))
    if key == "log2":
        return cmath.log(1.0 + cmath.exp(1j * x))
    raise KeyError(key)


def singularities(key: str, p: float | None = None) -> list[tuple[float, float]]:
    """Singularities (sigma, tau) of the summed function in one period."""
    if key in ("sws", "delta"):
        return [(0.0, 0.0)]
    if key == "log2":
        return [(math.pi, 0.0)]
    if key == "lorentzian":
        tau = -math.log(LORENTZIAN_P if p is None else p)
        return [(LORENTZIAN_PHI, tau), (LORENTZIAN_PHI, -tau)]
    if key == "sws+lorentzian":
        tau = -math.log(COMPOSITE_P if p is None else p)
        return [(0.0, 0.0), (math.pi, tau), (math.pi, -tau)]
    raise KeyError(key)


def rho(key: str, x: float, c: float = 2.0, p: float | None = None) -> float:
    """Convergence factor after the map z = (c-1)w/(c-w).

    A singularity of the function at sigma + i*tau puts one of the
    inflated series at z = exp(|tau|) * exp(+-i(x - sigma)); its image
    w = c z / (c - 1 + z) has modulus c r / |c - 1 + r e^{i theta}|.  The
    map's own pole caps the factor at c.
    """
    out = c
    for sigma, tau in singularities(key, p):
        r = math.exp(abs(tau))
        denom = abs(c - 1.0 + r * cmath.exp(1j * (x - sigma)))
        if denom > 0.0:
            out = min(out, c * r / denom)
    return out


def abs_coeff_sum(key: str, N: int, p: float | None = None) -> float:
    """sum |c_n| over |n| <= N."""
    return float(np.abs(coefficients(key, np.arange(-N, N + 1), p)).sum())


def saturation_floor(key: str, N: int, p: float | None = None) -> float:
    """100 * eps * sum |c_n|: the level below which errors are roundoff."""
    return 100.0 * EPS * abs_coeff_sum(key, N, p)


@lru_cache(maxsize=None)
def euler_weights(M: int) -> np.ndarray:
    """Euler weights sigma(j) = P(Binomial(M, 1/2) >= j), j = 0..M.

    The tails sum_{k>=j} C(M, k) are exact integers, and an integer over
    2**M in true division is correctly rounded, so every weight is the
    double nearest the exact value.
    """
    row = [1]
    for k in range(M):
        row.append(row[-1] * (M - k) // (k + 1))
    tails = list(itertools.accumulate(reversed(row)))[::-1]
    denom = 2**M
    sigma = np.array([t / denom for t in tails])
    sigma.flags.writeable = False
    return sigma


def erfclog_weights(N: int, x_dist: float) -> np.ndarray:
    """Erfc-Log weights at theta = n/N with the adaptive order 1 + N x/(2 pi)."""
    p = 1.0 + N * abs(x_dist) / (2.0 * math.pi)
    out = np.empty(N + 1)
    for n in range(N + 1):
        tb = n / N - 0.5
        if n == 0 or n == N:
            out[n] = 1.0 if n == 0 else 0.0
            continue
        t2 = 4.0 * tb * tb
        log_factor = 1.0 if t2 < 4e-28 else math.sqrt(-math.log1p(-t2) / t2)
        out[n] = 0.5 * math.erfc(2.0 * math.sqrt(p) * tb * log_factor)
    return out


def hdaf_depth(N: int, x_dist: float) -> int:
    return int(math.floor(N * x_dist / HDAF_DEPTH_DIVISOR))


def hdaf_weights(N: int, x_dist: float) -> np.ndarray:
    """HDAF weights Q(J+1, s) = exp(-s) sum_{j<=J} s^j/j! at theta = n/N.

    Summed in extended precision, whose range holds sum_j s^j/j! up to
    e^11000 and whose rounding (about 1e-19 a step) leaves the J-step sum
    accurate to well under a double's last bit.
    """
    J = hdaf_depth(N, x_dist)
    theta = np.arange(N + 1) / N
    s = (N * x_dist * theta * theta / 2.0).astype(np.longdouble)
    term = np.ones(N + 1, dtype=np.longdouble)
    total = term.copy()
    for j in range(1, J + 1):
        term *= s / j
        total += term
    return (np.exp(-s) * total).astype(float)


def hdaf_sum_overflows(N: int, x_dist: float) -> bool:
    """Whether sum_{j<=J} s^j/j! at theta = 1 reaches within e^2 of DBL_MAX.

    The library forms that sum directly before multiplying by exp(-s), so
    rows past this threshold are the documented HDAF overflow defect.
    """
    J = hdaf_depth(N, x_dist)
    s = N * x_dist / 2.0
    if J == 0 or s == 0.0:
        return False
    j = np.arange(J + 1)
    logs = j * math.log(s) - _log_factorials(J)
    top = logs.max()
    return top + math.log(np.exp(logs - top).sum()) >= LOG_DBL_MAX - 2.0


def euler_collapses(N: int) -> bool:
    """Whether 0.5**N underflows to zero: the documented Euler weight defect."""
    return 0.5**N == 0.0


def filter_weights(kind: str, N: int, x_dist: float) -> np.ndarray:
    if kind == "euler":
        return euler_weights(N)
    if N == 0:
        return np.ones(1)
    if kind == "erfclog":
        return erfclog_weights(N, x_dist)
    if kind == "hdaf":
        return hdaf_weights(N, x_dist)
    raise KeyError(kind)


def filtered_error(
    key: str, x: float, N: int, kind: str, x_dist: float, p: float | None = None
) -> float:
    """|f(x) - sum sigma(|n|) c_n exp(inx)| from the reference weights."""
    ns = np.arange(-N, N + 1)
    w = filter_weights(kind, N, x_dist)[np.abs(ns)]
    total = (w * coefficients(key, ns, p) * np.exp(1j * ns * x)).sum()
    return abs(value(key, x, p) - total)


@lru_cache(maxsize=None)
def mobius_table(c: int, N: int) -> np.ndarray:
    """T[m, n] = [w^m] Z(w)^n for Z(w) = (c-1)w/(c-w), m, n = 0..N, integer c.

    Closed form (c-1)^n C(m-1, n-1) / c^m for 1 <= n <= m, T[0, 0] = 1.
    Each entry is an integer ratio in true division, so correctly rounded.
    """
    table = np.zeros((N + 1, N + 1))
    table[0, 0] = 1.0
    for m in range(1, N + 1):
        c_m = c**m
        binom = 1  # C(m-1, n-1)
        for n in range(1, m + 1):
            table[m, n] = (c - 1) ** n * binom / c_m
            binom = binom * (m - n) // n
    table.flags.writeable = False
    return table


def mobius_sum_mp(coeffs, c: int, N: int, digits: int = 30) -> complex:
    """sum_m sum_n T[m, n] a_n for m <= N in mpmath with exact binomials."""
    import mpmath

    with mpmath.workdps(digits):
        c = mpmath.mpf(c)
        ratio = (c - 1) / c
        total = mpmath.mpc(coeffs[0])
        for n in range(1, N + 1):
            a = coeffs[n]
            if a == 0:
                continue
            weight = mpmath.mpf(0)
            for m in range(n, N + 1):
                weight += mpmath.binomial(m - 1, n - 1) * c ** (n - m)
            total += mpmath.mpc(a.real, a.imag) * ratio**n * weight
        return complex(total)
