"""Filter weight functions for spectral sum acceleration.

A filter multiplies the n-th coefficient of a truncated spectral sum by a
weight sigma(theta) with sigma(-theta) = sigma(theta).  Three families are
provided:

* Euler: the classical binomial summation weights.  Indexed on
  j/(M+1), so a truncation at degree N uses ``euler_sigma(|n|, N)``.
  They are the p = 1/2 case of the Euler-Knopp weights
  P(Binomial(M, p) >= j) (``_euler_sigma_table(M, p)``), which with
  p = (c-1)/c are the column sums of the Möbius(c) re-expansion table
  (see ``conformal``).
* Erfc-Log: a compactly supported erfc-based weight with a logarithmic
  correction and a spatially varying order p; one array call per table.
* HDAF: a truncated-exponential-series weight with an x-adaptive
  truncation depth (fixed shape parameters alpha = 1, kappa = 1/15).

Argument conventions differ on purpose: Euler weights take the integer
index j directly (arguments j/(M+1)); Erfc-Log and HDAF take
theta = n/N.  Both conventions appear in the literature and they are not
interchangeable; this module pins one behavior for each family.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_TWO_PI = 2.0 * math.pi
_LOG_SQRT_TWO_PI = 0.5 * math.log(_TWO_PI)

#: Largest erfc argument worth evaluating; beyond it the weight is exactly
#: 0 or 1 in double precision.
_ERFC_ARG_CLAMP = 40.0

#: math.erfc applied elementwise (numpy has no erfc).
_erfc = np.frompyfunc(math.erfc, 1, 1)

#: HDAF truncation-depth divisor (Tanner's kappa = 1/15).
_HDAF_DEPTH_DIVISOR = 15.0

#: Depths at and beyond 2^53 have no exact double j = J, J+1.
_HDAF_MAX_DEPTH = 2.0**53

#: Relative size at which the HDAF series terms stop contributing.
_HDAF_SERIES_TOL = 2.0**-54

VALID_KINDS = ("identity", "euler", "erfclog", "hdaf")


@dataclass(frozen=True)
class FilterSpec:
    """Selects a filter family.  Euler and HDAF have no free parameters;
    Erfc-Log uses the adaptive order p = 1 + N*d/(2*pi) with d the
    distance to the real singularity."""

    kind: str = "identity"

    def __post_init__(self) -> None:
        if self.kind not in VALID_KINDS:
            raise ValueError(
                f"unknown filter kind {self.kind!r}; expected one of {VALID_KINDS}"
            )


def euler_mu(M: int, k: int) -> float:
    """Euler partial-sum weight M!/(2^M k!(M-k)!), the Binomial(M, 1/2) pmf.

    Accurate to a few ulps wherever the value is a normal double, at any M;
    values below the smallest normal double lose relative accuracy and
    round to 0 far in the tails.
    """
    if not 0 <= k <= M:
        raise ValueError(f"k={k} outside [0, M={M}]")
    return float(_euler_mu_row(M)[k])


@lru_cache(maxsize=256)
def _euler_mu_row(M: int, p: float = 0.5) -> np.ndarray:
    """The Binomial(M, p) pmf mu(M, k) for k = 0..M.

    The ratios mu(k+1)/mu(k) = (M-k)/(k+1) * p/(1-p) are multiplied
    outward from k = floor(M*p), next to the mode, where the row is
    largest, and the row is normalized by its sum.  No start value such
    as 2^-M is formed, so nothing underflows before the tails themselves
    do.  At p = 1/2 the odds factor is exactly 1.
    """
    if M < 0:
        raise ValueError("M must be >= 0")
    if not 0.0 < p < 1.0:
        raise ValueError(f"success probability p={p} outside (0, 1)")
    odds = p / (1.0 - p)
    mode = int(M * p)
    k = np.arange(M + 1, dtype=float)
    row = np.empty(M + 1)
    row[mode] = 1.0
    up = k[mode + 1 :]  # mu(k)/mu(k-1) = (M-k+1)/k * odds
    row[mode + 1 :] = np.cumprod((M - up + 1.0) / up * odds)
    down = k[:mode][::-1]  # mu(k)/mu(k+1) = (k+1)/(M-k) / odds
    row[:mode] = np.cumprod((down + 1.0) / (M - down) / odds)[::-1]
    mu = row / row.sum()
    mu.flags.writeable = False
    return mu


@lru_cache(maxsize=256)
def _euler_sigma_table(M: int, p: float = 0.5) -> np.ndarray:
    """Euler-Knopp weights P(Binomial(M, p) >= j) for j = 0..M+1.

    At p = 1/2 these are sigma_E at arguments j/(M+1).  The tail sums of
    mu(M, k) over k >= j are accumulated from the small end; dividing by
    the full sum makes sigma_E(0) exactly 1 and keeps the table
    nonincreasing and inside [0, 1].
    """
    tails = np.cumsum(_euler_mu_row(M, p)[::-1])[::-1]
    sigma = np.zeros(M + 2)
    sigma[: M + 1] = tails / tails[0]
    sigma.flags.writeable = False
    return sigma


def euler_sigma(j: int, M: int) -> float:
    """Euler filter weight sigma_E(j/(M+1)): 1 at j=0, 0 at j=M+1."""
    if not 0 <= j <= M + 1:
        raise ValueError(f"j={j} outside [0, M+1={M + 1}]")
    return float(_euler_sigma_table(M)[j])


def erfclog_sigma(theta, p: float):
    """Erfc-Log filter weight at theta in [-1, 1] (float or array), order p > 0.

    With tb = |theta| - 1/2 the weight is
    erfc(2*sqrt(p)*tb*L(tb))/2 where L(tb) = sqrt(-log(1-4 tb^2)/(4 tb^2)),
    continued by its limit L = 1 at tb = 0.  The erfc argument is clamped
    to [-40, 40], where the weight is already exactly 1 or 0 in double
    precision; L is infinite at theta = 0 and |theta| = 1, so the weight
    there is exactly 1 and 0.
    """
    if p <= 0:
        raise ValueError("order p must be positive")
    at = np.abs(np.asarray(theta, dtype=float))
    if (at > 1.0).any():
        raise ValueError(f"|theta|={at.max()} > 1")
    tb = at - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = 4.0 * tb * tb
        log_factor = np.where(np.abs(tb) < 1e-14, 1.0, np.sqrt(-np.log1p(-t2) / t2))
    arg = 2.0 * math.sqrt(p) * tb * log_factor
    arg = np.clip(arg, -_ERFC_ARG_CLAMP, _ERFC_ARG_CLAMP)
    w = 0.5 * np.asarray(_erfc(arg), dtype=float)
    return float(w) if w.ndim == 0 else w


def erfclog_order(x_dist: float, N: int) -> float:
    """Adaptive Erfc-Log order p = 1 + N|x|/(2 pi).

    ``x_dist`` is the caller's distance from the evaluation point to the
    real singularity; at the singularity the order degenerates to 1.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    return 1.0 + N * abs(x_dist) / _TWO_PI


def _stirling_error(j: int) -> float:
    """log(j!) - log(sqrt(2 pi j) (j/e)^j) for j >= 1."""
    if j < 16:
        return math.lgamma(j + 1.0) - (j + 0.5) * math.log(j) + j - _LOG_SQRT_TWO_PI
    r = 1.0 / (j * j)
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / j


def _log_poisson_pmf(j: int, s: np.ndarray) -> np.ndarray:
    """log(exp(-s) s^j / j!) for s >= 0.

    Written as -j*(r - log1p(r)) - log(sqrt(2 pi j)) - the Stirling error
    of j!, with s = j*(1+r), so the large terms j*log(s), s and log(j!)
    never cancel: the rounding error stays near eps*|s - j| instead of
    eps*j*log(s).
    """
    if j == 0:
        return -s
    r = (s - j) / j
    log_peak = 0.5 * math.log(j) + _LOG_SQRT_TWO_PI + _stirling_error(j)
    return -j * (r - np.log1p(r)) - log_peak


def hdaf_sigma(theta, N: int, x_dist: float):
    """HDAF filter weight exp(-s) * sum_{j<=J} s^j/j! at theta (float or array).

    s = N*x_dist*theta^2/2 and J = floor(N*x_dist/15).  ``x_dist`` is the
    distance to the nearest real singularity; x_dist = 0 degenerates to
    the identity weight.

    The weight is P(Poisson(s) <= J), the regularized upper incomplete
    gamma function Q(J+1, s) (Tanner, Math. Comp. 2006).  It is summed
    from the Poisson term next to the cut, taken in log space, towards
    the far end, so neither s^j/j! nor exp(-s) is formed: for s < J+1 the
    weight is 1 minus the terms above J, otherwise the terms up to J.
    Either way it is finite and lies in [0, 1].  Raises ValueError when
    N*x_dist/15 is not finite or reaches 2^53, where J and J+1 are no
    longer distinct doubles.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if x_dist < 0:
        raise ValueError("x_dist must be nonnegative")
    width = N * x_dist / _HDAF_DEPTH_DIVISOR
    if not width < _HDAF_MAX_DEPTH:
        raise ValueError(f"HDAF depth N*x_dist/15 = {width} is not representable")
    depth = math.floor(width)
    s = N * x_dist * np.square(theta, dtype=float) / 2.0
    below = s < depth + 1
    with np.errstate(divide="ignore"):
        lead = np.exp(
            np.where(below, _log_poisson_pmf(depth + 1, s), _log_poisson_pmf(depth, s))
        )
    # ratios of neighbouring terms, moving away from the cut:
    # pmf(J+1+k)/pmf(J+k) = s/(J+1+k) and pmf(J-k)/pmf(J+1-k) = (J+1-k)/s
    s_above = np.where(below, 1.0, s)  # s >= J+1 >= 1 where it divides
    term = np.ones_like(s)
    total = np.ones_like(s)
    k = 0
    while (term > _HDAF_SERIES_TOL * total).any():
        k += 1
        down = max(depth + 1.0 - k, 0.0) / s_above
        term *= np.where(below, s / (depth + 1.0 + k), down)
        total += term
    tail = lead * total
    w = np.where(below, 1.0 - tail, tail)
    return float(w) if w.ndim == 0 else w


def filter_weights(spec: FilterSpec, N: int, x_dist: float = 0.0) -> np.ndarray:
    """Weight table sigma(|n|) for |n| = 0..N at truncation degree N.

    ``x_dist`` feeds the adaptive order of Erfc-Log and the truncation
    depth of HDAF; Euler and identity ignore it.  All weights are
    functions of |n|, so sigma(-theta) = sigma(theta) holds exactly.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if spec.kind == "identity":
        return np.ones(N + 1)
    if spec.kind == "euler":
        return _euler_sigma_table(N)[: N + 1].copy()
    if N == 0:
        return np.ones(1)
    if spec.kind == "hdaf":
        return hdaf_sigma(np.arange(N + 1) / N, N, abs(x_dist))
    return erfclog_sigma(np.arange(N + 1) / N, erfclog_order(x_dist, N))
