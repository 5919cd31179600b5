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
  correction and a spatially varying order p.
* HDAF: a truncated-exponential-series weight with an x-adaptive
  truncation depth (fixed shape parameters alpha = 1, kappa = 1/15).

``filter_weights`` takes one degree or a list of them; for a list it
weights every row in one pass (one Erfc-Log array call, one HDAF
Poisson loop over the live entries of all rows) and returns the rows
concatenated, each bit-identical to its one-degree table.  A degree at
or beyond 2^53 raises ValueError before any array is built.

``mobius_reexpand`` is the same Euler-Knopp weighting read the other
way: the Möbius(c) re-expansion b = T_c a of the coefficients, whose
prefix sums b_0 + ... + b_N are the weighted sums at every degree N at
once.  It is an array function with no package imports, so both
``series`` (Euler traces) and ``conformal`` (``recoefficient``) use it.

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

#: Degrees and HDAF depths at and beyond 2^53 have no exact double
#: neighbours n, n+1.
_MAX_EXACT_INDEX = 2.0**53

#: Orders of the Möbius re-expansion that ``mobius_reexpand`` advances per step.
_BLOCK = 64

#: Relative size at which the HDAF series terms stop contributing.
_HDAF_SERIES_TOL = 2.0**-54

#: Steps of the HDAF series between convergence checks: a check and the
#: compaction after it cost more numpy calls than a step.
_HDAF_CHECK_EVERY = 8

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
    return float(_last_euler_mu_row(M)[k])


def _euler_mu_row(M: int, p: float = 0.5) -> np.ndarray:
    """The Binomial(M, p) pmf mu(M, k) for k = 0..M.

    The ratios mu(k+1)/mu(k) = (M-k)/(k+1) * p/(1-p) are multiplied
    outward from k = floor(M*p), next to the mode, where the row is
    largest, and the row is normalized by its sum.  No start value such
    as 2^-M is formed, so nothing underflows before the tails themselves
    do.  At p = 1/2 the odds factor is exactly 1.  Not cached: it is an
    intermediate of the cached ``_euler_sigma_table`` (``euler_mu`` keeps
    only its last row).
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


#: ``euler_mu``'s row: a loop over k at one M builds it once, and it
#: holds 8(M+1) bytes until the next M.
_last_euler_mu_row = lru_cache(maxsize=1)(_euler_mu_row)


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


def erfclog_sigma(theta, p):
    """Erfc-Log filter weight at theta in [-1, 1] (float or array), order p > 0.

    The order p is a float or an array broadcast against theta; an order
    that is not a positive finite number (0, negative, NaN or infinite)
    raises ValueError.

    With tb = |theta| - 1/2 the weight is
    erfc(2*sqrt(p)*tb*L(tb))/2 where L(tb) = sqrt(-log(1-4 tb^2)/(4 tb^2)),
    continued by its limit L = 1 at tb = 0.  The erfc argument is clamped
    to [-40, 40], where the weight is already exactly 1 or 0 in double
    precision; L is infinite at theta = 0 and |theta| = 1, so the weight
    there is exactly 1 and 0.
    """
    p = np.asarray(p, dtype=float)
    if not (np.isfinite(p) & (p > 0)).all():
        raise ValueError("order p must be positive and finite")
    at = np.abs(np.asarray(theta, dtype=float))
    if (at > 1.0).any():
        raise ValueError(f"|theta|={at.max()} > 1")
    tb = at - 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        t2 = 4.0 * tb * tb
        log_factor = np.where(np.abs(tb) < 1e-14, 1.0, np.sqrt(-np.log1p(-t2) / t2))
    arg = 2.0 * np.sqrt(p) * tb * log_factor
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


def _log_poisson_peak(j: int) -> float:
    """log(sqrt(2 pi j)) plus the Stirling error of j!, for j >= 1."""
    return 0.5 * math.log(j) + _LOG_SQRT_TWO_PI + _stirling_error(j)


def _hdaf_row_params(degrees: list[int], x_dist: float) -> np.ndarray:
    """Per-row HDAF scalars: N*x_dist, the depth J and the log peaks of
    pmf(J) and pmf(J+1), one row of the result per degree.

    Raises ValueError when x_dist is negative or a depth N*x_dist/15 is
    not finite or reaches 2^53, before any per-entry array exists.
    """
    if x_dist < 0:
        raise ValueError("x_dist must be nonnegative")
    per_row = []
    for N in degrees:
        width = N * x_dist / _HDAF_DEPTH_DIVISOR
        if not width < _MAX_EXACT_INDEX:
            raise ValueError(f"HDAF depth N*x_dist/15 = {width} is not representable")
        depth = math.floor(width)
        peak = _log_poisson_peak(depth) if depth else 0.0  # unused when J = 0
        per_row.append((N * x_dist, depth, peak, _log_poisson_peak(depth + 1)))
    return np.array(per_row)


def _hdaf_rows(theta: np.ndarray, params: np.ndarray, sizes: list[int]) -> np.ndarray:
    """HDAF weights of several rows at once.

    Row r is the next ``sizes[r]`` entries of the flat array ``theta``,
    weighted with the scalars ``params[r]`` from ``_hdaf_row_params``,
    which are spread over the row's entries; the Poisson series then runs
    once for the whole batch.  Every entry is bit-identical to a one-row
    call.
    """
    scale, J, peak_at, peak_above = np.repeat(params, sizes, axis=0).T
    s = scale * np.square(theta) / 2.0
    below = s < J + 1.0
    # The term next to the cut, pmf(J+1) below it and pmf(J) above, in log
    # space as -j*(r - log1p(r)) - log_peak(j) with s = j*(1+r), so the
    # large terms j*log(s), s and log(j!) never cancel: the rounding error
    # stays near eps*|s - j| instead of eps*j*log(s).  pmf(0) is exp(-s).
    j = np.where(below, J + 1.0, J)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (s - j) / j
        log_lead = -j * (r - np.log1p(r)) - np.where(below, peak_above, peak_at)
    lead = np.exp(np.where(j == 0.0, -s, log_lead))
    # Sum the terms from the cut outwards through the ratios of neighbours,
    # pmf(J+1+k)/pmf(J+k) = s/(J+1+k) below the cut and
    # pmf(J-k)/pmf(J+1-k) = (J+1-k)/s above it.  Both ratios are below 1,
    # so once a term is at most 2^-54 of its sum, every later term is under
    # half an ulp of that sum and cannot change it: the entry is done, and
    # leaves the loop at the next check.  An entry whose lead is 0 has
    # tail 0 whatever its sum and never enters.
    total = np.ones_like(s)
    for side, upward in ((below, True), (~below, False)):
        live = np.flatnonzero(side & (lead > 0.0))
        s_live, J1 = s[live], J[live] + 1.0
        term = np.ones(live.size)
        acc = np.ones(live.size)
        k = 0
        while live.size:
            k += 1
            if upward:
                term *= s_live / (J1 + k)
            else:
                term *= np.maximum(J1 - k, 0.0) / s_live
            acc += term
            if k % _HDAF_CHECK_EVERY == 0:
                keep = np.flatnonzero(term > _HDAF_SERIES_TOL * acc)
                total[live] = acc
                live, s_live, J1, term, acc = (
                    v.take(keep) for v in (live, s_live, J1, term, acc)
                )
    tail = lead * total
    return np.where(below, 1.0 - tail, tail)


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
    longer distinct doubles.  This is the one-row case of the batched
    kernel behind ``filter_weights``.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    params = _hdaf_row_params([N], x_dist)
    theta = np.asarray(theta, dtype=float)
    w = _hdaf_rows(theta.ravel(), params, [theta.size]).reshape(theta.shape)
    return float(w) if w.ndim == 0 else w


def filter_weights(
    spec: FilterSpec, N: int | list[int], x_dist: float = 0.0
) -> np.ndarray:
    """Weight table sigma(|n|) for |n| = 0..N at truncation degree N.

    N is an int, or a list of degrees, for which the rows' weight vectors
    come back concatenated in order as one flat array: one call weights a
    batch of a trace's rows, each entry bit-identical to its per-N table.
    ``x_dist`` feeds the adaptive order of Erfc-Log and the truncation
    depth of HDAF; Euler and identity ignore it.  All weights are
    functions of |n|, so sigma(-theta) = sigma(theta) holds exactly.
    Raises ValueError for a negative degree, or one at or beyond 2^53,
    before any array is built.
    """
    degrees = np.atleast_1d(N).tolist()
    if min(degrees) < 0:
        raise ValueError("N must be >= 0")
    if not max(degrees) < _MAX_EXACT_INDEX:  # before any per-entry array
        raise ValueError(f"degree {max(degrees)} is not representable: need N < 2^53")
    sizes = [M + 1 for M in degrees]
    if spec.kind == "identity":
        return np.ones(sum(sizes))
    if spec.kind == "euler":
        return np.concatenate([_euler_sigma_table(M)[: M + 1] for M in degrees])
    # theta = n/N within each row.  A degree-0 row takes degree 1's parameters;
    # its one entry sits at theta = 0, where every weight is exactly 1.
    degrees = [max(M, 1) for M in degrees]
    if spec.kind == "hdaf":  # checks every depth before theta is built
        params = _hdaf_row_params(degrees, abs(x_dist))
    start = np.repeat(np.cumsum(sizes) - sizes, sizes)
    theta = (np.arange(sum(sizes)) - start) / np.repeat(degrees, sizes)
    if spec.kind == "hdaf":
        return _hdaf_rows(theta, params, sizes)
    orders = [erfclog_order(x_dist, M) for M in degrees]
    return erfclog_sigma(theta, np.repeat(orders, sizes))


@lru_cache(maxsize=16)
def _binomial_steps(c: float) -> np.ndarray:
    """P[i, l], the Binomial(i, (c-1)/c) pmf at l, for i, l = 0..B (B = _BLOCK).

    Row i is row i-1 advanced by the table's own recurrence,
    P[i, l] = P[i-1, l]/c + ((c-1)/c) P[i-1, l-1], from P[0] = (1, 0, ...):
    convolving a row T[m] of the table with P[i] gives T[m + i].
    """
    r = (c - 1.0) / c
    steps = np.zeros((_BLOCK + 1, _BLOCK + 1))
    steps[0, 0] = 1.0
    for i in range(1, _BLOCK + 1):
        steps[i] = steps[i - 1] / c
        steps[i, 1:] += r * steps[i - 1, :-1]
    steps.flags.writeable = False
    return steps


def mobius_reexpand(a: np.ndarray, c: float) -> np.ndarray:
    """The Möbius(c) re-expansion b_m = sum_n T_c[m, n] a_n of a_0..a_N.

    b_0 = a_0, and row m of the table,
    T_c[m, n] = ((c-1)/c)^n c^-(m-n) C(m-1, n-1), follows from row m-1
    by the all-positive recurrence
    T[m, n] = T[m-1, n]/c + ((c-1)/c) T[m-1, n-1], from T[1] = (0, (c-1)/c).
    B = 64 steps of it are one convolution with the Binomial(B, p) pmf,
    p = (c-1)/c, so the orders go in blocks m..m+B-1 for m = 1, 1+B, ...:
    with G_l = sum_k T[m, k] a_{k+l} (one correlation over the zero-padded
    coefficients), b_{m+i} = sum_l Binomial(i, p)(l) G_l for i < B (one
    B x B matrix product), and T[m+B] is T[m] convolved with the
    Binomial(B, p) pmf.  That is O(N^2) flops, N/B Python steps and O(N)
    memory.  The blocks start at m = 1 whatever N is, and the pmf of
    Binomial(i, p) vanishes past l = i, so order m never reads a_n for
    n > m: b_0..b_m are bit-identical for every input that shares
    a_0..a_m.  Column n of T_c sums over m <= N to P(Binomial(N, p) >= n),
    so b_0 + ... + b_N is the Euler-Knopp weighted sum at degree N.
    """
    N = a.size - 1
    steps = _binomial_steps(c)
    head, step = steps[:_BLOCK, :_BLOCK], steps[_BLOCK]
    padded = np.zeros(N + _BLOCK, dtype=complex)  # the last block reads past a_N
    padded[: N + 1] = a
    b = np.empty(N + _BLOCK, dtype=complex)
    b[0] = a[0]
    # The complex product as a real one on (re, im) pairs: a float matrix
    # times a complex vector takes milliseconds with several BLAS threads.
    pairs = b.view(float).reshape(-1, 2)
    row = np.array([0.0, (c - 1.0) / c])  # T[1]
    for m in range(1, N + 1, _BLOCK):
        lagged = np.correlate(padded[: m + _BLOCK], row)  # G_0..G_{B-1}
        np.matmul(head, lagged.view(float).reshape(-1, 2), out=pairs[m : m + _BLOCK])
        if m + _BLOCK <= N:
            row = np.convolve(row, step)
    return b[: N + 1]
