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
  correction and a spatially varying order p.  numpy has no erfc;
  ``_erfc`` evaluates W. J. Cody's rational approximations in numpy, to
  a relative error of at most 7.7e-16 against mpmath for |x| < 26.543,
  and within 2^-52 of the correctly rounded value everywhere.
* HDAF: a truncated-exponential-series weight with an x-adaptive
  truncation depth (fixed shape parameters alpha = 1, kappa = 1/15).
  The weight is Q(J+1, s), the regularized upper incomplete gamma
  function: below depth J = 83 the finite sum exp(-s) * sum_{j<=J}
  s^j/j! by Horner's rule, from it on Temme's uniform expansion on the
  Cody erfc, whose Taylor coefficients ``_temme_coefficients`` derives
  at import by an exact recurrence.  Neither has a convergence loop, and
  both are within 2^-48 of mpmath.

An adaptive row is its width.  Both adaptive weights depend only on
theta = n/N and on the row's width w = N*x_dist, a degree-0 row counting
as N = 1: Erfc-Log's order is p = 1 + w/(2*pi), and HDAF's depth is
J = floor(w/15) and its Poisson mean s = w*theta^2/2.  The check that
``filter_weights`` and ``weight_bands`` share (``_checked_rows``) forms
each row's w once, and everything else reads it.

Degrees.  A degree is an int N with 0 <= N < 2^53 (``_MAX_EXACT_INDEX``):
a Python or numpy integer, never a bool (Python's, numpy's or a bool
array's).  A list of degrees is a 1-D list, tuple, range or integer
array, or one int; it holds at least one degree and does not decrease (a
degree may repeat).  ``_checked_degrees`` is the one check of this rule:
it returns the degrees as a list (a plain int without touching numpy),
and before any per-entry array is built it raises, in this order of
precedence, TypeError("a list of degrees must be 1-D", a ragged one such
as [[1], [2, 3]] too), ValueError("need at least one degree"),
TypeError("degree ... is not an integer", naming by repr the first
non-integral entry, as 2.5 in [1, 2.5], else the first non-int, as '3'
or True) and ValueError("N must be >= 0", "... is not representable", "a
list of degrees must not decrease").  A bool among a list's or a tuple's
ints, which numpy casts to 0 or 1, is found by one pass over the entries'
types, made only when the lowest degree reads 0 or 1 (as [True, 2] or
[np.True_, 2] do: "degree True is not an integer"); an array or a range
keeps no such entry, so it needs none.
``filter_weights``, ``weight_bands`` and, in ``series``,
``trace_errors`` (with ``filtered_partial_sum`` and
``pointwise_error``) and ``saturation_floor`` take a list of degrees
through it.  Where one degree is expected, ``_checked_degree`` reads it
through the same check, after refusing anything with a length, so that
a list, even [3], a string or an array raises TypeError("degree [3] is
not an integer"): the Euler tables' M (``_euler_mu_row``,
``_euler_sigma_table``, ``euler_mu``, ``euler_sigma``, each before its
cache, and their indices k and j, whose upper bounds k <= M and
j <= M+1 stay their own), in ``series`` ``FourierSeries(n_max=...)``,
``coefficients`` and ``folded``, in ``catalog`` ``log2_series``, in
``conformal`` ``recoefficient``, ``accelerate_sum`` and
``euler_equivalence_check``, and in ``rates``
``delta_truncation_error``.  The bound N <= n_max belongs to a series and
is checked, after the rule, by ``series.FourierSeries.coefficients`` and
by ``conformal``'s ``_prefix``.

``filter_weights`` is the one entry point to the Erfc-Log and HDAF
weights.  For a list of degrees it weights every row in one pass (one
Erfc-Log array call; one HDAF sum over the shallow rows and one
expansion over the deep ones) and returns the rows concatenated, each
bit-identical to its one-degree table.  For Erfc-Log and HDAF a top row
with w/15 (HDAF's depth) at or beyond 2^53 also raises ValueError before
any array is built.  The Erfc-Log order and the HDAF depth grow with w,
so one check on the top row covers every row, the HDAF rows come in
depth order, and the kernels beneath ``filter_weights`` check nothing.

Both adaptive filters fall from 1 to 0 in a transition band, around
theta = 1/2 (Erfc-Log) or the Poisson cut s = J+1 (HDAF).
``weight_bands`` gives each row the range lo..hi outside which every
weight is within 2^-60 of 1 (below lo) or at most 2^-60 (above hi), from
closed-form tail bounds, in one vectorized pass over the rows; it holds
O(sqrt(N/x_dist)) of the N+1 entries.  Given the bands, ``filter_weights``
weighs only those entries, each weight the same as in the whole row.
Euler and identity rows are always whole.  A row's band depends on its
N and x_dist alone, so a row of a trace is the same sum as its one-degree
call.

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
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

# W. J. Cody's rational approximations to erf and erfc (Math. Comp. 23,
# 1969; the SPECFUN routine CALERF), each a (numerator, denominator) pair
# of polynomial coefficients, highest power first.  The range bounds on
# |x| are Cody's, and so is the cut (XBIG, where erfc is 2.26e-308, near
# the smallest normal double) beyond which erfc(|x|) is returned as 0.
_CODY_SMALL = 0.46875
_CODY_FAR = 4.0
_CODY_HUGE = 26.543
#: |x| <= 0.46875: erf(x) = x * R(x^2).
_CODY_ERF = (
    (
        1.85777706184603153e-1,
        3.16112374387056560e00,
        1.13864154151050156e02,
        3.77485237685302021e02,
        3.20937758913846947e03,
    ),
    (
        1.0,
        2.36012909523441209e01,
        2.44024637934444173e02,
        1.28261652607737228e03,
        2.84423683343917062e03,
    ),
)
#: 0.46875 < |x| <= 4: erfc(x) = exp(-x^2) * R(x).
_CODY_ERFC_MID = (
    (
        2.15311535474403846e-8,
        5.64188496988670089e-1,
        8.88314979438837594e00,
        6.61191906371416295e01,
        2.98635138197400131e02,
        8.81952221241769090e02,
        1.71204761263407058e03,
        2.05107837782607147e03,
        1.23033935479799725e03,
    ),
    (
        1.0,
        1.57449261107098347e01,
        1.17693950891312499e02,
        5.37181101862009858e02,
        1.62138957456669019e03,
        3.29079923573345963e03,
        4.36261909014324716e03,
        3.43936767414372164e03,
        1.23033935480374942e03,
    ),
)
#: |x| > 4: erfc(x) = exp(-x^2) (1/sqrt(pi) - R(x^2)) / x.  Cody's R is
#: z P(z)/Q(z) in z = 1/x^2; both polynomials are multiplied through by
#: x^12, which leaves polynomials in t = x^2 with positive coefficients
#: (the denominator has a zero constant term) and no division by x^2.
_CODY_ERFC_FAR = (
    (
        6.58749161529837803e-4,
        1.60837851487422766e-2,
        1.25781726111229246e-1,
        3.60344899949804439e-1,
        3.05326634961232344e-1,
        1.63153871373020978e-2,
    ),
    (
        2.33520497626869185e-3,
        6.05183413124413191e-2,
        5.27905102951428412e-1,
        1.87295284992346725e00,
        2.56852019228982242e00,
        1.0,
        0.0,
    ),
)
_FRAC_SQRT_PI = 5.6418958354775628695e-1  # 1/sqrt(pi)

#: HDAF truncation-depth divisor (Tanner's kappa = 1/15).
_HDAF_DEPTH_DIVISOR = 15.0

#: Degrees and HDAF depths at and beyond 2^53 have no exact double
#: neighbours n, n+1.  Erfc-Log rows take HDAF's bound w/15 < 2^53 on the
#: width, which every distance up to 15 meets at every such degree.
_MAX_EXACT_INDEX = 2.0**53

#: Largest M whose Euler table is cached: 256 tables of at most 2050
#: doubles hold about 4 MB.  Sweeps and comparisons re-read their tables up
#: to their top degree, which is well inside it at the sizes they run.
_KEPT_TABLE_MAX_M = 2048

#: Orders of the Möbius re-expansion that ``mobius_reexpand`` advances per step.
_BLOCK = 64

#: L = 60 log 2: an Erfc-Log or HDAF weight outside its row's band
#: (``weight_bands``) is within e^-L = 2^-60 of 1 below it, or at most
#: 2^-60 above it.
_BAND_LOG_TOL = 60.0 * math.log(2.0)

#: Rows of HDAF depth J below this, 83, take the finite sum exp(-s) *
#: sum_{j<=J} s^j/j!, the others Temme's expansion.  It is the first depth
#: whose band can start above 0 (``weight_bands``: s_lo > 0 needs
#: J+1 > 2L), so no sum, which can round to 1 - 2^-53, is ever left out
#: as a 1.  The sum costs about J+1 array steps and Temme's expansion a
#: fixed ~100, and the sum was the faster of the two at every depth up to
#: 90 (measured).  And s <= w/2 < 7.5*(J+1) keeps the sum below
#: e^623.
_HDAF_TEMME_DEPTH = math.floor(2.0 * _BAND_LOG_TOL)

#: 1/j! for j below ``_HDAF_TEMME_DEPTH``, each correctly rounded.
_INV_FACTORIALS = [1 / math.factorial(j) for j in range(_HDAF_TEMME_DEPTH)]

def _temme_coefficients() -> list:
    """d_{k,n}, the eta^n Taylor coefficient of Temme's C_k(eta), for
    k = 0..5 and n = 0..10, each correctly rounded (``_temme_weights``).

    Three exact steps, in integers scaled by 2^256:

    1. mu(eta) = sum_m a_m eta^m solves eta (1 + mu) = mu mu', the
       eta-derivative of eta^2/2 = mu - log(1 + mu); so a_1 = 1 and
       (m+1) a_m = a_{m-1} - sum_{i+j=m+1; i,j>=2} j a_i a_j;
    2. d_{0,n} = [eta^(n+1)] eta/mu, since C_0 = 1/mu - 1/eta;
    3. d_{k,n} = (n+2) d_{k-1,n+2} - d_{k-1,1} d_{0,n}: DLMF 8.12.12,
       C_k = C_{k-1}'/eta + (-1)^k gamma_k/mu, whose 1/eta terms cancel,
       so that Stirling's coefficient (-1)^k gamma_k is -d_{k-1,1}.

    Row k reads row k-1 to n+2, so row 0 runs to n = 20 and mu to eta^22.
    Each step rounds down at 2^-256, far below a double's last bit, and
    the true division by 2^256 rounds each d_{k,n} to the nearest double.
    """
    one = 1 << 256
    a, c = [0, one], [one]  # mu = sum_m a_m eta^m, eta/mu = sum_n c_n eta^n
    for m in range(2, 23):
        conv = sum(j * a[m + 1 - j] * a[j] for j in range(2, m))
        a.append((a[m - 1] * one - conv) // ((m + 1) * one))
        c.append(-sum(a[i + 1] * c[m - 1 - i] for i in range(1, m)) // one)
    rows = [c[1:]]
    for _ in range(5):
        d = rows[-1]
        rows.append(
            [(n + 2) * d[n + 2] - d[1] * c[n + 1] // one for n in range(len(d) - 2)]
        )
    return [[v / one for v in row[:11]] for row in rows]


#: Temme's coefficients for ``_horner`` in 1/a: rows k = 5..0, each a
#: column; built once, at import.
_TEMME_ROWS = np.array(_temme_coefficients())[::-1, :, None]

#: 1/(2m+3) for m = 7..0: mu - log(1 + mu) = t*mu - 2 t^3 (1/3 + t^2/5 + ...)
#: with t = mu/(2+mu), to 2^-54 relative for |t| <= 1/8.
_ATANH_TAIL = [1.0 / (2 * m + 3) for m in range(7, -1, -1)]

#: A band starts at 0 unless it leaves at least this many entries below
#: it: a row adds those entries apart, in one more numpy call (about
#: 1.3 us), which costs about as much as weighing 30-40 of them.
_MIN_BAND_START = 32

VALID_KINDS = ("identity", "euler", "erfclog", "hdaf")


@dataclass(frozen=True)
class FilterSpec:
    """Selects a filter family.  None has a free parameter: Erfc-Log and
    HDAF adapt to the distance to the real singularity through each
    row's width (module docstring)."""

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
    round to 0 far in the tails.  M and k are checked by the degree rule
    (module docstring), and k <= M, before any row is built or read.
    """
    if _checked_degree(M) < _checked_degree(k):
        raise ValueError(f"k={k} outside [0, M={M}]")
    return float(_last_euler_mu_row(M)[k])


def _euler_mu_row(M: int, p: float = 0.5) -> np.ndarray:
    """The Binomial(M, p) pmf mu(M, k) for k = 0..M.

    The ratios mu(k+1)/mu(k) = (M-k)/(k+1) * p/(1-p) are multiplied
    outward from k = floor(M*p), next to the mode, where the row is
    largest, and the row is normalized by its sum.  No start value such
    as 2^-M is formed, so nothing underflows before the tails themselves
    do.  At p = 1/2 the odds factor is exactly 1.  M is checked by the
    degree rule (module docstring), so 2**60 raises "not representable"
    rather than allocating.  Not cached: it is an
    intermediate of ``_euler_sigma_table``, which caches the small tables
    (``euler_mu`` keeps only its last row).
    """
    _checked_degree(M)
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


def _euler_sigma_table(M: int, p: float = 0.5) -> np.ndarray:
    """Euler-Knopp weights P(Binomial(M, p) >= j) for j = 0..M.

    At p = 1/2 these are sigma_E at arguments j/(M+1); the table holds
    only the M+1 weights a degree-M sum applies, not the 0 at j = M+1
    (``euler_sigma`` returns that one).  The tail sums of mu(M, k) over
    k >= j are accumulated from the small end; dividing by the full sum
    makes sigma_E(0) exactly 1 and keeps the table nonincreasing and
    inside [0, 1].  Tables up to M = ``_KEPT_TABLE_MAX_M`` are cached; a
    larger one is rebuilt by every call, so the cache never holds more
    than a few megabytes.
    """
    if _checked_degree(M) <= _KEPT_TABLE_MAX_M:  # before a cache reads 2.0 as 2
        return _kept_euler_sigma_table(M, p)
    return _build_euler_sigma_table(M, p)


def _build_euler_sigma_table(M: int, p: float) -> np.ndarray:
    tails = np.cumsum(_euler_mu_row(M, p)[::-1])[::-1]
    sigma = tails / tails[0]
    sigma.flags.writeable = False
    return sigma


_kept_euler_sigma_table = lru_cache(maxsize=256)(_build_euler_sigma_table)


def euler_sigma(j: int, M: int) -> float:
    """Euler filter weight sigma_E(j/(M+1)): 1 at j=0, 0 at j=M+1.

    The 0 at j = M+1 is not in the table, which holds sigma(0..M), and is
    returned without one.  M and j are checked by the degree rule (module
    docstring), and j <= M+1, before any table is built or read.  Above
    M = ``_KEPT_TABLE_MAX_M`` every call builds the whole table;
    ``filter_weights`` returns a row in one call.
    """
    if _checked_degree(M) + 1 < _checked_degree(j):
        raise ValueError(f"j={j} outside [0, M+1={M + 1}]")
    return float(_euler_sigma_table(M)[j]) if j <= M else 0.0


def _rational(t: np.ndarray, coeffs) -> np.ndarray:
    """num(t)/den(t) for a ``(num, den)`` coefficient pair, each
    polynomial by Horner's rule from its highest power."""
    num, den = (_horner(t, c) for c in coeffs)
    return num / den


def _horner(t: np.ndarray, coeffs) -> np.ndarray:
    acc = coeffs[0] * t
    for c in coeffs[1:-1]:
        acc += c
        acc *= t
    acc += coeffs[-1]
    return acc


def _erfc(x) -> np.ndarray:
    """erfc of a float or float array, by Cody's rational approximations.

    One boolean mask per range of |x| selects its entries, and that
    range's rational function runs once over them.  NaN is not above
    0.46875, so it falls in the range |x| <= 0.46875 and stays NaN; from
    Cody's cut 26.543 on (and at +-inf) erfc(|x|) is 0.  Outside
    |x| <= 0.46875, exp(-x^2) is exp(-s^2) exp(-(x-s)(x+s)) with s = x
    truncated to a multiple of 1/16: s^2 is exact, so the large exponent
    carries no rounding error (Cody's splitting).  A negative x reflects
    as 2 - erfc(|x|).  Each entry's value depends on that entry alone, so
    a 0-d or one-entry call is bit-identical to the same entry of any
    array.  Against mpmath the relative error is at most 7.7e-16 for
    |x| < 26.543, and every value is within 2^-52 of the correctly
    rounded one.
    The error against the exact value reaches 1.35 * 2^-52 for x in
    (-0.85, -0.47), where 2 - erfc(|x|) adds its own rounding to that
    of erfc(|x|) near 1/2.
    """
    x = np.asarray(x, dtype=float)
    y = np.abs(x)
    small = ~(y > _CODY_SMALL)
    mid = ~small & (y <= _CODY_FAR)
    far = (y > _CODY_FAR) & (y < _CODY_HUGE)
    out = np.zeros_like(y)
    t = x[small]
    out[small] = 1.0 - t * _rational(t * t, _CODY_ERF)
    out[mid] = _rational(y[mid], _CODY_ERFC_MID)
    t = y[far]
    out[far] = (_FRAC_SQRT_PI - _rational(t * t, _CODY_ERFC_FAR)) / t
    split = mid | far
    t = y[split]
    s = np.floor(t * 16.0) / 16.0
    out[split] *= np.exp(-s * s) * np.exp((s - t) * (t + s))
    return np.where(~small & (x < 0.0), 2.0 - out, out)


def erfclog_sigma(theta, p):
    """Erfc-Log filter weight at theta in [-1, 1] (float or array), order p > 0.

    The order p is a float or an array broadcast against theta; an order
    that is not a positive finite number (0, negative, NaN or infinite)
    raises ValueError, and so does a theta with |theta| > 1 or NaN.  These
    checks are this function's own: ``filter_weights`` builds its orders
    and thetas in range and calls the unchecked kernel ``_erfclog``.

    With tb = |theta| - 1/2 the weight is
    erfc(2*sqrt(p)*tb*L(tb))/2 where L(tb) = sqrt(-log(1-4 tb^2)/(4 tb^2)),
    continued by its limit L = 1 at tb = 0.  Since 2|tb| is the square
    root of 4 tb^2, the erfc argument is sign(tb)*sqrt(-p*log(1-4 tb^2)),
    which is 0 at tb = 0 with no special case.  It needs no clamp:
    ``_erfc`` is exactly 0 (or 2) beyond Cody's cut 26.543 and at +-inf,
    and the argument is infinite at theta = 0 and |theta| = 1, so the
    weight there is exactly 1 and 0.
    """
    p = np.asarray(p, dtype=float)
    if not (np.isfinite(p) & (p > 0)).all():
        raise ValueError("order p must be positive and finite")
    at = np.abs(np.asarray(theta, dtype=float))
    if not (at <= 1.0).all():
        raise ValueError(f"|theta|={at.max()} is not <= 1")
    w = _erfclog(at, p)
    return float(w) if w.ndim == 0 else w


def _erfclog(at: np.ndarray, p: np.ndarray) -> np.ndarray:
    """``erfclog_sigma``'s weights at |theta| = ``at`` in [0, 1] and positive
    finite orders ``p``, with no checks: both callers ensure them."""
    tb = at - 0.5
    with np.errstate(divide="ignore"):  # log(0) at theta = 0 and |theta| = 1
        arg = np.copysign(np.sqrt(np.log1p(-4.0 * tb * tb) * -p), tb)
    return 0.5 * _erfc(arg)


def _hdaf_rows(theta, widths: np.ndarray, sizes: list) -> np.ndarray:
    """HDAF weights exp(-s) * sum_{j<=J} s^j/j! of several rows at once.

    The weight is P(Poisson(s) <= J), the regularized upper incomplete
    gamma function Q(J+1, s) (Tanner, Math. Comp. 2006), with s and J
    read from the row's width (module docstring).  Row r is the next
    ``sizes[r]`` entries of the flat array ``theta``, of width
    ``widths[r]``.  Rows below depth ``_HDAF_TEMME_DEPTH`` take the
    finite sum (``_poisson_weights``), the others Temme's expansion
    (``_temme_weights``), each a fixed number of numpy steps.  The split
    and the finite sum need the rows in nondecreasing depth, which
    nondecreasing degrees give (``filter_weights`` rejects any other
    list).  The depths are not checked here: ``filter_weights`` checks
    the top row's before ``theta`` exists.  Every entry depends on its
    own row alone, so it is bit-identical to a one-row call.
    """
    depths = np.floor(widths / _HDAF_DEPTH_DIVISOR).astype(int).tolist()
    s = np.repeat(widths, sizes) * np.square(theta) / 2.0
    split = bisect_left(depths, _HDAF_TEMME_DEPTH)
    cut = sum(sizes[:split])
    w = np.empty_like(s)
    if split:
        w[:cut] = _poisson_weights(s[:cut], depths[:split], sizes[:split])
    if split < len(depths):
        w[cut:] = _temme_weights(s[cut:], depths[split:], sizes[split:])
    return w


def _poisson_weights(s: np.ndarray, depths: list, sizes: list) -> np.ndarray:
    """exp(-s) * sum_{j<=J} s^j/j! for rows of nondecreasing depth J.

    Horner's rule in s from the top depth down: the rows come in
    nondecreasing depth, so the entries of depth at least j are a suffix
    of ``s``, and step j multiplies that suffix by s and adds 1/j!.  An
    entry's own first step is 0*s + 1/J!, so its bits do not depend on
    the deeper rows beside it.  All terms are positive: the relative
    error grows like J*eps, and the exp(-s) * sum that can round above 1
    is clamped to 1.
    """
    starts = list(accumulate(sizes, initial=0))
    acc = np.zeros_like(s)
    for j in range(depths[-1], -1, -1):
        k = starts[bisect_left(depths, j)]
        tail = acc[k:]
        tail *= s[k:]
        tail += _INV_FACTORIALS[j]
    return np.minimum(np.exp(-s) * acc, 1.0)


def _temme_weights(s: np.ndarray, depths: list, sizes: list) -> np.ndarray:
    """Q(a, s) with a = J+1 by Temme's uniform expansion, for rows of depth J.

    Q(a, s) = erfc(eta*sqrt(a/2))/2 + exp(-a*eta^2/2)/sqrt(2 pi a) *
    sum_k C_k(eta) a^-k, with mu = s/a - 1 and eta^2/2 = mu - log(1+mu)
    = f, eta of the sign of mu (Temme, SIAM J. Math. Anal. 1979; DLMF
    8.12).  Each row's coefficients of eta^n, sum_k d_{k,n} a^-k over
    sqrt(2 pi a), come from Horner's rule in 1/a, elementwise, so they
    depend on that row's a alone.  mu = (s-a)/a is exact to rounding
    near the cut, and for |t| <= 1/8, t = mu/(2+mu), f is the series in
    t, so that neither cancels.  Beyond |eta| = 2 the polynomial only has
    to stay finite: exp(-a*eta^2/2) <= e^-168 there.  Each weight is
    clamped to [0, 1]; at s = 0 it is exactly 1.
    """
    a_rows = np.array(depths, dtype=float) + 1.0
    coef = _horner(1.0 / a_rows, _TEMME_ROWS) / np.sqrt(math.tau * a_rows)
    a = np.repeat(a_rows, sizes)
    mu = (s - a) / a
    t = mu / (2.0 + mu)
    u = t * t
    near = t * mu - 2.0 * t * u * _horner(u, _ATANH_TAIL)
    with np.errstate(divide="ignore"):  # log(0) at s = 0, where f is inf
        f = np.where(np.abs(t) <= 0.125, near, mu - np.log(s / a))
    del t, u, near
    af = a * f
    eta = np.clip(np.copysign(np.sqrt(2.0 * f), mu), -2.0, 2.0)
    rows = np.repeat(np.arange(len(depths)), sizes)
    poly = coef[-1].take(rows)
    for c in coef[-2::-1]:
        poly *= eta
        poly += c.take(rows)
    poly *= np.exp(-af)
    poly += 0.5 * _erfc(np.copysign(np.sqrt(af), mu))
    return np.clip(poly, 0.0, 1.0, out=poly)


def _checked_degrees(N) -> list:
    """N, a degree or a list of degrees (module docstring), as a list of
    Python ints, after the checks that the module docstring states."""
    if type(N) is int and 0 <= N < _MAX_EXACT_INDEX:  # one plain degree: no numpy
        return [N]
    try:
        array = np.atleast_1d(N)
    except ValueError:  # numpy's own error for a ragged list, as [[1], [2, 3]]
        array = None
    if array is None or array.ndim != 1:
        raise TypeError("a list of degrees must be 1-D")
    degrees = array.tolist()
    if not degrees:
        raise ValueError("need at least one degree")
    if array.dtype.kind not in "iu":  # an object array may hold ints past int64
        bad = [d for d in degrees if isinstance(d, bool) or not isinstance(d, int)]
        if bad:  # [1, 2.5] is a float array: name 2.5, not 1.0
            first = min(bad, key=lambda d: isinstance(d, float) and d.is_integer())
            raise TypeError(f"degree {first!r} is not an integer")
    low = min(degrees)
    # numpy casts a bool among a list's ints to 0 or 1, so a list whose
    # lowest degree is 0 or 1 has its entries' types read, once
    if low <= 1 and type(N) in (list, tuple):
        if not {bool, np.bool_}.isdisjoint(map(type, N)):
            first = next(d for d in N if type(d) in (bool, np.bool_))
            raise TypeError(f"degree {bool(first)!r} is not an integer")
    if low < 0:
        raise ValueError("N must be >= 0")
    if not max(degrees) < _MAX_EXACT_INDEX:  # before any per-entry array
        raise ValueError(f"degree {max(degrees)} is not representable: need N < 2^53")
    if degrees != sorted(degrees):
        raise ValueError("a list of degrees must not decrease")
    return degrees


def _checked_degree(N) -> int:
    """N, one degree (module docstring), as a Python int.  Nothing with a
    length is one degree: a list of degrees, even of one, a string or an
    array, even a 0-d one, raises TypeError("degree [3] is not an integer")
    before the rule reads it."""
    if type(N) is not int and hasattr(N, "__len__"):
        raise TypeError(f"degree {N!r} is not an integer")
    return _checked_degrees(N)[0]


def _checked_rows(spec: FilterSpec, N, x_dist: float) -> tuple:
    """N as a list (``_checked_degrees``), after the distance check that
    ``filter_weights`` documents; with each row's N as a float of at
    least 1 (theta's divisor) and its width w = that N*x_dist, as
    arrays."""
    if not x_dist >= 0:
        raise ValueError("x_dist must be nonnegative")
    degrees = _checked_degrees(N)
    divisors = np.maximum(degrees, 1.0)
    with np.errstate(over="ignore"):  # inf fails the check below, or is not read
        widths = divisors * x_dist
    # Erfc-Log's order and HDAF's depth grow with w: the top row bounds all rows
    depth = widths.max() / _HDAF_DEPTH_DIVISOR
    if spec.kind in ("erfclog", "hdaf") and not depth < _MAX_EXACT_INDEX:
        raise ValueError(f"{spec.kind}: N*x_dist/15 = {depth} is not representable")
    return degrees, divisors, widths


def weight_bands(
    spec: FilterSpec, degrees: list[int], x_dist: float = 0.0
) -> tuple[list[int], list[int]]:
    """Each row's band lo..hi: the only entries whose weight can move its sum.

    For Erfc-Log and HDAF, every weight at n < lo is within 2^-60 of 1 and
    every weight at n > hi is at most 2^-60, by closed-form tail bounds
    with L = 60 log 2 and one entry of margin on each side.  Erfc-Log:
    erfc(y) <= exp(-y^2), so the weight is within e^-L of 1 or of 0 once
    |n/N - 1/2| >= sqrt(-expm1(-L/p))/2.  HDAF: with X ~ Poisson(s),
    Chernoff's bounds give P(X > J) <= e^-L for
    s <= J+1 - sqrt(2(J+1)L) and P(X <= J) <= e^-L for
    s >= J + L + sqrt(L^2 + 2JL), at n = sqrt(2N*s/x_dist).  The band
    holds O(sqrt(N/x_dist)) entries, and at x_dist = 0, where every HDAF
    weight is exactly 1 and no Erfc-Log weight is, the whole row.  A band
    starts at 0 unless it leaves at least ``_MIN_BAND_START`` = 32
    entries below it.  Euler and identity rows are whole: 0..N.  So is
    every HDAF row of width w <= 4L, since s_hi >= 2L puts n_hi at or
    beyond N there.  A row's band depends on its N and x_dist alone, not
    on the other rows.  One vectorized pass over the rows, none for Euler
    and identity or when the top HDAF row has w <= 4L.  ``degrees`` is a
    list of degrees (module docstring).  Raises the ValueError that
    ``filter_weights`` raises for the same degrees and distance (a NaN,
    negative or, for Erfc-Log and HDAF, infinite one), before any array
    is built.
    """
    degrees, N, widths = _checked_rows(spec, degrees, x_dist)
    L = _BAND_LOG_TOL
    if spec.kind == "erfclog":
        p = 1.0 + widths / math.tau
        reach = N * np.sqrt(np.expm1(-L / p) * -0.25)
        mid = N * 0.5
        first, last = mid - reach, mid + reach
    elif spec.kind == "hdaf" and widths.max() > 4.0 * L:
        J = np.floor(widths / _HDAF_DEPTH_DIVISOR)
        s_lo = J + 1.0 - np.sqrt((J + 1.0) * (2.0 * L))
        s_hi = J + L + np.sqrt(J * (2.0 * L) + L * L)
        per_s = N * (2.0 / x_dist)  # n^2 per unit of s
        first = np.sqrt(np.maximum(s_lo, 0.0) * per_s)
        last = np.sqrt(s_hi * per_s)
    else:
        return [0] * len(degrees), list(degrees)
    lo = np.ceil(first) - 1.0
    lo[lo < _MIN_BAND_START] = 0.0
    hi = np.minimum(np.floor(last) + 1.0, degrees)  # a degree-0 row's N is 1
    return lo.astype(int).tolist(), hi.astype(int).tolist()


def filter_weights(
    spec: FilterSpec,
    N: int | list[int],
    x_dist: float = 0.0,
    bands: tuple[list[int], list[int]] | None = None,
) -> np.ndarray:
    """Weight table sigma(|n|) for |n| = 0..N at truncation degree N.

    The one entry point to the HDAF and Erfc-Log weights, which read
    theta = n/N and each row's width (module docstring).  N is a degree
    or a list of degrees (module docstring), for which the rows' weight
    vectors come back concatenated in order as one flat array: one call
    weights a batch of a trace's rows, each entry bit-identical to its
    per-N table.
    ``bands``, a list of lo and a list of hi with one entry per row
    (``weight_bands``), limits row r to its entries lo[r]..hi[r]; by
    default every row is whole.  Each weight is the same whatever the
    band.  Euler and identity ignore the value of ``x_dist``.  All
    weights are functions of |n|, so sigma(-theta) = sigma(theta) holds
    exactly.  Raises ValueError for a negative or NaN distance, for every
    kind, for degrees that break the module docstring's rule, and for a
    band that is not 0 <= lo <= hi <= N, before any array is built.  For
    Erfc-Log and HDAF it also raises when the top row's width over 15
    (HDAF's depth) is not finite or reaches 2^53, before ``theta``
    exists: that one check covers every row, and every Erfc-Log order is
    then finite and >= 1.  Neither kernel checks its arguments again.
    """
    degrees, divisors, widths = _checked_rows(spec, N, x_dist)
    los, his = bands or ([0] * len(degrees), degrees)
    if not len(los) == len(his) == len(degrees) or not all(
        0 <= lo <= hi <= M for lo, hi, M in zip(los, his, degrees)
    ):
        raise ValueError("need one band 0 <= lo <= hi <= N per degree")
    sizes = [hi - lo + 1 for lo, hi in zip(los, his)]
    if spec.kind == "identity":
        return np.ones(sum(sizes))
    if spec.kind == "euler":
        tables = [_euler_sigma_table(M) for M in degrees]
        return np.concatenate([t[lo : hi + 1] for t, lo, hi in zip(tables, los, his)])
    # theta = n/N within each row.  A degree-0 row's one entry sits at
    # theta = 0, where every weight is exactly 1.  n and N are doubles,
    # exact below 2^53, so the quotient is the correctly rounded one that
    # int64 division gives at several times the cost.
    # Entry k of the flat array, counted from 1, is n = lo + k - (row start
    # + 1) = k - (row end - hi), with row end = row start + size.
    theta = np.arange(1.0, sum(sizes) + 1.0)
    theta -= np.repeat(np.cumsum(sizes, dtype=float) - his, sizes)
    theta /= np.repeat(divisors, sizes)
    if spec.kind == "hdaf":
        return _hdaf_rows(theta, widths, sizes)
    return _erfclog(theta, np.repeat(1.0 + widths / math.tau, sizes))


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
