"""Power-series re-summation through a Möbius map.

The engine behind the acceleration: a one-sided sum S = sum a_n is
inflated to a power series in a dummy variable z (its "Abel extension"),
z is replaced by the map z = Z_c(w) = (c-1)w/(c-w), with Z(0) = 0 and
Z(1) = 1, the composite is re-expanded in powers of w, and the w partial
sum is evaluated at w = 1.

The re-expansion is a lower-triangular weight table applied to the
coefficients, b_m = sum_n T_c[m, n] a_n, with the closed form

    T_c[m, n] = [w^m] Z_c(w)^n = ((c-1)/c)^n c^-(m-n) C(m-1, n-1)

and T_c[0, 0] = 1.  Row m depends only on c and m, so the first N
re-expanded coefficients depend only on the first N original ones.
The rows follow the all-positive recurrence
T[m, n] = T[m-1, n]/c + ((c-1)/c) T[m-1, n-1] from T[1] = (0, (c-1)/c),
so B steps of it are one convolution with the Binomial(B, (c-1)/c) pmf.
``recoefficient`` wraps the array kernel ``filters.mobius_reexpand``,
which advances B = 64 orders per step: one correlation of row m with
the coefficients and one small matrix product with the Binomial(i, p)
pmfs for i < B.  The rows m = 1 + kB depend on c alone, so the kernel
reads those up to order 2048 (``filters._KEPT_TABLE_MAX_M``) from one
cache of 512 rows, an entry per c and row (``filters._block_row``),
which builds each by one convolution from the row before it; rows past
that order cost one convolution on every call.  That is O(N^2) flops,
N/B Python steps and O(N) memory, with no N x N table held.

With p = (c-1)/c, T_c[m, n] = p^n (1-p)^(m-n) C(m-1, n-1) is the
probability that the n-th success of Bernoulli(p) trials falls on trial
m, so the column sums sum_{m<=N} T_c[m, n] are the Euler-Knopp weights
P(Binomial(N, p) >= n) (``filters._euler_sigma_table(N, p)``).  The
accelerated sum is therefore one weight vector times the coefficient
vector, with no re-expansion; with c = 2 (p = 1/2) the weights are the
classical Euler summation weights.  Read the other way, the prefix sums
of one re-expansion give that weighted sum at every degree at once:
``series`` sums dense Euler traces that way.  ``euler_equivalence_check``
compares the two constructions of the table: the sum of
``recoefficient``'s b_m, by the row recurrence, with ``accelerate_sum``
at c = 2, by the binomial tails.

``recoefficient`` keeps its last re-expansion, one entry keyed by the
series object, c and N, held until a call with another key.  A caller
that re-expands a series at c = 2 and then checks it at the same N
(``euler_equivalence_check`` calls ``recoefficient``) runs the kernel
once: the check sums the b the caller already holds.  ``accelerate_sum``
never re-expands, so it neither reads nor replaces the entry.

A ``PowerSeries`` holds a_0..a_N as one read-only complex array; the
functions here read a prefix view of it, so the kernel, which computes
in its input's dtype, takes its complex path here (``series`` hands it
the float64 fold of a real function instead).  ``MobiusMap`` is no more
than the checked parameter c of T_c.  ``estimate_radius`` measures the
rate of the re-expanded coefficients with ``rates.fit_rate``, the fit
that ``sweeps.fit_envelope`` applies to error traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .filters import _checked_degree, _euler_sigma_table, mobius_reexpand
from .rates import fit_rate

#: Relative noise floor for radius estimation; re-expanded coefficients
#: below this fraction of the largest one are double-precision roundoff
#: rather than signal.
RADIUS_NOISE_FLOOR = 1e-13


@dataclass(frozen=True, eq=False)
class PowerSeries:
    """Truncated power series sum_{n<=N} a_n z^n with immutable coefficients.

    ``coeffs`` may be any flat sequence (a tuple, a list) or 1-D array; it
    is copied once into a read-only complex array, so later writes to the
    input do not reach the series.  Instances compare by identity.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=complex)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a flat sequence")
        if arr.size == 0:
            raise ValueError("need at least the constant coefficient")
        if not np.isfinite(arr).all():
            raise ValueError("coefficients must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "coeffs", arr)

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class MobiusMap:
    """The rational map z = (c-1)*w/(c - w), singular at w = c, by its c.

    Maps 0 -> 0 and 1 -> 1 for any c > 1.  c = 2 sends a singularity of
    the original series at z = -1 to infinity (the classical Euler map);
    c = 3 balances it against the image of z = infinity so both land on
    |w| = 3.  The map is only ever applied through its re-expansion
    table T_c (``recoefficient``, ``accelerate_sum``).
    """

    c: float = 2.0

    def __post_init__(self) -> None:
        if not 1.0 < self.c < np.inf:  # also rejects nan
            raise ValueError(f"map parameter c={self.c} must be finite and exceed 1")


MOBIUS2 = MobiusMap(2.0)


def _prefix(series: PowerSeries, N: int) -> np.ndarray:
    """a_0..a_N, a read-only view.  N is checked by the degree rule
    (``filters._checked_degree``: TypeError for 2.5, True or [3],
    ValueError for -1 or 2^53) before any cache is read, and then
    N <= n_max, else ValueError."""
    if _checked_degree(N) > series.n_max:
        raise ValueError(f"N={N} outside [0, n_max={series.n_max}]")
    return series.coeffs[: N + 1]


def recoefficient(series: PowerSeries, mapping: MobiusMap, N: int) -> PowerSeries:
    """Re-expand sum a_n Z(w)^n as sum b_m w^m through order w^N.

    b_0 = a_0 and b_m = sum_{n=1..m} T_c[m, n] a_n, computed by
    ``filters.mobius_reexpand`` (64 orders of the table's row recurrence
    per step, O(N^2) flops and O(N) memory).  Order m never reads a_n for
    n > m: the output prefix never changes when more input terms become
    available.

    The last re-expansion is kept (``_reexpanded``): a second call on
    the same series object, c and N returns the same b without running
    the kernel again, so ``euler_equivalence_check`` after a c = 2 call
    on its series and N costs only its sums.
    """
    # N is checked before the cache reads it, since 2.0 == 2 as a key
    return _reexpanded(series, mapping.c, _prefix(series, N).size - 1)


@lru_cache(maxsize=1)
def _reexpanded(series: PowerSeries, c: float, N: int) -> PowerSeries:
    """``recoefficient``'s b for a checked N.  The key is the series (by
    identity, so a reference to it), c and N; the one entry holds them
    and b, 16(N+1) bytes, until a call with another key replaces it."""
    return PowerSeries(mobius_reexpand(series.coeffs[: N + 1], c))


def accelerate_sum(series: PowerSeries, mapping: MobiusMap, N: int) -> complex:
    """Partial sum of the re-expanded series at w = 1 through order N.

    sum_{m<=N} b_m = sum_n sigma(n) a_n with the Euler-Knopp weights
    sigma(n) = P(Binomial(N, (c-1)/c) >= n), the column sums of T_c: one
    O(N) weight vector, no re-expansion.
    """
    a = _prefix(series, N)
    sigma = _euler_sigma_table(N, (mapping.c - 1.0) / mapping.c)
    return complex(np.sum(sigma * a))


def euler_equivalence_check(series: PowerSeries, N: int) -> float:
    """|Möbius(2) sum by the row recurrence - Euler-weighted sum|.

    The sum of ``recoefficient``'s b_m against ``accelerate_sum`` at
    c = 2, sigma_E . a with the binomial Euler table: two independent
    constructions of the same weights, so the residual is pure
    floating-point noise, below 1e-14 times sum |a_n|.  Right after a
    ``recoefficient`` call on this series at c = 2 and this N, its b
    comes from that call's kept entry, so the check runs no re-expansion;
    otherwise it runs one and keeps it in place of the last.
    """
    mapped = np.sum(recoefficient(series, MOBIUS2, N).coeffs)
    return abs(complex(mapped) - accelerate_sum(series, MOBIUS2, N))


def estimate_radius(series: PowerSeries) -> float:
    """Radius of convergence fitted to the coefficient magnitudes.

    ``rates.fit_rate`` fits log|b_n| ~ log A - q*n - alpha*log n, alpha
    fitted too, on the upper hull of the last two thirds of the usable
    orders, and the radius is e^q.  Orders whose |b_n| is below
    ``RADIUS_NOISE_FLOOR`` times the largest one, at the end of the
    series, are not usable.  Where fewer than three orders of that tail
    lie on its hull, the series reached roundoff within a few orders
    (sws within 1e-3 of pi, where |b_n| falls like cos(x/2)^n), and the
    fit reads the leading run of consecutive orders above the floor
    instead, with alpha = 1.  Raises ValueError with fewer than 16
    nonzero coefficients, when every order >= 1 is below the noise
    floor, and when fewer than three orders lie on the hull of that run
    too (growing coefficients, a radius below 1, are one such case).
    """
    mag = np.abs(series.coeffs)
    if np.count_nonzero(mag[1:]) < 16:
        raise ValueError("need at least 16 nonzero coefficients")
    usable = (mag[1:] > RADIUS_NOISE_FLOOR * mag.max()).nonzero()[0] + 1
    if len(usable) == 0:
        raise ValueError("all coefficients below the noise floor")
    # the nonzero orders up to the last usable one, itself nonzero
    orders = mag[1 : usable[-1] + 1].nonzero()[0] + 1
    tail = orders[len(orders) // 3 :]
    hull, _, q, _ = fit_rate(tail, np.log(mag[tail]))
    if np.isnan(q):  # fit_rate found fewer than 3 distinct orders on the hull
        # roundoff came within a few orders: the leading run is the signal
        lead = usable[usable - np.arange(len(usable)) == usable[0]]
        hull, _, q, _ = fit_rate(lead, np.log(mag[lead]), 1.0)
    if np.isnan(q):
        raise ValueError(f"only {hull.sum()} orders on the upper hull; need 3")
    return float(np.exp(q))
