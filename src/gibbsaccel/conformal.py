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
the coefficients, one small matrix product with the Binomial(i, p)
pmfs for i < B, and one convolution to row m + B.  That is O(N^2)
flops, N/B Python steps and O(N) memory, with no N x N table held.

With p = (c-1)/c, T_c[m, n] = p^n (1-p)^(m-n) C(m-1, n-1) is the
probability that the n-th success of Bernoulli(p) trials falls on trial
m, so the column sums sum_{m<=N} T_c[m, n] are the Euler-Knopp weights
P(Binomial(N, p) >= n) (``filters._euler_sigma_table(N, p)``).  The
accelerated sum is therefore one weight vector times the coefficient
vector, with no re-expansion; with c = 2 (p = 1/2) the weights are the
classical Euler summation weights.  Read the other way, the prefix sums
of one re-expansion give that weighted sum at every degree at once:
``series`` sums dense Euler traces that way.  ``euler_equivalence_check``
compares the two constructions of the table: the row recurrence and the
binomial tails.

A ``PowerSeries`` holds a_0..a_N as one read-only complex array; the
functions here read a prefix view of it, and ``MobiusMap`` is no more
than the checked parameter c of T_c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import _euler_sigma_table, mobius_reexpand

#: Default relative noise floor for radius estimation; re-expanded
#: coefficients below this fraction of the largest one are double-precision
#: roundoff rather than signal.
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
        if self.c <= 1.0:
            raise ValueError("map parameter c must exceed 1")


MOBIUS2 = MobiusMap(2.0)


def _prefix(series: PowerSeries, N: int) -> np.ndarray:
    """a_0..a_N, a read-only view; raises ValueError unless 0 <= N <= n_max."""
    if not 0 <= N <= series.n_max:
        raise ValueError(f"N={N} outside [0, n_max={series.n_max}]")
    return series.coeffs[: N + 1]


def recoefficient(series: PowerSeries, mapping: MobiusMap, N: int) -> PowerSeries:
    """Re-expand sum a_n Z(w)^n as sum b_m w^m through order w^N.

    b_0 = a_0 and b_m = sum_{n=1..m} T_c[m, n] a_n, computed by
    ``filters.mobius_reexpand`` (64 orders of the table's row recurrence
    per step, O(N^2) flops and O(N) memory).  Order m never reads a_n for
    n > m: the output prefix never changes when more input terms become
    available.
    """
    return PowerSeries(mobius_reexpand(_prefix(series, N), mapping.c))


def accelerate_sum(series: PowerSeries, mapping: MobiusMap, N: int) -> complex:
    """Partial sum of the re-expanded series at w = 1 through order N.

    sum_{m<=N} b_m = sum_n sigma(n) a_n with the Euler-Knopp weights
    sigma(n) = P(Binomial(N, (c-1)/c) >= n), the column sums of T_c: one
    O(N) weight vector, no re-expansion.
    """
    a = _prefix(series, N)
    sigma = _euler_sigma_table(N, (mapping.c - 1.0) / mapping.c)[: N + 1]
    return complex(np.sum(sigma * a))


def euler_equivalence_check(series: PowerSeries, N: int) -> float:
    """|Möbius(2) sum by the row recurrence - Euler-weighted sum|.

    The sum of ``recoefficient``'s b_m against sigma_E . a with the
    binomial Euler table: two independent constructions of the same
    weights, so the residual is pure floating-point noise, below 1e-14
    times sum |a_n|.
    """
    mapped = np.sum(recoefficient(series, MOBIUS2, N).coeffs)
    weighted = np.sum(_euler_sigma_table(N)[: N + 1] * _prefix(series, N))
    return abs(complex(mapped - weighted))


def estimate_radius(
    series: PowerSeries, noise_floor_rel: float | None = RADIUS_NOISE_FLOOR
) -> float:
    """Root-test estimate of the radius of convergence.

    Approximates 1/limsup |b_n|^(1/n) by the median of |b_n|^(-1/n) over
    the last third of the usable coefficients.  ``noise_floor_rel``
    discards trailing coefficients smaller than that fraction of the
    largest one -- in double precision, re-expanded coefficients below
    roughly 1e-13 of the peak are roundoff; pass ``None`` to keep every
    nonzero coefficient (e.g. for exact closed-form inputs).
    """
    mag = np.abs(series.coeffs)
    nonzero = np.nonzero(mag > 0.0)[0]
    nonzero = nonzero[nonzero >= 1]
    if len(nonzero) < 16:
        raise ValueError("need at least 16 nonzero coefficients")
    if noise_floor_rel is not None:
        floor = noise_floor_rel * mag.max()
        usable = np.nonzero(mag > floor)[0]
        usable = usable[usable >= 1]
        if len(usable) == 0:
            raise ValueError("all coefficients below the noise floor")
        nonzero = nonzero[nonzero <= usable[-1]]
        if len(nonzero) == 0:
            raise ValueError("no usable coefficients for the root test")
    tail = nonzero[len(nonzero) - max(1, len(nonzero) // 3) :]
    estimates = mag[tail] ** (-1.0 / tail)
    return float(np.median(estimates))
