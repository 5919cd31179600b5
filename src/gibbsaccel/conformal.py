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
``recoefficient`` builds the rows one order at a time from the
all-positive recurrence T[m, n] = T[m-1, n]/c + ((c-1)/c) T[m-1, n-1]:
O(N^2) flops and O(N) memory, with no N x N table held.

With c = 2 the column sums sum_{m<=N} T_2[m, n] are the classical Euler
summation weights sigma_N(n) (``filters._euler_sigma_table``), so the
map-accelerated sum is Euler summation; ``euler_equivalence_check``
measures the difference between the two pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import _euler_sigma_table
from .series import FourierSeries

#: Default relative noise floor for radius estimation; re-expanded
#: coefficients below this fraction of the largest one are double-precision
#: roundoff rather than signal.
RADIUS_NOISE_FLOOR = 1e-13


@dataclass(frozen=True)
class PowerSeries:
    """Truncated power series sum_{n<=N} a_n z^n with immutable coefficients."""

    coeffs: tuple[complex, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(complex(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("need at least the constant coefficient")
        if not np.isfinite(np.array(self.coeffs)).all():
            raise ValueError("coefficients must be finite")

    @property
    def n_max(self) -> int:
        return len(self.coeffs) - 1


@dataclass(frozen=True)
class MobiusMap:
    """The rational map z = (c-1)*w/(c - w), singular at w = c.

    Maps 0 -> 0 and 1 -> 1 for any c > 1.  c = 2 sends a singularity of
    the original series at z = -1 to infinity (the classical Euler map);
    c = 3 balances it against the image of z = infinity so both land on
    |w| = 3.
    """

    c: float = 2.0

    def __post_init__(self) -> None:
        if self.c <= 1.0:
            raise ValueError("map parameter c must exceed 1")

    def forward(self, w: complex) -> complex:
        """z as a function of w; w = c is the pole of the map."""
        if w == self.c:
            raise ZeroDivisionError(f"map pole at w = {self.c}")
        return (self.c - 1.0) * w / (self.c - w)

    def inverse(self, z: complex) -> complex:
        if z == -(self.c - 1.0):
            raise ZeroDivisionError("inverse map pole")
        return self.c * z / (self.c - 1.0 + z)


MOBIUS2 = MobiusMap(2.0)


def recoefficient(series: PowerSeries, mapping: MobiusMap, N: int) -> PowerSeries:
    """Re-expand sum a_n Z(w)^n as sum b_m w^m through order w^N.

    b_0 = a_0 and b_m = sum_{n=1..m} T_c[m, n] a_n, where row m of the
    table, T_c[m, n] = ((c-1)/c)^n c^-(m-n) C(m-1, n-1), is built from
    row m-1 by the all-positive recurrence
    T[m, n] = T[m-1, n]/c + ((c-1)/c) T[m-1, n-1], starting at
    T[0, 0] = 1.  Each order costs one vector update and one dot
    product: O(N^2) flops, O(N) memory.  The row depends only on c and
    m, so the output prefix never changes when more input terms become
    available.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    if N > series.n_max:
        raise ValueError(f"N={N} exceeds available coefficients {series.n_max}")
    c = mapping.c
    r = (c - 1.0) / c
    a = np.array(series.coeffs[: N + 1])
    b = np.empty(N + 1, dtype=complex)
    b[0] = a[0]
    row = np.zeros(N + 1)
    row[0] = 1.0
    for m in range(1, N + 1):
        row[1 : m + 1] = row[1 : m + 1] / c + r * row[:m]
        row[0] = 0.0  # column 0 of T is 1 at m = 0 and 0 after
        b[m] = a[1 : m + 1] @ row[1 : m + 1]
    return PowerSeries(tuple(b))


def accelerate_sum(series: PowerSeries, mapping: MobiusMap, N: int) -> complex:
    """Partial sum of the re-expanded series at w = 1 through order N."""
    return complex(np.sum(recoefficient(series, mapping, N).coeffs))


def euler_equivalence_check(series: PowerSeries, N: int) -> float:
    """|map-accelerated sum - Euler-weighted sum| for the same input.

    The two pipelines are mathematically identical (the column sums of
    T_2 are the Euler weights); the returned residual is pure
    floating-point noise, below 1e-14 times sum |a_n|.
    """
    accelerated = accelerate_sum(series, MOBIUS2, N)
    sigma = _euler_sigma_table(N)[: N + 1]
    weighted = complex(np.sum(sigma * np.array(series.coeffs[: N + 1])))
    return abs(accelerated - weighted)


def abel_extend_eval(
    series: FourierSeries, x: float, z: complex, rel_tol: float = 1e-15
) -> complex:
    """Evaluate the inflated series sum c_n z^|n| exp(inx) inside |z| <= 1.

    The positive- and negative-index halves are summed separately; each
    half stops when its term magnitude falls below ``rel_tol`` of the
    running sum, or at the series' n_max (which acts as the summability
    cap on the boundary |z| = 1).
    """
    if abs(z) > 1.0 + 1e-15:
        raise ValueError(f"|z|={abs(z)} > 1: inflated series diverges")
    total = complex(series.coeff(0))
    for direction in (+1, -1):
        ratio = z * np.exp(direction * 1j * x)
        zpow = 1.0 + 0j
        terms = []
        running = abs(total)
        for n in range(1, series.n_max + 1):
            zpow *= ratio
            term = complex(series.coeff(direction * n)) * zpow
            terms.append(term)
            running += abs(term)
            if abs(term) < rel_tol * max(running, 1e-300):
                break
        total += complex(np.sum(terms))
    return total


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
    mag = np.abs(np.asarray(series.coeffs))
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
