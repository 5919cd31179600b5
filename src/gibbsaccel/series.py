"""Two-sided Fourier series and their raw / filtered partial sums.

Coefficients are supplied by a generator function (closed form in n)
rather than a stored array, so very large truncation degrees cost nothing
up front.  The generator takes the whole index range at once as an integer
array, so a sum over |n| <= N is a handful of array operations.  Sums are
reduced with numpy's pairwise summation: the rounding error is about
log2(2N+1)*eps*sum|c_n|, below the saturation floor of 100*eps*sum|c_n|,
and results are bit-identical from run to run with the same numpy build.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .filters import FilterSpec, filter_weights
from .rates import SingularitySet, periodic_distance

_SYMMETRY_PROBE = 8  # coefficients c(-8)..c(8) checked for conjugate symmetry


@dataclass(frozen=True)
class FourierSeries:
    """A two-sided Fourier series sum c_n exp(inx) with period 2*pi.

    ``coeff(ns)`` takes an int or an integer ndarray of indices with
    |n| <= n_max and returns c_n with the same shape (a complex for an
    int); a constant callable such as ``lambda n: 1.0`` is broadcast to
    the index array.  ``exact_eval`` is the optional closed form of the
    summed function, used as ground truth in error measurements.  General
    periods are out of scope; rescale the argument to 2*pi first.
    """

    coeff: Callable[[int | np.ndarray], complex | np.ndarray]
    n_max: int
    exact_eval: Callable[[float], complex] | None = None
    singularities: SingularitySet | None = None
    real_valued: bool = False

    def __post_init__(self) -> None:
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        if self.real_valued:
            K = min(_SYMMETRY_PROBE, self.n_max)
            c = self.coefficients(K)  # c[K + n] = c_n
            c_pos, c_neg = c[K:], c[K::-1]
            bad = np.abs(c_neg - c_pos.conj()) > 1e-13 * (1.0 + np.abs(c_pos))
            if bad.any():
                raise ValueError(
                    f"real_valued series needs c(-n) == conj(c(n)); "
                    f"violated at n={int(np.argmax(bad))}"
                )

    def coefficients(self, N: int) -> np.ndarray:
        """c_n for n = -N..N as a complex array of length 2N+1."""
        ns = np.arange(-N, N + 1)
        c = np.asarray(self.coeff(ns), dtype=complex)
        return c if c.shape == ns.shape else np.broadcast_to(c, ns.shape)

    def check_degree(self, N: int) -> None:
        if N < 0:
            raise ValueError("truncation degree must be >= 0")
        if N > self.n_max:
            raise ValueError(
                f"truncation degree {N} exceeds n_max={self.n_max}"
            )

    def real_singularity_distance(self, x: float) -> float:
        """Periodic distance from x to the declared real singularity.

        Falls back to the standard-form convention (singularity at 0)
        when no singularity set is declared; adaptive filters use this
        distance for their spatially varying parameters.
        """
        if self.singularities is not None:
            d = self.singularities.real_distance(x)
            if d is not None:
                return d
        return periodic_distance(x, 0.0)


def partial_sum(series: FourierSeries, x: float, N: int) -> complex:
    """Raw partial sum of c_n exp(inx) over |n| <= N: identity weights."""
    return filtered_partial_sum(series, x, N, FilterSpec())


def filtered_partial_sum(
    series: FourierSeries, x: float, N: int, spec: FilterSpec
) -> complex:
    """Filtered partial sum sum sigma(|n|) c_n exp(inx) over |n| <= N.

    Adaptive filters (Erfc-Log, HDAF) receive the periodic distance from
    x to the series' real singularity; Euler and identity weights depend
    only on |n| and N.
    """
    series.check_degree(N)
    w = filter_weights(spec, N, series.real_singularity_distance(x))
    ns = np.arange(-N, N + 1)
    terms = w[np.abs(ns)] * series.coefficients(N) * np.exp(1j * ns * x)
    return complex(terms.sum())


def pointwise_error(
    series: FourierSeries, x: float, N: int, spec: FilterSpec
) -> float:
    """|f(x) - filtered partial sum| against the closed-form evaluator."""
    if series.exact_eval is None:
        raise ValueError("series has no exact evaluator")
    sings = series.singularities
    if sings is not None and sings.real_distance(x) == 0.0:
        raise ValueError(f"x={x} is a declared real singularity")
    return abs(complex(series.exact_eval(x)) - filtered_partial_sum(series, x, N, spec))


def saturation_floor(
    series: FourierSeries, N: int | np.ndarray, scale: float = 100.0
) -> float | np.ndarray:
    """Error level below which double precision cannot resolve the sum.

    ``scale`` times machine epsilon times sum of |c_n| over |n| <= N;
    measured errors under this floor are roundoff, not truncation.  N is
    an int, giving a float, or an integer array of degrees, giving the
    floors of the same shape from one coefficient call at the largest
    degree and a cumulative sum over |n|.
    """
    degrees = np.asarray(N)
    if degrees.min() < 0:
        raise ValueError("truncation degree must be >= 0")
    top = int(degrees.max())
    mag = np.abs(series.coefficients(top))  # mag[top + n] = |c_n|
    pairs = mag[top + 1 :] + mag[:top][::-1]  # |c_n| + |c_-n|, n = 1..top
    totals = mag[top] + np.concatenate(([0.0], np.cumsum(pairs)))
    floors = scale * np.finfo(float).eps * totals[degrees]
    return float(floors) if floors.ndim == 0 else floors
