"""Two-sided Fourier series and their raw / filtered partial sums.

Coefficients are supplied by a generator function (closed form in n)
rather than a stored array, so very large truncation degrees cost nothing
up front.  The generator takes the whole index range at once as an integer
array, so a sum over |n| <= N is a handful of array operations.  A sum is
folded onto the one-sided terms a_n = c_n e^{inx} + c_-n e^{-inx},
n = 0..N (``FourierSeries.folded``), weighted, and reduced over those N+1
terms with numpy's pairwise summation: the rounding error is about
log2(N+1)*eps*sum|c_n|, below the saturation floor of 100*eps*sum|c_n|,
and results are bit-identical from run to run with the same numpy build.

A trace of degrees at one x (``trace_errors``) folds once, at its top
degree, and each N sums the prefix a_0..a_N of that fold: the folded
terms do not depend on N, so every row is bit-identical to the per-N
sum, which is the one-degree case of the same path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .filters import FilterSpec, filter_weights
from .rates import SingularitySet, periodic_distance

_SYMMETRY_PROBE = 8  # c(+-n) checked for n = 0..8, n_max // 2 and n_max


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
            probe = min(_SYMMETRY_PROBE, self.n_max)
            ns = np.array(sorted({*range(probe + 1), self.n_max // 2, self.n_max}))
            c = self._coefficients_at(np.concatenate((ns, -ns)))
            c_pos, c_neg = c[: ns.size], c[ns.size :]
            bad = np.abs(c_neg - c_pos.conj()) > 1e-13 * (1.0 + np.abs(c_pos))
            if bad.any():
                raise ValueError(
                    f"real_valued series needs c(-n) == conj(c(n)); "
                    f"violated at n={int(ns[np.argmax(bad)])}"
                )

    def _coefficients_at(self, ns: np.ndarray) -> np.ndarray:
        c = np.asarray(self.coeff(ns), dtype=complex)
        return c if c.shape == ns.shape else np.broadcast_to(c, ns.shape)

    def coefficients(self, N: int) -> np.ndarray:
        """c_n for n = -N..N as a complex array of length 2N+1."""
        return self._coefficients_at(np.arange(-N, N + 1))

    def folded(self, x: float, N: int) -> np.ndarray:
        """The one-sided terms a_0 = c_0, a_n = c_n e^{inx} + c_-n e^{-inx}.

        The partial sum over |n| <= N at x is sum a_n for n = 0..N, and a
        filter with weights sigma(|n|) gives sum sigma(n) a_n.  Raises
        ValueError unless 0 <= N <= n_max.
        """
        if not 0 <= N <= self.n_max:
            raise ValueError(f"truncation degree {N} outside [0, n_max={self.n_max}]")
        c = self.coefficients(N)  # c[N + n] = c_n
        phase = np.exp(1j * np.arange(N + 1) * x)
        a = c[N:] * phase + c[N::-1] * phase.conj()
        a[0] = c[N]
        return a

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

    Summed as sum sigma(n) a_n over the N+1 folded terms (``folded``),
    by the same path as every row of ``trace_errors``.

    Adaptive filters (Erfc-Log, HDAF) receive the periodic distance from
    x to the series' real singularity; Euler and identity weights depend
    only on |n| and N.
    """
    ((value,),) = _filtered_sums(series, x, [N], [spec])
    return value


def _filtered_sums(
    series: FourierSeries, x: float, degrees: list[int], specs: list[FilterSpec]
) -> list[list[complex]]:
    """``filtered_partial_sum`` for each spec (outer) and each N in degrees
    (inner), every one a prefix of a single fold at the largest N."""
    if min(degrees) < 0:
        raise ValueError(f"truncation degree {min(degrees)} is negative")
    a = series.folded(x, max(degrees))
    x_dist = series.real_singularity_distance(x)
    return [
        [complex(np.sum(filter_weights(spec, N, x_dist) * a[: N + 1])) for N in degrees]
        for spec in specs
    ]


def trace_errors(
    series: FourierSeries, x: float, degrees: list[int], specs: list[FilterSpec]
) -> list[list[float]]:
    """|f(x) - filtered partial sum| for each spec (outer) and N (inner).

    The coefficients are folded once, at the largest N, and each N sums
    the prefix a_0..a_N of that fold with its own weight vector, so every
    error is bit-identical to ``pointwise_error`` at that N.  Raises
    ValueError when the series has no exact evaluator, when x is a
    declared real singularity, or when a degree is outside [0, n_max].
    """
    if series.exact_eval is None:
        raise ValueError("series has no exact evaluator")
    sings = series.singularities
    if sings is not None and sings.real_distance(x) == 0.0:
        raise ValueError(f"x={x} is a declared real singularity")
    exact = complex(series.exact_eval(x))
    return [
        [abs(exact - value) for value in sums]
        for sums in _filtered_sums(series, x, degrees, specs)
    ]


def pointwise_error(
    series: FourierSeries, x: float, N: int, spec: FilterSpec
) -> float:
    """|f(x) - filtered partial sum| against the closed-form evaluator."""
    ((err,),) = trace_errors(series, x, [N], [spec])
    return err


def saturation_floor(series: FourierSeries, N: int | np.ndarray) -> float | np.ndarray:
    """Error level below which double precision cannot resolve the sum.

    100 times machine epsilon times sum of |c_n| over |n| <= N;
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
    floors = 100.0 * np.finfo(float).eps * totals[degrees]
    return float(floors) if floors.ndim == 0 else floors
