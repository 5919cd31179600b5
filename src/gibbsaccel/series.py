"""Two-sided Fourier series and their raw / filtered partial sums.

Coefficients are supplied by a generator function, a closed form in n
and a pure function of it, which takes the whole index range at once as
an integer array, so a sum over |n| <= N is a handful of array
operations.  A series keeps what its generator returned: one read-only
table of c_{-T..T} at the largest degree T asked for, with the running
totals sum |c_n| that the saturation floors read, so every later fold or
floor up to T slices it and calls nothing.  The c_n do not depend on x,
and a catalog entry is one object per function (``catalog.get_function``),
so many traces of one function, at many x, compute them once.  Degrees
above ``_KEPT_MAX_N`` = 2048 keep nothing: each such call computes its
coefficients afresh, so a sweep near n_max = 2,000,000 holds no table
of that size after it returns.  A kept c_n has the bits of a fresh call
at any degree, so no output depends on what was asked for before.

A sum is folded onto the one-sided terms a_n = c_n e^{inx} +
c_-n e^{-inx}, n = 0..N (``FourierSeries.folded``), weighted, and reduced
over those N+1 terms with numpy's pairwise summation: the rounding error
is about log2(N+1)*eps*sum|c_n|, below the saturation floor of
100*eps*sum|c_n|, and results are bit-identical from run to run with the
same numpy build.

A trace of degrees at one x (``trace_errors``) folds once, at its top
degree, and each N sums the prefix a_0..a_N of that fold: the folded
terms do not depend on N.  A filter's rows then take one of two routes.

* Weight tables (every kind; the one-degree sums and sparse traces):
  each row reads only its band lo..hi (``filters.weight_bands``; the
  whole row 0..N for Euler and identity, and for the Erfc-Log and HDAF
  rows where no weight can be left out), and one ``filter_weights``
  call per filter and batch of rows weighs the bands (at most
  ``_WEIGHT_BATCH_ENTRIES`` = 8192 weights, or one larger band alone:
  HDAF's Temme expansion and Erfc-Log's erfc kernel have a fixed cost
  per call, which a larger batch spreads over more rows).  A row's sum is
  the pairwise sum of a_0..a_{lo-1} (none when lo = 0) plus the pairwise
  sum of its band's weights times a_lo..a_hi.  Every Erfc-Log or HDAF
  weight left out is within 2^-60 of 1 below the band and at most 2^-60
  above it, so a row differs from the whole weighted row by at most
  2^-60*sum|a_n| plus rounding, far below the saturation floor; a row
  whose band is the whole row is summed exactly as the whole row and is
  bit-identical to it.  Every row equals ``pointwise_error``'s sum at
  its N bit for bit.
* One re-expansion (Euler rows of a dense trace): the Euler sum at N is
  b_0 + ... + b_N with b the Möbius(2) re-expansion of the fold
  (``filters.mobius_reexpand``), so one re-expansion at the top degree
  and its prefix sums give every row.  A trace is dense when it has
  more than one row and N_max^2 <= 64 * sum(N + 1): a re-expansion
  costs about 0.9 ns * N_max^2 (2.2 ms at N = 1600), a cold Euler table
  about 30 us plus 30 ns per entry, before its product and sum.  The
  cache of tables holds 256 degrees, and a sweep of a few hundred
  distinct degrees misses it.  The prefix sums are blocked, a running
  sum inside each 64-block plus a running sum of the pairwise block
  totals, so the rounding error grows with 64 + N/64 terms rather than
  N.  These rows agree with the per-N sum to well within a saturation
  floor, not bit for bit; the same degree reads the same value from
  every dense trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .filters import FilterSpec, _checked_degree, _checked_degrees, filter_weights
from .filters import mobius_reexpand, weight_bands
from .rates import SingularitySet, periodic_distance

#: Weights per batched ``filter_weights`` call; bounds the batch's memory
#: (at its peak an HDAF call holds about 140 bytes a weight, Erfc-Log 105).
_WEIGHT_BATCH_ENTRIES = 2**13

#: A trace is dense, and its Euler rows come from one re-expansion, when
#: N_max^2 <= _DENSE_RATIO * sum(N + 1): about the cost of a weight table
#: entry with its product and sum over that of one N_max^2 unit of the
#: re-expansion.
_DENSE_RATIO = 64

#: Terms per block of the blocked prefix sums of a re-expansion.
_PREFIX_BLOCK = 64

#: Largest degree whose coefficients a series keeps (``FourierSeries``):
#: its table holds 4097 coefficients and 2049 totals, 82 KB.  It is the
#: bound of the kept Euler tables (``filters._KEPT_TABLE_MAX_M``), above
#: the top degree of every sweep and comparison at the sizes they run;
#: a larger degree, as in a sweep near n_max = 2,000,000, keeps nothing.
_KEPT_MAX_N = 2048


@dataclass(frozen=True)
class FourierSeries:
    """A two-sided Fourier series sum c_n exp(inx) with period 2*pi.

    ``coeff(ns)`` takes an int or an integer ndarray of indices with
    |n| <= n_max and returns c_n with the same shape (a complex for an
    int); a constant callable such as ``lambda n: 1.0`` is broadcast to
    the index array.  ``coeff`` must be a pure function of n: the series
    keeps the c_n it computed (``coefficients``) and never calls it again
    for them.  ``exact_eval`` is the optional closed form of the
    summed function, used as ground truth in error measurements.
    ``singularities`` defaults to the empty set, and the adaptive filters
    then measure the distance from 0.  ``n_max`` is a degree, checked by
    the degree rule (``filters._checked_degree``) on construction.
    General periods are out of scope; rescale the argument to 2*pi first.
    """

    coeff: Callable[[int | np.ndarray], complex | np.ndarray]
    n_max: int
    exact_eval: Callable[[float], complex] | None = None
    singularities: SingularitySet = SingularitySet()
    # the kept table: empty, or [c_{-T..T}, running totals 0..T] at the
    # largest degree T <= _KEPT_MAX_N asked for, both read-only; not an
    # init field, so ``dataclasses.replace`` starts a series empty
    _kept: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _checked_degree(self.n_max)

    def coefficients(self, N: int) -> np.ndarray:
        """c_n for n = -N..N as a read-only complex array of length 2N+1.

        The one check of a degree against the series: N passes the degree
        rule (``filters._checked_degree``: TypeError for 2.5, True or
        [3], ValueError for -1 or 2^53) and then N <= n_max, else
        ValueError, before ``np.arange`` builds any array.  Up to
        ``_KEPT_MAX_N`` the result is a slice of the kept table, built by
        one ``coeff`` call at the largest degree asked for so far, so a
        smaller degree calls nothing; beyond it every call computes its
        coefficients afresh and keeps nothing.  Both are the same
        elementwise closed form, so each c_n has the same bits either way.
        """
        if (N := self._checked(N)) > _KEPT_MAX_N:
            return self._generate(N)
        c = self._kept_table(N)[0]
        top = len(c) // 2
        return c[top - N : top + N + 1]

    def _checked(self, N) -> int:
        """N after the degree rule and the bound N <= n_max."""
        if (N := _checked_degree(N)) > self.n_max:
            raise ValueError(f"truncation degree {N} outside [0, n_max={self.n_max}]")
        return N

    def _generate(self, N: int) -> np.ndarray:
        """c_{-N..N} from one ``coeff`` call, read-only (a view, so an
        array that ``coeff`` returns as it is stays writeable)."""
        ns = np.arange(-N, N + 1)
        c = np.asarray(self.coeff(ns), dtype=complex)
        c = c.view() if c.shape == ns.shape else np.broadcast_to(c, ns.shape)
        c.flags.writeable = False
        return c

    def _kept_table(self, N: int) -> list:
        """The kept table, rebuilt at N when it stops short of N."""
        if not self._kept or len(self._kept[1]) <= N:
            c = self._generate(N)
            self._kept[:] = c, _running_totals(np.abs(c))
        return self._kept

    def _totals(self, N: int) -> np.ndarray:
        """|c_0| + sum_{1<=n<=k} (|c_n| + |c_-n|) for k = 0..N at least,
        read-only, checked as ``coefficients``: the kept totals up to
        ``_KEPT_MAX_N``, fresh ones beyond it."""
        if (N := self._checked(N)) > _KEPT_MAX_N:
            return _running_totals(np.abs(self._generate(N)))
        return self._kept_table(N)[1]

    def folded(self, x: float, N: int) -> np.ndarray:
        """The one-sided terms a_0 = c_0, a_n = c_n e^{inx} + c_-n e^{-inx}.

        The partial sum over |n| <= N at x is sum a_n for n = 0..N, and a
        filter with weights sigma(|n|) gives sum sigma(n) a_n.  The phases
        take x reduced exactly into [-pi, pi] (``math.remainder``), so a
        large |x| loses no accuracy.  Raises ValueError for a non-finite
        x, and, as ``coefficients`` does, TypeError or ValueError for an N
        that is not a degree or is beyond n_max.
        """
        if not math.isfinite(x):
            raise ValueError(f"x={x} is not finite")
        c = self.coefficients(N)  # c[N + n] = c_n
        phase = np.exp(1j * np.arange(N + 1) * math.remainder(x, math.tau))
        a = c[N:] * phase + c[N::-1] * phase.conj()
        a[0] = c[N]
        return a

    def real_singularity_distance(self, x: float) -> float:
        """Periodic distance from x to the declared real singularity.

        Falls back to the standard-form convention (singularity at 0)
        when none is declared; adaptive filters use this distance for
        their spatially varying parameters.
        """
        d = self.singularities.real_distance(x)
        return periodic_distance(x, 0.0) if d is None else d


def filtered_partial_sum(
    series: FourierSeries, x: float, N: int, spec: FilterSpec
) -> complex:
    """Filtered partial sum sum sigma(|n|) c_n exp(inx) over |n| <= N.

    Summed over the N+1 folded terms (``folded``) by the same path as
    every row of ``trace_errors``: sum sigma(n) a_n over the row's band
    lo..hi (``filters.weight_bands``) plus the plain sum of a_0..a_{lo-1}.
    A row whose band is the whole row is exactly sum sigma(n) a_n; a
    narrower Erfc-Log or HDAF row differs from it by at most
    2^-60*sum|a_n| plus rounding.  Raises ValueError for a non-finite x
    (``rates.periodic_distance``).

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
    (inner; a list of degrees as the ``filters`` module docstring states,
    checked by ``filters._checked_degrees`` before the fold), every one a
    prefix of a single fold at the largest N: Euler rows of a dense trace
    from one re-expansion, every other row from weight tables."""
    degrees = _checked_degrees(degrees)
    x_dist = series.real_singularity_distance(x)
    a = series.folded(x, degrees[-1])
    dense = len(degrees) > 1 and degrees[-1] ** 2 <= _DENSE_RATIO * (
        sum(degrees) + len(degrees)
    )
    return [
        _euler_prefix_sums(a, degrees)
        if dense and spec.kind == "euler"
        else _table_sums(spec, a, degrees, x_dist)
        for spec in specs
    ]


def _table_sums(
    spec: FilterSpec, a: np.ndarray, degrees: list[int], x_dist: float
) -> list[complex]:
    """The sums at each N in degrees from weight tables.  Each row reads
    only its band lo..hi (``weight_bands``): one ``filter_weights`` call
    per batch of bands, and each row the pairwise sum of a_0..a_{lo-1}
    (none when lo = 0) plus the pairwise sum of its weights times
    a_lo..a_hi."""
    los, his = weight_bands(spec, degrees, x_dist)
    add = np.add.reduce  # ndarray.sum's pairwise sum, without its wrapper
    sums = []
    for rows in _weight_batches([hi - lo + 1 for lo, hi in zip(los, his)]):
        weights = filter_weights(spec, degrees[rows], x_dist, (los[rows], his[rows]))
        start = 0
        for lo, hi in zip(los[rows], his[rows]):
            end = start + hi - lo + 1
            total = add(weights[start:end] * a[lo : hi + 1])
            sums.append(total + add(a[:lo]) if lo else total)
            start = end
    return np.array(sums).tolist()


def _euler_prefix_sums(a: np.ndarray, degrees: list[int]) -> list[complex]:
    """The Euler sums at each N in degrees, b_0 + ... + b_N with b the
    Möbius(2) re-expansion of a, from blocked prefix sums of b."""
    b = mobius_reexpand(a, 2.0)
    blocks = np.zeros(-(-b.size // _PREFIX_BLOCK) * _PREFIX_BLOCK, dtype=complex)
    blocks[: b.size] = b  # not np.pad, which costs more than the prefix sums
    blocks = blocks.reshape(-1, _PREFIX_BLOCK)
    inside = np.cumsum(blocks, axis=1)
    before = np.zeros(len(blocks), dtype=complex)  # sum of the earlier blocks
    np.cumsum(blocks.sum(axis=1)[:-1], out=before[1:])
    block, offset = np.divmod(np.array(degrees), _PREFIX_BLOCK)
    return (before[block] + inside[block, offset]).tolist()


def _weight_batches(sizes: list[int]) -> list[slice]:
    """Consecutive runs of rows, as slices of the row list, whose sizes
    add up to at most _WEIGHT_BATCH_ENTRIES weights; a row larger than
    that is a batch of its own."""
    starts = []
    size = _WEIGHT_BATCH_ENTRIES
    for row, n in enumerate(sizes):
        if size + n > _WEIGHT_BATCH_ENTRIES:
            starts.append(row)
            size = 0
        size += n
    return [slice(*ends) for ends in zip(starts, starts[1:] + [len(sizes)])]


def trace_errors(
    series: FourierSeries, x: float, degrees: list[int], specs: list[FilterSpec]
) -> list[list[float]]:
    """|f(x) - filtered partial sum| for each spec (outer) and N (inner).

    The coefficients are folded once, at the largest N, and each N sums
    the prefix a_0..a_N of that fold (see the module docstring for the
    two routes): every error is bit-identical to ``pointwise_error`` at
    that N, except the Euler rows of a dense trace, which agree with it
    to well within a saturation floor.  ``degrees`` is a list of degrees
    as the ``filters`` module docstring states.  Raises ValueError when
    the series has no exact evaluator, when x is not finite or is a
    declared real singularity, when ``degrees`` breaks that rule, or when
    the top degree is beyond n_max (``FourierSeries.coefficients``), each
    before any array is built.
    """
    if series.exact_eval is None:
        raise ValueError("series has no exact evaluator")
    if series.singularities.real_distance(x) == 0.0:  # raises for a non-finite x
        raise ValueError(f"x={x} is a declared real singularity")
    sums = _filtered_sums(series, x, degrees, specs)  # checks x and degrees
    exact = complex(series.exact_eval(math.remainder(x, math.tau)))
    return [[abs(exact - value) for value in row] for row in sums]


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
    a degree, giving a float, or a list of degrees (the ``filters``
    module docstring), giving an array of their floors.  Each indexes
    the running totals |c_0| + sum_{1<=n<=N} (|c_n| + |c_-n|), a
    sequential cumulative sum that the series keeps with its coefficient
    table (``FourierSeries.coefficients``), so a floor costs no
    coefficient call once the table reaches the top degree; above
    ``_KEPT_MAX_N`` the totals are summed afresh from one call.  Raises
    the TypeError or ValueError of ``filters._checked_degrees``, and that
    of ``FourierSeries.coefficients`` for a degree beyond n_max.
    """
    totals = series._totals(_checked_degrees(N)[-1])
    # index by N as an array: a tuple index would select several axes
    floors = 100.0 * np.finfo(float).eps * totals[np.asarray(N)]
    return float(floors) if floors.ndim == 0 else floors


def _running_totals(mag: np.ndarray) -> np.ndarray:
    """|c_0| + sum_{1<=n<=k} (|c_n| + |c_-n|) for k = 0..N, read-only, from
    mag[N + n] = |c_n|: a sequential cumulative sum, so the totals of a
    smaller degree are a prefix of these, bit for bit."""
    top = len(mag) // 2
    pairs = mag[top + 1 :] + mag[:top][::-1]  # |c_n| + |c_-n|, n = 1..top
    totals = mag[top] + np.concatenate(([0.0], np.cumsum(pairs)))
    totals.flags.writeable = False
    return totals
