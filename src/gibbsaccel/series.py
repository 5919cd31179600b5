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
above ``filters._KEPT_TABLE_MAX_M`` = 2048, the bound of the kept Euler
tables and above the top degree of every sweep and comparison at the
sizes they run, keep nothing (the table at 2048 holds 4097 coefficients
and 2049 totals, 82 KB): each such call computes its coefficients
afresh, so a sweep near n_max = 2,000,000 holds no table of that size
after it returns.  A kept c_n has the bits of a fresh call
at any degree, so no output depends on what was asked for before.

A sum is folded onto the one-sided terms a_n = c_n e^{inx} +
c_-n e^{-inx}, n = 0..N (``FourierSeries.folded``), weighted, and reduced
over those N+1 terms with numpy's pairwise summation: the rounding error
is about log2(N+1)*eps*sum|c_n|, below the saturation floor of
100*eps*sum|c_n|, and results are bit-identical from run to run with the
same numpy build.  A real function has c_-n == conj(c_n), and then every
a_n is real: the series finds, once per kept table, the degree through
which that holds, and up to it the fold is float64 and every sum, prefix
sum and re-expansion after it runs in real arithmetic, at half the
memory and about half the time of complex128.  Every catalog entry but
``log2`` (c_1 = 1, c_-1 = 0) is such a series at every degree; any
other series folds and sums in complex128.

A trace of degrees at one x (``trace_errors``) folds once, at its top
degree, and each N sums the prefix a_0..a_N of that fold: the folded
terms do not depend on N.  The Euler sum at N is also b_0 + ... + b_N,
with b the Möbius(2) re-expansion of the fold, whose b_m reads only
a_0..a_m.  A filter's rows take one of three routes.

* Declared terms (every Euler row of a series that declares
  ``euler_terms``, as every catalog entry does; one-degree sums and
  traces alike): b_0..b_N at the top degree from the closed form, O(N)
  rather than the O(N^2) of a re-expansion, and each row a blocked
  prefix sum of them.  The fold is built only when another filter of
  the call needs it.  Each b_m, and so each row, has the same bits
  whatever the top degree, so every row equals ``pointwise_error``'s sum
  at its N bit for bit.
* Weight tables (Erfc-Log, HDAF and identity rows; the Euler rows of a
  series without declared terms in one-degree sums and sparse traces):
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
* One re-expansion (the Euler rows of a dense trace of a series without
  declared terms): b is ``filters.mobius_reexpand`` of the fold at the
  top degree, and its prefix sums give every row.  A trace is dense
  when it has more than one row and N_max^2 <= 128 * sum(N + 1).  The
  rule weighs the re-expansion of a real fold, about 0.16 ns * N_max^2
  (0.41 ms at N = 1600, 92 us at 800, 41 us at 400), with the block rows
  of the Möbius(2) table kept across calls, against cold Euler tables,
  about 20 us a row plus 20 ns an entry with their product and sum:
  every CLI command is a fresh process, and the cache of tables holds
  256 degrees, which a sweep of a few hundred distinct degrees misses.
  A trace whose tables are warm, as a sweep's 16 degrees 100..1600/100
  repeated over many x (ratio 188), costs about a third of that and
  stays on the tables.  These rows agree with the per-N sum to well
  within a saturation floor, not bit for bit; the same degree reads the
  same value from every dense trace.

The prefix sums of b are blocked, a running sum inside each 64-block
plus a running sum of the pairwise block totals, so the rounding error
grows with 64 + N/64 terms rather than N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .filters import _KEPT_TABLE_MAX_M, FilterSpec, _checked_degree, _checked_degrees
from .filters import filter_weights, mobius_reexpand, weight_bands
from .rates import SingularitySet, periodic_distance

#: Weights per batched ``filter_weights`` call; bounds the batch's memory
#: (at its peak an HDAF call holds about 140 bytes a weight, Erfc-Log 105).
_WEIGHT_BATCH_ENTRIES = 2**13

#: A trace is dense, and its Euler rows come from one re-expansion, when
#: N_max^2 <= _DENSE_RATIO * sum(N + 1): about the cost of a cold weight
#: table entry with its product and sum (20 ns) over that of one N_max^2
#: unit of a real re-expansion (0.16 ns).
_DENSE_RATIO = 128

#: Terms per block of the blocked prefix sums of a re-expansion.
_PREFIX_BLOCK = 64

@dataclass(frozen=True)
class FourierSeries:
    """A two-sided Fourier series sum c_n exp(inx) with period 2*pi.

    ``coeff(ns)`` takes an int or an integer ndarray of indices with
    |n| <= n_max and returns c_n with the same shape (a complex for an
    int); a constant callable such as ``lambda n: 1.0`` is broadcast to
    the index array.  ``coeff`` must be a pure function of n: the series
    keeps the c_n it computed (``coefficients``), with the degree through
    which c_-n == conj(c_n) (``folded``), and never calls it again for
    them.  ``exact_eval`` is the optional closed form of the
    summed function, used as ground truth in error measurements.
    ``singularities`` defaults to the empty set, and the adaptive filters
    then measure the distance from 0.  ``n_max`` is a degree, checked by
    the degree rule (``filters._checked_degree``) on construction.
    ``euler_terms(x, N)``, optional, returns b_0..b_N of the Möbius(2)
    re-expansion of the fold at x (``filters.mobius_reexpand`` of
    ``folded(x, N)``, up to rounding) in the fold's dtype, each b_m the
    same bits for every N >= m; it is called with x reduced into
    [-pi, pi] and N checked, and every Euler sum of the series is a
    prefix sum of it (module docstring).  It belongs to ``coeff``: a
    ``dataclasses.replace`` with another ``coeff`` must replace it too.
    General periods are out of scope; rescale the argument to 2*pi first.
    """

    coeff: Callable[[int | np.ndarray], complex | np.ndarray]
    n_max: int
    exact_eval: Callable[[float], complex] | None = None
    singularities: SingularitySet = SingularitySet()
    euler_terms: Callable[[float, int], np.ndarray] | None = None
    # the kept table: empty, or [c_{-T..T}, running totals 0..T, the degree
    # through which c_-n == conj(c_n)] at the largest degree T <=
    # _KEPT_TABLE_MAX_M asked for, the arrays read-only; not an init field,
    # so ``dataclasses.replace`` starts a series empty
    _kept: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _checked_degree(self.n_max)

    def coefficients(self, N: int) -> np.ndarray:
        """c_n for n = -N..N as a read-only complex array of length 2N+1.

        The one check of a degree against the series: N passes the degree
        rule (``filters._checked_degree``: TypeError for 2.5, True or
        [3], ValueError for -1 or 2^53) and then N <= n_max, else
        ValueError, before ``np.arange`` builds any array.  Up to
        ``_KEPT_TABLE_MAX_M`` the result is a slice of the kept table, built by
        one ``coeff`` call at the largest degree asked for so far, so a
        smaller degree calls nothing; beyond it every call computes its
        coefficients afresh and keeps nothing.  Both are the same
        elementwise closed form, so each c_n has the same bits either way.
        """
        if (N := self._checked(N)) > _KEPT_TABLE_MAX_M:
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
            self._kept[:] = c, _running_totals(np.abs(c)), _symmetric_through(c)
        return self._kept

    def _totals(self, N: int) -> np.ndarray:
        """|c_0| + sum_{1<=n<=k} (|c_n| + |c_-n|) for k = 0..N at least,
        read-only, checked as ``coefficients``: the kept totals up to
        ``_KEPT_TABLE_MAX_M``, fresh ones beyond it."""
        if (N := self._checked(N)) > _KEPT_TABLE_MAX_M:
            return _running_totals(np.abs(self._generate(N)))
        return self._kept_table(N)[1]

    def folded(self, x: float, N: int) -> np.ndarray:
        """The one-sided terms a_0 = c_0, a_n = c_n e^{inx} + c_-n e^{-inx}.

        The partial sum over |n| <= N at x is sum a_n for n = 0..N, and a
        filter with weights sigma(|n|) gives sum sigma(n) a_n.  The phases
        take x reduced exactly into [-pi, pi] (``math.remainder``), so a
        large |x| loses no accuracy.  When c_-n == conj(c_n) for every
        n <= N (a real function, as every catalog entry but ``log2``),
        the terms are real and come back as float64, a_0 = Re c_0 and
        a_n = 2 Re(c_n e^{inx}): each the real part of the complex fold,
        whose imaginary part is exactly zero (a zero's sign aside).  Any
        other series folds in complex128.  Raises ValueError for a
        non-finite x, and, as ``coefficients`` does, TypeError or
        ValueError for an N that is not a degree or is beyond n_max.
        """
        if not math.isfinite(x):
            raise ValueError(f"x={x} is not finite")
        c = self.coefficients(N)  # c[N + n] = c_n
        N = len(c) // 2
        phase = np.exp(1j * np.arange(N + 1) * math.remainder(x, math.tau))
        if N <= (self._kept[2] if N <= _KEPT_TABLE_MAX_M else _symmetric_through(c)):
            a = (c[N:] * phase).real * 2.0
            a[0] = c[N].real
            return a
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
) -> float | complex:
    """Filtered partial sum sum sigma(|n|) c_n exp(inx) over |n| <= N.

    Summed by the same path as every row of ``trace_errors``: for Euler
    on a series with declared terms (``FourierSeries.euler_terms``), the
    blocked sum of b_0..b_N; else over the N+1 folded terms (``folded``),
    sum sigma(n) a_n over the row's band lo..hi
    (``filters.weight_bands``) plus the plain sum of a_0..a_{lo-1}.
    A float when the fold is real (c_-n == conj(c_n) for every n <= N),
    else a complex.
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
) -> list[list[float | complex]]:
    """``filtered_partial_sum`` for each spec (outer) and each N in degrees
    (inner; a list of degrees as the ``filters`` module docstring states,
    checked by ``filters._checked_degrees`` first, then x and the top
    degree as ``folded`` checks them), every one a prefix at the largest
    N: Euler rows from the declared terms when the series has them, else
    from one re-expansion of the fold in a dense trace, and every other
    row from weight tables on the fold (module docstring)."""
    degrees = _checked_degrees(degrees)
    x_dist = series.real_singularity_distance(x)  # raises for a non-finite x
    top = series._checked(degrees[-1])
    kinds = {spec.kind for spec in specs}
    declared = "euler" in kinds and series.euler_terms is not None
    a = None if declared and kinds == {"euler"} else series.folded(x, top)
    if declared:
        b = series.euler_terms(math.remainder(x, math.tau), top)
    elif "euler" in kinds and len(degrees) > 1 and top**2 <= _DENSE_RATIO * (
        sum(degrees) + len(degrees)
    ):
        b = mobius_reexpand(a, 2.0)
    else:
        b = None
    return [
        _prefix_sums(b, degrees)
        if b is not None and spec.kind == "euler"
        else _table_sums(spec, a, degrees, x_dist)
        for spec in specs
    ]


def _table_sums(
    spec: FilterSpec, a: np.ndarray, degrees: list[int], x_dist: float
) -> list[float | complex]:
    """The sums at each N in degrees from weight tables, in a's dtype.  Each row reads
    only its band lo..hi (``weight_bands``): one ``filter_weights`` call
    per batch of bands, and each row the pairwise sum of a_0..a_{lo-1}
    (none when lo = 0) plus the pairwise sum of its weights times
    a_lo..a_hi."""
    los, his = weight_bands(spec, degrees, x_dist)
    # each batch goes on as a list, which bench/tracing.py records as JSON,
    # not as the range that a slice of a sweep's range would be
    degrees = list(degrees)
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


def _prefix_sums(b: np.ndarray, degrees: list[int]) -> list[float | complex]:
    """The Euler sums at each N in degrees, b_0 + ... + b_N with b the
    Möbius(2) re-expansion of the fold, from blocked prefix sums of b, in
    b's dtype."""
    blocks = np.zeros(-(-b.size // _PREFIX_BLOCK) * _PREFIX_BLOCK, dtype=b.dtype)
    blocks[: b.size] = b  # not np.pad, which costs more than the prefix sums
    blocks = blocks.reshape(-1, _PREFIX_BLOCK)
    inside = np.cumsum(blocks, axis=1).ravel()  # inside[N]: its block up to N
    before = np.zeros(len(blocks), dtype=b.dtype)  # sum of the earlier blocks
    np.cumsum(blocks.sum(axis=1)[:-1], out=before[1:])
    if type(degrees) is range:  # np.arange is quicker than np.array of a range
        ns = np.arange(degrees.start, degrees.stop, degrees.step)
    else:
        ns = np.array(degrees)
    return (before[ns // _PREFIX_BLOCK] + inside[ns]).tolist()


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

    Each N sums a prefix of one set of terms at the largest N: the
    declared Euler terms, or the fold (see the module docstring for the
    three routes).  Every error is bit-identical to ``pointwise_error`` at
    that N, except the Euler rows of a dense trace of a series without
    declared terms, which agree with it to well within a saturation
    floor.  ``degrees`` is a list of degrees
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
    ``_KEPT_TABLE_MAX_M`` the totals are summed afresh from one call.  Raises
    the TypeError or ValueError of ``filters._checked_degrees``, and that
    of ``FourierSeries.coefficients`` for a degree beyond n_max.
    """
    degrees = _checked_degrees(N)
    totals = series._totals(degrees[-1])
    # a range reads its totals as a slice, anything else indexes them as an
    # array: a tuple index would select several axes
    index = slice(N.start, N.stop, N.step) if type(degrees) is range else np.asarray(N)
    floors = 100.0 * np.finfo(float).eps * totals[index]
    return float(floors) if floors.ndim == 0 else floors


def _symmetric_through(c: np.ndarray) -> int:
    """The largest K <= N such that c_-n == conj(c_n) for every n <= K, of
    c = c_{-N..N}; -1 when c_0 is not real.  One compare of c_0..c_N with
    conj(c_0..c_-N), whose temporaries hold N+1 entries each."""
    top = len(c) // 2
    differ = np.flatnonzero(c[top:] != c[top::-1].conj())
    return int(differ[0]) - 1 if differ.size else top


def _running_totals(mag: np.ndarray) -> np.ndarray:
    """|c_0| + sum_{1<=n<=k} (|c_n| + |c_-n|) for k = 0..N, read-only, from
    mag[N + n] = |c_n|: a sequential cumulative sum, so the totals of a
    smaller degree are a prefix of these, bit for bit."""
    top = len(mag) // 2
    pairs = mag[top + 1 :] + mag[:top][::-1]  # |c_n| + |c_-n|, n = 1..top
    totals = mag[top] + np.concatenate(([0.0], np.cumsum(pairs)))
    totals.flags.writeable = False
    return totals
