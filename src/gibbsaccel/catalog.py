"""Closed-form test functions with exact Fourier coefficients.

Every entry pairs a closed-form evaluator with its exact coefficient
generator and a declared singularity set, so measured truncation errors
and predicted convergence rates can be compared without any numerical
coefficient estimation.  Addressable from the CLI through
``get_function`` by the keys "sws", "delta", "lorentzian",
"sws+lorentzian" and "log2".  Each set declares the power law alpha of
its real singularity too: 1 for the jumps of "sws" and "sws+lorentzian"
and the log branch of "log2", 0 for the pole of "delta".
The generators of the entries without parameters (``sws_coeff``,
``delta_coeff``, ``log2_coeff``) live at module level; a parametrized
entry checks its parameters once, in its factory, and binds the checked
values in its generator and closed form, so a per-term call checks
nothing (``make_lorentzian``; ``make_composite`` builds on it).

Each coefficient generator takes a Python int n, returning a complex,
or an integer ndarray of indices, returning the complex array of c_n of
the same shape.  It tests for an int first and returns the closed form
in plain Python, touching no numpy, so per-term callers stay cheap.
Anything else takes the array path: a numpy integer scalar is a 0-d
index and gets a 0-d result, bit-identical to its entry of the array.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .conformal import PowerSeries
from .filters import _checked_degree
from .rates import Singularity, SingularitySet
from .series import FourierSeries

DEFAULT_N_MAX = 2_000_000


def sws(x: float) -> float:
    """Shifted sawtooth: x reduced mod 2*pi into [0, 2*pi), minus pi.

    Jumps at x = 0 (mod 2*pi); the value exactly at the jump is defined
    as the right limit -pi (the series itself converges to the mean 0
    there, which is why error sweeps exclude the jump).  Python's float
    ``%`` is fmod shifted by 2*pi when negative, so a tiny negative x
    rounds up to pi; a NaN or infinite x gives NaN.
    """
    return x % math.tau - math.pi


def _reciprocal(ns: np.ndarray) -> np.ndarray:
    """1/n, with 0 at n = 0."""
    return np.divide(1.0, ns, out=np.zeros(np.shape(ns)), where=ns != 0)


def sws_coeff(n):
    """Exponential-form coefficients of the sawtooth sine series: c_n = i/n."""
    if type(n) is int:
        return 1j / n if n else 0j
    return 1j * _reciprocal(np.asarray(n))


def delta_coeff(n):
    """Periodized delta: every coefficient is 1."""
    if type(n) is int:
        return 1.0 + 0j
    return np.ones(np.shape(n), dtype=complex)


def log2_coeff(n):
    """Alternating harmonic coefficients (-1)^(n+1)/n for n >= 1, else 0."""
    if type(n) is int:
        # the sign from parity: +-1 is exact, so the quotient is (-1)^(n+1)/n;
        # adding 0j gives it a +0.0 imaginary part without a call
        return (1.0 if n & 1 else -1.0) / n + 0j if n > 0 else 0j
    n = np.asarray(n)
    sign = np.where(n % 2 == 1, 1.0, -1.0)
    return (np.where(n > 0, sign, 0.0) * _reciprocal(n)).astype(complex)


def log2_series(n_max: int = 64) -> PowerSeries:
    """The alternating series for log(2): a_n = (-1)^(n+1)/n, a_0 = 0.

    Its inflated form is log(1+z), singular at z = -1, so the plain
    partial sums converge only like 1/N while the re-summed series gains
    a geometric factor of 2 (or 3 with the balanced map).  ``n_max`` is
    checked by the degree rule (``filters._checked_degree``), so 2.5
    raises TypeError rather than building a degree-3 series.
    """
    return PowerSeries(log2_coeff(np.arange(_checked_degree(n_max) + 1)))


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"pole depth parameter p={p} outside (0, 1)")


@dataclass(frozen=True)
class TestFunction:
    """A closed-form test function wrapping its Fourier series."""

    series: FourierSeries


def make_sws(n_max: int = DEFAULT_N_MAX) -> TestFunction:
    jump = SingularitySet(real_singularity=0.0)
    return TestFunction(FourierSeries(sws_coeff, n_max, sws, jump))


def make_delta(n_max: int = DEFAULT_N_MAX) -> TestFunction:
    # the summed distribution vanishes away from the singularity, so the
    # exact evaluator is identically zero on the sweepable domain; its
    # inflated series, the sum of (z e^(ix))^n, has a simple pole: alpha 0
    pole = SingularitySet(real_singularity=0.0, real_alpha=0.0)
    return TestFunction(FourierSeries(delta_coeff, n_max, lambda x: 0.0 + 0j, pole))


def make_lorentzian(
    p: float = math.exp(-0.2), phi: float = math.pi, n_max: int = DEFAULT_N_MAX
) -> TestFunction:
    """Periodized simple pole (1-p^2)/((1+p^2) - 2p cos(x-phi)), 0 < p < 1.

    Its coefficients are p^|n| exp(-i n phi), with c_0 = 1.  It peaks at
    (1+p)/(1-p) for x = phi, troughs at (1-p)/(1+p) opposite, and is
    singularity-free on the real axis; its poles sit at x = phi +- i*tau
    (mod 2*pi) with tau = -log(p).  p and phi are checked here, once, and
    phi is reduced mod 2*pi; the coefficient generator and the closed
    form bind the checked values.
    """
    _check_p(p)
    if not math.isfinite(phi):
        raise ValueError(f"pole phase phi={phi} is not finite")
    phi = math.remainder(phi, math.tau)  # exact, as for x in ``folded``
    w = -1j * phi  # the int path's exponent is w*n, the bits of -1j*n*phi

    def coeff(n):
        if type(n) is int:
            return p ** abs(n) * cmath.exp(w * n)
        n = np.asarray(n)
        return p ** np.abs(n) * np.exp(-1j * n * phi)

    def value(x: float) -> float:
        return (1.0 - p * p) / ((1.0 + p * p) - 2.0 * p * math.cos(x - phi))

    poles = SingularitySet(off_axis=(Singularity(phi, -math.log(p)),))
    return TestFunction(FourierSeries(coeff, n_max, value, poles))


def make_composite(p: float = 0.5, n_max: int = DEFAULT_N_MAX) -> TestFunction:
    """Sawtooth plus the phase-pi pole of ``make_lorentzian`` (poles on
    Re x = pi), summed coefficient by coefficient."""
    pole = make_lorentzian(p, math.pi, n_max).series
    return TestFunction(FourierSeries(
        lambda n: sws_coeff(n) + pole.coeff(n),
        n_max,
        lambda x: sws(x) + pole.exact_eval(x),
        SingularitySet(0.0, off_axis=pole.singularities.off_axis),
    ))


def make_log2(n_max: int = DEFAULT_N_MAX) -> TestFunction:
    """log(2) as the Fourier series of log(1 + exp(ix)) evaluated at x = 0.

    The coefficients are the alternating-harmonic terms for n >= 1, so
    the filtered partial sum at x = 0 is exactly the accelerated plain
    sum; the function is singular on the real axis at x = pi.
    """
    return TestFunction(FourierSeries(
        log2_coeff,
        n_max,
        lambda x: cmath.log(1.0 + cmath.exp(1j * x)),
        SingularitySet(real_singularity=math.pi),
    ))


#: Registry key -> (factory, the parameters it takes).  Each default
#: lives in its factory.
_ENTRIES = {
    "sws": (make_sws, ()),
    "delta": (make_delta, ()),
    "lorentzian": (make_lorentzian, ("p", "phi")),
    "sws+lorentzian": (make_composite, ("p",)),
    "log2": (make_log2, ()),
}
FUNCTION_KEYS = tuple(_ENTRIES)


def get_function(
    key: str, p: float | None = None, phi: float | None = None
) -> TestFunction:
    """Look up a test function by registry key.

    ``p`` sets the pole depth of the Lorentzian-bearing entries and
    ``phi`` the phase of "lorentzian"; a value left as None takes the
    factory's default (``make_lorentzian``, ``make_composite``).  Equal
    arguments, by position or by keyword, return the identical frozen
    entry, so its series' kept coefficients (``FourierSeries.coefficients``)
    serve every later call; the last 16 entries asked for are kept.
    Raises KeyError for an unknown key and ValueError for a p outside
    (0, 1), a non-finite phi, or a p or phi given to an entry that has
    none, on every call: an error is never kept.
    """
    return _kept_entry(key, p, phi)


@lru_cache(maxsize=16)
def _kept_entry(key: str, p: float | None, phi: float | None) -> TestFunction:
    if key not in _ENTRIES:
        raise KeyError(f"unknown function key {key!r}; expected one of {FUNCTION_KEYS}")
    factory, takes = _ENTRIES[key]
    given = {name: v for name, v in (("p", p), ("phi", phi)) if v is not None}
    for name, what in (("p", "pole depth"), ("phi", "pole phase")):
        if name in given and name not in takes:
            raise ValueError(f"{key} has no {what} {name} (got {name}={given[name]})")
    return factory(**given)
