"""Closed-form test functions with exact Fourier coefficients.

Every entry pairs a closed-form evaluator with its exact coefficient
generator and a declared singularity set, so measured truncation errors
and predicted convergence rates can be compared without any numerical
coefficient estimation.  Addressable from the CLI through ``get_function``
by the keys "sws", "delta", "lorentzian", "sws+lorentzian" and "log2".

Each coefficient generator takes an int n, returning a complex, or an
integer ndarray of indices, returning the complex array of c_n of the
same shape.  Ints take a plain-Python path, so per-term callers stay
cheap.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .conformal import PowerSeries
from .rates import Singularity, SingularitySet
from .series import FourierSeries

_TWO_PI = 2.0 * math.pi

DEFAULT_N_MAX = 2_000_000

FUNCTION_KEYS = ("sws", "delta", "lorentzian", "sws+lorentzian", "log2")


def sws(x: float) -> float:
    """Shifted sawtooth: x reduced mod 2*pi into [0, 2*pi), minus pi.

    Jumps at x = 0 (mod 2*pi); the value exactly at the jump is defined
    as the right limit -pi (the series itself converges to the mean 0
    there, which is why error sweeps exclude the jump).
    """
    r = math.fmod(x, _TWO_PI)
    if r < 0:
        r += _TWO_PI
    return r - math.pi


def _is_index(n) -> bool:
    """Whether n is a single integer index rather than an index array."""
    return isinstance(n, (int, np.integer))


def _reciprocal(ns: np.ndarray) -> np.ndarray:
    """1/n, with 0 at n = 0."""
    return np.divide(1.0, ns, out=np.zeros(np.shape(ns)), where=ns != 0)


def sws_coeff(n):
    """Exponential-form coefficients of the sawtooth sine series: c_n = i/n."""
    if _is_index(n):
        return 1j / n if n else 0j
    return 1j * _reciprocal(np.asarray(n))


def lorentzian(x: float, p: float, phi: float = 0.0) -> float:
    """Periodized simple pole (1-p^2)/((1+p^2) - 2p cos(x-phi)), 0 < p < 1.

    Peaks at (1+p)/(1-p) for x = phi, troughs at (1-p)/(1+p) opposite,
    and is singularity-free on the real axis; its poles sit at
    x = phi +- i*tau (mod 2*pi) with tau = -log(p).
    """
    _check_p(p)
    return (1.0 - p * p) / ((1.0 + p * p) - 2.0 * p * math.cos(x - phi))


def lorentzian_coeff(n, p: float, phi: float = 0.0):
    """Coefficients p^|n| exp(-i n phi); c_0 = 1."""
    _check_p(p)
    if _is_index(n):
        return p ** abs(n) * cmath.exp(-1j * n * phi)
    n = np.asarray(n)
    return p ** np.abs(n) * np.exp(-1j * n * phi)


def delta_coeff(n):
    """Periodized delta: every coefficient is 1."""
    if _is_index(n):
        return 1.0 + 0j
    return np.ones(np.shape(n), dtype=complex)


def composite_value(x: float, p: float) -> float:
    """Sawtooth plus periodized pole with phase pi (poles on Re x = pi)."""
    return sws(x) + lorentzian(x, p, math.pi)


def composite_coeff(n, p: float):
    """Coefficient-wise sum of the sawtooth and phase-pi pole series."""
    return sws_coeff(n) + lorentzian_coeff(n, p, math.pi)


def log2_coeff(n):
    """Alternating harmonic coefficients (-1)^(n+1)/n for n >= 1, else 0."""
    if _is_index(n):
        return complex((-1.0) ** (n + 1) / n) if n > 0 else 0j
    n = np.asarray(n)
    sign = np.where(n % 2 == 1, 1.0, -1.0)
    return (np.where(n > 0, sign, 0.0) * _reciprocal(n)).astype(complex)


def log2_series(n_max: int = 64) -> PowerSeries:
    """The alternating series for log(2): a_n = (-1)^(n+1)/n, a_0 = 0.

    Its inflated form is log(1+z), singular at z = -1, so the plain
    partial sums converge only like 1/N while the re-summed series gains
    a geometric factor of 2 (or 3 with the balanced map).
    """
    return PowerSeries(log2_coeff(np.arange(n_max + 1)))


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"pole depth parameter p={p} outside (0, 1)")


def _conjugate_pair(sigma: float, tau: float) -> tuple[Singularity, Singularity]:
    return (Singularity(sigma, tau), Singularity(sigma, -tau))


@dataclass(frozen=True)
class TestFunction:
    """A named closed-form test function wrapping its Fourier series."""

    name: str
    series: FourierSeries


def make_sws(n_max: int = DEFAULT_N_MAX) -> TestFunction:
    return TestFunction(
        "sws",
        FourierSeries(
            coeff=sws_coeff,
            n_max=n_max,
            exact_eval=sws,
            singularities=SingularitySet(real_singularity=0.0),
            real_valued=True,
        ),
    )


def make_delta(n_max: int = DEFAULT_N_MAX) -> TestFunction:
    # the summed distribution vanishes away from the singularity, so the
    # exact evaluator is identically zero on the sweepable domain
    return TestFunction(
        "delta",
        FourierSeries(
            coeff=delta_coeff,
            n_max=n_max,
            exact_eval=lambda x: 0.0 + 0j,
            singularities=SingularitySet(real_singularity=0.0),
            real_valued=True,
        ),
    )


def make_lorentzian(
    p: float = math.exp(-0.2), phi: float = math.pi, n_max: int = DEFAULT_N_MAX
) -> TestFunction:
    _check_p(p)
    if not math.isfinite(phi):
        raise ValueError(f"pole phase phi={phi} is not finite")
    tau = -math.log(p)
    return TestFunction(
        "lorentzian",
        FourierSeries(
            coeff=lambda n: lorentzian_coeff(n, p, phi),
            n_max=n_max,
            exact_eval=lambda x: lorentzian(x, p, phi),
            singularities=SingularitySet(
                real_singularity=None, off_axis=_conjugate_pair(phi, tau)
            ),
            real_valued=True,
        ),
    )


def make_composite(p: float = 0.5, n_max: int = DEFAULT_N_MAX) -> TestFunction:
    _check_p(p)
    tau = -math.log(p)
    return TestFunction(
        "sws+lorentzian",
        FourierSeries(
            coeff=lambda n: composite_coeff(n, p),
            n_max=n_max,
            exact_eval=lambda x: composite_value(x, p),
            singularities=SingularitySet(
                real_singularity=0.0, off_axis=_conjugate_pair(math.pi, tau)
            ),
            real_valued=True,
        ),
    )


def make_log2(n_max: int = DEFAULT_N_MAX) -> TestFunction:
    """log(2) as the Fourier series of log(1 + exp(ix)) evaluated at x = 0.

    The coefficients are the alternating-harmonic terms for n >= 1, so
    the filtered partial sum at x = 0 is exactly the accelerated plain
    sum; the function is singular on the real axis at x = pi.
    """

    def exact(x: float) -> complex:
        return cmath.log(1.0 + cmath.exp(1j * x))

    return TestFunction(
        "log2",
        FourierSeries(
            coeff=log2_coeff,
            n_max=n_max,
            exact_eval=exact,
            singularities=SingularitySet(real_singularity=math.pi),
            real_valued=False,
        ),
    )


def get_function(
    key: str,
    p: float | None = None,
    phi: float | None = None,
    n_max: int = DEFAULT_N_MAX,
) -> TestFunction:
    """Look up a test function by registry key.

    ``p`` sets the pole depth of the Lorentzian-bearing entries (defaults:
    exp(-0.2) for "lorentzian", 0.5 for "sws+lorentzian"); ``phi`` sets
    the Lorentzian phase (default pi for "lorentzian").  Raises KeyError
    for an unknown key and ValueError for a p outside (0, 1) or a
    non-finite phi.
    """
    if key == "sws":
        return make_sws(n_max)
    if key == "delta":
        return make_delta(n_max)
    if key == "lorentzian":
        kwargs = {}
        if p is not None:
            kwargs["p"] = p
        if phi is not None:
            kwargs["phi"] = phi
        return make_lorentzian(n_max=n_max, **kwargs)
    if key == "sws+lorentzian":
        return make_composite(p if p is not None else 0.5, n_max)
    if key == "log2":
        return make_log2(n_max)
    raise KeyError(f"unknown function key {key!r}; expected one of {FUNCTION_KEYS}")
