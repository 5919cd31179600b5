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

Every entry declares its Euler terms too (``FourierSeries.euler_terms``):
the Möbius(2) re-expansion b_0..b_N of its fold at x in closed form, in
O(N), from two pieces.  A log term (``_log_term``) is the re-expansion
of -log(1 - z e^{ix}) or -log(1 + z e^{ix}) ("sws", "log2"), and a pole
pair (``_pole_pair``) that of 1 + sum (q^n + conj(q)^n) z^n ("delta",
"lorentzian"); "sws+lorentzian" is the sum of its two parts' terms.
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


def _log_modulus(square: float, rest: float) -> float:
    """log|u| from |u|^2 and 1 - |u|^2, each a sum of nonnegative terms:
    by log1p near |u| = 1, as ``rates.rho_of_x`` forms q, and by log near
    0, so it is good to a few ulps either way; -inf at u = 0."""
    if rest < 0.5:
        return 0.5 * math.log1p(-rest)
    return 0.5 * math.log(square) if square else -math.inf


def _log_term(theta: float, N: int, sign: float = 1.0) -> tuple:
    """|u|^m / m and m theta/2 for m = 1..N, u = (1 + sign e^{i theta})/2:
    the Möbius(2) re-expansion of -log(1 - sign z e^{i theta}), the sum of
    sign^n (z e^{i theta})^n / n over n >= 1, for sign = +-1 and
    |theta| <= pi.

    Under z = w/(2-w), 1 - sign z e^{i theta} = (1 - wu)/(1 - w/2), so
    b_0 = 0 and b_m = (u^m - 2^-m)/m, and the 2^-m/m cancel in a real
    function's conjugate pair.  u = r e^{i theta/2} with r = cos(theta/2)
    >= 0 for sign 1, so u^m = |u|^m e^{i m theta/2}, and u = -i r
    e^{i theta/2} with r = sin(theta/2) for sign -1, so u^m carries the
    factor (-i sgn theta)^m too, which the caller takes exactly: no
    rounded pi enters the angle.  |u|^m is exp(m log|u|)
    (``_log_modulus``, with 1 - r^2 the square of the other half-angle
    function): a power of the rounded |u| would carry m times its
    rounding.
    """
    half = theta / 2.0
    if sign > 0:
        r, rest = math.cos(half), math.sin(half)
    else:
        r, rest = math.sin(half), math.cos(half)
    log_abs = _log_modulus(r * r, rest * rest)
    m = np.arange(1.0, N + 1.0)
    return np.exp(m * log_abs) / m, m * half


def _pole_pair(p: float, theta: float, N: int) -> np.ndarray:
    """b_0..b_N of the Möbius(2) re-expansion of the fold of c_n = p^|n|
    e^{-in phi} at x = phi + theta, 1 + sum_{n>=1} (q^n + conj(q)^n) z^n
    with q = p e^{i theta}, 0 < p <= 1 and |theta| <= pi, as a float64
    array.

    Under z = w/(2-w), 1/(1 - zq) = (1 - w/2)/(1 - wu) with u = (1+q)/2,
    so b_0 = 1 and b_m = Re(q u^(m-1)) = p |u|^(m-1) cos(theta + (m-1) arg u).
    1 + q = e^{i theta/2} ((1+p) cos(theta/2) - i(1-p) sin(theta/2)), so
    |u|^2 and 1 - |u|^2 = ((1-p)(3+p) + 4p sin^2(theta/2))/4 are sums of
    nonnegative terms (``_log_modulus``), each power as in ``_log_term``;
    arg u is theta/2 exactly at p = 1.  |u| > 0, as cos(theta/2) > 0 for
    a float |theta| <= pi, so the power at m - 1 = 0 is 1.
    """
    s, c = math.sin(theta / 2.0), math.cos(theta / 2.0)
    square = ((1.0 + p) ** 2 * c * c + (1.0 - p) ** 2 * s * s) / 4.0
    rest = ((1.0 - p) * (3.0 + p) + 4.0 * p * s * s) / 4.0
    log_abs = _log_modulus(square, rest)
    arg = theta / 2.0 - math.atan2((1.0 - p) * s, (1.0 + p) * c)
    k = np.arange(float(N))
    b = np.empty(N + 1)
    b[0] = 1.0
    b[1:] = p * np.exp(k * log_abs) * np.cos(theta + k * arg)
    return b


def sws_euler_terms(x: float, N: int) -> np.ndarray:
    """The Möbius(2) re-expansion of the sawtooth's fold at x in [-pi, pi]:
    its inflated series is i log(1 - z e^{-ix}) - i log(1 - z e^{ix}),
    so b_m = i(u^m - conj(u)^m)/m = -2 |u|^m sin(mx/2)/m (``_log_term``)."""
    size, angle = _log_term(x, N)
    b = np.zeros(N + 1)
    b[1:] = -2.0 * size * np.sin(angle)
    return b


def delta_euler_terms(x: float, N: int) -> np.ndarray:
    """The Möbius(2) re-expansion of the periodized delta's fold at x in
    [-pi, pi]: the pole pair of ``_pole_pair`` at p = 1."""
    return _pole_pair(1.0, x, N)


def log2_euler_terms(x: float, N: int) -> np.ndarray:
    """The Möbius(2) re-expansion of the fold of ``log2_coeff`` at x in
    [-pi, pi], log(1 + z e^{ix}): minus the ``_log_term`` of sign -1,
    b_m = (2^-m - u^m)/m, with u^m's factor (-i sgn x)^m a power of -i
    taken by its exponent mod 4.  Complex, as the fold is, but at N = 0,
    where the fold is the real c_0 = 0 and so is b_0."""
    if N == 0:
        return np.zeros(1)
    size, angle = _log_term(x, N, -1.0)
    m = np.arange(1, N + 1)
    b = np.zeros(N + 1, dtype=complex)
    b.real[1:] = size * np.cos(angle)
    b.imag[1:] = size * np.sin(angle)
    b[1:] *= np.array([-1.0, 1j, 1.0, -1j])[m * (1 if x > 0 else 3) % 4]
    b.real[1:] += np.ldexp(1.0 / m, -m)
    return b


def _check_p(p: float) -> None:
    if not 0.0 < p < 1.0:
        raise ValueError(f"pole depth parameter p={p} outside (0, 1)")


@dataclass(frozen=True)
class TestFunction:
    """A closed-form test function wrapping its Fourier series."""

    series: FourierSeries


def make_sws(n_max: int = DEFAULT_N_MAX) -> TestFunction:
    jump = SingularitySet(real_singularity=0.0)
    return TestFunction(FourierSeries(sws_coeff, n_max, sws, jump, sws_euler_terms))


def make_delta(n_max: int = DEFAULT_N_MAX) -> TestFunction:
    # the summed distribution vanishes away from the singularity, so the
    # exact evaluator is identically zero on the sweepable domain; its
    # inflated series, the sum of (z e^(ix))^n, has a simple pole: alpha 0
    pole = SingularitySet(real_singularity=0.0, real_alpha=0.0)
    return TestFunction(FourierSeries(
        delta_coeff, n_max, lambda x: 0.0 + 0j, pole, delta_euler_terms
    ))


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

    def euler_terms(x: float, N: int) -> np.ndarray:
        return _pole_pair(p, math.remainder(x - phi, math.tau), N)

    poles = SingularitySet(off_axis=(Singularity(phi, -math.log(p)),))
    return TestFunction(FourierSeries(coeff, n_max, value, poles, euler_terms))


def make_composite(p: float = 0.5, n_max: int = DEFAULT_N_MAX) -> TestFunction:
    """Sawtooth plus the phase-pi pole of ``make_lorentzian`` (poles on
    Re x = pi), summed coefficient by coefficient."""
    pole = make_lorentzian(p, math.pi, n_max).series
    return TestFunction(FourierSeries(
        lambda n: sws_coeff(n) + pole.coeff(n),
        n_max,
        lambda x: sws(x) + pole.exact_eval(x),
        SingularitySet(0.0, off_axis=pole.singularities.off_axis),
        lambda x, N: sws_euler_terms(x, N) + pole.euler_terms(x, N),
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
        log2_euler_terms,
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
