"""Predicted pointwise convergence rates from a declared singularity set.

The Euler-accelerated Fourier series of a function f converges at a real
point x like rho(x)^-N, where rho(x) is the distance from the origin to
the nearest singularity of the re-expanded power series.  Each singularity
x_j = sigma_j + i*tau_j of f contributes an image whose modulus is a
closed-form function of x; its conjugate sigma_j - i*tau_j lands at the
same modulus, so one declaration stands for the pair and is evaluated
once.  The map itself contributes a "metric" singularity that caps rho
at 2.  For a real singularity at distance d the image is 1/cos(d/2), so
the rate is q(x) = -log cos(d/2) below the cap.  Near the singularity
cos(d/2) rounds to 1 (for d below about 2e-8), so that q is taken as
-log1p(-2 sin^2(d/4)), which has no cancellation; every other q is
log(rho).

The error at x then behaves like e^(-qN)/N^alpha, where the power alpha
belongs to the binding singularity: 1 for a jump or a log branch point,
0 for a pole.  The real singularity declares its own
(``SingularitySet.real_alpha``); an off-axis pole has alpha = 0, and the
cap alpha = 1, from the log branch at infinity of ``log2``, the one
catalog entry whose inflated function is singular there.

The law is declared once, in ``_constraints``: the cap, then the real
image, then each off-axis image, each named by its ``rho`` CSV column
(``"cap"``, ``"zeta_real"``, ``"zeta_off<j>"``) and with its alpha, as
floats for one x or as arrays for an array of x (``periodic_distance``
and ``zeta_image_modulus`` take either), with the distance d to the
real singularity that the real image read.  ``rho_of_x`` takes the first
minimum of that list at one point, names the bound that binds and reads
q from that same d; ``image_table`` stacks it over a grid and takes the
minimum (``rho_curve``, ``acceleration_penalty_region``), so the two
agree bit for bit.

The measured rate is fitted here too, by ``fit_rate``: one least-squares
fit of log A - q*n - alpha*log n to the upper hull of a log-magnitude
sequence, for error traces (``sweeps.fit_envelope``) and re-expanded
coefficients (``conformal.estimate_radius``) alike.  With two or three
columns the fit is solved in closed form on centred columns (one
Gram-Schmidt step for a fitted alpha), not by a general solver.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .filters import _checked_degree

#: The re-summation map is singular at 2, capping every achievable rate.
METRIC_CAP = 2.0

#: The largest |tau| whose modulus r = e^|tau| still has a finite square
#: r*r in ``zeta_image_modulus``; the image of a deeper pole,
#: 2r/sqrt(1 + r^2 + 2r cos(theta)), is 2 to double precision.
_MAX_TAU = 0.5 * math.log(np.finfo(float).max)


@dataclass(frozen=True)
class Singularity:
    """One singularity location sigma + i*tau of the summed function."""

    sigma: float
    tau: float


@dataclass(frozen=True)
class SingularitySet:
    """Declared singularities of a 2*pi-periodic function.

    ``real_singularity`` is the location of the (at most one) singularity
    on the real axis in (-pi, pi]; ``None`` declares the function regular
    on the real axis.  ``real_alpha`` is its power law: the error where
    its image binds falls like e^(-qN)/N^real_alpha, 1 (the default) for
    a jump or a log branch point, 0 for a pole; a negative or non-finite
    value raises ValueError.  Each ``off_axis`` entry, with a finite sigma
    and a finite tau != 0, stands for the conjugate pair sigma +- i*tau:
    both members have the same image modulus, so declaring one of them
    (or both, which changes no rho) is enough.  A complex-valued function's
    lone pole is declared the same way.  A |tau| whose e^(2|tau|)
    overflows (above about 354.89) raises ValueError: its image would
    overflow, and it equals the cap to double precision anyway.
    """

    real_singularity: float | None = None
    off_axis: tuple[Singularity, ...] = field(default=())
    real_alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.real_singularity is not None and not (
            -math.pi < self.real_singularity <= math.pi
        ):
            raise ValueError("real singularity must lie in (-pi, pi]")
        if not 0.0 <= self.real_alpha < math.inf:
            raise ValueError(f"real_alpha={self.real_alpha} is not finite and >= 0")
        for s in self.off_axis:
            if not (math.isfinite(s.sigma) and math.isfinite(s.tau)):
                raise ValueError(f"singularity ({s.sigma}, {s.tau}) is not finite")
            if s.tau == 0.0:
                raise ValueError("off-axis singularities need tau != 0")
            if abs(s.tau) > _MAX_TAU:
                raise ValueError(f"tau={s.tau}: image overflows; it is the cap 2")

    def real_distance(self, x):
        """Periodic distance from x (float or array) to the real singularity,
        or None if there is none."""
        if self.real_singularity is None:
            return None
        return periodic_distance(x, self.real_singularity)


def periodic_distance(x, x_s: float):
    """Distance from x (float or array) to x_s and its 2*pi copies.

    Exact for the difference x - x_s: its fmod by 2*pi and the reflection
    2*pi - d are both exact (Sterbenz), on either side of x_s, and a
    float and the same entry of an array give the same bits.  A
    non-finite x has no distance and raises ValueError; every filtered
    sum and ``delta_truncation_error`` read x through here first.
    """
    diff = x - x_s
    if isinstance(diff, float) and not math.isfinite(diff):  # _constraints checks arrays
        raise ValueError(f"x={x} is not finite")
    fmod, least = (math.fmod, min) if isinstance(diff, float) else (np.fmod, np.minimum)
    d = abs(fmod(diff, math.tau))
    return least(d, math.tau - d)


@dataclass(frozen=True)
class RatePrediction:
    """Pointwise geometric convergence factor rho and rate q = log(rho).

    Where the real image binds, q = -log cos(d/2) is computed from the
    distance d as -log1p(-2 sin^2(d/4)), not from the rounded rho: it
    stays positive and accurate to a few ulps as d -> 0, where rho
    rounds to 1.  ``dominating`` names the binding bound by its ``rho``
    CSV column: ``"cap"`` for the cap introduced by the map,
    ``"zeta_real"`` for the on-axis singularity image, or
    ``"zeta_off<j>"`` for entry j of the off-axis list.  ``alpha`` is the
    power law of that constraint: the error falls like e^(-qN)/N^alpha.
    At the real singularity itself rho = 1 and q = 0: no pointwise
    acceleration is possible.
    """

    rho: float
    q: float
    dominating: str
    alpha: float


def zeta_image_modulus(r: float, theta):
    """Modulus of the mapped image of a singularity at r*exp(i*theta).

    Returns 2r/sqrt(1 + r^2 + 2r cos(theta)), a float for a float theta
    and an array for an array.  The denominator vanishes only at r = 1,
    theta = pi, where the image escapes to infinity: the value there is
    ``math.inf`` (such an image never limits the convergence rate).  A
    float takes that pole as a plain zero test, an array under
    ``np.errstate``; both divide the same denominator, so an array entry
    is bit-identical to the float call.
    """
    if r < 1.0:
        raise ValueError("singularity modulus r must be >= 1")
    denom = np.sqrt(1.0 + r * r + 2.0 * r * np.cos(theta))
    if denom.ndim == 0:
        return 2.0 * r / float(denom) if denom else math.inf
    with np.errstate(divide="ignore"):
        return 2.0 * r / denom


def _constraints(sings: SingularitySet, x) -> tuple[list, float | None]:
    """Every bound on rho at x (float or array): its name (its ``rho``
    CSV column), the bound and its alpha; and the distance d from x to the
    real singularity, None when there is none, which the real image reads
    and ``rho_of_x`` reads again for q.

    In order: the metric cap, the real image (inf at d = pi), then each
    off-axis image.  A minimum over the list that keeps the first of
    equal values is the law.  At x = x_s the real image is exactly 1,
    below the cap, and no off-axis image is below 1, so it binds there.
    Raises ValueError for a non-finite x, where no image is defined.
    """
    if not (math.isfinite(x) if isinstance(x, float) else np.isfinite(x).all()):
        raise ValueError("x must be finite")
    # the cap's alpha is 1, from log2's log branch at infinity
    bounds = [("cap", METRIC_CAP, 1.0)]
    if (d := sings.real_distance(x)) is not None:
        bounds.append(("zeta_real", zeta_image_modulus(1.0, d), sings.real_alpha))
    # sigma + i*tau maps to modulus e^|tau| at angle +-(x - sigma); the
    # modulus reads the angle only through cos, so its sign never matters;
    # each is a simple pole, alpha 0
    for j, s in enumerate(sings.off_axis):
        image = zeta_image_modulus(math.exp(abs(s.tau)), x - s.sigma)
        bounds.append((f"zeta_off{j}", image, 0.0))
    return bounds, d


def rho_of_x(sings: SingularitySet, x: float) -> RatePrediction:
    """Predicted convergence factor at x: the smallest singularity image.

    rho is the first minimum of the metric cap 2 and every singularity
    image modulus (``_constraints``); any branch structure (for example
    the crossover of the on-axis image through the cap at |x| = 2*pi/3
    when no other singularity interferes) emerges from the minimum.
    """
    bounds, d = _constraints(sings, x)
    name, rho, alpha = min(bounds, key=operator.itemgetter(1))
    if name == "zeta_real":  # cos(d/2) = 1 - 2 sin^2(d/4)
        q = -math.log1p(-2.0 * math.sin(d / 4.0) ** 2)
    else:
        q = math.log(rho)
    return RatePrediction(rho, q, name, alpha)


def delta_truncation_error(x: float, N: int) -> complex:
    """Exact Euler-accelerated truncation error of the periodized delta.

    The accelerated series of sum_n exp(inx) is the re-expansion of
    (1 - w/2) * sum_n ((u+)^n + (u-)^n) w^n - 1 with u+- = (1+exp(+-ix))/2;
    chopping it after the w^N term and evaluating at w = 1 leaves the tail

        u+^N * (exp(ix)/2) / (1 - u+)  +  u-^N * (exp(-ix)/2) / (1 - u-).

    (A frequently quoted two-term form with exponent N+1 and numerator
    u^{N+1} drops the cross term of the (1 - w/2) factor and does not
    reproduce the filtered sum for general N; this one is exact.)
    N is checked by the degree rule (``filters._checked_degree``):
    TypeError for 2.5, True or [3], ValueError for -1 or 2^53.
    """
    _checked_degree(N)
    if periodic_distance(x, 0.0) == 0.0:
        raise ValueError("truncation error is singular at x = 0 (mod 2*pi)")
    err = 0j
    for sign in (1.0, -1.0):
        phase = cmath.exp(sign * 1j * x)
        u = (1.0 + phase) / 2.0
        err += u**N * (phase / 2.0) / (1.0 - u)
    return err


@dataclass(frozen=True)
class PenaltySample:
    """One grid point of an acceleration-penalty scan.

    ``flagged`` marks points where the accelerated factor is below the
    raw series' own factor (1 with a real singularity), capped at 2:
    there Euler's sum converges more slowly than the truncated series,
    except where a jump's terms cancel (the sawtooth's at x = +-pi,
    ``penalty_flags``).
    """

    x: float
    rho_euler: float
    flagged: bool


def x_grid(resolution: int) -> np.ndarray:
    """``resolution`` uniform points on [-pi, pi], ends included.  Raises
    TypeError for a resolution that is not an integer (2.5) and
    ValueError for one below 2."""
    if operator.index(resolution) < 2:
        raise ValueError("resolution must be >= 2")
    return -math.pi + math.tau * np.arange(resolution) / (resolution - 1)


def image_table(
    sings: SingularitySet, xs: np.ndarray
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """``rho_of_x`` over an array of x: (rho, images).

    ``images`` maps each declared singularity's ``rho`` CSV column name
    (``_constraints``), the real one first, to ``zeta_image_modulus`` of
    its image (inf at the real image's pole d = pi).  Both read
    ``_constraints``, so every value is bit-identical to ``rho_of_x`` at
    that x.
    """
    xs = np.asarray(xs, dtype=float)
    names, bounds, _ = zip(*_constraints(sings, xs)[0])
    table = np.stack(np.broadcast_arrays(xs, *bounds)[1:])
    return table.min(axis=0), dict(zip(names[1:], table[1:]))


def penalty_flags(sings: SingularitySet, rho: np.ndarray) -> np.ndarray:
    """The acceleration penalty over the rho of an ``image_table``.

    Returns a flag per point where rho is below the raw series' factor,
    capped at ``METRIC_CAP`` since no Euler rate passes 2.  The raw
    factor is 1 (an algebraic rate) when a real singularity is declared,
    else exp(min|tau|).  Without one, a flag therefore falls exactly where
    an off-axis image binds below exp(min|tau|); with one, nothing is
    flagged.  That law misses a jump whose terms cancel one by one: the
    sawtooth's -2 sin(n x)/n vanish at x = +-pi, where the raw series of
    ``sws+lorentzian`` converges at the pole's rate and Euler's does not.
    """
    real = sings.real_singularity is not None
    rho_raw = 1.0 if real else math.exp(min(abs(s.tau) for s in sings.off_axis))
    return rho < min(rho_raw, METRIC_CAP)


def acceleration_penalty_region(
    sings: SingularitySet, resolution: int
) -> list[PenaltySample]:
    """Scan [-pi, pi] for subintervals where acceleration slows convergence.

    Without a real singularity the unaccelerated series converges with
    factor exp(min|tau|) at every x, and the accelerated factor rho(x) can
    dip below that near the real part of the poles; with one the raw
    series is algebraic (factor 1) except where its terms cancel, as the
    sawtooth's do at x = +-pi (``penalty_flags``).
    """
    if not sings.off_axis:
        raise ValueError("penalty scan needs at least one off-axis singularity")
    xs = x_grid(resolution)
    rho = image_table(sings, xs)[0]
    samples = zip(xs.tolist(), rho.tolist(), penalty_flags(sings, rho).tolist())
    return [PenaltySample(x, r, f) for x, r, f in samples]


def fit_rate(ns, logs, alpha: float | None = None):
    """Fit log A - q*n - alpha*log n to the upper hull of (ns, logs).

    The hull keeps each point whose log value is the maximum of its own
    and every later one (a suffix maximum): the monotone-decreasing upper
    hull.  "Later" is in the order ns are given, which is n order only
    when they ascend; both callers pass them ascending
    (``sweeps.fit_envelope`` sorts its rows by N, and
    ``conformal.estimate_radius`` passes the orders from nonzero()).
    q (and alpha, when it is None) come from least squares on the
    hull points, solved in closed form on centred columns: with dn, dl
    and dy the hull's n, log n and logs less their means, a fitted alpha
    is -(r.s)/(r.r), where r and s are dl and dy with their dn components
    removed (Gram-Schmidt), and q = -dn.(dy + alpha dl)/(dn.dn); a given
    alpha is held fixed.  Taking the dn component out of dy too, though
    r.dy = r.s in exact arithmetic, keeps the rounding left in r.dn from
    reaching alpha (100 to 2000 times worse without it on near-collinear
    hulls, n = 50000..50050).  The logs are centred as well as n because
    dn sums to zero only up to rounding: an uncentred y would leak its
    mean, which is large where n is, into q.  log A is then raised until
    the model bounds every hull point.  ns and logs are 1-D arrays of the
    same length, and every n on the hull must be >= 1.  Returns (hull,
    log_a, q, alpha), with hull a boolean mask over ns; hull points at
    fewer than three distinct n determine no fit, and log_a, q and alpha
    are then NaN.
    """
    hull = logs == np.maximum.accumulate(logs[::-1])[::-1]
    if len(set(ns[hull].tolist())) < 3:
        return hull, math.nan, math.nan, math.nan
    n, log_n, y = ns[hull], np.log(ns[hull]), logs[hull]
    # sum / size, not mean(): numpy's mean costs microseconds more a call
    dn, dl, dy = (v - v.sum() / v.size for v in (n, log_n, y))
    nn = dn @ dn
    if alpha is None:
        r = dl - (dn @ dl) / nn * dn
        alpha = float(-(r @ (dy - (dn @ dy) / nn * dn)) / (r @ r))
    q = float(-(dn @ (dy + alpha * dl)) / nn)
    return hull, float((y + alpha * log_n + q * n).max()), q, alpha
