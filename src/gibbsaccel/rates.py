"""Predicted pointwise convergence rates from a declared singularity set.

The Euler-accelerated Fourier series of a function f converges at a real
point x like rho(x)^-N, where rho(x) is the distance from the origin to
the nearest singularity of the re-expanded power series.  Each singularity
x_j = sigma_j + i*tau_j of f contributes an image whose modulus is a
closed-form function of x; the map itself contributes a "metric"
singularity that caps rho at 2.  For a real singularity at distance d
the image is 1/cos(d/2), so the rate is q(x) = -log cos(d/2) below the cap.

The law is declared once, in ``_constraints``: the cap, then the real
image, then each off-axis image, as floats for one x or as arrays for an
array of x (``periodic_distance``, ``z_image`` and ``zeta_image_modulus``
take either).  ``rho_of_x`` takes the first minimum of that list at one
point; ``image_table`` stacks it over a grid and takes the first
``argmin`` (``rho_curve``, ``acceleration_penalty_region``), so the two
agree bit for bit.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, field

import numpy as np

_TWO_PI = 2.0 * math.pi

#: The re-summation map is singular at 2, capping every achievable rate.
METRIC_CAP = 2.0

#: ``image_table`` codes for the dominating constraint; an off-axis
#: singularity is coded by its index (>= 0) in ``SingularitySet.off_axis``.
DOMINATED_BY_METRIC = -2
DOMINATED_BY_REAL = -1
_NAMES = {DOMINATED_BY_METRIC: "metric", DOMINATED_BY_REAL: "real"}


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
    on the real axis.  Off-axis entries must have a finite sigma and a
    finite tau != 0 and, when ``conjugate_pairs`` is set (real-valued
    functions), occur in complex conjugate pairs.
    """

    real_singularity: float | None = None
    off_axis: tuple[Singularity, ...] = field(default=())
    conjugate_pairs: bool = True

    def __post_init__(self) -> None:
        if self.real_singularity is not None and not (
            -math.pi < self.real_singularity <= math.pi
        ):
            raise ValueError("real singularity must lie in (-pi, pi]")
        for s in self.off_axis:
            if not (math.isfinite(s.sigma) and math.isfinite(s.tau)):
                raise ValueError(f"singularity ({s.sigma}, {s.tau}) is not finite")
            if s.tau == 0.0:
                raise ValueError("off-axis singularities need tau != 0")
        if self.conjugate_pairs:
            locs = {(s.sigma, s.tau) for s in self.off_axis}
            for s in self.off_axis:
                if (s.sigma, -s.tau) not in locs:
                    raise ValueError(
                        f"missing conjugate partner for ({s.sigma}, {s.tau})"
                    )

    def real_distance(self, x):
        """Periodic distance from x (float or array) to the real singularity,
        or None if there is none."""
        if self.real_singularity is None:
            return None
        return periodic_distance(x, self.real_singularity)


def periodic_distance(x, x_s: float):
    """Distance from x (float or array) to x_s and its 2*pi copies."""
    d = (x - x_s) % _TWO_PI
    return min(d, _TWO_PI - d) if isinstance(d, float) else np.minimum(d, _TWO_PI - d)


@dataclass(frozen=True)
class RatePrediction:
    """Pointwise geometric convergence factor rho and rate q = log(rho).

    ``dominating`` names the binding constraint: "metric" for the cap
    introduced by the map, "real" for the on-axis singularity image, or
    the integer index into the off-axis list.  ``at_singularity`` marks
    the degenerate rho = 1 value at the singularity itself, where no
    pointwise acceleration is possible.
    """

    x: float
    rho: float
    q: float
    dominating: str | int
    at_singularity: bool = False


def z_image(sing: tuple[float, float], x):
    """Image (modulus, angle) in the inflated-series plane of a singularity.

    A singularity at sigma + i*tau of the function maps, for real x (a
    float or an array), to modulus exp(|tau|) at angle sigma - x
    (tau < 0) or x - sigma (tau >= 0); the two members of the on-axis
    pair (tau = 0) share the modulus 1, so a single signed angle is
    returned.
    """
    sigma, tau = sing
    return math.exp(abs(tau)), sigma - x if tau < 0 else x - sigma


def zeta_image_modulus(r: float, theta):
    """Modulus of the mapped image of a singularity at r*exp(i*theta).

    Returns 2r/sqrt(1 + r^2 + 2r cos(theta)), a float for a float theta
    and an array for an array.  The denominator vanishes only at r = 1,
    theta = pi, where the image escapes to infinity: the value there is
    ``math.inf`` (such an image never limits the convergence rate).
    """
    if r < 1.0:
        raise ValueError("singularity modulus r must be >= 1")
    denom_sq = 1.0 + r * r + 2.0 * r * np.cos(theta)
    with np.errstate(divide="ignore"):
        image = 2.0 * r / np.sqrt(denom_sq)
    return float(image) if image.ndim == 0 else image


def _constraints(sings: SingularitySet, x) -> list[tuple[int, float]]:
    """Every bound on rho at x (float or array) with its ``dominating`` code.

    In order: the metric cap, the real image (inf at d = pi), then each
    off-axis image.  A minimum over the list that keeps the first of
    equal values is the law.  At x = x_s the real image is exactly 1,
    below the cap, and no off-axis image is below 1, so it binds there.
    """
    bounds = [(DOMINATED_BY_METRIC, METRIC_CAP)]
    if sings.real_singularity is not None:
        image = zeta_image_modulus(1.0, sings.real_distance(x))
        bounds.append((DOMINATED_BY_REAL, image))
    for j, s in enumerate(sings.off_axis):
        bounds.append((j, zeta_image_modulus(*z_image((s.sigma, s.tau), x))))
    return bounds


def rho_of_x(sings: SingularitySet, x: float) -> RatePrediction:
    """Predicted convergence factor at x: the smallest singularity image.

    rho is the first minimum of the metric cap 2 and every singularity
    image modulus (``_constraints``); any branch structure (for example
    the crossover of the on-axis image through the cap at |x| = 2*pi/3
    when no other singularity interferes) emerges from the minimum.
    """
    code, rho = min(_constraints(sings, x), key=operator.itemgetter(1))
    return RatePrediction(
        x=x,
        rho=rho,
        q=math.log(rho),
        dominating=_NAMES.get(code, code),
        at_singularity=sings.real_distance(x) == 0.0,
    )


def delta_truncation_error(x: float, N: int) -> complex:
    """Exact Euler-accelerated truncation error of the periodized delta.

    The accelerated series of sum_n exp(inx) is the re-expansion of
    (1 - w/2) * sum_n ((u+)^n + (u-)^n) w^n - 1 with u+- = (1+exp(+-ix))/2;
    chopping it after the w^N term and evaluating at w = 1 leaves the tail

        u+^N * (exp(ix)/2) / (1 - u+)  +  u-^N * (exp(-ix)/2) / (1 - u-).

    (A frequently quoted two-term form with exponent N+1 and numerator
    u^{N+1} drops the cross term of the (1 - w/2) factor and does not
    reproduce the filtered sum for general N; this one is exact.)
    """
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
    raw geometric factor of the unaccelerated series *because of an
    off-axis singularity image*; slowdowns caused purely by the metric
    cap are not attributed to the declared poles.
    """

    x: float
    rho_euler: float
    rho_raw: float
    flagged: bool


def x_grid(resolution: int) -> np.ndarray:
    """``resolution`` uniform points on [-pi, pi], ends included."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    return -math.pi + _TWO_PI * np.arange(resolution) / (resolution - 1)


def image_table(
    sings: SingularitySet, xs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """``rho_of_x`` over an array of x: (rho, dominating, images).

    ``dominating`` holds ``DOMINATED_BY_METRIC``, ``DOMINATED_BY_REAL`` or
    the off-axis index, as ``RatePrediction.dominating`` names them;
    ``images`` holds one array per declared singularity, the real one
    first: ``zeta_image_modulus`` of its image (inf at the real image's
    pole d = pi).  Both read ``_constraints``, so every value is
    bit-identical to ``rho_of_x`` at that x.
    """
    xs = np.asarray(xs, dtype=float)
    codes, bounds = zip(*_constraints(sings, xs))
    table = np.stack(np.broadcast_arrays(xs, *bounds)[1:])
    return table.min(axis=0), np.array(codes)[table.argmin(axis=0)], list(table[1:])


def penalty_flags(
    sings: SingularitySet, rho: np.ndarray, dominating: np.ndarray
) -> tuple[float, np.ndarray]:
    """The acceleration-penalty rule over an ``image_table`` of a set with
    at least one off-axis singularity.

    Returns the raw factor exp(min|tau|) of the unaccelerated series and
    a flag per point: rho is below it *and* an off-axis image dominates,
    so slowdowns caused purely by the metric cap are not attributed to
    the declared poles.
    """
    rho_raw = math.exp(min(abs(s.tau) for s in sings.off_axis))
    return rho_raw, (rho < rho_raw) & (dominating >= 0)


def acceleration_penalty_region(
    sings: SingularitySet, resolution: int
) -> list[PenaltySample]:
    """Scan [-pi, pi] for subintervals where acceleration slows convergence.

    The unaccelerated series of a function whose nearest singularity sits
    a distance tau off the real axis converges with factor exp(min|tau|)
    at every x; the accelerated factor rho(x) can dip below that near the
    real part of the poles (``penalty_flags``).
    """
    if not sings.off_axis:
        raise ValueError("penalty scan needs at least one off-axis singularity")
    xs = x_grid(resolution)
    rho, dominating, _ = image_table(sings, xs)
    rho_raw, flagged = penalty_flags(sings, rho, dominating)
    return [
        PenaltySample(x, r, rho_raw, f)
        for x, r, f in zip(xs.tolist(), rho.tolist(), flagged.tolist())
    ]
