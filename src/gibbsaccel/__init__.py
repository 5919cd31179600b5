"""Acceleration of slowly converging Fourier series with point singularities.

Truncated Fourier series of functions with a jump (or worse) on the real
axis converge only like O(1/N).  Re-summing the series through a Möbius
map of an auxiliary variable -- equivalently, applying the classical Euler
filter weights -- restores a pointwise geometric error exp(-q(x)·N) away
from the singularity, with a rate q(x) that is predictable from the
locations of the singularities of the function in the complex plane.

The package provides:

* ``series``    -- two-sided Fourier series, raw and filtered partial sums;
* ``filters``   -- Euler, Erfc-Log and HDAF filter weights;
* ``conformal`` -- the power-series engine: re-expansion under a Möbius
  map, the accelerated sum, radius estimation;
* ``rates``     -- predicted pointwise convergence factor from a declared
  singularity set;
* ``catalog``   -- closed-form test functions with exact coefficients;
* ``sweeps``    -- error sweeps, envelope fitting and CSV output;
* ``cli``       -- the experiment command line.
"""

from .conformal import (
    MOBIUS2,
    MobiusMap,
    PowerSeries,
    accelerate_sum,
    estimate_radius,
    euler_equivalence_check,
    recoefficient,
)
from .filters import (
    FilterSpec,
    erfclog_order,
    erfclog_sigma,
    euler_mu,
    euler_sigma,
    filter_weights,
    hdaf_sigma,
)
from .rates import (
    RatePrediction,
    Singularity,
    SingularitySet,
    acceleration_penalty_region,
    delta_truncation_error,
    rho_of_x,
    z_image,
    zeta_image_modulus,
)
from .series import (
    FourierSeries,
    filtered_partial_sum,
    partial_sum,
    pointwise_error,
    trace_errors,
)

__all__ = [
    "FilterSpec",
    "FourierSeries",
    "MOBIUS2",
    "MobiusMap",
    "PowerSeries",
    "RatePrediction",
    "Singularity",
    "SingularitySet",
    "accelerate_sum",
    "acceleration_penalty_region",
    "delta_truncation_error",
    "erfclog_order",
    "erfclog_sigma",
    "estimate_radius",
    "euler_equivalence_check",
    "euler_mu",
    "euler_sigma",
    "filter_weights",
    "filtered_partial_sum",
    "hdaf_sigma",
    "partial_sum",
    "pointwise_error",
    "recoefficient",
    "rho_of_x",
    "trace_errors",
    "z_image",
    "zeta_image_modulus",
]

__version__ = "0.1.0"
