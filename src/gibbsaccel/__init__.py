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

Each name is imported from its module (``from gibbsaccel.rates import
rho_of_x``); the package root itself holds only ``__version__``.
"""

__version__ = "0.1.0"
