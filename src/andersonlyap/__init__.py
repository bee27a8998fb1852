"""Second-order Lyapunov exponents of the hyperbolic and parabolic
Anderson models driven by spatially homogeneous Gaussian noise.

The package computes the exponential growth rate of E|u(t,x)|^2 for the
stochastic wave and heat equations with multiplicative noise, through
three mutually cross-checking routes: chaos-expansion Monte Carlo, a
Brownian-path oracle for the same moments, and the closed-form
exponents built on the variational constant rho.
"""

from .asymptotics import (
    LyapunovReport,
    RieszHeat,
    at_growth,
    beta0_power_law,
    beta0_solve,
    lambda2_closed_form,
    mittag_leffler,
)
from .brownian import tn_bm_oracle
from .chaos import (
    ChaosQuery,
    exact_moment,
    jn_exp_time_mc,
    jn_fixed_time,
    log_rate_tn,
    scaling_exponent,
    t1_exact,
    wave_heat_factor,
)
from .errors import ConvergenceError, ParameterError
from .mc import MCEstimate
from .propagators import (
    EquationKind,
    fourier_green_sq,
    laplace_green_sq,
    wave_heat_link_residual,
)
from .spectral import KernelSpec, c_h, dalang_check, riesz_constant
from .variational import (
    FunctionalValues,
    RhoEstimate,
    functionals_from_rho,
    remark14_residual,
    rho_eigen,
)
from .verify import run_verification

__version__ = "0.1.0"

__all__ = [
    "ChaosQuery",
    "ConvergenceError",
    "EquationKind",
    "FunctionalValues",
    "KernelSpec",
    "LyapunovReport",
    "MCEstimate",
    "ParameterError",
    "RhoEstimate",
    "RieszHeat",
    "at_growth",
    "beta0_power_law",
    "beta0_solve",
    "c_h",
    "dalang_check",
    "exact_moment",
    "fourier_green_sq",
    "functionals_from_rho",
    "jn_exp_time_mc",
    "jn_fixed_time",
    "lambda2_closed_form",
    "laplace_green_sq",
    "log_rate_tn",
    "mittag_leffler",
    "remark14_residual",
    "rho_eigen",
    "riesz_constant",
    "run_verification",
    "scaling_exponent",
    "t1_exact",
    "tn_bm_oracle",
    "wave_heat_factor",
    "wave_heat_link_residual",
    "__version__",
]
