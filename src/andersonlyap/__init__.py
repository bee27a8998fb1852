"""Second-order Lyapunov exponents of the hyperbolic and parabolic
Anderson models driven by spatially homogeneous Gaussian noise.

The package computes the exponential growth rate of E|u(t,x)|^2 for the
stochastic wave and heat equations with multiplicative noise, through
three mutually cross-checking routes: chaos-expansion Monte Carlo, a
Brownian-path oracle for the same moments, and the closed-form
exponents built on the variational constant rho.

Public names load on first use (PEP 562): ``import andersonlyap``
imports no submodule, and a closed-form name loads no numpy.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("LyapunovReport", "at_growth", "lambda2_closed_form",
                     "mittag_leffler", "remark14_residual",
                     "scaling_exponent", "wave_heat_factor"), "asymptotics"),
    "tn_bm_oracle": "brownian",
    **dict.fromkeys(("ChaosQuery", "exact_moment", "jn_exp_time_mc",
                     "jn_fixed_time", "log_rate_tn"), "chaos"),
    **dict.fromkeys(("ConvergenceError", "ParameterError"), "errors"),
    "MCEstimate": "mc",
    **dict.fromkeys(("fourier_green_sq", "laplace_green_sq"), "propagators"),
    **dict.fromkeys(("EquationKind", "KernelSpec", "c_h", "dalang_check",
                     "riesz_constant", "t1_exact"), "spectral"),
    **dict.fromkeys(("RhoEstimate", "rho_eigen"), "variational"),
    "run_verification": "verify",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
