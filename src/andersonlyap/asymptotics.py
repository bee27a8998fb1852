"""Mittag-Leffler growth and the closed-form Lyapunov exponents.

The truncated second-moment series is controlled by sums of the form
sum_n (c t)^(a n) / Gamma(a n + 1) = E_a((c t)^a), whose exponential
growth rate in t is exactly c for a in (0, 4).  Matching that rate
against the fixed-point equation 4 * lambda(beta) = beta^2 converts the
family of perturbed heat growth rates lambda(beta) into the wave
exponent.  For Riesz coupling lambda(beta) = c beta^(-p) is a power
law, so the fixed point is beta0 = (4c)^(1/(p+2)) in closed form, and
the scaling algebra closes everything into explicit formulas:

    wave:  lambda_2 = (2^(1-alpha) rho)^(1/(3-alpha)),
    heat:  lambda_2 = rho^(2/(2-alpha)),

with the exponents adjusted for fractional dispersion.  The rho route,
the variational-functional route and (wave) the fixed point are all
computed in log space, exponentiating only the reported values, and
their agreement reported; the gap is algebraic, so it measures only
rounding, never model error.  E_a, too, is evaluated from log x.  The
chaos time-scaling law and the rho -> functional-value power laws (in
log space, read only by the report) live here too, and nothing here
imports numpy: the closed-form commands load only this layer.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional

from .errors import ConvergenceError, ParameterError
from .spectral import EquationKind, KernelSpec, require_admissible, t1_exact

__all__ = [
    "LyapunovReport",
    "mittag_leffler",
    "log_mittag_leffler",
    "at_growth",
    "lambda2_closed_form",
    "scaling_exponent",
    "wave_heat_factor",
    "remark14_residual",
]

# Branch handover: series for x^(1/a) <= 30, leading asymptotics above.
# At the threshold the dropped remainder (O(x^-2) against exp(30)) is
# far below double precision.
_LOG_SERIES_CUTOFF = math.log(30.0)
# The band needs about 90/a terms: every order a >= 1e-3 converges.
_SERIES_MAX_TERMS = 100_000
_SERIES_REL_STOP = 1e-17
# The logs of the least and the greatest normal double: the range rule of
# every value that leaves log space.
LOG_NORMAL_MIN = math.log(sys.float_info.min)
LOG_NORMAL_MAX = math.log(sys.float_info.max)


def range_error(what: str, log_value: float) -> ParameterError:
    """The error for ``what`` = exp(log_value) outside the normal doubles."""
    side = "below" if log_value < 0.0 else "beyond"
    return ParameterError(f"{what} is exp({log_value:.6g}), {side} the "
                          "double range")


def exp_normal(log_value: float, what: str) -> float:
    """exp(log_value) as a normal double, or ``range_error``."""
    if not LOG_NORMAL_MIN <= log_value <= LOG_NORMAL_MAX:
        raise range_error(what, log_value)
    return math.exp(log_value)


def _series_log_ml(a: float, log_x: float) -> float:
    """log E_a(x) by direct summation of x^n / Gamma(a n + 1), from log x.

    Raises ConvergenceError (residual: the last term relative to the
    largest) when _SERIES_MAX_TERMS terms do not reach the stopping
    rule, which happens for tiny a, where the terms barely decay.
    """
    # terms are positive; sum in linear space scaled by the largest term
    log_terms = []
    log_max = -math.inf
    for n in range(_SERIES_MAX_TERMS):
        lt = n * log_x - math.lgamma(a * n + 1.0)
        log_terms.append(lt)
        log_max = max(log_max, lt)
        # past the peak the terms fall off super-geometrically
        if lt < log_max + math.log(_SERIES_REL_STOP):
            break
    else:
        raise ConvergenceError(
            f"the series for E_{a}({math.exp(log_x):.15g}) did not converge "
            f"in {_SERIES_MAX_TERMS} terms",
            math.exp(lt - log_max),
        )
    return log_max + math.log(math.fsum(math.exp(lt - log_max)
                                        for lt in log_terms))


def _asymptotic_log_ml(a: float, log_x: float) -> float:
    """log of (1/a) exp(x^(1/a)) - x^(-1)/Gamma(1-a) from log x, the two-term
    expansion valid for a in (0, 4) and large x (1/Gamma vanishes at the
    poles, so integer a loses the algebraic term exactly as it should)."""
    if not log_x / a <= LOG_NORMAL_MAX:
        raise ParameterError(f"log E_{a}(x) exceeds the double range at "
                             f"log x = {log_x!r}")
    root = math.exp(log_x / a)
    rgamma = 0.0 if a == int(a) else 1.0 / math.gamma(1.0 - a)
    # relative size of the algebraic term against the exponential one;
    # underflows cleanly to zero for large root
    corr = -a * rgamma * math.exp(-log_x - min(root, 745.0))
    return root - math.log(a) + math.log1p(corr)


def _log_ml(a: float, log_x: float) -> float:
    """log E_a(e^log_x): the series up to x^(1/a) = 30, asymptotics above."""
    if log_x / a <= _LOG_SERIES_CUTOFF:
        return _series_log_ml(a, log_x)
    return _asymptotic_log_ml(a, log_x)


def log_mittag_leffler(a: float, x: float) -> float:
    """log E_a(x) for a in (0, 4), x >= 0, safe against overflow."""
    if not 0.0 < a < 4.0:
        raise ParameterError(f"order a must lie in (0, 4), got {a}")
    if not 0.0 <= x < math.inf:
        raise ParameterError(f"argument must be nonnegative and finite, got {x}")
    if x == 0.0:
        return 0.0
    return _log_ml(a, math.log(x))


def mittag_leffler(a: float, x: float) -> float:
    """E_a(x) = sum x^n / Gamma(a n + 1); exponential-family special
    cases: E_1(x) = exp(x), E_2(x^2) = cosh(x)."""
    return exp_normal(log_mittag_leffler(a, x), f"E_{a}({x})")


def at_growth(a: float, c: float, t: float) -> float:
    """(1/t) log E_a((c t)^a), the finite-t growth rate whose t -> inf
    limit is c.  The deviation is |log a| / t plus exponentially small
    corrections."""
    if not (0.0 < a < 4.0 and 0.0 < c < math.inf and 0.0 < t < math.inf):
        raise ParameterError(
            f"need 0 < a < 4 and positive finite c, t; got a={a}, c={c}, t={t}"
        )
    return _log_ml(a, a * (math.log(c) + math.log(t))) / t


# ----------------------------------------------------------------------
# the fixed point 4 lambda(beta) = beta^2 of the perturbed heat rates
# ----------------------------------------------------------------------

def _log_beta0(log_c: float, p: float) -> float:
    """log of the root (4c)^(1/(p+2)) of 4 c beta^(-p) = beta^2; Riesz
    coupling has c = 2^(-p) e2 with p = 2/(2-alpha)."""
    return (math.log(4.0) + log_c) / (p + 2.0)


# ----------------------------------------------------------------------
# functional algebra
# ----------------------------------------------------------------------

def _log_functionals(alpha: float, rho: float) -> tuple:
    """(log e_a1, log e, log e2), finite even where the values are not:
    e_a1 = rho^(2/(2-alpha)) (unit coupling), e = 2^(-alpha/(alpha-2)) e_a1
    (half coupling) and e2 = 2^(-alpha/(2-alpha)) e (doubled variable)."""
    log2 = math.log(2.0)
    log_e_a1 = 2.0 * math.log(rho) / (2.0 - alpha)
    log_e = log_e_a1 - alpha / (alpha - 2.0) * log2
    log_e2 = log_e - alpha / (2.0 - alpha) * log2
    return log_e_a1, log_e, log_e2


# ----------------------------------------------------------------------
# the closed-form second-order exponents
# ----------------------------------------------------------------------

def scaling_exponent(eq: EquationKind, alpha_eff: float) -> float:
    """Power a in the time-scaling law J_n(t) = t^(a*n) * J_n(1).

    a = 3 - 2*alpha/beta_l for the wave equation and 1 - alpha/beta_l
    for the heat equation (3 - alpha and 1 - alpha/2 classically).
    """
    require_admissible(alpha_eff, eq.beta_l)
    if eq.is_wave:
        return 3.0 - 2.0 * alpha_eff / eq.beta_l
    return 1.0 - alpha_eff / eq.beta_l


def _wave_log2_factor(alpha_eff: float, beta_l: float = 2.0) -> float:
    """q = 1 - 2 alpha/beta_l: the log2 of the wave/heat moment ratio per
    chaos order, and the q in the wave log-rate gamma = log(2^q rho).
    Classical dispersion gives 1 - alpha; for beta_l < 2 the rescaling
    that absorbs the beta^2/4 rate into the weights pulls out
    2^(-2 alpha/beta_l) per chaos order instead of 2^(-alpha)."""
    return 1.0 - 2.0 * alpha_eff / beta_l


def wave_heat_factor(n: int, alpha_eff: float, beta_l: float = 2.0) -> float:
    """Exact ratio E[J_n^wave(tau)] / E[J_n^heat(tau)] = 2^(n(1-2a/b))."""
    return 2.0 ** (n * _wave_log2_factor(alpha_eff, beta_l))


@dataclass(frozen=True)
class LyapunovReport:
    """Everything the exponent computation produced, both routes."""

    eq: EquationKind
    kernel: KernelSpec
    a: float
    gamma: float
    rho: float
    lambda2_thm2: float
    lambda2_thm1: Optional[float] = None
    beta0: Optional[float] = None
    consistency_gap: Optional[float] = None
    e_gamma: Optional[float] = None  # the fractional family's input

    def to_dict(self) -> dict:
        out = {
            "eq": self.eq.kind,
            "beta_l": self.eq.beta_l,
            "kernel": self.kernel.to_config(),
            "alpha_eff": self.kernel.alpha_eff,
            "a": self.a,
            "gamma": self.gamma,
            "rho": self.rho,
            "lambda2": self.lambda2_thm2,
            # the variational route formally gives the upper (limsup)
            # exponent; numerically the two coincide, as the
            # consistency gap certifies
            "lambda2_upper_variational": self.lambda2_thm1,
            "beta0": self.beta0,
            "consistency_gap": self.consistency_gap,
        }
        if self.e_gamma is not None:
            out["e_gamma"] = self.e_gamma
        return out


def lambda2_closed_form(eq: EquationKind, kernel: KernelSpec,
                        rho: Optional[float] = None,
                        e_gamma: Optional[float] = None) -> LyapunovReport:
    """Second-order Lyapunov exponent of E|u(t,x)|^2, both routes.

    Riesz / white noise: ``rho`` is the variational constant (white
    noise, whose operator is rank one, defaults to its exact value
    ``t1_exact``, 1/2 at beta_l = 2).  Fractional family:
    ``e_gamma`` supplies the rough-noise functional value, the one
    quantity this package has no numerical oracle for; an effective rho
    is derived from it so every family flows through the same algebra.

    The report carries the direct exponent, the variational-route
    exponent and the closed-form fixed point beta0 (wave); their maximal
    pairwise relative gap is algebraic rounding only.
    """
    alpha = kernel.alpha_eff
    require_admissible(alpha, eq.beta_l)
    if kernel.family == "fractional":
        if e_gamma is None:
            raise ParameterError(
                "fractional family needs the functional value e_gamma"
            )
        if not (math.isfinite(e_gamma) and e_gamma > 0.0):
            raise ParameterError(
                f"e_gamma must be positive and finite, got {e_gamma}"
            )
        e2 = e_gamma * 2.0 ** (-(1.0 - kernel.H) / kernel.H)
        rho = e2 ** ((2.0 - alpha) / 2.0)
    elif rho is None:
        if kernel.family != "white":
            raise ParameterError("Riesz family needs rho")
        rho = t1_exact(kernel, eq.beta_l)
    if not (math.isfinite(rho) and rho > 0.0):
        raise ParameterError(f"rho must be positive and finite, got {rho}")

    a = scaling_exponent(eq, alpha)
    if eq.is_wave:
        gamma = _wave_log2_factor(alpha, eq.beta_l) * math.log(2.0) \
            + math.log(rho)
    else:
        gamma = math.log(rho)
    log_lam2 = gamma / a
    lam2 = exp_normal(log_lam2, f"lambda_2 at rho={rho!r}")

    lam1 = beta0 = gap = None
    if eq.beta_l == 2.0:
        _, log_e, log_e2 = _log_functionals(alpha, rho)
        if eq.is_wave:
            # variational route and the fixed-point route
            log_lam1 = ((2.0 - 3.0 * alpha) * math.log(2.0)
                        + (2.0 - alpha) * log_e) / (6.0 - 2.0 * alpha)
            p = 2.0 / (2.0 - alpha)
            log_beta0 = _log_beta0(log_e2 - p * math.log(2.0), p)
            beta0 = exp_normal(log_beta0, f"beta0 at rho={rho!r}")
            logs = [log_lam2, log_lam1, log_beta0]
        else:
            log_lam1 = log_e2
            logs = [log_lam2, log_lam1]
        lam1 = exp_normal(log_lam1, f"the variational lambda_2 at rho={rho!r}")
        gap = abs(math.expm1(min(logs) - max(logs)))  # max |x-y| / max(x, y)

    return LyapunovReport(
        eq=eq,
        kernel=kernel,
        a=a,
        gamma=gamma,
        rho=rho,
        lambda2_thm2=lam2,
        lambda2_thm1=lam1,
        beta0=beta0,
        consistency_gap=gap,
        e_gamma=e_gamma if kernel.family == "fractional" else None,
    )


def remark14_residual(alpha: float, rho: float) -> float:
    """Defect of the algebraic identity equating the wave exponent
    computed from rho with the one computed from the functional value:

        (2^(1-alpha) rho)^(1/(3-alpha))
            = 2^((2-3alpha)/(6-2alpha)) * E^((2-alpha)/(6-2alpha)).

    Zero for every alpha in (0,2) and rho > 0 up to rounding: the two
    sides are ``lambda2_thm2`` and ``lambda2_thm1`` of the wave report,
    taken at a d = 2 Riesz kernel, which admits every such alpha.
    """
    rep = lambda2_closed_form(EquationKind("wave"),
                              KernelSpec("riesz", d=2, alpha=alpha), rho=rho)
    return rep.lambda2_thm2 - rep.lambda2_thm1
