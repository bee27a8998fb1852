"""Mittag-Leffler growth and the closed-form Lyapunov exponents.

The truncated second-moment series is controlled by sums of the form
sum_n (c t)^(a n) / Gamma(a n + 1) = E_a((c t)^a), whose exponential
growth rate in t is exactly c for a in (0, 4).  Matching that rate
against the fixed-point equation 4 * lambda(beta) = beta^2 converts the
family of perturbed heat growth rates lambda(beta) into the wave
exponent, and the scaling algebra closes everything into explicit
formulas:

    wave:  lambda_2 = (2^(1-alpha) rho)^(1/(3-alpha)),
    heat:  lambda_2 = rho^(2/(2-alpha)),

with the exponents adjusted for fractional dispersion.  Both routes
(the rho route and the variational-functional route) are computed and
their agreement reported; the gap is algebraic, so it measures only
rounding, never model error.  The chaos time-scaling law and the
rho -> functional-value power laws live here too, and nothing here
imports numpy: the closed-form commands load only this layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

from .errors import ConvergenceError, ParameterError
from .spectral import EquationKind, KernelSpec, require_admissible

__all__ = [
    "LyapunovReport",
    "mittag_leffler",
    "log_mittag_leffler",
    "at_growth",
    "RieszHeat",
    "beta0_solve",
    "beta0_power_law",
    "lambda2_closed_form",
    "scaling_exponent",
    "wave_heat_factor",
    "FunctionalValues",
    "functionals_from_rho",
    "remark14_residual",
]

# Branch handover: series for x^(1/a) <= 30, leading asymptotics above.
# At the threshold the dropped remainder (O(x^-2) against exp(30)) is
# far below double precision.
_SERIES_CUTOFF = 30.0
# The band needs about 90/a terms: every order a >= 1e-3 converges.
_SERIES_MAX_TERMS = 100_000
_SERIES_REL_STOP = 1e-17


def _series_log_ml(a: float, x: float) -> float:
    """log E_a(x) by direct summation of x^n / Gamma(a n + 1).

    Raises ConvergenceError (residual: the last term relative to the
    largest) when _SERIES_MAX_TERMS terms do not reach the stopping
    rule, which happens for tiny a, where the terms barely decay.
    """
    if x == 0.0:
        return 0.0
    log_x = math.log(x)
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
            f"the series for E_{a}({x}) did not converge in "
            f"{_SERIES_MAX_TERMS} terms",
            math.exp(lt - log_max),
        )
    return log_max + math.log(math.fsum(math.exp(lt - log_max)
                                        for lt in log_terms))


def _asymptotic_log_ml(a: float, x: float) -> float:
    """log of (1/a) exp(x^(1/a)) - x^(-1)/Gamma(1-a), the two-term
    expansion valid for a in (0, 4) and large x (1/Gamma vanishes at the
    poles, so integer a loses the algebraic term exactly as it should)."""
    root = x ** (1.0 / a)
    rgamma = 0.0 if a == int(a) else 1.0 / math.gamma(1.0 - a)
    # relative size of the algebraic term against the exponential one;
    # underflows cleanly to zero for large root
    corr = -a * rgamma / x * math.exp(-min(root, 745.0))
    return root - math.log(a) + math.log1p(corr)


def log_mittag_leffler(a: float, x: float) -> float:
    """log E_a(x) for a in (0, 4), x >= 0, safe against overflow."""
    if not 0.0 < a < 4.0:
        raise ParameterError(f"order a must lie in (0, 4), got {a}")
    if not 0.0 <= x < math.inf:
        raise ParameterError(f"argument must be nonnegative and finite, got {x}")
    if x == 0.0:
        return 0.0
    try:
        root = x ** (1.0 / a)
    except OverflowError:
        root = math.inf
    if root <= _SERIES_CUTOFF:
        return _series_log_ml(a, x)
    if root == math.inf:
        raise ParameterError(f"log E_{a}({x}) exceeds the double range")
    return _asymptotic_log_ml(a, x)


def mittag_leffler(a: float, x: float) -> float:
    """E_a(x) = sum x^n / Gamma(a n + 1); exponential-family special
    cases: E_1(x) = exp(x), E_2(x^2) = cosh(x)."""
    log_value = log_mittag_leffler(a, x)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ParameterError(
            f"E_{a}({x}) exceeds the double range (log value {log_value!r}); "
            "use log_mittag_leffler"
        ) from None


def at_growth(a: float, c: float, t: float) -> float:
    """(1/t) log E_a((c t)^a), the finite-t growth rate whose t -> inf
    limit is c.  The deviation is |log a| / t plus exponentially small
    corrections."""
    if not (0.0 < a < 4.0 and 0.0 < c < math.inf and 0.0 < t < math.inf):
        raise ParameterError(
            f"need 0 < a < 4 and positive finite c, t; got a={a}, c={c}, t={t}"
        )
    try:
        x = (c * t) ** a
    except OverflowError:
        x = math.inf
    if x == math.inf:
        raise ParameterError(f"(c t)^a = ({c} * {t})^{a} exceeds the double range")
    return log_mittag_leffler(a, x) / t


# ----------------------------------------------------------------------
# perturbed-heat growth-rate families and the fixed point
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RieszHeat:
    """lambda(beta) = (2 beta)^(-2/(2-alpha)) * e2 for Riesz coupling."""

    alpha: float
    e2: float

    def __post_init__(self):
        require_admissible(self.alpha)
        if self.e2 <= 0.0:
            raise ParameterError("functional value must be positive")

    @property
    def power(self) -> float:
        return 2.0 / (2.0 - self.alpha)

    def rate(self, beta: float) -> float:
        try:
            return (2.0 * beta) ** (-self.power) * self.e2
        except OverflowError:
            # near alpha = 2 the power is large enough to leave the
            # double range at small beta; the rate is then +inf
            return math.inf


def beta0_power_law(c: float, p: float) -> float:
    """Closed-form root of 4 c beta^(-p) = beta^2: (4c)^(1/(p+2))."""
    if c <= 0.0 or p < 0.0:
        raise ParameterError("need c > 0 and p >= 0")
    return (4.0 * c) ** (1.0 / (p + 2.0))


def beta0_solve(lam: Callable[[float], float], bracket,
                rel_tol: float = 1e-12,
                power_law: Optional[tuple] = None) -> float:
    """Root of 4 lambda(beta) = beta^2 by bisection.

    ``lam`` must be continuous and strictly decreasing so the root is
    unique.  When ``power_law=(c, p)`` is supplied the closed form
    (4c)^(1/(p+2)) is computed as well and the two are required to agree
    to 1e-10 relative.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0.0 < lo < hi:
        raise ParameterError(f"invalid bracket {bracket}")

    def g(b):
        return 4.0 * lam(b) - b * b

    g_lo, g_hi = g(lo), g(hi)
    if g_lo < 0.0 or g_hi > 0.0:
        raise ParameterError(
            f"4*lambda(beta) - beta^2 does not change sign on [{lo}, {hi}]"
        )
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    if power_law is not None:
        closed = beta0_power_law(*power_law)
        if abs(root - closed) > 1e-10 * closed:
            raise ParameterError(
                f"bisection root {root!r} disagrees with closed form {closed!r}"
            )
    return root


# ----------------------------------------------------------------------
# functional algebra
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionalValues:
    """The three Riesz variational functionals derived from rho.

    e_a1 is the unit-coupling functional, e the half-coupling one
    (e = 2^(-alpha/(alpha-2)) * e_a1) and e2 the doubled-variable one
    (e2 = 2^(-alpha/(2-alpha)) * e).
    """

    e_a1: float
    e: float
    e2: float
    alpha: float


def functionals_from_rho(alpha: float, rho: float) -> FunctionalValues:
    """Exact power-law conversion rho -> functional values."""
    require_admissible(alpha)
    if not 0.0 < rho < math.inf:
        raise ParameterError(f"rho must be positive and finite, got {rho}")
    try:
        e_a1 = rho ** (2.0 / (2.0 - alpha))
        e = 2.0 ** (-alpha / (alpha - 2.0)) * e_a1
        e2 = 2.0 ** (-alpha / (2.0 - alpha)) * e
    except OverflowError:
        e_a1 = e = e2 = math.inf
    if not all(0.0 < v < math.inf for v in (e_a1, e, e2)):
        raise ParameterError(
            f"rho={rho!r} at alpha={alpha!r} puts the functional values "
            "outside the double range"
        )
    return FunctionalValues(e_a1=e_a1, e=e, e2=e2, alpha=alpha)


def remark14_residual(alpha: float, rho: float) -> float:
    """Defect of the algebraic identity equating the wave exponent
    computed from rho with the one computed from the functional value:

        (2^(1-alpha) rho)^(1/(3-alpha))
            = 2^((2-3alpha)/(6-2alpha)) * E^((2-alpha)/(6-2alpha)).

    Zero for every alpha in (0,2) and rho > 0 up to rounding; the two
    sides are evaluated through their distinct published routes.
    """
    require_admissible(alpha)
    if rho <= 0:
        raise ParameterError(f"rho must be positive, got {rho}")
    log2 = math.log(2.0)
    log_lhs = ((1.0 - alpha) * log2 + math.log(rho)) / (3.0 - alpha)
    # log of the functional value, kept in log space: near alpha = 2 the
    # value itself overflows the double range while the exponent below
    # brings the right side back to a modest number
    log_e = (alpha * log2 + 2.0 * math.log(rho)) / (2.0 - alpha)
    log_rhs = (2.0 - 3.0 * alpha) / (6.0 - 2.0 * alpha) * log2 + (
        2.0 - alpha
    ) / (6.0 - 2.0 * alpha) * log_e
    return math.exp(log_lhs) - math.exp(log_rhs)


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
    beta0_numeric: Optional[float] = None
    consistency_gap: Optional[float] = None
    extra: dict = field(default_factory=dict)

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
            "beta0": self.beta0_numeric,
            "consistency_gap": self.consistency_gap,
        }
        out.update(self.extra)
        return out


def lambda2_closed_form(eq: EquationKind, kernel: KernelSpec,
                        rho: Optional[float] = None,
                        e_gamma: Optional[float] = None) -> LyapunovReport:
    """Second-order Lyapunov exponent of E|u(t,x)|^2, both routes.

    Riesz / white noise: ``rho`` is the variational constant (white
    noise defaults to its exact value 1/2).  Fractional family:
    ``e_gamma`` supplies the rough-noise functional value, the one
    quantity this package has no numerical oracle for; an effective rho
    is derived from it so every family flows through the same algebra.

    The report carries the direct exponent, the variational-route
    exponent and the numeric fixed point beta0 (wave); their maximal
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
        if kernel.family == "white":
            rho = 0.5
        else:
            raise ParameterError("Riesz family needs rho")
    if not (math.isfinite(rho) and rho > 0.0):
        raise ParameterError(f"rho must be positive and finite, got {rho}")

    a = scaling_exponent(eq, alpha)
    if eq.is_wave:
        gamma = _wave_log2_factor(alpha, eq.beta_l) * math.log(2.0) \
            + math.log(rho)
    else:
        gamma = math.log(rho)
    if not abs(gamma / a) < 709.0:  # exp would leave the normal range
        raise ParameterError(f"lambda_2 = exp({gamma / a!r}) is outside the "
                             f"double range for rho={rho!r}")
    lam2 = math.exp(gamma / a)

    lam1 = None
    beta0 = None
    gap = None
    if eq.beta_l == 2.0:
        fv = functionals_from_rho(alpha, rho)
        if eq.is_wave:
            # variational route and the fixed-point route
            lam1 = 2.0 ** ((2.0 - 3.0 * alpha) / (6.0 - 2.0 * alpha)) * fv.e ** (
                (2.0 - alpha) / (6.0 - 2.0 * alpha)
            )
            case = RieszHeat(alpha, fv.e2)
            c = 2.0 ** (-case.power) * fv.e2
            beta0 = beta0_solve(
                case.rate,
                _bracket_for(c, case.power),
                power_law=(c, case.power),
            )
            vals = [lam2, lam1, beta0]
        else:
            lam1 = fv.e2
            vals = [lam2, lam1]
        gap = max(
            abs(x - y) / max(abs(x), abs(y)) for x in vals for y in vals
        )

    extra = {}
    if kernel.family == "fractional":
        extra["e_gamma"] = e_gamma
    return LyapunovReport(
        eq=eq,
        kernel=kernel,
        a=a,
        gamma=gamma,
        rho=rho,
        lambda2_thm2=lam2,
        lambda2_thm1=lam1,
        beta0_numeric=beta0,
        consistency_gap=gap,
        extra=extra,
    )


def _bracket_for(c: float, p: float) -> tuple:
    """A sign-changing bracket around the power-law fixed point."""
    root = beta0_power_law(c, p)
    return (root / 8.0, root * 8.0)
