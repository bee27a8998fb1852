"""Noise families, the equation selector and the model's parameter rules.

Three families are supported, each identified by its spectral measure
``mu`` (the measure the noise covariance transforms to in Fourier
variables):

* ``riesz``      -- covariance |x|^(-alpha) in dimension d, spectral
                    density ``riesz_constant(d, alpha) * |xi|^(alpha-d)``;
* ``fractional`` -- d = 1, spatial fractional-Brownian covariance with
                    Hurst index H, spectral density ``c_h(H) * |xi|^(1-2H)``;
* ``white``      -- d = 1 space-time white noise, flat density 1/(2*pi).

Every family carries an effective scaling exponent ``alpha_eff`` (alpha,
2 - 2H and 1 respectively) which is what all downstream scaling laws and
the admissibility check depend on.  ``EquationKind`` selects the
equation that the noise drives.

Each parameter rule lives here once, and every entry point of the
package checks its model inputs through it: d a positive integer and
0 < alpha < d (Riesz), 1/4 < H < 1/2 (fractional), 0 < beta_l <= 2
(dispersion), and admissibility, Dalang's condition alpha_eff < beta_l
(``dalang_check`` tests it, ``require_admissible`` raises on it).
The integral in that condition is ``t1_exact``, T_1: the first heat
moment of every family, and for white noise (rank one) rho and T_1^n.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral

from .errors import ParameterError

__all__ = [
    "EquationKind",
    "KernelSpec",
    "riesz_constant",
    "c_h",
    "dalang_check",
    "require_admissible",
    "t1_exact",
]


def _riesz_range(d: int, alpha: float) -> int:
    """The Riesz rule: d a positive integer and 0 < alpha < d.  Returns d
    as a Python int, on which -d cannot wrap around."""
    if not (isinstance(d, Integral) and d >= 1):
        raise ParameterError(f"d must be a positive integer, got {d!r}")
    if not 0.0 < alpha < d:
        raise ParameterError(f"alpha must lie in (0, d) = (0, {d}), got {alpha}")
    return int(d)


def _hurst_range(H: float) -> None:
    """The fractional rule: 1/4 < H < 1/2."""
    if not 0.25 < H < 0.5:
        raise ParameterError(f"H must lie in (1/4, 1/2), got {H}")


def _dispersion_range(beta_l: float) -> None:
    """The dispersion rule: 0 < beta_l <= 2 (2 = classical Laplacian)."""
    if not 0.0 < beta_l <= 2.0:
        raise ParameterError(f"beta_l must lie in (0, 2], got {beta_l}")


def riesz_constant(d: int, alpha: float) -> float:
    """Normalization of the Riesz spectral density in dimension d.

    Returns ``pi^(-d/2) * 2^(-alpha) * Gamma((d-alpha)/2) / Gamma(alpha/2)``,
    the constant C such that |x|^(-alpha) has spectral density
    C * |xi|^(alpha-d).
    """
    d = _riesz_range(d, alpha)
    if alpha < sys.float_info.min:
        raise ParameterError(f"alpha={alpha!r} is subnormal: Gamma(alpha/2) overflows")
    return (
        math.pi ** (-d / 2.0)
        * 2.0 ** (-alpha)
        * math.gamma((d - alpha) / 2.0)
        / math.gamma(alpha / 2.0)
    )


def _sphere_area(d: int) -> float:
    """Surface area 2 pi^(d/2) / Gamma(d/2) of the unit sphere in R^d."""
    return 2.0 * math.pi ** (d / 2.0) / math.gamma(d / 2.0)


def c_h(H: float) -> float:
    """Spectral-density constant Gamma(2H+1) * sin(pi*H) / (2*pi) of the
    fractional family, defined for 1/4 < H < 1/2."""
    _hurst_range(H)
    return math.gamma(2.0 * H + 1.0) * math.sin(math.pi * H) / (2.0 * math.pi)


def dalang_check(alpha_eff: float, beta_l: float = 2.0) -> bool:
    """Admissibility of the noise against the dispersion power.

    True iff integral of mu(dxi) / (1 + |xi|^beta_l) is finite for a
    measure scaling with exponent alpha_eff, which holds iff
    alpha_eff < beta_l.  The classical Laplacian is beta_l = 2.
    """
    if alpha_eff <= 0:
        raise ParameterError(f"alpha_eff must be positive, got {alpha_eff}")
    return alpha_eff < beta_l


def require_admissible(alpha_eff: float, beta_l: float = 2.0) -> None:
    """Raise ParameterError unless beta_l lies in (0, 2] and
    ``dalang_check(alpha_eff, beta_l)`` holds."""
    _dispersion_range(beta_l)
    if not dalang_check(alpha_eff, beta_l):
        raise ParameterError(
            "admissibility condition violated: the spectral measure "
            f"scaling exponent {alpha_eff} must be below "
            f"the dispersion power {beta_l}"
        )


def _radial_mass(a: float, b: float) -> float:
    """Radial Lorentzian mass: the integral over r > 0 of
    r^(a-1) / (1 + r^b) dr = (pi/b) / sin(pi a/b), for 0 < a < b."""
    return (math.pi / b) / math.sin(math.pi * a / b)


def _radial_tail(a: float, b: float, R: float) -> float:
    """Part of ``_radial_mass`` beyond r = R > 0: with u = r^b, B(x; p, 1-p)/b
    at x = 1/(1+R^b), p = 1 - a/b, summed as sum_k (p)_k/k! x^(k+p)/(k+p),
    whose positive terms fall by x < 1/2 or faster for any b (the
    alternating series in R^-b needs about 40/(b log R) terms).  Below
    R = 1 the same series gives the head, B(1 - x; 1 - p, p)/b."""
    p, x = 1.0 - a / b, 1.0 / (1.0 + R ** b)
    head = R < 1.0
    if head:
        p, x = 1.0 - p, R ** b * x
    coef, total, k = x ** p, 0.0, 0
    while coef / (k + p) > 1e-17 * total:
        total += coef / (k + p)
        coef *= x * (k + p) / (k + 1)
        k += 1
    return _radial_mass(a, b) - total / b if head else total / b


@dataclass(frozen=True)
class EquationKind:
    """Equation selector: kind is "wave" or "heat", beta_l in (0, 2] is
    the dispersion power (2 = classical Laplacian)."""

    kind: str
    beta_l: float = 2.0

    def __post_init__(self):
        if self.kind not in ("wave", "heat"):
            raise ParameterError(f"kind must be 'wave' or 'heat', got {self.kind!r}")
        _dispersion_range(self.beta_l)

    @property
    def is_wave(self) -> bool:
        return self.kind == "wave"


@dataclass(frozen=True)
class KernelSpec:
    """One spatial covariance family plus its parameters.

    ``family`` is "riesz", "fractional" or "white"; ``d`` and ``alpha``
    apply to the Riesz family, ``H`` to the fractional one.  The white
    and fractional families are one-dimensional.
    """

    family: str
    d: int = 1
    alpha: float = 0.0
    H: float = 0.0

    def __post_init__(self):
        if self.family == "riesz":
            # a numpy integer d would not render to JSON in to_config
            object.__setattr__(self, "d", _riesz_range(self.d, self.alpha))
        elif self.family == "fractional":
            if self.d != 1:
                raise ParameterError("fractional family is one-dimensional")
            _hurst_range(self.H)
        elif self.family == "white":
            if self.d != 1:
                raise ParameterError("white-noise family is one-dimensional")
        else:
            raise ParameterError(f"unknown kernel family {self.family!r}")

    @property
    def alpha_eff(self) -> float:
        """Scaling exponent of the spectral measure: mu(cA) = c^alpha_eff mu(A)."""
        if self.family == "riesz":
            return self.alpha
        if self.family == "fractional":
            return 2.0 - 2.0 * self.H
        return 1.0

    @property
    def constant(self) -> float:
        """Multiplicative constant of the spectral density."""
        if self.family == "riesz":
            return riesz_constant(self.d, self.alpha)
        if self.family == "fractional":
            return c_h(self.H)
        return 1.0 / (2.0 * math.pi)

    def to_config(self) -> dict:
        """Flat key-value form (the config-file representation)."""
        cfg = {"family": self.family}
        if self.family == "riesz":
            cfg["d"] = self.d
            cfg["alpha"] = self.alpha
        elif self.family == "fractional":
            cfg["H"] = self.H
        return cfg


def t1_exact(kernel: KernelSpec, beta_l: float = 2.0) -> float:
    """Closed form of the first exponential-time heat moment
    E[J_1^heat(tau)] = integral of mu(dxi) / (1 + |xi|^beta_l)."""
    a = kernel.alpha_eff
    require_admissible(a, beta_l)
    return kernel.constant * _sphere_area(kernel.d) * _radial_mass(a, beta_l)
