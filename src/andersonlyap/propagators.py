"""Fourier-side Green functions of the two equations and their
time-Laplace transforms.

Only the squared modulus of the Fourier transform of the fundamental
solution enters any moment formula, so that is what this module exposes:

* wave:  |FG(t)(xi)|^2 = sin^2(t * r^(b/2)) / r^b,   r = |xi|,
* heat:  |FG(t)(xi)|^2 = exp(-t * r^b),

with b the dispersion power of -(-Laplace)^(b/2) (b = 2 is classical).
Their Laplace transforms in t are rational in r^b, and the wave
transform at rate beta equals 1/(2*beta) times the heat transform at
rate beta^2/4 -- the bridge every wave-side result here is built on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = [
    "EquationKind",
    "fourier_green_sq",
    "laplace_green_sq",
    "wave_heat_link_residual",
]

# Below this argument sin(x)/x uses its Taylor polynomial; the direct
# quotient loses half the significant digits near 0.
_SINC_SWITCH = 1e-4


@dataclass(frozen=True)
class EquationKind:
    """Equation selector: kind is "wave" or "heat", beta_l in (0, 2] is
    the dispersion power (2 = classical Laplacian)."""

    kind: str
    beta_l: float = 2.0

    def __post_init__(self):
        if self.kind not in ("wave", "heat"):
            raise ParameterError(f"kind must be 'wave' or 'heat', got {self.kind!r}")
        if not 0.0 < self.beta_l <= 2.0:
            raise ParameterError(f"beta_l must lie in (0, 2], got {self.beta_l}")

    @property
    def is_wave(self) -> bool:
        return self.kind == "wave"


def _sinc(x):
    """sin(x)/x with a series branch near zero, array-safe."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < _SINC_SWITCH
    xs = np.where(small, 0.0, x)
    with np.errstate(invalid="ignore", divide="ignore"):
        direct = np.sin(xs) / np.where(small, 1.0, xs)
    x2 = np.where(small, x, 0.0) ** 2
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return np.where(small, series, direct)


def fourier_green_sq(eq: EquationKind, t, r):
    """Squared modulus of the Fourier-transformed Green function at time
    t and radial frequency r = |xi|.  Continuous at r = 0 (wave value
    t^2 there).  Accepts scalars or arrays and broadcasts."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if eq.is_wave:
        x = t * r ** (eq.beta_l / 2.0)
        out = (t * _sinc(x)) ** 2
    else:
        out = np.exp(-t * r ** eq.beta_l)
    return float(out) if out.ndim == 0 else out


def laplace_green_sq(eq: EquationKind, beta: float, r):
    """Laplace transform in t of ``fourier_green_sq`` at rate beta > 0.

    Closed forms: wave 1/(2*beta) * 1/(beta^2/4 + r^b), heat
    1/(beta + r^b)."""
    if beta <= 0:
        raise ParameterError(f"Laplace rate beta must be positive, got {beta}")
    r = np.asarray(r, dtype=float)
    rb = r ** eq.beta_l
    if eq.is_wave:
        # written as a product so it is bitwise the heat transform at
        # rate beta^2/4 times 1/(2 beta): the link identity holds with
        # residual exactly zero
        out = (0.5 / beta) * (1.0 / (0.25 * beta * beta + rb))
    else:
        out = 1.0 / (beta + rb)
    return float(out) if out.ndim == 0 else out


def wave_heat_link_residual(beta: float, r, beta_l: float = 2.0):
    """Defect of the identity  I^w_beta = 1/(2*beta) * I^h_{beta^2/4}.

    Identically zero up to floating-point rounding; exposed so the
    identity can be audited on any grid."""
    wave = EquationKind("wave", beta_l)
    heat = EquationKind("heat", beta_l)
    lhs = laplace_green_sq(wave, beta, r)
    rhs = (0.5 / beta) * np.asarray(laplace_green_sq(heat, 0.25 * beta * beta, r))
    out = lhs - rhs
    return float(out) if np.ndim(out) == 0 else out
