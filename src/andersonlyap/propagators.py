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

import numpy as np

from .errors import ParameterError
from .spectral import EquationKind

__all__ = ["fourier_green_sq", "laplace_green_sq"]

def _sinc(x):
    """sin(x)/x as a fresh array, 1 at x = 0.  The quotient itself is
    accurate to about one unit of rounding down to the smallest x."""
    x = np.asarray(x, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.sin(x, out=np.empty(x.shape))
        out /= x  # 0/0 only at x = 0
    np.putmask(out, x == 0.0, 1.0)
    return out


def fourier_green_sq(eq: EquationKind, t, r):
    """Squared modulus of the Fourier-transformed Green function at time
    t and radial frequency r = |xi|.  Continuous at r = 0 (wave value
    t^2 there).  Takes scalars or arrays, broadcasts, writes to neither."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if eq.is_wave:
        out = _sinc(t * r ** (eq.beta_l / 2.0))
        np.square(np.multiply(out, t, out=out), out=out)
    else:
        # exp(-(t r^b)) is bitwise exp((-t) r^b): negation is exact
        out = np.asarray(t * r ** eq.beta_l)
        np.exp(np.negative(out, out=out), out=out)
    return float(out) if out.ndim == 0 else out


def laplace_green_sq(eq: EquationKind, beta: float, r):
    """Laplace transform in t of ``fourier_green_sq`` at rate beta > 0.

    Closed forms: wave 1/(2*beta) * 1/(beta^2/4 + r^b), heat
    1/(beta + r^b).  The caller's r is never written to."""
    if beta <= 0:
        raise ParameterError(f"Laplace rate beta must be positive, got {beta}")
    out = np.asarray(np.asarray(r, dtype=float) ** eq.beta_l)
    out += 0.25 * beta * beta if eq.is_wave else beta
    np.divide(1.0, out, out=out)
    if eq.is_wave:
        # the heat transform at rate beta^2/4 times 1/(2 beta), in that
        # order: the wave weights of the Monte Carlo, and so its pinned
        # draws, are built on these bits
        out *= 0.5 / beta
    return float(out) if out.ndim == 0 else out

