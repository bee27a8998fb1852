"""Chaos-expansion moments by importance-sampled Fourier integration.

The exponential-time average E[J_n(tau)] of the n-th second-moment term
is an n*d-dimensional integral of products of Laplace-transformed
propagator factors evaluated at the partial sums eta_i = xi_1 + ... +
xi_i against the spectral measure.  Sampling happens in the partial-sum
coordinates: for Riesz kernels the increments eta_i - eta_{i-1} follow
an isotropic proposal with radial density proportional to
r^(alpha-1) / (1 + r^2) truncated to r <= R, matching both the spectral
singularity at 0 and the Lorentzian decay of the propagator factors;
for the flat white-noise density the eta_i decouple and are drawn
directly from the untruncated Cauchy law (weights of finite variance
for beta_l > 3/2 only).  Any truncation bias is bounded in closed form,
like the proposal's normalizer, and reported with each estimate: the
module needs numpy only.  A chunk of m samples keeps its sample axis
last, as n rows of m partial sums (n x d x m in d >= 2), so the partial
sums, norms and log-weight sums are contiguous numpy passes over whole
rows.

A fixed-time term follows exactly from the same estimate: the scaling
law J_n(t) = t^(a n) J_n(1), averaged over tau, gives J_n(t) =
t^(a n) E[J_n(tau)] / Gamma(a n + 1), with a = ``scaling_exponent``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .asymptotics import (LOG_NORMAL_MAX, LOG_NORMAL_MIN, exp_normal,
                          range_error, scaling_exponent, wave_heat_factor)
from .errors import ParameterError
from .mc import MCEstimate, _sq_norms, estimate
from .propagators import laplace_green_sq
from .spectral import (EquationKind, KernelSpec, _radial_mass, _radial_tail,
                       _sphere_area, require_admissible, t1_exact)

__all__ = [
    "ChaosQuery",
    "jn_exp_time_mc",
    "jn_fixed_time",
    "log_rate_tn",
    "exact_moment",
]

# Hard cap on the proposal truncation radius.  Past the critical decay
# (alpha_eff near d for d = 1) the tail rule alone would ask for a radius
# whose importance weights blow up the estimator variance; the achieved
# tail bound is always reported so the trade is visible.
R_CAP = 800.0
R_FLOOR = 50.0
DEFAULT_TAIL_FRAC = 1e-4


@dataclass(frozen=True)
class ChaosQuery:
    """One chaos-moment target: equation, noise kernel, order n and, for
    fixed-time targets, the time t."""

    eq: EquationKind
    kernel: KernelSpec
    n: int
    t: Optional[float] = None

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError(f"chaos order n must be >= 0, got {self.n}")
        if self.t is not None and not 0.0 < self.t < math.inf:
            raise ParameterError(f"t must be positive and finite, got {self.t}")
        require_admissible(self.kernel.alpha_eff, self.eq.beta_l)


def exact_moment(query: ChaosQuery) -> Optional[float]:
    """Closed form of the chaos term a query names, or None.

    The exponential-time heat moment T_n is ``t1_exact`` at n = 1 for
    every family, and T_1^n for white noise, whose factors decouple; the
    wave moment is T_n times ``wave_heat_factor``.  A fixed-time target
    follows by ``_at_time``.  A moment outside the normal double range
    is a parameter error, and so is a fixed-time target with no closed
    form whose time factor alone puts it there.
    """
    eq, kernel, n = query.eq, query.kernel, query.n
    if n == 0:
        return 1.0
    if kernel.family != "white" and n > 1:
        if query.t is not None:
            _log_time_factor(query)  # raises where t alone decides the range
        return None
    # per order: T_1, times the wave/heat factor for the wave equation
    base = t1_exact(kernel, eq.beta_l)
    if eq.is_wave:
        base *= wave_heat_factor(1, kernel.alpha_eff, eq.beta_l)
    what = f"the closed form of E[J_n(tau)] at n={n}"
    log_moment = n * math.log(base)
    # within a factor e of overflow the power is taken in log space
    moment = (base ** n if log_moment < LOG_NORMAL_MAX - 1
              else exp_normal(log_moment, what))
    if moment < sys.float_info.min:
        raise ParameterError(f"{what}, {moment:.6g}, underflows the double "
                             "range")
    return moment if query.t is None else _at_time(query, moment)


def _log_time_factor(query: ChaosQuery) -> float:
    """log(t^(a n) / Gamma(a n + 1)), a = ``scaling_exponent``.  Past
    log(max/min) in size no normal moment brings J_n(t) into the double
    range, so it raises there, before anything is drawn."""
    an = scaling_exponent(query.eq, query.kernel.alpha_eff) * query.n
    log_factor = an * math.log(query.t) - math.lgamma(an + 1.0)
    if abs(log_factor) > LOG_NORMAL_MAX - LOG_NORMAL_MIN:
        raise range_error(f"fixed-time factor t^(a n)/Gamma(a n + 1) at "
                          f"n={query.n}, t={query.t!r}", log_factor)
    return log_factor


def _at_time(query: ChaosQuery, moment: float) -> float:
    """J_n(t) = t^(a n) moment / Gamma(a n + 1) from the exponential-time
    moment E[J_n(tau)], with a = ``scaling_exponent``: the scaling law
    J_n(t) = t^(a n) J_n(1) averaged over tau.  Where a factor of it
    leaves the double range the identity is evaluated in log space; a
    value outside the normal range is a parameter error."""
    an = scaling_exponent(query.eq, query.kernel.alpha_eff) * query.n
    # the direct product, where neither t^(a n) nor Gamma(a n + 1) comes
    # within a factor e of overflow
    if max(an * math.log(query.t), math.lgamma(an + 1.0)) < LOG_NORMAL_MAX - 1:
        value = query.t ** an * moment / math.gamma(an + 1.0)
        if sys.float_info.min <= value < math.inf:
            return value
    return exp_normal(_log_time_factor(query) + math.log(moment),
                      f"fixed-time moment at n={query.n}, t={query.t!r}")


# ----------------------------------------------------------------------
# Spatial proposal
# ----------------------------------------------------------------------

class _SpatialSampler:
    """Spectral proposal of the exponential-time chaos estimator.

    Sampling happens in the partial-sum coordinates eta_i.  For the
    Riesz family the integrand couples consecutive eta through the
    spectral singularity, so the increments eta_i - eta_{i-1} are drawn
    from an isotropic proposal with radial density proportional to
    r^(alpha-1) / (1+r^2) truncated to r <= R: exact rejection from the
    envelope r^(alpha-1) on (0,1], r^(alpha-3) on (1,R].  One uniform per
    candidate picks the piece and, rescaled within it, inverts its CDF;
    a round draws need / ``accept_rate`` candidates and a small margin.
    Normalizer, ``accept_rate`` and ``tail_frac_bound`` are closed forms.
    For the flat white-noise density the integrand factorizes over the
    eta_i themselves, so each eta_i is drawn independently from the
    untruncated Cauchy law, whose density is proportional to the
    classical heat-side Laplace factor 1/(1 + eta^2): no truncation bias,
    exactly constant heat-side weights at beta_l = 2, and of finite
    variance against 1/(1 + |eta|^beta_l) only for beta_l > 3/2.

    ``sample`` returns (eta_norm, log_ratio), new arrays the caller owns,
    where log_ratio is the log of the product of mu-density /
    proposal-density factors.  A chunk keeps the sample axis last: an
    (n, m) array, (n, d, m) in d >= 2, whose row for each factor takes
    the next m draws of a flat stream, transformed in place to the bits
    of the plain array expressions.
    """

    def __init__(self, kernel: KernelSpec, n: int, beta_l: float):
        self.d = kernel.d
        self.alpha = a = kernel.alpha_eff
        self.n = n
        self.eta_mode = kernel.family == "white"
        if self.eta_mode:
            self.weight_const = kernel.constant * math.pi  # full Cauchy mass
            # drawn directly from the untruncated law, with no rejection
            self.R = self.accept_rate = None
            self.tail_frac_bound = 0.0
            return

        self.R = self._radius_rule(DEFAULT_TAIL_FRAC)

        # Envelope masses: r^(a-1) on (0,1], r^(a-3) on (1,R].
        self._mass1 = 1.0 / a
        self._mass2 = (1.0 - self.R ** (a - 2.0)) / (2.0 - a)
        self._p1 = self._mass1 / (self._mass1 + self._mass2)
        if self._p1 == 1.0:  # the (1, R] piece would never be drawn
            raise ParameterError(f"alpha={a!r} is too close to 0 for the proposal")

        # mu / proposal = constant * Z * (1 + r^2), Z = area * mass up to R;
        # mass and tail cancel as a -> 2, where tail_frac_bound nears 1.
        z_radial = _radial_mass(a, 2.0) - _radial_tail(a, 2.0, self.R)
        if not z_radial > 0.0:
            raise ParameterError(f"alpha={a!r} is too close to 2 for the proposal")
        # the accepted share of candidates, above 1/2 on either piece
        self.accept_rate = z_radial / (self._mass1 + self._mass2)
        self.weight_const = kernel.constant * (_sphere_area(self.d) * z_radial)
        # n * tail / full per factor, at the propagator decay 1/(1+r^beta_l)
        tail = _radial_tail(a, beta_l, self.R)
        self.tail_frac_bound = n * tail / _radial_mass(a, beta_l)

    def _radius_rule(self, tail_frac: float) -> float:
        # n * I_tail(R) / I_full <= tail_frac, with I_tail(R) <= R^(a-2)/(2-a)
        # and I_full = _radial_mass(a, 2).  Near a = 2 the power would
        # overflow: past 2 R_CAP its log alone gives the cap.
        a = self.alpha
        target = tail_frac * _radial_mass(a, 2.0) * (2.0 - a) / max(self.n, 1)
        if math.log(target) / (a - 2.0) >= math.log(2.0 * R_CAP):
            return R_CAP
        return float(min(max(target ** (1.0 / (a - 2.0)), R_FLOOR), R_CAP))

    def _envelope_round(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """The radii accepted among k envelope candidates."""
        a, p1 = self.alpha, self._p1
        c2 = (1.0 - self.R ** (a - 2.0)) / (1.0 - p1)
        u, v, r = uvr = np.empty((3, k))
        rng.random(out=uvr[:2])  # u's k draws, then v's
        low = u < p1
        # both powers are finite for every u, each taken in place on a whole
        # row: cheaper in numpy than gathering and scattering the pieces
        np.subtract(u, p1, out=r)
        r *= c2
        np.subtract(1.0, r, out=r)
        r **= 1.0 / (a - 2.0)
        u /= p1
        u **= 1.0 / a
        np.putmask(r, low, u)
        # accept where v (1 + r^2) < where(low, 1, r^2); a faithful pow keeps
        # r <= 1 on the inner piece and r >= 1 on the outer: max(r^2, 1)
        v *= np.add(np.multiply(r, r, out=u), 1.0, out=u)
        np.maximum(np.multiply(r, r, out=u), 1.0, out=u)
        return np.compress(np.less(v, u, out=low), r)

    def _radii(self, rng: np.random.Generator, count: int) -> np.ndarray:
        parts, need = [], count
        while need > 0:
            r = self._envelope_round(rng, int(need / self.accept_rate) + 16)
            parts.append(r[:need])
            need -= parts[-1].size
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def sample(self, rng: np.random.Generator, m: int):
        """Draw m paths of n partial sums: (eta_norm (n, m), log_ratio)."""
        n, d = self.n, self.d
        if self.eta_mode:
            # standard Cauchy by inversion, tan((u - 1/2) pi)
            eta = rng.random((n, m))
            eta -= 0.5
            eta *= math.pi
            np.tan(eta, out=eta)
            sq = eta * eta
            eta_norm = np.abs(eta, out=eta)
        else:
            r = self._radii(rng, n * m).reshape(n, m)
            if d == 1:
                x = rng.random((n, m))
                x -= 0.5
                np.copysign(r, x, out=x)
            else:
                x = rng.standard_normal((n, d, m))
                norm = np.empty((n, m))
                np.sqrt(_sq_norms(x, out=norm), out=norm)
                x *= np.divide(r, norm, out=norm)[:, None]
            for j in range(1, n):
                x[j] += x[j - 1]
            if d == 1:
                eta_norm = np.abs(x, out=x)
            else:
                eta_norm = np.sqrt(_sq_norms(x, out=norm), out=norm)
            sq = np.multiply(r, r, out=r)
        log_ratio = np.log1p(sq, out=sq).sum(axis=0)
        log_ratio += n * math.log(self.weight_const)
        return eta_norm, log_ratio


def _kernel_tag(kernel: KernelSpec) -> str:
    if kernel.family == "riesz":
        return f"riesz_d{kernel.d}_a{kernel.alpha:g}"
    return kernel.family


def _laplace_mc(query: ChaosQuery, label: str, n_samples: int, seed: int,
                threads: int) -> MCEstimate:
    """Monte-Carlo estimate of E[J_n(tau)] on the sub-stream of ``label``:
    the n*d-dimensional integral of the rate-1 Laplace propagator factors
    at the partial sums against mu^(x)n.  J_0 = 1 is one unit weight on
    the same pipeline, so every order checks the seed and the threads."""
    eq, kernel, n = query.eq, query.kernel, query.n
    if kernel.family not in ("riesz", "white"):
        raise ParameterError(
            f"chaos Monte Carlo supports riesz/white kernels, got {kernel.family}"
        )
    if kernel.family == "white" and eq.beta_l <= 1.5:
        # Cauchy draws against 1/(1 + |eta|^beta_l): E[w^2] diverges
        raise ParameterError(f"white-noise Monte Carlo needs beta_l > 3/2, "
                             f"got beta_l={eq.beta_l!r}: the weights' "
                             "variance is infinite")
    params = {"family": kernel.family, "d": kernel.d,
              "alpha_eff": kernel.alpha_eff, "eq": eq.kind,
              "beta_l": eq.beta_l, "n": n, "R": None, "tail_frac_bound": 0.0,
              "accept_rate": None}
    if n == 0:
        # one weight answers any count, but a count below 1 is refused
        return estimate(lambda rng, m: np.ones(m), min(n_samples, 1), seed,
                        label, n, params, threads=threads)
    sampler = _SpatialSampler(kernel, n, eq.beta_l)
    params.update(R=sampler.R, tail_frac_bound=sampler.tail_frac_bound,
                  accept_rate=sampler.accept_rate)

    def draw(rng, m):
        eta_norm, log_ratio = sampler.sample(rng, m)
        lap = laplace_green_sq(eq, 1.0, eta_norm)
        log_ratio += np.log(lap, out=lap).sum(axis=0)
        return np.exp(log_ratio, out=log_ratio)

    return estimate(draw, n_samples, seed, label, n, params, threads=threads)


def jn_exp_time_mc(query: ChaosQuery, n_samples: int, seed: int, *,
                   threads: int = 1) -> MCEstimate:
    """Monte-Carlo estimate of E[J_n(tau)], tau a unit-mean exponential
    time."""
    eq, kernel, n = query.eq, query.kernel, query.n
    if query.t is not None:
        raise ParameterError(f"t = {query.t}: use jn_fixed_time for J_n(t)")
    label = f"jn_exp_time/{eq.kind}/b{eq.beta_l:g}/{_kernel_tag(kernel)}/n{n}"
    return _laplace_mc(query, label, n_samples, seed, threads)


def jn_fixed_time(query: ChaosQuery, n_samples: int, seed: int, *,
                  threads: int = 1) -> MCEstimate:
    """Monte-Carlo estimate of the fixed-time chaos term J_n(t): the
    estimate of E[J_n(tau)] on this target's own sub-stream, scaled to
    time t by ``_at_time``.  J_0(t) = 1 is returned exactly."""
    eq, kernel, n, t = query.eq, query.kernel, query.n, query.t
    if t is None:
        raise ParameterError("fixed-time target needs t")
    _log_time_factor(query)  # raises before any draw where t alone decides
    label = f"jn_fixed/{eq.kind}/b{eq.beta_l:g}/{_kernel_tag(kernel)}/n{n}/t{t:g}"
    est = _laplace_mc(query, label, n_samples, seed, threads)
    mean = _at_time(query, est.mean)
    # one factor scales the mean, the error and the bias bound alike
    std_error = mean * (est.std_error / est.mean)
    return replace(est, mean=mean, std_error=std_error,
                   params={**est.params, "t": t})


def log_rate_tn(d: int, alpha: float, n_max: int, samples_per_n: int,
                seed: int) -> list:
    """Rows (n, log(T_n)/n, se, estimate): the rate tends to log(rho).

    T_n is the heat-equation exponential-time moment ``estimate``; the
    standard error of the log is propagated by the delta method.
    """
    kernel = KernelSpec("riesz", d=d, alpha=alpha)
    eq = EquationKind("heat")
    rows = []
    for n in range(1, n_max + 1):
        est = jn_exp_time_mc(ChaosQuery(eq, kernel, n), samples_per_n, seed)
        rows.append((n, math.log(est.mean) / n, est.std_error / (n * est.mean),
                     est))
    return rows
