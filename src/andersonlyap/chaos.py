"""Chaos-expansion moments by importance-sampled Fourier integration.

The n-th second-moment term J_n(t) and its exponential-time average
E[J_n(tau)] are n*d-dimensional integrals of products of propagator
factors evaluated at the partial sums eta_i = xi_1 + ... + xi_i against
the spectral measure.  Sampling happens in the partial-sum coordinates:
for Riesz kernels the increments eta_i - eta_{i-1} follow an isotropic
proposal with radial density proportional to r^(alpha-1) / (1 + r^2)
truncated to r <= R, matching both the spectral singularity at 0 and
the Lorentzian decay of the Laplace-transformed propagators; for the
flat white-noise density the eta_i decouple and are drawn directly.
Any truncation bias is bounded in closed form, like the proposal's
normalizer, and reported with each estimate: the module needs numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .asymptotics import scaling_exponent, wave_heat_factor
from .errors import ParameterError
from .mc import MCEstimate, derive_seed, run_chunked
from .propagators import fourier_green_sq, laplace_green_sq
from .spectral import EquationKind, KernelSpec, _sphere_area, require_admissible

__all__ = [
    "ChaosQuery",
    "jn_exp_time_mc",
    "jn_fixed_time",
    "log_rate_tn",
    "t1_exact",
    "exact_moment",
]

# Hard cap on the proposal truncation radius.  Past the critical decay
# (alpha_eff near d for d = 1) the tail rule alone would ask for a radius
# whose importance weights blow up the estimator variance; the achieved
# tail bound is always reported so the trade is visible.
R_CAP = 800.0
R_FLOOR = 50.0
DEFAULT_TAIL_FRAC = 1e-4

# Past this chaos order the weight variance grows geometrically and the
# estimate is labeled rather than refused.
N_CONFIDENT = 6


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


def _radial_mass(a: float, b: float) -> float:
    """Radial Lorentzian mass: the integral over r > 0 of
    r^(a-1) / (1 + r^b) dr = (pi/b) / sin(pi a/b), for 0 < a < b."""
    return (math.pi / b) / math.sin(math.pi * a / b)


def _radial_tail(a: float, b: float, R: float) -> float:
    """Part of ``_radial_mass`` beyond r = R > 1: with u = r^b, B(x; p, 1-p)/b
    at x = 1/(1+R^b), p = 1 - a/b, summed as sum_k (p)_k/k! x^(k+p)/(k+p),
    whose positive terms fall by x < 1/2 or faster for any b (the
    alternating series in R^-b needs about 40/(b log R) terms)."""
    p, x = 1.0 - a / b, 1.0 / (1.0 + R ** b)
    coef, total, k = x ** p, 0.0, 0
    while coef / (k + p) > 1e-17 * total:
        total += coef / (k + p)
        coef *= x * (k + p) / (k + 1)
        k += 1
    return total / b


def t1_exact(kernel: KernelSpec, beta_l: float = 2.0) -> float:
    """Closed form of the first exponential-time heat moment
    E[J_1^heat(tau)] = integral of mu(dxi) / (1 + |xi|^beta_l)."""
    a = kernel.alpha_eff
    require_admissible(a, beta_l)
    return kernel.constant * _sphere_area(kernel.d) * _radial_mass(a, beta_l)


def exact_moment(query: ChaosQuery) -> Optional[float]:
    """Closed form of the chaos term a query names, or None.

    The exponential-time heat moment T_n is 2^-n for white noise and
    ``t1_exact`` at n = 1 for every family; the wave moment is T_n times
    ``wave_heat_factor``.  A fixed-time target follows from the scaling
    law J_n(t) = t^(a n) J_n(1) as J_n(t) = t^(a n) E[J_n(tau)] /
    Gamma(a n + 1), with a = ``scaling_exponent``; where a factor of it
    leaves the double range the identity is evaluated in log space.
    """
    eq, kernel, n = query.eq, query.kernel, query.n
    if n == 0:
        return 1.0
    if kernel.family == "white":
        moment = 0.5 ** n
    elif n == 1:
        moment = t1_exact(kernel, eq.beta_l)
    else:
        return None
    if eq.is_wave:
        moment *= wave_heat_factor(n, kernel.alpha_eff, eq.beta_l)
    if query.t is None:
        return moment
    an, t = scaling_exponent(eq, kernel.alpha_eff) * n, query.t
    try:
        value = t ** an * moment / math.gamma(an + 1.0)
    except OverflowError:
        value = math.inf
    if value < math.inf:
        return value
    if moment == 0.0:
        raise ParameterError(
            f"fixed-time moment at n={n}, t={t!r}: E[J_n(tau)] underflows "
            "the double range"
        )
    log_value = an * math.log(t) + math.log(moment) - math.lgamma(an + 1.0)
    try:
        return math.exp(log_value)
    except OverflowError:
        raise ParameterError(
            f"fixed-time moment at n={n}, t={t!r} is exp({log_value:.6g}), "
            "beyond the double range"
        ) from None


# ----------------------------------------------------------------------
# Spatial proposal
# ----------------------------------------------------------------------

class _SpatialSampler:
    """Spectral proposal shared by the chaos estimators.

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
    eta_i themselves, so each eta_i is drawn independently from the same
    Lorentzian-shaped proposal -- untruncated where the integrand factors
    are themselves Lorentzian (exponential-time targets), which removes
    the truncation bias entirely and makes the heat-side weights exactly
    constant.

    ``sample`` returns (eta_norm, log_ratio) where log_ratio is the log
    of the product of mu-density / proposal-density factors.
    """

    def __init__(self, kernel: KernelSpec, n: int, beta_l: float,
                 prefer_untruncated: bool = False):
        if kernel.family not in ("riesz", "white"):
            raise ParameterError(
                f"chaos Monte Carlo supports riesz/white kernels, got {kernel.family}"
            )
        self.d = kernel.d
        self.alpha = a = kernel.alpha_eff
        self.n = n
        self.eta_mode = kernel.family == "white"
        if self.eta_mode and prefer_untruncated:
            self.R = math.inf
            self.weight_const = kernel.constant * math.pi  # full Cauchy mass
            self.tail_frac_bound = 0.0
            return

        self.R = self._radius_rule(DEFAULT_TAIL_FRAC)

        # Envelope masses: r^(a-1) on (0,1], r^(a-3) on (1,R].
        self._mass1 = 1.0 / a
        self._mass2 = (1.0 - self.R ** (a - 2.0)) / (2.0 - a)
        self._p1 = self._mass1 / (self._mass1 + self._mass2)

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
        # and I_full = _radial_mass(a, 2).  The power overflows near a = 2,
        # past any cap.
        a = self.alpha
        target = tail_frac * _radial_mass(a, 2.0) * (2.0 - a) / max(self.n, 1)
        try:
            r = target ** (1.0 / (a - 2.0))
        except OverflowError:
            r = R_CAP
        return float(min(max(r, R_FLOOR), R_CAP))

    def _envelope_round(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """The radii accepted among k envelope candidates."""
        a, p1 = self.alpha, self._p1
        c2 = (1.0 - self.R ** (a - 2.0)) / (1.0 - p1)
        u = rng.random(k)
        v = rng.random(k)
        low = u < p1
        # both powers are finite for every u; numpy's SIMD pow on the
        # whole array costs less than gathering and scattering the pieces
        r = np.where(low, (u / p1) ** (1.0 / a),
                     (1.0 - (u - p1) * c2) ** (1.0 / (a - 2.0)))
        r2 = r * r
        return r[v * (1.0 + r2) < np.where(low, 1.0, r2)]

    def _radii(self, rng: np.random.Generator, count: int) -> np.ndarray:
        parts, need = [], count
        while need > 0:
            r = self._envelope_round(rng, int(need / self.accept_rate) + 16)
            parts.append(r[:need])
            need -= parts[-1].size
        return np.concatenate(parts)

    def sample(self, rng: np.random.Generator, m: int):
        """Draw m paths of n partial sums; returns (eta_norm, log_ratio)."""
        n = self.n
        if self.eta_mode:
            if math.isinf(self.R):
                eta = np.tan(math.pi * (rng.random((m, n)) - 0.5))
            else:
                u = 2.0 * rng.random((m, n)) - 1.0
                eta = np.tan(u * math.atan(self.R))
            log_ratio = (
                n * math.log(self.weight_const)
                + np.log1p(eta * eta).sum(axis=1)
            )
            return np.abs(eta), log_ratio
        r = self._radii(rng, m * n).reshape(m, n)
        if self.d == 1:
            sign = np.where(rng.random((m, n)) < 0.5, -1.0, 1.0)
            eta_norm = np.abs(np.cumsum(r * sign, axis=1))
        else:
            x = rng.standard_normal((m, n, self.d))
            x *= (r / np.sqrt(np.einsum("...i,...i", x, x)))[..., np.newaxis]
            np.cumsum(x, axis=1, out=x)
            eta_norm = np.sqrt(np.einsum("...i,...i", x, x))
        log_ratio = (
            n * math.log(self.weight_const)
            + np.log1p(r * r).sum(axis=1)
        )
        return eta_norm, log_ratio


def _finalize(mean, se, n_samples, seed, label, query, sampler, extra=None):
    if se <= 1e-14 * abs(mean):
        # weights were constant up to rounding: the proposal matched
        # the integrand exactly
        label = label + "|zero-variance"
    if query.n > N_CONFIDENT:
        label = label + "|low-confidence"
    radius = None
    if sampler is not None and math.isfinite(sampler.R):
        radius = sampler.R
    params = {
        "family": query.kernel.family,
        "d": query.kernel.d,
        "alpha_eff": query.kernel.alpha_eff,
        "eq": query.eq.kind,
        "beta_l": query.eq.beta_l,
        "n": query.n,
        "R": radius,
        "tail_frac_bound": sampler.tail_frac_bound if sampler is not None else 0.0,
        # white noise draws its proposal directly, with no rejection
        "accept_rate": None if sampler is None or sampler.eta_mode
        else sampler.accept_rate,
    }
    if extra:
        params.update(extra)
    return MCEstimate(mean, se, n_samples, seed, label, params)


def _kernel_tag(kernel: KernelSpec) -> str:
    if kernel.family == "riesz":
        return f"riesz_d{kernel.d}_a{kernel.alpha:g}"
    return kernel.family


def jn_exp_time_mc(query: ChaosQuery, n_samples: int, seed: int, *,
                   threads: int = 1) -> MCEstimate:
    """Monte-Carlo estimate of E[J_n(tau)], tau a unit-mean exponential
    time, i.e. the n*d-dimensional integral of the rate-1 Laplace
    propagator factors at the partial sums against mu^(x)n."""
    eq, kernel, n = query.eq, query.kernel, query.n
    label = f"jn_exp_time/{eq.kind}/b{eq.beta_l:g}/{_kernel_tag(kernel)}/n{n}"
    if n == 0:
        return _finalize(1.0, 0.0, 1, seed, label, query, None)
    sampler = _SpatialSampler(kernel, n, eq.beta_l, prefer_untruncated=True)

    def draw(rng, m):
        eta_norm, log_ratio = sampler.sample(rng, m)
        lap = laplace_green_sq(eq, 1.0, eta_norm)
        return np.exp(log_ratio + np.log(lap).sum(axis=1))

    subseed = derive_seed(seed, label)
    mean, se = run_chunked(draw, n_samples, subseed, threads=threads)
    return _finalize(mean, se, n_samples, seed, label, query, sampler,
                     extra={"subseed": subseed})


def jn_fixed_time(query: ChaosQuery, n_samples: int, seed: int, *,
                  threads: int = 1) -> MCEstimate:
    """Monte-Carlo estimate of the fixed-time chaos term J_n(t).

    The ordered time simplex is sampled by sorted uniforms (volume
    t^n/n!) and the spatial increments by the spectral proposal.
    J_0(t) = 1 is returned exactly.
    """
    eq, kernel, n, t = query.eq, query.kernel, query.n, query.t
    label = f"jn_fixed/{eq.kind}/b{eq.beta_l:g}/{_kernel_tag(kernel)}/n{n}/t{t:g}"
    if n == 0:
        return _finalize(1.0, 0.0, 1, seed, label, query, None)
    if t is None:
        raise ParameterError("fixed-time target needs t")
    sampler = _SpatialSampler(kernel, n, eq.beta_l)
    log_vol = n * math.log(t) - math.log(math.factorial(n))

    def draw(rng, m):
        times = np.sort(rng.random((m, n)), axis=1) * t
        gaps = np.diff(np.concatenate([times, np.full((m, 1), t)], axis=1), axis=1)
        eta_norm, log_ratio = sampler.sample(rng, m)
        green = fourier_green_sq(eq, gaps, eta_norm)
        with np.errstate(divide="ignore"):
            logw = log_vol + log_ratio + np.log(green).sum(axis=1)
        return np.exp(logw)

    subseed = derive_seed(seed, label)
    mean, se = run_chunked(draw, n_samples, subseed, threads=threads)
    return _finalize(mean, se, n_samples, seed, label, query, sampler,
                     extra={"t": t, "subseed": subseed})


def log_rate_tn(d: int, alpha: float, n_max: int, samples_per_n: int,
                seed: int, *, threads: int = 1) -> list:
    """Rows (n, log(T_n)/n, se, estimate): the rate tends to log(rho).

    T_n is the heat-equation exponential-time moment ``estimate``; the
    standard error of the log is propagated by the delta method.
    """
    if d == 1 and alpha == 1.0:
        # flat-density analog of the critical Riesz case
        kernel = KernelSpec("white")
    else:
        kernel = KernelSpec("riesz", d=d, alpha=alpha)
    eq = EquationKind("heat")
    rows = []
    for n in range(1, n_max + 1):
        est = jn_exp_time_mc(ChaosQuery(eq, kernel, n), samples_per_n, seed,
                             threads=threads)
        if est.mean <= 0:
            raise ParameterError(f"nonpositive moment estimate at n={n}")
        rows.append((n, math.log(est.mean) / n, est.std_error / (n * est.mean),
                     est))
    return rows
