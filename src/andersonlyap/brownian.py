"""Brownian-path oracle for the exponential-time moments.

The n-th heat chaos moment T_n equals E[zeta(tau)^n] / n! where
zeta(t) is the additive functional  integral of |B_s|^(-alpha) ds  of a
d-dimensional diffusion B and tau an independent unit-mean exponential
horizon.  The diffusion must have generator Laplacian (variance 2t per
coordinate) so that its characteristic function matches the squared
heat propagator exp(-t |xi|^2); a standard-speed motion would produce
1/(1 + |xi|^2/2) factors instead of the 1/(1 + |xi|^2) this oracle is
meant to cross-check.

Each path is laid out at a fixed step and its singular integrand
accumulated over a Brownian-bridge bisection: an interval of length L
is flagged whenever either endpoint lies within REFINE_MULT * sqrt(L)
of the origin, and a flagged interval is halved at its bridged
midpoint.  ``oracle_plan`` sets, order by order, the step, how many
times an interval may halve and which paths halve at all.  The midpoint
does not enter the test: an interval kept only when its own midpoint
lands far from the origin would bias zeta low.  Positions keep their
rows last, as a (d, rows) array, and are flat rows of scalars in d = 1.
Each depth draws midpoints for the split rows only and gathers their
endpoints and midpoints straight into the arrays the next depth reads.
The split test and the scores run on blocks of SCORE_BLOCK rows, whose
temporaries stay in cache; every draw and each path's sum of its scores
stay chunk-wide, so no bit depends on the block size.  Beyond ``mc``'s
estimate pipeline and squared norm, this path estimator shares no
machinery with the Fourier-side Monte Carlo, which is the point.

An interval that retires is scored by a conditional mean given its two
ends, with no draw.  Unflagged, that is L E|mid|^(-alpha), the
midpoint being N(c, (L/2) I_d) about the centre c of the ends: the
midpoint rule's own expectation, in closed form through Kummer's
function.  At the last depth, flagged or not, it is the bridge's
integral of E|B_s|^(-alpha) over (0, L), by 3 Gauss nodes in u on each
half, s = (L/2) u^4 from the half's endpoint; that grading resolves the
endpoint singularity s^(-alpha/2) the midpoint rule would leave as a
bias, while 3 - 2 alpha >= 0, so the oracle refuses alpha > 3/2.  Each
score is at most a constant times L^(1 - alpha/2), its value with both
ends at the origin, so every moment of zeta is finite and the error bar
is a standard error for every n.  What remains is the step-size bias
of the scoring rules, which the error bar does not include.
"""

from __future__ import annotations

import functools
import math
from dataclasses import replace

import numpy as np

from .errors import ParameterError
from .mc import MCEstimate, _sq_norms, estimate
from .spectral import KernelSpec, require_admissible

__all__ = ["oracle_plan", "tn_bm_oracle"]

MAX_REFINE_DEPTH = 4
# Where oracle_plan subsamples, one path in REFINE_EVERY refines past
# depth 0 and carries its correction zeta_4^n - zeta_0^n, weighted by
# about REFINE_EVERY.  One in k grows the variance by (k - 1) r, r =
# Var(zeta_4^n - zeta_0^n) / Var(zeta_4^n), and saves up to 1 - 1/k of
# the refinement's CPU; the bounds below keep to where that was measured
# to pay.  Every figure on 20k paths at step 2e-3 unless stated, r on
# coupled paths, standard errors against every path refining at seeds
# 99 and 123 (2-vCPU Xeon, 1 thread):
# - d = 1, alpha = 1/2: r 3.1e-4, 3.8e-4, 4.0e-4 at n = 2, 4, 8 and
#   1.2e-3 at n = 24; standard error -0.1 / -0.2 % (n = 2), +0.1 /
#   -0.2 % (n = 4), -1.7 / +2.7 % (n = 8); CPU 1.7-2.0 s -> 0.9-1.2 s.
#   r 1.2e-5 at alpha = 1/4.
# - d = 1, alpha = 3/4 and 0.99: standard error +46 % and +38 % at n = 8,
#   +21 % at alpha = 0.99, n = 4, where a few paths carry the moment.
# - d = 1, alpha = 1/2, coarser steps: r 6.0e-3 and 0.022 at n = 4 and 8
#   for step 0.02, 0.021 and 0.055 for step 0.1.
# - d = 2: r 3e-4 to 8e-4 at alpha = 0.8 (n <= 10), 0.07, 0.13, 0.47 at
#   alpha = 3/2 (n = 2, 4, 8); CPU of an n = 2 call only 7-13 % lower.
# - d = 3, alpha = 3/2: r 0.02 to 0.13 (n = 2 to 10), standard error +4 %
#   at n = 2 to +13 % at n = 10, CPU no lower: paths seldom near the
#   origin leave refinement about 5 % of the work.
REFINE_EVERY = 4
SUBSAMPLE_MAX_ALPHA = 0.5
SUBSAMPLE_MAX_N = 8
SUBSAMPLE_MAX_STEP = 2e-3
MAX_TIME_STEP = 0.1
# Finer steps lay out too many rows: a chunk starts with about 1.3e7
# rows at this floor (1.6e7 at the 99th percentile of chunks), and at
# about 42 bytes a row in d = 1 (88 in d = 3, both measured by
# tracemalloc) the loop peaks near 0.55 GB per chunk in flight (1.1 GB
# in d = 3); far below it the step counts overflow.
MIN_TIME_STEP = 1e-5
# Exponential horizons above this are clipped; the discarded mass is
# exp(-40) ~ 4e-18, far below any achievable standard error.
TAU_CLIP = 40.0
PATH_CHUNK = 128
# Rows split-tested and scored at a time.  A block's temporaries stay in
# L2 and are reused from the heap, where chunk-wide ones were mapped and
# unmapped afresh, a page fault a page.  Smaller blocks cost more numpy
# calls, each of which hands the GIL between the workers of a chunked run.
SCORE_BLOCK = 16384
# Refine any substep of length L with an endpoint within
# REFINE_MULT * sqrt(L) of the origin.  A row that retires is scored by
# the midpoint rule's conditional mean given its ends, whose error
# against zeta's own conditional mean over the row grows as the ends
# near the origin, and retiring drops the conditional variance of zeta
# over the row from every higher moment; three sqrt(L) keep both below
# Monte-Carlo resolution.
REFINE_MULT = 3.0
# Cells of the conditional-mean table, uniform in s = y^2 / (1 + y^2).
MEAN_TABLE_CELLS = 2 ** 13
# Kummer's M(a, b, -z) by its convergent series up to this z, by its
# asymptotic series (DLMF 13.7.2) above it.
KUMMER_SWITCH = 50.0
# (u^4 / 2, u^4 (1 - u^4 / 2), 2 w u^3) for the 3-point Gauss-Legendre
# nodes u and weights w on (0, 1): the fraction of the way from a half's
# endpoint, the bridge variance over L and the weight of each node of
# the cap rule, s = (L/2) u^4 on each half of (0, L).
_CAP_NODES = tuple(
    (u ** 4 / 2, u ** 4 * (1 - u ** 4 / 2), 2 * w * u ** 3)
    for u, w in ((0.5 - 0.1 * math.sqrt(15.0), 5 / 18), (0.5, 8 / 18),
                 (0.5 + 0.1 * math.sqrt(15.0), 5 / 18))
)


def _series(ratio, x: np.ndarray) -> np.ndarray:
    """1 + sum over k of prod_(j < k) ratio(j) x, summed until the last
    term no longer moves any sum."""
    term = np.ones_like(x)
    total = np.ones_like(x)
    k = 0
    while np.any(np.abs(term) > 2.0 ** -53 * total):
        term *= x * ratio(k)
        total += term
        k += 1
    return total


def _kummer_neg(a: float, b: float, z) -> np.ndarray:
    """Kummer's M(a, b, -z) (DLMF 13.2.2) for an array z >= 0, 0 < a < b.

    Up to KUMMER_SWITCH it is e^(-z) M(b - a, b, z), a series of positive
    terms; above it the asymptotic series Gamma(b)/Gamma(b - a) z^(-a)
    sum (a)_k (a - b + 1)_k / k! z^(-k), whose smallest term is below
    e^(-50) there.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    low = z <= KUMMER_SWITCH
    x = z[low]
    out[low] = np.exp(-x) * _series(
        lambda k: (b - a + k) / ((b + k) * (k + 1)), x)
    x = z[~low]
    out[~low] = math.gamma(b) / math.gamma(b - a) * x ** -a * _series(
        lambda k: (a + k) * (a - b + 1 + k) / (k + 1), 1.0 / x)
    return out


@functools.lru_cache(maxsize=16)
def _mean_table(d: int, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Values and cell slopes of H(s) = E|Z + y e|^(-alpha) (1 + y^2)^(alpha/2)
    on the MEAN_TABLE_CELLS + 1 nodes of s = y^2 / (1 + y^2) in [0, 1].

    Z is standard normal in d dimensions and e a unit vector, so that
    E|Z + y e|^(-alpha) = 2^(-alpha/2) Gamma((d - alpha)/2) / Gamma(d/2)
    M(alpha/2, d/2, -y^2/2); H tends to 1 as s -> 1, the last node.
    The slopes array carries a trailing 0 so that s = 1 reads node 1.
    Both are cached per (d, alpha) and read-only.
    """
    a, b = 0.5 * alpha, 0.5 * d
    s = np.arange(MEAN_TABLE_CELLS) / MEAN_TABLE_CELLS
    values = np.empty(MEAN_TABLE_CELLS + 1)
    values[:-1] = _kummer_neg(a, b, 0.5 * s / (1.0 - s))
    values[:-1] *= (2.0 * (1.0 - s)) ** -a * (math.gamma(b - a)
                                              / math.gamma(b))
    values[-1] = 1.0
    slopes = np.zeros_like(values)
    np.subtract(values[1:], values[:-1], out=slopes[:-1])
    values.flags.writeable = slopes.flags.writeable = False
    return values, slopes


def _norms(x):
    if x.ndim == 1:
        return np.abs(x)
    r2 = _sq_norms(x)
    return np.sqrt(r2, out=r2)


def _bridge_mean(table, alpha: float, c: np.ndarray,
                 var: np.ndarray) -> np.ndarray:
    """E|X|^(-alpha) row by row for X ~ N(c, var I_d); may overwrite c.

    With r2 = |c|^2 and s = r2 / (r2 + var) this is
    H(s) (r2 + var)^(-alpha/2), H read from the table by linear
    interpolation.
    """
    values, slopes = table
    r2 = np.multiply(c, c, out=c) if c.ndim == 1 else _sq_norms(c)
    total = r2 + var
    r2 *= MEAN_TABLE_CELLS
    r2 /= total
    cell = np.floor(r2)
    r2 -= cell
    cell = cell.astype(np.intp)
    # r2 now holds the fraction of the way through the cell
    r2 *= slopes.take(cell)
    r2 += values.take(cell)
    total **= -0.5 * alpha
    r2 *= total
    return r2


def _retired_score(table, alpha, left, right, L):
    """L E[|mid|^(-alpha) | ends]: the midpoint rule's conditional mean."""
    c = np.add(left, right)
    c *= 0.5
    w = _bridge_mean(table, alpha, c, 0.5 * L)
    w *= L
    return w


def _cap_score(table, alpha, left, right, L):
    """The bridge's integral of E|B_s|^(-alpha) over (0, L) given its ends.

    B_s given the ends is N(left + (s/L)(right - left), 2 s (L - s)/L);
    each half of (0, L) is mapped from its endpoint by s = (L/2) u^4.
    """
    diff = np.subtract(right, left)
    w = np.zeros(L.shape)
    for frac, var_frac, weight in _CAP_NODES:
        var = L * var_frac
        for end, step in ((left, frac), (right, -frac)):
            c = np.multiply(diff, step)
            c += end
            node = _bridge_mean(table, alpha, c, var)
            node *= weight
            w += node
    w *= L
    return w


def _depth_score(table, alpha, left, right, L):
    """(score, split): rows with an endpoint within REFINE_MULT sqrt(L)
    of the origin split and score 0, the rest retire by _retired_score."""
    near = _norms(left)
    np.minimum(near, _norms(right), out=near)
    split = near < np.multiply(np.sqrt(L), REFINE_MULT)
    # scoring every row costs less than gathering the retired ones at
    # depth 0, where most retire, and about as much below it
    w = _retired_score(table, alpha, left, right, L)
    w[split] = 0.0
    return w, split


def _blocks(n: int):
    """Slices of SCORE_BLOCK rows covering range(n); each blocked pass
    works row by row, so its bits do not depend on the block size."""
    return (slice(lo, lo + SCORE_BLOCK) for lo in range(0, n, SCORE_BLOCK))


def _gather_twice(x, idx):
    """x[idx] twice over: the children's copy of a per-row value.

    ``idx`` comes from ``flatnonzero``, so mode="clip" never clips; with
    ``out=`` the default mode="raise" would gather into a buffered copy.
    """
    k = idx.size
    out = np.empty(2 * k, x.dtype)
    np.take(x, idx, out=out[:k], mode="clip")
    out[k:] = out[:k]
    return out


def _cap_sums(table, alpha, left, right, L, path, m):
    """Each of the m paths' sum of the bridge integrals of its rows."""
    w = np.empty(L.shape)
    for rows in _blocks(L.size):
        w[rows] = _cap_score(table, alpha, left[..., rows], right[..., rows],
                             L[rows])
    return np.bincount(path, w, minlength=m)


def _zeta_paths(rng: np.random.Generator, m: int, d: int, alpha: float,
                dt: float, table, depth: int, every: int):
    """Simulate m independent paths to an exponential horizon; return
    (zeta_0, zeta_refined, scored).

    zeta_refined is the depth-``depth`` estimate of the refined paths,
    those at index 0, every, 2 every, ...; scored is the number of rows
    scored at each depth, the refined paths' only below depth 0.  With
    every > 1, zeta_0 is each path's depth-0 estimate and depth 0's
    entry counts every step; with every = 1 zeta_0 is None.

    Every step of every path is one row of a flat queue: a column of the
    (d, rows) positions, a scalar in d = 1.  Each of ``depth`` passes
    retires the intervals not flagged near the origin, scored by their
    conditional mean, then bridges the flagged ones' midpoints and
    gathers their endpoints and midpoints straight into the next pass's
    rows.  Depth 0 also scores its flagged steps by the bridge integral,
    which completes zeta_0, and passes on only the refined paths' rows,
    when every > 1.
    The rows left at the cap retire by the bridge integral, every step
    of every path at depth 0.
    """
    tau = np.minimum(rng.exponential(1.0, m), TAU_CLIP)
    n_steps = np.maximum(np.ceil(tau / dt).astype(int), 1)
    path = np.repeat(np.arange(m), n_steps)
    ends = np.cumsum(n_steps)
    first = ends - n_steps
    L = np.full(ends[-1], dt)
    L[ends - 1] = tau - (n_steps - 1) * dt
    # positions at step boundaries; variance 2 L per coordinate
    buf = np.multiply(L, 2.0)
    inc = rng.standard_normal(L.shape if d == 1 else (d, L.size))
    inc *= np.sqrt(buf, out=buf)
    del buf
    right = np.cumsum(inc, axis=-1)
    right -= np.repeat(right[..., first] - inc[..., first], n_steps, axis=-1)
    left = np.subtract(right, inc, out=inc)
    del inc

    zeta = np.zeros(m)
    zeta_0 = None
    scored = []
    for level in range(depth):
        w = np.empty(L.shape)
        split = np.empty(L.shape, bool)
        for rows in _blocks(L.size):
            w[rows], split[rows] = _depth_score(table, alpha, left[..., rows],
                                                right[..., rows], L[rows])
        idx = np.flatnonzero(split)
        zeta += np.bincount(path, w, minlength=m)
        scored.append(L.size - idx.size)
        del split, w
        if level == 0 and every > 1:
            # the flagged steps alone, bridge-scored where they stand for
            # zeta_0; only the refined paths' steps split further
            left, right, L, path = (np.take(x, idx, axis=-1, mode="clip")
                                    for x in (left, right, L, path))
            zeta_0 = zeta + _cap_sums(table, alpha, left, right, L, path, m)
            scored[0] += L.size
            idx = np.flatnonzero(path % every == 0)
        # [left, mid, right] of the split rows, so that the halves are
        # [left, mid] -> [mid, right]
        k = idx.size
        pts = np.empty(left.shape[:-1] + (3 * k,))
        np.take(left, idx, axis=-1, out=pts[..., :k], mode="clip")
        np.take(right, idx, axis=-1, out=pts[..., 2 * k:], mode="clip")
        del left, right
        left, right = pts[..., :2 * k], pts[..., k:]
        # halving is exact: these are the bits of (0.5 * L)[idx]
        L = _gather_twice(L, idx)
        L *= 0.5
        # the midpoint of a bridge over the parent's length 2 L has
        # variance L per coordinate for the speed-2 diffusion; a (d, k)
        # view is not contiguous, so the draws land in a fresh array
        mid = rng.standard_normal(pts.shape[:-1] + (k,))
        mid *= np.sqrt(L[:k])
        mid += 0.5 * (pts[..., :k] + pts[..., 2 * k:])
        pts[..., k:2 * k] = mid
        path = _gather_twice(path, idx)
        del idx, mid
    zeta += _cap_sums(table, alpha, left, right, L, path, m)
    scored.append(L.size)
    return zeta_0, zeta[::every], scored


def oracle_plan(d: int, alpha: float, n: int,
                time_step: float) -> tuple[float, int, int]:
    """(step, depth, every): how ``tn_bm_oracle`` runs the order n.

    Raises ParameterError unless the oracle takes these: Riesz noise
    admissible against the classical Laplacian, the diffusion's
    generator, with alpha <= 3/2, an order n >= 1 and a time step within
    [MIN_TIME_STEP, MAX_TIME_STEP].  Each path is laid out at ``step``
    and its flagged intervals halve up to ``depth`` times; only the
    paths at chunk-local index 0 mod ``every`` split past depth 0.  The
    estimate's ``scored_per_depth`` counts the rows retired at each
    depth, its last entry those the bridge integral scores.  Three
    regimes:

    - n = 1: (2^MAX_REFINE_DEPTH time_step, 0, 1).  The bridge integral
      is the conditional mean of zeta over an interval given its ends,
      so a T_1 of bridge integrals alone has the same mean on any grid.
      T_1 coarsens by the factor by which n >= 2 refines and
      bridge-scores every step, splitting nothing: the conditional mean,
      given every 16th point, of the estimate that bridge-scores every
      time step, up to the rule's own error.  Its one entry counts
      every step.
    - n >= 2 in d = 1 with alpha <= SUBSAMPLE_MAX_ALPHA,
      n <= SUBSAMPLE_MAX_N and time_step <= SUBSAMPLE_MAX_STEP, where
      refinement is most of the work: (time_step, MAX_REFINE_DEPTH,
      REFINE_EVERY), one level of a multilevel telescoping sum (Giles
      2008).  Every path is scored at depth 0, its flagged steps by the
      bridge integral where they stand: zeta_0.  The refined paths also
      split their flagged steps on down to the cap: zeta_4.  A path's
      weight is zeta_0^n / n!, plus w (zeta_4^n - zeta_0^n) / n! on a
      refined path, w the chunk's path count over its refined count.
      The choice of path reads no draw, so each chunk's sum has the
      depth-4 estimator's mean exactly.  The weights stay independent
      but, some of them negative, do not share one mean: their pooled
      spread carries the gap between the refined and unrefined paths'
      means, so the error bar errs large, by about
      (w - 1) (E zeta_4^n - E zeta_0^n)^2 / n!^2 in the variance.
      Depth 0's entry counts every step, its flagged ones
      bridge-scored; the entries below count the refined paths' rows.
    - Every other n >= 2: (time_step, MAX_REFINE_DEPTH, 1), every path
      halved down to time_step / 2^MAX_REFINE_DEPTH, its weight
      zeta_4^n / n!.  The rows at depth k + 1 are the halves of those
      split at depth k.
    """
    require_admissible(KernelSpec("riesz", d=d, alpha=alpha).alpha_eff)
    if alpha > 1.5:
        raise ParameterError(
            f"alpha must be <= 3/2 for the path oracle, got {alpha}: its "
            "bridge rule grades each half-step as s = (L/2) u^4, which "
            "resolves the endpoint singularity s^(-alpha/2) only up to 3/2"
        )
    if n < 1:
        raise ParameterError(f"moment order n must be >= 1, got {n}")
    if not MIN_TIME_STEP <= time_step <= MAX_TIME_STEP:
        raise ParameterError(
            f"time_step must lie in [{MIN_TIME_STEP:g}, {MAX_TIME_STEP:g}]: "
            "coarser steps defeat the sqrt-scale refinement rule, finer "
            f"ones lay out too many rows, got {time_step}"
        )
    if n == 1:
        return 2 ** MAX_REFINE_DEPTH * time_step, 0, 1
    if (d == 1 and alpha <= SUBSAMPLE_MAX_ALPHA and n <= SUBSAMPLE_MAX_N
            and time_step <= SUBSAMPLE_MAX_STEP):
        return time_step, MAX_REFINE_DEPTH, REFINE_EVERY
    return time_step, MAX_REFINE_DEPTH, 1


def tn_bm_oracle(d: int, alpha: float, n: int, n_paths: int, time_step: float,
                 seed: int, *, threads: int = 1) -> MCEstimate:
    """Path estimate of T_n = E[zeta(tau)^n] / n!, laid out by
    ``oracle_plan``.

    Independent of the Fourier-side estimators in both representation
    and sampling machinery; agreement within combined error bars is the
    strongest internal consistency check this package offers.
    """
    step, depth, every = oracle_plan(d, alpha, n, time_step)
    log_nfact = math.lgamma(n + 1)
    table = _mean_table(d, alpha)
    scored = []

    def power(zeta):
        return np.exp(n * np.log(np.maximum(zeta, 1e-300)) - log_nfact)

    def draw(rng, m):
        zeta_0, zeta_refined, per_depth = _zeta_paths(rng, m, d, alpha, step,
                                                      table, depth, every)
        scored.append(per_depth)
        if zeta_0 is None:
            return power(zeta_refined)
        # w zeta_4^n - (w - 1) zeta_0^n, over n!, on a refined path: the
        # chunk's sum has the depth-4 mean for any m, not only m a
        # multiple of every
        w = m / zeta_refined.size
        y = power(zeta_0)
        refined = y[::every]
        refined *= 1 - w
        refined += w * power(zeta_refined)
        return y

    label = f"tn_bm/d{d}_a{alpha:g}/n{n}/dt{time_step:g}"
    # scored_per_depth: summed over the chunks once all are in
    params = {"d": d, "alpha": alpha, "n": n, "time_step": time_step,
              "max_refine_depth": depth, "refine_every": every,
              "scored_per_depth": None}
    est = estimate(draw, n_paths, seed, label, n, params, threads=threads,
                   chunk_size=PATH_CHUNK)
    return replace(est, params={
        **est.params, "scored_per_depth": np.sum(scored, axis=0).tolist()})
