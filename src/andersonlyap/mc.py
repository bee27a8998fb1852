"""Seeded, chunked Monte-Carlo plumbing.

Sampling is split into fixed-size chunks, each driven by its own
PCG64DXSM stream seeded by (derived seed, chunk index).  Chunk
results are merged with the pairwise-stable parallel mean/variance
update in chunk-index order, so the final estimate is bit-for-bit
reproducible for a given (seed, sample count) no matter how many worker
threads executed the chunks, or in which order they finished.  Both
estimators build their results through ``estimate``, the one home of
the sub-seed, the target's labels and the range rules.
"""

from __future__ import annotations

import hashlib
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError

__all__ = ["MCEstimate", "derive_seed", "chunk_generator", "run_chunked",
           "estimate"]

CHUNK_SIZE = 1 << 16
# Ceiling on worker threads: every running worker holds a chunk's arrays,
# and past the core count threads add memory, not speed.
MAX_THREADS = 256
# Past this moment order the weights' variance grows geometrically, and
# every estimator labels its estimate rather than refusing it.
N_CONFIDENT = 6


@dataclass(frozen=True)
class MCEstimate:
    """A Monte-Carlo result with its provenance.

    ``std_error`` is the sample standard deviation over the weights
    divided by sqrt(n_samples), accumulated by a single-pass
    numerically-stable scheme.
    """

    mean: float
    std_error: float
    n_samples: int
    seed: int
    target: str
    params: dict = field(default_factory=dict)

    def error_bound(self) -> float:
        """Standard error plus the bias bound |mean| f / (1 - f): the
        sampler's ``tail_frac_bound`` f bounds the share of the full
        integral lost beyond its radius, the mean estimates the rest."""
        f = float(self.params.get("tail_frac_bound") or 0.0)
        if f >= 1.0:
            return float("inf")
        return self.std_error + abs(self.mean) * f / (1.0 - f)

    def z_score(self, reference: float) -> float:
        """Deviation from a reference in units of the total error bound,
        floored at the rounding level (16 + 2 |log m|) eps m, m =
        max(|mean|, |reference|): a zero-variance estimate's last-bit
        differences are no deviation, and exp turns the last-bit error of
        its argument x into a relative error of about |x| eps."""
        m = max(abs(self.mean), abs(reference))
        log_m = abs(math.log(m)) if m > 0 else 0.0
        err = max(self.error_bound(),
                  (16 + 2 * log_m) * sys.float_info.epsilon * m)
        if err == 0.0:
            return 0.0 if self.mean == reference else float("inf")
        if err == float("inf"):
            return float("nan")
        return (self.mean - reference) / err


def derive_seed(seed: int, label: str) -> int:
    """Keyed-hash sub-seed for a named target.

    Sub-streams depend only on (seed, label), so adding new targets
    never perturbs the draws of existing ones.
    """
    # the seed keys the hash as 8 unsigned bytes
    if not 0 <= seed < 1 << 64:
        raise ParameterError(f"seed must lie in [0, 2**64), got {seed}")
    key = int(seed).to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(label.encode("utf-8"), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def chunk_generator(subseed: int, chunk_index: int) -> np.random.Generator:
    """Independent PCG64DXSM stream for one chunk of one target: the
    chunk index is the SeedSequence spawn key of the target's sub-seed."""
    seq = np.random.SeedSequence(int(subseed), spawn_key=(int(chunk_index),))
    return np.random.Generator(np.random.PCG64DXSM(seq))


def _sq_norms(x: np.ndarray, out=None) -> np.ndarray:
    """Squared Euclidean norms over the coordinate axis, the second last:
    (n, d, m) -> (n, m) and (d, rows) -> (rows,), each a sum of d squares
    in coordinate order on C-ordered input (fresh arrays, ``np.take``); a
    fancy-indexed gather is F-ordered, and its d = 3 sums move by an ulp."""
    return np.einsum("...ij,...ij->...j", x, x, out=out)


def _combine(stats_a, stats_b):
    """Chan et al. pairwise update of (count, mean, M2)."""
    n_a, mean_a, m2_a = stats_a
    n_b, mean_b, m2_b = stats_b
    n = n_a + n_b
    delta = mean_b - mean_a
    mean = mean_a + delta * (n_b / n)
    m2 = m2_a + m2_b + delta * delta * (n_a * n_b / n)
    return n, mean, m2


def run_chunked(sampler, n_samples: int, subseed: int, *, threads: int = 1,
                chunk_size: int = CHUNK_SIZE):
    """Accumulate mean and M2 of ``sampler(rng, m)`` over n_samples draws.

    ``sampler`` must return an array of m weights.  Returns
    (mean, std_error); squared deviations that overflow, or that
    underflow in a chunk whose weights still spread, raise.
    """
    if n_samples <= 0:
        raise ParameterError(f"n_samples must be positive, got {n_samples}")
    if threads < 1:
        raise ParameterError(f"threads must be at least 1, got {threads}")
    if threads > MAX_THREADS:
        raise ParameterError(
            f"threads must be at most {MAX_THREADS}, got {threads}")
    n_chunks = (n_samples + chunk_size - 1) // chunk_size

    def one_chunk(i):
        m = min(chunk_size, n_samples - i * chunk_size)
        rng = chunk_generator(subseed, i)
        w = np.asarray(sampler(rng, m), dtype=float)
        mean = float(w.mean())
        with np.errstate(over="ignore"):  # checked once, after the merge
            dev = w - mean
            m2 = float(np.square(dev, out=dev).sum())
        # squares below the normal range lose the spread they measure
        if m2 < sys.float_info.min and np.ptp(w) > 1e-12 * abs(mean):
            raise ConvergenceError(
                f"the weights' second moment underflows the double range "
                f"(chunk mean {mean:.6g}), so the standard error would read 0")
        return m, mean, m2

    if threads > 1 and n_chunks > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_chunk, range(n_chunks)))
    else:
        results = [one_chunk(i) for i in range(n_chunks)]

    total = results[0]
    for stats in results[1:]:
        total = _combine(total, stats)
    n, mean, m2 = total
    if n > 1:
        std_error = float(np.sqrt(m2 / (n - 1)) / np.sqrt(n))
    else:
        std_error = 0.0
    if not np.isfinite(std_error):
        raise ConvergenceError(
            f"the weights' second moment overflows the double range (mean "
            f"{mean:.6g}), so the standard error is not finite"
        )
    return mean, std_error


def estimate(draw, n_samples: int, seed: int, label: str, order: int,
             params: dict, *, threads: int = 1,
             chunk_size: int = CHUNK_SIZE) -> MCEstimate:
    """The estimate of the moment of ``order`` that ``label`` names: the
    mean of ``draw(rng, m)``'s weights on the sub-stream of (seed, label).
    A negative mean, or one below the normal range, raises.  The target gains
    ``|zero-variance`` where no weight differed beyond rounding (the
    integrand may still vary where no draw landed) and ``|low-confidence``
    past N_CONFIDENT; ``params`` gains the bare label's sub-seed.  An
    order from 1 up needs 2 samples: one has no spread to measure."""
    subseed = derive_seed(seed, label)
    if order >= 1 and n_samples < 2:
        raise ParameterError(
            f"n_samples must be at least 2 for the standard error of "
            f"{label}, got {n_samples}")
    mean, std_error = run_chunked(draw, n_samples, subseed, threads=threads,
                                  chunk_size=chunk_size)
    if mean <= -sys.float_info.min:
        raise ConvergenceError(
            f"the estimate of {label}, {mean:.6g}, is negative: its signed "
            "weights cancel past the moment itself and need more samples")
    if mean < sys.float_info.min:
        raise ConvergenceError(
            f"the estimate of {label}, {mean:.6g}, underflows the double "
            "range: its draws sample too little of where the moment lives")
    if std_error <= 1e-14 * abs(mean):
        label += "|zero-variance"
    if order > N_CONFIDENT:
        label += "|low-confidence"
    return MCEstimate(mean, std_error, n_samples, seed, label,
                      {**params, "subseed": subseed})
