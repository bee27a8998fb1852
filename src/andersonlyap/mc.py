"""Seeded, chunked Monte-Carlo plumbing.

Sampling is split into fixed-size chunks, each driven by its own
counter-based Philox stream keyed by (derived seed, chunk index).  Chunk
results are merged with the pairwise-stable parallel mean/variance
update in chunk-index order, so the final estimate is bit-for-bit
reproducible for a given (seed, sample count) no matter how many worker
threads executed the chunks, or in which order they finished.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ParameterError

__all__ = ["MCEstimate", "derive_seed", "chunk_generator", "run_chunked"]

CHUNK_SIZE = 1 << 16


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
        """Deviation from a reference in units of the total error bound."""
        err = self.error_bound()
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
    key = int(seed).to_bytes(8, "little", signed=False)
    digest = hashlib.blake2b(label.encode("utf-8"), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "little")


def chunk_generator(subseed: int, chunk_index: int) -> np.random.Generator:
    """Independent Philox stream for one chunk of one target."""
    key = (int(chunk_index) << 64) | int(subseed)
    return np.random.Generator(np.random.Philox(key=key))


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
    (mean, std_error).
    """
    if n_samples <= 0:
        raise ParameterError(f"n_samples must be positive, got {n_samples}")
    n_chunks = (n_samples + chunk_size - 1) // chunk_size

    def one_chunk(i):
        m = min(chunk_size, n_samples - i * chunk_size)
        rng = chunk_generator(subseed, i)
        w = np.asarray(sampler(rng, m), dtype=float)
        mean = float(w.mean())
        with np.errstate(over="ignore"):  # checked once, after the merge
            m2 = float(((w - mean) ** 2).sum())
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
