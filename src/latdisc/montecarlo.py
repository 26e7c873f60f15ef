"""Chunked, counter-based Monte Carlo sampling.

Chunk i of a run draws from Philox keyed by (seed, i), so a run's totals
depend only on its seed and sample count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

CHUNK_SIZE = 1 << 16
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 10**6
    seed: int = 0


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def box_fraction(
    lower: np.ndarray,
    upper: np.ndarray,
    indicator: Callable[[np.ndarray], np.ndarray],
    cfg: McConfig,
) -> tuple[int, int]:
    """(hits, n_samples) for uniform samples of the box hitting the indicator.

    `indicator` maps an (m, d) array to a boolean array of length m.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    d = lower.shape[0]
    n = int(cfg.n_samples)
    spans = upper - lower

    def run_chunk(i: int) -> int:
        m = min(CHUNK_SIZE, n - i * CHUNK_SIZE)
        x = chunk_rng(cfg.seed, i).random((m, d)) * spans + lower
        return int(np.count_nonzero(indicator(x)))

    n_chunks = (n + CHUNK_SIZE - 1) // CHUNK_SIZE
    hits = sum(run_chunk(i) for i in range(n_chunks))
    return hits, n
