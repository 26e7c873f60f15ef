"""Counter-based random streams.

Stream i of a seed is Philox keyed by (seed, i), so what one consumer draws
depends only on its seed and index, never on what other consumers drew.
The corpus generators and the random bodies draw from these streams;
nothing in the package samples a volume or a moment.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def chunk_rng(seed: int, index: int) -> np.random.Generator:
    key = np.array([seed & _MASK64, index & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))
