"""Seeded, splittable random streams shared by the stochastic components.

Every generator is a counter-based Philox keyed by one seed; derive_seed
splits a root seed into child seeds by a spawn key, so paths, descents and
benchmark trials each own an independent, reproducible stream.
"""
from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator of `seed` (same seed, same bits)."""
    return np.random.Generator(np.random.Philox(int(seed)))


def derive_seed(seed: int, *stream: int) -> int:
    """Stable 64-bit child seed for (seed, *stream)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return int(ss.generate_state(1, np.uint64)[0])
