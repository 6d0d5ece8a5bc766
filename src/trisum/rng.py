"""Deterministic random-stream derivation.

Every random draw in the package comes from a generator derived from a root
seed plus a structured integer key, so any entity can be redrawn
reproducibly no matter in which order violations are processed.
"""

from __future__ import annotations

import numpy as np

# Stream tags; one per independent source of randomness.
TAG_GNP = 1
TAG_REGULAR = 2
TAG_PART_U = 10
TAG_PART_FW = 11
TAG_PART_LEVEL = 12
TAG_PART_FU = 13
TAG_W_VERTEX = 20
TAG_W_EDGE = 21
TAG_RESTART = 30


def stream(root_seed: int, *key: int) -> np.random.Generator:
    """Generator for (root_seed, key). Identical arguments, identical stream."""
    ss = np.random.SeedSequence(int(root_seed), spawn_key=tuple(int(k) for k in key))
    return np.random.default_rng(ss)


def derive_seed(root_seed: int, *key: int) -> int:
    """A fresh integer seed derived from (root_seed, key)."""
    ss = np.random.SeedSequence(int(root_seed), spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
