"""Deterministic derivation of random substreams.

Replicated computations (simulation studies, bootstrap loops) derive one
generator per replicate from the master seed and the replicate's index.
The derivation depends only on the key tuple, never on scheduling, so a
study gives bit-identical results whether replicates run serially or in a
worker pool.
"""

from __future__ import annotations

import numpy as np

def substream(*keys: int) -> np.random.Generator:
    """Return a fresh generator keyed by an ordered tuple of integers."""
    if not keys:
        raise ValueError("substream needs at least one key")
    return np.random.default_rng(np.random.SeedSequence([int(k) for k in keys]))


def as_generator(seed) -> np.random.Generator:
    """Coerce an int seed, None, or an existing Generator to a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
