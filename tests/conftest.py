"""Shared fixtures: random instances that retain their raw matrices.

The library keeps preserved and backlog knowledge only in Gram form; these
factories hand tests both the Gram-form state and the raw matrices so that
explicit-matrix oracles can cross-check every Gram computation.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest

from lyapedit import (
    AssociativeMemory,
    BacklogAccumulator,
    EditBatch,
    absorb,
    new_memory,
)


@dataclass
class ExplicitInstance:
    """Gram-form state plus the raw matrices the main path discards."""

    mem: AssociativeMemory
    bk: BacklogAccumulator
    batch: EditBatch
    k0: np.ndarray
    v0: np.ndarray
    kp: np.ndarray | None   # concatenated backlog keys, None when empty
    vp: np.ndarray | None


def build_instance(rng: np.random.Generator, d0: int, d1: int, n: int, m0: int,
                   absorbed: int = 0) -> ExplicitInstance:
    w0 = rng.standard_normal((d1, d0))
    k0 = rng.standard_normal((d0, m0))
    mem = new_memory(w0, k0)
    bk = BacklogAccumulator.empty(mem.w0)
    kp_parts, vp_parts = [], []
    for _ in range(absorbed):
        cols = int(rng.integers(1, 4))
        past = EditBatch(k1=rng.standard_normal((d0, cols)),
                         v1=rng.standard_normal((d1, cols)))
        absorb(bk, past)
        kp_parts.append(past.k1)
        vp_parts.append(past.v1)
    kp = np.hstack(kp_parts) if kp_parts else None
    vp = np.hstack(vp_parts) if vp_parts else None
    batch = EditBatch(k1=rng.standard_normal((d0, n)),
                      v1=rng.standard_normal((d1, n)))
    return ExplicitInstance(mem=mem, bk=bk, batch=batch, k0=k0, v0=w0 @ k0,
                            kp=kp, vp=vp)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0xED17)


@pytest.fixture
def make_instance(rng):
    def factory(d0=4, d1=3, n=2, m0=16, absorbed=0, seed=None):
        local = rng if seed is None else np.random.default_rng(seed)
        return build_instance(local, d0, d1, n, m0, absorbed)
    return factory
