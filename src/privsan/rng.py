"""Deterministic random streams with hierarchical seed splitting.

Every stochastic routine in this package takes an explicit :class:`Rng`.
Streams are produced by the counter-based Philox generator, so a given
``(seed, path)`` pair yields the identical sequence on every platform.
Concurrent tasks must not share one ``Rng``; derive one child per task
with :meth:`Rng.child`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np


class Rng:
    """A seeded random stream addressed by a 64-bit seed and a split path.

    ``Rng(seed).child(3).child(7)`` is a stream fully determined by
    ``(seed, (3, 7))``, independent of any draws made from its ancestors.
    The generator is built on the first draw; deriving a child builds none.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        if self.seed < 0 or any(p < 0 for p in self.path):
            raise ValueError(f"seed and path must be nonnegative, got {self!r}")

    def child(self, index: int) -> "Rng":
        """Derive the independent stream addressed by appending ``index``."""
        return Rng(self.seed, self.path + (int(index),))

    @cached_property
    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.Philox(ss))

    # Thin draw helpers so call sites stay compact.

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self.generator.uniform(low, high, size=size)

    def standard_normal(self, size) -> np.ndarray:
        return self.generator.standard_normal(size=size)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path})"
