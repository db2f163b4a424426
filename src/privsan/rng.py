"""Deterministic random streams with hierarchical seed splitting.

Every stochastic routine in this package takes an explicit :class:`Rng`.
Streams are produced by the counter-based Philox generator, so a given
``(seed, path)`` pair yields the identical sequence on every platform.
Concurrent tasks must not share one ``Rng``; derive one child per task
with :meth:`Rng.child`.
"""

from __future__ import annotations

import numpy as np

ALGORITHM = "philox4x64"


class Rng:
    """A seeded random stream addressed by a 64-bit seed and a split path.

    ``Rng(seed).child(3).child(7)`` is a stream fully determined by
    ``(seed, (3, 7))``, independent of any draws made from its ancestors.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        self.algorithm = ALGORITHM
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(ss))

    def child(self, index: int) -> "Rng":
        """Derive the independent stream addressed by appending ``index``."""
        return Rng(self.seed, self.path + (int(index),))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen

    # Thin draw helpers so call sites stay compact.

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        return self._gen.uniform(low, high, size=size)

    def standard_normal(self, size) -> np.ndarray:
        return self._gen.standard_normal(size=size)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path}, algorithm={self.algorithm!r})"
