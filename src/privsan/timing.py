"""Wall-clock cost model of the sanitizers.

Times the mechanisms the experiments run (:mod:`privsan.sanitize`) on
batches of tuples, so interpreter overhead amortizes away and the
asymptotic term dominates; the per-tuple figure is the batch time
divided by the batch size.  Each (mechanism, input dimension) point
reports the fastest of several repeats after a warmup pass: other load
on the machine only ever adds time.  The repeats visit the grid points
round-robin, so a machine whose speed drifts during the measurement
slows every point alike instead of bending the slope.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import sanitize as san
from .bounds import compute_norm_bound
from .errors import ConfigInvalid
from .rng import Rng

TIMING_REPEATS = 15
# Matrix entries per timed call of the projection mechanisms: the batch
# shrinks as n grows, so every grid point draws the same 8 MB, in chunks
# of ``sanitize.DRAW_CHUNK`` entries, and sees the same cache and
# allocator behaviour.
BATCH_ENTRIES = 1_000_000
ASUP_BATCH = 8       # asup draws one n x n matrix per tuple
ASUP_PRIVATE = 12    # private coordinates asup rotates, as in the default config


@dataclass(frozen=True)
class TimingRow:
    mechanism: str
    phase: str        # "sanitize" or "preprocess"
    input_dim: int
    target_dim: int
    seconds_per_tuple: float


def measure(n_grid, m: int = 20, master_seed: int = 0) -> list[TimingRow]:
    """Fastest per-tuple sanitization cost for each mechanism over a grid
    of input dimensions at a fixed target dimension, plus preprocessing
    costs for the fixed-matrix mechanisms."""
    beta = compute_norm_bound(0.5, 0.1, 1.0).frobenius_bound
    cases = []   # (mechanism, phase, n, tuples per call, call)
    for n in n_grid:
        if m > n:
            raise ConfigInvalid(f"target dim {m} exceeds input dim {n}")
        rng = Rng(master_seed).child(n)
        batch = max(ASUP_BATCH, BATCH_ENTRIES // (n * m))
        y = rng.uniform(0.0, 1.0, (batch, n)) + 0.1
        betas = np.full(batch, beta)
        q = san.sample_orthonormal_matrix(n, m, rng)
        mean = y.mean(axis=0)
        private = range(min(ASUP_PRIVATE, n))
        cases += [
            ("nrp", "sanitize", n, batch, partial(san.nrp, y, m, rng, betas=betas)),
            ("brp", "sanitize", n, batch, partial(san.brp, y, q)),
            ("brp", "preprocess", n, 1, partial(san.sample_orthonormal_matrix, n, m, rng)),
            ("asup", "sanitize", n, ASUP_BATCH,
             partial(san.asup, y[:ASUP_BATCH], 0.05, private, rng)),
            ("pca", "sanitize", n, batch, partial(san.pca, y, q, mean)),
        ]
    for *_, call in cases:   # warmup
        call()
    best = [np.inf] * len(cases)
    for _ in range(TIMING_REPEATS):
        for i, (*_, call) in enumerate(cases):
            start = time.perf_counter()
            call()
            best[i] = min(best[i], time.perf_counter() - start)
    return [TimingRow(mech, phase, n, m, seconds / per_call)
            for (mech, phase, n, per_call, _), seconds in zip(cases, best)]


def measure_peak_bytes(n_grid, m: int = 20) -> int:
    """Upper estimate of the bytes :func:`measure` holds at once: the
    tuples of every grid point, ``BATCH_ENTRIES / m`` entries each, twice
    over, and the working set of one mechanism call: three chunks of
    ``sanitize.DRAW_CHUNK`` entries (a chunk's draw, the product's copy of
    it, and the results), or, at an n whose n x n asup frame is larger
    than a chunk, two frames (its draw, then the k columns asup keeps and
    their QR)."""
    n = max(n_grid)
    return 8 * (max(3 * san.DRAW_CHUNK, 2 * n * n) + 2 * len(n_grid) * BATCH_ENTRIES // m)


def loglog_slope(rows: list[TimingRow], mechanism: str, phase: str = "sanitize") -> float:
    """Least-squares slope of log(seconds) against log(input_dim)."""
    pts = [(r.input_dim, r.seconds_per_tuple) for r in rows
           if r.mechanism == mechanism and r.phase == phase]
    if len(pts) < 2:
        raise ValueError(f"need at least two grid points for {mechanism}/{phase}")
    x = np.log([p[0] for p in pts])
    y = np.log([p[1] for p in pts])
    return float(np.polyfit(x, y, 1)[0])
