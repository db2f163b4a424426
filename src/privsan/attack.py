"""Honest-but-curious reconstruction attacks at the fusion center.

The attacker sees sanitized tuples and knows which mechanism produced
them, including the entry distribution of the projection matrices, but
never the per-tuple matrix itself.  Reconstruction is matrix based:

* ``random_inverse``: pseudo-inverse of one fresh draw from the entry
  distribution per tuple;
* ``expected_inverse_map`` / ``linear``: Monte-Carlo estimate of the
  expected pseudo-inverse, one fixed map applied to every tuple;
* ``known_matrix``: white-box baseline for mechanisms whose matrix is
  fixed and public, optionally re-adding a known mean.

Each attack is one function from a (tuples x m) array of sanitized rows
to (tuples x n) reconstructions; attacks that draw take one stream per
row.  The per-tuple ``attack_random_inverse`` and ``attack_linear`` make
one-row calls; ``known_matrix`` is array-only.

``random_inverse`` runs on the calling thread, in chunks of
``ATTACK_CHUNK`` rows.  Row j's matrix comes only from its own stream:
every draw takes the batched route of :mod:`~privsan.rng` (the first
draws' keys are hashed once per call, a retry's with its rows), which
gives the bits of each stream's own generator.  Its reconstruction
(B^T)^+ s = Q R^{-T} s comes from one reduced QR of that draw, so row j
equals a one-row call bit for bit.  The full-rank mask of R is
:func:`~privsan.linalg.triangular_full_rank`'s, which equals
``full_rank``'s (the argument is in its docstring): a back-substitution
screen over each chunk's stack of R, with the SVD run only on the R it
rejects.  A chunk's QR and back-substitution steps are shared by its
rows, so a one-row call pays them for one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, SingularSample
from .linalg import (
    as_matrix,
    as_vector,
    check_finite,
    check_shape,
    full_rank,
    matvec_rows,
    triangular_full_rank,
)
from .rng import Rng, philox_keys
from .sanitize import (
    EntryDistribution,
    SanitizedTuple,
    sample_fresh_matrices,
)

ATTACK_RETRIES = 8
# Rows per stacked QR solve; bounds the draws held at once.  On a 2-core
# host, the median in-process ablation-random-inverse repetition (50 x 20
# draws) took 199 ms at 24 rows, 188 at 64, 180 at 96, 186 at 160 and 189
# at 256: larger stacks share the per-stack QR and solve overhead until a
# stack and its factors outgrow the cache.
ATTACK_CHUNK = 96


@dataclass(frozen=True)
class ReconstructionResult:
    reconstructed: np.ndarray
    agent_id: str
    attack_tag: str

    def __post_init__(self):
        object.__setattr__(self, "reconstructed", as_vector(self.reconstructed))


def _draws(n: int, m: int, distribution: EntryDistribution, streams: list[Rng],
           attempt: int, keys: np.ndarray) -> np.ndarray:
    """The stacked draws of ``streams[i].child(attempt)``, whose
    :func:`~privsan.rng.philox_keys` are ``keys``, by the batched route;
    ``streams`` and ``attempt`` name them for a caller that replaces some."""
    return sample_fresh_matrices(n, m, distribution, keys)


def _qr_reconstruct(b: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B^T)^+ s = Q R^{-T} s for each stacked draw B = QR (reduced QR)
    of full rank, paired row by row with ``s``, and the full-rank mask
    of R, whose singular values are B's; the other draws are not solved.
    Unlike B (B^T B)^{-1} s, this does not square the condition number.
    The mask comes from :func:`~privsan.linalg.triangular_full_rank` and
    equals ``full_rank(r)``."""
    q, r = np.linalg.qr(b)
    full = triangular_full_rank(r)
    z = np.linalg.solve(np.swapaxes(r[full], 1, 2), s[full, :, None])
    return matvec_rows(q[full], z[..., 0]), full


def random_inverse(s: np.ndarray, n: int, distribution: EntryDistribution,
                   streams: list[Rng]) -> np.ndarray:
    """Reconstruct row j with the pseudo-inverse of a ``distribution``
    draw from ``streams[j].child(0)``; a draw with a singular Gram matrix is
    replaced from ``child(1)``, ``child(2)``, ... (bounded retries).  The
    ``child(0)`` keys of all rows are hashed once per call, a (rows x 2)
    uint64 array, and the first draws come from them a chunk at a time;
    a retry hashes only its rows' keys.  A non-finite entry raises
    ValueError, and a stream count other than the row count
    DimensionMismatch."""
    s = as_matrix(s)
    if len(streams) != len(s):
        raise DimensionMismatch(f"{len(s)} rows need as many streams, got {len(streams)}")
    m = s.shape[1]
    if m > n:
        raise DimensionMismatch(f"sanitized dim {m} exceeds ambient dim {n}")
    keys = philox_keys([(r.seed, r.path + (0,)) for r in streams])
    out = np.empty((len(streams), n))
    for lo in range(0, len(streams), ATTACK_CHUNK):
        todo = np.arange(lo, min(lo + ATTACK_CHUNK, len(streams)))
        for attempt in range(ATTACK_RETRIES):
            rows = [streams[j] for j in todo]
            drawn = keys[todo] if attempt == 0 else philox_keys(
                [(r.seed, r.path + (attempt,)) for r in rows])
            recon, full = _qr_reconstruct(_draws(n, m, distribution, rows, attempt, drawn),
                                          s[todo])
            out[todo[full]] = recon
            todo = todo[~full]
            if todo.size == 0:
                break
        else:
            raise SingularSample("sampled matrix has rank-deficient Gram matrix")
    return out


def known_matrix(s: np.ndarray, matrix: np.ndarray, mean: np.ndarray | None = None,
                 mean_in_tuple: bool = False) -> np.ndarray:
    """White-box linear reconstruction with the true fixed matrix.  With
    ``mean`` the deviation from the mean is reconstructed and the mean
    added back; ``mean_in_tuple`` says the mechanism projected raw tuples
    (the mean's image is removed first) rather than centered ones.  Rows
    of another width than m, or a mean of another length than n, raise
    DimensionMismatch, and a non-finite entry ValueError."""
    check_shape(s, (None, matrix.shape[-1]), "sanitized rows")
    check_finite(s, "sanitized rows")
    if mean is not None:
        check_shape(mean, matrix.shape[:1], "mean")
        check_finite(mean, "mean")
    check_finite(matrix, "matrix")
    if not full_rank(matrix):
        raise SingularSample("sampled matrix has rank-deficient Gram matrix")
    if mean is not None and mean_in_tuple:
        s = s - matrix.T @ mean
    recon = _linear(s, np.linalg.pinv(matrix.T))
    return recon if mean is None else recon + mean


def expected_inverse_map(n: int, m: int, distribution: EntryDistribution,
                         samples: int, rng: Rng) -> np.ndarray:
    """Monte-Carlo estimate of E[(B^T)^+] over ``distribution``, from
    the draws of ``rng.child(0)`` ... ``rng.child(samples - 1)``: the
    n x m map of the expectation-based linear reconstruction, estimated
    once per repetition and applied to every tuple.  The draws take the
    batched route: the children's keys are hashed in one pass, and no
    child is built.  A map of m > n raises DimensionMismatch, as
    :func:`random_inverse` does."""
    if samples < 1:
        raise ValueError("samples must be positive")
    if m > n:
        raise DimensionMismatch(f"sanitized dim {m} exceeds ambient dim {n}")
    keys = philox_keys([(rng.seed, rng.path + (j,)) for j in range(samples)])
    draws = sample_fresh_matrices(n, m, distribution, keys)
    if not full_rank(draws).all():
        raise SingularSample("sampled matrix has rank-deficient Gram matrix")
    return np.linalg.pinv(np.swapaxes(draws, 1, 2)).sum(axis=0) / samples


def linear(s: np.ndarray, linear_map: np.ndarray) -> np.ndarray:
    """Apply one n x m map to every sanitized row; a non-finite entry of
    either raises ValueError."""
    check_finite(s, "sanitized rows")
    check_finite(linear_map, "map")
    return _linear(s, linear_map)


def _linear(s: np.ndarray, linear_map: np.ndarray) -> np.ndarray:
    """:func:`linear` without the finiteness checks."""
    lm = np.asarray(linear_map, dtype=float)
    if lm.ndim != 2:
        raise DimensionMismatch(f"expected an n x m map, got shape {lm.shape}")
    if s.ndim != 2 or s.shape[1] != lm.shape[1]:
        raise DimensionMismatch(f"map expects rows of dim {lm.shape[1]}, got shape {s.shape}")
    return matvec_rows(lm[None], s)


# Per-tuple API: one-row calls into the attacks above.

def attack_random_inverse(t: SanitizedTuple, n: int, distribution: EntryDistribution,
                          rng: Rng) -> ReconstructionResult:
    """Reconstruct with the pseudo-inverse of a fresh ``distribution`` draw."""
    recon = random_inverse(t.values[None], n, distribution, [rng])
    return ReconstructionResult(recon[0], t.agent_id, "random-inverse")


def attack_linear(t: SanitizedTuple, linear_map: np.ndarray) -> ReconstructionResult:
    """Reconstruct with one fixed n x m map, as the expected-inverse attack does."""
    # SanitizedTuple has checked t.values; no second finiteness pass.
    return ReconstructionResult(_linear(t.values[None], linear_map)[0], t.agent_id,
                                "expected-inverse")
