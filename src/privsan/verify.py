"""Empirical checks of the distance-preservation guarantees and of the
dimension-equivalence relation between orthonormal and bounded-entry
projections.

The projections here are not the production ones of
:mod:`privsan.sanitize`, and are kept apart from them on purpose: those
rescale to the certificate bound, these use the variance-normalized
convention that the preservation guarantees assume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import jl_min_dimension, nrp_equivalent_dimension
from .errors import NonPositiveResult, RankDeficient
from .linalg import as_matrix, r_diagonal_signs
from .metrics import distance_preservation_fraction, preservation_peak_bytes
from .rng import Rng
from .sanitize import EntryDistribution, _entry_range, sample_bounded_matrix


def subspace_projection_for_check(points: np.ndarray, m: int, rng: Rng) -> np.ndarray:
    """Project rows of ``points`` onto a uniformly random m-dimensional
    subspace, scaled by sqrt(n/m) so squared lengths are preserved in
    expectation.

    The frame is Q D from the QR G = Q R of an n x m Gaussian draw, with
    D the signs of diag(R), as :func:`~privsan.sanitize.sample_orthonormal_matrix`
    draws it.  Q is never formed: x Q = x G R^-1, one product and one
    m x m solve, which needs R nonsingular: a draw whose R fails
    :func:`~privsan.linalg.r_diagonal_signs`' rank test raises
    RankDeficient and is not redrawn.  An n x m Gaussian fails it with
    probability about (1e-12 sqrt(n))^(n - m + 1)."""
    x = as_matrix(points)
    n = x.shape[1]
    g = rng.standard_normal((n, m))
    r = np.linalg.qr(g, mode="r")
    signs, full = r_diagonal_signs(r)
    if not full:
        raise RankDeficient("the Gaussian draw's R is numerically singular")
    return np.linalg.solve(r.T, (x @ g).T).T * (signs * np.sqrt(n / m))


def bounded_projection_for_check(points: np.ndarray, m: int, rng: Rng,
                                 distribution: EntryDistribution = EntryDistribution.UNIT_UNIFORM,
                                 ) -> np.ndarray:
    """Project rows of ``points`` with a bounded-entry matrix brought to
    the standard variance convention: entries centered, unit variance,
    projection scaled by 1/sqrt(m)."""
    x = as_matrix(points)
    n = x.shape[1]
    lo, hi = _entry_range(distribution)
    mu, sigma = (lo + hi) / 2, (hi - lo) * (1 / 12) ** 0.5    # the entry's mean and std
    a = sample_bounded_matrix(n, m, distribution, rng)
    a = (a - mu) / (sigma * np.sqrt(m))
    return x @ a


@dataclass(frozen=True)
class PreservationTrial:
    trial: int
    projected_dim: int
    ambient_dim: int
    fraction_subspace: float
    fraction_bounded: float

    @property
    def ok(self) -> bool:
        return self.fraction_subspace >= 0.5 and self.fraction_bounded >= 0.5


def preservation_trials(gamma: float, point_count: int, trials: int,
                        master_seed: int) -> list[PreservationTrial]:
    """Compare the two projection families at the dimension mandated by
    the preservation bound.

    Each trial draws ``point_count`` standard-normal points in an
    ambient space twice as wide as the mandated dimension, projects them
    once with a uniform-subspace matrix and once with a
    variance-normalized bounded-entry matrix, and records the fraction
    of pairs whose squared distance stays within e^{+-gamma}.
    """
    m = jl_min_dimension(point_count, gamma)   # validates gamma and point_count
    n = 2 * m
    root = Rng(master_seed)
    rows = []
    for trial in range(trials):
        rng = root.child(trial)
        points = rng.child(0).standard_normal((point_count, n))
        proj_sub = subspace_projection_for_check(points, m, rng.child(1))
        proj_bnd = bounded_projection_for_check(points, m, rng.child(2))
        rows.append(PreservationTrial(
            trial=trial,
            projected_dim=m,
            ambient_dim=n,
            fraction_subspace=distance_preservation_fraction(points, proj_sub, gamma),
            fraction_bounded=distance_preservation_fraction(points, proj_bnd, gamma),
        ))
    return rows


def trial_peak_bytes(gamma: float, point_count: int) -> int:
    """Upper estimate of the bytes one preservation trial holds at once:
    four float64 copies each of an n x m projection matrix and of the
    (points x n) points, and the preservation fraction's row blocks."""
    m = jl_min_dimension(point_count, gamma)
    return 32 * (2 * m * m + point_count * 2 * m) + preservation_peak_bytes(point_count)


@dataclass(frozen=True)
class EquivalenceRow:
    m1: int
    gamma: float
    m2: int | None          # None when the closed form is nonpositive
    within_reference: bool  # m2 <= m1 whenever m2 is defined


def equivalence_table(m1_values, gamma_values) -> list[EquivalenceRow]:
    """Tabulate the bounded-entry dimension matching each reference
    dimension across a distortion grid."""
    rows = []
    for m1 in m1_values:
        for gamma in gamma_values:
            try:
                m2 = nrp_equivalent_dimension(int(m1), float(gamma))
            except NonPositiveResult:
                rows.append(EquivalenceRow(int(m1), float(gamma), None, True))
                continue
            rows.append(EquivalenceRow(int(m1), float(gamma), m2, m2 <= m1))
    return rows


def gamma_grid() -> np.ndarray:
    """The distortion grid of the equivalence table: 100 points on [0.01, 0.40]."""
    return np.linspace(0.01, 0.40, 100)
