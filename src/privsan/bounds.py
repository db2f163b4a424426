"""Closed-form quantities behind the norm-bounded projection mechanism.

Derivation sketch, kept here because every formula below leans on it.
A sanitized tuple A^T y must stay cosine-similar to y at level at least
``min_utility`` while moving it by at most one grid cell.  Collinear
rescaling by a factor t moves y by |t - 1| * |y|, so t <= cell/|y| + 1.
Treating the utility floor as a quadratic constraint on |A^T y| and
using |A^T y| <= |A|_F |y| gives the exact admissible Frobenius bound

    |A|_F <= eps + sqrt(eps^2 - 1 + t^2/alpha^2),

valid only when the discriminant is nonnegative; the final bound is the
minimum of that root and t.  The projection-dimension formulas come from
the multiplicative (e^{+-gamma}) form of the Johnson-Lindenstrauss
argument for uniform-subspace and bounded-entry projections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    BoundOverflow,
    GammaOutOfRange,
    InfeasibleBound,
    NonPositiveInput,
    NonPositiveResult,
)

GAMMA_MAX = 0.405


@dataclass(frozen=True)
class GridSpec:
    """Observation grid of square cells, one agent per cell.  The cell
    side is how far a sanitized tuple may move, and the
    concept-robustness radius."""

    cell_side: float

    def __post_init__(self):
        if not (0 < self.cell_side < math.inf):
            raise NonPositiveInput(f"cell_side must be positive and finite, got {self.cell_side}")


@dataclass(frozen=True)
class NormBoundCertificate:
    """Per-agent admissible Frobenius norm for the compression matrix.

    Fields:
      min_utility     utility floor eps in (0, 1]
      max_tuple_norm  largest observation norm alpha seen by the agent
      cell_side       grid cell side
      scale_cap       t = cell/alpha + 1, cap from the one-cell move rule
      slack           diagnostic delta = max(root - 2 eps, 0)
      frobenius_bound final bound beta = min(t, root), always positive
    """

    min_utility: float
    max_tuple_norm: float
    cell_side: float
    scale_cap: float
    slack: float
    frobenius_bound: float


def check_gamma(gamma: float) -> None:
    if not (0.0 < gamma < GAMMA_MAX):
        raise GammaOutOfRange(f"gamma must lie in (0, {GAMMA_MAX}), got {gamma}")


def compute_t(cell_side: float, alpha: float) -> float:
    """Collinear-scale cap t = cell_side / alpha + 1; a cell side or
    alpha that is not positive and finite raises NonPositiveInput."""
    if not (0 < cell_side < math.inf and 0 < alpha < math.inf):
        raise NonPositiveInput(
            f"cell_side and alpha must be positive and finite, got {cell_side}, {alpha}")
    return cell_side / alpha + 1.0


def compute_norm_bound(min_utility: float, cell_side: float, alpha: float) -> NormBoundCertificate:
    """Build the norm-bound certificate for one agent.

    Raises InfeasibleBound when eps^2 - 1 + t^2/alpha^2 < 0, i.e. when
    the utility floor cannot be met at this data scale; the condition is
    surfaced rather than clamped because clamping would silently violate
    the requested floor.  Raises BoundOverflow when t or t/alpha exceeds
    the float64 range, so that the certificate cannot be represented.
    """
    if not (0.0 < min_utility <= 1.0):
        raise NonPositiveInput(f"min_utility must lie in (0, 1], got {min_utility}")
    t = compute_t(cell_side, alpha)
    ratio = float(t / alpha)    # a Python float, whose ** raises OverflowError
    if math.isinf(ratio):
        raise BoundOverflow(f"t/alpha overflows float64 at cell_side={cell_side}, alpha={alpha}")
    try:
        disc = min_utility**2 - 1.0 + ratio**2
    except OverflowError:
        # ratio > 1.3e154, so eps^2 - 1 in (-1, 0] is below half an ulp of
        # ratio^2, and sqrt(disc) rounds to ratio itself.
        root = min_utility + ratio
    else:
        if disc < 0.0:
            raise InfeasibleBound(
                f"utility floor {min_utility} unreachable: eps^2 - 1 + t^2/alpha^2 = "
                f"{disc:.6g} < 0"
            )
        root = min_utility + math.sqrt(disc)
    beta = min(t, root)
    slack = max(root - 2.0 * min_utility, 0.0)
    return NormBoundCertificate(
        min_utility=min_utility,
        max_tuple_norm=alpha,
        cell_side=cell_side,
        scale_cap=t,
        slack=slack,
        frobenius_bound=beta,
    )


def _jl_denominator(gamma: float) -> float:
    s = math.sinh(gamma)
    return s * s - (2.0 / 3.0) * s * s * s


def jl_min_dimension(point_count: int, gamma: float) -> int:
    """Smallest projected dimension for which a uniform-subspace
    projection preserves all pairwise squared distances within e^{+-gamma}
    with probability at least one half."""
    check_gamma(gamma)
    if point_count < 2:
        raise ValueError("point_count must be at least 2")
    rhs = 9.0 * math.log(point_count) / _jl_denominator(gamma) + 1.0
    return int(math.ceil(rhs))


def nrp_equivalent_dimension(m1: int, gamma: float) -> int:
    """Dimension at which a bounded-entry projection matches the
    preservation probability of a uniform-subspace projection to ``m1``.

    The closed form is
        floor[ ((m1-1)(sinh^2 g - 2/3 sinh^3 g) - 2 ln m1)
               / (sinh^2 g - sinh^3 g) ],
    capped at m1 so the result never exceeds the reference dimension.
    Raises NonPositiveResult when the formula yields less than 1.
    """
    check_gamma(gamma)
    if m1 < 2:
        raise ValueError("m1 must be at least 2")
    s = math.sinh(gamma)
    numer = (m1 - 1) * _jl_denominator(gamma) - 2.0 * math.log(m1)
    denom = s * s - s * s * s
    value = math.floor(numer / denom)
    if value < 1:
        raise NonPositiveResult(
            f"equivalent dimension is nonpositive for m1={m1}, gamma={gamma}"
        )
    return min(value, m1)
