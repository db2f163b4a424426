import math

import numpy as np
import pytest

from privsan.bounds import (
    GridSpec,
    compute_norm_bound,
    compute_t,
    jl_min_dimension,
    nrp_equivalent_dimension,
)
from privsan.errors import (
    BoundOverflow,
    GammaOutOfRange,
    InfeasibleBound,
    NonPositiveInput,
    NonPositiveResult,
)
from privsan.rng import Rng
from privsan.simulate import ExperimentConfig, make_grid


def jl_rhs(n_points: int, gamma: float) -> float:
    s = math.sinh(gamma)
    return 9 * math.log(n_points) / (s * s - 2 * s**3 / 3) + 1


def equivalent_rhs(m1: int, gamma: float) -> float:
    s = math.sinh(gamma)
    return ((m1 - 1) * (s * s - 2 * s**3 / 3) - 2 * math.log(m1)) / (s * s - s**3)


class TestGridSpec:
    def test_make_grid_cell_side(self):
        cfg = ExperimentConfig(cell_fraction=0.25)
        assert make_grid(cfg, 2.0).cell_side == 0.5
        assert make_grid(cfg).cell_side == 0.25

    def test_invalid(self):
        for side in (0.0, -1.0, math.nan):
            with pytest.raises(NonPositiveInput):
                GridSpec(side)


class TestComputeT:
    def test_direct_substitution(self):
        assert compute_t(1.0, 10.0) == pytest.approx(1.1, abs=1e-15)
        assert compute_t(0.5, 0.5) == pytest.approx(2.0, abs=1e-15)
        assert compute_t(2.0, 50.0) == pytest.approx(1.04, abs=1e-15)

    def test_nonpositive(self):
        with pytest.raises(NonPositiveInput):
            compute_t(0.0, 1.0)
        with pytest.raises(NonPositiveInput):
            compute_t(1.0, -2.0)


class TestNormBound:
    def test_cap_side_wins(self):
        cert = compute_norm_bound(0.99, 0.1, 1.0)
        root = 0.99 + math.sqrt(0.99**2 - 1 + 1.1**2)
        assert root == pytest.approx(2.0809, abs=1e-3)
        assert cert.scale_cap == pytest.approx(1.1, abs=1e-15)
        assert cert.frobenius_bound == pytest.approx(1.1, abs=1e-15)
        assert cert.slack == pytest.approx(root - 2 * 0.99, abs=1e-12)

    def test_infeasible(self):
        # eps^2 - 1 + t^2/alpha^2 = 0.25 - 1 + 0.0121 < 0
        with pytest.raises(InfeasibleBound):
            compute_norm_bound(0.5, 1.0, 10.0)

    def test_degenerate_alpha_equals_cap(self):
        # alpha = t forces t = alpha: with alpha = 2, cell = 2. Root is
        # eps + sqrt(eps^2) = 2 at eps = 1.
        cert = compute_norm_bound(1.0, 2.0, 2.0)
        assert cert.scale_cap == pytest.approx(2.0, abs=1e-15)
        assert cert.frobenius_bound == pytest.approx(2.0, abs=1e-12)

    def test_feasible_region_properties(self):
        gen = Rng(31).generator
        seen = 0
        while seen < 10_000:
            eps = gen.uniform(0.05, 1.0)
            cell = gen.uniform(0.01, 2.0)
            alpha = gen.uniform(0.1, 3.0)
            t = cell / alpha + 1
            if eps**2 - 1 + (t / alpha) ** 2 < 0:
                continue
            cert = compute_norm_bound(eps, cell, alpha)
            assert 0 < cert.frobenius_bound <= cert.scale_cap + 1e-15
            assert cert.frobenius_bound <= 2 * eps + cert.slack + 1e-12
            assert cert.slack >= 0
            seen += 1

    def test_huge_ratio_gives_the_formula_without_overflow(self):
        # (t / alpha)^2 = 1e400 is past float64, but the root is not:
        # sqrt(eps^2 - 1 + 1e400) rounds to 1e200.
        cert = compute_norm_bound(0.5, 1e200, 1.0)
        assert cert.scale_cap == 1e200
        assert cert.frobenius_bound == 1e200
        assert cert.slack == 1e200 + 0.5 - 1.0
        # Just below the overflow the squared route keeps its bits.
        cell = 1e154
        ratio = cell + 1.0
        cert = compute_norm_bound(0.5, cell, 1.0)
        assert cert.slack == 0.5 + math.sqrt(0.5**2 - 1.0 + ratio**2) - 1.0

    def test_nan_cell_side_or_alpha_raises(self):
        # A NaN would otherwise pass every comparison and give a NaN bound.
        for cell, alpha in ((math.nan, 1.0), (0.1, math.nan)):
            with pytest.raises(NonPositiveInput):
                compute_norm_bound(0.5, cell, alpha)

    def test_unrepresentable_bound_raises(self):
        # t / alpha = (1e300 / 1e-10 + 1) / 1e-10 is past float64.
        for cell, alpha in ((1e300, 1e-10), (5e307, 0.5)):
            with pytest.raises(BoundOverflow):
                compute_norm_bound(0.5, cell, alpha)

    def test_monotone_in_utility_floor(self):
        cell, alpha = 0.3, 1.0
        betas = [compute_norm_bound(e, cell, alpha).frobenius_bound
                 for e in np.linspace(0.2, 1.0, 30)]
        assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(betas, betas[1:]))


class TestJlMinDimension:
    def test_reference_value(self):
        assert jl_min_dimension(100, 0.2) == 1182

    def test_small_case_matches_substitution(self):
        assert jl_min_dimension(2, 0.4) == math.ceil(jl_rhs(2, 0.4))

    def test_gamma_bounds(self):
        with pytest.raises(GammaOutOfRange):
            jl_min_dimension(10, 0.405)
        with pytest.raises(GammaOutOfRange):
            jl_min_dimension(10, 0.0)

    def test_monotone(self):
        gammas = np.linspace(0.05, 0.4, 20)
        dims = [jl_min_dimension(100, g) for g in gammas]
        assert all(d2 <= d1 for d1, d2 in zip(dims, dims[1:]))
        counts = [2, 10, 100, 1000]
        dims_n = [jl_min_dimension(c, 0.2) for c in counts]
        assert all(d2 >= d1 for d1, d2 in zip(dims_n, dims_n[1:]))


class TestEquivalentDimension:
    def test_reference_value(self):
        assert nrp_equivalent_dimension(1182, 0.2) == 843
        assert math.floor(equivalent_rhs(1182, 0.2)) == 843

    def test_tiny_m1_nonpositive(self):
        with pytest.raises(NonPositiveResult):
            nrp_equivalent_dimension(2, 0.3)

    def test_never_exceeds_reference(self):
        for m1 in (2, 10, 100, 1000, 10_000, 100_000):
            for gamma in np.linspace(0.01, 0.40, 100):
                try:
                    m2 = nrp_equivalent_dimension(m1, float(gamma))
                except NonPositiveResult:
                    continue
                assert m2 <= m1

    def test_cap_engages_where_formula_overshoots(self):
        # At large m1 and large gamma the closed form exceeds m1; the
        # operation guarantees the reference dimension is never exceeded.
        assert equivalent_rhs(100_000, 0.40) > 100_000
        assert nrp_equivalent_dimension(100_000, 0.40) == 100_000

    def test_gamma_bounds(self):
        with pytest.raises(GammaOutOfRange):
            nrp_equivalent_dimension(100, 0.41)
