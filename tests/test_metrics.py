import math
import tracemalloc

import numpy as np
import pytest

from privsan.errors import EmptyDataset, GammaOutOfRange, InsufficientPoints, ZeroNormInput
from privsan.metrics import (
    KNN_BLOCK,
    breach_count,
    displacement,
    distance_preservation_fraction,
    resemblance,
    utility,
    zero_pad,
)
from privsan.rng import Rng
from privsan.sanitize import DataTuple, SanitizedTuple


def dt(values, agent="a0"):
    return DataTuple(np.asarray(values, dtype=float), frozenset(), agent)


def st(values, agent="a0", tag="nrp"):
    return SanitizedTuple(np.asarray(values, dtype=float), agent, tag)


# --- independent brute-force oracles (plain python loops) -------------------

def oracle_breach(actual, recon, fraction):
    hits = 0
    for a, r in zip(actual, recon):
        dist = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, r)))
        radius = fraction * math.sqrt(sum(x * x for x in a))
        hits += 1 if dist <= radius else 0
    return hits / len(actual)


def oracle_displacement(actual, recon):
    total = 0.0
    for a, r in zip(actual, recon):
        total += math.sqrt(sum((x - y) ** 2 for x, y in zip(a, r)))
    return total / len(actual)


def oracle_knn(cloud, k):
    sets = []
    for i, p in enumerate(cloud):
        dists = []
        for j, q in enumerate(cloud):
            if i == j:
                continue
            dists.append((sum((x - y) ** 2 for x, y in zip(p, q)), j))
        dists.sort()
        sets.append({j for _, j in dists[:k]})
    return sets


def oracle_resemblance(actual, recon, k):
    sa = oracle_knn(actual, k)
    sr = oracle_knn(recon, k)
    return sum(len(a & b) / k for a, b in zip(sa, sr)) / len(actual)


def oracle_knn_exact(cloud, k):
    """kNN sets of an integer cloud from exact integer distances; a
    stable sort keeps tied points in index order."""
    d = ((cloud[:, None, :] - cloud[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d, d.max() + 1)
    return [set(row[:k].tolist()) for row in np.argsort(d, axis=1, kind="stable")]


def oracle_preservation(points, projected, gamma):
    n = len(points)
    inside = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            d0 = sum((x - y) ** 2 for x, y in zip(points[i], points[j]))
            d1 = sum((x - y) ** 2 for x, y in zip(projected[i], projected[j]))
            total += 1
            if math.exp(-gamma) * d0 <= d1 <= math.exp(gamma) * d0:
                inside += 1
    return inside / total


class TestUtility:
    def test_identity_perfect(self):
        y = dt([1.0, 2.0, 3.0])
        score = utility(y, st(y.values, tag="identity"), same_quadrant=True)
        assert score.utility == 1.0
        assert score.privacy == 0.0

    def test_support_projection(self):
        y = dt([3.0, 4.0, 5.0])
        score = utility(y, st([3.0, 4.0]))
        expected = 5.0 / math.sqrt(50.0)  # |t| / |y|
        assert score.utility == pytest.approx(expected, abs=1e-12)

    def test_orthogonal_direction(self):
        y = dt([1.0, 0.0, 0.0])
        score = utility(y, st([0.0, 1.0]))
        assert score.utility == 0.0
        assert score.privacy == 1.0

    def test_complement_exact(self):
        gen = Rng(1).generator
        for _ in range(200):
            y = dt(gen.uniform(0.1, 1.0, 6))
            s = st(gen.uniform(0.1, 1.0, 4))
            score = utility(y, s, same_quadrant=True)
            assert abs(score.utility + score.privacy - 1.0) <= 1e-15

    def test_scale_invariance(self):
        gen = Rng(2).generator
        for _ in range(100):
            y = gen.uniform(0.1, 1.0, 5)
            t = gen.uniform(0.1, 1.0, 3)
            c = gen.uniform(0.5, 4.0)
            u1 = utility(dt(y), st(t)).utility
            u2 = utility(dt(c * y), st(c * t)).utility
            assert u1 == pytest.approx(u2, abs=1e-12)

    def test_negative_cosine_flagged_not_clipped(self):
        y = dt([1.0, 0.0])
        score = utility(y, st([-1.0, 0.0]))
        assert score.utility == -1.0
        assert not score.in_range
        clipped = utility(y, st([-1.0, 0.0]), same_quadrant=True)
        assert clipped.utility == 0.0

    def test_zero_norm(self):
        with pytest.raises(ZeroNormInput):
            utility(dt([1.0, 1.0]), st([0.0, 0.0]))

    def test_pad_positions_are_trailing(self):
        assert np.array_equal(zero_pad(np.array([1.0, 2.0]), 4), [1, 2, 0, 0])


class TestBreachCount:
    def test_exact_recovery(self):
        pts = Rng(3).standard_normal((5, 3))
        assert breach_count(pts, pts.copy()) == 1.0

    def test_far_displacement(self):
        pts = Rng(4).standard_normal((5, 3))
        assert breach_count(pts, pts * 11.0) == 0.0

    def test_half_inside(self):
        actual = np.array([[10.0, 0.0], [10.0, 0.0], [10.0, 0.0], [10.0, 0.0]])
        recon = np.array([[10.5, 0.0], [11.0, 0.0], [15.0, 0.0], [20.0, 0.0]])
        # radii = 2; distances 0.5, 1, 5, 10 -> 2 inside
        assert breach_count(actual, recon, 0.2) == 0.5

    def test_monotone_in_radius(self):
        gen = Rng(5).generator
        actual = gen.standard_normal((40, 4)) + 3.0
        recon = actual + gen.standard_normal((40, 4))
        fractions = np.linspace(0.05, 2.0, 25)
        vals = [breach_count(actual, recon, f) for f in fractions]
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_absolute_mode(self):
        actual = np.array([[1.0, 0.0], [5.0, 0.0]])
        recon = np.array([[1.0, 0.4], [5.0, 0.6]])
        assert breach_count(actual, recon, absolute_radius=0.5) == 0.5

    def test_empty(self):
        with pytest.raises(EmptyDataset):
            breach_count([], [])


class TestDisplacement:
    def test_zero(self):
        pts = Rng(6).standard_normal((4, 2))
        assert displacement(pts, pts.copy()) == 0.0

    def test_three_four_five(self):
        assert displacement([[0.0, 0.0]], [[3.0, 4.0]]) == pytest.approx(5.0, abs=1e-15)

    def test_hand_mean(self):
        actual = [[0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]
        recon = [[1.0, 0.0], [1.0, 3.0], [2.0, 2.0]]
        assert displacement(actual, recon) == pytest.approx((1 + 2 + 2) / 3, abs=1e-15)

    def test_triangle_style_bound(self):
        gen = Rng(7).generator
        a = gen.standard_normal((30, 3))
        b = gen.standard_normal((30, 3))
        c = gen.standard_normal((30, 3))
        assert displacement(a, c) <= displacement(a, b) + displacement(b, c) + 1e-12


class TestResemblance:
    def test_identical_clouds(self):
        pts = Rng(8).standard_normal((20, 3))
        assert resemblance(pts, pts.copy(), k=4) == 1.0

    def test_scale_invariance(self):
        pts = Rng(9).standard_normal((25, 3))
        assert resemblance(pts, 2.0 * pts, k=5) == 1.0

    def test_scrambled_low(self):
        gen = Rng(10).generator
        pts = gen.standard_normal((40, 3))
        scrambled = gen.standard_normal((40, 3)) * 10.0
        r = resemblance(pts, scrambled, k=5)
        oracle = oracle_resemblance(pts.tolist(), scrambled.tolist(), 5)
        assert r == pytest.approx(oracle, abs=1e-12)
        assert r < 0.5

    def test_matches_oracle_random(self):
        gen = Rng(11).generator
        for trial in range(5):
            pts = gen.standard_normal((30, 4))
            rec = pts + 0.5 * gen.standard_normal((30, 4))
            assert resemblance(pts, rec, k=6) == pytest.approx(
                oracle_resemblance(pts.tolist(), rec.tolist(), 6), abs=1e-12)

    def test_tie_break_by_lower_index(self):
        # Points 1 and 2 are equidistant from point 0; the lower index wins.
        actual = np.array([[0.0], [1.0], [-1.0], [5.0]])
        recon = np.array([[0.0], [9.0], [1.0], [30.0]])
        r = resemblance(actual, recon, k=1)
        # actual neighbors: 0->1 (tie 1 vs 2), 1->0, 2->0, 3->1
        # recon  neighbors: 0->2, 1->2, 2->0, 3->1
        assert r == pytest.approx(2 / 4, abs=1e-15)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            resemblance(np.ones((3, 2)), np.ones((3, 2)), k=5)

    def test_lattice_ties_across_blocks(self):
        # Small integer lattices give exact, heavily tied distances (many
        # duplicate points), so ties straddle the k-th neighbour in most
        # rows; the point count spans two full row blocks and one row.
        n = 2 * KNN_BLOCK + 1
        gen = Rng(16).generator
        for side, dim, k in ((3, 3, 10), (5, 2, 25), (4, 3, 1)):
            actual = gen.integers(0, side, (n, dim))
            recon = actual + gen.integers(-1, 2, (n, dim))
            expected = np.mean([len(a & b) / k for a, b in zip(
                oracle_knn_exact(actual, k), oracle_knn_exact(recon, k))])
            assert resemblance(actual.astype(float), recon.astype(float), k) == \
                pytest.approx(expected, abs=1e-12), (side, dim, k)

    def test_memory_linear_in_points(self):
        peaks = []
        for n in (2000, 4000):
            gen = Rng(17).generator
            pts = gen.standard_normal((n, 50))
            rec = pts + gen.standard_normal((n, 50))
            tracemalloc.start()
            try:
                resemblance(pts, rec, 10)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 64 * 2**20, peaks
        assert peaks[1] < 2.5 * peaks[0], peaks


class TestPreservationFraction:
    def test_identity_projection(self):
        pts = Rng(12).standard_normal((10, 4))
        assert distance_preservation_fraction(pts, pts.copy(), 0.2) == 1.0

    def test_boundary_exceeded(self):
        pts = Rng(13).standard_normal((8, 4))
        scaled = pts * math.exp(0.2)  # squared distances scale by e^{0.4}
        assert distance_preservation_fraction(pts, scaled, 0.2) == 0.0

    def test_matches_pair_oracle(self):
        gen = Rng(14).generator
        pts = gen.standard_normal((12, 5))
        proj = pts + 0.05 * gen.standard_normal((12, 5))
        mine = distance_preservation_fraction(pts, proj, 0.3)
        assert mine == pytest.approx(
            oracle_preservation(pts.tolist(), proj.tolist(), 0.3), abs=1e-12)

    def test_gamma_range(self):
        pts = np.ones((3, 2))
        with pytest.raises(GammaOutOfRange):
            distance_preservation_fraction(pts, pts, 0.5)


class TestOracleEquivalenceSuite:
    def test_twenty_random_datasets(self):
        root = Rng(15)
        for trial in range(20):
            gen = root.child(trial).generator
            count = int(gen.integers(15, 51))
            dim = int(gen.integers(2, 6))
            actual = gen.standard_normal((count, dim)) + 2.0
            recon = actual + gen.standard_normal((count, dim))
            assert breach_count(actual, recon, 0.2) == pytest.approx(
                oracle_breach(actual.tolist(), recon.tolist(), 0.2), abs=1e-12)
            assert displacement(actual, recon) == pytest.approx(
                oracle_displacement(actual.tolist(), recon.tolist()), abs=1e-12)
            assert resemblance(actual, recon, 10) == pytest.approx(
                oracle_resemblance(actual.tolist(), recon.tolist(), 10), abs=1e-12)
