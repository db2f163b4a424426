import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from privsan import metrics
from privsan.errors import (
    DimensionMismatch,
    EmptyDataset,
    GammaOutOfRange,
    InsufficientPoints,
    ZeroNormInput,
)
from privsan.metrics import (
    KNN_BLOCK,
    breach_count,
    displacement,
    distance_preservation_fraction,
    knn_indices,
    knn_overlap,
    knn_peak_bytes,
    resemblance,
    utility,
    zero_pad,
)
from privsan.rng import Rng
from privsan.sanitize import DataTuple, SanitizedTuple
from privsan.simulate import ExperimentConfig, generate_synthetic


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

    def test_k_must_be_positive(self):
        pts = Rng(19).standard_normal((6, 2))
        for k in (0, -1):
            with pytest.raises(ValueError):
                resemblance(pts, pts, k=k)

    def test_lattice_ties_across_blocks(self):
        # Small integer lattices give exact, heavily tied distances (many
        # duplicate points), so ties straddle the k-th neighbour in most
        # rows; the point count spans two full row blocks and one row.
        # Scaled by 2**-560 every squared distance of the raw cloud
        # underflows to 0, and by 2**520 it overflows; the sets must not
        # move, and no floating-point warning may come out.
        n = 2 * KNN_BLOCK + 1
        gen = Rng(16).generator
        for side, dim, k in ((3, 3, 10), (5, 2, 25), (4, 3, 1)):
            actual = gen.integers(0, side, (n, dim))
            recon = actual + gen.integers(-1, 2, (n, dim))
            expected = np.mean([len(a & b) / k for a, b in zip(
                oracle_knn_exact(actual, k), oracle_knn_exact(recon, k))])
            for exponent in (0, -560, -140, 100, 520):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    found = resemblance(np.ldexp(actual.astype(float), exponent),
                                        np.ldexp(recon.astype(float), exponent), k)
                assert found == pytest.approx(expected, abs=1e-12), (side, dim, k, exponent)

    def test_zero_spread_keeps_the_lowest_indices(self):
        # All rows equal: the centred cloud is 0, which no power of two
        # scales, and every distance ties at 0.
        for n, k in ((KNN_BLOCK + 5, 10), (12, 11)):
            for row in ([0.0, 0.0], [3.0, -1.0], [2.0**-600, 2.0**-601], [2.0**600, 1.0]):
                found = knn_indices(np.tile(row, (n, 1)), k)
                for i, neighbours in enumerate(found.tolist()):
                    assert sorted(neighbours) == [j for j in range(k + 1) if j != i][:k], (row, i)

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

    def test_knn_indices_holds_row_blocks_and_its_result(self):
        # One float32 (KNN_BLOCK x N) screen buffer, the cloud's float64
        # and float32 copies and the temporaries of one block, then the
        # candidates' distances, plus the N x k result; an N x N distance
        # matrix would be 16x this bound at N = 8,000.
        k, peaks = 10, []
        for n in (4000, 8000):
            pts = Rng(19).generator.standard_normal((n, 50))
            tracemalloc.start()
            try:
                knn_indices(pts, k)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert peaks[-1] < 3 * KNN_BLOCK * n * 8 + n * k * 8, (n, peaks)
        assert peaks[1] < 2.2 * peaks[0], peaks

    def test_full_rows_are_computed_in_bounded_batches(self):
        # A tight cluster and one point a million spreads away: the outlier
        # sets the float32 screen's scale, so every row takes its full row.
        # Those distances are held a batch at a time, never as (N x N).
        k, n = 10, 8000
        cloud = Rng(23).generator.standard_normal((n, 50)) * 1e-3
        cloud[0] = 1e3
        tracemalloc.start()
        try:
            found = knn_indices(cloud, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * KNN_BLOCK * n * 8 + n * k * 8, peak
        sample = np.arange(0, n, 397)
        d = ((cloud[sample, None, :] - cloud[None, :, :]) ** 2).sum(axis=2)
        d[np.arange(sample.size), sample] = np.inf
        for i, row in zip(sample, d):
            assert set(found[i]) == set(np.argsort(row, kind="stable")[:k]), i

    def test_tied_full_rows_stay_within_the_peak_estimate(self):
        # An integer lattice and one far point: every row takes its full
        # row and most tie at their k-th distance.  The bound is the
        # kernel's own count, which simulate.peak_bytes adds to a round's.
        k, n, dim = 10, 4000, 50
        cloud = Rng(27).generator.integers(0, 3, (n, dim)).astype(float)
        cloud[0] = 1e6
        tracemalloc.start()
        try:
            knn_indices(cloud, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= knn_peak_bytes(n, dim, k), peak

    def test_blocks_mixing_screened_and_full_rows(self):
        # Half the points sit 1e-9 apart around the origin, below the
        # float32 screen's resolution at the normal points' scale, so they
        # take the full-row route; shuffled, every block holds both kinds.
        k = 5
        gen = Rng(24).generator
        cloud = np.concatenate([gen.standard_normal((300, 6)),
                                gen.standard_normal((300, 6)) * 1e-9])[gen.permutation(600)]
        y = np.ldexp(cloud, -metrics._exponent(cloud))
        copies = metrics._float32_cloud(y, np.sum(y * y, axis=1), k)
        buf = np.empty(KNN_BLOCK * len(copies[1]), dtype=np.float32)
        for lo in range(0, len(cloud), KNN_BLOCK):
            rows, _, full = metrics._screen(np.arange(lo, min(lo + KNN_BLOCK, len(cloud))), k,
                                            copies, buf)
            assert rows.size and full.size
        d = ((cloud[:, None, :] - cloud[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d, np.inf)
        expected = np.argsort(d, axis=1, kind="stable")[:, :k]
        found = knn_indices(cloud, k)
        for i in range(len(cloud)):
            assert set(found[i]) == set(expected[i]), i

    def test_resemblance_is_the_overlap_of_both_clouds_indices(self):
        gen = Rng(20).generator
        pts = gen.standard_normal((2 * KNN_BLOCK + 3, 4))
        rec = pts + gen.standard_normal(pts.shape)
        ia, ir = knn_indices(pts, 6), knn_indices(rec, 6)
        assert ia.shape == (len(pts), 6)
        assert knn_overlap(ia, ir) == resemblance(pts, rec, 6)
        assert knn_overlap(ia, ia) == 1.0

    @settings(max_examples=80, deadline=None, database=None)
    @given(hst.data())
    def test_integer_clouds_match_exact_oracle(self, data):
        # A wide coordinate range leaves no ties; a range of 2-5 ties the
        # k-th distance in most rows, and its many duplicates send rows to
        # the full-row route.  At 2**24 + 1 float32 cannot hold the
        # coordinates, so only the screen's margin keeps the true
        # neighbours among the candidates; with dim <= 3 every squared
        # distance stays below 2**53, so float64 holds it exactly.
        # N runs from k + 1 across the group-grid and row-block boundaries.
        k = data.draw(hst.integers(1, 30), label="k")
        n = data.draw(hst.one_of(
            hst.just(k + 1),
            hst.integers(k + 1, 2 * KNN_BLOCK + 2),
            hst.sampled_from([KNN_BLOCK - 1, KNN_BLOCK, KNN_BLOCK + 1, 2 * KNN_BLOCK + 1])
            .map(lambda size: max(size, k + 1))), label="n")
        side = data.draw(hst.sampled_from([2, 3, 5, 10**6, 2**24 + 1]), label="side")
        dim = data.draw(hst.integers(1, 3), label="dim")
        gen = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        actual = gen.integers(0, side, (n, dim))
        recon = actual + gen.integers(-side // 2, side // 2 + 1, (n, dim))
        expected = np.mean([len(a & b) / k for a, b in zip(
            oracle_knn_exact(actual, k), oracle_knn_exact(recon, k))])
        assert resemblance(actual.astype(float), recon.astype(float), k) == expected

    def test_overlap_refuses_arrays_that_are_not_2d(self):
        with pytest.raises(DimensionMismatch):
            knn_overlap(np.zeros(3, dtype=np.intp), np.zeros(3, dtype=np.intp))

    def test_overlap_refuses_shapes_that_differ(self):
        for other in ((3, 3), (4, 2)):
            with pytest.raises(DimensionMismatch):
                knn_overlap(np.zeros((3, 2), dtype=np.intp), np.zeros(other, dtype=np.intp))

    def test_overlap_refuses_zero_rows(self):
        with pytest.raises(EmptyDataset):
            knn_overlap(np.zeros((0, 2), dtype=np.intp), np.zeros((0, 2), dtype=np.intp))


def pivot_routed(cloud, k):
    """Rows of ``cloud`` whose kNN sets the pivot route finds."""
    y = np.ldexp(cloud, -metrics._exponent(cloud))
    sq = np.sum(y * y, axis=1)
    out = np.empty((len(cloud), k), dtype=np.intp)
    dense = metrics._pivot_route(y, sq, k, metrics._float32_cloud(y, sq, k), out)
    return np.setdiff1d(np.arange(len(cloud)), dense)


def screened_only(cloud, k, monkeypatch):
    """``knn_indices`` with every row sent to the float32 screen."""
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_pivot_route", lambda y, *args: np.arange(len(y)))
        return knn_indices(cloud, k)


class TestPivotRoute:
    """Which rows the pivot route takes, counted without timing; the
    arrays must equal the screen's, row for row."""

    def test_agent_major_round_takes_the_pivot_route(self, monkeypatch):
        cloud = generate_synthetic(ExperimentConfig(agent_count=60), Rng(3).child(0)).values
        assert cloud.shape == (3000, 50)
        assert pivot_routed(cloud, 10).size == len(cloud)
        assert np.array_equal(knn_indices(cloud, 10), screened_only(cloud, 10, monkeypatch))

    def test_gaussian_blob_takes_the_screen(self):
        cloud = Rng(25).generator.standard_normal((3000, 50))
        assert pivot_routed(cloud, 10).size == 0

    def test_half_clustered_cloud_splits_between_the_routes(self, monkeypatch):
        # An agent-major round and, beside it, a Gaussian blob of as many rows.
        rows = generate_synthetic(ExperimentConfig(agent_count=30), Rng(4).child(0)).values
        blob = Rng(26).generator.standard_normal(rows.shape) * 0.1 + 2.0
        cloud = np.concatenate([rows, blob])
        assert np.array_equal(pivot_routed(cloud, 10), np.arange(len(rows)))
        assert np.array_equal(knn_indices(cloud, 10), screened_only(cloud, 10, monkeypatch))

    @pytest.mark.parametrize("spread,screened", [(1e-5, (1, 299)), (1e-7, (300, 300))])
    def test_rows_that_rounding_decides_take_the_screen(self, spread, screened, monkeypatch):
        # Thirty far-apart clusters of 30 rows: twenty 0.1 wide and ten so
        # tight that rounding decides some of their rows' float64
        # distances (at 1e-5) or all of them (at 1e-7).  Those rows go to
        # the screen and get what the screen alone would give them.
        gen = Rng(28).generator
        cloud = np.repeat(gen.standard_normal((30, 5)) * 10, 30, axis=0)
        cloud += gen.standard_normal(cloud.shape) * np.repeat([0.1, spread], [600, 300])[:, None]
        routed = pivot_routed(cloud, 6)
        assert np.array_equal(routed[:600], np.arange(600))
        assert screened[0] <= len(cloud) - routed.size <= screened[1]
        assert np.array_equal(knn_indices(cloud, 6), screened_only(cloud, 6, monkeypatch))

    @settings(max_examples=100, deadline=None, database=None)
    @given(hst.data())
    def test_clustered_clouds_match_exact_oracle(self, data):
        # Integer clusters in a few far-apart groups: group corners
        # anywhere in [0, 2**24), cluster centres within a few spreads of
        # their corner and members within a spread of their centre.  After
        # centring, float32 resolves the cloud to about one unit, so the
        # clusters of a group sit at the edge of the rounding bound.  A
        # spread of 1 makes every member a duplicate and 2-3 an integer
        # lattice, which ties most rows at the k-th distance.  A cluster
        # holds one row, fewer than k rows or 4k-6k rows, in agent-major
        # or shuffled order, with or without one far outlier.  With
        # dim <= 3 and coordinates below 2**26 every float64 distance is
        # exact, so the lowest tied indices must win.
        k = data.draw(hst.integers(1, 5), label="k")
        dim = data.draw(hst.integers(1, 3), label="dim")
        count = data.draw(hst.sampled_from([56, 40, 8, 3, 2]), label="clusters")
        size = hst.sampled_from([6 * k, 5 * k, 4 * k, 6 * k, 1, max(1, k - 1)])
        sizes = data.draw(hst.lists(size, min_size=count, max_size=count), label="sizes")
        spread = data.draw(hst.sampled_from([1, 2, 3, 40]), label="spread")
        groups = data.draw(hst.sampled_from([count, 4, 1]), label="groups")
        gen = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        corners = gen.integers(0, 2**24, (groups, dim))[gen.integers(0, groups, count)]
        centres = corners + gen.integers(0, 8 * spread + 8, (count, dim))
        cloud = np.repeat(centres, sizes, axis=0) + gen.integers(0, spread, (sum(sizes), dim))
        if data.draw(hst.booleans(), label="outlier"):
            cloud = np.concatenate([cloud, np.full((1, dim), 2**25 + 2**24)])
        if data.draw(hst.booleans(), label="shuffled"):
            cloud = cloud[gen.permutation(len(cloud))]
        if len(cloud) <= k:
            return
        expected = [sorted(found) for found in oracle_knn_exact(cloud, k)]
        assert knn_indices(cloud.astype(float), k).tolist() == expected


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

    def test_memory_linear_in_points(self):
        peaks = []
        for n in (2000, 4000):
            gen = Rng(18).generator
            pts = gen.standard_normal((n, 50))
            proj = pts + 0.1 * gen.standard_normal((n, 50))
            tracemalloc.start()
            try:
                distance_preservation_fraction(pts, proj, 0.3)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 64 * 2**20, peaks
        assert peaks[1] < 2.5 * peaks[0], peaks

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
