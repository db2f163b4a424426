import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsan import rng as rng_module
from privsan import sanitize
from privsan.bounds import compute_norm_bound
from privsan.errors import DegenerateMatrix, DimensionMismatch, InsufficientData, RankDeficient
from privsan.linalg import cosine, frobenius_norm, matvec_rows, orthonormalize
from privsan.metrics import distance_preservation_fraction, zero_pad
from privsan.rng import Rng
from privsan.sanitize import (
    DataTuple,
    SAMPLE_RETRIES,
    EntryDistribution,
    ProjectionMatrix,
    bounded_projection,
    fit_pca,
    sample_bounded_matrices,
    sample_bounded_matrix,
    sample_orthonormal_matrix,
    sanitize_identity,
    sanitize_nrp,
)
from privsan.verify import bounded_projection_for_check, subspace_projection_for_check
from test_rng import run_in_threads

CERT = compute_norm_bound(0.5, 0.1, 1.0)
# Each bounded entry distribution draws iid Uniform[low, high) entries.
ENTRY_SUPPORT = {EntryDistribution.UNIT_UNIFORM: (0.0, 1.0),
                 EntryDistribution.SYMMETRIC_UNIFORM: (-1.0, 1.0)}


def dt(values, private=(), agent="a0"):
    return DataTuple(np.asarray(values, dtype=float), frozenset(private), agent)


class TestProjectionMatrixInvariants:
    def test_certificate_norm_enforced(self):
        # The norm is measured from the matrix: sqrt(3) misses the bound.
        with pytest.raises(ValueError):
            ProjectionMatrix(np.eye(3), CERT)
        scaled = np.eye(3) * (CERT.frobenius_bound / np.sqrt(3))
        assert ProjectionMatrix(scaled, CERT).matrix.tobytes() == scaled.tobytes()

    def test_bounded_projection_meets_certificate(self):
        p = bounded_projection(10, 4, CERT, Rng(1))
        assert abs(frobenius_norm(p.matrix) - CERT.frobenius_bound) < 1e-12

    def test_bounded_projection_checks_the_measured_norm(self, monkeypatch):
        # A draw whose norm misses the bound by 1e-9 must not pass as
        # certified.
        def off_by_1e9(count, n, m, distribution, rng, betas=None):
            a = sample_bounded_matrices(count, n, m, distribution, rng, betas)
            return a * ((betas + 1e-9) / betas)[:, None, None]

        monkeypatch.setattr(sanitize, "sample_bounded_matrices", off_by_1e9)
        with pytest.raises(ValueError):
            bounded_projection(10, 4, CERT, Rng(1))


class TestNrp:
    def test_zero_vector_maps_to_zero(self):
        out = sanitize_nrp(dt(np.zeros(6)), 3, CERT, Rng(2))
        assert np.allclose(out.values, 0.0)

    def test_output_length(self):
        out = sanitize_nrp(dt(Rng(3).uniform(0, 1, 50)), 20, CERT, Rng(4))
        assert out.values.size == 20

    def test_two_dim_hand_product(self):
        rng = Rng(5)
        y = dt([0.3, 0.8])
        out = sanitize_nrp(y, 1, CERT, rng)
        # Replay the identical stream to recover the sampled entries.
        a = sample_bounded_matrix(2, 1, EntryDistribution.UNIT_UNIFORM, Rng(5))
        scale = CERT.frobenius_bound / np.sqrt(a[0, 0] ** 2 + a[1, 0] ** 2)
        expected = scale * (a[0, 0] * 0.3 + a[1, 0] * 0.8)
        assert out.values[0] == pytest.approx(expected, rel=1e-12)

    def test_freshness_across_child_streams(self):
        y = dt(Rng(6).uniform(0.1, 1, 20))
        root = Rng(7)
        outs = [sanitize_nrp(y, 5, CERT, root.child(i)).values for i in range(100)]
        for a, b in zip(outs, outs[1:]):
            assert not np.array_equal(a, b)

    def test_replay_linearity(self):
        y = np.array([0.2, 0.5, 0.9, 0.1])
        t1 = sanitize_nrp(dt(y), 2, CERT, Rng(8)).values
        t2 = sanitize_nrp(dt(3.0 * y), 2, CERT, Rng(8)).values
        assert np.allclose(t2, 3.0 * t1, atol=1e-12)

    def test_norm_bound_compliance_sample(self):
        gen = Rng(9).generator
        for i in range(100):
            eps = gen.uniform(0.3, 1.0)
            # cell = 0.2 * alpha gives scale cap 1.2 >= alpha, which keeps
            # every utility floor feasible.
            alpha = gen.uniform(0.5, 1.2)
            cert = compute_norm_bound(eps, 0.2 * alpha, alpha)
            p = bounded_projection(30, 10, cert, Rng(9).child(i))
            assert abs(frobenius_norm(p.matrix) - cert.frobenius_bound) < 1e-12

    def test_cosine_range_with_nonnegative_data(self):
        root = Rng(10)
        for i in range(50):
            y = root.child(i).uniform(0.0, 1.0, 12) + 0.01
            out = sanitize_nrp(dt(y), 5, CERT, root.child(1000 + i))
            c = cosine(y, zero_pad(out.values, 12))
            assert 0.0 <= c <= 1.0

    def test_rows_must_split_into_matrices(self):
        with pytest.raises(DimensionMismatch, match="5 rows"):
            sanitize.nrp(np.ones((5, 4)), 2, Rng(12), rows_per_matrix=2)

    def test_nan_row_raises(self):
        y = np.ones((3, 4))
        y[1, 2] = np.nan
        with pytest.raises(ValueError, match="finite"):
            sanitize.nrp(y, 2, Rng(13))

    def test_bad_target_dim(self):
        with pytest.raises(DimensionMismatch):
            sanitize_nrp(dt([1.0, 2.0]), 3, CERT, Rng(11))

    def test_replay_by_address(self):
        # The matrix behind a call is drawn again at the address of the
        # stream that drew it; that stream has drawn by the time it is read.
        t = dt(Rng(12).uniform(0.0, 1.0, 6))
        for certificate, distribution in ((CERT, EntryDistribution.UNIT_UNIFORM),
                                          (None, EntryDistribution.UNIT_UNIFORM),
                                          (CERT, EntryDistribution.SYMMETRIC_UNIFORM)):
            rng = Rng(12).child(3)
            out = sanitize_nrp(t, 4, certificate, rng, distribution)
            betas = None if certificate is None else [certificate.frobenius_bound]
            replayed = sample_bounded_matrices(1, 6, 4, distribution, Rng(rng.seed, rng.path),
                                               betas)[0]
            projected = matvec_rows(replayed.T[None], t.values[None])[0]
            assert projected.tobytes() == out.values.tobytes()
            assert out.mechanism_tag == ("nrp-unbounded" if certificate is None else "nrp")
            if distribution is EntryDistribution.UNIT_UNIFORM:
                matrix = bounded_projection(6, 4, certificate, Rng(rng.seed, rng.path)).matrix
                assert matrix.tobytes() == replayed.tobytes()


class TestNrpUnbounded:
    def test_zero_vector(self):
        out = sanitize_nrp(dt(np.zeros(4)), 2, None, Rng(13))
        assert np.allclose(out.values, 0.0)

    def test_shape(self):
        assert sanitize_nrp(dt(np.ones(9)), 4, None, Rng(14)).values.size == 4

    def test_two_dim_hand_product_no_scaling(self):
        y = dt([0.3, 0.8])
        out = sanitize_nrp(y, 1, None, Rng(15))
        a = sample_bounded_matrix(2, 1, EntryDistribution.UNIT_UNIFORM, Rng(15))
        expected = a[0, 0] * 0.3 + a[1, 0] * 0.8
        assert out.values[0] == pytest.approx(expected, rel=1e-12)


class ZeroedDraws:
    """A stream whose k-th uniform draw has the matrices ``zeroed[k]``
    set to zero; every draw still advances the wrapped stream."""

    def __init__(self, rng, zeroed):
        self.rng, self.zeroed = rng, list(zeroed)
        self.draws = 0

    def uniform(self, low, high, size):
        self.draws += 1
        draw = self.rng.uniform(low, high, size)
        if self.zeroed:
            draw[self.zeroed.pop(0)] = 0.0
        return draw


class TestBetas:
    # sample_bounded_matrices and nrp refuse the same betas: one per
    # matrix, each finite and positive.
    @staticmethod
    def draws(betas):
        yield lambda: sample_bounded_matrices(2, 3, 2, EntryDistribution.UNIT_UNIFORM,
                                              Rng(40), betas)
        yield lambda: sanitize.nrp(np.ones((2, 3)), 2, Rng(40), EntryDistribution.UNIT_UNIFORM,
                                   betas)

    @pytest.mark.parametrize("betas", [[1.0], [1.0, 1.0, 1.0], [[1.0, 1.0]]])
    def test_one_beta_per_matrix(self, betas):
        for draw in self.draws(betas):
            with pytest.raises(DimensionMismatch):
                draw()

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_betas_finite_and_positive(self, bad):
        for draw in self.draws([1.0, bad]):
            with pytest.raises(ValueError):
                draw()


class TestBoundedRedraws:
    def test_all_zero_matrix_is_redrawn_from_the_same_stream(self):
        a = sample_bounded_matrices(3, 4, 2, EntryDistribution.UNIT_UNIFORM,
                                    ZeroedDraws(Rng(30), [[1]]))
        stream = Rng(30)
        expected = stream.uniform(0.0, 1.0, (3, 4, 2))
        expected[1] = stream.uniform(0.0, 1.0, (1, 4, 2))[0]
        assert a.tobytes() == expected.tobytes()

    def test_all_zero_draws_give_up_after_the_retries(self):
        zeros = [[0]] * (SAMPLE_RETRIES - 1)
        assert sample_bounded_matrix(4, 2, EntryDistribution.SYMMETRIC_UNIFORM,
                                     ZeroedDraws(Rng(31), zeros)).any()
        with pytest.raises(DegenerateMatrix):
            sample_bounded_matrix(4, 2, EntryDistribution.SYMMETRIC_UNIFORM,
                                  ZeroedDraws(Rng(31), zeros + [[0]]))

    def test_every_draw_taken_is_checked(self):
        stream = ZeroedDraws(Rng(31), [[0]] * SAMPLE_RETRIES)
        with pytest.raises(DegenerateMatrix):
            sample_bounded_matrix(4, 2, EntryDistribution.SYMMETRIC_UNIFORM, stream)
        assert stream.draws == SAMPLE_RETRIES


class PlantedDraws:
    """A stream that zeroes the matrices at ``positions`` in the sequence
    of matrices its stacked draws yield, or with ``column`` only their
    first column, which makes a frame rank deficient; every draw still
    advances the wrapped stream."""

    def __init__(self, rng, positions, column=False):
        self.rng, self.positions, self.column = rng, positions, column
        self.seen = 0

    def _plant(self, draw):
        if draw.ndim == 3:
            hit = [p - self.seen for p in self.positions if 0 <= p - self.seen < len(draw)]
            if self.column:
                draw[hit, :, 0] = 0.0
            else:
                draw[hit] = 0.0
            self.seen += len(draw)
        return draw

    def uniform(self, low, high, size):
        return self._plant(self.rng.uniform(low, high, size))

    def standard_normal(self, size):
        return self._plant(self.rng.standard_normal(size))


def one_draw_asup(y, scale, private, rng):
    """asup from one draw of all the frames, redrawing deficient ones
    through ``orthonormalize``."""
    idx = sorted(private)
    k = idx[-1] + 1
    z = np.zeros((len(y), k))
    z[:, idx] = scale * rng.standard_normal((len(y), len(idx)))
    g = np.ascontiguousarray(rng.standard_normal((len(y),) + y.shape[1:] * 2)[:, :, :k])
    return y + matvec_rows(orthonormalize(g, rng), z)


class TestChunkedDraws:
    """nrp and asup draw ``DRAW_CHUNK`` entries at a time; the result and
    the stream are those of one draw."""

    CHUNK_BYTES = sanitize.DRAW_CHUNK * 8

    def test_nrp_redraws_zero_matrices_after_the_last_chunk(self):
        n, m, r = 50, 20, 2
        per = sanitize.DRAW_CHUNK // (n * m)
        count = 2 * per + 5    # three chunks
        planted = [1, count - 1]    # in the first chunk and in the last
        y = Rng(60).uniform(0.0, 1.0, (count * r, n))
        betas = Rng(61).uniform(0.1, 2.0, count)
        chunked = PlantedDraws(Rng(62), planted)
        out = sanitize.nrp(y, m, chunked, EntryDistribution.UNIT_UNIFORM, betas, r)
        whole = PlantedDraws(Rng(62), planted)
        a = sample_bounded_matrices(count, n, m, EntryDistribution.UNIT_UNIFORM, whole, betas)
        assert a[planted].all()    # redrawn
        assert out.tobytes() == matvec_rows(np.swapaxes(a, 1, 2), y).tobytes()
        assert chunked.rng.uniform(0.0, 1.0, 8).tobytes() == whole.rng.uniform(0.0, 1.0, 8).tobytes()

    def test_asup_redraws_deficient_frames_after_the_last_chunk(self):
        n, private = 50, range(12)
        per = sanitize.DRAW_CHUNK // (n * n)
        rows = 2 * per + 5
        planted = [0, rows - 1]
        y = Rng(63).uniform(0.0, 1.0, (rows, n))
        chunked = PlantedDraws(Rng(64), planted, column=True)
        out = sanitize.asup(y, 0.3, private, chunked)
        whole = PlantedDraws(Rng(64), planted, column=True)
        expected = one_draw_asup(y, 0.3, private, whole)
        assert whole.seen == rows + len(planted)    # the deficient frames were redrawn
        assert out.tobytes() == expected.tobytes()
        assert chunked.rng.standard_normal(8).tobytes() == whole.rng.standard_normal(8).tobytes()

    def test_nrp_memory_holds_a_few_chunks_of_draws(self):
        # Beyond the (rows x m) result, the peak is the chunk's draw and
        # the product's copy of it, at any row count.
        n, m = 50, 20
        extra = []
        for chunks in (4, 32):
            rows = chunks * (sanitize.DRAW_CHUNK // (n * m))
            y = Rng(65).uniform(0.0, 1.0, (rows, n))
            betas = np.full(rows, 0.7)
            rng = Rng(66)
            rng.generator
            tracemalloc.start()
            try:
                sanitize.nrp(y, m, rng, EntryDistribution.UNIT_UNIFORM, betas)
                extra.append(tracemalloc.get_traced_memory()[1] - rows * m * 8)
            finally:
                tracemalloc.stop()
        assert max(extra) < 3 * self.CHUNK_BYTES, extra

    def test_asup_memory_holds_a_few_chunks_of_draws(self):
        # Beyond the (rows x n) result and the (rows x k) noise, the peak
        # is the chunk's draw, its k columns and their QR, at any row count.
        n, k = 50, 12
        extra = []
        for chunks in (4, 32):
            rows = chunks * (sanitize.DRAW_CHUNK // (n * n))
            y = Rng(67).uniform(0.0, 1.0, (rows, n))
            rng = Rng(68)
            rng.generator
            tracemalloc.start()
            try:
                sanitize.asup(y, 0.3, range(k), rng)
                extra.append(tracemalloc.get_traced_memory()[1] - rows * (n + k) * 8)
            finally:
                tracemalloc.stop()
        assert max(extra) < 3 * self.CHUNK_BYTES, extra


class TestDistributionByValue:
    # EntryDistribution is a str enum, so its string values are accepted
    # wherever a member is, and mean the same distribution.
    def test_string_form_draws_on_unit_interval(self):
        a = sample_bounded_matrix(4, 3, "unit-uniform", Rng(32))
        assert np.all((a >= 0.0) & (a < 1.0))
        member = sample_bounded_matrix(4, 3, EntryDistribution.UNIT_UNIFORM, Rng(32))
        assert a.tobytes() == member.tobytes()
        y = np.ones((2, 4))
        by_value = sanitize.nrp(y, 3, Rng(33), "unit-uniform")
        by_member = sanitize.nrp(y, 3, Rng(33), EntryDistribution.UNIT_UNIFORM)
        assert by_value.tobytes() == by_member.tobytes()
        out = sanitize_nrp(dt(np.ones(4)), 3, CERT, Rng(34), "unit-uniform")
        assert out.values.tobytes() == sanitize_nrp(dt(np.ones(4)), 3, CERT, Rng(34)).values.tobytes()

    def test_unknown_string_raises(self):
        with pytest.raises(ValueError):
            sample_bounded_matrix(4, 3, "gaussian", Rng(35))
        with pytest.raises(ValueError):
            sanitize.nrp(np.ones((1, 4)), 3, Rng(35), "unit_uniform")
        with pytest.raises(ValueError):
            sanitize_nrp(dt(np.ones(4)), 3, CERT, Rng(35), "uniform")


class TestBrp:
    def test_coordinate_projection(self):
        out = sanitize.brp(np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]), np.eye(5)[:, :3])[0]
        assert np.allclose(out, [1, 2, 3])

    def test_contraction(self):
        p = sample_orthonormal_matrix(8, 3, Rng(16))
        y = Rng(17).standard_normal(8)
        out = sanitize.brp(y[None], p)[0]
        assert np.linalg.norm(out) <= np.linalg.norm(y) + 1e-12

    def test_hand_built_projection(self):
        s = 1 / np.sqrt(2)
        q = np.array([[s, s], [s, -s], [0.0, 0.0]])
        out = sanitize.brp(np.array([[1.0, 2.0, 7.0]]), q)[0]
        expected = [s * 1 + s * 2, s * 1 - s * 2]
        assert np.allclose(out, expected, atol=1e-12)


class TestPca:
    def test_line_data_first_component(self):
        direction = np.array([3.0, 4.0]) / 5.0
        pts = np.array([t * direction for t in (-2, -1, 1, 2)])
        comps = fit_pca(pts, 1)
        assert np.allclose(np.abs(comps[:, 0]), np.abs(direction), atol=1e-9)

    def test_isotropic_orthonormal(self):
        gen = Rng(19).generator
        pts = gen.standard_normal((200, 4))
        comps = fit_pca(pts, 3)
        assert np.abs(comps.T @ comps - np.eye(3)).max() < 1e-9

    def test_hand_covariance_components(self):
        a, b = 1.5, np.sqrt(0.75)
        pts = np.array([[a, a], [-a, -a], [b, -b], [-b, b]])
        comps = fit_pca(pts, 2)
        r2 = 1 / np.sqrt(2)
        assert np.allclose(comps[:, 0], [r2, r2], atol=1e-9)
        assert np.allclose(comps[:, 1], [r2, -r2], atol=1e-9)

    def test_mean_maps_to_zero(self):
        gen = Rng(20).generator
        pts = gen.standard_normal((30, 5)) + 4.0
        comps = fit_pca(pts, 2)
        mean = pts.mean(axis=0)
        out = sanitize.pca(mean[None], comps, mean)[0]
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_projection_oracle(self):
        gen = Rng(21).generator
        pts = gen.standard_normal((40, 4))
        comps = fit_pca(pts, 2)
        mean = pts.mean(axis=0)
        y = gen.standard_normal(4)
        out = sanitize.pca(y[None], comps, mean)[0]
        expected = [(y - mean) @ comps[:, j] for j in range(2)]
        assert np.allclose(out, expected, atol=1e-12)

    def test_components_are_descending_eigenvectors(self):
        gen = Rng(22).generator
        pts = gen.standard_normal((60, 6)) * np.array([6.0, 5.0, 4.0, 3.0, 2.0, 1.0])
        comps = fit_pca(pts, 6)
        centered = pts - pts.mean(axis=0)
        cov = centered.T @ centered / (len(pts) - 1)
        w = np.diag(comps.T @ cov @ comps)
        assert np.all(np.diff(w) < 0)
        assert np.abs(cov @ comps - comps * w).max() < 1e-9 * w[0]

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            fit_pca(np.array([[1.0, 2.0]]), 1)

    def test_overflowing_covariance_rejected(self):
        # The covariance of data near +-1e200 overflows to inf; the
        # eigensolver would return NaN without raising.
        pts = np.array([[1e200, -1e200], [-1e200, 1e200], [1e200, 1e200]])
        with np.errstate(over="ignore"), pytest.raises(ValueError):
            fit_pca(pts, 1)


class TestAsup:
    def test_zero_noise_identity(self):
        y = np.array([[1.0, 2.0, 3.0]])
        out = sanitize.asup(y, 0.0, {0, 1}, Rng(22))
        assert np.array_equal(out, y)

    def test_dimension_preserved(self):
        assert sanitize.asup(np.ones((1, 7)), 0.5, {0, 1, 2}, Rng(23)).shape == (1, 7)

    @pytest.mark.parametrize("private", [{-1}, {0, -2}, {7}, {2, 9}])
    def test_private_index_out_of_range_raises(self, private):
        # k = max(private) + 1 sizes the rotation, and a negative index
        # would wrap to the last coordinates.
        for scale in (0.5, 0.0):
            with pytest.raises(ValueError, match="private indices"):
                sanitize.asup(np.ones((2, 7)), scale, private, Rng(36))

    def test_moment_oracle(self):
        # E|out - in|^2 = scale^2 * |private| since the rotation is
        # norm preserving.
        scale, private = 0.3, {0, 1, 2, 3}
        y = np.ones((1, 6))
        root = Rng(24)
        sq = [np.sum((sanitize.asup(y, scale, private, root.child(i)) - y) ** 2)
              for i in range(10_000)]
        expected = scale**2 * len(private)
        assert np.mean(sq) == pytest.approx(expected, rel=0.05)


class TestIdentity:
    def test_passthrough(self):
        y = dt([5.0, 6.0])
        out = sanitize_identity(y)
        assert np.array_equal(out.values, y.values)
        assert out.mechanism_tag == "identity"


class TestPreservationPaths:
    def test_subspace_unbiased_scaling(self):
        rng = Rng(25)
        pts = rng.standard_normal((40, 60))
        proj = subspace_projection_for_check(pts, 30, rng.child(0))
        ratio = np.linalg.norm(proj, axis=1) ** 2 / np.linalg.norm(pts, axis=1) ** 2
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.15)

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.integers(1, 20), st.integers(0, 20), st.integers(1, 8),
           st.integers(0, 2**32 - 1))
    def test_subspace_check_is_the_sign_fixed_frame(self, m, extra, points, seed):
        # x Q D from R alone equals the product with the formed frame that
        # sample_orthonormal_matrix draws from the same stream, to within
        # the triangular solve's rounding, which grows with cond(R).
        n = m + extra
        x = Rng(seed).child(0).standard_normal((points, n))
        proj = subspace_projection_for_check(x, m, Rng(seed).child(1))
        formed = x @ sample_orthonormal_matrix(n, m, Rng(seed).child(1)) * np.sqrt(n / m)
        cond = np.linalg.cond(Rng(seed).child(1).standard_normal((n, m)))
        scale = np.sqrt(n / m) * np.linalg.norm(x, axis=1, keepdims=True)
        assert np.all(np.abs(proj - formed) <= 8 * np.finfo(float).eps * n * cond * scale)

    def test_subspace_check_redraws_a_rank_deficient_frame(self):
        # A zeroed Gaussian draw fails the rank test on diag(R) and is
        # redrawn from the same stream, as sample_orthonormal_matrix does.
        class ZeroedNormals:
            def __init__(self, rng, zeroed):
                self.rng, self.zeroed = rng, zeroed

            def standard_normal(self, size):
                draw = self.rng.standard_normal(size)
                if self.zeroed:
                    self.zeroed -= 1
                    draw[..., -1] = 0.0
                return draw

        x = Rng(37).standard_normal((3, 8))
        proj = subspace_projection_for_check(x, 4, ZeroedNormals(Rng(38), 2))
        formed = x @ sample_orthonormal_matrix(8, 4, ZeroedNormals(Rng(38), 2)) * np.sqrt(2.0)
        np.testing.assert_allclose(proj, formed, rtol=0, atol=1e-12)
        with pytest.raises(RankDeficient):
            subspace_projection_for_check(x, 4, ZeroedNormals(Rng(38), 9))

    def test_bounded_unbiased_scaling(self):
        rng = Rng(26)
        pts = rng.standard_normal((40, 60))
        proj = bounded_projection_for_check(pts, 200, rng.child(0))
        ratio = np.linalg.norm(proj, axis=1) ** 2 / np.linalg.norm(pts, axis=1) ** 2
        assert np.mean(ratio) == pytest.approx(1.0, abs=0.15)

    @settings(max_examples=40, deadline=None, database=None)
    @given(st.sampled_from(EntryDistribution), st.integers(1, 30), st.integers(1, 30),
           st.integers(0, 2**32 - 1))
    def test_bounded_check_is_variance_normalized(self, distribution, n, m, seed):
        # Projecting the identity returns the matrix.  Its entries are the
        # sampled bounded entries, centered and scaled to unit variance by
        # the distribution's own moments, then divided by sqrt(m); so each
        # entry has mean 0 and variance 1/m, and E|xA|^2 = |x|^2
        # (Achlioptas, JCSS 2003).
        low, high = ENTRY_SUPPORT[distribution]
        raw = sample_bounded_matrix(n, m, distribution, Rng(seed))
        assert np.all((raw >= low) & (raw < high))
        a = bounded_projection_for_check(np.eye(n), m, Rng(seed), distribution)
        standard = (raw - (low + high) / 2) / ((high - low) / math.sqrt(12))
        np.testing.assert_allclose(a * math.sqrt(m), standard, rtol=1e-12, atol=1e-12)
        # 20,000 standardized entries: mean 0 and variance 1 within six
        # standard errors (a uniform's z^2 has variance 4/5).
        z = bounded_projection_for_check(np.eye(200), 100, Rng(seed), distribution) * 10.0
        assert abs(z.mean()) < 6 * math.sqrt(1 / z.size)
        assert abs(z.var() - 1.0) < 6 * math.sqrt(0.8 / z.size)

    def test_preservation_fraction_above_half_small(self):
        # Miniature version of the full verification run.
        gamma, n_points = 0.3, 40
        from privsan.bounds import jl_min_dimension
        m = jl_min_dimension(n_points, gamma)
        rng = Rng(27)
        pts = rng.standard_normal((n_points, 2 * m))
        f_sub = distance_preservation_fraction(
            pts, subspace_projection_for_check(pts, m, rng.child(0)), gamma)
        f_bnd = distance_preservation_fraction(
            pts, bounded_projection_for_check(pts, m, rng.child(1)), gamma)
        assert f_sub >= 0.5
        assert f_bnd >= 0.5


class GeneratorDraws:
    """A stream drawing straight from numpy's generator for ``(seed,
    path)``, built the plain way: the draws the stream had at the
    parent, whatever route ``Rng`` takes."""

    def __init__(self, seed, path):
        self.gen = np.random.Generator(
            np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))

    def uniform(self, low, high, size):
        return self.gen.uniform(low, high, size)


def projected(t, m, certificate, stream, distribution=EntryDistribution.UNIT_UNIFORM):
    """sanitize_nrp's values for the matrix ``stream`` draws next."""
    betas = None if certificate is None else [certificate.frobenius_bound]
    a = sample_bounded_matrices(1, t.values.size, m, distribution, stream, betas)[0]
    return matvec_rows(a.T[None], t.values[None])[0]


@pytest.mark.filterwarnings("error")
class TestKeyedFirstDraw:
    """sanitize_nrp on a fresh stream takes its matrix from the stream's
    key; the stream's later draws continue after the matrix."""

    T = dt(Rng(70).uniform(0.0, 1.0, 50))

    @pytest.mark.parametrize("certificate", [CERT, None])
    @pytest.mark.parametrize("distribution", list(EntryDistribution))
    def test_the_next_draw_continues_after_the_matrix(self, certificate, distribution):
        r = Rng(71, (3, 2**33))
        out = sanitize_nrp(self.T, 20, certificate, r, distribution)
        assert "generator" not in vars(r)
        expected = projected(self.T, 20, certificate, GeneratorDraws(71, (3, 2**33)), distribution)
        assert out.values.tobytes() == expected.tobytes()
        gen = GeneratorDraws(71, (3, 2**33)).gen
        gen.random(50 * 20)
        assert r.uniform(0.0, 1.0, 5).tobytes() == gen.uniform(0.0, 1.0, 5).tobytes()

    def test_a_stream_that_drew_before_the_call_keeps_its_bits(self):
        r = Rng(72, (1,))
        r.uniform(0.0, 1.0, 3)
        out = sanitize_nrp(self.T, 20, CERT, r)
        stream = GeneratorDraws(72, (1,))
        stream.uniform(0.0, 1.0, 3)
        assert out.values.tobytes() == projected(self.T, 20, CERT, stream).tobytes()

    def test_an_all_zero_keyed_draw_is_redrawn_on_the_streams_generator(self, monkeypatch):
        def zeroed(keys, low, high, shape):
            return np.zeros((len(keys), *shape))

        monkeypatch.setattr(rng_module, "fresh_uniform", zeroed)
        r = Rng(73, (0, 5))
        out = sanitize_nrp(self.T, 20, CERT, r)
        assert "generator" in vars(r)
        stream = GeneratorDraws(73, (0, 5))
        stream.uniform(0.0, 1.0, 50 * 20)    # the draw that came out all zero
        assert out.values.tobytes() == projected(self.T, 20, CERT, stream).tobytes()

    def test_planted_zero_draws_are_redrawn_then_give_up(self):
        out = sanitize_nrp(self.T, 20, CERT, ZeroedDraws(Rng(74), [[0]]))
        stream = GeneratorDraws(74, ())
        stream.uniform(0.0, 1.0, 50 * 20)
        assert out.values.tobytes() == projected(self.T, 20, CERT, stream).tobytes()
        stream = ZeroedDraws(Rng(74), [[0]] * SAMPLE_RETRIES)
        with pytest.raises(DegenerateMatrix):
            sanitize_nrp(self.T, 20, CERT, stream)
        assert stream.draws == SAMPLE_RETRIES

    def test_a_call_on_a_fresh_stream_builds_no_philox(self, monkeypatch):
        sanitize_nrp(self.T, 20, CERT, Rng(75))    # this thread's Philox exists from here on
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        root = Rng(76).child(1)
        for j in range(20):
            sanitize_nrp(self.T, 20, CERT, root.child(j))
        assert built == []

    def test_threads_sanitizing_interleaved_streams_get_one_thread_bits(self):
        workers = 4
        roots = [Rng(77).child(t) for t in range(workers)]
        alone = [[sanitize_nrp(self.T, 20, CERT, root.child(j)).values.tobytes()
                  for j in range(30)] for root in roots]
        barrier = threading.Barrier(workers, timeout=60)
        got = [[] for _ in range(workers)]

        def run(t):
            for j in range(30):
                barrier.wait()
                got[t].append(sanitize_nrp(self.T, 20, CERT, roots[t].child(j)).values.tobytes())

        run_in_threads(run, workers)
        assert got == alone
