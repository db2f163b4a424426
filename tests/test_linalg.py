import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from privsan.errors import DimensionMismatch, RankDeficient, ZeroNormInput
from privsan.linalg import (
    RESAMPLE_RETRIES,
    cosine,
    frobenius_norm,
    full_rank,
    matvec_rows,
    orthonormalize,
)
from privsan.rng import Rng


class TestCosine:
    def test_orthogonal(self):
        assert cosine([1, 0], [0, 1]) == 0.0

    def test_collinear_scale_invariant(self):
        assert cosine([1, 1], [2, 2]) == pytest.approx(1.0, abs=1e-15)

    def test_hand_value(self):
        # (3,4).(4,3) = 24, norms 5 and 5
        assert cosine([3, 4], [4, 3]) == pytest.approx(24 / 25, abs=1e-15)

    def test_zero_norm_rejected(self):
        with pytest.raises(ZeroNormInput):
            cosine([0, 0], [1, 2])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1, 2, 3], [1, 2])

    def test_scale_invariance_property(self):
        gen = Rng(101).generator
        for _ in range(200):
            a = gen.standard_normal(7)
            b = gen.standard_normal(7)
            s, t = gen.uniform(0.1, 10, 2)
            assert cosine(s * a, t * b) == pytest.approx(cosine(a, b), abs=1e-12)

    def test_range(self):
        gen = Rng(5).generator
        for _ in range(100):
            c = cosine(gen.standard_normal(4), gen.standard_normal(4))
            assert -1.0 <= c <= 1.0


class TestFrobenius:
    def test_identity(self):
        assert frobenius_norm(np.eye(2)) == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_zeros(self):
        assert frobenius_norm(np.zeros((3, 4))) == 0.0

    def test_hand_value(self):
        assert frobenius_norm([[1, 2], [2, 1]]) == pytest.approx(np.sqrt(10), abs=1e-15)


class TestOrthonormalize:
    def test_identity_slice_fixed_point(self):
        a = np.eye(4)[:, :2]
        q = orthonormalize(a)
        assert np.allclose(q, a, atol=1e-12)

    def test_gram_identity(self):
        rng = Rng(7)
        a = rng.standard_normal((3, 2))
        q = orthonormalize(a, rng)
        gram = np.array([[q[:, i] @ q[:, j] for j in range(2)] for i in range(2)])
        assert np.abs(gram - np.eye(2)).max() < 1e-9

    def test_span_preserved(self):
        rng = Rng(8)
        a = rng.standard_normal((6, 3))
        q = orthonormalize(a, rng)
        # Projector onto col(a) equals projector onto col(q).
        pa = a @ np.linalg.solve(a.T @ a, a.T)
        pq = q @ q.T
        assert np.abs(pa - pq).max() < 1e-9

    def test_many_seeds(self):
        for seed in range(1000):
            rng = Rng(seed)
            q = orthonormalize(rng.standard_normal((12, 5)), rng)
            assert np.abs(q.T @ q - np.eye(5)).max() < 1e-9

    def test_rank_deficient_without_rng(self):
        a = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            orthonormalize(a)

    def test_rank_deficient_resampled(self):
        a = np.ones((4, 2))
        q = orthonormalize(a, Rng(3))
        assert np.abs(q.T @ q - np.eye(2)).max() < 1e-9

    def test_rank_deficient_redraws_give_up_after_the_retries(self):
        class OnesStream:
            draws = 0

            def standard_normal(self, size):
                self.draws += 1
                return np.ones(size)

        stream = OnesStream()
        with pytest.raises(RankDeficient):
            orthonormalize(np.ones((4, 2)), stream)
        assert stream.draws == RESAMPLE_RETRIES

    def test_wide_matrix_rejected(self):
        with pytest.raises(DimensionMismatch):
            orthonormalize(np.ones((2, 4)))


class TestMatvecRows:
    def test_rows_sharing_a_matrix(self):
        gen = Rng(31).generator
        a, x = gen.standard_normal((3, 4, 2)), gen.standard_normal((6, 2))
        out = matvec_rows(a, x)
        for j in range(6):
            assert out[j].tobytes() == (a[j // 2] @ x[j]).tobytes(), j

    def test_empty_stack_gives_no_rows(self):
        assert matvec_rows(np.empty((0, 4, 2)), np.empty((0, 2))).shape == (0, 4)


class TestFullRank:
    @settings(max_examples=100, deadline=None, database=None)
    @given(hst.data())
    def test_mask_on_matrices_and_stacks(self, data):
        # One bool for a matrix, one per matrix for a stack.  Where the
        # rule accepts, numpy's pinv drops no singular value, so its
        # default cutoff and a 1e-10 cutoff give the same bits.
        shape = tuple(data.draw(hst.lists(hst.integers(1, 7), min_size=2, max_size=2),
                                label="shape"))
        stack = data.draw(hst.sampled_from([(), (1,), (3,), (9,)]), label="stack")
        gen = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        a = gen.standard_normal(stack + shape)
        deficient = data.draw(hst.booleans(), label="deficient")
        if deficient:
            a[..., 0, :] = 0.0 if shape[0] == 1 else a[..., -1, :]
        a *= 10.0 ** data.draw(hst.integers(-6, 6), label="scale")
        full = full_rank(a)
        # A repeated or zero row lowers the rank only when rows <= cols.
        rank_lost = deficient and shape[0] <= shape[1]
        assert np.shape(full) == stack and np.all(full == (not rank_lost))
        if not rank_lost:
            assert np.linalg.pinv(a).tobytes() == np.linalg.pinv(a, rcond=1e-10).tobytes()


class TestRngDeterminism:
    def test_identical_streams(self):
        a = Rng(42).standard_normal(10)
        b = Rng(42).standard_normal(10)
        assert np.array_equal(a, b)

    def test_children_independent_of_draw_order(self):
        r = Rng(42)
        c3 = r.child(3).standard_normal(4)
        _ = r.standard_normal(100)
        c3_again = r.child(3).standard_normal(4)
        assert np.array_equal(c3, c3_again)

    def test_distinct_children_differ(self):
        r = Rng(42)
        assert not np.array_equal(r.child(0).standard_normal(4),
                                  r.child(1).standard_normal(4))

    def test_stream_builds_its_generator_on_first_draw(self):
        child = Rng(42).child(3)
        assert "generator" not in vars(child)
        child.standard_normal(1)
        assert "generator" in vars(child)

    def test_negative_seed_or_path_rejected_at_construction(self):
        with pytest.raises(ValueError):
            Rng(-1)
        with pytest.raises(ValueError):
            Rng(1).child(-2)

    def test_same_inputs_bitwise_identical_ops(self):
        a = Rng(9).standard_normal((5, 3))
        q1 = orthonormalize(a.copy())
        q2 = orthonormalize(a.copy())
        assert np.array_equal(q1, q2)
