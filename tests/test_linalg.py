import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from privsan import linalg
from privsan.attack import ATTACK_CHUNK
from privsan.errors import DimensionMismatch, RankDeficient, ZeroNormInput
from privsan.linalg import (
    RESAMPLE_RETRIES,
    cosine,
    frobenius_norm,
    full_rank,
    matvec_rows,
    orthonormalize,
    row_cosines,
    row_dots,
    row_norms,
    triangular_full_rank,
    triangular_inverse,
)
from privsan.metrics import utility_scores
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


# numpy warns about such a pair's overflowing products before the pair
# is computed again.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestCosineAtTheEndsOfTheRange:
    # Rows whose squared norms overflow or leave the normal range are
    # scaled by powers of two (exact) and computed again.

    def test_huge_rows(self):
        cos, u = utility_scores(np.full((1, 50), 1e200), np.full((1, 20), 3e199))
        assert cos[0] == pytest.approx(np.sqrt(0.4), rel=1e-15)
        assert u[0] == cos[0]
        assert cosine([1e300, 1e300], [1e300, 0.0]) == pytest.approx(np.sqrt(0.5), rel=1e-15)

    def test_huge_rows_when_warnings_are_errors(self):
        # The class's filter ignores numpy's overflow warnings; here they
        # are raised as errors, and numpy's own error mode as well.
        ignored = utility_scores(np.full((1, 50), 1e200), np.full((1, 20), 3e199))
        for errors in ("warn", "raise"):
            with warnings.catch_warnings(), np.errstate(all=errors):
                warnings.simplefilter("error", RuntimeWarning)
                cos, u = utility_scores(np.full((1, 50), 1e200), np.full((1, 20), 3e199))
                tiny = cosine(np.full(5, 1e-170), np.full(5, 1e-170))
            assert cos[0] == pytest.approx(np.sqrt(0.4), rel=1e-15)
            assert (cos.tobytes(), u.tobytes()) == (ignored[0].tobytes(), ignored[1].tobytes())
            assert tiny == pytest.approx(1.0, rel=1e-15)

    def test_tiny_rows(self):
        assert cosine(np.full(5, 1e-170), np.full(5, 1e-170)) == pytest.approx(1.0, rel=1e-15)
        assert cosine([3e-200, 4e-200], [4e-200, 3e-200]) == pytest.approx(24 / 25, rel=1e-15)
        # One tiny row against an ordinary one: its squared norm is subnormal.
        assert cosine([1e-160, 1e-160], [1.0, 0.0]) == pytest.approx(np.sqrt(0.5), rel=1e-15)

    def test_zero_rows_still_raise(self):
        with pytest.raises(ZeroNormInput):
            cosine([0.0, 0.0], [1e300, 1e300])
        with pytest.raises(ZeroNormInput):
            row_cosines(np.array([[1.0, 2.0], [1e-170, 0.0]]), np.array([[2.0, 1.0], [0.0, 0.0]]))

    def test_other_rows_keep_the_plain_formula(self):
        gen = Rng(102).generator
        a, b = gen.standard_normal((6, 9)), gen.standard_normal((6, 9))
        a[2] *= 1e200
        b[4] *= 1e-170
        plain = np.clip(row_dots(a, b) / (row_norms(a) * row_norms(b)), -1.0, 1.0)
        got = row_cosines(a, b)
        for j in (0, 1, 3, 5):
            assert got[j].tobytes() == plain[j].tobytes()
        for j in (2, 4):
            assert got[j] == pytest.approx(cosine(a[j] / np.abs(a[j]).max(),
                                                  b[j] / np.abs(b[j]).max()), rel=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(hst.data())
    def test_scaling_by_powers_of_two_leaves_the_cosine_unchanged(self, data):
        # Entries of magnitude 2**-20 to 1 and scales that keep every entry
        # normal: no product or square loses a bit on either side.
        n = data.draw(hst.integers(1, 12))
        entry = hst.one_of(hst.just(0.0), hst.floats(2.0**-20, 1.0),
                           hst.floats(-1.0, -(2.0**-20)))
        a, b = (np.array(data.draw(hst.lists(entry, min_size=n, max_size=n))) for _ in "ab")
        if not (a.any() and b.any()):
            return
        scale = hst.one_of(hst.integers(-1000, -560), hst.integers(-440, 1020))
        ea, eb = data.draw(scale), data.draw(scale)
        scaled = cosine(np.ldexp(a, ea), np.ldexp(b, eb))
        assert scaled.hex() == cosine(a, b).hex(), (ea, eb)


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


class TestTriangularFullRank:
    @staticmethod
    def r_with_singular_values(values, seed):
        # The R of a reduced QR of U diag(values) V^T, whose singular
        # values are ``values``.
        k = len(values)
        u = np.linalg.qr(Rng(seed).standard_normal((2 * k, k)))[0]
        v = np.linalg.qr(Rng(seed + 1).standard_normal((k, k)))[0]
        return np.linalg.qr(u @ np.diag(values) @ v.T)[1]

    def mixed_stack(self):
        # Condition 1, 1e6 and 1e9 at k = 3: full_rank keeps the first
        # two (1e-12 > 3 eps) and drops the third (1e-18 < 3 eps).
        return np.stack([self.r_with_singular_values([1.0, 0.7, 0.4], 1),
                         self.r_with_singular_values([1.0, 0.5, 1e-6], 3),
                         self.r_with_singular_values([1.0, 0.5, 1e-9], 5),
                         self.r_with_singular_values([2.0, 1.5, 1.0], 7)])

    def test_mask_equals_full_rank(self):
        r = self.mixed_stack()
        assert full_rank(r).tolist() == [True, True, False, True]
        assert triangular_full_rank(r).tolist() == full_rank(r).tolist()

    @staticmethod
    def count_full_rank(monkeypatch):
        calls = []
        full_rank_ = linalg.full_rank

        def counted(a):
            calls.append(len(a))
            return full_rank_(a)

        monkeypatch.setattr(linalg, "full_rank", counted)
        return calls

    def test_exactly_singular_r_goes_to_full_rank_alone(self, monkeypatch):
        # The zero pivot makes only its own inverse non-finite: the SVD
        # runs on it and on the rejected condition-1e9 matrix, not on the
        # other two.
        r = self.mixed_stack()
        r[1, 2, 2] = 0.0
        calls = self.count_full_rank(monkeypatch)
        assert triangular_full_rank(r).tolist() == full_rank(r).tolist()
        assert calls == [2]
        assert full_rank(r).tolist() == [True, False, False, True]

    def test_subnormal_pivot_goes_to_full_rank(self):
        # A subnormal pivot back-substitutes to inf; full_rank drops the matrix.
        r = self.mixed_stack()
        r[0] = np.diag([1.0, 1.0, 1e-310])
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(triangular_inverse(r[:1])).all()
        assert triangular_full_rank(r).tolist() == full_rank(r).tolist()
        assert full_rank(r).tolist() == [False, True, False, True]

    def test_back_substitution_residual_is_within_k_eps(self):
        # The premise of the screen's proof (Higham, Thm 8.5): the
        # computed inverse X of each R satisfies |R X - I| <= k eps |R| |X|
        # entrywise.  The residual is formed in extended precision, so
        # that its own rounding stays far below the bound.
        k = 20
        r = np.linalg.qr(Rng(26).uniform(0.0, 1.0, (2 * ATTACK_CHUNK, 50, k)))[1]
        x = triangular_inverse(r)
        rl, xl = r.astype(np.longdouble), x.astype(np.longdouble)
        residual = np.abs(rl @ xl - np.eye(k, dtype=np.longdouble))
        bound = k * np.finfo(float).eps * (np.abs(rl) @ np.abs(xl))
        assert np.all(residual <= bound)

    @settings(max_examples=30, deadline=None)
    @given(hst.data())
    @pytest.mark.filterwarnings("error")
    def test_mask_equals_full_rank_on_mixed_stacks(self, data):
        # Stacks of 1 to 2 ATTACK_CHUNK upper triangular R mixing
        # well-conditioned matrices, condition numbers 1e4 ... 1e12 about
        # the threshold, exactly zero pivots and subnormal pivots.  Every
        # warning is an error, so the screen's own errstate must cover the
        # divide, overflow and invalid steps of such pivots.
        k = data.draw(hst.integers(1, 24), label="k")
        count = data.draw(hst.integers(1, 2 * ATTACK_CHUNK), label="count")
        gen = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        u, s, vt = np.linalg.svd(gen.uniform(-1.0, 1.0, (count, 2 * k, k)), full_matrices=False)
        kind = gen.integers(0, 4, count)
        near = kind == 1
        s[near, -1] = s[near, 0] * 10.0 ** gen.uniform(-12.0, -4.0, near.sum())
        r = np.linalg.qr((u * s[:, None, :]) @ vt)[1]
        pivot = gen.integers(0, k, count)
        for j in np.flatnonzero(kind >= 2):
            r[j, pivot[j], pivot[j]] = 0.0 if kind[j] == 2 else 1e-310
        assert triangular_full_rank(r).tolist() == full_rank(r).tolist()

    @settings(max_examples=40, deadline=None)
    @given(hst.data())
    def test_mask_equals_full_rank_near_the_threshold(self, data):
        # Random R stacks with one singular value scaled through the
        # threshold (condition 1e4 ... 1e12) against the SVD rule.
        k = data.draw(hst.integers(1, 12), label="k")
        gen = np.random.default_rng(data.draw(hst.integers(0, 2**32 - 1), label="seed"))
        u, s, vt = np.linalg.svd(gen.uniform(-1.0, 1.0, (6, 2 * k, k)), full_matrices=False)
        s[:, -1] = s[:, 0] * 10.0 ** gen.uniform(-12.0, -4.0, 6)
        r = np.linalg.qr((u * s[:, None, :]) @ vt)[1]
        assert triangular_full_rank(r).tolist() == full_rank(r).tolist()


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
