import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from privsan import attack
from privsan import linalg
from privsan.attack import (
    ATTACK_CHUNK,
    ATTACK_RETRIES,
    attack_linear,
    attack_random_inverse,
    expected_inverse_map,
    known_matrix,
    random_inverse,
)
from privsan.errors import DimensionMismatch, SingularSample
from privsan.rng import Rng, philox_keys
from privsan.sanitize import (
    EntryDistribution,
    SanitizedTuple,
    sample_bounded_matrix,
    sample_orthonormal_matrix,
)


def st(values, agent="a0", tag="nrp"):
    return SanitizedTuple(np.asarray(values, dtype=float), agent, tag)


def plant_draws(monkeypatch, planted):
    """Patch the attack's draw seam so that ``planted(stream, attempt)``,
    unless None, replaces the draw of ``stream.child(attempt)``.  Returns
    the lists of draws made and of planted draws used, each entry
    ``(seed, *path, attempt)`` of the parent stream."""
    draws = attack._draws
    drawn, used = [], []

    def planted_draws(n, m, distribution, streams, attempt, keys):
        b = draws(n, m, distribution, streams, attempt, keys)
        for i, r in enumerate(streams):
            # Not drawn[-1]: a caller on another thread may append between.
            entry = (r.seed, *r.path, attempt)
            drawn.append(entry)
            p = planted(r, attempt)
            if p is not None:
                b[i] = p
                used.append(entry)
        return b

    monkeypatch.setattr(attack, "_draws", planted_draws)
    return drawn, used


def first_draws_from_child(monkeypatch, index):
    """Patch the draw seam so that every draw is ``child(index)``'s."""
    draws = attack._draws
    monkeypatch.setattr(attack, "_draws", lambda n, m, distribution, streams, attempt, keys:
                        draws(n, m, distribution, streams, index,
                              philox_keys([(r.seed, r.path + (index,)) for r in streams])))


def inv2(m):
    # Hand 2x2 inverse: adjugate over determinant.
    (a, b), (c, d) = m
    det = a * d - b * c
    return np.array([[d, -b], [-c, a]]) / det


class TestRandomInverse:
    def test_white_box_square_recovers_exactly(self):
        gen = Rng(1).generator
        y = gen.standard_normal(4)
        b = gen.uniform(0.2, 1.0, (4, 4))
        t = st(b.T @ y)
        out = known_matrix(t.values[None], b)[0]
        assert np.allclose(out, y, atol=1e-9)

    def test_zero_tuple_maps_to_zero(self):
        out = attack_random_inverse(st(np.zeros(2)), 5,
                                    EntryDistribution.UNIT_UNIFORM, Rng(3))
        assert np.allclose(out.reconstructed, 0.0)

    def test_matches_explicit_pseudo_inverse(self):
        t = st([0.7, -0.2])
        out = attack_random_inverse(t, 3, EntryDistribution.UNIT_UNIFORM, Rng(4))
        b = sample_bounded_matrix(3, 2, EntryDistribution.UNIT_UNIFORM, Rng(4).child(0))
        gram_inv = inv2(b.T @ b)
        expected = b @ (gram_inv @ t.values)
        assert np.allclose(out.reconstructed, expected, atol=1e-9)

    def test_deterministic(self):
        t = st([0.1, 0.9, 0.4])
        a = attack_random_inverse(t, 6, EntryDistribution.UNIT_UNIFORM, Rng(5))
        b = attack_random_inverse(t, 6, EntryDistribution.UNIT_UNIFORM, Rng(5))
        assert np.array_equal(a.reconstructed, b.reconstructed)

    def test_dim_check(self):
        with pytest.raises(DimensionMismatch):
            attack_random_inverse(st(np.ones(5)), 3,
                                  EntryDistribution.UNIT_UNIFORM, Rng(6))

    def test_nan_row_raises(self):
        s = np.array([[0.2, 0.4], [0.1, np.nan]])
        with pytest.raises(ValueError, match="finite"):
            random_inverse(s, 4, EntryDistribution.UNIT_UNIFORM, [Rng(7), Rng(8)])


class TestRandomInverseRetries:
    UNIT = EntryDistribution.UNIT_UNIFORM

    def test_deficient_rows_are_redrawn_from_the_next_child(self, monkeypatch):
        n, m, rows, bad = 5, 2, 6, {1, 4}
        s = Rng(40).standard_normal((rows, m))
        streams = [Rng(41).child(j) for j in range(rows)]
        clean = random_inverse(s, n, self.UNIT, streams)
        _, used = plant_draws(   # a rank-one Gram matrix
            monkeypatch, lambda r, attempt: np.ones((n, m)) if attempt == 0 and r.path[-1] in bad
            else None)
        out = random_inverse(s, n, self.UNIT, streams)
        assert used == [(41, j, 0) for j in sorted(bad)]

        # The oracle is a one-row call whose first draw is child(1)'s.
        first_draws_from_child(monkeypatch, 1)
        for j in range(rows):
            expected = (attack_random_inverse(st(s[j]), n, self.UNIT, streams[j]).reconstructed
                        if j in bad else clean[j])
            assert out[j].tobytes() == expected.tobytes()

    def test_deficient_draws_give_up_after_the_retries(self, monkeypatch):
        drawn, used = plant_draws(monkeypatch, lambda r, attempt: np.ones((4, 2)))
        with pytest.raises(SingularSample):
            attack_random_inverse(st([0.3, 0.4]), 4, self.UNIT, Rng(42))
        assert drawn == [(42, attempt) for attempt in range(ATTACK_RETRIES)]
        assert used == drawn


class TestRandomInversePool:
    UNIT = EntryDistribution.UNIT_UNIFORM

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_pool_equals_one_row_calls(self, monkeypatch, workers):
        # random_inverse keeps no state between calls: four callers on a
        # pool of 1, 2 or 4 threads switching often, each with its own
        # rows and streams and with rank-deficient first draws in the
        # first and the last chunk, get rows equal to one-row calls bit
        # for bit, the redrawn rows from child(1).
        n, m = 7, 3
        rows = 2 * ATTACK_CHUNK + 5
        bad = {1, rows - 2}
        cases = [(Rng(60 + k).standard_normal((rows, m)),
                  [Rng(70 + k).child(j) for j in range(rows)]) for k in range(4)]
        planted = [(70 + k, j, 0) for k in range(4) for j in sorted(bad)]
        _, used = plant_draws(
            monkeypatch, lambda r, attempt: np.ones((n, m)) if attempt == 0 and r.path[-1] in bad
            else None)
        ones = [[attack_random_inverse(st(s[j]), n, self.UNIT, streams[j]).reconstructed
                 for j in range(rows)] for s, streams in cases]
        assert used == planted
        used.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(workers) as pool:
                outs = list(pool.map(lambda c: random_inverse(c[0], n, self.UNIT, c[1]), cases))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(used) == planted
        for (s, streams), out, one in zip(cases, outs, ones):
            for j in range(rows):
                assert out[j].tobytes() == one[j].tobytes(), j
            for j in bad:
                b = sample_bounded_matrix(n, m, self.UNIT, streams[j].child(1))
                assert np.allclose(out[j], np.linalg.pinv(b.T) @ s[j],
                                   rtol=1e-12, atol=0.0)


class TestRandomInverseChunks:
    UNIT = EntryDistribution.UNIT_UNIFORM

    def test_chunks_equal_one_row_calls(self, monkeypatch):
        # Rank-deficient first draws in the first and the last chunk are
        # redrawn from child(1); every row equals a one-row call bit for
        # bit, and each (row, attempt) is drawn once.
        n, m = 7, 3
        rows = 2 * ATTACK_CHUNK + 5
        bad = {1, rows - 2}
        s = Rng(43).standard_normal((rows, m))
        streams = [Rng(44).child(j) for j in range(rows)]
        drawn, used = plant_draws(
            monkeypatch, lambda r, attempt: np.ones((n, m)) if attempt == 0 and r.path[-1] in bad
            else None)
        out = random_inverse(s, n, self.UNIT, streams)
        assert sorted(drawn) == sorted([(44, j, 0) for j in range(rows)]
                                       + [(44, j, 1) for j in bad])
        assert used == [(44, j, 0) for j in sorted(bad)]
        used.clear()
        for j in range(rows):
            one = attack_random_inverse(st(s[j]), n, self.UNIT, streams[j]).reconstructed
            assert out[j].tobytes() == one.tobytes(), j
        assert used == [(44, j, 0) for j in sorted(bad)]
        for j in bad:
            b = sample_bounded_matrix(n, m, self.UNIT, streams[j].child(1))
            assert np.allclose(out[j], np.linalg.pinv(b.T) @ s[j],
                               rtol=1e-12, atol=0.0)

    def test_rank_mask_from_the_svd_agrees_with_gram_rank(self, monkeypatch):
        # s_min / s_max = 1e-9 puts s_min^2 / s_max^2 below m * eps, so
        # the draw is redrawn from child(1); 1e-6 is kept.  Both decisions
        # agree with matrix_rank of the Gram matrix B^T B.  The kept row
        # matches pinv to 1e-9 relative at condition number 1e6, which
        # the normal equations B (B^T B)^{-1} s do not.
        n, m = 6, 3
        u = np.linalg.qr(Rng(45).standard_normal((n, m)))[0]
        v = np.linalg.qr(Rng(46).standard_normal((m, m)))[0]
        planted = {0: u @ np.diag([1.0, 0.5, 1e-9]) @ v.T,
                   1: u @ np.diag([1.0, 0.5, 1e-6]) @ v.T}
        stack = np.stack([planted[0], planted[1]])
        _, full = attack._qr_reconstruct(stack, np.ones((2, m)))
        gram_rank = np.linalg.matrix_rank(np.swapaxes(stack, 1, 2) @ stack)
        assert full.tolist() == [False, True]
        assert full.tolist() == (gram_rank == m).tolist()

        _, used = plant_draws(
            monkeypatch, lambda r, attempt: planted[r.path[-1]] if attempt == 0 else None)
        s = Rng(47).standard_normal((2, m))
        streams = [Rng(48).child(j) for j in range(2)]
        out = random_inverse(s, n, self.UNIT, streams)
        assert used == [(48, 0, 0), (48, 1, 0)]
        redrawn = sample_bounded_matrix(n, m, self.UNIT, streams[0].child(1))
        assert np.allclose(out[0], np.linalg.pinv(redrawn.T) @ s[0],
                           rtol=1e-12, atol=0.0)
        kept = np.linalg.pinv(planted[1].T) @ s[1]
        assert np.linalg.norm(out[1] - kept) <= 1e-9 * np.linalg.norm(kept)

    def test_memory_holds_a_few_chunks_of_draws(self):
        # Beyond the (rows x n) result, the peak is a few chunks of n x m
        # draws at any row count: the stacked QR holds the draws, its own
        # copy of them, Q and R at once.  The streams' generators belong
        # to the caller and are built before measuring.
        n, m = 50, 20
        chunk_bytes = ATTACK_CHUNK * n * m * 8
        extra = []
        for rows in (4 * ATTACK_CHUNK, 32 * ATTACK_CHUNK):
            s = Rng(53).standard_normal((rows, m))
            streams = [Rng(54).child(j) for j in range(rows)]
            for r in streams:
                r.generator
            tracemalloc.start()
            try:
                random_inverse(s, n, self.UNIT, streams)
                extra.append(tracemalloc.get_traced_memory()[1] - rows * n * 8)
            finally:
                tracemalloc.stop()
        assert max(extra) < 5 * chunk_bytes, extra


class TestKnownMatrix:
    def test_orthonormal_square_exact(self):
        q = sample_orthonormal_matrix(4, 4, Rng(7))
        y = Rng(8).standard_normal(4)
        out = known_matrix((q.T @ y)[None], q)[0]
        assert np.allclose(out, y, atol=1e-9)

    def test_component_projection_identity(self):
        # Projection onto components plus mean reproduces a point lying
        # in the component span.
        q = sample_orthonormal_matrix(5, 2, Rng(9))
        mean = Rng(10).standard_normal(5)
        y = mean + q @ np.array([0.4, -1.2])
        out = known_matrix((q.T @ (y - mean))[None], q, mean)[0]
        assert np.allclose(out, y, atol=1e-9)

    def test_mean_in_tuple_centers_first(self):
        q = sample_orthonormal_matrix(6, 3, Rng(11))
        mean = np.full(6, 2.0)
        y = mean + q @ np.array([1.0, 0.5, -0.3])
        # The sanitized row is the projection of the raw tuple.
        out = known_matrix((q.T @ y)[None], q, mean, mean_in_tuple=True)[0]
        assert np.allclose(out, y, atol=1e-9)

    def test_tall_case_against_hand_pseudo_inverse(self):
        gen = Rng(12).generator
        a = gen.standard_normal((3, 2))
        s = np.array([0.5, 1.5])
        out = known_matrix(s[None], a)[0]
        expected = a @ (inv2(a.T @ a) @ s)
        assert np.allclose(out, expected, atol=1e-9)

    def test_rank_deficient_matrix_raises(self):
        with pytest.raises(SingularSample):
            known_matrix(np.array([[0.5, 1.5]]), np.ones((3, 2)))


class TestOtherAttacks:
    def test_expected_inverse_converges_to_mc_mean(self):
        lm = expected_inverse_map(6, 2, EntryDistribution.UNIT_UNIFORM, 16, Rng(14))
        acc = np.zeros((6, 2))
        for j in range(16):
            b = sample_bounded_matrix(6, 2, EntryDistribution.UNIT_UNIFORM,
                                      Rng(14).child(j))
            acc += b @ np.linalg.inv(b.T @ b)
        assert np.allclose(lm, acc / 16, atol=1e-9)

    def test_expected_inverse_map_refuses_a_wide_map(self):
        # As random_inverse refuses the same shape (test_dim_check).
        with pytest.raises(DimensionMismatch):
            expected_inverse_map(3, 5, EntryDistribution.UNIT_UNIFORM, 4, Rng(14))

    def test_attack_linear_applies_map(self):
        lm = np.array([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        out = attack_linear(st([3.0, 4.0]), lm)
        assert np.allclose(out.reconstructed, [3.0, 8.0, 7.0])

    def test_linear_rejects_a_map_that_is_not_a_matrix(self):
        with pytest.raises(DimensionMismatch, match="n x m map"):
            attack.linear(np.ones((2, 3)), np.ones(3))


class TestDirectionalSeparation:
    def test_unknown_fresh_matrix_beats_known_fixed_matrix(self):
        # Mean displacement of the random-inverse attack on per-tuple
        # fresh norm-bounded projections strictly exceeds that of the
        # white-box attack on one fixed orthonormal projection.
        from privsan.bounds import compute_norm_bound
        from privsan.sanitize import bounded_projection, brp

        n, m, trials = 30, 10, 100
        gen = Rng(15).generator
        cert = compute_norm_bound(0.8, 0.1, 1.0)
        q = sample_orthonormal_matrix(n, m, Rng(16))
        d_fresh, d_fixed = [], []
        for i in range(trials):
            y = gen.uniform(0.0, 1.0, n)
            y /= np.linalg.norm(y) * 1.01
            p = bounded_projection(n, m, cert, Rng(17).child(i))
            t_fresh = st(p.matrix.T @ y)
            rec_fresh = attack_random_inverse(
                t_fresh, n, EntryDistribution.UNIT_UNIFORM, Rng(18).child(i))
            d_fresh.append(np.linalg.norm(rec_fresh.reconstructed - y))
            rec_fixed = known_matrix(brp(y[None], q), q)[0]
            d_fixed.append(np.linalg.norm(rec_fixed - y))
        assert np.mean(d_fresh) > np.mean(d_fixed)


class TestRankScreen:
    UNIT = EntryDistribution.UNIT_UNIFORM

    def count_full_rank(self, monkeypatch):
        calls = []
        full_rank = linalg.full_rank

        def counted(a):
            calls.append(len(a))
            return full_rank(a)

        monkeypatch.setattr(linalg, "full_rank", counted)
        monkeypatch.setattr(attack, "full_rank", counted)
        return calls

    def test_well_conditioned_chunks_run_no_svd(self, monkeypatch):
        n, m, rows = 20, 8, 2 * ATTACK_CHUNK
        s = Rng(81).standard_normal((rows, m))
        streams = [Rng(82).child(j) for j in range(rows)]
        calls = self.count_full_rank(monkeypatch)
        random_inverse(s, n, self.UNIT, streams)
        assert calls == []

    def test_an_ill_conditioned_draw_alone_runs_the_svd(self, monkeypatch):
        # The planted draw at condition 1e9 is dropped by full_rank and
        # redrawn; only it reaches the SVD, once.
        n, m, rows = 20, 8, ATTACK_CHUNK
        u = np.linalg.qr(Rng(83).standard_normal((n, m)))[0]
        planted = u @ np.diag(np.geomspace(1.0, 1e-9, m))
        _, used = plant_draws(
            monkeypatch, lambda r, attempt: planted if r.path[-1] == 3 and attempt == 0 else None)
        s = Rng(84).standard_normal((rows, m))
        streams = [Rng(85).child(j) for j in range(rows)]
        calls = self.count_full_rank(monkeypatch)
        out = random_inverse(s, n, self.UNIT, streams)
        assert calls == [1]
        assert used == [(85, 3, 0)]
        redrawn = sample_bounded_matrix(n, m, self.UNIT, streams[3].child(1))
        assert np.allclose(out[3], np.linalg.pinv(redrawn.T) @ s[3], rtol=1e-12, atol=0.0)

    def test_an_exactly_singular_draw_alone_runs_the_svd(self, monkeypatch):
        # A zero column puts an exactly zero pivot in R.  The screen rejects
        # that R alone: one SVD of one matrix, not of the whole stack.
        n, m, rows = 20, 8, ATTACK_CHUNK
        planted = sample_bounded_matrix(n, m, self.UNIT, Rng(86))
        planted[:, 3] = 0.0
        assert np.linalg.qr(planted)[1][3, 3] == 0.0
        _, used = plant_draws(
            monkeypatch, lambda r, attempt: planted if r.path[-1] == 5 and attempt == 0 else None)
        s = Rng(87).standard_normal((rows, m))
        streams = [Rng(88).child(j) for j in range(rows)]
        calls = self.count_full_rank(monkeypatch)
        out = random_inverse(s, n, self.UNIT, streams)
        assert calls == [1]
        assert used == [(88, 5, 0)]
        redrawn = sample_bounded_matrix(n, m, self.UNIT, streams[5].child(1))
        assert np.allclose(out[5], np.linalg.pinv(redrawn.T) @ s[5], rtol=1e-12, atol=0.0)
