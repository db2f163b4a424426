"""Property tests: the per-tuple API and the batched runner are the same
mechanism.

Every sanitizer, attack and the utility has one implementation on a
(tuples x dim) array; the per-tuple functions (``sanitize_nrp``,
``sanitize_identity``, ``attack_random_inverse``, ``attack_linear`` and
``utility``) are one-row calls into it.  Over random small shapes these
tests check, bit for bit, that each per-tuple function and each one-row
array call equals the row of the batch call that used the same random
stream, and that both equal the plain single-tuple formula
(``A.T @ y``, ``B @ s``, ...); the random-inverse attack's QR solve
comes within a multiple of cond(B) * eps of ``pinv(B.T) @ s``.  They
also check that the runner's rounds are those array functions, and that
every batched norm-bounded matrix meets its agent's certificate bound.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from privsan import attack as atk
from privsan import sanitize as san
from privsan.bounds import compute_norm_bound
from privsan.linalg import cosine, frobenius_norm, matvec_rows, orthonormalize, zero_pad
from privsan.metrics import utility, utility_scores
from privsan.rng import Rng
from privsan.sanitize import DataTuple, EntryDistribution, SanitizedTuple
from privsan.simulate import (
    ExperimentConfig,
    _attack_round,
    _certificates,
    _sanitize_round,
    generate_synthetic,
    make_grid,
)

PROPERTY = settings(max_examples=100, deadline=None, database=None)
BOUNDED = st.sampled_from([EntryDistribution.UNIT_UNIFORM,
                           EntryDistribution.SYMMETRIC_UNIFORM])


@st.composite
def shapes(draw):
    """(rows, n, m, seed) with 1 <= m <= n."""
    n = draw(st.integers(2, 12))
    return (draw(st.integers(1, 6)), n, draw(st.integers(1, n)),
            draw(st.integers(0, 2**32 - 1)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def tup(values):
    return DataTuple(values, frozenset(), "a0")


@PROPERTY
@given(shapes(), BOUNDED, st.floats(0.2, 1.2))
def test_nrp_per_tuple_is_row_zero(shape, distribution, alpha):
    rows, n, m, seed = shape
    y = Rng(seed).child(0).uniform(0.0, 1.0, (rows, n))
    cert = compute_norm_bound(0.5, 0.2 * alpha, alpha)   # cap 1.2 >= alpha: feasible
    beta = cert.frobenius_bound
    fresh = Rng(seed).child   # each call below starts the same stream afresh
    one = san.sanitize_nrp(tup(y[0]), m, cert, fresh(1), distribution)
    batch = san.nrp(y, m, fresh(1), distribution, np.full(rows, beta))
    a = san.sample_bounded_matrix(n, m, distribution, fresh(1))
    a = a * (beta / frobenius_norm(a))
    assert same_bits(one.values, batch[0])
    assert same_bits(one.values, a.T @ y[0])

    one = san.sanitize_nrp(tup(y[0]), m, None, fresh(1), distribution)
    batch = san.nrp(y, m, fresh(1), distribution)
    a = san.sample_bounded_matrix(n, m, distribution, fresh(1))
    assert same_bits(one.values, batch[0])
    assert same_bits(one.values, a.T @ y[0])


# Seeds and path entries of one, two and three uint32 words.
WIDE = st.one_of(st.integers(0, 3), st.sampled_from([2**32 - 1, 2**32, 2**32 + 5, 2**64 + 5]),
                 st.integers(0, 2**96))


@PROPERTY
@given(shapes(), BOUNDED, WIDE, st.lists(WIDE, min_size=1, max_size=3))
def test_nrp_per_tuple_is_row_zero_at_wide_addresses(shape, distribution, seed, path):
    # The keyed first draw hashes every word of the seed and the path as
    # numpy's SeedSequence does, and the replay by address agrees with it.
    rows, n, m, data_seed = shape
    y = Rng(data_seed).uniform(0.0, 1.0, (rows, n))
    cert = compute_norm_bound(0.5, 0.2, 1.0)
    for betas in ([cert.frobenius_bound], None):
        one = san.sanitize_nrp(tup(y[0]), m, cert if betas else None, Rng(seed, path),
                               distribution)
        batch = san.nrp(y, m, Rng(seed, path), distribution,
                        None if betas is None else np.full(rows, betas[0]))
        a = san.sample_bounded_matrices(1, n, m, distribution, Rng(seed, path), betas)[0]
        assert same_bits(one.values, batch[0])
        assert same_bits(one.values, matvec_rows(a.T[None], y[:1])[0])
    # The matrix is the plain generator's first draw at that address.
    plain = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))
    low = 0.0 if distribution is EntryDistribution.UNIT_UNIFORM else -1.0
    a = san.sample_bounded_matrix(n, m, distribution, Rng(seed, path))
    assert same_bits(a, plain.uniform(low, 1.0, (n, m)))


@PROPERTY
@given(shapes())
def test_fixed_matrix_mechanisms_rowwise(shape):
    rows, n, m, seed = shape
    y = Rng(seed).child(0).standard_normal((rows, n))
    q = san.sample_orthonormal_matrix(n, m, Rng(seed).child(1))
    mean = Rng(seed).child(2).standard_normal(n)
    brp, pca, ident = san.brp(y, q), san.pca(y, q, mean), san.identity(y)
    for j in range(rows):
        assert same_bits(san.brp(y[j:j + 1], q)[0], brp[j])
        assert same_bits(brp[j], q.T @ y[j])
        assert same_bits(san.pca(y[j:j + 1], q, mean)[0], pca[j])
        assert same_bits(pca[j], q.T @ (y[j] - mean))
        assert same_bits(san.sanitize_identity(tup(y[j])).values, ident[j])


def asup_draws(stream, rows, n, private, scale):
    """The draws ``asup`` takes from ``stream``, in its order: every
    row's noise on the private coordinates in ascending order, then
    every row's n x n Gaussian rotation draw."""
    z = np.zeros((rows, n))
    z[:, sorted(private)] = scale * stream.standard_normal((rows, len(private)))
    return z, stream.standard_normal((rows, n, n))


@PROPERTY
@given(shapes(), st.floats(0.01, 1.0), st.integers(0, 12))
def test_asup_rowwise(shape, scale, private_count):
    rows, n, _, seed = shape
    private = range(min(private_count, n))
    y = Rng(seed).child(0).uniform(0.0, 1.0, (rows, n))
    fresh = Rng(seed).child   # each use below starts the same stream afresh

    batch = san.asup(y, scale, private, fresh(1))
    if not private:
        assert same_bits(batch, y)
        return
    # Row j is y[j] + Q_k z[j][:k], where Q_k is the one-matrix reduced
    # QR of the first k = max(private) + 1 columns of row j's draw.
    k = max(private) + 1
    z, g = asup_draws(fresh(1), rows, n, private, scale)
    for j in range(rows):
        assert same_bits(batch[j], y[j] + orthonormalize(g[j][:, :k]) @ z[j][:k])
    # A one-row call is that formula on the first row's draws.
    z, g = asup_draws(fresh(1), 1, n, private, scale)
    one = san.asup(y[:1], scale, private, fresh(1))[0]
    assert same_bits(one, y[0] + orthonormalize(g[0][:, :k]) @ z[0][:k])


@PROPERTY
@given(shapes(), st.floats(0.01, 1.0), st.sets(st.integers(0, 11), min_size=1))
def test_asup_equals_the_full_rotation(shape, scale, private):
    # The reduced factor is the first k columns of the full sign-fixed Q,
    # up to rounding: |asup - (y + Q z)| <= 1e-13 max(1, |z|) per row.
    rows, n, _, seed = shape
    private = {i for i in private if i < n} or {0}
    y = Rng(seed).child(0).uniform(0.0, 1.0, (rows, n))
    batch = san.asup(y, scale, private, Rng(seed).child(1))
    z, g = asup_draws(Rng(seed).child(1), rows, n, private, scale)
    for j in range(rows):
        full = y[j] + orthonormalize(g[j]) @ z[j]
        assert np.linalg.norm(batch[j] - full) <= 1e-13 * max(1.0, np.linalg.norm(z[j]))


@PROPERTY
@given(shapes(), st.sets(st.integers(0, 11), min_size=1))
def test_asup_leaves_the_stream_where_the_full_draw_did(shape, private):
    # Taking only k columns of the rotation still draws all n x n, so
    # later draws from the same stream do not move.
    rows, n, _, seed = shape
    private = {i for i in private if i < n} or {0}
    stream = Rng(seed).child(1)
    san.asup(np.ones((rows, n)), 0.5, private, stream)
    expected = Rng(seed).child(1)
    asup_draws(expected, rows, n, private, 0.5)
    assert same_bits(stream.standard_normal(8), expected.standard_normal(8))


CHUNKED = settings(max_examples=25, deadline=None, database=None)


@st.composite
def chunk_spans(draw, per_chunk):
    """A count of items, ``per_chunk(...)`` to a chunk, that spans 1, 2, 3
    or 4 chunks of ``san.DRAW_CHUNK`` draw entries."""
    chunks = draw(st.integers(1, 4))
    return (chunks - 1) * per_chunk + draw(st.integers(1, per_chunk))


@CHUNKED
@given(st.integers(30, 60), st.integers(10, 30), st.integers(1, 3), BOUNDED, st.booleans(),
       st.integers(0, 2**32 - 1), st.data())
def test_chunked_nrp_equals_one_draw(n, m, rows_per_matrix, distribution, bounded, seed, data):
    # Drawn and projected a chunk at a time, nrp is bit for bit the
    # projection by one draw of all the round's matrices.
    m = min(m, n)
    count = data.draw(chunk_spans(san.DRAW_CHUNK // (n * m)))
    y = Rng(seed).child(0).uniform(0.0, 1.0, (count * rows_per_matrix, n))
    betas = Rng(seed).child(2).uniform(0.1, 2.0, count) if bounded else None
    batch = san.nrp(y, m, Rng(seed).child(1), distribution, betas, rows_per_matrix)
    a = san.sample_bounded_matrices(count, n, m, distribution, Rng(seed).child(1), betas)
    assert same_bits(batch, matvec_rows(np.swapaxes(a, 1, 2), y))


@CHUNKED
@given(st.integers(30, 60), st.sets(st.integers(0, 29), min_size=1), st.floats(0.01, 1.0),
       st.integers(0, 2**32 - 1), st.data())
def test_chunked_asup_equals_one_draw(n, private, scale, seed, data):
    # Rotated a chunk of frames at a time, asup is bit for bit the
    # rotation by one draw of all the round's frames.
    rows = data.draw(chunk_spans(san.DRAW_CHUNK // (n * n)))
    y = Rng(seed).child(0).uniform(0.0, 1.0, (rows, n))
    batch = san.asup(y, scale, private, Rng(seed).child(1))
    k = max(private) + 1
    z, g = asup_draws(Rng(seed).child(1), rows, n, private, scale)
    q = orthonormalize(np.ascontiguousarray(g[:, :, :k]))
    assert same_bits(batch, y + matvec_rows(q, np.ascontiguousarray(z[:, :k])))


@PROPERTY
@given(shapes(), BOUNDED)
def test_drawing_attacks_equal_per_tuple_loop(shape, distribution):
    rows, n, m, seed = shape
    s = Rng(seed).child(0).standard_normal((rows, m))
    root = Rng(seed).child(1)
    streams = [root.child(j) for j in range(rows)]
    inverse = atk.random_inverse(s, n, distribution, streams)
    for j in range(rows):
        t = SanitizedTuple(s[j], "a0", "nrp")
        one = atk.attack_random_inverse(t, n, distribution, root.child(j)).reconstructed
        b = san.sample_bounded_matrix(n, m, distribution, root.child(j).child(0))
        assert same_bits(one, inverse[j])
        # QR is backward stable: forward error within a multiple of
        # cond(B) * eps of the pseudo-inverse solution.
        expected = np.linalg.pinv(b.T) @ s[j]
        bound = 100 * n * np.linalg.cond(b) * np.finfo(float).eps * np.linalg.norm(expected)
        assert np.linalg.norm(one - expected) <= bound


@PROPERTY
@given(shapes(), st.booleans(), st.booleans())
def test_linear_attacks_rowwise(shape, with_mean, mean_in_tuple):
    rows, n, m, seed = shape
    gen = Rng(seed)
    s = gen.child(0).standard_normal((rows, m))
    q = san.sample_orthonormal_matrix(n, m, gen.child(1))
    mean = gen.child(2).standard_normal(n) if with_mean else None
    lm = gen.child(3).standard_normal((n, m))
    known = atk.known_matrix(s, q, mean, mean_in_tuple)
    linear = atk.linear(s, lm)
    pinv_t = np.linalg.pinv(q.T)
    for j in range(rows):
        t = SanitizedTuple(s[j], "a0", "brp")
        expected = pinv_t @ (s[j] - q.T @ mean if with_mean and mean_in_tuple else s[j])
        if with_mean:
            expected = expected + mean
        assert same_bits(atk.known_matrix(s[j:j + 1], q, mean, mean_in_tuple)[0], known[j])
        assert same_bits(known[j], expected)
        assert same_bits(atk.attack_linear(t, lm).reconstructed, linear[j])
        assert same_bits(linear[j], lm @ s[j])


@PROPERTY
@given(shapes(), BOUNDED, st.integers(1, 8))
def test_expected_inverse_map_is_the_mean_of_draws(shape, distribution, samples):
    _, n, m, seed = shape
    rng = Rng(seed)
    acc = np.zeros((n, m))
    for j in range(samples):
        acc += np.linalg.pinv(san.sample_bounded_matrix(n, m, distribution, rng.child(j)).T)
    assert same_bits(atk.expected_inverse_map(n, m, distribution, samples, rng),
                     acc / samples)


@PROPERTY
@given(shapes(), st.booleans())
def test_utility_rowwise(shape, same_quadrant):
    rows, n, m, seed = shape
    y = Rng(seed).child(0).uniform(0.05, 1.0, (rows, n))
    s = Rng(seed).child(1).standard_normal((rows, m))
    cos, u = utility_scores(y, s, same_quadrant)
    for j in range(rows):
        score = utility(tup(y[j]), SanitizedTuple(s[j], "a0", "nrp"), same_quadrant)
        raw = cosine(y[j], zero_pad(s[j], n))
        assert same_bits(score.cosine_raw, cos[j]) and same_bits(raw, cos[j])
        assert same_bits(score.utility, u[j])
        assert score.utility == (min(max(raw, 0.0), 1.0) if same_quadrant else raw)


@st.composite
def small_configs(draw, **fixed):
    n = draw(st.integers(2, 10))
    return ExperimentConfig(
        agent_count=draw(st.integers(2, 8)), observations_per_agent=draw(st.integers(1, 4)),
        input_dim=n, param_dim=draw(st.integers(1, n)), target_dim=draw(st.integers(1, n)),
        private_count=draw(st.integers(0, n)), k_neighbors=1, repetitions=1,
        min_utility=draw(st.floats(0.1, 1.0)), master_seed=draw(st.integers(0, 2**32 - 1)),
        **fixed)


@PROPERTY
@given(small_configs(sanitizer="nrp"), BOUNDED)
def test_batched_nrp_meets_each_agents_bound(cfg, distribution):
    cfg = replace(cfg, entry_distribution=distribution.value)
    rng = Rng(cfg.master_seed)
    data = generate_synthetic(cfg, rng.child(0))
    sanitized, _ = _sanitize_round(cfg, data, rng.child(1))
    cell = make_grid(cfg, float(np.linalg.norm(data.values, axis=1).max())).cell_side
    betas = np.repeat([c.frobenius_bound for c in _certificates(cfg, data, cell)],
                      cfg.observations_per_agent)
    # The round's matrices are one draw of all of them from its stream.
    matrices = san.sample_bounded_matrices(len(betas), cfg.input_dim, cfg.target_dim,
                                           distribution, rng.child(1), betas)
    assert same_bits(matvec_rows(np.swapaxes(matrices, 1, 2), data.values), sanitized)
    for a, beta in zip(matrices, betas):
        assert abs(np.linalg.norm(a) - beta) <= 1e-12


@PROPERTY
@given(small_configs(adversary="random-inverse"), st.sampled_from(["nrp", "nrp-unbounded"]),
       BOUNDED)
def test_batched_random_inverse_equals_per_tuple_loop(cfg, sanitizer, distribution):
    cfg = replace(cfg, sanitizer=sanitizer, entry_distribution=distribution.value)
    rng = Rng(cfg.master_seed)
    data = generate_synthetic(cfg, rng.child(0))
    sanitized, matrix = _sanitize_round(cfg, data, rng.child(1))
    recon = _attack_round(cfg, data, sanitized, matrix, rng.child(2))
    for j, s in enumerate(sanitized):
        one = atk.attack_random_inverse(SanitizedTuple(s, "a0", sanitizer), cfg.input_dim,
                                        cfg.distribution, rng.child(2).child(j))
        assert same_bits(one.reconstructed, recon[j])
