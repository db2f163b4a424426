import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privsan import rng, sanitize
from privsan.attack import expected_inverse_map, random_inverse
from privsan.errors import DegenerateMatrix
from privsan.rng import Rng, fresh_uniform, philox_keys
from privsan.sanitize import EntryDistribution, sample_bounded_matrices, sample_fresh_matrices

# A uint32 overflow warning from the vectorized hash fails these tests.
pytestmark = pytest.mark.filterwarnings("error")

# 0, the largest one-word value, the smallest two-word value, a three-word value.
EDGES = [0, 2**32 - 1, 2**32, 2**64 + 5]
WORDS = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**100))


def seed_sequence_key(seed, path):
    return np.random.SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)


@st.composite
def batches(draw):
    # A few seeds and path lengths shared by many rows, so that groups
    # hash both constant and varying columns, some of several words.
    seeds = draw(st.lists(WORDS, min_size=1, max_size=3))
    lengths = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3))
    entries = st.one_of(st.integers(0, 3), WORDS)
    path = st.sampled_from(lengths).flatmap(
        lambda k: st.lists(entries, min_size=k, max_size=k).map(tuple))
    return draw(st.lists(st.tuples(st.sampled_from(seeds), path), min_size=1, max_size=24))


class TestPhiloxKeys:
    @settings(max_examples=200, deadline=None)
    @given(batches())
    def test_keys_equal_seed_sequence(self, streams):
        keys = philox_keys(streams)
        assert keys.dtype == np.uint64 and keys.shape == (len(streams), 2)
        for (seed, path), key in zip(streams, keys):
            assert key.tolist() == seed_sequence_key(seed, path).tolist(), (seed, path)

    def test_edge_seeds_and_multi_word_entries_in_one_batch(self):
        streams = [(seed, path) for seed in EDGES
                   for path in [(), (0,), (2**32,), (5, 2**64 + 5, 0), (2**32 - 1, 7)]]
        streams += [(2024, (0, j, 0)) for j in range(300)]
        keys = philox_keys(streams)
        for (seed, path), key in zip(streams, keys):
            assert key.tolist() == seed_sequence_key(seed, path).tolist(), (seed, path)

    def test_keys_are_the_generators_keys(self):
        rng = Rng(2**32 + 3, (1, 2**40))
        key = rng.generator.bit_generator.state["state"]["key"]
        assert philox_keys([(rng.seed, rng.path)])[0].tolist() == key.tolist()

    def test_negative_entries_raise(self):
        with pytest.raises(ValueError):
            philox_keys([(1, (2,)), (1, (-3,))])
        with pytest.raises(ValueError):
            philox_keys([(-1, ())])


class TestFreshDraws:
    STREAMS = [(0, ()), (7, (3,)), (2**32, (0, 2**32)), (2**64 + 5, (1, 2, 3))]

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (-1.0, 1.0), (-0.5, 0.5), (3.0, 5.0)])
    def test_first_draws_equal_each_streams_generator(self, low, high):
        draws = fresh_uniform(philox_keys(self.STREAMS), low, high, (5, 3))
        for (seed, path), draw in zip(self.STREAMS, draws):
            expected = Rng(seed, path).generator.uniform(low, high, (5, 3))
            assert draw.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("low, high", [(0.0, 1.0), (-1.0, 1.0), (-0.5, 0.5), (0.2, 1.0),
                                           (np.linspace(-1.0, 0.0, 7), 1.0)])
    def test_stream_uniform_equals_generator_uniform(self, low, high):
        # From Generator.random at scalar widths 1 and 2, from
        # Generator.uniform otherwise; the bits are numpy's either way.
        got = Rng(9, (1,)).uniform(low, high, (40, 7))
        assert got.tobytes() == Rng(9, (1,)).generator.uniform(low, high, (40, 7)).tobytes()

    def test_fresh_draws_refuse_an_inexact_width(self):
        with pytest.raises(ValueError, match="width"):
            fresh_uniform(philox_keys(self.STREAMS), 0.2, 1.0, (2, 2))

    @pytest.mark.parametrize("distribution", list(EntryDistribution))
    def test_both_routes_equal_generator_uniform(self, distribution):
        # The batched route and the per-stream route both give the bits
        # of Generator.uniform(low, 1.0), so no stream's draws move.
        low = 0.0 if distribution is EntryDistribution.UNIT_UNIFORM else -1.0
        keys = philox_keys(self.STREAMS)
        batched = sample_fresh_matrices(6, 4, distribution, keys)
        for (seed, path), a in zip(self.STREAMS, batched):
            expected = Rng(seed, path).generator.uniform(low, 1.0, (6, 4))
            assert a.tobytes() == expected.tobytes()
            per_stream = sample_bounded_matrices(3, 6, 4, distribution, Rng(seed, path))
            expected = Rng(seed, path).generator.uniform(low, 1.0, (3, 6, 4))
            assert per_stream.tobytes() == expected.tobytes()

    def test_an_all_zero_draw_is_refused(self, monkeypatch):
        # On the batched route and on both attacks that take it.
        unit = EntryDistribution.UNIT_UNIFORM
        streams = [Rng(5).child(j) for j in range(3)]
        keys = philox_keys([(r.seed, r.path) for r in streams])

        def zero_second(keys, low, high, shape):
            u = fresh_uniform(keys, low, high, shape)
            u[1] = 0.0
            return u

        monkeypatch.setattr(sanitize, "fresh_uniform", zero_second)
        with pytest.raises(DegenerateMatrix):
            sample_fresh_matrices(4, 2, unit, keys)
        with pytest.raises(DegenerateMatrix):
            random_inverse(np.ones((3, 2)), 4, unit, streams)
        with pytest.raises(DegenerateMatrix):
            expected_inverse_map(4, 2, unit, 3, Rng(5))


class TestChild:
    def test_child_equals_the_stream_at_the_longer_path(self):
        parent = Rng(2**33 + 1, (4, 0))
        for index in (0, 9, 2**40, np.int64(3)):
            child, direct = parent.child(index), Rng(parent.seed, parent.path + (int(index),))
            assert (child.seed, child.path) == (direct.seed, direct.path)
            assert all(type(p) is int for p in child.path)
            assert child.standard_normal(6).tobytes() == direct.standard_normal(6).tobytes()

    def test_negative_index_raises(self):
        with pytest.raises(ValueError):
            Rng(1).child(-1)
        with pytest.raises(ValueError):
            Rng(1, (2,)).child(-1)


def generator_at(seed, path):
    """A stream's generator, built the plain way."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=path)))


class TestKeyedFirstDraw:
    # A fresh stream's first Rng.uniform draw comes from its key on the
    # thread's Philox; its later draws continue after it.

    def test_key_equals_seed_sequence(self):
        for seed in EDGES:
            for path in [(), (0,), (2**32,), (5, 2**64 + 5, 0), (2**32 - 1, 7), (1,) * 9]:
                key = Rng(seed, path)._key()
                assert key.dtype == np.uint64
                assert key.tolist() == seed_sequence_key(seed, path).tolist(), (seed, path)

    @pytest.mark.parametrize("first", [1, 2, 3, 4, 5, 7, 8, 1000, (3, 50, 20)])
    def test_later_draws_continue_after_the_keyed_draw(self, first):
        for seed, path in TestFreshDraws.STREAMS:
            r = Rng(seed, path)
            draw = r.uniform(-1.0, 1.0, first)
            assert "generator" not in vars(r)
            later = [r.uniform(0.0, 1.0, 5), r.uniform(0.2, 1.0, 3), r.standard_normal(4)]
            gen = generator_at(seed, path)
            expected = [gen.uniform(-1.0, 1.0, first), gen.uniform(0.0, 1.0, 5),
                        gen.uniform(0.2, 1.0, 3), gen.standard_normal(4)]
            for got, want in zip([draw] + later, expected):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_a_stream_that_has_drawn_draws_from_its_own_state(self):
        r = Rng(11, (2,))
        head = r.standard_normal(3)
        tail = r.uniform(0.0, 1.0, 6)
        gen = generator_at(11, (2,))
        assert head.tobytes() == gen.standard_normal(3).tobytes()
        assert tail.tobytes() == gen.uniform(0.0, 1.0, 6).tobytes()

    def test_a_keyed_first_draw_builds_no_philox(self, monkeypatch):
        Rng(1).uniform(0.0, 1.0, 2)    # this thread's Philox exists from here on
        built = []
        philox = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        r = Rng(2024, (0, 1, 7))
        r.uniform(0.0, 1.0, (1, 50, 20))
        assert built == []
        r.uniform(0.0, 1.0, 1)    # the second draw builds the stream's own
        assert len(built) == 1

    def test_threads_drawing_interleaved_get_one_thread_bits(self):
        # Each thread sets and draws from its own Philox, so a switch
        # between a state set and its draw moves no bits.
        workers = 4
        streams = [[(7, (t, j)) for j in range(40)] for t in range(workers)]
        alone = [[Rng(s, p).uniform(-1.0, 1.0, (4, 3)).tobytes() for s, p in rows]
                 for rows in streams]
        barrier = threading.Barrier(workers, timeout=60)
        got, generators = [[] for _ in range(workers)], [None] * workers

        def draw(t):
            for seed, path in streams[t]:
                barrier.wait()
                got[t].append(Rng(seed, path).uniform(-1.0, 1.0, (4, 3)).tobytes())
            generators[t] = rng._keyed()[0]

        run_in_threads(draw, workers)
        assert got == alone
        assert len({id(g) for g in generators}) == workers


def run_in_threads(target, workers):
    """Run ``target(t)`` on ``workers`` threads that switch every
    microsecond; each must finish within a minute."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(t,)) for t in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
