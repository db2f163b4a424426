"""Deterministic random streams with hierarchical seed splitting.

Every stochastic routine in this package takes an explicit :class:`Rng`.
Streams are produced by the counter-based Philox generator, so a given
``(seed, path)`` pair yields the identical sequence on every platform.
Concurrent tasks must not share one ``Rng``; derive one child per task
with :meth:`Rng.child`.

A stream's generator is ``Philox`` keyed by numpy's
``SeedSequence(seed, spawn_key=path).generate_state(2, uint64)``, with
its counter at 0.  Building one per stream costs more than a short
draw, so a fresh stream's first draw is taken from its key instead:
:func:`fresh_uniform` sets one ``Philox`` per thread (a
``threading.local``) to the state (key, counter 0) of a freshly seeded
stream and draws with ``Generator.random``, which gives the bits of the
stream's own generator.  :meth:`Rng.uniform` takes that keyed route
when the stream has not drawn yet, and callers that take one draw from
each of many fresh streams hash all their keys in one vectorized pass
with :func:`philox_keys` and draw them in one call.  Later draws
continue where the keyed draw stopped: the stream's generator, built
when it is first needed, skips the entries that draw took, so every
stream gives the same sequence whichever route its first draw took.
Both routes move ``Generator.random`` draws onto their range by one
rule, :func:`_from_random`.
"""

from __future__ import annotations

import threading
from functools import cached_property

import numpy as np


class Rng:
    """A seeded random stream addressed by a 64-bit seed and a split path.

    ``Rng(seed).child(3).child(7)`` is a stream fully determined by
    ``(seed, (3, 7))``, independent of any draws made from its ancestors.
    Deriving a child builds no generator, and neither does a first
    :meth:`uniform` draw at width 1 or 2: it is taken from the stream's key.
    """

    # Entries the keyed first draw took; the generator skips them.
    _taken = 0

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        if self.seed < 0 or any(p < 0 for p in self.path):
            raise ValueError(f"seed and path must be nonnegative, got {self!r}")

    def child(self, index: int) -> "Rng":
        """Derive the independent stream addressed by appending ``index``.
        Only ``index`` is checked: this stream's seed and path already were."""
        index = int(index)
        if index < 0:
            raise ValueError(f"child index must be nonnegative, got {index}")
        child = object.__new__(Rng)
        child.seed, child.path = self.seed, self.path + (index,)
        return child

    @cached_property
    def generator(self) -> np.random.Generator:
        """The stream's own generator, built on first use.  After a keyed
        first draw of k entries it starts at entry k, where that draw
        stopped: ``Generator.random`` takes one uint64 per entry, and
        Philox's counter steps once per four."""
        bitgen = np.random.Philox(np.random.SeedSequence(self.seed, spawn_key=self.path))
        if self._taken:
            steps, rest = divmod(self._taken, 4)
            bitgen.advance(steps)
            bitgen.random_raw(rest)
        return np.random.Generator(bitgen)

    # Thin draw helpers so call sites stay compact.

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """``Generator.uniform(low, high, size)``.  For scalar bounds a
        width of 1 or 2 apart, the same bits come faster from
        ``Generator.random``: see :func:`_from_random`.  At those widths
        the first draw of a stream that has not drawn yet comes from
        :func:`fresh_uniform` on the stream's key, and builds no generator."""
        if np.isscalar(low) and np.isscalar(high) and high - low in _EXACT_WIDTHS:
            if self._taken or size is None or "generator" in self.__dict__:
                return _from_random(self.generator.random(size), low, high)
            shape = tuple(size) if np.iterable(size) else (size,)
            draw = fresh_uniform(self._key()[None], low, high, shape)[0, ...]
            self._taken = draw.size
            return draw
        return self.generator.uniform(low, high, size=size)

    def _key(self) -> np.ndarray:
        """The generator's Philox key, ``SeedSequence(seed,
        spawn_key=path).generate_state(2, uint64)``.  The same entropy
        words go to ``SeedSequence`` as one uint32 array, which it takes
        as is, and its pool is output as ``generate_state`` does."""
        seed, path = self.seed, self.path
        if seed <= _MASK32 and max(path, default=0) <= _MASK32:    # one word each
            words = [seed, 0, 0, 0, *path]
        else:
            words = _words(seed, [(p,) for p in path], [_word_count(p) for p in path])
        pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool.tolist()
        w = _output(pool)
        return np.array([w[0] | w[1] << 32, w[2] | w[3] << 32], dtype=np.uint64)

    def standard_normal(self, size) -> np.ndarray:
        return self.generator.standard_normal(size=size)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, path={self.path})"


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), fixed by numpy.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def philox_keys(streams: list[tuple[int, tuple[int, ...]]]) -> np.ndarray:
    """The (len(streams), 2) uint64 Philox keys of the ``(seed, path)``
    pairs in ``streams``, Python ints: row i equals
    ``SeedSequence(seed, spawn_key=path).generate_state(2, np.uint64)``,
    the key of ``Rng(seed, path)``'s generator.  Streams are hashed in
    groups of one seed and one entropy layout, one uint32 column per
    entropy word; a column that is the same for the whole group stays a
    Python int.  A negative seed or path entry raises ValueError."""
    keys = np.empty((len(streams), 2), dtype=np.uint64)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, (seed, path) in enumerate(streams):
        groups.setdefault((seed, len(path)), []).append(i)
    for (seed, _), rows in groups.items():
        paths = [streams[i][1] for i in rows]
        cols = list(zip(*paths))
        if seed < 0 or any(min(c) < 0 for c in cols):
            raise ValueError("seed and path must be nonnegative")
        if any(max(c) > _MASK32 for c in cols):
            # Entries of several words: group rows by their words per entry.
            layouts: dict[tuple[int, ...], list[int]] = {}
            for i, path in zip(rows, paths):
                layouts.setdefault(tuple(map(_word_count, path)), []).append(i)
            for widths, sub in layouts.items():
                cols = zip(*(streams[i][1] for i in sub))
                keys[sub] = _hash(_words(seed, cols, widths), len(sub))
        else:
            keys[rows] = _hash(_words(seed, cols, (1,) * len(cols)), len(rows))
    return keys


def fresh_uniform(keys: np.ndarray, low: float, high: float,
                  shape: tuple[int, ...]) -> np.ndarray:
    """Stacked ``Rng.uniform(low, high, shape)`` first draws of the fresh
    streams whose Philox keys are ``keys`` (see :func:`philox_keys`), for
    a width ``high - low`` of 1 or 2 (else ValueError).  The calling
    thread's ``Philox`` serves every draw: its state is set to (key,
    counter 0), the state of a freshly seeded stream, before each
    ``Generator.random`` draw."""
    if high - low not in _EXACT_WIDTHS:
        raise ValueError(f"fresh draws need a width of 1 or 2, got [{low}, {high})")
    out = np.empty((len(keys), *shape))
    gen, state = _keyed()
    bitgen = gen.bit_generator
    for key, draw in zip(keys.tolist(), out):
        state["state"]["key"] = key
        bitgen.state = state
        gen.random(out=draw)
    return _from_random(out, low, high)


_thread = threading.local()


def _keyed() -> tuple[np.random.Generator, dict]:
    """This thread's generator for keyed draws and the state dict its
    Philox is set from before each draw; built on the thread's first
    keyed draw, not at import."""
    try:
        return _thread.keyed
    except AttributeError:
        state = {"bit_generator": "Philox", "state": {"counter": [0] * 4, "key": None},
                 "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        _thread.keyed = np.random.Generator(np.random.Philox(0)), state
        return _thread.keyed


# Widths w for which w·u is exact for every Generator.random draw u.
_EXACT_WIDTHS = (1.0, 2.0)


def _from_random(u: np.ndarray, low: float, high: float) -> np.ndarray:
    """``u``, ``Generator.random`` draws, moved in place onto [low, high)
    and returned.  numpy's ``Generator.uniform`` computes low + w·u, w =
    high - low, from the same u; for w in ``_EXACT_WIDTHS`` w·u is exact,
    so u·w + low rounds once as numpy's sum does (fused or not) and the
    bits are equal."""
    if high - low != 1.0:
        u *= high - low
    if low != 0.0:
        u += low
    return u


def _word_count(value: int) -> int:
    return max(1, -(-value.bit_length() // 32))


def _words(seed: int, cols, widths) -> list:
    """The entropy words of a group: the seed's uint32 words (zero-padded
    to the pool size, as SeedSequence pads them when a spawn key exists;
    without one the padding hashes as the missing words do), then each
    path column's ``width`` words, low word first."""
    words = [(seed >> s) & _MASK32 for s in range(0, 32 * _word_count(seed), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    for col, width in zip(cols, widths):
        for s in range(0, 32 * width, 32):
            col_words = col if width == 1 else [(v >> s) & _MASK32 for v in col]
            lo, hi = min(col_words), max(col_words)
            words.append(lo if lo == hi else np.array(col_words, dtype=np.uint32))
    return words


def _wrap(value):
    """A Python int reduced to uint32; a uint32 array has wrapped already."""
    return value & _MASK32 if isinstance(value, int) else value


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix with its hash constant starting at ``init``
    and multiplied by ``mult`` at each call."""
    hash_const = init

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * mult) & _MASK32
        value = _wrap(value * hash_const)
        return value ^ (value >> _XSHIFT)

    return hashmix


def _mix(x, y):
    result = _wrap(_wrap(_MIX_MULT_L * x) - _wrap(_MIX_MULT_R * y))
    return result ^ (result >> _XSHIFT)


def _output(pool: list) -> list:
    """``generate_state``'s four uint32 words from a mixed pool, each a
    Python int or a uint32 column."""
    output = _hashmix(_INIT_B, _MULT_B)
    return [output(value) for value in pool]


def _hash(words: list, count: int) -> np.ndarray:
    """SeedSequence's pool mix and ``generate_state(2, uint64)`` over
    entropy ``words``, each a Python int or a (count,) uint32 column;
    returns the (count, 2) keys."""
    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(w) for w in words[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for w in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(w))
    state = [np.asarray(w, dtype=np.uint64) for w in _output(pool)]
    keys = np.empty((count, 2), dtype=np.uint64)
    keys[:, 0] = state[0] | state[1] << np.uint64(32)
    keys[:, 1] = state[2] | state[3] << np.uint64(32)
    return keys
