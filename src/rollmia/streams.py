"""numpy's seeded streams, reproduced for whole batches and single records.

Every seeded draw in rollmia is the stream that ``np.random.default_rng``
gives on some entropy: a synthetic roll on ``(seed, i)``, a stash sample's
latent row on its stash seed, an oracle's score or sample on its record's
seed.  This module is the only one that knows how numpy turns such entropy
into draws, so the rest of the package asks it for states, Generators or
words.

- **Entropy.** ``entropy_words`` lists the uint32 words that
  ``SeedSequence(entropy)`` hashes, and ``indexed_entropy`` the rows
  ``prefix + [i]`` of a batch of items.
- **States.** ``seed_states`` hashes a (k, L) matrix of such words in one
  vectorized pass into ``generate_state(4, np.uint64)`` rows, bit for bit
  as SeedSequence does (NEP 19 keeps that algorithm stable).  Building an
  item's Generator then costs only PCG64's own seeding:
  ``state_generator(state)`` hands the row to PCG64 through ``_SeedState``.
- **Single records.** ``seeded_generator(seed)`` is ``default_rng(seed)``
  for one seed: numpy's C code mixes the seed into the SeedSequence pool,
  and the pool is hashed here on Python ints, which skips numpy's per-call
  Python wrappers.
- **Raw words.** ``raw_words`` gives each state's first raw PCG64 words,
  from which a batch replays numpy's own draws: ``bounded_draws`` reads a
  row's words as uint32 halves, low half first, as ``Generator.integers``
  takes them, and flags a half that numpy would reject and draw again; a
  uniform (``Generator.random``) takes a whole word, (w >> 11) * 2**-53.
  ``pianoroll.synth_generate`` replays its rolls this way; a row with a
  rejected half is drawn again by its own Generator, so a numpy change to a
  draw fails a per-row reference test rather than changing bytes.

The per-record functions are public here, yet a traced benchmark job adds
no span per record: perfbench's tracer wraps the public functions of its
listed modules only, and this module is not one of them.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def entropy_words(entropy) -> list[int]:
    """The uint32 words that ``SeedSequence(entropy)`` hashes: those of a
    non-negative int, least significant first, or of a sequence of them,
    concatenated; raises what SeedSequence raises."""
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        if value < 0:
            raise ValueError("expected non-negative integer")
        words = [value & _MASK32]
        while value > _MASK32:
            value >>= 32
            words.append(value & _MASK32)
        return words
    if isinstance(entropy, (str, bytes, float, np.inexact)) or not hasattr(entropy, "__iter__"):
        raise TypeError(f"seed must be integer, not {entropy!r}")
    words = []
    for item in entropy:
        # a one-word int, the common item, costs no call
        if type(item) is int and 0 <= item <= _MASK32:
            words.append(item)
        else:
            words += entropy_words(item)
    return words


def indexed_entropy(prefix: list[int], count: int) -> np.ndarray:
    """(count, L + 1) uint32 rows ``prefix + [i]`` for ``i < count``, from a
    list of L words: the entropy of items ``(..., i)``, one word each."""
    rows = np.empty((count, len(prefix) + 1), dtype=np.uint32)
    rows[:, :-1] = prefix
    rows[:, -1] = np.arange(count)
    return rows


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The SeedSequence hash constant and its next ``count`` values, as a
    uint32 column; they evolve independently of the data, so every row of a
    batch shares them."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix applied ``len(consts) - 1`` times in turn, the
    j-th with constants j and j + 1: a (k,) vector is hashed once per step,
    an (n, k) array row by row."""
    out = values ^ consts[:-1]
    out *= consts[1:]
    out ^= out >> 16
    return out


# the constants of generate_state's hash of the pool into 8 output words
_STATE_CONSTS = _hash_constants(_INIT_B, _MULT_B, 8)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * _MIX_MULT_L
    out -= y * _MIX_MULT_R
    out ^= out >> 16
    return out


def seed_states(entropy: np.ndarray) -> np.ndarray:
    """(k, 4) uint64: row r is ``generate_state(4, np.uint64)`` of the
    SeedSequence whose assembled entropy (``entropy_words``) is
    ``entropy[r]``, for a (k, L) uint32 matrix of such words.

    Up to the pool size, trailing zero words hash as absent ones, so rows of
    at most 4 words may be zero-extended to a common length; beyond it every
    word counts.
    """
    words = np.ascontiguousarray(np.asarray(entropy, dtype=np.uint32).T)
    length, k = words.shape
    extra = max(0, length - _POOL_SIZE)
    consts = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE + _POOL_SIZE * extra)
    pool = np.zeros((_POOL_SIZE, k), dtype=np.uint32)
    pool[: min(length, _POOL_SIZE)] = words[:_POOL_SIZE]
    pool = _hashmix(pool, consts[: _POOL_SIZE + 1])
    used = _POOL_SIZE
    # mix all bits together so late words affect earlier ones
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[used : used + _POOL_SIZE]))
        used += _POOL_SIZE - 1
    # words beyond the pool are mixed into every pool word
    for src in range(_POOL_SIZE, length):
        pool = _mix(pool, _hashmix(words[src], consts[used : used + _POOL_SIZE + 1]))
        used += _POOL_SIZE
    state = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], _STATE_CONSTS)
    low, high = state[0::2].astype(np.uint64), state[1::2].astype(np.uint64)
    return np.ascontiguousarray((low | high << np.uint64(32)).T)


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A precomputed ``generate_state(4, np.uint64)`` row, handed to PCG64,
    whose own C seeding then runs unchanged."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        # PCG64 passes np.uint64 itself, which skips building a dtype
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("a seed state row holds 4 uint64 words")
        return self.state


def state_generator(state: np.ndarray) -> np.random.Generator:
    """The Generator on a PCG64 seeded with the ``seed_states`` row ``state``."""
    return np.random.Generator(np.random.PCG64(_SeedState(state)))


# ``_STATE_CONSTS`` as Python ints, for one seed's hash in ``seeded_generator``
_STATE_INTS = _STATE_CONSTS[:, 0].tolist()


def seeded_generator(seed) -> np.random.Generator:
    """``np.random.default_rng(seed)``, bit for bit, for a seed that is a
    non-negative int or a sequence of them; any other seed raises what
    ``entropy_words`` raises.

    numpy's C code mixes the seed's words, passed as one uint32 array, into
    the SeedSequence pool; the pool is hashed here into the words of
    ``generate_state(4, np.uint64)`` on Python ints, one seed's twin of the
    last lines of ``seed_states``.  This skips numpy's per-call Python work
    (an array built per int of the seed, an ``errstate`` wrapper around
    ``generate_state``), about 30 % of the call.  The 8 steps are
    written out, as a loop over them costs about 0.5 us more.
    """
    p0, p1, p2, p3 = np.random.SeedSequence(np.array(entropy_words(seed), dtype=np.uint32)).pool.tolist()
    c0, c1, c2, c3, c4, c5, c6, c7, c8 = _STATE_INTS
    # output word j hashes pool word j % 4 with constants j and j + 1
    w0 = (p0 ^ c0) * c1 & _MASK32
    w1 = (p1 ^ c1) * c2 & _MASK32
    w2 = (p2 ^ c2) * c3 & _MASK32
    w3 = (p3 ^ c3) * c4 & _MASK32
    w4 = (p0 ^ c4) * c5 & _MASK32
    w5 = (p1 ^ c5) * c6 & _MASK32
    w6 = (p2 ^ c6) * c7 & _MASK32
    w7 = (p3 ^ c7) * c8 & _MASK32
    # uint64 word i is output words 2i (low) and 2i + 1 (high)
    return state_generator(np.array([
        w0 ^ w0 >> 16 | (w1 ^ w1 >> 16) << 32,
        w2 ^ w2 >> 16 | (w3 ^ w3 >> 16) << 32,
        w4 ^ w4 >> 16 | (w5 ^ w5 >> 16) << 32,
        w6 ^ w6 >> 16 | (w7 ^ w7 >> 16) << 32,
    ], dtype=np.uint64))


def raw_words(states: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The (k, count) uint64 ``out``, row r filled with the first ``count``
    raw words of a PCG64 seeded with the ``seed_states`` row ``states[r]``."""
    for row, state in zip(out, states):
        row[:] = np.random.PCG64(_SeedState(state)).random_raw(len(row))
    return out


def bounded_draws(words: np.ndarray, bounds: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``Generator.integers(h)`` for each bound h of the (d,) uint64
    ``bounds`` in turn, from each row of the (k, w) raw words ``words``:
    draw j takes the row's j-th uint32 half, low half first, as PCG64 hands
    them out, so d is at most 2w.  By numpy's (Lemire's) rule for h in [2,
    2**32], the scaled half m = half * h draws m >> 32, and numpy rejects the
    half, drawing another, when m mod 2**32 is below (2**32 - h) mod h.
    Returns the (k, d) uint64 values and the (k, d) rejected mask."""
    m = np.asarray(words, dtype="<u8").view("<u4")[:, : len(bounds)].astype(np.uint64)
    m *= bounds
    rejected = (m & _MASK32) < (2**32 - bounds) % bounds
    m >>= 32
    return m, rejected
