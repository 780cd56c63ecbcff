import numpy as np
import pytest

from rollmia.streams import (
    bounded_draws,
    entropy_words,
    indexed_entropy,
    seed_states,
    seeded_generator,
    state_generator,
    uint64_generators,
)

from conftest import SEED_CASES
from reference import latent_rows


def _seedsequence_cases():
    """Entropies: single ints, (seed, i) tuples, and 1 to 9 words of
    entropy, as lists and as long ints; rows longer than the 4-word pool
    mix their extra words into every pool word."""
    cases = list(SEED_CASES)
    cases += [(seed, i) for seed in SEED_CASES for i in (0, 1, 2**32 - 1, 2**32 + 3)]
    cases += [list(range(1, words + 1)) for words in range(1, 10)]
    cases += [2**(32 * (words - 1)) + 7 for words in range(1, 10)]
    return cases


def test_seed_rows_match_seedsequence():
    for entropy in _seedsequence_cases():
        words = entropy_words(entropy)
        expected = np.random.SeedSequence(entropy).generate_state(4, np.uint64)
        state, = seed_states(np.array([words]))
        assert np.array_equal(state, expected), entropy
        rng = state_generator(state)
        ref = np.random.default_rng(entropy)
        assert rng.choice(1000, size=5, replace=False).tolist() == ref.choice(1000, size=5, replace=False).tolist()
        assert rng.standard_normal() == ref.standard_normal()
        assert rng.integers(2**63) == ref.integers(2**63)
    # a long entropy integer: rows of 9 words, beyond the pool, in one batch
    longs = [2**256 + 3 * i for i in range(5)]
    rows = np.array([entropy_words(value) for value in longs])
    assert rows.shape == (5, 9)
    expected = [np.random.SeedSequence(value).generate_state(4, np.uint64) for value in longs]
    assert np.array_equal(seed_states(rows), np.stack(expected))


def test_indexed_entropy_rows_match_seedsequence():
    for seed in SEED_CASES:
        states = seed_states(indexed_entropy(entropy_words(seed), 40))
        for i, state in enumerate(states):
            assert np.array_equal(state, np.random.SeedSequence((seed, i)).generate_state(4, np.uint64))


def test_entropy_words_reject_what_seedsequence_rejects():
    for bad in (-1, np.int64(-3), (4, -1), [1, [2, -5]]):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(bad)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            entropy_words(bad)
    for bad in (1.5, (1.5, 2), "7", None):
        with pytest.raises(TypeError):
            entropy_words(bad)


def test_seeded_generator_draws_what_default_rng_draws():
    rng = np.random.default_rng(29)
    seeds = [
        0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**100 + 5,
        (0, 0), (5, 2**32), (2**40, 3), (),
        [3, 2**33], (1, 2, 3), np.uint64(7), (np.int64(3), 4), True,
    ]
    seeds += [int(s) for s in rng.integers(2**63, size=300)]
    seeds += [tuple(pair) for pair in rng.integers(2**32, size=(300, 2)).tolist()]
    for seed in seeds:
        ours, ref = seeded_generator(seed), np.random.default_rng(seed)
        assert np.array_equal(ours.random(4), ref.random(4)), seed
        assert np.array_equal(ours.normal(size=4), ref.normal(size=4)), seed
    for bad in (-1, (1, -2), 1.5, "3"):
        with pytest.raises(Exception) as expected:
            np.random.default_rng(bad)
        with pytest.raises(Exception) as raised:
            seeded_generator(bad)
        assert raised.type is expected.type, bad


def test_bounded_draws_flag_the_halves_numpy_rejects():
    # one draw a row, from each word's low half
    words = np.array([[0], [1], [2**30], [2**31 + 1], [2**32 - 1]], dtype=np.uint64)
    values, rejected = bounded_draws(words, np.array([12], dtype=np.uint64))
    assert values[:, 0].tolist() == [0, 0, 3, 6, 11]
    # 12 * half mod 2**32 falls below (2**32 - 12) % 12 == 4 only for the
    # multiples of 2**30, a zero half among them
    assert rejected[:, 0].tolist() == [True, False, True, False, False]
    # (2**32 - 2) % 2 == 0: numpy never rejects a half for bound 2
    _, rejected = bounded_draws(words, np.array([2], dtype=np.uint64))
    assert not rejected.any()
    # one word, two draws: the low half first, then the high half
    words = np.array([[2**30 * 2**32 + 2**31 + 1]], dtype=np.uint64)
    values, rejected = bounded_draws(words, np.array([12, 12], dtype=np.uint64))
    assert values.tolist() == [[6, 3]] and rejected.tolist() == [[False, True]]
    # and so does numpy: two bounded draws take one raw word's two halves
    rng, word = np.random.default_rng(5), np.random.default_rng(5).bit_generator.random_raw(1)
    values, _ = bounded_draws(word[None], np.array([7, 1000], dtype=np.uint64))
    assert values.tolist() == [[rng.integers(7), rng.integers(1000)]]


def test_uint64_generators_are_default_rng_of_each_seed():
    """A seed below 2**32 is one word to ``default_rng`` and two to
    ``uint64_generators``, whose zero high word must hash as absent."""
    seeds = np.array([0, 1, 2**32 - 1, 2**32, 2**64 - 1], dtype=np.uint64)
    rows = np.stack([rng.standard_normal(16) for rng in uint64_generators(seeds)])
    assert rows.tobytes() == latent_rows(seeds, 16).tobytes()
