import numpy as np
import pytest

from rollmia.streams import (
    bounded_draws,
    entropy_words,
    indexed_entropy,
    seed_states,
    seeded_generator,
    state_generator,
)

from conftest import SEED_CASES


def _seedsequence_cases():
    """(entropy, spawn_key) pairs: single ints, (seed, i) tuples, 1 to 9
    words of entropy, and spawned children at depth 1 to 3 with spawn-key
    entries at and above 2**32."""
    cases = [(seed, ()) for seed in SEED_CASES]
    cases += [((seed, i), ()) for seed in SEED_CASES for i in (0, 1, 2**32 - 1, 2**32 + 3)]
    cases += [(list(range(1, words + 1)), ()) for words in range(1, 10)]
    cases += [(2**(32 * (words - 1)) + 7, ()) for words in range(1, 10)]
    for seed in SEED_CASES + ((3, 4, 5, 6, 7),):
        for key in ((0,), (2**32,), (1, 2**40 + 9), (2**32 - 1, 5, 2**64 - 1)):
            cases.append((seed, key))
    return cases


def test_seed_rows_match_seedsequence():
    for entropy, key in _seedsequence_cases():
        words = entropy_words(entropy, key)
        expected = np.random.SeedSequence(entropy, spawn_key=key).generate_state(4, np.uint64)
        state, = seed_states(np.array([words]))
        assert np.array_equal(state, expected), (entropy, key)
        rng = state_generator(state)
        ref = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=key))
        assert rng.choice(1000, size=5, replace=False).tolist() == ref.choice(1000, size=5, replace=False).tolist()
        assert rng.standard_normal() == ref.standard_normal()
        assert rng.integers(2**63) == ref.integers(2**63)
    # spawned children, by numpy's own spawn, at depth 1 to 3
    for seed in (5, 2**64 - 1, 2**128 + 1):
        node = np.random.SeedSequence(seed)
        for _depth in range(3):
            children = node.spawn(3)
            rows = np.array([entropy_words(c.entropy, c.spawn_key) for c in children])
            expected = [c.generate_state(4, np.uint64) for c in children]
            assert np.array_equal(seed_states(rows), np.stack(expected))
            node = children[-1]


def test_indexed_entropy_rows_match_seedsequence():
    for seed in SEED_CASES:
        states = seed_states(indexed_entropy(entropy_words(seed), 40))
        for i, state in enumerate(states):
            assert np.array_equal(state, np.random.SeedSequence((seed, i)).generate_state(4, np.uint64))
    # a matrix of prefixes, as an MC plan builds it: per trial, the words of
    # the second child of the trial's SeedSequence, whose children the
    # trial's candidates draw with
    for seed in SEED_CASES:
        roots = [trial.spawn(2)[1] for trial in np.random.SeedSequence(seed).spawn(3)]
        prefixes = [entropy_words(root.entropy, root.spawn_key) for root in roots]
        states = seed_states(indexed_entropy(prefixes, 5))
        expected = [child.generate_state(4, np.uint64) for root in roots for child in root.spawn(5)]
        assert np.array_equal(states, np.stack(expected)), seed


def test_entropy_words_reject_what_seedsequence_rejects():
    for bad in (-1, np.int64(-3), (4, -1), [1, [2, -5]]):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(bad)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            entropy_words(bad)
    with pytest.raises(ValueError):
        entropy_words(3, spawn_key=(-2,))
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
