import hashlib
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollmia import (
    ConfigError,
    Dataset,
    FormatError,
    PianorollShape,
    SplitSpec,
    StyleParams,
    read_dataset,
    split,
    synth_generate,
    synth_sampler,
    write_dataset,
)
from rollmia import pianoroll
from rollmia.harness import load_experiment_config
from rollmia.pianoroll import (
    _bounded_draws,
    _pick_table,
    check_config_block,
    entropy_words,
    indexed_entropy,
    seed_states,
    seeded_generators,
)

from conftest import make_roll
from reference import flatten, pitch_class_profile, pitch_indices_for_class, synth_rolls_per_roll

SEED_CASES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**96 + 5)


def test_shape_validation():
    with pytest.raises(ConfigError):
        PianorollShape(0, 1, 1, 12)
    with pytest.raises(ConfigError):
        PianorollShape(256, 256, 256, 256)  # over the cell bound
    shape = PianorollShape(2, 1, 16, 24)
    assert shape.cells == 2 * 16 * 24
    assert shape.cells_per_track == 16 * 24


def test_synth_deterministic(desk_shape):
    a = synth_generate(7, 10, desk_shape)
    b = synth_generate(7, 10, desk_shape)
    assert a == b


def test_synth_postconditions(desk_shape):
    ds = synth_generate(7, 10, desk_shape)
    assert len(ds) == 10
    assert np.array_equal(ds.ids, list(range(10)))
    for roll in ds.rolls:
        assert roll.dtype == np.uint8
        assert set(np.unique(roll)) <= {0, 1}


def test_synth_seeds_differ(desk_shape):
    a = synth_generate(7, 100, desk_shape)
    b = synth_generate(8, 100, desk_shape)
    assert any(not np.array_equal(x, y) for x, y in zip(a.rolls, b.rolls))


def test_synth_prefix_stability(desk_shape):
    a = synth_generate(3, 5, desk_shape)
    b = synth_generate(3, 9, desk_shape)
    assert all(np.array_equal(x, y) for x, y in zip(a.rolls, b.rolls[:5]))


def test_synth_pitch_range_too_small():
    shape = PianorollShape(1, 1, 4, 11)
    with pytest.raises(ConfigError, match="pitch range too small"):
        synth_generate(1, 1, shape)
    with pytest.raises(ConfigError, match="pitch range too small"):
        synth_sampler(shape)


def test_pick_table_matches_pitch_indices_for_class():
    for base in range(12):
        for pitches in range(12, 61):
            shape = PianorollShape(1, 1, 1, pitches, base_midi_pitch=base)
            table = _pick_table(shape)
            assert table.shape == (max(1, pitches // 12), 12)
            for pc in range(12):
                candidates = pitch_indices_for_class(shape, pc)
                for octave in range(len(table)):
                    register = candidates[candidates >= 12 * octave]
                    pick = register[0] if register.size else candidates[0]
                    assert table[octave, pc] == pick
                assert table[0, pc] == candidates[0]  # the rhythm track's pitch


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
        assert np.array_equal(seed_states(np.array([words]))[0], expected), (entropy, key)
        rng, = seeded_generators(np.array([words]))
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


SYNTH_SHAPES = (
    PianorollShape(1, 1, 8, 12),  # one track and one octave: no phase or octave draw
    PianorollShape(2, 1, 16, 24),
    PianorollShape(3, 2, 8, 36, 30),
    PianorollShape(2, 1, 3, 13),  # one octave: five halves, so one is left over
)
SYNTH_STYLES = (
    StyleParams(rhythm_period=1),  # no phase draw
    StyleParams(ornament_prob=0.0),  # no ornament words
    StyleParams(ornament_prob=0.3),
    StyleParams(ornament_prob=1.0),
    # a phase bound of 2**32 still draws from one half; above it numpy draws
    # a whole word, so every row is redrawn
    StyleParams(rhythm_period=2**32),
    StyleParams(rhythm_period=2**32 + 1),
)


def _synth_layout(shape, style) -> tuple[int, int]:
    """(bounded draws, raw words) of one roll: the draws of bound above 1
    take a uint32 half each, two to a word, and each ornament cell a word."""
    bounds = (12, 2, 2, 2, shape.pitches // 12, style.rhythm_period if shape.tracks >= 2 else 1)
    halves = sum(bound > 1 for bound in bounds)
    return halves, (halves + 1) // 2 + (shape.cells if style.ornament_prob > 0 else 0)


def test_synth_generate_matches_per_roll_reference(monkeypatch):
    blocks = []
    real_draws = pianoroll._bounded_draws

    def recorded_draws(block_halves, bounds):
        blocks.append(block_halves.shape)
        return real_draws(block_halves, bounds)

    monkeypatch.setattr(pianoroll, "_bounded_draws", recorded_draws)
    for shape in SYNTH_SHAPES:
        for style in SYNTH_STYLES:
            halves, row_words = _synth_layout(shape, style)
            # blocks of three rows, so four rolls run one row past a block boundary
            monkeypatch.setattr(pianoroll, "SYNTH_BLOCK", 3 * row_words)
            # a seed >= 2**96 fills the pool, so (seed, i) has words beyond it
            for seed in SEED_CASES + (2**128 + 1,):
                for count, block_rows in ((1, [1]), (4, [3, 1])):
                    blocks.clear()
                    rolls = synth_generate(seed, count, shape, style).rolls
                    assert np.array_equal(rolls, synth_rolls_per_roll(seed, count, shape, style))
                    assert blocks == [(rows, halves) for rows in block_rows]


def test_bounded_draws_flag_the_halves_numpy_rejects():
    halves = np.array([[0], [1], [2**30], [2**31 + 1], [2**32 - 1]], dtype=np.uint64)
    values, rejected = _bounded_draws(halves, np.array([12], dtype=np.uint64))
    assert values[:, 0].tolist() == [0, 0, 3, 6, 11]
    # 12 * half mod 2**32 falls below (2**32 - 12) % 12 == 4 only for the
    # multiples of 2**30, a zero half among them
    assert rejected[:, 0].tolist() == [True, False, True, False, False]
    # (2**32 - 2) % 2 == 0: numpy never rejects a half for bound 2
    _, rejected = _bounded_draws(halves, np.array([2], dtype=np.uint64))
    assert not rejected.any()


def test_rejected_rows_are_redrawn_by_their_own_generator(monkeypatch):
    real_draws = pianoroll._bounded_draws

    def reject_all(halves, bounds):
        values, rejected = real_draws(halves, bounds)
        # zeroed values give wrong rolls unless every row is redrawn
        return np.zeros_like(values), np.ones_like(rejected)

    monkeypatch.setattr(pianoroll, "_bounded_draws", reject_all)
    style = StyleParams(ornament_prob=0.3)
    for shape in SYNTH_SHAPES:
        assert np.array_equal(
            synth_generate(5, 7, shape, style).rolls, synth_rolls_per_roll(5, 7, shape, style)
        )


def test_synth_generate_memory_is_bounded_by_the_block(desk_shape):
    synth_generate(101, 2, desk_shape)  # first-call set-up outside the trace
    tracemalloc.start()
    try:
        rolls = synth_generate(101, 2000, desk_shape).rolls
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of raw words is 128 KB; all 2000 rows' words would be 12 MB
    assert peak < rolls.nbytes + 2 * 2**20


def test_pair_pick_draws_what_choice_draws():
    for seed in range(2000):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        assert (5, 7)[a.integers(2)] == b.choice([5, 7])
        assert a.bit_generator.state == b.bit_generator.state


def test_synth_sampler_matches_distribution(desk_shape):
    sample = synth_sampler(desk_shape)
    a = sample(123)
    b = sample(123)
    assert np.array_equal(a, b)
    assert a.shape == desk_shape.dims()


def test_split_sizes_basic(desk_shape):
    ds = synth_generate(1, 100, desk_shape)
    train, test = split(ds, SplitSpec(0.5, 3))
    assert (len(train), len(test)) == (50, 50)
    assert not set(train.ids) & set(test.ids)
    assert sorted([*train.ids, *test.ids]) == list(range(100))


def test_split_floor_rule_large():
    # floor(0.1 * 21425) = 2142, remainder to test
    shape = PianorollShape(1, 1, 1, 12)
    zero = np.zeros(shape.dims(), dtype=np.uint8)
    rolls = [zero] * 21425
    ds = Dataset(shape, rolls, list(range(21425)))
    train, test = split(ds, SplitSpec(0.1, 9))
    assert (len(train), len(test)) == (2142, 19283)


def test_split_deterministic(desk_shape):
    ds = synth_generate(1, 40, desk_shape)
    a = split(ds, SplitSpec(0.3, 17))
    b = split(ds, SplitSpec(0.3, 17))
    assert a[0] == b[0] and a[1] == b[1]


def test_split_degenerate(desk_shape):
    ds = synth_generate(1, 4, desk_shape)
    with pytest.raises(ConfigError, match=r"^train_fraction 0\.1 leaves a side of the 4 records empty$"):
        split(ds, SplitSpec(0.1, 0))
    with pytest.raises(ConfigError):
        SplitSpec(0.0, 0)
    with pytest.raises(ConfigError):
        SplitSpec(1.0, 0)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=60),
    fraction=st.floats(min_value=0.01, max_value=0.99),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_split_partition_property(n, fraction, seed):
    import math

    shape = PianorollShape(1, 1, 1, 12)
    zero = np.zeros(shape.dims(), dtype=np.uint8)
    ds = Dataset(shape, [zero] * n, list(range(n)))
    expected_train = math.floor(fraction * n)
    if expected_train < 1 or n - expected_train < 1:
        with pytest.raises(ConfigError):
            split(ds, SplitSpec(fraction, seed))
        return
    train, test = split(ds, SplitSpec(fraction, seed))
    assert len(train) == expected_train
    assert sorted([*train.ids, *test.ids]) == list(range(n))
    assert not set(train.ids) & set(test.ids)


def test_flatten_basics():
    shape = PianorollShape(2, 1, 4, 3, base_midi_pitch=24)
    zero = make_roll(shape)
    vec = flatten(zero)
    assert vec.shape == (24,)
    assert not vec.any()
    one = make_roll(shape, [(0, 0, 0, 0)])
    v = flatten(one)
    assert v[0] == 1.0 and v.sum() == 1.0


def test_flatten_roundtrip(desk_shape, small_population):
    for roll in small_population.rolls[:10]:
        assert np.array_equal(flatten(roll).reshape(desk_shape.dims()), roll)
    stack = small_population.rolls[:10]
    assert flatten(stack).shape == (10, desk_shape.cells)
    assert np.array_equal(flatten(stack).reshape(stack.shape), stack)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flatten_bijection(seed):
    shape = PianorollShape(2, 1, 4, 12)
    rng = np.random.default_rng(seed)
    roll = (rng.random(shape.dims()) < 0.4).astype(np.uint8)
    assert np.array_equal(flatten(roll).reshape(shape.dims()), roll)


def test_pitch_class_profile_empty(desk_shape):
    roll = make_roll(desk_shape)
    assert not pitch_class_profile(desk_shape, roll, 0, 0, 0).any()


def test_pitch_class_profile_base_pitch():
    shape = PianorollShape(1, 1, 1, 12, base_midi_pitch=24)
    roll = make_roll(shape, [(0, 0, 0, 0)])  # MIDI 24, class C
    profile = pitch_class_profile(shape, roll, 0, 0, 0)
    assert profile[0] == 1.0 and profile.sum() == 1.0


def test_pitch_class_profile_triad():
    shape = PianorollShape(1, 1, 1, 48, base_midi_pitch=24)
    roll = make_roll(shape, [(0, 0, 0, m - 24) for m in (60, 64, 67)])
    profile = pitch_class_profile(shape, roll, 0, 0, 0)
    assert list(np.nonzero(profile)[0]) == [0, 4, 7]


def test_pitch_class_profile_out_of_range(desk_shape):
    roll = make_roll(desk_shape)
    with pytest.raises(IndexError):
        pitch_class_profile(desk_shape, roll, 2, 0, 0)
    with pytest.raises(IndexError):
        pitch_class_profile(desk_shape, roll, 0, 0, 16)


def test_pitch_class_profile_sums_to_active(small_population):
    roll = small_population.rolls[0]
    shape = small_population.shape
    tracks, bars, steps, _ = shape.dims()
    for t in range(tracks):
        for s in range(steps):
            profile = pitch_class_profile(shape, roll, t, 0, s)
            assert profile.sum() == roll[t, 0, s].sum()
            assert (profile >= 0).all()
            assert (profile == profile.astype(int)).all()


def test_dataset_roundtrip(tmp_path, desk_shape):
    ds = synth_generate(42, 25, desk_shape)
    path = tmp_path / "data.prd"
    write_dataset(ds, path, style=StyleParams())
    assert read_dataset(path) == ds


def test_base_midi_pitch_takes_the_int32_range_of_the_dataset_header(tmp_path):
    for base in (-(2**31), 2**31 - 1):
        shape = PianorollShape(1, 1, 4, 12, base_midi_pitch=base)
        ds = synth_generate(1, 2, shape)
        write_dataset(ds, tmp_path / "data.prd")
        assert read_dataset(tmp_path / "data.prd") == ds
    for base in (-(2**31) - 1, 2**31):
        with pytest.raises(ConfigError) as info:
            PianorollShape(1, 1, 4, 12, base_midi_pitch=base)
        assert str(info.value) == (
            f"base_midi_pitch must be in the int32 range of the dataset header, got {base}"
        )


def test_dataset_roundtrip_preserves_split_ids(tmp_path, desk_shape):
    ds = synth_generate(42, 20, desk_shape)
    train, _ = split(ds, SplitSpec(0.5, 1))
    path = tmp_path / "train.prd"
    write_dataset(train, path)
    back = read_dataset(path)
    assert np.array_equal(back.ids, train.ids)
    assert back == train


def test_dataset_write_bytes_deterministic(tmp_path, desk_shape):
    a, b = tmp_path / "a.prd", tmp_path / "b.prd"
    write_dataset(synth_generate(7, 10, desk_shape), a)
    write_dataset(synth_generate(7, 10, desk_shape), b)
    assert a.read_bytes() == b.read_bytes()


def test_read_bad_magic(tmp_path):
    path = tmp_path / "bad.prd"
    path.write_bytes(b"XXXX" + b"\x00" * 32)
    with pytest.raises(FormatError, match="bad magic"):
        read_dataset(path)


def test_read_bad_version(tmp_path, desk_shape):
    path = tmp_path / "v.prd"
    write_dataset(synth_generate(1, 2, desk_shape), path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        read_dataset(path)


def test_read_empty_dataset(tmp_path, desk_shape):
    path = tmp_path / "e.prd"
    write_dataset(synth_generate(1, 2, desk_shape), path)
    blob = bytearray(path.read_bytes()[:32])
    blob[8:12] = (0).to_bytes(4, "little")  # count = 0
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="empty dataset"):
        read_dataset(path)


def test_read_truncated(tmp_path, desk_shape):
    path = tmp_path / "t.prd"
    write_dataset(synth_generate(1, 3, desk_shape), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-5])
    with pytest.raises(FormatError, match="truncated"):
        read_dataset(path)


def test_read_trailing(tmp_path, desk_shape):
    path = tmp_path / "x.prd"
    write_dataset(synth_generate(1, 3, desk_shape), path)
    path.write_bytes(path.read_bytes() + b"junk")
    with pytest.raises(FormatError, match="trailing"):
        read_dataset(path)


def test_dataset_invariants(desk_shape):
    roll = make_roll(desk_shape)
    with pytest.raises(ConfigError, match="empty"):
        Dataset(desk_shape, [], [])
    with pytest.raises(ConfigError, match="unique"):
        Dataset(desk_shape, [roll, roll], [1, 1])
    other = PianorollShape(1, 1, 16, 24)
    with pytest.raises(ConfigError, match="share"):
        Dataset(desk_shape, [roll, make_roll(other)], [0, 1])
    # rolls that share one shape, but not the dataset's
    with pytest.raises(ConfigError, match="share"):
        Dataset(desk_shape, [make_roll(other)] * 2, [0, 1])


def test_pianoroll_must_be_binary(desk_shape):
    cells = np.zeros(desk_shape.dims(), dtype=np.uint8)
    cells[0, 0, 0, 0] = 2
    with pytest.raises(ConfigError, match="binary"):
        Dataset(desk_shape, [cells], [0])


@pytest.mark.parametrize("value", [0.7, 1.9, 256, float("nan"), -1])
def test_non_binary_cells_are_refused_before_the_cast(desk_shape, value):
    # a uint8 cast would read 0.7, 256 and NaN as 0 and 1.9 as 1
    cells = np.zeros((2, *desk_shape.dims()), dtype=np.asarray(value).dtype)
    cells[1, 0, 0, 0, 0] = value
    with pytest.raises(ConfigError, match="binary"):
        Dataset(desk_shape, cells, [0, 1])


def test_bool_and_exact_float_cells_are_accepted(desk_shape):
    cells = np.zeros((2, *desk_shape.dims()), dtype=bool)
    cells[1, 0, 0, 0, 0] = True
    for rolls in (cells, cells.astype(np.float64)):
        ds = Dataset(desk_shape, rolls, [0, 1])
        assert ds.rolls.dtype == np.uint8 and np.array_equal(ds.rolls, cells)


def test_style_params_roundtrip():
    style = StyleParams(rhythm_period=2, ornament_prob=0.1, transpose=7)
    assert StyleParams.from_dict(asdict(style)) == style
    with pytest.raises(ConfigError, match="unknown style"):
        StyleParams.from_dict({"bogus": 1})


def test_config_reals_must_be_finite():
    # json reads NaN, Infinity and 1e400 as non-finite floats, and an integer
    # literal past float range as an int that float() cannot convert
    for value in (float("nan"), float("inf"), -float("inf"), 10**400, -(10**400)):
        with pytest.raises(ConfigError) as info:
            check_config_block({"lr": value}, "train", {"lr": float})
        assert str(info.value) == f"train lr must be a finite real number, got {value!r}"
    # the largest finite values pass, whether float or integer
    check_config_block({"lr": np.finfo(np.float64).max, "x": int(np.finfo(np.float64).max)},
                       "train", {"lr": float, "x": float})


def test_config_integers_must_fit_int64_except_seeds():
    kinds = {"count": int, "seed": int}
    for value in (2**63, -(2**63) - 1, 10**400):
        with pytest.raises(ConfigError) as info:
            check_config_block({"count": value}, "dataset gen", kinds)
        assert str(info.value) == f"dataset gen count must be an integer in the int64 range, got {value!r}"
    # the int64 ends pass, and a seed of any size, which SeedSequence takes
    for value in (2**63 - 1, -(2**63)):
        check_config_block({"count": value, "seed": 10**400}, "dataset gen", kinds)


# SHA-256 of the files a 200-roll desk-shape set and its 0.5 split write.
# Only integer work feeds them, so they are fixed across platforms and BLAS
# builds; a change here is a change to the on-disk format.
PINNED_DIGESTS = {
    "dataset.prd": "7ef763e27d9e34947fde849cbd94b8cf842556d67b239b3b6c955c7dbb6ed179",
    "dataset.prd.meta.json": "79137c8d80c78933223c67321723c2a0c0f0a02d7723bd587ab6f447ebe3693a",
    "train.prd": "bb1d9bea8db41499952cb533925bc147572218ff35b9799fa716bcb07478314e",
    "train.prd.meta.json": "e854489e12b086eb9a4efc1bdbeb4b9b09d83516453f22e8eadc0d77a2e20982",
    "test.prd": "5ea069e475d297aabe01dde9f2fb80ce3910e56b84d355556e5cca830c136639",
    "test.prd.meta.json": "8eb23d6397e636f312feba9ceee8babeaa9b59c83c8e8ad11f67f9f231b388c5",
}


def test_dataset_bytes_are_pinned(tmp_path, desk_shape):
    ds = synth_generate(11, 200, desk_shape)
    write_dataset(ds, tmp_path / "dataset.prd", style=StyleParams())
    train, test = split(ds, SplitSpec(0.5, 12))
    write_dataset(train, tmp_path / "train.prd")
    write_dataset(test, tmp_path / "test.prd")
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in PINNED_DIGESTS
    }
    assert digests == PINNED_DIGESTS


def test_packaged_corpus_bytes_are_pinned(tmp_path):
    configs = Path(__file__).resolve().parents[1] / "configs"
    spec = load_experiment_config(configs / "default.json").dataset.synthetic
    assert load_experiment_config(configs / "overfitted.json").dataset.synthetic == spec
    dataset = synth_generate(spec.seed, spec.count, spec.shape, spec.style)
    write_dataset(dataset, tmp_path / "dataset.prd", style=spec.style)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in ("dataset.prd", "dataset.prd.meta.json")
    }
    assert digests == {
        "dataset.prd": "dfe970140ef236c3825236d968a1c1cdeaa287798ced268a74f12ee30f9c495a",
        "dataset.prd.meta.json": "e11ebd356e924fa515a0da3f3442d38ad89f0c38a5899adec2e2a51dc38f2271",
    }
