import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollmia import (
    ConfigError,
    Dataset,
    EpsilonHeuristic,
    McConfig,
    McResult,
    OracleGenerator,
    PianorollShape,
    TrainConfig,
    build_stash,
    epsilon_from_heuristic,
    g_sample,
    oracle_generate,
    plan_mc_trials,
    run_mc_trials,
    score_mc_plan,
    stash_seeds,
    synth_generate,
    synth_sampler,
    train,
)
from rollmia.harness import checkpoint_sampler
from rollmia.montecarlo import (
    EUCLIDEAN,
    GRAM_BLOCK,
    TONAL,
    TONAL_BLOCK,
    _query_distances,
    _squared_euclidean,
    _stash_draws,
    roll_features,
)
from rollmia.streams import entropy_words, indexed_entropy

from conftest import make_roll
from reference import (
    candidate_draws,
    distance,
    features_distance,
    flatten,
    latent_rows,
    mc_accuracies,
    mc_score,
    pitch_class_profile,
    step_centroid,
)

SHAPE = PianorollShape(2, 1, 8, 12)


# --- epsilon heuristics ------------------------------------------------------


def test_median_odd():
    assert epsilon_from_heuristic([1, 2, 3, 4, 5], EpsilonHeuristic("median")) == 3.0


def test_median_even_is_lower():
    assert epsilon_from_heuristic([1, 2, 3, 4], EpsilonHeuristic("median")) == 2.0
    # the median's rank ceil(K/2) is the sort oracle's (K+1)//2 for every K
    rng = np.random.default_rng(3)
    for k in range(1, 1001):
        values = rng.permutation(k).tolist()
        assert epsilon_from_heuristic(values, EpsilonHeuristic("median")) == sort_oracle(
            values, EpsilonHeuristic("median")
        )


def test_percentile_rank():
    values = list(range(1, 1001))
    assert epsilon_from_heuristic(values, EpsilonHeuristic("percentile", 0.01)) == 10.0
    assert epsilon_from_heuristic(values, EpsilonHeuristic("percentile", 0.001)) == 1.0
    assert epsilon_from_heuristic(values, EpsilonHeuristic("percentile", 0.999)) == 999.0


def test_percentile_rank_at_least_one():
    assert epsilon_from_heuristic([5.0, 7.0], EpsilonHeuristic("percentile", 0.0001)) == 5.0


def test_epsilon_empty_error():
    with pytest.raises(ConfigError):
        epsilon_from_heuristic([], EpsilonHeuristic("median"))


def sort_oracle(values, heuristic):
    ordered = sorted(values)
    k = len(ordered)
    if heuristic.kind == "median":
        rank = (k + 1) // 2
    else:
        rank = max(1, math.ceil(heuristic.q * k))
    return ordered[rank - 1]


@settings(max_examples=150, deadline=None)
@given(
    values=st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=300),
    q=st.one_of(st.none(), st.floats(min_value=1e-4, max_value=0.9999)),
)
def test_heuristics_match_sort_oracle(values, q):
    heuristic = EpsilonHeuristic("median") if q is None else EpsilonHeuristic("percentile", q)
    result = epsilon_from_heuristic(values, heuristic)
    assert result == sort_oracle(values, heuristic)
    assert result in values


def test_heuristic_parse_and_label():
    assert EpsilonHeuristic.parse("median") == EpsilonHeuristic("median")
    assert EpsilonHeuristic.parse("p:0.001") == EpsilonHeuristic("percentile", 0.001)
    assert EpsilonHeuristic("percentile", 0.01).label() == "p:0.01"
    assert EpsilonHeuristic("median").label() == "median"
    with pytest.raises(ConfigError):
        EpsilonHeuristic.parse("p:2.0")
    with pytest.raises(ConfigError):
        EpsilonHeuristic.parse("weird")


@settings(max_examples=200, deadline=None)
@given(q=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
def test_heuristic_label_parses_back_to_itself(q):
    heuristic = EpsilonHeuristic("percentile", q)
    assert EpsilonHeuristic.parse(heuristic.label()) == heuristic


@settings(max_examples=200, deadline=None)
@given(q=st.floats(min_value=1e-12, max_value=0.999999))
def test_heuristic_label_of_a_six_digit_q_is_its_g_format(q):
    # the label's bytes are those of "p:{q:g}" wherever that form was exact
    q = float(f"{q:.6g}")
    assert EpsilonHeuristic("percentile", q).label() == f"p:{q:g}"


# --- distances ---------------------------------------------------------------


def test_distance_identity(small_population):
    roll = small_population.rolls[0]
    shape = small_population.shape
    assert distance(EUCLIDEAN, shape, roll, roll) == 0.0
    assert distance(TONAL, shape, roll, roll) == 0.0


def test_distance_single_cell():
    a = make_roll(SHAPE)
    b = make_roll(SHAPE, [(0, 0, 0, 0)])
    assert distance(EUCLIDEAN, SHAPE, a, b) == 1.0


def test_distance_is_sqrt_hamming(small_population):
    a, b = small_population.rolls[0], small_population.rolls[1]
    hamming = int(np.sum(a != b))
    assert math.isclose(distance(EUCLIDEAN, small_population.shape, a, b), math.sqrt(hamming))


def test_distance_symmetry_and_nonnegativity(small_population):
    rolls = small_population.rolls[:6]
    shape = small_population.shape
    for metric in (EUCLIDEAN, TONAL):
        for a in rolls:
            for b in rolls:
                d_ab = distance(metric, shape, a, b)
                assert d_ab >= 0.0
                assert d_ab == distance(metric, shape, b, a)


def test_distance_triangle_inequality_euclidean(small_population):
    rolls = small_population.rolls[:6]
    shape = small_population.shape
    for a in rolls:
        for b in rolls:
            for c in rolls:
                assert distance(EUCLIDEAN, shape, a, c) <= distance(EUCLIDEAN, shape, a, b) + distance(
                    EUCLIDEAN, shape, b, c
                ) + 1e-12


def test_distance_shape_mismatch():
    a = make_roll(SHAPE)
    b = make_roll(PianorollShape(1, 1, 8, 12))
    with pytest.raises(ConfigError):
        distance(EUCLIDEAN, SHAPE, a, b)


TRIAD_SHAPE = PianorollShape(1, 1, 1, 12)


def triad_roll(classes):
    # base_midi_pitch 24 is a multiple of 12, so pitch index == pitch class
    return make_roll(TRIAD_SHAPE, [(0, 0, 0, c) for c in classes])


def test_tonal_triads_circle_of_fifths():
    c_major = triad_roll([0, 4, 7])
    a_minor = triad_roll([9, 0, 4])
    fs_major = triad_roll([6, 10, 1])
    assert distance(TONAL, TRIAD_SHAPE, c_major, a_minor) < distance(
        TONAL, TRIAD_SHAPE, c_major, fs_major
    )


def test_tonal_centroid_reference_values():
    # independently computed from the three-circle basis
    onehot = np.zeros(12)
    onehot[0] = 1.0
    expected = np.array([
        1.0 * math.sin(0.0), 1.0 * math.cos(0.0),
        1.0 * math.sin(0.0), 1.0 * math.cos(0.0),
        0.5 * math.sin(0.0), 0.5 * math.cos(0.0),
    ])
    assert np.allclose(step_centroid(onehot), expected)
    onehot7 = np.zeros(12)
    onehot7[7] = 1.0  # a fifth up: 7 * 7pi/6 on the fifths circle
    got = step_centroid(onehot7)
    assert np.allclose(
        got[:2], [math.sin(7 * 7 * math.pi / 6), math.cos(7 * 7 * math.pi / 6)]
    )


def test_tonal_empty_step_is_zero_centroid():
    assert not step_centroid(np.zeros(12)).any()
    a = make_roll(SHAPE)
    b = make_roll(SHAPE)
    assert distance(TONAL, SHAPE, a, b) == 0.0


def test_euclidean_features_match_float64_reference(small_population):
    # int8 cell features must give bit-identical distances to float64 cells
    shape = small_population.shape
    feats = roll_features(EUCLIDEAN, shape, small_population.rolls)
    cells = flatten(small_population.rolls)
    got = features_distance(EUCLIDEAN, feats[0], feats[1:])
    assert np.array_equal(got, np.linalg.norm(cells[1:] - cells[0], axis=-1))



def test_gram_distances_are_exact(desk_shape):
    # random binary rolls of every density, plus the all-zero and all-ones
    # rolls, against a stash that ends in a partial Gram block
    rng = np.random.default_rng(12)
    count = 2 * GRAM_BLOCK + 37
    density = rng.random((count, 1, 1, 1, 1))
    rolls = (rng.random((count, *desk_shape.dims())) < density).astype(np.uint8)
    rolls[0], rolls[1] = 0, 1
    feats = roll_features(EUCLIDEAN, desk_shape, rolls)
    picked = np.r_[0, 1, 2, GRAM_BLOCK, count - 1, 40:80]
    got = np.sqrt(_squared_euclidean(feats[picked], feats))
    expected = np.linalg.norm(
        feats.astype(np.float64)[None] - feats[picked].astype(np.float64)[:, None], axis=-1
    )
    assert np.array_equal(got, expected)
    assert got[0, 1] == got[1, 0] == math.sqrt(desk_shape.cells) == got.max()
    assert not got[np.arange(len(picked)), picked].any()


def test_tonal_features_match_per_step_reference(small_population):
    # the whole-set pass, in blocks of TONAL_BLOCK rolls, against one roll at
    # a time and against a loop over steps built from the per-step helpers
    shape = small_population.shape
    rolls = small_population.rolls
    assert len(rolls) > TONAL_BLOCK
    feats = roll_features(TONAL, shape, rolls)
    tracks, bars, steps, _ = shape.dims()
    for i in (0, TONAL_BLOCK - 1, TONAL_BLOCK, len(rolls) - 1):
        assert np.array_equal(feats[i], roll_features(TONAL, shape, rolls[i]))
        expected = [
            step_centroid(pitch_class_profile(shape, rolls[i], t, b, s))
            for t in range(tracks)
            for b in range(bars)
            for s in range(steps)
        ]
        assert np.allclose(feats[i], expected, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "shape, stash_size, n, k",
    [
        (PianorollShape(2, 1, 16, 24), 60, 60, 97),  # n == stash size; k not a multiple of the block
        (PianorollShape(2, 1, 16, 24), 60, 25, 1),  # one candidate, as in mc_score
        (PianorollShape(2, 1, 8, 12), 40, 37, 250),  # n * steps does not divide PLANE_BLOCK
        (PianorollShape(4, 4, 16, 12), 300, 300, 3),  # n * steps > PLANE_BLOCK: one per block
    ],
)
def test_tonal_plane_kernel_matches_per_candidate_reference(shape, stash_size, n, k):
    # rolls of every density, with whole rolls and single steps left empty,
    # so zero centroids occur on both sides
    rng = np.random.default_rng(stash_size + n + k)
    count = stash_size + k
    density = rng.random((count, 1, 1, 1, 1))
    rolls = (rng.random((count, *shape.dims())) < density).astype(np.uint8)
    rolls *= (rng.random((count, shape.tracks, shape.bars, shape.steps_per_bar, 1)) < 0.7)
    rolls[0] = rolls[-1] = 0
    feats = roll_features(TONAL, shape, rolls)
    stash, candidates = feats[:stash_size], feats[stash_size:]
    entropy = rng.integers(0, 2**32, size=(k, 2), dtype=np.uint32)
    drawn = _stash_draws(stash_size, n, entropy)
    got = _query_distances(TONAL, candidates, stash, drawn)
    want = np.stack([features_distance(TONAL, c, stash[d]) for c, d in zip(candidates, drawn)])
    assert not stash.any(axis=-1).all() and not candidates.any(axis=-1).all()
    assert got.shape == (k, n)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# --- stash and scores --------------------------------------------------------


def test_build_stash_size_and_determinism(desk_shape):
    sampler = synth_sampler(desk_shape)
    a = build_stash(sampler, 100, seed=5)
    b = build_stash(sampler, 100, seed=5)
    assert len(a) == 100
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = build_stash(sampler, 100, seed=6)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def test_build_stash_from_memorizing_oracle():
    train = synth_generate(3, 20, SHAPE)
    oracle = OracleGenerator(1.0, 0.0, train, synth_sampler(SHAPE))
    stash = build_stash(lambda s: oracle_generate(oracle, s), 50, seed=1)
    for roll in stash:
        assert any(np.array_equal(roll, r) for r in train.rolls)


def test_checkpoint_sampler_matches_per_seed_stash():
    train_set = synth_generate(11, 64, SHAPE)
    config = TrainConfig(
        iterations=40, batch_size=8, latent_dim=4, lr=1e-3, seed=5, checkpoint_every=40
    )
    gan = train(train_set, config).gan

    def one_roll(seed):
        return g_sample(gan, np.random.default_rng(seed).standard_normal((1, gan.latent_dim)))[0]

    # 257 seeds: one full block of the generator pass plus one row
    batched = checkpoint_sampler(gan)(stash_seeds(257, (9, 40)))
    per_seed = build_stash(one_roll, 257, seed=(9, 40))
    assert batched.shape == (257, *SHAPE.dims()) and batched.dtype == np.uint8
    assert 0 < batched.mean() < 1
    assert np.array_equal(batched, per_seed)


def test_checkpoint_sampler_latents_match_per_seed_reference(monkeypatch):
    from rollmia import gan as gan_module, harness

    gan = gan_module.build_gan(SHAPE, 5, seed=3)
    latents = []

    def recording_g_sample(model, z):
        latents.append(z.copy())
        return gan_module.g_sample(model, z)

    monkeypatch.setattr(harness, "g_sample", recording_g_sample)
    # a seed below 2**32 is one entropy word under default_rng, two halves here
    edge = np.array([0, 2**32 - 1, 2**32, 2**64 - 1, 1, 2**63], dtype=np.uint64)
    for seeds in (edge, stash_seeds(300, (9, 40))):
        rolls = checkpoint_sampler(gan)(seeds)
        assert np.array_equal(latents[-1], latent_rows(seeds, 5))
        assert np.array_equal(rolls, gan_module.g_sample(gan, latent_rows(seeds, 5)))


def test_stash_seeds_reject_empty_stash():
    with pytest.raises(ConfigError):
        stash_seeds(0, 1)
    with pytest.raises(ConfigError):
        build_stash(synth_sampler(SHAPE), 0, seed=1)


def hamming_stash(candidate, hammings):
    """Stash whose rolls sit at the given hamming distances from candidate."""
    rolls = []
    flat_len = candidate.size
    for h, start in zip(hammings, range(0, 10_000, max(hammings) + 1)):
        cells = candidate.copy().ravel()
        for k in range(h):
            idx = (start + k) % flat_len
            cells[idx] ^= 1
        rolls.append(cells.reshape(candidate.shape))
    return np.stack(rolls)


def mc_config(**kw):
    defaults = dict(
        stash_size=4,
        n_per_query=4,
        heuristic=EpsilonHeuristic("median"),
        metric=EUCLIDEAN,
        subset_size=1,
        trials=1,
        seed=0,
    )
    defaults.update(kw)
    return McConfig(**defaults)


def test_mc_score_counts_within_epsilon():
    candidate = make_roll(SHAPE, [(0, 0, 0, 0)])
    stash = hamming_stash(candidate, [1, 4, 9, 16])  # dists 1, 2, 3, 4
    config = mc_config()
    assert mc_score(SHAPE, candidate, stash, config, epsilon=2.5, seed=0) == 0.5
    assert mc_score(SHAPE, candidate, stash, config, epsilon=0.0, seed=0) == 0.0
    assert mc_score(SHAPE, candidate, stash, config, epsilon=4.0, seed=0) == 1.0


def test_mc_score_epsilon_zero_self_in_stash():
    candidate = make_roll(SHAPE, [(0, 0, 0, 0)])
    stash = hamming_stash(candidate, [0, 3, 5])
    config = mc_config(stash_size=3, n_per_query=3)
    assert mc_score(SHAPE, candidate, stash, config, epsilon=0.0, seed=1) == pytest.approx(1 / 3)


def test_mc_score_draw_semantics():
    # drawn indices are default_rng(seed).choice(len(stash), n, replace=False)
    candidate = make_roll(SHAPE)
    stash = hamming_stash(make_roll(SHAPE, [(0, 0, 0, 0)]), [1, 2, 3, 4, 5, 6])
    config = mc_config(stash_size=6, n_per_query=3)
    seed = 99
    idx = np.random.default_rng(seed).choice(6, size=3, replace=False)
    dists = [distance(EUCLIDEAN, SHAPE, candidate, stash[i]) for i in idx]
    eps = sorted(dists)[1]
    expected = np.mean([d <= eps for d in dists])
    assert mc_score(SHAPE, candidate, stash, config, eps, seed) == expected


def test_mc_score_rejects_overlong_draw():
    candidate = make_roll(SHAPE)
    stash = hamming_stash(candidate, [1, 2])
    with pytest.raises(ConfigError):
        mc_score(SHAPE, candidate, stash, mc_config(stash_size=2, n_per_query=3), 1.0, 0)
    with pytest.raises(ConfigError):
        mc_score(SHAPE, candidate, stash, mc_config(stash_size=2, n_per_query=2), -1.0, 0)


def test_mc_score_monotone_in_epsilon():
    rng = np.random.default_rng(0)
    sampler = synth_sampler(SHAPE)
    stash = build_stash(sampler, 30, seed=2)
    config = mc_config(stash_size=30, n_per_query=10)
    for case in range(50):
        candidate = sampler(1000 + case)
        eps_grid = np.sort(rng.uniform(0.0, 12.0, size=6))
        scores = [mc_score(SHAPE, candidate, stash, config, e, seed=case) for e in eps_grid]
        assert all(a <= b for a, b in zip(scores, scores[1:]))
        n = config.n_per_query
        for s in scores:
            assert math.isclose(round(s * n), s * n, abs_tol=1e-12)


# --- single / set MI ---------------------------------------------------------


def id_blocks(population, train_count, test_count):
    train = Dataset(
        population.shape, population.rolls[:train_count], list(range(train_count))
    )
    test = Dataset(
        population.shape,
        population.rolls[train_count : train_count + test_count],
        list(range(1000, 1000 + test_count)),
    )
    return train, test


def test_single_mi_m1_perfect_separation():
    base = make_roll(SHAPE, [(0, 0, 0, 0)])
    far = hamming_stash(base, [100])[0]
    train = Dataset(SHAPE, [base], [0])
    test = Dataset(SHAPE, [far], [1])
    stash = np.stack([base] * 4)
    config = mc_config(stash_size=4, n_per_query=4, subset_size=1, trials=3)
    assert run_mc_trials(train, test, stash, config).single_mi_accuracy == 1.0


def test_set_mi_majority_rule_three_train_one_test():
    population = synth_generate(17, 40, SHAPE)
    rolls = population.rolls
    train_rolls, test_rolls = rolls[:4], rolls[4:8]
    # memorize 3 train rolls and 1 test roll; everything else stays far
    memorized = [*train_rolls[:3], test_rolls[0]]
    assert all(not np.array_equal(a, b) for i, a in enumerate(memorized) for b in memorized[i + 1:])
    train = Dataset(SHAPE, train_rolls, [0, 1, 2, 3])
    test = Dataset(SHAPE, test_rolls, [10, 11, 12, 13])
    stash = np.stack(memorized * 50)
    config = mc_config(
        stash_size=200,
        n_per_query=200,
        heuristic=EpsilonHeuristic("percentile", 0.0001),
        subset_size=4,
        trials=2,
    )
    result = run_mc_trials(train, test, stash, config)
    assert result.epsilon.tolist() == [0.0, 0.0]
    assert result.train_selected.tolist() == [3, 3]
    assert result.single_mi_accuracy == 0.75
    assert result.set_mi_correct_fraction == 1.0


def test_set_mi_tie_counts_incorrect():
    population = synth_generate(23, 8, SHAPE)
    rolls = population.rolls
    train = Dataset(SHAPE, rolls[:4], [0, 1, 2, 3])
    test = Dataset(SHAPE, rolls[4:8], [10, 11, 12, 13])
    # memorize 2 from each side -> selected set always ties 2:2
    memorized = [*rolls[:2], *rolls[4:6]]
    stash = np.stack(memorized * 50)
    config = mc_config(
        stash_size=200,
        n_per_query=200,
        heuristic=EpsilonHeuristic("percentile", 0.0001),
        subset_size=4,
        trials=2,
    )
    result = run_mc_trials(train, test, stash, config)
    assert result.train_selected.tolist() == [2, 2]
    assert result.set_mi_correct_fraction == 0.0


def test_equal_scores_fall_back_to_mean_distance(small_population):
    # a threshold above every distance makes all scores 1.0, so selection
    # reduces to the mean-distance tiebreak
    train, test = id_blocks(small_population, 30, 30)
    stash = build_stash(synth_sampler(small_population.shape), 40, seed=6)
    config = mc_config(
        stash_size=40,
        n_per_query=40,
        heuristic=EpsilonHeuristic("percentile", 0.99999),
        subset_size=30,
        trials=1,
        seed=13,
    )
    result = run_mc_trials(train, test, stash, config)
    # reproduce the expected selection: every candidate drew the whole stash
    shape = small_population.shape
    stash_feats = np.stack([roll_features(EUCLIDEAN, shape, r) for r in stash])
    mean_dists = []
    for origin, ds in ((0, train), (1, test)):
        for rid, roll in zip(ds.ids, ds.rolls):
            d = features_distance(EUCLIDEAN, roll_features(EUCLIDEAN, shape, roll), stash_feats)
            mean_dists.append((float(np.mean(d)), rid, origin))
    expected_train = sum(1 for _, _, origin in sorted(mean_dists)[:30] if origin == 0)
    assert result.train_selected.tolist() == [expected_train]


def test_run_mc_trials_deterministic(small_population):
    train, test = id_blocks(small_population, 60, 60)
    sampler = synth_sampler(small_population.shape)
    stash = build_stash(sampler, 80, seed=3)
    config = mc_config(
        stash_size=80, n_per_query=30, subset_size=20, trials=4, seed=11
    )
    a = run_mc_trials(train, test, stash, config)
    b = run_mc_trials(train, test, stash, config)
    assert a.single_mi_accuracy == b.single_mi_accuracy
    assert a.set_mi_correct_fraction == b.set_mi_correct_fraction
    assert np.array_equal(a.epsilon, b.epsilon)
    assert np.array_equal(a.train_selected, b.train_selected)
    assert (a.single_mi_accuracy, a.set_mi_correct_fraction) == mc_accuracies(a.train_selected, 20)


def test_results_compare_by_identity():
    # array fields have no single truth value, so == is identity, as for ComposerGan
    result = McResult(0.5, 1.0, np.array([0.25, 0.5]), np.array([3, 4]))
    assert result == result
    assert result != McResult(0.5, 1.0, result.epsilon.copy(), result.train_selected.copy())


@pytest.mark.parametrize("seed", [11, 2**32 + 5, 2**128 + 3])
def test_run_mc_trials_draws_match_per_candidate_reference(small_population, seed):
    train, test = id_blocks(small_population, 30, 30)
    config = mc_config(stash_size=50, n_per_query=20, subset_size=12, trials=3, seed=seed)
    plan = plan_mc_trials(train, test, config)
    expected = candidate_draws(seed, trials=3, m=12, stash_size=50, n=20)
    assert np.array_equal(plan.drawn, np.stack(expected))


# (stash size, draws): Floyd with and without collisions, one draw, a whole
# stash (whose first Floyd step draws nothing), and one draw short of it
DRAW_CASES = [(256, 64), (50, 20), (1000, 500), (10, 10), (5, 1), (1, 1), (300, 299), (300, 300)]


def choice_reference(seed, count: int, stash_size: int, n: int) -> np.ndarray:
    """Row i: ``choice(stash_size, n, replace=False)`` of the Generator that
    ``default_rng`` gives on ``SeedSequence((seed, i))``."""
    return np.stack([
        np.random.default_rng(np.random.SeedSequence((seed, i))).choice(stash_size, size=n, replace=False)
        for i in range(count)
    ])


@pytest.mark.parametrize("seed", [11, 2**32 + 5, 2**128 + 3])
def test_batched_stash_draws_match_per_row_choice(monkeypatch, seed):
    from rollmia import montecarlo

    blocks = []
    real_rows = montecarlo._floyd_rows

    def recorded_rows(stash_size, states, out):
        blocks.append(len(out))
        real_rows(stash_size, states, out)

    monkeypatch.setattr(montecarlo, "_floyd_rows", recorded_rows)
    # every case batched, in blocks of 16 rows: 40 rows end on a ragged block
    monkeypatch.setattr(montecarlo, "BATCH_MAX_DRAWS", 10**9)
    for stash_size, n in DRAW_CASES:
        monkeypatch.setattr(montecarlo, "DRAW_BLOCK", 16 * (60 * n + stash_size))
        blocks.clear()
        entropy = indexed_entropy(entropy_words(seed), 40)
        drawn = _stash_draws(stash_size, n, entropy)
        assert drawn.dtype == np.min_scalar_type(stash_size - 1)
        assert np.array_equal(drawn, choice_reference(seed, 40, stash_size, n)), (stash_size, n)
        assert blocks == [16, 16, 8]


def test_rows_with_a_rejected_half_are_redrawn_by_choice(monkeypatch):
    from rollmia import montecarlo

    real_draws = montecarlo.bounded_draws

    def reject_some(words, bounds):
        values, rejected = real_draws(words, bounds)
        # zeroed values draw wrong rows unless redrawn
        values[::3] = 0
        rejected[::3] = True
        return values, rejected

    monkeypatch.setattr(montecarlo, "bounded_draws", reject_some)
    monkeypatch.setattr(montecarlo, "BATCH_MAX_DRAWS", 10**9)
    for stash_size, n in [(256, 64), (300, 300), (5, 1)]:
        entropy = indexed_entropy(entropy_words(17), 10)
        assert np.array_equal(_stash_draws(stash_size, n, entropy), choice_reference(17, 10, stash_size, n))


@pytest.mark.parametrize("trials, n, stash_size", [(50, 64, 256), (6, 500, 1000)])
def test_plan_memory_is_the_plan_and_a_bounded_block(small_population, trials, n, stash_size):
    train, test = id_blocks(small_population, 120, 120)
    config = mc_config(stash_size=stash_size, n_per_query=n, subset_size=100, trials=trials, seed=5)
    # first-call set-up outside the trace
    plan_mc_trials(train, test, mc_config(stash_size=stash_size, n_per_query=n, subset_size=100))
    tracemalloc.start()
    try:
        plan = plan_mc_trials(train, test, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    plan_bytes = sum(a.nbytes for a in (plan.train_idx, plan.test_idx, plan.ids, plan.drawn))
    # the draws of 10000 or 1200 candidates as int64 would take about 5 MB
    assert peak < plan_bytes + 1.25 * 2**20


@pytest.mark.parametrize("metric, heuristic", [(EUCLIDEAN, "median"), (TONAL, "p:0.1")])
def test_run_mc_trials_with_a_plan_matches_without(small_population, metric, heuristic):
    train, test = id_blocks(small_population, 40, 50)
    config = mc_config(stash_size=50, n_per_query=20, subset_size=12, trials=3, seed=9,
                       metric=metric, heuristic=EpsilonHeuristic.parse(heuristic))
    plan = plan_mc_trials(train, test, config)
    assert plan.drawn.shape == (3, 24, 20) and plan.ids.shape == (3, 24)
    assert plan.config is config and plan.train is train and plan.test is test
    # one plan scores the stashes of two models
    for stash_seed in (3, 4):
        stash = build_stash(synth_sampler(small_population.shape), 50, seed=stash_seed)
        planned = score_mc_plan(plan, stash)
        unplanned = run_mc_trials(train, test, stash, config)
        assert planned.single_mi_accuracy == unplanned.single_mi_accuracy
        assert planned.set_mi_correct_fraction == unplanned.set_mi_correct_fraction
        assert np.array_equal(planned.epsilon.view(np.uint64), unplanned.epsilon.view(np.uint64))
        assert np.array_equal(planned.train_selected, unplanned.train_selected)


def test_scoring_refuses_a_stash_of_another_length_or_roll_shape(small_population):
    train, test = id_blocks(small_population, 30, 30)
    stash = build_stash(synth_sampler(small_population.shape), 50, seed=3)
    config = mc_config(stash_size=50, n_per_query=20, subset_size=12, trials=2, seed=9)
    plan = plan_mc_trials(train, test, config)
    dims = small_population.shape.dims()
    other_roll = build_stash(synth_sampler(SHAPE), 50, seed=3)
    for bad in (stash[:40], np.concatenate([stash, stash[:1]]), other_roll):
        message = f"^stash shape {re.escape(str(bad.shape))} is not the plan's {re.escape(str((50, *dims)))}$"
        with pytest.raises(ConfigError, match=message):
            score_mc_plan(plan, bad)
        with pytest.raises(ConfigError, match=message):
            run_mc_trials(train, test, bad, config)


def test_plan_refuses_sides_of_two_shapes(small_population):
    train, _test = id_blocks(small_population, 10, 10)
    config = mc_config(stash_size=20, n_per_query=5, subset_size=2, trials=1)
    with pytest.raises(ConfigError, match="^train and test sides must share a shape$"):
        plan_mc_trials(train, synth_generate(0, 10, SHAPE), config)


def test_mc_rejects_negative_seed(small_population):
    train, test = id_blocks(small_population, 10, 10)
    stash = build_stash(synth_sampler(small_population.shape), 20, seed=0)
    config = mc_config(stash_size=20, n_per_query=5, subset_size=2, trials=1, seed=-1)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        run_mc_trials(train, test, stash, config)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        mc_score(small_population.shape, train.rolls[0], stash, config, 1.0, seed=-4)


def test_run_mc_trials_preconditions(small_population):
    train, test = id_blocks(small_population, 10, 10)
    stash = build_stash(synth_sampler(small_population.shape), 20, seed=0)
    with pytest.raises(ConfigError, match="subset_size"):
        run_mc_trials(train, test, stash, mc_config(stash_size=20, n_per_query=5, subset_size=11, trials=1))
    with pytest.raises(ConfigError, match="disjoint"):
        run_mc_trials(train, train, stash, mc_config(stash_size=20, n_per_query=5, subset_size=2, trials=1))
    other, other_test = id_blocks(synth_generate(0, 12, SHAPE), 6, 6)
    with pytest.raises(ConfigError, match="shape"):
        run_mc_trials(other, other_test, stash, mc_config(stash_size=20, n_per_query=5, subset_size=2, trials=1))


def test_mc_config_validation():
    with pytest.raises(ConfigError):
        mc_config(stash_size=4, n_per_query=5)
    with pytest.raises(ConfigError):
        mc_config(subset_size=0)
    with pytest.raises(ConfigError):
        mc_config(trials=0)
    with pytest.raises(ConfigError):
        McConfig(4, 4, 1, 1, 0, "cosine", EpsilonHeuristic("median"))


def test_memorizing_oracle_controls(small_population):
    shape = small_population.shape
    train, test = id_blocks(small_population, 60, 120)
    oracle = OracleGenerator(1.0, 0.0, train, synth_sampler(shape))
    stash = build_stash(lambda s: oracle_generate(oracle, s), 600, seed=21)
    config = McConfig(
        stash_size=600,
        n_per_query=300,
        heuristic=EpsilonHeuristic("percentile", 0.0001),
        metric=EUCLIDEAN,
        subset_size=40,
        trials=10,
        seed=5,
    )
    result = run_mc_trials(train, test, stash, config)
    assert result.single_mi_accuracy >= 0.9
    assert result.set_mi_correct_fraction == 1.0


def null_setup(small_population):
    shape = small_population.shape
    first = Dataset(shape, small_population.rolls[:150], list(range(150)))
    last = Dataset(shape, small_population.rolls[150:300], list(range(1000, 1150)))
    oracle = OracleGenerator(0.0, 0.0, first, synth_sampler(shape))
    stash = build_stash(lambda s: oracle_generate(oracle, s), 400, seed=22)
    return first, last, stash


def null_config(seed, trials):
    # odd subset size: majority votes cannot tie
    return McConfig(
        stash_size=400,
        n_per_query=200,
        heuristic=EpsilonHeuristic("median"),
        metric=EUCLIDEAN,
        subset_size=51,
        trials=trials,
        seed=seed,
    )


def test_population_stash_single_mi_is_null(small_population):
    # a population-only stash carries no membership signal; averaging both
    # role assignments cancels the finite-dataset artifact
    first, last, stash = null_setup(small_population)
    accs = []
    for seed in (0, 1):
        accs.append(run_mc_trials(first, last, stash, null_config(seed, 10)).single_mi_accuracy)
        accs.append(run_mc_trials(last, first, stash, null_config(seed, 10)).single_mi_accuracy)
    assert abs(np.mean(accs) - 0.5) < 0.04


def test_population_stash_set_mi_envelope(small_population):
    # 20 coin-flip trials stay inside the binomial 95 percent envelope
    first, last, stash = null_setup(small_population)
    result = run_mc_trials(first, last, stash, null_config(4, 20))
    assert 0.25 <= result.set_mi_correct_fraction <= 0.75


# --- pinned results ------------------------------------------------------------

# Recorded from the per-candidate reference implementation.  Half the stash
# copies training rolls, so distances hold exact zeros and many ties, and the
# 1% threshold lands on 0.0.
MC_PINS = {
    (EUCLIDEAN, "median"): (
        [("11.090536506409418", 6, False), ("11.135528725660043", 7, True),
         ("11.135528725660043", 7, True), ("11.135528725660043", 7, True)],
        [0.76, 0.36, 0.28],
    ),
    (EUCLIDEAN, "p:0.01"): (
        [("0.0", 10, True), ("0.0", 10, True), ("0.0", 9, True), ("0.0", 8, True)],
        [0.0, 0.0, 0.0],
    ),
    (TONAL, "median"): (
        [("1.2468034939407597", 7, True), ("1.2484265318654542", 6, False),
         ("1.253708488971753", 6, False), ("1.255769128621985", 6, False)],
        [0.54, 0.28, 0.24],
    ),
    (TONAL, "p:0.01"): (
        [("0.0", 10, True), ("0.0", 10, True), ("0.0", 8, True), ("0.0", 8, True)],
        [0.0, 0.0, 0.0],
    ),
}


@pytest.fixture(scope="module")
def pinned_setup(small_population):
    shape = small_population.shape
    train = Dataset(shape, small_population.rolls[:16], list(range(16)))
    test = Dataset(shape, small_population.rolls[16:32], list(range(1000, 1016)))
    oracle = OracleGenerator(0.5, 0.0, train, synth_sampler(shape))
    stash = build_stash(lambda s: oracle_generate(oracle, s), 120, seed=31)
    return train, test, stash


@pytest.mark.parametrize("metric, heuristic", sorted(MC_PINS))
def test_mc_results_are_pinned(pinned_setup, metric, heuristic):
    train, test, stash = pinned_setup
    config = McConfig(120, 50, 12, 4, 17, metric, EpsilonHeuristic.parse(heuristic))
    trials, scores = MC_PINS[metric, heuristic]
    result = run_mc_trials(train, test, stash, config)
    assert result.epsilon.shape == result.train_selected.shape == (4,)
    assert (result.epsilon.dtype, result.train_selected.dtype) == (np.float64, np.int64)
    per_trial = zip(result.epsilon.tolist(), result.train_selected.tolist())
    assert [(repr(e), t, t > 12 - t) for e, t in per_trial] == trials
    # both accuracies bit for bit the means of per-trial Python floats
    assert (result.single_mi_accuracy, result.set_mi_correct_fraction) == mc_accuracies(
        result.train_selected, 12
    )
    epsilon = float(result.epsilon[0])
    candidates = ((train.rolls[0], 0), (train.rolls[5], 1), (test.rolls[0], 2))
    assert [mc_score(train.shape, roll, stash, config, epsilon, seed) for roll, seed in candidates] == scores
    # memorized copies sit at distance exactly 0
    zero_scores = [mc_score(train.shape, train.rolls[i], stash, config, 0.0, i) for i in range(6)]
    assert zero_scores == [0.0, 0.02, 0.02, 0.02, 0.06, 0.0]
