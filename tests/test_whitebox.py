import numpy as np
import pytest

from rollmia import (
    ConfigError,
    Dataset,
    OracleDiscriminator,
    PianorollShape,
    WbAttackResult,
    compute_metrics,
    oracle_d_score,
    rank_scores,
    run_whitebox,
    run_whitebox_sets,
    synth_generate,
)

from reference import confusion_from_predictions, top_n_by_sort

SHAPE = PianorollShape(1, 1, 4, 12)


def candidates(scores, members=()):
    """(ids, scores, member_ids) for candidates 0..len(scores)-1."""
    members = np.array(sorted(members), dtype=np.int64)
    return np.arange(len(scores)), np.array(scores, dtype=np.float64), members


def test_rank_top_scores():
    ids, scores, _ = candidates([3.0, 1.0, 2.0, 0.0])
    result = rank_scores(ids, scores, [0, 1])
    assert result.predicted_member_ids.dtype == np.int64
    assert result.predicted_member_ids.tolist() == [0, 2]  # rank order


def test_results_compare_by_identity():
    # array fields have no single truth value, so == is identity, as for ComposerGan
    ids, scores, _ = candidates([3.0, 1.0, 2.0, 0.0])
    result = rank_scores(ids, scores, [0, 1])
    assert result == result
    assert result != WbAttackResult(result.predicted_member_ids.copy(), result.confusion)


def test_rank_tiebreak_by_id():
    ids, scores, _ = candidates([1.0, 1.0, 1.0, 1.0])
    result = rank_scores(ids[::-1], scores, [2, 3])
    assert result.predicted_member_ids.tolist() == [0, 1]


def test_rank_signed_zeros_and_ties_order_by_id():
    ids = np.array([9, 4, 7, 2, 5, 1, 8])
    scores = np.array([0.0, -0.0, 1.5, -0.0, 0.0, 1.5, -1.0])
    assert rank_scores(ids, scores, ids[:5]).predicted_member_ids.tolist() == [1, 7, 2, 4, 5]
    # the order and the mask counts against the tuple sort and the id-set algebra
    rng = np.random.default_rng(12)
    for _ in range(300):
        n = int(rng.integers(2, 40))
        ids = rng.permutation(1000)[:n]
        scores = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=n)
        members = rng.choice(ids, size=int(rng.integers(1, n + 1)), replace=False)
        result = rank_scores(ids, scores, members)
        assert tuple(result.predicted_member_ids.tolist()) == top_n_by_sort(ids, scores, len(members))
        assert result.confusion == confusion_from_predictions(result.predicted_member_ids, members, ids)


def test_rank_confusion():
    ids, scores, members = candidates([3.0, 1.0, 2.0, 0.0], members={0, 2})
    c = rank_scores(ids, scores, members).confusion
    assert (c.tp, c.fp, c.fn, c.tn) == (2, 0, 0, 2)


def test_rank_exactly_n():
    rng = np.random.default_rng(0)
    for n in (1, 3, 7):
        ids, scores, _ = candidates(rng.standard_normal(9))
        assert len(rank_scores(ids, scores, ids[:n]).predicted_member_ids) == n


def test_rank_n_out_of_range():
    ids, scores, _ = candidates([1.0, 2.0])
    with pytest.raises(ConfigError, match="n_members"):
        rank_scores(ids, scores, [])
    with pytest.raises(ConfigError, match="n_members"):
        rank_scores(ids, scores, [0, 1, 2])


def test_rank_duplicate_ids():
    with pytest.raises(ConfigError, match="candidate ids must be unique"):
        rank_scores([1, 1], [0.0, 1.0], [1])
    ids, scores, _ = candidates([3.0, 1.0, 2.0, 0.0])
    with pytest.raises(ConfigError, match="member ids must be unique"):
        rank_scores(ids, scores, [2, 0, 2])
    with pytest.raises(ConfigError, match="member ids must all be candidate ids"):
        rank_scores(ids, scores, [0, 9])


def test_rank_non_finite_score():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ConfigError, match="finite"):
            rank_scores([0, 1], [bad, 0.0], [1])


def test_rank_score_length_mismatch():
    for scores in ([0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]]):
        with pytest.raises(ConfigError, match="one score per candidate"):
            rank_scores([0, 1], scores, [1])


def test_monotone_transform_invariance():
    rng = np.random.default_rng(4)
    ids, scores, members = candidates(rng.standard_normal(30), members=set(range(10)))
    base = rank_scores(ids, scores, members)
    for transform in (lambda s: 3.0 * s + 7.0, np.tanh, lambda s: np.exp(s / 2.0)):
        warped = rank_scores(ids, transform(scores), members)
        assert set(warped.predicted_member_ids) == set(base.predicted_member_ids)


def test_permutation_invariance():
    rng = np.random.default_rng(5)
    ids, scores, members = candidates(rng.standard_normal(40), members=set(range(20)))
    base = rank_scores(ids, scores, members)
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(ids))
        result = rank_scores(ids[order], scores[order], members)
        assert np.array_equal(result.predicted_member_ids, base.predicted_member_ids)
        assert result.confusion == base.confusion


def split_ids(dataset, member_count):
    members = Dataset(dataset.shape, dataset.rolls[:member_count], dataset.ids[:member_count])
    rest = Dataset(
        dataset.shape, dataset.rolls[member_count:], dataset.ids[member_count:]
    )
    return members, rest


def oracle_scorer(oracle, base_seed):
    return lambda rid, _roll: oracle_d_score(oracle, rid, (base_seed, rid))


def test_run_whitebox_perfect_oracle():
    ds = synth_generate(0, 200, SHAPE)
    members, nonmembers = split_ids(ds, 100)
    oracle = OracleDiscriminator(1.0, 0.0, frozenset(members.ids))
    result = run_whitebox(oracle_scorer(oracle, 0), members, nonmembers)
    row = compute_metrics(result.confusion, 0)
    assert row.success_rate == 1.0


def test_run_whitebox_null_oracle_balanced():
    ds = synth_generate(0, 400, SHAPE)
    members, nonmembers = split_ids(ds, 200)
    oracle = OracleDiscriminator(0.0, 1.0, frozenset(members.ids))
    rates = []
    for seed in range(5):
        result = run_whitebox(oracle_scorer(oracle, seed), members, nonmembers)
        rates.append(compute_metrics(result.confusion, 0).success_rate)
    assert abs(np.mean(rates) - 0.5) < 0.1


def test_run_whitebox_ten_percent_members():
    # with no signal, success ~ member fraction but accuracy stays high
    ds = synth_generate(0, 1000, SHAPE)
    members, nonmembers = split_ids(ds, 100)
    oracle = OracleDiscriminator(0.0, 1.0, frozenset(members.ids))
    rates, accs = [], []
    for seed in range(10):
        result = run_whitebox(oracle_scorer(oracle, seed), members, nonmembers)
        row = compute_metrics(result.confusion, 0)
        rates.append(row.success_rate)
        accs.append(row.accuracy)
    assert abs(np.mean(rates) - 0.1) < 0.03
    assert abs(np.mean(accs) - 0.82) < 0.03


def test_run_whitebox_requires_disjoint_ids():
    ds = synth_generate(0, 10, SHAPE)
    members, _ = split_ids(ds, 5)
    with pytest.raises(ConfigError, match="disjoint"):
        run_whitebox(lambda rid, roll: 0.0, members, members)


def test_run_whitebox_shape_mismatch():
    a = synth_generate(0, 4, SHAPE)
    b = synth_generate(0, 4, PianorollShape(2, 1, 4, 12))
    b = Dataset(b.shape, b.rolls, [10, 11, 12, 13])
    with pytest.raises(ConfigError, match="shape"):
        run_whitebox(lambda rid, roll: 0.0, a, b)


def test_run_whitebox_scorer_failure_names_candidate():
    ds = synth_generate(0, 10, SHAPE)
    members, nonmembers = split_ids(ds, 5)

    def scorer(rid, _roll):
        if rid == 7:
            raise RuntimeError("boom")
        return 0.0

    with pytest.raises(RuntimeError, match="^scorer failed on nonmembers: candidate 7: boom$"):
        run_whitebox(scorer, members, nonmembers)


def test_set_scorer_matches_per_row_scorer():
    ds = synth_generate(0, 60, SHAPE)
    members, nonmembers = split_ids(ds, 20)
    oracle = OracleDiscriminator(0.5, 1.0, frozenset(members.ids))
    per_row = run_whitebox(oracle_scorer(oracle, 3), members, nonmembers)
    sets = run_whitebox_sets(
        lambda ids, _rolls: [oracle_d_score(oracle, rid, (3, rid)) for rid in ids.tolist()],
        members,
        nonmembers,
    )
    assert np.array_equal(sets.predicted_member_ids, per_row.predicted_member_ids)
    assert sets.confusion == per_row.confusion


def test_run_whitebox_sets_scorer_failure_names_the_side():
    ds = synth_generate(0, 10, SHAPE)
    members, nonmembers = split_ids(ds, 5)

    def scorer(ids, _rolls):
        if 7 in ids:
            raise FloatingPointError("boom")
        return np.zeros(len(ids))

    with pytest.raises(RuntimeError, match="^scorer failed on nonmembers: boom$"):
        run_whitebox_sets(scorer, members, nonmembers)


def test_run_whitebox_sets_rejects_wrong_score_count():
    ds = synth_generate(0, 10, SHAPE)
    members, nonmembers = split_ids(ds, 5)
    with pytest.raises(ConfigError, match="members"):
        run_whitebox_sets(lambda ids, _rolls: np.zeros(len(ids) + 1), members, nonmembers)
