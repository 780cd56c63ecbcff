import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rollmia import (
    ConfigError,
    ConfusionCounts,
    compute_metrics,
)

from reference import confusion_from_predictions


def test_symmetric_counts_all_half():
    row = compute_metrics(ConfusionCounts(50, 50, 50, 50), iteration=1)
    for name in ("success_rate", "accuracy", "precision", "recall", "fpr", "f1"):
        assert getattr(row, name) == 0.5


def test_overfitted_row_reconstruction():
    # counts reconstructed from a 2639-member / 23515-nonmember top-N attack
    # with success rate 0.121: tp = round(0.121 * 2639), fp = 2639 - tp
    members, nonmembers = 2639, 23515
    tp = round(0.121 * members)
    fp = members - tp
    fn = members - tp
    tn = nonmembers - fp
    row = compute_metrics(ConfusionCounts(tp, fp, tn, fn), iteration=20000)
    assert round(row.success_rate, 3) == 0.121
    assert round(row.accuracy, 3) == 0.823
    assert round(row.precision, 3) == 0.121
    assert round(row.fpr, 3) == 0.099
    assert round(row.f1, 3) == 0.121


def test_perfect_attack():
    row = compute_metrics(ConfusionCounts(1, 0, 1, 0), iteration=0)
    assert row.success_rate == row.accuracy == row.precision == row.recall == row.f1 == 1.0
    assert row.fpr == 0.0


def test_all_zero_counts_error():
    with pytest.raises(ConfigError):
        compute_metrics(ConfusionCounts(0, 0, 0, 0), iteration=0)


def test_negative_counts_rejected():
    with pytest.raises(ConfigError):
        ConfusionCounts(-1, 0, 0, 0)


def test_zero_over_zero_ratios_are_zero():
    # no actual positives: recall 0/0 -> 0.0
    row = compute_metrics(ConfusionCounts(0, 2, 3, 0), iteration=0)
    assert row.recall == 0.0 and row.success_rate == 0.0
    # no predicted positives: precision 0/0 -> 0.0
    row = compute_metrics(ConfusionCounts(0, 0, 3, 2), iteration=0)
    assert row.precision == 0.0 and row.f1 == 0.0
    # nothing positive at all: f1 0/0 -> 0.0
    row = compute_metrics(ConfusionCounts(0, 0, 3, 0), iteration=0)
    assert row.f1 == 0.0


# the id-set algebra that ``rank_scores``'s mask counts are checked against
def test_confusion_from_predictions_cases():
    assert confusion_from_predictions({1, 2}, {1, 2}, {1, 2, 3, 4}) == ConfusionCounts(2, 0, 2, 0)
    assert confusion_from_predictions({1, 2}, {3, 4}, {1, 2, 3, 4}) == ConfusionCounts(0, 2, 0, 2)
    assert confusion_from_predictions({1, 2}, {2, 3}, {1, 2, 3, 4}) == ConfusionCounts(1, 1, 1, 1)


def test_confusion_outside_universe():
    with pytest.raises(ConfigError):
        confusion_from_predictions({9}, {1}, {1, 2})
    with pytest.raises(ConfigError):
        confusion_from_predictions({1}, {9}, {1, 2})


@settings(max_examples=200, deadline=None)
@given(
    tp=st.integers(min_value=0, max_value=5000),
    positives=st.integers(min_value=1, max_value=5000),
    tn=st.integers(min_value=0, max_value=50000),
)
def test_equal_count_identity(tp, positives, tn):
    # when predicted positives equal actual positives, fp = fn and
    # precision = recall = f1 = success_rate exactly
    tp = min(tp, positives)
    fp = positives - tp
    fn = positives - tp
    row = compute_metrics(ConfusionCounts(tp, fp, tn, fn), iteration=0)
    assert row.precision == row.recall == row.success_rate
    if tp > 0:
        assert row.f1 == row.precision  # exact under the count form
    expected_acc = 1.0 - (fp + fn) / row_total(tp, fp, tn, fn)
    assert abs(row.accuracy - expected_acc) < 1e-12


def row_total(tp, fp, tn, fn):
    return tp + fp + tn + fn


@settings(max_examples=200, deadline=None)
@given(
    tp=st.integers(min_value=0, max_value=1000),
    fp=st.integers(min_value=0, max_value=1000),
    tn=st.integers(min_value=0, max_value=1000),
    fn=st.integers(min_value=0, max_value=1000),
)
def test_f1_recomputation_matches(tp, fp, tn, fn):
    if tp + fp + tn + fn == 0:
        return
    row = compute_metrics(ConfusionCounts(tp, fp, tn, fn), iteration=0)
    for value in (row.success_rate, row.accuracy, row.precision, row.recall, row.fpr, row.f1):
        assert 0.0 <= value <= 1.0
    if row.precision + row.recall > 0:
        expected = 2.0 * row.precision * row.recall / (row.precision + row.recall)
        assert abs(row.f1 - expected) < 1e-12
    else:
        assert row.f1 == 0.0
