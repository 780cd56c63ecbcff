"""White-box discriminator attack: score every candidate, rank, and label the
top N as members, where N is the true member count.

The attack path scores a whole side at once: a set scorer maps the (k,) ids
and (k, tracks, bars, steps, pitches) rolls of the members, then of the
nonmembers, to a (k,) float64 score vector, and ``rank_scores`` ranks the
pooled vectors.  A trained discriminator scores a set in a few blocked
network passes (``gan.d_score``) instead of one pass per roll, whose Python
overhead outweighed the one-row product.

``run_whitebox`` keeps the per-candidate ``(id, roll) -> float`` scorer for
models that score one record at a time, such as the oracle discriminator
whose noise is seeded per id; it only adapts that scorer onto the same
checks and the same ranking.

The ranking never reads ground-truth labels; the member ids are passed only
so the confusion counts can be computed afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .metrics import ConfusionCounts, confusion_from_predictions
from .pianoroll import Dataset


@dataclass
class WbAttackResult:
    predicted_member_ids: tuple[int, ...]
    confusion: ConfusionCounts


def rank_scores(ids, scores, member_ids) -> WbAttackResult:
    """Sort candidates by (score desc, id asc) and predict the first
    ``len(member_ids)`` as members.  The id tiebreak makes the ordering total;
    scores that compare equal, +0.0 and -0.0 included, order by id."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != ids.shape:
        raise ConfigError(f"need one score per candidate: {scores.shape} scores for {ids.shape} ids")
    n_members = len(member_ids)
    if not 0 < n_members <= len(ids):
        raise ConfigError("n_members out of range")
    if len(np.unique(ids)) != len(ids):
        raise ConfigError("candidate ids must be unique")
    bad = ~np.isfinite(scores)
    if bad.any():
        raise ConfigError(f"non-finite score for candidate {ids[bad][0]}")
    predicted = tuple(ids[np.lexsort((ids, -scores))[:n_members]].tolist())
    confusion = confusion_from_predictions(predicted, member_ids, ids.tolist())
    return WbAttackResult(predicted, confusion)


def _attack(members: Dataset, nonmembers: Dataset, score_side) -> WbAttackResult:
    """Check the two sides, score each with ``score_side(name, dataset)`` and
    rank the pooled scores."""
    if members.shape != nonmembers.shape:
        raise ConfigError("member and nonmember datasets must share a shape")
    if set(members.ids.tolist()) & set(nonmembers.ids.tolist()):
        raise ConfigError("member and nonmember ids must be disjoint")
    scores = np.concatenate(
        [score_side("members", members), score_side("nonmembers", nonmembers)]
    )
    return rank_scores(np.concatenate([members.ids, nonmembers.ids]), scores, members.ids)


def run_whitebox_sets(
    set_scorer: Callable[[np.ndarray, np.ndarray], np.ndarray],
    members: Dataset,
    nonmembers: Dataset,
) -> WbAttackResult:
    """Score the members and the nonmembers with one ``(ids, rolls)`` call
    each and label the top |members|.  A scorer failure aborts with the name
    of the side it was scoring."""

    def score_side(name: str, dataset: Dataset) -> np.ndarray:
        try:
            scores = set_scorer(dataset.ids, dataset.rolls)
        except Exception as exc:
            raise RuntimeError(f"scorer failed on {name}: {exc}") from exc
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(dataset),):
            raise ConfigError(f"scorer gave {scores.shape} scores for {len(dataset)} {name}")
        return scores

    return _attack(members, nonmembers, score_side)


def run_whitebox(
    scorer: Callable[[int, np.ndarray], float],
    members: Dataset,
    nonmembers: Dataset,
) -> WbAttackResult:
    """Score all member and nonmember rolls and label the top |members|.

    The scorer is called once per candidate with (id, roll); a scorer failure
    aborts with the offending candidate id.  The result does not depend on
    candidate order.
    """

    def score_side(_name: str, dataset: Dataset) -> np.ndarray:
        scores = np.empty(len(dataset))
        for i, (rid, roll) in enumerate(zip(dataset.ids.tolist(), dataset.rolls)):
            try:
                scores[i] = scorer(rid, roll)
            except Exception as exc:
                raise RuntimeError(f"scorer failed on candidate {rid}: {exc}") from exc
        return scores

    return _attack(members, nonmembers, score_side)
