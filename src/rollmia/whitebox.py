"""White-box discriminator attack: score every candidate, rank, and label the
top N as members, where N is the true member count.

The attack itself never reads ground-truth labels; they ride along on the
candidates only so the harness can compute the confusion counts afterwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .metrics import ConfusionCounts, confusion_from_predictions
from .pianoroll import Dataset


@dataclass(frozen=True)
class ScoredCandidate:
    id: int
    score: float
    is_member: bool


@dataclass
class WbAttackResult:
    ranked: list[ScoredCandidate]
    predicted_member_ids: tuple[int, ...]
    confusion: ConfusionCounts


def rank_and_label(scored: list[ScoredCandidate], n_members: int) -> WbAttackResult:
    """Sort by (score desc, id asc) and predict the first ``n_members`` rows
    as members.  The id tiebreak makes the ordering total."""
    if not 0 < n_members <= len(scored):
        raise ConfigError("n_members out of range")
    ids = [c.id for c in scored]
    if len(set(ids)) != len(ids):
        raise ConfigError("candidate ids must be unique")
    for c in scored:
        if not math.isfinite(c.score):
            raise ConfigError(f"non-finite score for candidate {c.id}")
    ranked = sorted(scored, key=lambda c: (-c.score, c.id))
    predicted = tuple(c.id for c in ranked[:n_members])
    true_members = [c.id for c in scored if c.is_member]
    confusion = confusion_from_predictions(predicted, true_members, ids)
    return WbAttackResult(ranked, predicted, confusion)


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
    if members.shape != nonmembers.shape:
        raise ConfigError("member and nonmember datasets must share a shape")
    if set(members.ids) & set(nonmembers.ids):
        raise ConfigError("member and nonmember ids must be disjoint")
    scored = []
    for dataset, is_member in ((members, True), (nonmembers, False)):
        for rid, roll in zip(dataset.ids.tolist(), dataset.rolls):
            try:
                score = float(scorer(rid, roll))
            except Exception as exc:
                raise RuntimeError(f"scorer failed on candidate {rid}: {exc}") from exc
            scored.append(ScoredCandidate(rid, score, is_member))
    return rank_and_label(scored, len(members))
