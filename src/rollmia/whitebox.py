"""White-box discriminator attack: score every candidate, rank, and label the
top N as members, where N is the true member count.

The attack path scores a whole side at once: a set scorer maps the (k,) ids
and (k, tracks, bars, steps, pitches) rolls of the members, then of the
nonmembers, to a (k,) float64 score vector, and ``rank_scores`` ranks the
pooled vectors.  A trained discriminator scores a set in a few blocked
network passes (``gan.d_score``).

``run_whitebox_sets`` is the one attack path.  ``run_whitebox`` takes a
per-candidate ``(id, roll) -> float`` scorer, for models that score one
record at a time such as the oracle discriminator whose noise is seeded per
id, and only wraps it into a set scorer for ``run_whitebox_sets``.

The ranking never reads ground-truth labels; the member ids are passed only
so the confusion counts can be computed afterwards, in one array pass from
the member mask of the ranked candidates.  The predicted member ids are the
int64 array of the top N ids in rank order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .metrics import ConfusionCounts
from .pianoroll import Dataset


@dataclass(eq=False)
class WbAttackResult:
    predicted_member_ids: np.ndarray
    confusion: ConfusionCounts


def rank_scores(ids, scores, member_ids) -> WbAttackResult:
    """Sort candidates by (score desc, id asc) and predict the first
    N = ``len(member_ids)`` as members.  The id tiebreak makes the ordering
    total; scores that compare equal, +0.0 and -0.0 included, order by id.

    The counts come from the member mask of the ranked candidates: tp is
    the number of members among the first N, so fp = fn = N - tp and
    tn = C - 2N + tp for C candidates.  The member ids must be distinct
    candidate ids."""
    ids = np.asarray(ids, dtype=np.int64)
    scores = np.asarray(scores, dtype=np.float64)
    member_ids = np.asarray(member_ids, dtype=np.int64)
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
    is_member = np.isin(ids, member_ids)
    # with unique candidate ids the mask counts each distinct member once
    if np.count_nonzero(is_member) != n_members:
        if len(np.unique(member_ids)) != n_members:
            raise ConfigError("member ids must be unique")
        raise ConfigError("member ids must all be candidate ids")
    top = np.lexsort((ids, -scores))[:n_members]
    tp = int(np.count_nonzero(is_member[top]))
    fp = n_members - tp
    confusion = ConfusionCounts(tp=tp, fp=fp, tn=len(ids) - n_members - fp, fn=fp)
    return WbAttackResult(ids[top], confusion)


def run_whitebox_sets(
    set_scorer: Callable[[np.ndarray, np.ndarray], np.ndarray],
    members: Dataset,
    nonmembers: Dataset,
) -> WbAttackResult:
    """Score the members and the nonmembers with one ``(ids, rolls)`` call
    each and label the top |members|.  Sides of different shapes or that
    share ids are refused before either is scored; a scorer failure aborts
    with the name of the side it was scoring.  The result does not depend on
    candidate order."""
    if members.shape != nonmembers.shape:
        raise ConfigError("member and nonmember datasets must share a shape")
    if np.intersect1d(members.ids, nonmembers.ids).size:
        raise ConfigError("member and nonmember ids must be disjoint")
    sides = []
    for name, dataset in (("members", members), ("nonmembers", nonmembers)):
        try:
            scores = set_scorer(dataset.ids, dataset.rolls)
        except Exception as exc:
            raise RuntimeError(f"scorer failed on {name}: {exc}") from exc
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (len(dataset),):
            raise ConfigError(f"scorer gave {scores.shape} scores for {len(dataset)} {name}")
        sides.append(scores)
    ids = np.concatenate([members.ids, nonmembers.ids])
    return rank_scores(ids, np.concatenate(sides), members.ids)


def run_whitebox(
    scorer: Callable[[int, np.ndarray], float],
    members: Dataset,
    nonmembers: Dataset,
) -> WbAttackResult:
    """``run_whitebox_sets`` for a scorer called once per candidate with
    (id, roll); a failure names the side and the candidate id, as in
    ``scorer failed on nonmembers: candidate 7: boom``."""

    def set_scorer(ids: np.ndarray, rolls: np.ndarray) -> list[float]:
        scores = []
        for rid, roll in zip(ids.tolist(), rolls):
            try:
                scores.append(scorer(rid, roll))
            except Exception as exc:
                raise RuntimeError(f"candidate {rid}: {exc}") from exc
        return scores

    return run_whitebox_sets(set_scorer, members, nonmembers)
