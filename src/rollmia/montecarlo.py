"""Black-box Monte Carlo membership inference.

The stash is one uint8 array of generated rolls, shape
(size, tracks, bars, steps, pitches), one sample per seed of
``stash_seeds``, built once and reused for every candidate.  Features
(flattened cells, or per-step tonal centroids) are computed once per set of
rolls.  A candidate's score is the fraction of its trial's n stash rows
lying within distance epsilon of it.  Per trial, M train and M test records
compete for the top-M set; single-record accuracy is the train fraction of
that set, and the set-level decision labels whichever side contributed more
records.  Both are averaged over repeated trials so the
set-level answer is a frequency rather than a one-shot 0/1 outcome.
``McResult`` holds each trial's epsilon and train-selected count as two
(trials,) arrays; the test side contributed the other M minus that count.

An attack is a plan scored against each model's stash.  The plan
(``McPlan``, made by ``plan_mc_trials``) holds the config, the two sides,
and everything else that does not depend on the model: per trial, the M
train and M test records and the n stash rows they are compared against,
all seeded by the config seed alone.  It is made once per run and MC
config, and the sides are checked there, once.  The score
(``score_mc_plan``) takes one model's stash of ``config.stash_size`` rolls
and, per trial, is one array pipeline over the 2M candidates: their
features, a (2M, n) array of distances to the trial's rows, then epsilon,
scores and the top-M selection on whole arrays.  ``run_mc_trials`` attacks
one model: it scores its stash under a fresh plan, so a candidate is scored
within its trial, never alone.
Epsilon has one rank rule, the value at ascending rank max(1, ceil(q*K)) of
the trial's K pooled distances, with q = 1/2 for the (lower) median.
Features are computed for the 2M drawn candidates only, not for every roll
of either side.  Euclidean distances come from one candidate x row Gram
product per trial, exact in float32 because the cells are 0/1.  Tonal
distances come from one kernel over the six centroid components, each a
contiguous (n, steps) plane of the trial's rows: per block of candidates it
subtracts the candidate's plane, squares, and adds the six terms in
component order, then takes the root and the mean over steps.  That order
is the order in which ``np.linalg.norm`` sums a length-6 last axis, so the
distances equal the per-candidate norm of the stacked features bit for bit;
a regrouped sum would not.

A distance metric's name, "euclidean" or "tonal", is also its label in
configs, ``attack mc --metric`` and the MC table.

Each trial draws its n stash rows once, as ``choice(stash_size, n,
replace=False)`` of the Generator that ``default_rng`` gives on the trial's
second SeedSequence child, and all 2M candidates are compared against
those rows, as in the attack of Hilprecht et al., where every record is
scored against the same generated samples.  With n equal to the stash
size, every candidate is compared against the whole stash.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .pianoroll import Dataset, PianorollShape

EUCLIDEAN = "euclidean"
TONAL = "tonal"
METRICS = (EUCLIDEAN, TONAL)
# label -> metric, now the identity; read by perfbench's oracle-audit workload
METRIC_FROM_LABEL = {metric: metric for metric in METRICS}


@dataclass(frozen=True)
class EpsilonHeuristic:
    """Threshold rule: the value at ascending rank max(1, ceil(q * K)) of K
    distances, for percentile(q) or, with q = 1/2, the lower median."""

    kind: str
    q: float | None = None

    def __post_init__(self):
        if self.kind not in ("median", "percentile"):
            raise ConfigError(f"unknown heuristic kind {self.kind!r}")
        if self.kind == "percentile":
            if self.q is None or not 0.0 < self.q < 1.0:
                raise ConfigError("percentile heuristic needs q in (0, 1)")
        elif self.q is not None:
            raise ConfigError("median heuristic takes no q")

    @classmethod
    def parse(cls, text: str) -> "EpsilonHeuristic":
        """Parse "median" or "p:Q" (e.g. "p:0.001")."""
        if text == "median":
            return cls("median")
        if text.startswith("p:"):
            try:
                return cls("percentile", float(text[2:]))
            except ValueError as exc:
                raise ConfigError(f"bad percentile in {text!r}") from exc
        raise ConfigError(f"unknown heuristic {text!r}")

    def label(self) -> str:
        """The text ``parse`` reads back to this heuristic: "median", or
        "p:" and the shortest repr of q, so distinct q never share a label."""
        if self.kind == "median":
            return "median"
        return f"p:{float(self.q)!r}"


@dataclass(frozen=True)
class McConfig:
    """One MC attack; also an "attacks.mc" config entry, read by
    ``pianoroll.config_block`` with the heuristic given by its label."""

    stash_size: int
    n_per_query: int
    subset_size: int
    trials: int
    seed: int
    metric: str = EUCLIDEAN
    heuristic: EpsilonHeuristic = EpsilonHeuristic("median")

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ConfigError(f"metric must be one of {METRICS}, got {self.metric!r}")
        for name in ("stash_size", "n_per_query", "subset_size", "trials"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.n_per_query > self.stash_size:
            raise ConfigError("n_per_query cannot exceed stash_size")


@dataclass(eq=False)
class McResult:
    """Both accuracies, and per trial the epsilon and the number of train
    records among the top M, as (trials,) float64 and int64 arrays."""

    single_mi_accuracy: float
    set_mi_correct_fraction: float
    epsilon: np.ndarray
    train_selected: np.ndarray


def stash_seeds(size: int, seed) -> np.ndarray:
    """The ``size`` per-sample seeds of a stash seeded by ``seed``, as uint64.

    Every stash is drawn from these seeds, one sample per seed, so it is
    reproducible however a sampler consumes its own randomness and whether
    it samples one seed at a time or the whole array at once.
    """
    if size < 1:
        raise ConfigError("stash size must be >= 1")
    return np.random.SeedSequence(seed).generate_state(size, np.uint64)


def build_stash(sample_fn: Callable[[int], np.ndarray], size: int, seed) -> np.ndarray:
    """Stack one sample per seed of ``stash_seeds(size, seed)`` into a
    (size, tracks, bars, steps, pitches) array, calling a per-seed sampler
    ``sample_fn(int) -> roll`` once per seed."""
    return np.stack([sample_fn(s) for s in stash_seeds(size, seed).tolist()])


# ---------------------------------------------------------------------------
# Distance metrics
# ---------------------------------------------------------------------------


def _tonal_basis() -> np.ndarray:
    """6x12 transform from a normalized pitch-class profile to the tonal
    centroid: three circles (fifths, minor thirds, major thirds) with radii
    1, 1, 0.5 at angular steps 7pi/6, 3pi/2, 2pi/3 per semitone."""
    j = np.arange(12)
    basis = np.empty((6, 12))
    for row, (radius, angle) in enumerate(
        [(1.0, 7.0 * math.pi / 6.0), (1.0, 3.0 * math.pi / 2.0), (0.5, 2.0 * math.pi / 3.0)]
    ):
        basis[2 * row] = radius * np.sin(j * angle)
        basis[2 * row + 1] = radius * np.cos(j * angle)
    return basis


_TONAL_BASIS = _tonal_basis()


# rolls per block of the tonal feature pass, which bounds its temporaries
TONAL_BLOCK = 256


def _tonal_features(shape: PianorollShape, rolls: np.ndarray) -> np.ndarray:
    """Per-step centroids: (..., tracks, bars, steps, pitches) ->
    (..., tracks*bars*steps, 6), computed in blocks of TONAL_BLOCK rolls."""
    lead = rolls.shape[:-4]
    steps = rolls.reshape(-1, shape.tracks * shape.bars * shape.steps_per_bar, shape.pitches)
    # one-hot map from pitch index to pitch class; counts stay exact integers
    classes = (shape.base_midi_pitch + np.arange(shape.pitches)) % 12
    onehot = (classes[:, None] == np.arange(12)).astype(np.float64)
    out = np.empty((*steps.shape[:2], 6))
    for start in range(0, len(steps), TONAL_BLOCK):
        counts = steps[start : start + TONAL_BLOCK] @ onehot
        # an empty step's counts are all +0.0, and stay so over a total of 1
        counts /= np.maximum(counts.sum(axis=-1, keepdims=True), 1.0)
        out[start : start + TONAL_BLOCK] = counts @ _TONAL_BASIS.T
    return out.reshape(*lead, *out.shape[1:])


def roll_features(metric: str, shape: PianorollShape, rolls: np.ndarray) -> np.ndarray:
    """Features of one roll or a leading-axis stack of rolls.

    Euclidean features are the flattened cells themselves, viewed as int8 so
    that differences are signed, with no copy.  ``np.linalg.norm`` converts
    integer input to float64, so the distances are bit for bit those of
    float64 features.
    """
    rolls = np.asarray(rolls, dtype=np.uint8)
    if rolls.shape[-4:] != shape.dims():
        raise ConfigError(f"rolls shape {rolls.shape} does not match {shape.dims()}")
    if metric == EUCLIDEAN:
        return rolls.reshape(*rolls.shape[:-4], -1).view(np.int8)
    if metric == TONAL:
        return _tonal_features(shape, rolls)
    raise ConfigError(f"unknown metric {metric!r}")


def epsilon_from_heuristic(distances: Sequence[float], heuristic: EpsilonHeuristic) -> float:
    """Select the threshold from observed distances: the value at ascending
    rank max(1, ceil(q*K)) of the K distances, with q = 1/2 for the median,
    so the median is the lower one, rank (K+1)//2.  The result is always a
    member of the input multiset.
    """
    values = np.sort(np.asarray(distances, dtype=np.float64))
    if values.size == 0:
        raise ConfigError("cannot pick epsilon from an empty distance set")
    q = 0.5 if heuristic.kind == "median" else heuristic.q
    return float(values[max(1, math.ceil(q * values.size)) - 1])


# stash rows per block of the Euclidean Gram product, which bounds its float32 copies
GRAM_BLOCK = 256


def _squared_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(len(a), len(b)) squared distances between rows of 0/1 cell features,
    as |a|² + |b|² − 2a·b with the products a float32 GEMM over blocks of
    GRAM_BLOCK rows of ``b``.

    Every float32 operand and partial sum is an integer no larger than the
    cell count (at most MAX_CELLS = 2**24), which float32 holds exactly, and
    the three terms are combined in float64, so the result is bit for bit the
    float64 sum of squared differences.
    """
    a32 = a.astype(np.float32)
    a_sq = np.einsum("ij,ij->i", a32, a32)
    out = np.empty((len(a), len(b)))
    for start in range(0, len(b), GRAM_BLOCK):
        b32 = b[start : start + GRAM_BLOCK].astype(np.float32)
        block = out[:, start : start + GRAM_BLOCK]
        np.multiply(a32 @ b32.T, -2.0, out=block)
        block += a_sq[:, None]
        block += np.einsum("ij,ij->i", b32, b32)
    return out


# float64 elements in each of the tonal kernel's two block buffers (512 KB
# each); a block holds as many candidates' (n, steps) terms as fit, at least one
PLANE_BLOCK = 1 << 16


def _tonal_distances(candidates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(k, n) mean per-step centroid distances from each of k candidates'
    (steps, 6) features to each of the n stash rows' (steps, 6) features,
    over blocks of candidates on the six component planes.

    The six squared terms are summed in sequence, ((((t0+t1)+t2)+t3)+t4)+t5,
    as ``np.linalg.norm`` sums them, so every distance is bit for bit
    ``norm(rows - candidates[i], axis=-1).mean(axis=-1)``.
    """
    k = len(candidates)
    n, steps = rows.shape[:2]
    planes = np.ascontiguousarray(np.moveaxis(rows, -1, 0))
    candidate_planes = np.moveaxis(candidates, -1, 0)[:, :, None, :]
    block = max(1, PLANE_BLOCK // (n * steps))
    total = np.empty((min(block, k), n, steps))
    term = np.empty_like(total)
    out = np.empty((k, n))
    for start in range(0, k, block):
        stop = min(start + block, k)
        acc, part = total[: stop - start], term[: stop - start]
        for c, (plane, candidate_plane) in enumerate(zip(planes, candidate_planes)):
            dest = part if c else acc
            np.subtract(plane, candidate_plane[start:stop], out=dest)
            np.multiply(dest, dest, out=dest)
            if c:
                acc += part
        np.sqrt(acc, out=acc)
        np.mean(acc, axis=-1, out=out[start:stop])
    return out


def _query_distances(metric: str, candidates: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(k, n) distances from each of k candidate features to each of n stash
    row features."""
    if metric == EUCLIDEAN:
        squared = _squared_euclidean(candidates, rows)
        return np.sqrt(squared, out=squared)
    return _tonal_distances(candidates, rows)


@dataclass(frozen=True, eq=False)
class McPlan:
    """An MC attack short of its stash: the config, the train and test
    sides, and per trial the M train and M test row indices, as (trials, M)
    arrays, the 2M candidate ids, (trials, 2M), and the n stash rows that
    all of the trial's candidates are compared against, (trials, n) int64.
    Made by ``plan_mc_trials``; ``score_mc_plan`` scores any model's stash of
    ``config.stash_size`` rolls with it."""

    config: McConfig
    train: Dataset
    test: Dataset
    train_idx: np.ndarray
    test_idx: np.ndarray
    ids: np.ndarray
    drawn: np.ndarray


def plan_mc_trials(train_rolls: Dataset, test_rolls: Dataset, config: McConfig) -> McPlan:
    """Pick each trial's records and stash rows, which depend on ``config``
    and the sides alone.

    Trial t's SeedSequence is the t-th child of ``config.seed``; its first
    child seeds the record picks, M train then M test rows without
    replacement, and its second child the trial's draw of ``n_per_query``
    stash rows, ``default_rng(child).choice(stash_size, n_per_query,
    replace=False)``.  Sides of two shapes, sides too small for
    ``subset_size``, or sides that share ids are refused here.
    """
    m = config.subset_size
    if train_rolls.shape != test_rolls.shape:
        raise ConfigError("train and test sides must share a shape")
    if min(len(train_rolls), len(test_rolls)) < m:
        raise ConfigError(
            f"subset_size {m} needs at least that many records on each "
            f"side; got {len(train_rolls)} train and {len(test_rolls)} test records"
        )
    if np.intersect1d(train_rolls.ids, test_rolls.ids).size:
        raise ConfigError("train and test ids must be disjoint")
    trials, n = config.trials, config.n_per_query
    train_idx = np.empty((trials, m), dtype=np.int64)
    test_idx = np.empty((trials, m), dtype=np.int64)
    drawn = np.empty((trials, n), dtype=np.int64)
    for t, trial_ss in enumerate(np.random.SeedSequence(config.seed).spawn(trials)):
        record_ss, stash_ss = trial_ss.spawn(2)
        rng = np.random.default_rng(record_ss)
        train_idx[t] = rng.choice(len(train_rolls), size=m, replace=False)
        test_idx[t] = rng.choice(len(test_rolls), size=m, replace=False)
        drawn[t] = np.random.default_rng(stash_ss).choice(config.stash_size, size=n, replace=False)
    ids = np.concatenate([train_rolls.ids[train_idx], test_rolls.ids[test_idx]], axis=1)
    return McPlan(config, train_rolls, test_rolls, train_idx, test_idx, ids, drawn)


def score_mc_plan(plan: McPlan, stash: np.ndarray) -> McResult:
    """Run the plan's R trials of the distance-threshold attack on one
    model's stash of ``config.stash_size`` rolls, and aggregate.

    Per trial: take the plan's M records from each side, pool the distances
    from all 2M candidates to the trial's n stash rows, pick epsilon by the
    configured heuristic, score every candidate, and select the top M by
    (score desc, mean distance asc, id asc, train before test).
    Deterministic in (stash, plan).
    """
    config, shape = plan.config, plan.train.shape
    m = config.subset_size
    planned = (config.stash_size, *shape.dims())
    if stash.shape != planned:
        raise ConfigError(f"stash shape {stash.shape} is not the plan's {planned}")

    stash_feats = roll_features(config.metric, shape, stash)
    origin = np.repeat([0, 1], m)  # 0 = train, 1 = test

    epsilon = np.empty(config.trials)
    train_selected = np.empty(config.trials, dtype=np.int64)
    for t in range(config.trials):
        candidates = np.concatenate(
            [plan.train.rolls[plan.train_idx[t]], plan.test.rolls[plan.test_idx[t]]]
        )
        dists = _query_distances(
            config.metric, roll_features(config.metric, shape, candidates), stash_feats[plan.drawn[t]]
        )
        means = dists.mean(axis=1)
        epsilon[t] = epsilon_from_heuristic(dists.ravel(), config.heuristic)
        scores = (dists <= epsilon[t]).mean(axis=1)
        # top M by (score desc, mean distance asc, id asc, origin asc)
        selected = np.lexsort((origin, plan.ids[t], means, -scores))[:m]
        train_selected[t] = np.count_nonzero(origin[selected] == 0)

    single = float(np.mean(train_selected / m))
    set_fraction = float(np.mean(train_selected > m - train_selected))
    return McResult(single, set_fraction, epsilon, train_selected)


def run_mc_trials(
    train_rolls: Dataset, test_rolls: Dataset, stash: np.ndarray, config: McConfig
) -> McResult:
    """``score_mc_plan`` of the stash under a plan made for these sides and
    this config, for an attack on one model."""
    return score_mc_plan(plan_mc_trials(train_rolls, test_rolls, config), stash)
