"""Black-box Monte Carlo membership inference.

The stash is one uint8 array of generated rolls, shape
(size, tracks, bars, steps, pitches), one sample per seed of
``stash_seeds``, built once and reused for every candidate.  Features
(flattened cells, or per-step tonal centroids) are computed once per set of
rolls.  A candidate's score is the fraction of its seeded stash draws lying
within distance epsilon of it.  Per trial, M train and M test records
compete for the top-M set; single-record accuracy is the train fraction of
that set, and the set-level decision labels whichever side contributed more
records.  Both are averaged over repeated trials so the
set-level answer is a frequency rather than a one-shot 0/1 outcome.
``McResult`` holds each trial's epsilon and train-selected count as two
(trials,) arrays; the test side contributed the other M minus that count.

An attack is a plan scored against each model's stash.  The plan
(``McPlan``, made by ``plan_mc_trials``) holds the config, the two sides,
and everything else that does not depend on the model: per trial, the M
train and M test records and a (2M, n) array of stash draws, all seeded by
the config seed alone.  It is made once per run and MC config, and the
sides are checked there, once.  The score (``score_mc_plan``) takes one
model's stash of ``config.stash_size`` rolls and, per trial, is one array
pipeline over the 2M candidates: their features, a (2M, n) array of
distances to the planned draws, then epsilon, scores and the top-M
selection on whole arrays.  ``run_mc_trials`` attacks one model: it scores
its stash under a fresh plan, so a candidate is scored within its trial,
never alone.
Epsilon has one rank rule, the value at ascending rank max(1, ceil(q*K)) of
the trial's K pooled distances, with q = 1/2 for the (lower) median.
Features are computed for the 2M drawn candidates only, not for every roll
of either side.  Euclidean distances come from one candidate x stash Gram
product per trial, exact in float32 because the cells are 0/1.  Tonal
distances come from one kernel over the six centroid components, each a
contiguous (stash size, steps) plane: per block of candidates it gathers a
plane's drawn rows, subtracts the candidate's plane, squares, and adds the
six terms in component order, then takes the root and the mean over steps.
That order is the order in which ``np.linalg.norm`` sums a length-6 last
axis, so the distances equal the per-candidate norm of the stacked features
bit for bit; a regrouped sum would not.

A distance metric's name, "euclidean" or "tonal", is also its label in
configs, ``attack mc --metric`` and the MC table.

Candidate i of a trial draws its n stash rows as ``choice(stash_size, n,
replace=False)`` of the Generator that ``default_rng`` gives on the trial's
i-th candidate SeedSequence child.  A plan hashes the seeds of all its
candidates in ``pianoroll.seed_states`` passes over one entropy matrix.
Up to BATCH_MAX_DRAWS draws from a stash of at most FLOYD_MAX_STASH rows,
it replays numpy's draws for blocks of candidates at once from each one's n
raw PCG64 words (``_floyd_rows``), as ``pianoroll.synth_generate`` replays
its rolls; larger draws call ``choice`` per candidate (``_choice_rows``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError
from .pianoroll import (
    Dataset,
    PianorollShape,
    _bounded_draws,
    _SeedState,
    entropy_words,
    seed_states,
)

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


# Stash draws: n of stash_size rows per candidate, as ``choice(stash_size, n,
# replace=False)`` draws them.  The largest n drawn in batches: per plan of
# 600 candidates the batched replay was level with per-candidate calls at
# n = 128 and 1.7x slower at n = 256 (see ``_stash_draws``).
BATCH_MAX_DRAWS = 128
# numpy's choice runs Floyd's algorithm, which ``_floyd_rows`` replays, on a
# population up to this size (and on larger ones only for few draws)
FLOYD_MAX_STASH = 10000
# scratch bytes of one block of batched rows: about 72 a draw (its raw word,
# its two uint32 halves widened to uint64 and ``_bounded_draws``' products)
# and one a stash row (the block's taken flags); a block holds at least a row
DRAW_BLOCK = 1 << 20


def _choice_rows(stash_size: int, states: np.ndarray, out: np.ndarray) -> None:
    """Write ``choice(stash_size, n, replace=False)`` into each row of the
    (k, n) ``out``, row r drawn by a PCG64 seeded with the ``seed_states``
    row ``states[r]``."""
    for row, state in zip(out, states):
        rng = np.random.Generator(np.random.PCG64(_SeedState(state)))
        row[:] = rng.choice(stash_size, size=len(row), replace=False)


def _floyd_rows(stash_size: int, states: np.ndarray, out: np.ndarray) -> None:
    """``_choice_rows`` for a stash of at most FLOYD_MAX_STASH rows, replayed
    for all k rows at once from each row's n raw PCG64 words.

    numpy's choice draws by Floyd's algorithm, then shuffles.  Floyd takes,
    for j from S - n to S - 1 (S = stash_size), v = integers(j + 1), or j
    when v is already taken; j = 0 draws nothing.  The shuffle swaps
    position i with integers(i + 1), for i from n - 1 down to 1.  Each
    bounded draw takes the row's next uint32 half, low half first, by
    ``_bounded_draws``, so a row takes at most 2n - 1 halves of its n words.
    A row with a half that numpy would reject, drawing another, is drawn
    again by ``_choice_rows``.  The steps run on (draw, row) arrays, one
    contiguous row of k entries a step.
    """
    k, n = out.shape
    # a whole stash's first Floyd step has j = 0 and draws nothing
    first = int(stash_size == n)
    floyd = np.arange(stash_size - n + first, stash_size)
    bounds = np.concatenate([floyd + 1, np.arange(n, 1, -1)]).astype(np.uint64)
    words = np.concatenate(
        [np.random.PCG64(_SeedState(state)).random_raw(n) for state in states], dtype="<u8"
    )
    halves = np.empty((n, 2, k), dtype=np.uint64)
    halves[...] = words.view("<u4").reshape(k, n, 2).transpose(1, 2, 0)
    # each temporary goes once used, so the block stays within DRAW_BLOCK
    del words
    # bounds as a column: one bound per draw, for every row
    values, rejected = _bounded_draws(halves.reshape(2 * n, k)[: len(bounds)], bounds[:, None])
    del halves
    # draw value v of row r as a flat index v * k + r into a (., k) array
    index = values.astype(np.intp)
    index *= k
    index += np.arange(k)

    # Floyd: taken[v, r] marks v taken in row r, and hit[c] the rows whose
    # step c took j; j is never taken before its step, so taken[j] = hit[c]
    taken = np.zeros((stash_size, k), dtype=bool)
    taken[:first] = True
    hit = np.zeros((n, k), dtype=bool)
    flags = taken.reshape(-1)
    for c, (j, step) in enumerate(zip(floyd, index), start=first):
        hit[c] = flags[step]
        taken[j] = hit[c]
        flags[step] = True
    drawn = np.zeros((n, k), dtype=np.intp)
    drawn[first:] = np.where(hit[first:], floyd[:, None], values[: n - first])

    flat = drawn.reshape(-1)
    for i, swap in zip(range(n - 1, 0, -1), index[n - first :]):
        other = flat[swap]
        flat[swap] = drawn[i]
        drawn[i] = other
    out[...] = drawn.T
    for r in np.flatnonzero(rejected.any(axis=0)):
        _choice_rows(stash_size, states[r : r + 1], out[r : r + 1])


def _stash_draws(
    stash_size: int, n: int, entropy: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """(k, n) stash indices, row r drawn without replacement by the Generator
    that ``default_rng`` gives on the assembled entropy words ``entropy[r]``,
    written into ``out``: by default a new array of the smallest unsigned
    type that holds an index.

    Up to BATCH_MAX_DRAWS draws from at most FLOYD_MAX_STASH rows, blocks of
    rows are seeded (``seed_states``) and drawn by ``_floyd_rows``, each
    block within DRAW_BLOCK bytes of scratch; otherwise every row is seeded
    in one pass and drawn by its own ``choice`` call (``_choice_rows``).
    A ``choice`` call costs about 12 us a row, mostly numpy's per-call work;
    the replay costs a PCG64 a row and a few numpy operations per draw and
    block, so it wins on many rows of few draws and loses on long rows.
    Per plan (2 vCPUs, numpy 2.4.6), per-row against batched: 600 rows of
    n = 64 took 7.8 against 4.5 ms, of n = 128 about the same, of n = 256
    9.4 against 15.5 ms; 1200 rows of n = 500 took 21.7 against 67.7 ms.
    """
    if out is None:
        out = np.empty((len(entropy), n), dtype=np.min_scalar_type(stash_size - 1))
    if n > BATCH_MAX_DRAWS or stash_size > FLOYD_MAX_STASH:
        _choice_rows(stash_size, seed_states(entropy), out)
        return out
    block = max(1, DRAW_BLOCK // (72 * n + stash_size))
    for start in range(0, len(out), block):
        _floyd_rows(stash_size, seed_states(entropy[start : start + block]), out[start : start + block])
    return out


# float64 elements in each of the tonal kernel's two block buffers (512 KB
# each); a block holds as many candidates' (n, steps) terms as fit, at least one
PLANE_BLOCK = 1 << 16


def _tonal_distances(candidates: np.ndarray, stash: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """(k, n) mean per-step centroid distances from each of k candidates'
    (steps, 6) features to the stash rows ``drawn[i]``, over blocks of
    candidates on the six component planes.

    The six squared terms are summed in sequence, ((((t0+t1)+t2)+t3)+t4)+t5,
    as ``np.linalg.norm`` sums them, so every distance is bit for bit
    ``norm(stash[drawn[i]] - candidates[i], axis=-1).mean(axis=-1)``.
    """
    k, n = drawn.shape
    steps = stash.shape[1]
    planes = np.ascontiguousarray(np.moveaxis(stash, -1, 0))
    candidate_planes = np.moveaxis(candidates, -1, 0)
    block = max(1, PLANE_BLOCK // (n * steps))
    total = np.empty((min(block, k), n, steps))
    term = np.empty_like(total)
    out = np.empty((k, n))
    for start in range(0, k, block):
        rows = drawn[start : start + block]
        acc, part = total[: len(rows)], term[: len(rows)]
        for c, (plane, candidate_plane) in enumerate(zip(planes, candidate_planes)):
            dest = part if c else acc
            # draws are in range; "clip" lets take write into dest unbuffered
            np.take(plane, rows, axis=0, out=dest, mode="clip")
            dest -= candidate_plane[start : start + len(rows), None, :]
            np.multiply(dest, dest, out=dest)
            if c:
                acc += part
        np.sqrt(acc, out=acc)
        np.mean(acc, axis=-1, out=out[start : start + len(rows)])
    return out


def _query_distances(
    metric: str, candidates: np.ndarray, stash: np.ndarray, drawn: np.ndarray
) -> np.ndarray:
    """(k, n) distances from each of k candidate features to its stash rows
    ``drawn[i]``, as ``_stash_draws`` draws them."""
    if metric == EUCLIDEAN:
        squared = np.take_along_axis(_squared_euclidean(candidates, stash), drawn, axis=1)
        return np.sqrt(squared, out=squared)
    return _tonal_distances(candidates, stash, drawn)


@dataclass(frozen=True, eq=False)
class McPlan:
    """An MC attack short of its stash: the config, the train and test
    sides, and per trial the M train and M test row indices, as (trials, M)
    arrays, the 2M candidate ids, (trials, 2M), and each candidate's stash
    draws, (trials, 2M, n), as the smallest unsigned integers that hold an
    index into ``config.stash_size`` rolls.  Made by ``plan_mc_trials``;
    ``score_mc_plan`` scores any model's stash of that size with it."""

    config: McConfig
    train: Dataset
    test: Dataset
    train_idx: np.ndarray
    test_idx: np.ndarray
    ids: np.ndarray
    drawn: np.ndarray


def plan_mc_trials(train_rolls: Dataset, test_rolls: Dataset, config: McConfig) -> McPlan:
    """Pick each trial's records and draw its candidates' stash rows, which
    depend on ``config`` and the sides alone.

    Trial t's SeedSequence is the t-th child of ``config.seed``; its first
    child seeds the record picks, M train then M test rows without
    replacement, and candidate i draws with its second child's i-th child.
    Sides of two shapes, sides too small for ``subset_size``, or sides that
    share ids are refused here.
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
    trials, stash_size = config.trials, config.stash_size
    train_idx = np.empty((trials, m), dtype=np.int64)
    test_idx = np.empty((trials, m), dtype=np.int64)
    # the smallest unsigned type that holds a stash index: 1 or 2 bytes a
    # draw in place of 8, as the plan holds every trial's draws at once
    drawn = np.empty((trials, 2 * m, config.n_per_query), dtype=np.min_scalar_type(stash_size - 1))
    roots = []
    for t, trial_ss in enumerate(np.random.SeedSequence(config.seed).spawn(trials)):
        record_ss, candidate_root = trial_ss.spawn(2)
        rng = np.random.default_rng(record_ss)
        train_idx[t] = rng.choice(len(train_rolls), size=m, replace=False)
        test_idx[t] = rng.choice(len(test_rolls), size=m, replace=False)
        roots.append(entropy_words(candidate_root.entropy, candidate_root.spawn_key))
    # candidate i of trial t hashes its root's words, then i; every root has
    # as many words, its trial number being one
    entropy = np.empty((trials, 2 * m, len(roots[0]) + 1), dtype=np.uint32)
    entropy[..., :-1] = np.array(roots, dtype=np.uint32)[:, None]
    entropy[..., -1] = np.arange(2 * m)
    _stash_draws(
        stash_size, config.n_per_query, entropy.reshape(trials * 2 * m, -1),
        drawn.reshape(trials * 2 * m, -1),
    )
    ids = np.concatenate([train_rolls.ids[train_idx], test_rolls.ids[test_idx]], axis=1)
    return McPlan(config, train_rolls, test_rolls, train_idx, test_idx, ids, drawn)


def score_mc_plan(plan: McPlan, stash: np.ndarray) -> McResult:
    """Run the plan's R trials of the distance-threshold attack on one
    model's stash of ``config.stash_size`` rolls, and aggregate.

    Per trial: take the plan's M records from each side, pool every
    candidate-to-drawn-stash distance, pick epsilon by the configured
    heuristic, score all 2M candidates, and select the top M by (score desc,
    mean distance asc, id asc, train before test).  Deterministic in (stash,
    plan).
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
            config.metric, roll_features(config.metric, shape, candidates), stash_feats, plan.drawn[t]
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
