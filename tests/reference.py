"""Reference implementations that the array code is checked against.

Each is the plain per-element or per-tensor form of something the package
computes in bulk: rolls as float64 cell vectors (the Euclidean features
reproduce their distances bit for bit), one step's pitch-class profile and
tonal centroid, the distance from one candidate's features to a stack of
features (which the Gram product and the tonal plane kernel reproduce bit
for bit) and between two rolls, one candidate's Monte Carlo score, the two Monte Carlo
accuracies as means of per-trial floats, the white-box ranking as a
sort of tuples and its confusion counts as id-set algebra, the pitch indices
of one class, the masked logistic function, the per-tensor Adam update,
the per-item Generators (one ``default_rng`` per synthetic roll, MC
candidate or latent row) that the seeded batches reproduce, and the
per-record oracle forms on ``default_rng`` (a discriminator score, a
generator draw, a population sample) that the library's own per-record
Generators reproduce.
"""

import numpy as np

from rollmia import ConfigError, ConfusionCounts, DivergenceError, McConfig, PianorollShape, StyleParams
from rollmia.montecarlo import _TONAL_BASIS, EUCLIDEAN, _query_distances, _stash_draws, roll_features
from rollmia.pianoroll import _pick_table, _synth_roll
from rollmia.streams import entropy_words


def flatten(rolls: np.ndarray) -> np.ndarray:
    """Row-major (track, bar, step, pitch) vectorization as float64 of 0.0/1.0:
    (..., tracks, bars, steps, pitches) -> (..., cells), for one roll or a
    stack of them."""
    rolls = np.asarray(rolls)
    return rolls.reshape(*rolls.shape[:-4], -1).astype(np.float64)


def pitch_class_profile(
    shape: PianorollShape, roll: np.ndarray, track: int, bar: int, step: int
) -> np.ndarray:
    """Count active cells at (track, bar, step) per pitch class (12-vector).

    Class of pitch index p is (base_midi_pitch + p) mod 12.
    """
    tracks, bars, steps, _ = shape.dims()
    if not (0 <= track < tracks and 0 <= bar < bars and 0 <= step < steps):
        raise IndexError(f"index ({track}, {bar}, {step}) out of range")
    active = np.nonzero(roll[track, bar, step])[0]
    return np.bincount((shape.base_midi_pitch + active) % 12, minlength=12).astype(np.float64)


def step_centroid(profile: np.ndarray) -> np.ndarray:
    """6-D tonal centroid of one pitch-class profile; empty profiles map to
    the zero centroid."""
    total = profile.sum()
    if total == 0.0:
        return np.zeros(6)
    return _TONAL_BASIS @ (profile / total)


def features_distance(metric: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance between one candidate feature and a stack of features.

    ``b`` may be a single feature or a leading-axis stack; returns a scalar
    array or a vector accordingly.
    """
    if metric == EUCLIDEAN:
        return np.linalg.norm(b - a, axis=-1)
    # tonal: mean over steps of per-step centroid distances
    return np.linalg.norm(b - a, axis=-1).mean(axis=-1)


def distance(metric: str, shape: PianorollShape, a: np.ndarray, b: np.ndarray) -> float:
    """Distance between two rolls of the given shape under the chosen metric."""
    return float(
        features_distance(metric, roll_features(metric, shape, a), roll_features(metric, shape, b))
    )


def mc_score(
    shape: PianorollShape,
    candidate: np.ndarray,
    stash: np.ndarray,
    config: McConfig,
    epsilon: float,
    seed,
) -> float:
    """Fraction of n stash draws within ``epsilon`` of the candidate, drawn
    by ``default_rng(seed)``: one candidate's score, as ``run_mc_trials``
    scores each of its 2M candidates."""
    if epsilon < 0.0:
        raise ConfigError("epsilon must be >= 0")
    if config.n_per_query > len(stash):
        raise ConfigError("n_per_query exceeds stash size")
    dists = _query_distances(
        config.metric,
        roll_features(config.metric, shape, np.asarray(candidate)[None]),
        roll_features(config.metric, shape, stash),
        _stash_draws(len(stash), config.n_per_query, np.array([entropy_words(seed)])),
    )
    return float(np.mean(dists <= epsilon))


def mc_accuracies(train_selected, m: int) -> tuple[float, float]:
    """Single-record and set-level Monte Carlo accuracy as the means of
    per-trial Python floats: ``t / m`` for t train records among a trial's
    top m, and 1.0 where t > m - t, else 0.0."""
    per_trial = [int(t) for t in train_selected]
    single = float(np.mean([t / m for t in per_trial]))
    set_level = float(np.mean([1.0 if t > m - t else 0.0 for t in per_trial]))
    return single, set_level


def top_n_by_sort(ids: np.ndarray, scores: np.ndarray, n: int) -> tuple[int, ...]:
    """The white-box ranking as a sort of Python tuples by (-score, id): the
    ids of the first ``n``."""
    ranked = sorted(zip(scores.tolist(), ids.tolist()), key=lambda c: (-c[0], c[1]))
    return tuple(rid for _, rid in ranked[:n])


def confusion_from_predictions(predicted_member_ids, true_member_ids, all_ids) -> ConfusionCounts:
    """Confusion counts by set algebra over the predicted, true member and
    candidate ids."""
    predicted = set(predicted_member_ids)
    true = set(true_member_ids)
    universe = set(all_ids)
    if not predicted <= universe:
        raise ConfigError("predicted ids outside the candidate universe")
    if not true <= universe:
        raise ConfigError("true member ids outside the candidate universe")
    tp = len(predicted & true)
    fp = len(predicted - true)
    fn = len(true - predicted)
    tn = len(universe) - tp - fp - fn
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


def pitch_indices_for_class(shape: PianorollShape, pitch_class: int) -> np.ndarray:
    """All pitch indices whose MIDI pitch falls in the given class."""
    idx = np.arange(shape.pitches)
    return idx[(shape.base_midi_pitch + idx) % 12 == pitch_class]


def sigmoid_masked(z: np.ndarray) -> np.ndarray:
    """Logistic function by boolean masks: 1/(1+exp(-z)) where z >= 0, else
    exp(z)/(1+exp(z))."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def adam_step_per_tensor(params, grads, m, v, step, lr, b1=0.9, b2=0.999, eps=1e-8):
    """Adam with bias correction over lists of tensors, one tensor at a time,
    updating params, m and v in place; ``step`` is the new step count."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise DivergenceError("divergence: non-finite gradient")
    bc1 = 1.0 - b1**step
    bc2 = 1.0 - b2**step
    for p, g, m_t, v_t in zip(params, grads, m, v):
        m_t *= b1
        m_t += (1.0 - b1) * g
        v_t *= b2
        v_t += (1.0 - b2) * g * g
        p -= lr * (m_t / bc1) / (np.sqrt(v_t / bc2) + eps)


def synth_rolls_per_roll(
    seed, count: int, shape: PianorollShape, style: StyleParams | None = None
) -> np.ndarray:
    """Synthetic rolls in ``style`` (by default the default style), roll i
    drawn by ``_synth_roll`` on ``default_rng(SeedSequence((seed, i)))``."""
    style = style or StyleParams()
    picks = _pick_table(shape)
    return np.stack([
        _synth_roll(np.random.default_rng(np.random.SeedSequence((seed, i))), shape, style, picks)
        for i in range(count)
    ])


def candidate_draws(seed, trials: int, m: int, stash_size: int, n: int) -> list[np.ndarray]:
    """Per trial, the (2m, n) stash draws of its candidates: candidate i
    draws ``n`` of ``stash_size`` rows without replacement with
    ``default_rng`` on the i-th of ``candidate_root.spawn(2 * m)``."""
    draws = []
    for trial_ss in np.random.SeedSequence(seed).spawn(trials):
        _record_ss, candidate_root = trial_ss.spawn(2)
        draws.append(np.stack([
            np.random.default_rng(child).choice(stash_size, size=n, replace=False)
            for child in candidate_root.spawn(2 * m)
        ]))
    return draws


def latent_rows(seeds: np.ndarray, latent_dim: int) -> np.ndarray:
    """One latent row per seed, ``default_rng(seed).standard_normal(latent_dim)``."""
    return np.stack([np.random.default_rng(s).standard_normal(latent_dim) for s in seeds.tolist()])


def oracle_score_by_default_rng(oracle, record_id: int, seed) -> float:
    """``gan.oracle_d_score`` with its noise drawn by ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, oracle.score_noise) if oracle.score_noise > 0.0 else 0.0
    base = oracle.margin if record_id in oracle.member_ids else 0.0
    return float(base + noise)


def population_sample_by_default_rng(shape: PianorollShape, seed) -> np.ndarray:
    """``synth_sampler(shape)(seed)``: one default-style roll drawn by
    ``_synth_roll`` on ``default_rng(seed)``."""
    return _synth_roll(np.random.default_rng(seed), shape, StyleParams(), _pick_table(shape))


def oracle_draw_by_default_rng(oracle, seed) -> np.ndarray:
    """``gan.oracle_generate`` drawn by ``default_rng(seed)``, for an oracle
    whose population sampler is ``synth_sampler`` of its training rolls'
    shape, here ``population_sample_by_default_rng``."""
    rng = np.random.default_rng(seed)
    memorize = rng.random() < oracle.memorization_rate
    pop_seed = int(rng.integers(2**63))
    if not memorize:
        return population_sample_by_default_rng(oracle.training_rolls.shape, pop_seed)
    roll = oracle.training_rolls.rolls[int(rng.integers(len(oracle.training_rolls)))]
    if oracle.flip_noise > 0.0:
        flips = rng.random(roll.shape) < oracle.flip_noise
        return np.where(flips, 1 - roll, roll).astype(np.uint8)
    return roll.copy()
