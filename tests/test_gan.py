import json
import tracemalloc

import numpy as np
import pytest

from rollmia import (
    Checkpoint,
    ComposerGan,
    ConfigError,
    Dataset,
    DivergenceError,
    FormatError,
    OracleDiscriminator,
    OracleGenerator,
    PianorollShape,
    TrainConfig,
    build_gan,
    d_score,
    g_sample,
    load_checkpoint,
    oracle_d_score,
    oracle_generate,
    rank_scores,
    save_checkpoint,
    synth_generate,
    synth_sampler,
    train,
)
from rollmia import nn
from rollmia.gan import NET_BLOCK
from rollmia.montecarlo import stash_seeds
from rollmia.pianoroll import SplitSpec, split

import reference
from conftest import nan_gradients_from

SHAPE = PianorollShape(2, 1, 8, 12)


def small_gan(seed=0):
    return build_gan(SHAPE, latent_dim=4, seed=seed)


def test_g_sample_deterministic():
    gan = small_gan()
    z = np.random.default_rng(1).standard_normal((3, 4))
    rolls = g_sample(gan, z)
    assert rolls.shape == (3, *SHAPE.dims()) and rolls.dtype == np.uint8
    assert np.array_equal(rolls, g_sample(gan, z))


def test_g_sample_bias_controls_output():
    gan = small_gan()
    for head in gan.heads:
        head.layers[-1].weights[:] = 0.0
        head.layers[-1].bias[:] = -1.0
    roll = g_sample(gan, np.zeros((1, 4)))
    assert not roll.any()
    for head in gan.heads:
        head.layers[-1].bias[:] = 1.0
    roll = g_sample(gan, np.zeros((1, 4)))
    assert roll.all()


def test_g_sample_zero_logit_is_off():
    gan = small_gan()
    for head in gan.heads:
        head.layers[-1].weights[:] = 0.0
        head.layers[-1].bias[:] = 0.0
    assert not g_sample(gan, np.zeros((1, 4))).any()


def test_g_sample_dim_mismatch():
    for z in (np.zeros((1, 5)), np.zeros(4)):
        with pytest.raises(ConfigError):
            g_sample(small_gan(), z)


def test_d_score_zero_weights_gives_bias(small_population):
    gan = build_gan(small_population.shape, 4, seed=0)
    for layer in gan.discriminator.layers:
        layer.weights[:] = 0.0
        layer.bias[:] = 0.0
    gan.discriminator.layers[-1].bias[:] = 0.75
    assert d_score(gan, small_population.rolls[:5]).tolist() == [0.75] * 5


def test_d_score_final_layer_scaling(small_population):
    gan = build_gan(small_population.shape, 4, seed=1)
    scores = d_score(gan, small_population.rolls[:20])
    gan.discriminator.layers[-1].weights *= 2.0
    gan.discriminator.layers[-1].bias *= 2.0
    doubled = d_score(gan, small_population.rolls[:20])
    assert np.allclose(doubled, scores * 2.0)
    assert list(np.argsort(scores)) == list(np.argsort(doubled))


def test_d_score_shape_mismatch():
    gan = small_gan()
    other = synth_generate(0, 1, PianorollShape(1, 1, 8, 12))
    with pytest.raises(ConfigError):
        d_score(gan, other.rolls)
    with pytest.raises(ConfigError):  # one roll is passed as roll[None]
        d_score(gan, synth_generate(0, 1, SHAPE).rolls[0])


def test_train_config_validation():
    with pytest.raises(ConfigError, match="divide"):
        TrainConfig(iterations=100, batch_size=8, latent_dim=4, lr=1e-3, seed=0, checkpoint_every=33)
    with pytest.raises(ConfigError):
        TrainConfig(iterations=0, batch_size=8, latent_dim=4, lr=1e-3, seed=0, checkpoint_every=1)
    with pytest.raises(ConfigError):
        TrainConfig(iterations=10, batch_size=8, latent_dim=4, lr=-1.0, seed=0, checkpoint_every=5)


def train_config(iterations=60, every=20, seed=5):
    return TrainConfig(
        iterations=iterations,
        batch_size=8,
        latent_dim=4,
        lr=1e-3,
        seed=seed,
        checkpoint_every=every,
    )


@pytest.fixture(scope="module")
def tiny_train_set():
    return synth_generate(11, 64, SHAPE)


def test_checkpoint_cadence(tiny_train_set):
    seen = []
    final = train(
        tiny_train_set,
        train_config(iterations=200, every=20),
        checkpoint_sink=lambda c: seen.append(c.iteration),
    )
    assert seen == list(range(20, 201, 20))
    assert final.iteration == 200


def test_train_requires_enough_rolls():
    small = synth_generate(0, 4, SHAPE)
    with pytest.raises(ConfigError, match="batch"):
        train(small, train_config())


def test_train_refuses_a_short_set_as_the_cli_and_the_experiment_do():
    # one batch-size rule, ``gan.check_batch_size``, for train, rollmia train
    # and the experiment's split stage
    config = TrainConfig(iterations=2, batch_size=32, latent_dim=4, lr=1e-3, seed=0, checkpoint_every=1)
    with pytest.raises(ConfigError, match="^train batch_size 32 exceeds the 10 training records$"):
        train(synth_generate(0, 10, SHAPE), config)


def test_train_deterministic_bytes(tiny_train_set, tmp_path):
    for name in ("a", "b"):
        sub = tmp_path / name
        sub.mkdir()
        train(
            tiny_train_set,
            train_config(),
            checkpoint_sink=lambda c, sub=sub: save_checkpoint(c, sub / f"{c.iteration}.ganc"),
        )
    for it in (20, 40, 60):
        assert (tmp_path / "a" / f"{it}.ganc").read_bytes() == (
            tmp_path / "b" / f"{it}.ganc"
        ).read_bytes()


def test_train_separates_real_from_fake(tiny_train_set):
    gan = train(tiny_train_set, train_config(iterations=200, every=100)).gan
    rng = np.random.default_rng(0)
    real = d_score(gan, tiny_train_set.rolls).mean()
    fake = d_score(gan, g_sample(gan, rng.standard_normal((64, 4)))).mean()
    assert real > fake


def test_d_score_blocks_match_one_row_scores(tiny_train_set):
    gan = train(tiny_train_set, train_config(iterations=60, every=60)).gan
    candidates = synth_generate(3, 2 * NET_BLOCK + 1, SHAPE)
    blocked = d_score(gan, candidates.rolls)
    rows = np.array([d_score(gan, roll[None])[0] for roll in candidates.rolls])
    # only the summation order of the float32 products may differ
    assert np.max(np.abs(blocked - rows)) <= 8 * np.finfo(np.float32).eps * np.max(np.abs(rows))
    members = candidates.ids[: NET_BLOCK]
    assert set(rank_scores(candidates.ids, blocked, members).predicted_member_ids) == set(
        rank_scores(candidates.ids, rows, members).predicted_member_ids
    )


def test_train_divergence_carries_last_checkpoint(tiny_train_set):
    config = TrainConfig(
        iterations=40, batch_size=8, latent_dim=4, lr=1e280, seed=1, checkpoint_every=10
    )
    with pytest.raises(DivergenceError) as excinfo:
        train(tiny_train_set, config)
    err = excinfo.value
    assert err.last_checkpoint is None or isinstance(err.last_checkpoint, Checkpoint)
    assert "at iteration" in str(err)


@pytest.mark.parametrize("nan_from, carried", [(25, 20), (5, None)])
def test_gradient_divergence_carries_the_saved_checkpoint(
    tiny_train_set, tmp_path, monkeypatch, nan_from, carried
):
    nan_gradients_from(monkeypatch, nan_from)
    with pytest.raises(DivergenceError, match=f"non-finite gradient at iteration {nan_from}$") as excinfo:
        train(
            tiny_train_set,
            train_config(iterations=40, every=10),
            checkpoint_sink=lambda c: save_checkpoint(c, tmp_path / f"{c.iteration}.ganc"),
        )
    last = excinfo.value.last_checkpoint
    if carried is None:
        assert last is None
        return
    assert last.iteration == carried
    # a snapshot that shared the live vectors would hold iteration 24's weights
    saved = load_checkpoint(tmp_path / f"{carried}.ganc").gan
    for got, want in ((last.gan.g_params, saved.g_params), (last.gan.d_params, saved.d_params)):
        assert np.array_equal(got.astype(np.float32), want)


def test_model_layers_are_views_of_its_family_vectors(tmp_path):
    gan = small_gan()
    path = tmp_path / "c.ganc"
    save_checkpoint(Checkpoint(1, gan), path)
    for model in (gan, load_checkpoint(path).gan, gan.snapshot()):
        families = (([model.trunk, *model.heads], model.g_params), ([model.discriminator], model.d_params))
        for mlps, flat in families:
            params = [p for mlp in mlps for p in nn.mlp_params(mlp)]
            assert flat.dtype == np.float32 and flat.flags.c_contiguous
            assert all(np.shares_memory(p, flat) for p in params)
            assert flat.tobytes() == np.concatenate([p.ravel() for p in params]).tobytes()
            # distinct values read back in order: every element is covered once
            flat[:] = np.arange(flat.size)
            assert np.array_equal(np.concatenate([p.ravel() for p in params]), np.arange(flat.size))
    gan = small_gan()
    copy = gan.snapshot()
    before = copy.g_params.copy(), copy.d_params.copy()
    gan.g_params += 1.0
    gan.d_params += 1.0
    assert copy.g_params.tobytes() == before[0].tobytes()
    assert copy.d_params.tobytes() == before[1].tobytes()


def test_model_refuses_a_vector_of_the_wrong_length():
    gan = small_gan()
    for g_params, d_params in (
        (gan.g_params[:-1], gan.d_params),
        (gan.g_params, np.append(gan.d_params, 0.0)),
        (gan.g_params, gan.d_params[None]),
    ):
        with pytest.raises(ValueError, match="parameter vector"):
            ComposerGan(gan.latent_dim, gan.shape, g_params, d_params)


# SHA-256 of the checkpoints of a short desk-shape run, recorded when
# training moved to float32, the precision the checkpoints store, so the
# final file holds every bit of the trained model; any change to the
# arithmetic of a step shows here
PINNED_CHECKPOINT_DIGESTS = {
    "checkpoint_000020.ganc": "54e57b58540fab53721c44fe3d2f06747fdff4acea91d8f2cbf284d1bd71f9e9",
    "checkpoint_000040.ganc": "e2e73dfca40cfb3822652c3a8c3f925d18bd0d4c8c6f7ac0bde890fd43a64fba",
    "checkpoint_000060.ganc": "484a44cc5f55689716828493d114595987ba120b21a31a929251874152529dcf",
}


def test_checkpoint_bytes_are_pinned(tmp_path, desk_shape):
    import hashlib

    train_set, _ = split(synth_generate(11, 200, desk_shape), SplitSpec(0.5, 12))
    config = TrainConfig(
        iterations=60, batch_size=32, latent_dim=16, lr=1e-3, seed=13, checkpoint_every=20
    )
    final = train(
        train_set,
        config,
        checkpoint_sink=lambda c: save_checkpoint(c, tmp_path / f"checkpoint_{c.iteration:06d}.ganc"),
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_CHECKPOINT_DIGESTS
    }
    assert digests == PINNED_CHECKPOINT_DIGESTS
    assert final.iteration == 60


# SHA-256 of the checkpoints of a desk-shape run with two discriminator steps
# per generator step, recorded with the pins above; every discriminator step
# rewrites the batch buffer
PINNED_TWO_D_STEP_DIGESTS = {
    "checkpoint_000020.ganc": "d06ca9172092120a2208f9ef2cdb356a7714e7c24a9fa8735b44f8a725728e38",
    "checkpoint_000040.ganc": "96df1001d03f112525c6b32c1b1642a3a5bca1d673bb913384a7266516ddd333",
}


def test_two_d_step_checkpoint_bytes_are_pinned(tmp_path, desk_shape):
    import hashlib

    train_set, _ = split(synth_generate(11, 200, desk_shape), SplitSpec(0.5, 12))
    config = TrainConfig(
        iterations=40, batch_size=32, latent_dim=16, lr=1e-3, seed=14, checkpoint_every=20,
        d_steps_per_g_step=2,
    )
    final = train(
        train_set,
        config,
        checkpoint_sink=lambda c: save_checkpoint(c, tmp_path / f"checkpoint_{c.iteration:06d}.ganc"),
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in PINNED_TWO_D_STEP_DIGESTS
    }
    assert digests == PINNED_TWO_D_STEP_DIGESTS
    assert final.iteration == 40


def test_training_memory_does_not_grow_with_the_training_set(desk_shape):
    config = TrainConfig(
        iterations=4, batch_size=32, latent_dim=16, lr=1e-3, seed=13, checkpoint_every=2
    )
    peaks = []
    for count in (200, 2000):
        train_set = synth_generate(15, count, desk_shape)
        train(train_set, config)  # first-call set-up outside the trace
        tracemalloc.start()
        try:
            train(train_set, config)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a float64 copy of the set would add (2000 - 200) * 768 * 8 B, 10.5 MiB
    assert abs(peaks[1] - peaks[0]) < 2**20


def test_checkpoint_roundtrip(tiny_train_set, tmp_path):
    ckpt = train(tiny_train_set, train_config(iterations=20, every=20))
    path = tmp_path / "c.ganc"
    save_checkpoint(ckpt, path)
    back = load_checkpoint(path)
    assert back.iteration == ckpt.iteration
    save_checkpoint(back, tmp_path / "c2.ganc")
    assert path.read_bytes() == (tmp_path / "c2.ganc").read_bytes()
    roll = tiny_train_set.rolls[:1]
    assert np.isclose(d_score(back.gan, roll)[0], d_score(ckpt.gan, roll)[0], atol=1e-4)


@pytest.mark.parametrize("inf_from, carried", [(25, 20), (5, None)])
def test_loss_divergence_carries_the_last_checkpoint(tiny_train_set, monkeypatch, inf_from, carried):
    real_loss = nn.bce_logits_loss
    calls = []

    def loss(logit, target):
        # two calls an iteration: the discriminator's step, then the generator's
        calls.append(None)
        value, grad = real_loss(logit, target)
        if (len(calls) + 1) // 2 >= inf_from:
            value = np.full_like(value, np.inf)
        return value, grad

    monkeypatch.setattr(nn, "bce_logits_loss", loss)
    sunk = []
    with pytest.raises(DivergenceError, match=f"^divergence: non-finite loss at iteration {inf_from}$") as excinfo:
        train(tiny_train_set, train_config(iterations=40, every=10), checkpoint_sink=sunk.append)
    last = excinfo.value.last_checkpoint
    assert [c.iteration for c in sunk] == ([] if carried is None else list(range(10, carried + 1, 10)))
    assert (last and last.iteration) == carried


def test_weights_that_overflow_after_the_loss_never_reach_the_sink(tiny_train_set):
    # at this lr the first generator update overflows float32 after both
    # losses were taken (from about 3e18 on, the gradient overflows first)
    config = TrainConfig(iterations=20, batch_size=8, latent_dim=4, lr=1e15, seed=1, checkpoint_every=1)
    sunk = []
    with pytest.raises(DivergenceError, match="^divergence: non-finite weights at iteration 1$") as excinfo:
        train(tiny_train_set, config, checkpoint_sink=sunk.append)
    assert sunk == [] and excinfo.value.last_checkpoint is None


@pytest.mark.parametrize("inf_at, carried", [(30, 20), (10, None)])
def test_non_finite_weights_at_a_checkpoint_carry_the_last_one(tiny_train_set, monkeypatch, inf_at, carried):
    real_step = nn.adam_step
    calls = []

    def step(params, grads, state, scratch):
        # two calls an iteration: the discriminator's update, then the generator's
        calls.append(None)
        real_step(params, grads, state, scratch)
        if len(calls) == 2 * inf_at:
            params[0] = np.inf

    monkeypatch.setattr(nn, "adam_step", step)
    sunk = []
    with pytest.raises(DivergenceError, match=f"^divergence: non-finite weights at iteration {inf_at}$") as excinfo:
        train(tiny_train_set, train_config(iterations=40, every=10), checkpoint_sink=sunk.append)
    last = excinfo.value.last_checkpoint
    assert [c.iteration for c in sunk] == ([] if carried is None else list(range(10, carried + 1, 10)))
    assert (last and last.iteration) == carried
    assert all(np.isfinite(c.gan.g_params).all() for c in sunk)


def make_saved_checkpoint(tmp_path):
    gan = small_gan()
    path = tmp_path / "x.ganc"
    save_checkpoint(Checkpoint(10, gan), path)
    return path


def test_checkpoint_truncated(tmp_path):
    path = make_saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes()[:-9])
    with pytest.raises(FormatError, match="truncated checkpoint"):
        load_checkpoint(path)


def test_checkpoint_bad_magic(tmp_path):
    path = make_saved_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:4] = b"NOPE"
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = make_saved_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[4] = 9
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_checkpoint_architecture_mismatch(tmp_path):
    path = make_saved_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    # tensor count lives right after the descriptor
    desc_len = int.from_bytes(blob[16:20], "little")
    count_off = 20 + desc_len
    blob[count_off:count_off + 4] = (3).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match="architecture mismatch"):
        load_checkpoint(path)


def rewrite_descriptor(path, edit):
    """Replace the JSON descriptor of the checkpoint at ``path`` by
    ``edit(descriptor)``, keeping the tensors."""
    blob = path.read_bytes()
    end = 20 + int.from_bytes(blob[16:20], "little")
    desc = json.dumps(edit(json.loads(blob[20:end]))).encode()
    path.write_bytes(blob[:16] + len(desc).to_bytes(4, "little") + desc + blob[end:])


@pytest.mark.parametrize("latent_dim", [True, 0, "16"])
def test_checkpoint_latent_dim_must_be_a_positive_int(tmp_path, latent_dim):
    # True == 1 in Python, so the file holds a latent_dim 1 model to compare with
    path = tmp_path / "x.ganc"
    save_checkpoint(Checkpoint(10, build_gan(SHAPE, latent_dim=1, seed=0)), path)
    rewrite_descriptor(path, lambda desc: {**desc, "latent_dim": latent_dim, "trunk": [latent_dim, 128]})
    with pytest.raises(FormatError, match="architecture mismatch"):
        load_checkpoint(path)


def test_checkpoint_trailing_data(tmp_path):
    path = make_saved_checkpoint(tmp_path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(FormatError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("nan_bits", [0x7FC00000, 0x7FA00000], ids=["quiet", "signalling"])
@pytest.mark.parametrize("tensor", ["first", "last"])
def test_checkpoint_with_non_finite_weights(tmp_path, nan_bits, tensor):
    # the first tensor is the trunk's weights, the last the discriminator's output bias
    path = make_saved_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    at = len(blob) - 4 if tensor == "last" else 20 + int.from_bytes(blob[16:20], "little") + 4 + 12
    blob[at:at + 4] = nan_bits.to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError, match=f"^non-finite weights in checkpoint {path}$"):
        load_checkpoint(path)


def test_checkpoint_structure_is_checked_before_its_weights(tmp_path):
    path = make_saved_checkpoint(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-4:] = (0x7F800000).to_bytes(4, "little")  # +inf
    path.write_bytes(bytes(blob) + b"\x00")
    with pytest.raises(FormatError, match="^trailing data"):
        load_checkpoint(path)


# --- oracle models ---------------------------------------------------------


@pytest.fixture(scope="module")
def oracle_train_set():
    return synth_generate(3, 30, SHAPE)


def test_oracle_generator_memorizes(oracle_train_set):
    oracle = OracleGenerator(1.0, 0.0, oracle_train_set, synth_sampler(SHAPE))
    for seed in range(25):
        roll = oracle_generate(oracle, seed)
        assert any(np.array_equal(roll, r) for r in oracle_train_set.rolls)


def test_oracle_generator_population_independent(oracle_train_set):
    other_train = synth_generate(99, 30, SHAPE)
    a = OracleGenerator(0.0, 0.0, oracle_train_set, synth_sampler(SHAPE))
    b = OracleGenerator(0.0, 0.0, other_train, synth_sampler(SHAPE))
    for seed in range(10):
        assert np.array_equal(oracle_generate(a, seed), oracle_generate(b, seed))


def test_oracle_generator_flip_noise(oracle_train_set):
    # single-roll training set pins down the source, so the Hamming distance
    # to it should average cells/2 within 5 percent over 1000 draws
    source = Dataset(SHAPE, oracle_train_set.rolls[:1], [0])
    oracle = OracleGenerator(1.0, 0.5, source, synth_sampler(SHAPE))
    cells = SHAPE.cells
    distances = [
        int(np.sum(oracle_generate(oracle, seed) != source.rolls[0]))
        for seed in range(1000)
    ]
    assert abs(np.mean(distances) - cells / 2) <= 0.05 * cells


def test_oracle_generator_validation(oracle_train_set):
    with pytest.raises(ConfigError):
        OracleGenerator(1.5, 0.0, oracle_train_set, synth_sampler(SHAPE))
    with pytest.raises(ConfigError):
        OracleGenerator(0.5, -0.1, oracle_train_set, synth_sampler(SHAPE))


def test_oracle_discriminator_margin():
    oracle = OracleDiscriminator(1.0, 0.0, frozenset({1, 2}))
    assert oracle_d_score(oracle, 1, 0) == 1.0
    assert oracle_d_score(oracle, 3, 0) == 0.0


def test_oracle_discriminator_no_margin():
    oracle = OracleDiscriminator(0.0, 1.0, frozenset({1}))
    a = oracle_d_score(oracle, 1, seed=5)
    b = oracle_d_score(oracle, 2, seed=5)
    assert a == b  # same noise stream, no membership signal


def _per_record_seeds() -> list:
    """Stash seeds, which reach past 2**32, and ``(seed, id)`` pairs with a
    seed past 2**64, as ``attack wb --seed`` can pass."""
    seeds = stash_seeds(60, 29).tolist()
    assert max(seeds) >= 2**32
    return seeds + [(2**64 + 9, rid) for rid in range(30)] + [(5, rid) for rid in range(30)]


def test_oracle_forms_match_default_rng_references(oracle_train_set):
    seeds = _per_record_seeds()
    for tau in (0.0, 0.1, 1.0):
        oracle = OracleDiscriminator(1.0, tau, frozenset(range(0, 30, 2)))
        for i, seed in enumerate(seeds):
            rid = i % 30
            expected = reference.oracle_score_by_default_rng(oracle, rid, seed)
            assert oracle_d_score(oracle, rid, seed) == expected, (tau, seed)
    for p in (0.0, 0.5, 1.0):
        for sigma in (0.0, 0.3):
            oracle = OracleGenerator(p, sigma, oracle_train_set, synth_sampler(SHAPE))
            for seed in seeds:
                roll = oracle_generate(oracle, seed)
                expected = reference.oracle_draw_by_default_rng(oracle, seed)
                assert roll.dtype == np.uint8 and np.array_equal(roll, expected), (p, sigma, seed)
    sample = synth_sampler(SHAPE)
    for seed in seeds:
        assert np.array_equal(sample(seed), reference.population_sample_by_default_rng(SHAPE, seed)), seed


def test_per_record_oracles_build_no_default_rng(monkeypatch, oracle_train_set):
    """The per-record paths build their Generators without numpy's slower
    ``default_rng``; a later edit that brings it back fails here."""
    sample = synth_sampler(SHAPE)
    memorizing = OracleGenerator(1.0, 0.3, oracle_train_set, sample)
    population = OracleGenerator(0.0, 0.0, oracle_train_set, sample)
    disc = OracleDiscriminator(1.0, 0.1, frozenset({1}))

    def refuse(*_args, **_kwargs):
        raise AssertionError("a per-record path called np.random.default_rng")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    oracle_d_score(disc, 1, (5, 1))
    oracle_generate(memorizing, 7)
    oracle_generate(population, 7)
    sample(11)
