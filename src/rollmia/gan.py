"""Multi-track GAN: one generator network maps a latent row to the logits of
every cell of a roll, track-major, and one discriminator scores flattened
rolls.  Training alternates discriminator and generator updates with
logistic loss (non-saturating for the generator), checkpoints on a fixed
cadence, and is a pure function of its config seed.

Scoring and sampling act on whole sets: ``d_score`` maps a
(k, tracks, bars, steps, pitches) stack to k logits and ``g_sample`` maps k
latent rows to a (k, ...) uint8 stack.  Both run the network over blocks of
NET_BLOCK rows, so one MODEL_DTYPE block of flattened rolls or logits
exists at a time, however large the set; a single roll is passed as
``roll[None]``.

The model is its two contiguous parameter vectors of MODEL_DTYPE, float32,
the precision a checkpoint stores, so a loaded checkpoint is bit for bit
the model that was saved.  They are laid out as ``_architecture`` states:
``g_params`` holds the generator and ``d_params`` the discriminator, each
one two-layer network, relu then linear, laid out layer by layer as its
weights then bias.
Building, snapshotting and loading a model all make the two vectors and cut
every layer from them as views, and training cuts its gradient vector the
same way.  A step computes only what it consumes: the discriminator step has
no input gradient, and the generator step takes no discriminator parameter
gradients and no generator input gradient.  Each step's Adam update consumes
its gradients before the other step writes, so one gradient vector and one
scratch vector serve both networks.  A checkpoint's model is a snapshot over
copies of the vectors, so training on does not move it.

Training runs in MODEL_DTYPE throughout.  Its working set is therefore both
parameter vectors, their Adam moments, that gradient and scratch vector,
and one (2 * batch_size, cells) batch buffer that every discriminator step
refills, all of MODEL_DTYPE; the training rolls stay uint8 and are never
copied whole, so it does not grow with the training set.

Also hosts the oracle models used to validate attack power: a generator with
a memorization dial and a discriminator with a controllable member margin.
They score or draw one record at a time, on the Generator that
``default_rng(seed)`` gives, built by ``streams.seeded_generator``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import nn
from .config import check_at_least_one
from .errors import ConfigError, DivergenceError, FormatError
from .pianoroll import Dataset, PianorollShape, atomic_open
from .streams import seeded_generator

CHECKPOINT_MAGIC = b"GANC"
CHECKPOINT_VERSION = 1

GEN_WIDTH = 128
DISC_WIDTH = 128

# the one precision of the model: its parameters, training and scoring
MODEL_DTYPE = np.float32

# rows per block of a scoring or sampling pass, which bounds its MODEL_DTYPE copies
NET_BLOCK = 256


def _architecture(shape: PianorollShape, latent_dim: int) -> dict:
    """The model's architecture, which is also its checkpoint descriptor:
    the layer widths of each network, input first."""
    return {
        "latent_dim": latent_dim,
        "shape": asdict(shape),
        "generator": [latent_dim, GEN_WIDTH, shape.cells],
        "discriminator": [shape.cells, DISC_WIDTH, 1],
    }


# the networks of g_params, then of d_params, and the activation of each
# layer of either one, beside their widths above
_NETWORKS = ("generator", "discriminator")
_ACTIVATIONS = ("relu", "linear")


def _tensor_shapes(widths: list[int]) -> list[tuple[int, ...]]:
    """The shape of each layer's weights, then bias, in vector order."""
    return [s for i, o in zip(widths, widths[1:]) for s in ((o, i), (o,))]


def _cut(flat: np.ndarray, widths: list[int]) -> nn.Mlp:
    """The network of these layer widths over views tiling ``flat`` in
    vector order; a vector of another length raises ValueError."""
    shapes = _tensor_shapes(widths)
    ends = np.cumsum([math.prod(s) for s in shapes])
    if flat.shape != (ends[-1],):
        raise ValueError(f"parameter vector of shape {flat.shape}; the architecture has {ends[-1]} values")
    tensors = iter(part.reshape(s) for part, s in zip(np.split(flat, ends[:-1]), shapes))
    # each layer takes the next two views: its weights, then its bias
    return nn.Mlp([nn.DenseLayer(next(tensors), next(tensors), a) for a in _ACTIVATIONS])


@dataclass(eq=False)
class ComposerGan:
    """A generator from latent rows to the logits of every cell, track-major,
    plus a discriminator over flattened rolls.  The model is its two
    parameter vectors, each holding one network cut from it as views; a
    vector whose length is not the architecture's raises ValueError."""

    latent_dim: int
    shape: PianorollShape
    g_params: np.ndarray = field(repr=False)
    d_params: np.ndarray = field(repr=False)
    generator: nn.Mlp = field(init=False, repr=False)
    discriminator: nn.Mlp = field(init=False, repr=False)

    def __post_init__(self):
        arch = _architecture(self.shape, self.latent_dim)
        self.generator = _cut(self.g_params, arch["generator"])
        self.discriminator = _cut(self.d_params, arch["discriminator"])

    def snapshot(self) -> "ComposerGan":
        """A copy over new parameter vectors, independent of this model."""
        return ComposerGan(self.latent_dim, self.shape, self.g_params.copy(), self.d_params.copy())


def build_gan(shape: PianorollShape, latent_dim: int, seed) -> ComposerGan:
    """Seeded construction; Glorot init order is generator, then
    discriminator, each layer by layer, so identical seeds give identical
    weights.  The float64 draws are rounded into MODEL_DTYPE vectors."""
    if latent_dim < 1:
        raise ConfigError("latent_dim must be >= 1")
    rng = np.random.default_rng(seed)
    arch = _architecture(shape, latent_dim)
    g_params, d_params = (
        np.concatenate([p.ravel() for p in nn.mlp_params(nn.glorot_init(arch[net], _ACTIVATIONS, rng))],
                       dtype=MODEL_DTYPE)
        for net in _NETWORKS
    )
    return ComposerGan(latent_dim, shape, g_params, d_params)


def g_sample(gan: ComposerGan, z: np.ndarray) -> np.ndarray:
    """Deterministic samples for a (k, latent_dim) batch of latent rows: a
    (k, tracks, bars, steps, pitches) uint8 stack whose cells are 1 where the
    generator's logit is strictly positive, computed in blocks of NET_BLOCK
    rows."""
    z = np.asarray(z, dtype=MODEL_DTYPE)
    if z.ndim != 2 or z.shape[1] != gan.latent_dim:
        raise ConfigError(f"latent rows must have shape (k, {gan.latent_dim})")
    out = np.empty((len(z), gan.shape.cells), dtype=np.uint8)
    for start in range(0, len(z), NET_BLOCK):
        logits, _ = nn.forward(gan.generator, z[start : start + NET_BLOCK])
        np.greater(logits, 0.0, out=out[start : start + NET_BLOCK])
    return out.reshape(len(z), *gan.shape.dims())


def d_score(gan: ComposerGan, rolls: np.ndarray) -> np.ndarray:
    """Raw discriminator logits of a (k, tracks, bars, steps, pitches) stack
    as a (k,) float64 vector, the MODEL_DTYPE logits widened exactly; larger
    means more training-set-like.  Rolls are flattened and scored in blocks
    of NET_BLOCK, each cast into one MODEL_DTYPE block buffer reused for the
    whole stack."""
    rolls = np.asarray(rolls)
    if rolls.shape[1:] != gan.shape.dims():
        raise ConfigError("rolls shape does not match the model")
    flat = rolls.reshape(len(rolls), gan.shape.cells)
    out = np.empty(len(rolls))
    buffer = np.empty((min(NET_BLOCK, len(rolls)), gan.shape.cells), dtype=MODEL_DTYPE)
    for start in range(0, len(rolls), NET_BLOCK):
        block = flat[start : start + NET_BLOCK]
        x = buffer[: len(block)]
        np.copyto(x, block)
        logits, _ = nn.forward(gan.discriminator, x)
        out[start : start + NET_BLOCK] = logits[:, 0]
    return out


@dataclass(frozen=True)
class TrainConfig:
    iterations: int
    batch_size: int
    latent_dim: int
    lr: float
    seed: int
    checkpoint_every: int
    d_steps_per_g_step: int = 1

    def __post_init__(self):
        object.__setattr__(self, "lr", float(self.lr))  # so an integer lr echoes as a float
        check_at_least_one(self, "iterations", "batch_size", "latent_dim", "checkpoint_every",
                           "d_steps_per_g_step")
        if self.lr <= 0.0:
            raise ConfigError("lr must be positive")
        if self.iterations % self.checkpoint_every != 0:
            raise ConfigError("checkpoint_every must divide iterations")


def check_batch_size(config: TrainConfig, records: int) -> None:
    """Refuse a training set of ``records`` rolls smaller than one batch of
    ``config``, before anything is trained or written for it."""
    if records < config.batch_size:
        raise ConfigError(f"train batch_size {config.batch_size} exceeds the {records} training records")


@dataclass
class Checkpoint:
    iteration: int
    gan: ComposerGan


def _disc_step(gan: ComposerGan, x: np.ndarray, targets: np.ndarray, grads: ComposerGan) -> float:
    """Discriminator loss on ``x``, real rows (target 1) stacked over as many
    fake rows (target 0), against the ``(len(x), 1)`` column ``targets``; its
    parameter gradients, each row's scaled by 1/batch_size, are written into
    ``grads.discriminator``."""
    logits, cache = nn.forward(gan.discriminator, x)
    loss, dlogits = nn.bce_logits_loss(logits, targets)
    nn.backward(
        gan.discriminator, cache, dlogits * (1.0 / (len(x) // 2)),
        out=nn.mlp_params(grads.discriminator), input_grad=False,
    )
    return float(loss.sum())


def _gen_step(gan: ComposerGan, z: np.ndarray, grads: ComposerGan) -> float:
    """Non-saturating generator loss through the sigmoid of the generator's
    logits; its parameter gradients, each row's scaled by 1/len(z), are
    written into ``grads.generator``.

    The discriminator sees the continuous sigmoid roll here so gradients can
    flow back into the generator; its own parameters are left untouched.
    """
    logits, g_cache = nn.forward(gan.generator, z)
    cont = nn.sigmoid(logits)
    d_out, d_cache = nn.forward(gan.discriminator, cont)
    loss, dlogit = nn.bce_logits_loss(d_out, 1.0)
    _, dx = nn.backward(gan.discriminator, d_cache, dlogit * (1.0 / len(z)), param_grads=False)
    dlogits = dx * cont * (1.0 - cont)
    nn.backward(gan.generator, g_cache, dlogits, out=nn.mlp_params(grads.generator), input_grad=False)
    return float(loss.sum())


def train(
    train_set: Dataset,
    config: TrainConfig,
    checkpoint_sink: Callable[[Checkpoint], None] | None = None,
) -> Checkpoint:
    """Alternating D/G training with a checkpoint every ``checkpoint_every``
    iterations; returns the final checkpoint.  Fully determined by
    config.seed, for a fixed BLAS build and thread count.

    Each step is one batched pass: the discriminator trains on real rolls
    (target 1) stacked over binarized generator samples (target 0), and the
    gradients are batch sums of per-row gradients scaled by 1/batch_size.
    Every step runs in MODEL_DTYPE; latent rows are drawn in float64 and
    cast.  The working set is the parameter vectors, the Adam moments, one
    gradient and one scratch vector, and one (2 * batch_size, cells) buffer,
    all of MODEL_DTYPE, into which each discriminator step casts its
    gathered uint8 real rows and writes its fakes; the training rolls
    themselves stay uint8.
    Only the latest checkpoint is kept in memory; the sink sees each one.
    A non-finite gradient or loss, or non-finite weights at a checkpoint,
    raises DivergenceError naming the iteration and carrying the last good
    checkpoint (None before the first), so no sink sees such a model.
    """
    check_batch_size(config, len(train_set))
    init_ss, loop_ss = np.random.SeedSequence(config.seed).spawn(2)
    gan = build_gan(train_set.shape, config.latent_dim, init_ss)
    rng = np.random.default_rng(loop_ss)

    n, batch = len(train_set), config.batch_size
    rolls = train_set.rolls.reshape(n, gan.shape.cells)
    x = np.empty((2 * batch, gan.shape.cells), dtype=MODEL_DTYPE)
    targets = np.concatenate([np.ones(batch, MODEL_DTYPE), np.zeros(batch, MODEL_DTYPE)])[:, None]
    # the two steps take turns, and each step's Adam update consumes its
    # gradients before the other step writes, so both networks share one
    # gradient vector, cut into the model's layer views, and one scratch vector
    size = max(gan.g_params.size, gan.d_params.size)
    grad, scratch = np.empty(size, MODEL_DTYPE), np.empty(size, MODEL_DTYPE)
    grads = ComposerGan(gan.latent_dim, gan.shape, grad[: gan.g_params.size], grad[: gan.d_params.size])
    g_state = nn.AdamState.for_params(gan.g_params, lr=config.lr)
    d_state = nn.AdamState.for_params(gan.d_params, lr=config.lr)
    last_good: Checkpoint | None = None

    for it in range(1, config.iterations + 1):
        # train checks the gradient, the losses and the checkpoint weights
        # itself, so numpy need not warn of the overflow that comes first;
        # the checkpoint sink runs outside, with numpy's own settings
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(config.d_steps_per_g_step):
                    real_idx = rng.choice(n, size=batch, replace=False)
                    z_batch = rng.standard_normal((batch, config.latent_dim))
                    np.copyto(x[:batch], rolls[real_idx])
                    np.greater(nn.forward(gan.generator, z_batch)[0], 0.0, out=x[batch:])
                    d_loss = _disc_step(gan, x, targets, grads)
                    nn.adam_step(gan.d_params, grads.d_params, d_state, scratch)

                z_batch = rng.standard_normal((batch, config.latent_dim))
                g_loss = _gen_step(gan, z_batch, grads)
                nn.adam_step(gan.g_params, grads.g_params, g_state, scratch)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} at iteration {it}", last_checkpoint=last_good) from exc

        if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
            raise DivergenceError(
                f"divergence: non-finite loss at iteration {it}", last_checkpoint=last_good
            )

        if it % config.checkpoint_every == 0:
            # an update can overflow after its loss was taken
            if not (np.isfinite(gan.g_params).all() and np.isfinite(gan.d_params).all()):
                raise DivergenceError(
                    f"divergence: non-finite weights at iteration {it}", last_checkpoint=last_good
                )
            last_good = Checkpoint(it, gan.snapshot())
            if checkpoint_sink is not None:
                checkpoint_sink(last_good)

    return last_good


# ---------------------------------------------------------------------------
# Oracle models: ground-truth leaky/non-leaky stand-ins for attack validation.
# ---------------------------------------------------------------------------


@dataclass
class OracleGenerator:
    """Generator with a memorization dial.

    With probability ``memorization_rate`` a draw returns a uniformly chosen
    training roll whose cells are independently flipped with probability
    ``flip_noise``; otherwise it returns a fresh population sample.
    """

    memorization_rate: float
    flip_noise: float
    training_rolls: Dataset
    population_sampler: Callable[[int], np.ndarray]

    def __post_init__(self):
        if not 0.0 <= self.memorization_rate <= 1.0:
            raise ConfigError("memorization_rate must be in [0, 1]")
        if not 0.0 <= self.flip_noise <= 1.0:
            raise ConfigError("flip_noise must be in [0, 1]")


def oracle_generate(oracle: OracleGenerator, seed) -> np.ndarray:
    rng = seeded_generator(seed)
    memorize = rng.random() < oracle.memorization_rate
    pop_seed = int(rng.integers(2**63))
    if not memorize:
        return oracle.population_sampler(pop_seed)
    roll = oracle.training_rolls.rolls[int(rng.integers(len(oracle.training_rolls)))]
    if oracle.flip_noise > 0.0:
        flips = rng.random(roll.shape) < oracle.flip_noise
        return np.where(flips, 1 - roll, roll).astype(np.uint8)
    return roll.copy()


@dataclass
class OracleDiscriminator:
    """Scores margin*1[member] + Gaussian(0, score_noise) per query."""

    margin: float
    score_noise: float
    member_ids: frozenset[int]

    def __post_init__(self):
        if not np.isfinite(self.margin) or not np.isfinite(self.score_noise):
            raise ConfigError("margin and score_noise must be finite")
        if self.score_noise < 0.0:
            raise ConfigError("score_noise must be >= 0")


def oracle_d_score(oracle: OracleDiscriminator, record_id: int, seed) -> float:
    rng = seeded_generator(seed)
    noise = rng.normal(0.0, oracle.score_noise) if oracle.score_noise > 0.0 else 0.0
    base = oracle.margin if record_id in oracle.member_ids else 0.0
    return float(base + noise)


# ---------------------------------------------------------------------------
# Checkpoint file format: magic "GANC", u32 version, u64 iteration, then a
# u32-length-prefixed UTF-8 JSON architecture descriptor, u32 tensor count,
# and per tensor u32 rank, u32 dims[], f32 little-endian data.  The reader
# unpacks each field at a running offset, so a field that runs past the end
# is a truncation, and views each tensor's data in the file's bytes.
# ---------------------------------------------------------------------------


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint file, replacing any file at ``path`` atomically."""
    gan = ckpt.gan
    arch = _architecture(gan.shape, gan.latent_dim)
    desc = json.dumps(arch, sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = [*nn.mlp_params(gan.generator), *nn.mlp_params(gan.discriminator)]
    with atomic_open(path) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", ckpt.iteration))
        fh.write(struct.pack("<I", len(desc)))
        fh.write(desc)
        fh.write(struct.pack("<I", len(tensors)))
        for tensor in tensors:
            fh.write(struct.pack("<I", tensor.ndim))
            fh.write(struct.pack(f"<{tensor.ndim}I", *tensor.shape))
            fh.write(tensor.astype("<f4").tobytes())


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint, rebuilding the model from its descriptor: the
    generator's tensors, then the discriminator's, become its two vectors.

    Distinct FormatErrors cover bad magic, unsupported version, truncation,
    trailing bytes, an architecture mismatch (a descriptor other than
    ``_architecture`` of its own shape and latent_dim, an int >= 1, or
    tensors other than that architecture's) and, once the file's structure
    is sound, weights that are not finite.
    """
    path = Path(path)
    blob = path.read_bytes()
    off = 0

    def take(fmt: str) -> tuple:
        """The little-endian fields ``fmt`` at the offset, which moves past them."""
        nonlocal off
        try:
            fields = struct.unpack_from("<" + fmt, blob, off)
        except struct.error:
            raise FormatError(f"truncated checkpoint {path}") from None
        off += struct.calcsize("<" + fmt)
        return fields

    if take("4s") != (CHECKPOINT_MAGIC,):
        raise FormatError(f"bad checkpoint magic in {path}")
    (version,) = take("I")
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} in {path}")
    iteration, desc_len = take("QI")
    try:
        desc = json.loads(take(f"{desc_len}s")[0].decode("utf-8"))
        shape = PianorollShape(**desc["shape"])
        latent_dim = desc["latent_dim"]
    except (ValueError, KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"bad checkpoint descriptor in {path}: {exc}") from exc
    ints = all(type(n) is int for n in [latent_dim, *asdict(shape).values()]) and latent_dim >= 1
    arch = _architecture(shape, latent_dim) if ints else None
    if desc != arch:
        raise FormatError(f"architecture mismatch: descriptor in {path} is not the model's architecture")

    networks = [_tensor_shapes(arch[net]) for net in _NETWORKS]
    expected, (count,) = sum(map(len, networks)), take("I")
    if count != expected:
        raise FormatError(f"architecture mismatch: architecture has {expected} tensors, file has {count}")
    tensors = []  # float32 views, one list per network
    for shapes in networks:
        tensors.append([])
        for dims in shapes:
            (rank,) = take("I")
            if take(f"{rank}I") != dims:
                raise FormatError("architecture mismatch: tensor dims disagree with descriptor")
            size = math.prod(dims)
            take(f"{4 * size}x")
            tensors[-1].append(np.frombuffer(blob, dtype="<f4", count=size, offset=off - 4 * size))
    if off != len(blob):
        raise FormatError(f"trailing data in checkpoint {path}")
    if not all(np.isfinite(t).all() for network in tensors for t in network):
        raise FormatError(f"non-finite weights in checkpoint {path}")
    # each network's float32 tensors, joined unchanged into its own vector
    vectors = [np.concatenate(network, dtype=MODEL_DTYPE) for network in tensors]
    return Checkpoint(iteration, ComposerGan(latent_dim, shape, *vectors))
