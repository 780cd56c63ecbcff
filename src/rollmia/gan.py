"""Multi-track GAN with a shared latent trunk and per-track generator heads.

One discriminator scores flattened rolls.  Training alternates discriminator
and generator updates with logistic loss (non-saturating for the generator),
checkpoints on a fixed cadence, and is a pure function of its config seed.

Scoring and sampling act on whole sets: ``d_score`` maps a
(k, tracks, bars, steps, pitches) stack to k logits and ``g_sample`` maps k
latent rows to a (k, ...) uint8 stack.  Both run the network over blocks of
NET_BLOCK rows, so one float64 block of flattened rolls or logits exists at
a time, however large the set; a single roll is passed as ``roll[None]``.

Each network family lives in one contiguous float64 vector: ``g_params``
holds the trunk then the heads in track order, ``d_params`` the
discriminator, each in ``nn.mlp_params`` order, and every layer's weights
and bias are views of it (``nn.bind_params``).  Training cuts one gradient
vector into the same views for each family in turn, and a step computes
only what it consumes: the discriminator step has no input gradient, and the
generator step takes no discriminator parameter gradients and no trunk input
gradient.  Each step's Adam update consumes its gradients before the other
step writes, so that vector and one scratch vector serve both families.  A
checkpoint's model is a snapshot over its own vectors, so training on does
not move it.

Also hosts the oracle models used to validate attack power: a generator with
a memorization dial and a discriminator with a controllable member margin.
"""

from __future__ import annotations

import json
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from . import nn
from .errors import ConfigError, DivergenceError, FormatError
from .pianoroll import Dataset, PianorollShape, atomic_open, check_config_block, flatten

CHECKPOINT_MAGIC = b"GANC"
CHECKPOINT_VERSION = 1

TRUNK_WIDTH = 128
DISC_WIDTH = 128

# rows per block of a scoring or sampling pass, which bounds its float64 copies
NET_BLOCK = 256


@dataclass
class ComposerGan:
    """Shared latent -> trunk feature -> one logit head per track, plus a
    discriminator over flattened rolls."""

    latent_dim: int
    shape: PianorollShape
    trunk: nn.Mlp
    heads: list[nn.Mlp]
    discriminator: nn.Mlp
    g_params: np.ndarray = field(init=False, repr=False, compare=False)
    d_params: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.heads) != self.shape.tracks:
            raise ConfigError("need one head per track")
        if self.trunk.in_dim != self.latent_dim:
            raise ConfigError("trunk input must match latent_dim")
        for head in self.heads:
            if head.in_dim != self.trunk.out_dim:
                raise ConfigError("head input must match trunk output")
            if head.out_dim != self.shape.cells_per_track:
                raise ConfigError("head output must match cells per track")
        if self.discriminator.in_dim != self.shape.cells:
            raise ConfigError("discriminator input must match cell count")
        if self.discriminator.out_dim != 1:
            raise ConfigError("discriminator must output a single logit")
        self.g_params = nn.bind_params(self.generator_mlps())
        self.d_params = nn.bind_params([self.discriminator])

    def generator_mlps(self) -> list[nn.Mlp]:
        return [self.trunk, *self.heads]

    def all_params(self) -> list[np.ndarray]:
        """Every parameter tensor: generator, then discriminator."""
        return [p for mlp in self.generator_mlps() + [self.discriminator] for p in nn.mlp_params(mlp)]

    def snapshot(self) -> "ComposerGan":
        """A copy over new parameter vectors, independent of this model."""

        def layers(mlp: nn.Mlp) -> nn.Mlp:
            return nn.Mlp([nn.DenseLayer(x.weights, x.bias, x.activation) for x in mlp.layers])

        return ComposerGan(
            self.latent_dim, self.shape, layers(self.trunk),
            [layers(head) for head in self.heads], layers(self.discriminator),
        )


def build_gan(shape: PianorollShape, latent_dim: int, seed) -> ComposerGan:
    """Seeded construction; init order is trunk, heads in track order, then
    discriminator, so identical seeds give identical weights."""
    if latent_dim < 1:
        raise ConfigError("latent_dim must be >= 1")
    rng = np.random.default_rng(seed)
    trunk = nn.glorot_init([latent_dim, TRUNK_WIDTH], ["relu"], rng)
    heads = [
        nn.glorot_init([TRUNK_WIDTH, shape.cells_per_track], ["linear"], rng)
        for _ in range(shape.tracks)
    ]
    disc = nn.glorot_init([shape.cells, DISC_WIDTH, 1], ["relu", "linear"], rng)
    return ComposerGan(latent_dim, shape, trunk, heads, disc)


def _generator_logits(gan: ComposerGan, z: np.ndarray) -> tuple[np.ndarray, list]:
    """Per-track logits concatenated track-major, one row per latent row of
    ``z``, plus caches for backward."""
    h, trunk_cache = nn.forward(gan.trunk, z)
    outs, head_caches = zip(*(nn.forward(head, h) for head in gan.heads))
    return np.concatenate(outs, axis=1), [trunk_cache, head_caches]


def g_sample(gan: ComposerGan, z: np.ndarray) -> np.ndarray:
    """Deterministic samples for a (k, latent_dim) batch of latent rows: a
    (k, tracks, bars, steps, pitches) uint8 stack whose cells are 1 where the
    head logit is strictly positive, computed in blocks of NET_BLOCK rows."""
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != gan.latent_dim:
        raise ConfigError(f"latent rows must have shape (k, {gan.latent_dim})")
    out = np.empty((len(z), gan.shape.cells), dtype=np.uint8)
    for start in range(0, len(z), NET_BLOCK):
        logits, _ = _generator_logits(gan, z[start : start + NET_BLOCK])
        np.greater(logits, 0.0, out=out[start : start + NET_BLOCK])
    return out.reshape(len(z), *gan.shape.dims())


def d_score(gan: ComposerGan, rolls: np.ndarray) -> np.ndarray:
    """Raw discriminator logits of a (k, tracks, bars, steps, pitches) stack
    as a (k,) float64 vector; larger means more training-set-like.  Rolls are
    flattened and scored in blocks of NET_BLOCK, each cast into one float64
    block buffer reused for the whole stack."""
    rolls = np.asarray(rolls)
    if rolls.shape[1:] != gan.shape.dims():
        raise ConfigError("rolls shape does not match the model")
    flat = rolls.reshape(len(rolls), gan.shape.cells)
    out = np.empty(len(rolls))
    buffer = np.empty((min(NET_BLOCK, len(rolls)), gan.shape.cells))
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
        for name in ("iterations", "batch_size", "latent_dim", "checkpoint_every",
                     "d_steps_per_g_step"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.lr <= 0.0:
            raise ConfigError("lr must be positive")
        if self.iterations % self.checkpoint_every != 0:
            raise ConfigError("checkpoint_every must divide iterations")

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """Build from a config's "train" block.  An unknown or missing key, or
        a value that is not an integer (for lr, a real number), raises
        ConfigError; lr is then made a float."""
        kinds = {
            "iterations": int, "batch_size": int, "latent_dim": int, "lr": float,
            "seed": int, "checkpoint_every": int, "d_steps_per_g_step": int,
        }
        # every key is required but the last, d_steps_per_g_step
        check_config_block(data, "train", kinds, required=tuple(kinds)[:-1])
        return cls(**{**data, "lr": float(data["lr"])})


@dataclass
class Checkpoint:
    iteration: int
    gan: ComposerGan


def _disc_step(gan: ComposerGan, real: np.ndarray, fake: np.ndarray, grads: list) -> float:
    """Discriminator loss on real rows (target 1) stacked over fake rows
    (target 0); its parameter gradients, each row's scaled by 1/len(real),
    are written into ``grads``."""
    x = np.concatenate([real, fake])
    targets = np.concatenate([np.ones(len(real)), np.zeros(len(fake))])[:, None]
    logits, cache = nn.forward(gan.discriminator, x)
    loss, dlogits = nn.bce_logits_loss(logits, targets)
    nn.backward(gan.discriminator, cache, dlogits * (1.0 / len(real)), out=grads, input_grad=False)
    return float(loss.sum())


def _gen_step(gan: ComposerGan, z: np.ndarray, grads: list[list]) -> float:
    """Non-saturating generator loss through sigmoid head outputs; the
    gradients, each row's scaled by 1/len(z), are written into ``grads``
    (the trunk's views, then each head's).

    The discriminator sees the continuous sigmoid roll here so gradients can
    flow back into the generator; its own parameters are left untouched.
    """
    logits, (trunk_cache, head_caches) = _generator_logits(gan, z)
    cont = nn.sigmoid(logits)
    d_out, d_cache = nn.forward(gan.discriminator, cont)
    loss, dlogit = nn.bce_logits_loss(d_out, 1.0)
    _, dx = nn.backward(gan.discriminator, d_cache, dlogit * (1.0 / len(z)), param_grads=False)
    dlogits = dx * cont * (1.0 - cont)

    cpt = gan.shape.cells_per_track
    trunk_out_grad = np.zeros((len(z), gan.trunk.out_dim))
    for t, head in enumerate(gan.heads):
        _, dh = nn.backward(
            head, head_caches[t], dlogits[:, t * cpt : (t + 1) * cpt], out=grads[1 + t]
        )
        trunk_out_grad += dh
    nn.backward(gan.trunk, trunk_cache, trunk_out_grad, out=grads[0], input_grad=False)
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
    Only the latest checkpoint is kept in memory; the sink sees each one.
    A non-finite gradient or loss raises DivergenceError naming the
    iteration and carrying the last good checkpoint (None before the first).
    """
    if len(train_set) < config.batch_size:
        raise ConfigError("training set smaller than batch size")
    init_ss, loop_ss = np.random.SeedSequence(config.seed).spawn(2)
    gan = build_gan(train_set.shape, config.latent_dim, init_ss)
    rng = np.random.default_rng(loop_ss)

    X = flatten(train_set.rolls)
    n = len(train_set)
    # the two steps take turns, and each step's Adam update consumes its
    # gradients before the other step writes, so both families share one
    # gradient vector and one scratch vector
    size = max(gan.g_params.size, gan.d_params.size)
    grad, scratch = np.empty(size), np.empty(size)
    g_grad, d_grad = grad[: gan.g_params.size], grad[: gan.d_params.size]
    g_views = nn.param_views(gan.generator_mlps(), g_grad)
    (d_views,) = nn.param_views([gan.discriminator], d_grad)
    g_state = nn.AdamState.for_params(gan.g_params, lr=config.lr)
    d_state = nn.AdamState.for_params(gan.d_params, lr=config.lr)
    last_good: Checkpoint | None = None

    for it in range(1, config.iterations + 1):
        try:
            for _ in range(config.d_steps_per_g_step):
                real_idx = rng.choice(n, size=config.batch_size, replace=False)
                z_batch = rng.standard_normal((config.batch_size, config.latent_dim))
                fake = (_generator_logits(gan, z_batch)[0] > 0.0).astype(np.float64)
                d_loss = _disc_step(gan, X[real_idx], fake, d_views)
                nn.adam_step(gan.d_params, d_grad, d_state, scratch)

            z_batch = rng.standard_normal((config.batch_size, config.latent_dim))
            g_loss = _gen_step(gan, z_batch, g_views)
            nn.adam_step(gan.g_params, g_grad, g_state, scratch)
        except DivergenceError as exc:
            raise DivergenceError(f"{exc} at iteration {it}", last_checkpoint=last_good) from exc

        if not (np.isfinite(d_loss) and np.isfinite(g_loss)):
            raise DivergenceError(
                f"divergence: non-finite loss at iteration {it}", last_checkpoint=last_good
            )

        if it % config.checkpoint_every == 0:
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
    rng = np.random.default_rng(seed)
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
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, oracle.score_noise) if oracle.score_noise > 0.0 else 0.0
    base = oracle.margin if record_id in oracle.member_ids else 0.0
    return float(base + noise)


# ---------------------------------------------------------------------------
# Checkpoint file format: magic "GANC", u32 version, u64 iteration, then a
# u32-length-prefixed UTF-8 JSON architecture descriptor, u32 tensor count,
# and per tensor u32 rank, u32 dims[], f32 little-endian data.
# ---------------------------------------------------------------------------


def _descriptor(gan: ComposerGan) -> dict:
    return {
        "latent_dim": gan.latent_dim,
        "shape": asdict(gan.shape),
        "trunk": gan.trunk.dims(),
        "heads": [head.dims() for head in gan.heads],
        "discriminator": gan.discriminator.dims(),
    }


def _mlp_from_dims(dims: list[int], tensors: list[np.ndarray], family: str) -> nn.Mlp:
    """Rebuild an Mlp from a dims chain; activations follow the fixed family
    convention (hidden layers relu, trunk output relu, logit outputs linear)."""
    n_layers = len(dims) - 1
    layers = []
    for i in range(n_layers):
        weights = tensors[2 * i]
        bias = tensors[2 * i + 1]
        if weights.shape != (dims[i + 1], dims[i]) or bias.shape != (dims[i + 1],):
            raise FormatError("architecture mismatch: tensor dims disagree with descriptor")
        if family == "trunk":
            act = "relu"
        else:
            act = "relu" if i < n_layers - 1 else "linear"
        layers.append(nn.DenseLayer(weights, bias, act))
    return nn.Mlp(layers)


def save_checkpoint(ckpt: Checkpoint, path: str | Path) -> None:
    """Write a checkpoint file, replacing any file at ``path`` atomically."""
    desc = json.dumps(_descriptor(ckpt.gan), sort_keys=True, separators=(",", ":")).encode("utf-8")
    tensors = ckpt.gan.all_params()
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


class _Reader:
    def __init__(self, blob: bytes, path: Path):
        self.blob = blob
        self.off = 0
        self.path = path

    def take(self, count: int) -> bytes:
        if self.off + count > len(self.blob):
            raise FormatError(f"truncated checkpoint {self.path}")
        out = self.blob[self.off : self.off + count]
        self.off += count
        return out

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def f32(self, count: int) -> np.ndarray:
        """The next ``count`` little-endian float32 values, as a read-only
        view of the blob."""
        if self.off + 4 * count > len(self.blob):
            raise FormatError(f"truncated checkpoint {self.path}")
        out = np.frombuffer(self.blob, dtype="<f4", count=count, offset=self.off)
        self.off += 4 * count
        return out


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load a checkpoint, rebuilding the model from its descriptor.

    Distinct FormatErrors cover bad magic, unsupported version, truncation,
    trailing bytes, and descriptor/tensor architecture mismatches.
    """
    path = Path(path)
    r = _Reader(path.read_bytes(), path)
    if r.take(4) != CHECKPOINT_MAGIC:
        raise FormatError(f"bad checkpoint magic in {path}")
    version = r.u32()
    if version != CHECKPOINT_VERSION:
        raise FormatError(f"unsupported checkpoint version {version} in {path}")
    iteration = r.u64()
    desc_len = r.u32()
    try:
        desc = json.loads(r.take(desc_len).decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FormatError(f"bad checkpoint descriptor in {path}: {exc}") from exc
    try:
        shape = PianorollShape(**desc["shape"])
        latent_dim = int(desc["latent_dim"])
        trunk_dims = [int(d) for d in desc["trunk"]]
        head_dims = [[int(d) for d in h] for h in desc["heads"]]
        disc_dims = [int(d) for d in desc["discriminator"]]
    except (KeyError, TypeError, ConfigError) as exc:
        raise FormatError(f"bad checkpoint descriptor in {path}: {exc}") from exc

    expected_tensors = 2 * (
        (len(trunk_dims) - 1)
        + sum(len(h) - 1 for h in head_dims)
        + (len(disc_dims) - 1)
    )
    count = r.u32()
    if count != expected_tensors:
        raise FormatError(
            f"architecture mismatch: descriptor implies {expected_tensors} tensors, file has {count}"
        )
    tensors = []
    for _ in range(count):
        rank = r.u32()
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank))
        size = int(np.prod(dims, dtype=np.int64)) if rank else 1
        # float32 views of the file; the model converts each family once,
        # into its own float64 vector
        tensors.append(r.f32(size).reshape(dims))
    if r.off != len(r.blob):
        raise FormatError(f"trailing data in checkpoint {path}")

    pos = 0

    def take_mlp(dims: list[int], family: str) -> nn.Mlp:
        nonlocal pos
        n = 2 * (len(dims) - 1)
        mlp = _mlp_from_dims(dims, tensors[pos : pos + n], family)
        pos += n
        return mlp

    trunk = take_mlp(trunk_dims, "trunk")
    heads = [take_mlp(h, "head") for h in head_dims]
    disc = take_mlp(disc_dims, "disc")
    try:
        gan = ComposerGan(latent_dim, shape, trunk, heads, disc)
    except ConfigError as exc:
        raise FormatError(f"architecture mismatch: {exc}") from exc
    return Checkpoint(iteration, gan)
