"""Pianoroll data model: synthetic generation, splitting, and binary file I/O.

A pianoroll is a binary uint8 array indexed (track, bar, step, pitch).  A set
of rolls is one C-contiguous uint8 array of shape
(n, tracks, bars, steps_per_bar, pitches) plus an int64 array of n unique,
stable ids; generation, splitting and file I/O all act on the whole array.
Everything here is a pure function of its seed, so identical calls
reproduce identical bytes.

Synthesis draws from numpy's seeded streams as ``rollmia.streams`` sets
out: roll i of a dataset is the stream of ``default_rng`` on ``(seed, i)``.
``synth_generate`` replays those streams for blocks of rolls from their raw
words; ``synth_sampler`` draws one roll per seed through ``_synth_roll``,
which is also the reference the blocks are tested against, since a one-roll
block costs more than the per-roll draw.
"""

from __future__ import annotations

import json
import math
import os
import struct
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from functools import cache
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError, FormatError
from .streams import (
    bounded_draws,
    entropy_words,
    indexed_entropy,
    raw_words,
    seed_states,
    seeded_generator,
    state_generator,
)

DATASET_MAGIC = b"PRD1"
DATASET_VERSION = 1

MAX_CELLS = 2**24  # desk-scale bound on tracks*bars*steps*pitches


@dataclass(frozen=True)
class PianorollShape:
    """Dimensions of one multi-track pianoroll."""

    tracks: int
    bars: int
    steps_per_bar: int
    pitches: int
    base_midi_pitch: int = 24

    def __post_init__(self):
        for name in ("tracks", "bars", "steps_per_bar", "pitches"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.cells > MAX_CELLS:
            raise ConfigError(
                f"total cells {self.cells} exceeds desk-scale bound {MAX_CELLS}"
            )
        if not -(2**31) <= self.base_midi_pitch < 2**31:
            raise ConfigError(
                "base_midi_pitch must be in the int32 range of the dataset header, "
                f"got {self.base_midi_pitch}"
            )

    @property
    def cells(self) -> int:
        return self.tracks * self.bars * self.steps_per_bar * self.pitches

    @property
    def cells_per_track(self) -> int:
        return self.bars * self.steps_per_bar * self.pitches

    def dims(self) -> tuple[int, int, int, int]:
        return (self.tracks, self.bars, self.steps_per_bar, self.pitches)


@dataclass(eq=False)
class Dataset:
    """A set of same-shaped rolls with unique integer ids.

    ``rolls`` is C-contiguous uint8 of 0/1 with shape (n, *shape.dims()) and
    ``ids`` is int64 of shape (n,); any array-like of those shapes is
    accepted and converted once, for the whole set.
    """

    shape: PianorollShape
    rolls: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        try:
            rolls = np.asarray(self.rolls)
        except ValueError as exc:  # ragged list of rolls
            raise ConfigError("all rolls must share the dataset shape") from exc
        if rolls.size == 0:
            raise ConfigError("empty dataset")
        if rolls.shape[1:] != self.shape.dims():
            raise ConfigError("all rolls must share the dataset shape")
        # other dtypes are checked before the cast, which would wrap or truncate
        if rolls.dtype == np.uint8:
            binary = int(rolls.max()) <= 1
        else:
            binary = rolls.dtype == np.bool_ or bool(((rolls == 0) | (rolls == 1)).all())
        if not binary:
            raise ConfigError("pianoroll cells must be binary")
        self.rolls = np.ascontiguousarray(rolls, dtype=np.uint8)
        ids = np.asarray(self.ids)
        if ids.dtype.kind not in "iu" or not np.can_cast(ids.dtype, np.int64):
            raise ConfigError("dataset ids must be int64 integers")
        if ids.shape != (len(self.rolls),):
            raise ConfigError("ids/rolls length mismatch")
        self.ids = ids.astype(np.int64)
        if np.unique(self.ids).size != self.ids.size:
            raise ConfigError("dataset ids must be unique")

    def __len__(self) -> int:
        return len(self.rolls)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.shape == other.shape
            and np.array_equal(self.ids, other.ids)
            and np.array_equal(self.rolls, other.rolls)
        )


@dataclass(frozen=True)
class SplitSpec:
    """Train/test partition rule: train gets floor(train_fraction * n) rolls,
    the remainder goes to test."""

    train_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")

    def train_size(self, n: int) -> int:
        return math.floor(self.train_fraction * n)


# kinds of config values and their names in errors: ``int`` is an integer,
# ``float`` a real number, an integer included; a bool is neither
_CONFIG_KINDS = {
    int: (Integral, "an integer"),
    float: (Real, "a real number"),
    bool: (bool, "true or false"),
    str: (str, "a string"),
    dict: (dict, "an object"),
    list: (list, "a list"),
}


def check_config_block(data, block: str, kinds: dict, required: tuple = ()) -> None:
    """Raise ConfigError unless ``data``, the config block at key path
    ``block``, is an object whose keys all appear in ``kinds``, holding every
    key of ``required``, with each value of its kind (one of ``int``,
    ``float``, ``bool``, ``str``, ``dict``, ``list``), each real finite, each
    integer but a ``seed`` in the int64 range, and a ``seed`` not negative.
    Values are checked, not coerced; each error names the block and the
    key."""
    if not isinstance(data, dict):
        raise ConfigError(f"{block} must be an object, got {data!r}")
    for key in data:
        if key not in kinds:
            raise ConfigError(f"unknown {block} key {key!r}")
    for key in required:
        if key not in data:
            raise ConfigError(f"{block} is missing {key!r}")
    for key, value in data.items():
        kind, noun = _CONFIG_KINDS[kinds[key]]
        if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
            raise ConfigError(f"{block} {key} must be {noun}, got {value!r}")
        # json reads NaN, Infinity and integers past float range; the
        # comparison is exact for integers and false for NaN
        if kind is Real and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{block} {key} must be a finite real number, got {value!r}")
        if key == "seed" and value < 0:  # SeedSequence takes no negative entropy, but any size
            raise ConfigError(f"{block} seed must be a non-negative integer, got {value!r}")
        # json reads integers of any size, which numpy refuses only mid-run
        # as array sizes, and which a training loop counts to until killed
        if kind is Integral and key != "seed" and not -(2**63) <= value < 2**63:
            raise ConfigError(f"{block} {key} must be an integer in the int64 range, got {value!r}")


@contextmanager
def naming_block(block: str):
    """Prefix a ConfigError raised inside with the config block's key path."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{block} {exc}") from exc


def field_kind(hint) -> tuple[type, type]:
    """The type of a config field annotated ``hint``, ``X`` for ``X | None``
    (a field whose key may be left out), and the kind ``check_config_block``
    checks for it: a type with a ``parse`` classmethod, or ``Path``, takes a
    string, any other dataclass is a block (an object), ``tuple[X, ...]`` a
    list of ``X`` blocks, and any other type is its own kind."""
    args = [arg for arg in get_args(hint) if arg is not type(None)]
    t = args[0] if get_origin(hint) is UnionType and len(args) == 1 else hint
    if hasattr(t, "parse") or t is Path:
        return t, str
    return t, dict if is_dataclass(t) else list if get_origin(t) is tuple else t


@cache
def _field_table(cls) -> tuple[dict, dict, tuple]:
    """The config dataclass ``cls``'s field types and kinds, each keyed by
    field name, and its required keys, worked out once per class; every
    ``config_block`` call on ``cls`` shares them, so they are only read."""
    types, kinds = {}, {}
    for key, hint in get_type_hints(cls).items():
        types[key], kinds[key] = field_kind(hint)
    return types, kinds, tuple(f.name for f in fields(cls) if f.default is MISSING)


def config_block(cls, data, block: str):
    """Build the frozen dataclass ``cls`` from ``data``, the config block at
    key path ``block``, whose keys are the fields of ``cls``: a field without
    a default is required, one typed as a dataclass is the nested block
    ``<block>.<key>``, one typed ``tuple[X, ...]`` the list of ``X`` blocks
    ``<block>.<key>[i]`` (read by this function with that tuple type as
    ``cls``), and one that takes a string is built by its type's
    ``parse`` classmethod (``EpsilonHeuristic``) or by the type itself
    (``Path``).  The top-level block, ``config``, names its nested blocks by
    the bare key (``attacks.mc[0]``).  The kinds ``check_config_block``
    checks come from the field types, so each key is stated once, and the
    build runs under ``naming_block``."""
    if get_origin(cls) is tuple:  # a list of blocks
        return tuple(config_block(get_args(cls)[0], item, f"{block}[{i}]") for i, item in enumerate(data))
    types, kinds, required = _field_table(cls)
    check_config_block(data, block, kinds, required)
    prefix = "" if block == "config" else f"{block}."
    # a nested block names its own errors, so it is built outside naming_block
    values = {
        key: config_block(types[key], value, prefix + key) if kinds[key] in (dict, list) else value
        for key, value in data.items()
    }
    parse = {key: getattr(t, "parse", t) for key, t in types.items() if kinds[key] is str}
    with naming_block(block):
        return cls(**{key: parse[key](v) if key in parse else v for key, v in values.items()})


@dataclass(frozen=True)
class StyleParams:
    """Knobs for the synthetic generator.

    rhythm_period: steps between hits on the rhythm track.
    ornament_prob: per-cell chance of an extra on-bit (texture/entropy).
    transpose: semitone shift applied to tracks copied from track 0
        (wraps around the pitch axis).
    """

    rhythm_period: int = 4
    ornament_prob: float = 0.02
    transpose: int = 12

    def __post_init__(self):
        if self.rhythm_period < 1:
            raise ConfigError("rhythm_period must be >= 1")
        if not 0.0 <= self.ornament_prob <= 1.0:
            raise ConfigError("ornament_prob must be in [0, 1]")

    @classmethod
    def from_dict(cls, data: dict, block: str = "style") -> "StyleParams":
        """``config_block`` of the style block at key path ``block``."""
        return config_block(cls, data, block)


# ---------------------------------------------------------------------------
# Synthesis.  How a seed becomes draws, and how a block of rolls replays
# them from raw words, is told once, in ``rollmia.streams``.
# ---------------------------------------------------------------------------


def check_pitch_classes(shape: PianorollShape) -> None:
    """Refuse a shape whose pitch range cannot hold every pitch class, which
    a synthetic roll may draw."""
    if shape.pitches < 12:
        raise ConfigError(f"pitches must be >= 12 to hold every pitch class, got {shape.pitches}")


def _pick_table(shape: PianorollShape) -> np.ndarray:
    """(octave, pitch class) -> the lowest pitch index of that class at or
    above 12 * octave, for every octave a roll can draw.

    Class c's indices are r, r + 12, ... with r = (c - base_midi_pitch) mod
    12, so the pick is 12 * octave + r, which lies in range for every
    octave below pitches // 12 once pitches >= 12 (``check_pitch_classes``).
    """
    octaves = np.arange(max(1, shape.pitches // 12))
    return 12 * octaves[:, None] + (np.arange(12) - shape.base_midi_pitch) % 12


def _synth_roll(
    rng: np.random.Generator, shape: PianorollShape, style: StyleParams, picks: np.ndarray
) -> np.ndarray:
    """One roll; ``picks`` is ``_pick_table(shape)``."""
    tracks, bars, steps, pitches = shape.dims()
    total_steps = bars * steps
    cells = np.zeros(shape.dims(), dtype=np.uint8)

    root = int(rng.integers(12))
    # second chord a fourth or fifth above the root; indexing a pair by
    # integers(2) draws what choice() over the pair draws, at less cost
    shift = (5, 7)[rng.integers(2)]
    thirds = [(3, 4)[rng.integers(2)], (3, 4)[rng.integers(2)]]
    chords = [
        [root % 12, (root + thirds[0]) % 12, (root + 7) % 12],
        [(root + shift) % 12, (root + shift + thirds[1]) % 12, (root + shift + 7) % 12],
    ]
    octave = int(rng.integers(max(1, pitches // 12)))

    # track 0: chord tones held at every step, chord change at the halfway point
    chord_track = cells[0].reshape(total_steps, pitches)
    cut = max(total_steps // 2, 1)
    chord_track[:cut, picks[octave, chords[0]]] = 1
    chord_track[cut:, picks[octave, chords[1]]] = 1

    if tracks >= 2:
        # track 1: periodic rhythm on the lowest pitch of the root class
        phase = int(rng.integers(style.rhythm_period))
        cells[1].reshape(total_steps, pitches)[phase::style.rhythm_period, picks[0, root]] = 1

    for t in range(2, tracks):
        cells[t] = np.roll(cells[0], style.transpose, axis=-1)

    if style.ornament_prob > 0.0:
        cells |= rng.random(cells.shape) < style.ornament_prob

    return cells


# raw PCG64 words a synthesis block draws (128 KB, small enough that a run's
# peak memory does not rise); a block holds as many rolls as fit, at least one
SYNTH_BLOCK = 1 << 14


def _synth_rolls(states: np.ndarray, shape: PianorollShape, style: StyleParams) -> np.ndarray:
    """The rolls that ``_synth_roll`` draws with a PCG64 on each of the
    ``seed_states`` rows ``states``, written for blocks of rows at once from
    each row's raw words (the layout is in ``synth_generate``)."""
    tracks, bars, steps, pitches = shape.dims()
    total_steps = bars * steps
    picks = _pick_table(shape)
    # root, second chord, the two thirds, octave, rhythm phase; a bound of 1
    # draws nothing, and a bound above 2**32 draws whole words, so every row
    # is redrawn (its clipped bound only keeps the arithmetic in range)
    bounds = [12, 2, 2, 2, max(1, pitches // 12), style.rhythm_period if tracks >= 2 else 1]
    whole = max(bounds) > 2**32
    bounds = [min(b, 2**32) for b in bounds]
    drawn = [i for i, b in enumerate(bounds) if b > 1]
    drawn_bounds = np.array([bounds[i] for i in drawn], dtype=np.uint64)
    head = (len(drawn) + 1) // 2
    row_words = head + (shape.cells if style.ornament_prob > 0.0 else 0)

    rolls = np.zeros((len(states), *shape.dims()), dtype=np.uint8)
    block = max(1, SYNTH_BLOCK // row_words)
    words = np.empty((min(block, len(states)), row_words), dtype=np.uint64)
    for start in range(0, len(states), block):
        rows = states[start : start + block]
        n = len(rows)
        out, raw = rolls[start : start + n], raw_words(rows, words[:n])
        values = np.zeros((n, len(bounds)), dtype=np.int64)
        values[:, drawn], rejected = bounded_draws(raw[:, :head], drawn_bounds)
        root, shift, third0, third1, octave, phase = values.T

        # track 0: the two chords' pitch rows, each held over its half
        fifth = 5 + 2 * shift
        chords = np.stack([
            root, root + 3 + third0, root + 7,
            root + fifth, root + fifth + 3 + third1, root + fifth + 7,
        ], axis=1) % 12
        tones = np.zeros((n, 2, pitches), dtype=np.uint8)
        tones[np.arange(n)[:, None], [0, 0, 0, 1, 1, 1], picks[octave[:, None], chords]] = 1
        grid = out.reshape(n, tracks, total_steps, pitches)
        cut = max(total_steps // 2, 1)
        grid[:, 0, :cut] = tones[:, :1]
        grid[:, 0, cut:] = tones[:, 1:]
        if tracks >= 2:
            hit_row, hit_step = np.nonzero(np.arange(total_steps) % bounds[5] == phase[:, None])
            grid[hit_row, 1, hit_step, picks[0, root[hit_row]]] = 1
        if tracks > 2:
            out[:, 2:] = np.roll(out[:, 0], style.transpose, axis=-1)[:, None]
        if style.ornament_prob > 0.0:
            # (w >> 11) * 2**-53 < p exactly when w < ceil(p * 2**53) * 2**11
            flat = out.reshape(n, -1)
            flat |= raw[:, head:] <= np.uint64(math.ceil(style.ornament_prob * 2**53) * 2**11 - 1)

        for i in np.flatnonzero(rejected.any(axis=1) | whole):
            out[i] = _synth_roll(state_generator(rows[i]), shape, style, picks)
    return rolls


def synth_generate(
    seed: int,
    count: int,
    shape: PianorollShape,
    style: StyleParams | None = None,
) -> Dataset:
    """Generate ``count`` rolls with learnable tonal structure.

    Each roll draws a root pitch class, a two-chord progression on track 0 and
    a periodic rhythm on track 1; further tracks copy track 0 transposed.
    Roll i draws the stream of ``default_rng(SeedSequence((seed, i)))``, so
    it depends only on (seed, i, shape, style) and prefixes agree across
    different counts.

    The rolls are ``_synth_roll``'s, written in blocks of ``SYNTH_BLOCK``
    raw PCG64 words from the layout of numpy's draws: the bounded draws
    (root, second chord, two thirds, octave, phase; those of bound 1 draw
    nothing) take the uint32 halves of the first words in turn
    (``streams.bounded_draws``); each ornament cell then takes one whole
    word of those that follow, on when (w >> 11) * 2**-53 < ornament_prob.
    A row with a draw that numpy would reject (odds at most 4 in 2**32 a
    draw) is redrawn by its own Generator.
    """
    if count < 1:
        raise ConfigError("count must be >= 1")
    check_pitch_classes(shape)
    states = seed_states(indexed_entropy(entropy_words(seed), count))
    return Dataset(shape, _synth_rolls(states, shape, style or StyleParams()), np.arange(count))


def synth_sampler(shape: PianorollShape):
    """Seeded single-roll sampler over the synthetic population; used as the
    population source for oracle generators and one-off draws.  It calls
    ``_synth_roll`` per seed, which costs less than a one-roll block, on the
    Generator that ``default_rng(seed)`` gives (``streams.seeded_generator``)."""
    check_pitch_classes(shape)
    style = StyleParams()
    picks = _pick_table(shape)

    def sample(seed) -> np.ndarray:
        return _synth_roll(seeded_generator(seed), shape, style, picks)

    return sample


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Uniform random partition into (train, test); ids keep their provenance.

    Train size is floor(train_fraction * n), and a split that leaves a side
    empty is refused, naming the fraction and n; indices are selected by a
    seeded permutation and kept in ascending order on both sides.
    """
    n = len(dataset)
    train_size = spec.train_size(n)
    if not 0 < train_size < n:
        raise ConfigError(f"train_fraction {spec.train_fraction} leaves a side of the {n} records empty")
    rng = np.random.default_rng(spec.seed)
    perm = rng.permutation(n)

    def take(indices: np.ndarray) -> Dataset:
        return Dataset(dataset.shape, dataset.rolls[indices], dataset.ids[indices])

    return take(np.sort(perm[:train_size])), take(np.sort(perm[train_size:]))


# ---------------------------------------------------------------------------
# File format: magic "PRD1", u32 version, u32 count, u32 tracks, u32 bars,
# u32 steps_per_bar, u32 pitches, i32 base_midi_pitch (all little-endian),
# then per roll ceil(cells/8) bytes, bit-packed MSB-first in row-major
# (track, bar, step, pitch) order.  Sidecar <file>.meta.json holds ids/style.
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<4sIIIIIIi")


@contextmanager
def atomic_open(path: str | Path, mode: str = "wb"):
    """Open a temp file beside ``path`` for writing and move it over ``path``
    with ``os.replace`` once the block completes, so a reader sees the old
    file or the whole new one.  If the block raises, the temp file is removed
    and ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sidecar_path(path: Path) -> Path:
    return path.parent / (path.name + ".meta.json")


def write_dataset(dataset: Dataset, path: str | Path, style: StyleParams | None = None) -> None:
    """Write the bit-packed dataset file plus its ids sidecar, each replaced
    atomically."""
    path = Path(path)
    shape = dataset.shape
    with atomic_open(path) as fh:
        fh.write(
            _HEADER.pack(
                DATASET_MAGIC,
                DATASET_VERSION,
                len(dataset),
                shape.tracks,
                shape.bars,
                shape.steps_per_bar,
                shape.pitches,
                shape.base_midi_pitch,
            )
        )
        rows = dataset.rolls.reshape(len(dataset), -1)
        fh.write(np.packbits(rows, axis=1, bitorder="big").tobytes())
    meta: dict = {"ids": dataset.ids.tolist()}
    if style is not None:
        meta["style"] = asdict(style)
    with atomic_open(_sidecar_path(path), "w") as fh:
        # json.dumps takes the C encoder, json.dump the pure-Python one
        fh.write(json.dumps(meta, sort_keys=True))
        fh.write("\n")


def read_dataset(path: str | Path) -> Dataset:
    """Read a dataset file written by :func:`write_dataset`.

    Raises :class:`FormatError` with a distinct message for bad magic,
    unsupported version, empty datasets, truncation, trailing bytes, and a
    sidecar that is not a JSON object or whose ids are not n unique integers.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise FormatError(f"truncated dataset header in {path}")
    magic, version, count, tracks, bars, steps, pitches, base = _HEADER.unpack_from(blob)
    if magic != DATASET_MAGIC:
        raise FormatError(f"bad magic {magic!r} in {path}")
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported dataset version {version} in {path}")
    if count == 0:
        raise FormatError(f"empty dataset in {path}")
    try:
        shape = PianorollShape(tracks, bars, steps, pitches, base)
    except ConfigError as exc:
        raise FormatError(f"bad dataset header in {path}: {exc}") from exc
    roll_bytes = (shape.cells + 7) // 8
    expected = _HEADER.size + count * roll_bytes
    if len(blob) < expected:
        raise FormatError(f"truncated dataset in {path}")
    if len(blob) > expected:
        raise FormatError(f"trailing data in {path}")
    packed = np.frombuffer(blob, dtype=np.uint8, offset=_HEADER.size).reshape(count, roll_bytes)
    bits = np.unpackbits(packed, axis=1, count=shape.cells, bitorder="big")
    rolls = bits.reshape(count, *shape.dims())

    ids = np.arange(count)
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        try:
            meta = json.loads(sidecar.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise FormatError(f"bad sidecar json for {path}: {exc}") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"bad sidecar for {path}: expected a JSON object")
        if meta.get("ids") is not None:
            ids = meta["ids"]
    try:
        return Dataset(shape, rolls, ids)
    except (ConfigError, ValueError) as exc:  # only the sidecar ids can be bad here
        raise FormatError(f"bad sidecar ids for {path}: {exc}") from exc
