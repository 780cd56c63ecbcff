"""Config text and the frozen dataclasses it stands for, both ways.

A config is a tree of frozen dataclasses whose fields are its keys; the
dataclasses live with the code they configure (``SplitSpec`` in
``pianoroll``, ``TrainConfig`` in ``gan``, ``McConfig`` in ``montecarlo``,
the file-level configs in ``harness``).  This module is the only one that
reads their field types, so a key is stated once, as a field, and each of
its three sources is read by that field:

- **Blocks.** ``config_block(cls, data, block)`` builds ``cls`` from decoded
  JSON, checking each value's kind (``check_config_block``) and naming the
  block's key path in every error (``naming_block``).
- **Files.** ``read_config_file`` decodes a JSON file and ``parse_config``
  builds a whole file's dataclass at ``CONFIG_SCHEMA_VERSION``.
- **Flags.** Each command-line flag that sets a config key has that key as
  its argparse ``dest``, so ``flags_block`` builds a verb's block from the
  parsed flags; a flag without a default of its own leaves the key out and
  the field's default holds.

``config_echo`` is the inverse of the reader, the normalized form a run's
manifest records and ``config_hash`` hashes: reading it back gives the same
config.  Which field types are read from text, and how they are written
back, is one rule, in ``field_kind``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import MISSING, fields, is_dataclass
from functools import cache
from numbers import Integral, Real
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError

CONFIG_SCHEMA_VERSION = 1

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


def check_at_least_one(config, *names: str) -> None:
    """Refuse ``config`` unless each of its fields ``names``, a count, is at
    least 1."""
    for name in names:
        if getattr(config, name) < 1:
            raise ConfigError(f"{name} must be >= 1")


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
    list of ``X`` blocks, and any other type is its own kind.

    This is the one rule for which values a config holds as text: a field
    of kind ``str`` is read by its type's ``parse`` (``EpsilonHeuristic``)
    or by its type (``Path``, ``str``), and written back by its type's
    ``label`` or by ``str``."""
    args = [arg for arg in get_args(hint) if arg is not type(None)]
    t = args[0] if get_origin(hint) is UnionType and len(args) == 1 else hint
    if hasattr(t, "parse") or t is Path:
        return t, str
    return t, dict if is_dataclass(t) else list if get_origin(t) is tuple else t


@cache
def _field_table(cls) -> tuple[dict, dict, tuple]:
    """The config dataclass ``cls``'s field types and kinds, each keyed by
    field name, and its required keys, worked out once per class; every
    ``config_block`` and ``config_echo`` call on ``cls`` shares them, so
    they are only read."""
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
    ``cls``), and one that takes a string is built as ``field_kind`` says.
    The top-level block, ``config``, names its nested blocks by the bare
    key (``attacks.mc[0]``).  The kinds ``check_config_block`` checks come
    from the field types, so each key is stated once, and the build runs
    under ``naming_block``."""
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


def flags_block(cls, args, block: str):
    """``config_block`` of ``cls`` at key path ``block`` from the parsed
    flags ``args`` whose ``dest`` is a field of ``cls``.  A flag left out
    whose default is ``argparse.SUPPRESS`` leaves its key out, so the
    field's default holds."""
    flags = vars(args)
    return config_block(cls, {key: flags[key] for key in _field_table(cls)[0] if key in flags}, block)


def read_config_file(path: str | Path) -> dict:
    """Decode a JSON config file, which is UTF-8 text; its caller checks
    what it holds."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def parse_config(cls, data, source: str):
    """Build ``cls``, the dataclass of a whole config file, from decoded
    JSON ``data``, read from ``source``, at ``CONFIG_SCHEMA_VERSION``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source} is not a JSON object")
    config = config_block(cls, data, "config")
    if config.schema_version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {config.schema_version}")
    return config


def config_echo(config):
    """Normalized JSON form of a config dataclass, which ``config_block``
    reads back to it; hashed into the manifest.  It is the reader run
    backwards over the same field table: a block is its echo, a list of
    blocks a list of echoes, a field of kind ``str`` its text
    (``field_kind``), any other value itself, and a field left out (None)
    is left out."""
    if isinstance(config, tuple):  # a list of blocks
        return [config_echo(item) for item in config]
    types, kinds, _ = _field_table(type(config))
    label = {key: getattr(t, "label", str) for key, t in types.items() if kinds[key] is str}
    return {
        key: config_echo(v) if kinds[key] in (dict, list) else label[key](v) if key in label else v
        for key in types if (v := getattr(config, key)) is not None
    }


def config_hash(config) -> str:
    canonical = json.dumps(config_echo(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
