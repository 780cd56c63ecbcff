"""Experiment orchestration: dataset -> split -> train -> attacks -> reports.

A run is driven by one JSON config and leaves behind CSV tables, a Markdown
report, and a manifest recording every seed and format version, so identical
configs reproduce identical bytes on the same platform and BLAS thread
count, which the manifest records.  Every file is written to a temp file and
moved into place, so a crash leaves the earlier file or the whole new one.
The manifest is written when each stage starts, so it is on disk from the
first stage on; a stage still marked "running" in it was interrupted (the
process was killed, or stopped by Ctrl-C), and ``force`` replaces such a
run like any other.

``whitebox_row`` and ``mc_row`` are the only code that turns a model into a
table row, which they return as its CSV line; the experiment and ``rollmia
attack`` both call them.  ``mc_row(sampler, iteration, plan)`` attacks a
model with ``plan``, a ``montecarlo.McPlan`` made by its caller, which holds
the MC config, the sides and each trial's picks of records and stash rows,
so the sides are checked once, however many models are attacked: once per
MC config for a whole run, once per ``rollmia attack mc`` call.  A model is
given to them as whole-set functions:

- a white-box set scorer maps (k,) ids and a (k, tracks, bars, steps,
  pitches) roll stack to a (k,) float64 score vector;
- a sampler maps a (k,) array of seeds from ``stash_seeds`` to a (k, ...)
  uint8 roll stack.

A checkpoint meets both contracts with one network pass per set
(``checkpoint_scorer``, ``checkpoint_sampler``), run in blocks of
``gan.NET_BLOCK`` rows: flattening a whole set to float64 takes 8 bytes per
cell (11 MB for 1,800 desk rolls), a block of 256 rolls 1.5 MB.  Models that
score or sample one record at a time, such as the oracles, whose noise is
seeded per id or per seed, are wrapped into the same shapes by their caller.
For such models ``whitebox.run_whitebox`` and ``montecarlo.build_stash``
keep their per-row forms, which perfbench's oracle-audit workload calls:
``run_whitebox`` wraps a per-candidate scorer into a set scorer for
``run_whitebox_sets``, and ``build_stash`` draws from the same stash seeds,
so there is one attack path and one seed rule.  How each seed becomes a
record's or a row's draws is told once, in ``rollmia.streams``.

Each kind of file a run reads or writes has one definition here, shared
with ``cli``.  A config file is a tree of frozen dataclasses whose fields
are its keys: ``ExperimentConfig`` for ``experiment run``, ``TrainRunConfig``
for ``rollmia train``.  ``read_config_file`` only decodes the JSON, and
``parse_config`` builds the tree with ``pianoroll.config_block`` alone, so
each key is stated once, as a field, and then checks the schema version.
``parse_experiment_config`` adds the rules across keys, whose messages name
the keys themselves: a split that leaves a synthetic side empty, a label's
train fraction, at least one attack.  ``config_echo`` is the inverse of the
reader, the normalized form a run's manifest records and hashes: parsing it
gives the same config.

``checkpoint_name`` names a checkpoint file, and ``TABLES`` lists each
attack table as (file, section title, CSV header, success_vs_iteration.csv
column) in report order.  ``emit_reports(output_dir, provenance, tables)``
takes each table's CSV data lines keyed by file name, writes every table
that has lines and one report.md section for it, and builds the series from
the first two fields of those lines; ``report_from_dir``, behind ``rollmia
report``, renders the same sections from the files, and refuses a file
whose header or row field counts are not its table's.  A new table is one
``TABLES`` entry plus its lines.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shutil
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .errors import ConfigError, DivergenceError, FormatError
from .gan import (
    CHECKPOINT_VERSION,
    Checkpoint,
    ComposerGan,
    TrainConfig,
    check_batch_size,
    d_score,
    g_sample,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .metrics import compute_metrics
from .montecarlo import McConfig, McPlan, plan_mc_trials, score_mc_plan, stash_seeds
from .pianoroll import (
    DATASET_VERSION,
    Dataset,
    PianorollShape,
    SplitSpec,
    StyleParams,
    atomic_open,
    check_pitch_classes,
    config_block,
    naming_block,
    read_dataset,
    split,
    synth_generate,
    write_dataset,
)
from .streams import seed_states, state_generator
from .whitebox import run_whitebox_sets

CONFIG_SCHEMA_VERSION = 1
# each label and the split train_fraction it requires (None: any)
LABELS = {"default": 0.5, "overfitted": 0.1, "custom": None}


@dataclass(frozen=True)
class SyntheticSpec:
    """A synthetic dataset; also the "dataset.synthetic" config block."""

    count: int
    seed: int
    tracks: int
    bars: int
    steps_per_bar: int
    pitches: int
    base_midi_pitch: int = 24
    style: StyleParams = StyleParams()

    def __post_init__(self):
        check_pitch_classes(self.shape)  # the shape checks its own fields first

    @property
    def shape(self) -> PianorollShape:
        return PianorollShape(self.tracks, self.bars, self.steps_per_bar, self.pitches, self.base_midi_pitch)


@dataclass(frozen=True)
class DatasetSpec:
    """The "dataset" config block: exactly one of a synthetic set or a
    dataset file, a relative ``path`` resolving against the working
    directory of the run."""

    synthetic: SyntheticSpec | None = None
    path: Path | None = None


@dataclass(frozen=True)
class AttacksSpec:
    """The "attacks" config block: the white-box attack, on unless turned
    off, and the MC attacks, each an "attacks.mc[i]" block."""

    whitebox: bool = True
    mc: tuple[McConfig, ...] = ()


@dataclass(frozen=True)
class ExperimentConfig:
    """An ``experiment run`` config file, whose top-level keys are the
    fields; a relative ``output_dir`` resolves against the working directory
    of the run."""

    schema_version: int
    dataset: DatasetSpec
    split: SplitSpec
    train: TrainConfig
    output_dir: Path
    label: str = "custom"
    attacks: AttacksSpec = AttacksSpec()

    def __post_init__(self):
        if self.label not in LABELS:
            raise ConfigError(f"label must be one of {tuple(LABELS)}, got {self.label!r}")
        if (self.dataset.synthetic is None) == (self.dataset.path is None):
            raise ConfigError("needs exactly one of synthetic params or a dataset path")


@dataclass(frozen=True)
class DatasetFile:
    """The "dataset" block of a ``rollmia train`` config: a dataset file."""

    path: Path


@dataclass(frozen=True)
class TrainRunConfig:
    """A ``rollmia train`` config file, whose top-level keys are the fields."""

    schema_version: int
    dataset: DatasetFile
    train: TrainConfig


def read_config_file(path: str | Path) -> dict:
    """Decode a JSON config file; its caller checks what it holds."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
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


def parse_experiment_config(data, source: str = "config") -> ExperimentConfig:
    """Build an ExperimentConfig from decoded JSON, read from ``source``,
    checking each block once, then the rules across keys, whose messages
    name the keys themselves."""
    config = parse_config(ExperimentConfig, data, source)
    synthetic, split_spec = config.dataset.synthetic, config.split
    # the split's own rule, so a synthetic set that cannot be split fails before any output
    if synthetic is not None and not 0 < split_spec.train_size(synthetic.count) < synthetic.count:
        raise ConfigError(
            f"split train_fraction {split_spec.train_fraction} leaves a side of "
            f"dataset.synthetic count {synthetic.count} empty"
        )
    if LABELS[config.label] not in (None, split_spec.train_fraction):
        raise ConfigError(f"label {config.label!r} requires train_fraction {LABELS[config.label]}")
    if not config.attacks.whitebox and not config.attacks.mc:
        raise ConfigError("at least one attack must be enabled")
    return config


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return parse_experiment_config(read_config_file(path), f"config {Path(path)}")


def config_echo(config) -> dict:
    """Normalized JSON form of a config, which ``config_block`` reads back to
    it; hashed into the manifest.  Of a value in it: a dataclass is its
    fields but those left out (None), a value whose type has ``parse`` its
    label, a tuple a list and a path its text."""
    if hasattr(type(config), "parse"):
        return config.label()
    if is_dataclass(config):
        return {f.name: config_echo(v) for f in fields(config) if (v := getattr(config, f.name)) is not None}
    if isinstance(config, tuple):
        return [config_echo(v) for v in config]
    return str(config) if isinstance(config, Path) else config


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_echo(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Report tables
# ---------------------------------------------------------------------------

WB_HEADER = "iterations,success_rate,accuracy,precision,recall,fpr,f1"
MC_HEADER = "epochs,single_mi_accuracy,set_mi_accuracy,heuristic,metric,trials"

# (file, report.md section title, CSV header, success_vs_iteration.csv column)
# of each attack table, in report order.  ``emit_reports`` writes them and
# ``report_from_dir`` re-renders them.  A table's lines start with the
# iteration and the value its series column takes.
TABLES = (
    ("wb_metrics.csv", "White-box discriminator attack", WB_HEADER, "whitebox_success_rate"),
    ("mc_metrics.csv", "Monte Carlo attack", MC_HEADER, "single_mi_accuracy"),
)


def write_lines(path: str | Path, lines: list[str]) -> None:
    """Write ``lines`` as a newline-terminated UTF-8 text file, replacing any
    file at ``path`` atomically."""
    with atomic_open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _section(title: str, header: str, lines: list[str]) -> list[str]:
    """A report section: the title, then the CSV lines as a Markdown table."""
    cols = header.split(",")
    out = [f"## {title}", "", "| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    out += ["| " + " | ".join(line.split(",")) + " |" for line in lines]
    return out


def emit_reports(output_dir: str | Path, provenance: dict, tables: dict[str, list[str]]) -> list[Path]:
    """Write each table of ``TABLES`` that has CSV data lines in ``tables``,
    keyed by file name, then success_vs_iteration.csv and report.md, headed
    by ``provenance``; returns the written paths."""
    if not any(tables.values()):
        raise ConfigError("no rows: no tables to report")
    md = ["# Attack report", ""] + [f"- {key}: {provenance[key]}" for key in sorted(provenance)]
    md += [""] if provenance else []
    files: dict[str, list[str]] = {}
    # one series row per iteration and one cell per table, from the table's
    # first line for it (of several MC configs, the first config's), empty
    # where the table has no line for it
    series_header = ["iterations"]
    columns: list[dict[int, str]] = []
    for name, title, header, column in TABLES:
        lines = tables.get(name)
        if lines:
            files[name] = [header] + lines
            md += _section(title, header, lines) + [""]
            series_header.append(column)
            points = [line.split(",", 2)[:2] for line in lines]
            columns.append({int(iteration): value for iteration, value in reversed(points)})
    files["success_vs_iteration.csv"] = [",".join(series_header)] + [
        ",".join([str(it)] + [cells.get(it, "") for cells in columns])
        for it in sorted(set().union(*columns))
    ]
    files["report.md"] = md
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    for name, lines in files.items():
        write_lines(output_dir / name, lines)
    return [output_dir / name for name in files]


def report_from_dir(in_dir: str | Path, fmt: str) -> str:
    """Re-render the tables of a finished run directory: as the CSV files,
    or as the same sections report.md holds."""
    in_dir = Path(in_dir)
    if fmt not in ("csv", "md"):
        raise ConfigError("format must be csv or md")
    sections = []
    for name, title, header, _ in TABLES:
        path = in_dir / name
        if path.exists():
            lines = path.read_text(encoding="utf-8").strip().splitlines()
            if not lines:
                raise FormatError(f"empty table {path}")
            if lines[0] != header or any(line.count(",") != header.count(",") for line in lines):
                raise FormatError(f"table {path} does not match its header {header!r}")
            sections.append("\n".join(lines if fmt == "csv" else _section(title, lines[0], lines[1:])))
    if not sections:
        raise ConfigError(f"no report tables found in {in_dir}")
    return "\n\n".join(sections) + "\n"


# ---------------------------------------------------------------------------
# Experiment pipeline
# ---------------------------------------------------------------------------


def _platform_info() -> dict:
    """Versions and the BLAS thread setting (OPENBLAS_NUM_THREADS, else
    OMP_NUM_THREADS, else null) under which a run's bytes are reproducible."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")),
    }


def checkpoint_name(iteration: int) -> str:
    """File name of the checkpoint saved at ``iteration``, by
    ``run_experiment`` and ``rollmia train``."""
    return f"checkpoint_{iteration:06d}.ganc"


# files ``run_experiment`` writes at the top of a run directory, beside its
# ``checkpoints/`` folder of ``checkpoint_name`` files
_RUN_FILES = frozenset(
    ["manifest.json", "success_vs_iteration.csv", "report.md", *(name for name, *_ in TABLES)]
    + [f"{stem}.prd{ext}" for stem in ("dataset", "train", "test") for ext in ("", ".meta.json")]
)


def _foreign_entry(out: Path) -> Path | None:
    """The first entry of run directory ``out`` that ``run_experiment`` does
    not write, or None.  An ``atomic_open`` temp file, ".<name>.<pid>.tmp",
    counts as the file it replaces."""
    ckpts = out / "checkpoints"
    for entry in sorted(out.iterdir()) + (sorted(ckpts.iterdir()) if ckpts.is_dir() else []):
        temp = re.fullmatch(r"\.(.+)\.\d+\.tmp", entry.name)
        name = temp[1] if temp else entry.name
        if entry == ckpts:
            ours = entry.is_dir()
        elif entry.parent == ckpts:
            stem = name.removeprefix("checkpoint_").removesuffix(".ganc")
            ours = entry.is_file() and stem.isdecimal() and checkpoint_name(int(stem)) == name
        else:
            ours = entry.is_file() and name in _RUN_FILES
        if not ours:
            return entry
    return None


def checkpoint_scorer(gan: ComposerGan):
    """White-box set scorer of a trained model: the discriminator logits of
    the rolls, in blocked passes; the ids are unused."""
    return lambda _ids, rolls: d_score(gan, rolls)


def checkpoint_sampler(gan: ComposerGan):
    """uint64 seed array -> binarized generator samples: each seed's latent
    row is the stream of ``default_rng(seed)``, drawn as
    ``standard_normal(latent_dim)``, then one blocked generator pass.

    A seed's entropy is its two little-endian uint32 halves; a seed below
    2**32 is one word under ``default_rng``, and a zero high word hashes as
    an absent one, so the streams agree.
    """

    def sample(seeds: np.ndarray) -> np.ndarray:
        entropy = np.ascontiguousarray(seeds, dtype="<u8").view("<u4").reshape(len(seeds), 2)
        z = np.empty((len(seeds), gan.latent_dim))
        for row, state in zip(z, seed_states(entropy)):
            state_generator(state).standard_normal(out=row)
        return g_sample(gan, z)

    return sample


def whitebox_row(
    set_scorer: Callable[[np.ndarray, np.ndarray], np.ndarray],
    iteration: int,
    train_set: Dataset,
    test_set: Dataset,
) -> str:
    """The white-box table's CSV line for one model, given as an (ids, rolls)
    set scorer."""
    result = run_whitebox_sets(set_scorer, train_set, test_set)
    row = compute_metrics(result.confusion, iteration)
    return (
        f"{iteration},{row.success_rate:.3f},{row.accuracy:.3f},"
        f"{row.precision:.3f},{row.recall:.3f},{row.fpr:.3f},{row.f1:.3f}"
    )


def mc_row(sampler: Callable[[np.ndarray], np.ndarray], iteration: int, plan: McPlan) -> str:
    """The Monte Carlo table's CSV line for one model, given as a sampler
    from a seed array to a roll stack, attacked with ``plan``.

    The stash seeds come from ``(config.seed, iteration)``, so each
    checkpoint of a run draws its own stash; oracles use iteration 0.  The
    plan's sides were checked when it was made, before any stash is sampled.
    """
    config = plan.config
    stash = sampler(stash_seeds(config.stash_size, (config.seed, iteration)))
    result = score_mc_plan(plan, stash)
    return (
        f"{iteration},{result.single_mi_accuracy:.3f},{result.set_mi_correct_fraction:.3f},"
        f"{config.heuristic.label()},{config.metric},{config.trials}"
    )


def run_experiment(config: ExperimentConfig, force: bool = False) -> dict:
    """Run the full pipeline and return the manifest dict.

    Each of the five stages runs as one ``stage(name)`` block.  The manifest
    is on disk from the first stage on, with each stage marked "running"
    when it starts and "ok" when it completes, so a run that was killed or
    interrupted leaves a manifest whose last stage is still "running".
    Partial outputs plus a manifest naming the failed stage are left behind
    when a stage raises; the exception propagates to the caller.  When
    training diverges, the manifest's ``last_good_iteration`` names the last
    checkpoint written before it (null if there was none).  ``force``
    replaces only an earlier run's directory: one that holds a manifest.json
    and nothing that a run does not write, and not the dataset it reads.
    """
    out = config.output_dir
    taken = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if taken is not None:
        raise ConfigError(f"output directory {out}: {taken} is an existing file, not a directory")
    if out.exists() and any(out.iterdir()):
        if not force:
            raise ConfigError(
                f"output directory {out} is not empty (pass force to overwrite)"
            )
        if not (out / "manifest.json").is_file():
            raise ConfigError(
                f"output directory {out} holds no manifest.json, so it is not a rollmia run; "
                "refusing to overwrite it"
            )
        foreign = _foreign_entry(out)
        if foreign is not None:
            raise ConfigError(
                f"output directory {out} holds {foreign.relative_to(out)}, which rollmia does not "
                "write; refusing to overwrite it"
            )
        source = config.dataset.path
        # the entry the run would delete: the path itself, or what it links to
        if source is not None and any(
            p.is_relative_to(out.resolve()) for p in (source.parent.resolve() / source.name, source.resolve())
        ):
            raise ConfigError(
                f"output directory {out} holds dataset.path {source}, which the run reads; "
                "refusing to overwrite it"
            )
        # the entries, not ``out``, which may be the working directory
        for entry in out.iterdir():
            if entry.is_dir() and not entry.is_symlink():
                shutil.rmtree(entry)
            else:
                entry.unlink()
    out.mkdir(parents=True, exist_ok=True)

    manifest: dict = {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "label": config.label,
        "config": config_echo(config),
        "config_hash": config_hash(config),
        "format_versions": {
            "dataset": DATASET_VERSION,
            "checkpoint": CHECKPOINT_VERSION,
            "config_schema": CONFIG_SCHEMA_VERSION,
        },
        "platform": _platform_info(),
        "toolkit_version": __version__,
        "stages": {},
        "outputs": [],
    }

    @contextmanager
    def stage(name: str):
        """Record the block as stage ``name``: "running" on disk while it
        runs, then "ok"; an exception marks it "failed", names it and its
        error in the manifest, writes the manifest and propagates."""
        manifest["stages"][name] = "running"
        _write_manifest(out, manifest)
        try:
            yield
        except Exception as exc:
            manifest["stages"][name] = "failed"
            manifest["failed_stage"] = name
            manifest["error"] = str(exc)
            if isinstance(exc, DivergenceError):
                last = exc.last_checkpoint
                manifest["last_good_iteration"] = None if last is None else last.iteration
            _write_manifest(out, manifest)
            raise
        manifest["stages"][name] = "ok"

    synthetic = config.dataset.synthetic
    with stage("dataset"):
        if synthetic is not None:
            dataset = synth_generate(synthetic.seed, synthetic.count, synthetic.shape, synthetic.style)
            write_dataset(dataset, out / "dataset.prd", style=synthetic.style)
            manifest["outputs"].append("dataset.prd")
        else:
            dataset = read_dataset(config.dataset.path)

    with stage("split"):
        with naming_block("split"):
            train_set, test_set = split(dataset, config.split)
        # a batch or an MC subset larger than its side fails here, not in or after training
        check_batch_size(config.train, len(train_set))
        mc_plans: list[McPlan] = []
        for i, mc_config in enumerate(config.attacks.mc):
            with naming_block(f"attacks.mc[{i}]"):
                mc_plans.append(plan_mc_trials(train_set, test_set, mc_config))
        write_dataset(train_set, out / "train.prd")
        write_dataset(test_set, out / "test.prd")
        manifest["outputs"] += ["train.prd", "test.prd"]
        del dataset  # the splits are copies and nothing after reads the full set

    with stage("train"):
        ckpt_dir = out / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        ckpt_paths: list[Path] = []

        def sink(ckpt: Checkpoint) -> None:
            ckpt_paths.append(ckpt_dir / checkpoint_name(ckpt.iteration))
            save_checkpoint(ckpt, ckpt_paths[-1])

        train(train_set, config.train, checkpoint_sink=sink)
        manifest["outputs"].append("checkpoints/")

    with stage("attacks"):
        wb_lines: list[str] = []
        mc_lines: list[str] = []
        # each model is read back from its file, so the experiment attacks
        # the same float32 weights as ``rollmia attack --checkpoint``
        for path in ckpt_paths:
            ckpt = load_checkpoint(path)
            if config.attacks.whitebox:
                wb_lines.append(
                    whitebox_row(checkpoint_scorer(ckpt.gan), ckpt.iteration, train_set, test_set)
                )
            sampler = checkpoint_sampler(ckpt.gan)
            for plan in mc_plans:
                mc_lines.append(mc_row(sampler, ckpt.iteration, plan))

    with stage("reports"):
        provenance = {
            "label": manifest["label"],
            "config_hash": manifest["config_hash"],
            "dataset_seed": synthetic.seed if synthetic is not None else str(config.dataset.path),
            "split_seed": config.split.seed,
            "train_seed": config.train.seed,
        }
        written = emit_reports(
            out, provenance, {"wb_metrics.csv": wb_lines, "mc_metrics.csv": mc_lines}
        )
        manifest["outputs"] += [p.name for p in written]

    _write_manifest(out, manifest)
    return manifest


def _write_manifest(out: Path, manifest: dict) -> None:
    with atomic_open(out / "manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
