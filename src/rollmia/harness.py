"""Experiment orchestration: dataset -> split -> train -> attacks -> reports.

A run is driven by one JSON config and leaves behind CSV tables, a Markdown
report, and a manifest recording every seed and format version, so identical
configs reproduce identical bytes on the same platform and BLAS thread
count, which the manifest records.  Every file is written to a temp file and
moved into place, so a crash leaves the earlier file or the whole new one.

``whitebox_row`` and ``mc_row`` are the only code that turns a model into a
table row; the experiment and ``rollmia attack`` both call them.  A model is
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
so there is one attack path and one seed rule.

Each kind of file a run reads or writes has one definition here, shared
with ``cli``.  ``read_config_file`` only decodes a config's JSON; each verb
then checks it once, with ``check_config`` for the top level and
``check_config_block`` for each block, and builds its dataclasses straight
from the checked blocks (``parse_experiment_config`` for ``experiment
run``).  ``checkpoint_name`` names a checkpoint file, and ``TABLES``
lists each attack table as (file, section title, CSV header) in report
order.  ``emit_reports`` writes every table that has rows and one
report.md section for it; ``report_from_dir``, behind ``rollmia report``,
renders the same sections from the files.  A new table is one entry there.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import shutil
from dataclasses import asdict, dataclass
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
    d_score,
    g_sample,
    load_checkpoint,
    save_checkpoint,
    train,
)
from .metrics import MetricsRow, compute_metrics
from .montecarlo import METRIC_LABELS, McConfig, run_mc_trials, stash_seeds
from .pianoroll import (
    DATASET_VERSION,
    Dataset,
    PianorollShape,
    SplitSpec,
    StyleParams,
    atomic_open,
    check_config_block,
    read_dataset,
    seeded_generators,
    split,
    synth_generate,
    write_dataset,
)
from .whitebox import run_whitebox_sets

CONFIG_SCHEMA_VERSION = 1
LABELS = ("default", "overfitted", "custom")


@dataclass(frozen=True)
class SyntheticSpec:
    count: int
    shape: PianorollShape
    seed: int
    style: StyleParams

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError("synthetic count must be >= 2 to allow a split")


@dataclass
class ExperimentConfig:
    label: str
    split: SplitSpec
    train: TrainConfig
    output_dir: Path
    synthetic: SyntheticSpec | None
    dataset_path: Path | None
    whitebox: bool
    mc: list[McConfig]

    def __post_init__(self):
        if self.label not in LABELS:
            raise ConfigError(f"label must be one of {LABELS}")
        if (self.synthetic is None) == (self.dataset_path is None):
            raise ConfigError("config needs exactly one of synthetic params or a dataset path")
        if self.label == "default" and self.split.train_fraction != 0.5:
            raise ConfigError("label 'default' requires train_fraction 0.5")
        if self.label == "overfitted" and self.split.train_fraction != 0.1:
            raise ConfigError("label 'overfitted' requires train_fraction 0.1")
        if not self.whitebox and not self.mc:
            raise ConfigError("at least one attack must be enabled")


def check_config(data, source: str, required: tuple, optional: tuple = ()) -> None:
    """Raise ConfigError unless ``data``, read from ``source``, is a JSON
    object at ``CONFIG_SCHEMA_VERSION`` whose top-level keys, each of its
    kind, are all in ``required`` or ``optional`` and include all of
    ``required``."""
    if not isinstance(data, dict):
        raise ConfigError(f"{source} is not a JSON object")
    kinds = {
        "schema_version": int, "label": str, "dataset": dict, "split": dict, "train": dict,
        "attacks": dict, "output_dir": str,
    }
    check_config_block(data, "config", {key: kinds[key] for key in required + optional}, required)
    if data["schema_version"] != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"unsupported config schema_version {data['schema_version']}")


def read_config_file(path: str | Path) -> dict:
    """Decode a JSON config file; its caller checks what it holds."""
    path = Path(path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def parse_experiment_config(data, source: str = "config") -> ExperimentConfig:
    """Build an ExperimentConfig from decoded JSON, read from ``source``,
    checking each block once.

    A relative ``dataset.path`` or ``output_dir`` is kept as given, so it
    resolves against the working directory of the run.
    """
    check_config(
        data, source, ("schema_version", "dataset", "split", "train", "output_dir"), ("label", "attacks")
    )
    dataset = data["dataset"]
    check_config_block(dataset, "dataset", {"synthetic": dict, "path": str})
    synthetic = None
    if "synthetic" in dataset:
        s = dict(dataset["synthetic"])
        kinds = {"count": int, "seed": int, "tracks": int, "bars": int, "steps_per_bar": int,
                 "pitches": int, "base_midi_pitch": int, "style": dict}
        # every key is required but the last two
        check_config_block(s, "dataset.synthetic", kinds, required=tuple(kinds)[:-2])
        # what is left after the other keys are taken out is the shape
        synthetic = SyntheticSpec(
            count=s.pop("count"),
            seed=s.pop("seed"),
            style=StyleParams.from_dict(s.pop("style", {}), "dataset.synthetic.style"),
            shape=PianorollShape(**s),
        )
    check_config_block(
        data["split"], "split", {"train_fraction": float, "seed": int},
        required=("train_fraction", "seed"),
    )
    split_spec = SplitSpec(**data["split"])
    train_config = TrainConfig.from_dict(data["train"])
    attacks = data.get("attacks", {})
    check_config_block(attacks, "attacks", {"whitebox": bool, "mc": list})
    return ExperimentConfig(
        label=data.get("label", "custom"),
        split=split_spec,
        train=train_config,
        output_dir=Path(data["output_dir"]),
        synthetic=synthetic,
        dataset_path=Path(dataset["path"]) if "path" in dataset else None,
        whitebox=attacks.get("whitebox", True),
        mc=[McConfig.from_dict(m, f"attacks.mc[{i}]") for i, m in enumerate(attacks.get("mc", []))],
    )


def load_experiment_config(path: str | Path) -> ExperimentConfig:
    return parse_experiment_config(read_config_file(path), f"config {Path(path)}")


def config_echo(config: ExperimentConfig) -> dict:
    """Normalized JSON form of a config; hashed into the manifest."""
    synthetic = config.synthetic
    if synthetic is not None:
        dataset = {
            "synthetic": {
                "count": synthetic.count,
                **asdict(synthetic.shape),
                "seed": synthetic.seed,
                "style": asdict(synthetic.style),
            }
        }
    else:
        dataset = {"path": str(config.dataset_path)}
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "label": config.label,
        "dataset": dataset,
        "split": asdict(config.split),
        "train": asdict(config.train),
        "attacks": {
            "whitebox": config.whitebox,
            "mc": [
                {**asdict(m), "heuristic": m.heuristic.label(), "metric": METRIC_LABELS[m.metric]}
                for m in config.mc
            ],
        },
        "output_dir": str(config.output_dir),
    }


def _canonical_json(data: dict) -> str:
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(_canonical_json(config_echo(config)).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Report tables
# ---------------------------------------------------------------------------

WB_HEADER = "iterations,success_rate,accuracy,precision,recall,fpr,f1"
MC_HEADER = "epochs,single_mi_accuracy,set_mi_accuracy,heuristic,metric,trials"

# (file, report.md section title, CSV header) of each attack table, in report
# order.  ``emit_reports`` writes them and ``report_from_dir`` re-renders them.
TABLES = (
    ("wb_metrics.csv", "White-box discriminator attack", WB_HEADER),
    ("mc_metrics.csv", "Monte Carlo attack", MC_HEADER),
)


@dataclass(frozen=True)
class McRow:
    iteration: int
    single_mi_accuracy: float
    set_mi_accuracy: float
    heuristic: str
    metric: str
    trials: int


def wb_csv_line(row: MetricsRow) -> str:
    return (
        f"{row.iteration},{row.success_rate:.3f},{row.accuracy:.3f},"
        f"{row.precision:.3f},{row.recall:.3f},{row.fpr:.3f},{row.f1:.3f}"
    )


def mc_csv_line(row: McRow) -> str:
    return (
        f"{row.iteration},{row.single_mi_accuracy:.3f},{row.set_mi_accuracy:.3f},"
        f"{row.heuristic},{row.metric},{row.trials}"
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


def emit_reports(
    output_dir: str | Path, provenance: dict, wb_rows: list[MetricsRow], mc_rows: list[McRow]
) -> list[Path]:
    """Write each table of ``TABLES`` that has rows, success_vs_iteration.csv
    and report.md, headed by ``provenance``; returns the written paths."""
    if not (wb_rows or mc_rows):
        raise ConfigError("no rows: no tables to report")
    md = ["# Attack report", ""] + [f"- {key}: {provenance[key]}" for key in sorted(provenance)]
    md += [""] if provenance else []
    files: dict[str, list[str]] = {}
    table_lines = ([wb_csv_line(r) for r in wb_rows], [mc_csv_line(r) for r in mc_rows])
    for (name, title, header), lines in zip(TABLES, table_lines):
        if lines:
            files[name] = [header] + lines
            md += _section(title, header, lines) + [""]

    # one row per checkpoint, from each table's first row for it: of several
    # MC configs, the first config's
    series_header = ["iterations"]
    series: dict[int, list[str]] = {}
    for column, points in (
        ("whitebox_success_rate", [(r.iteration, r.success_rate) for r in wb_rows]),
        ("single_mi_accuracy", [(r.iteration, r.single_mi_accuracy) for r in mc_rows]),
    ):
        if points:
            series_header.append(column)
            for iteration, value in dict(reversed(points)).items():
                series.setdefault(iteration, []).append(f"{value:.3f}")
    files["success_vs_iteration.csv"] = [",".join(series_header)] + [
        ",".join([str(it)] + vals) for it, vals in sorted(series.items())
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
    for name, title, _header in TABLES:
        path = in_dir / name
        if path.exists():
            lines = path.read_text(encoding="utf-8").strip().splitlines()
            if not lines:
                raise FormatError(f"empty table {path}")
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
    ["manifest.json", "success_vs_iteration.csv", "report.md", *(name for name, _, _ in TABLES)]
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
        for row, rng in zip(z, seeded_generators(entropy)):
            rng.standard_normal(out=row)
        return g_sample(gan, z)

    return sample


def whitebox_row(
    set_scorer: Callable[[np.ndarray, np.ndarray], np.ndarray],
    iteration: int,
    train_set: Dataset,
    test_set: Dataset,
) -> MetricsRow:
    """The white-box table row for one model, given as an (ids, rolls) set
    scorer."""
    result = run_whitebox_sets(set_scorer, train_set, test_set)
    return compute_metrics(result.confusion, iteration)


def mc_row(
    sampler: Callable[[np.ndarray], np.ndarray],
    iteration: int,
    train_set: Dataset,
    test_set: Dataset,
    mc_config: McConfig,
) -> McRow:
    """The Monte Carlo table row for one model, given as a sampler from a
    seed array to a roll stack.

    The stash seeds come from ``(mc_config.seed, iteration)``, so each
    checkpoint of a run draws its own stash; oracles use iteration 0.
    """
    stash = sampler(stash_seeds(mc_config.stash_size, (mc_config.seed, iteration)))
    result = run_mc_trials(train_set, test_set, stash, mc_config)
    return McRow(
        iteration=iteration,
        single_mi_accuracy=result.single_mi_accuracy,
        set_mi_accuracy=result.set_mi_correct_fraction,
        heuristic=mc_config.heuristic.label(),
        metric=METRIC_LABELS[mc_config.metric],
        trials=mc_config.trials,
    )


def run_experiment(config: ExperimentConfig, force: bool = False) -> dict:
    """Run the full pipeline and return the manifest dict.

    Partial outputs plus a manifest naming the failed stage are left behind
    when a stage raises; the exception propagates to the caller.  When
    training diverges, the manifest's ``last_good_iteration`` names the last
    checkpoint written before it (null if there was none).  ``force``
    replaces only an earlier run's directory: one that holds a manifest.json
    and nothing that a run does not write.
    """
    out = config.output_dir
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
        shutil.rmtree(out)
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

    def finish_stage(name: str) -> None:
        manifest["stages"][name] = "ok"

    def fail(name: str, exc: Exception) -> None:
        manifest["stages"][name] = "failed"
        manifest["failed_stage"] = name
        manifest["error"] = str(exc)
        if isinstance(exc, DivergenceError):
            last = exc.last_checkpoint
            manifest["last_good_iteration"] = None if last is None else last.iteration
        _write_manifest(out, manifest)

    try:
        stage = "dataset"
        if config.synthetic is not None:
            dataset = synth_generate(
                config.synthetic.seed,
                config.synthetic.count,
                config.synthetic.shape,
                config.synthetic.style,
            )
            write_dataset(dataset, out / "dataset.prd", style=config.synthetic.style)
            manifest["outputs"].append("dataset.prd")
        else:
            dataset = read_dataset(config.dataset_path)
        finish_stage(stage)

        stage = "split"
        train_set, test_set = split(dataset, config.split)
        write_dataset(train_set, out / "train.prd")
        write_dataset(test_set, out / "test.prd")
        manifest["outputs"] += ["train.prd", "test.prd"]
        del dataset  # the splits are copies and nothing after reads the full set
        finish_stage(stage)

        stage = "train"
        ckpt_dir = out / "checkpoints"
        ckpt_dir.mkdir(exist_ok=True)
        ckpt_paths: list[Path] = []

        def sink(ckpt: Checkpoint) -> None:
            ckpt_paths.append(ckpt_dir / checkpoint_name(ckpt.iteration))
            save_checkpoint(ckpt, ckpt_paths[-1])

        train(train_set, config.train, checkpoint_sink=sink)
        manifest["outputs"].append("checkpoints/")
        finish_stage(stage)

        stage = "attacks"
        wb_rows: list[MetricsRow] = []
        mc_rows: list[McRow] = []
        # each model is read back from its file, so the experiment attacks
        # the same float32 weights as ``rollmia attack --checkpoint``
        for path in ckpt_paths:
            ckpt = load_checkpoint(path)
            if config.whitebox:
                wb_rows.append(
                    whitebox_row(checkpoint_scorer(ckpt.gan), ckpt.iteration, train_set, test_set)
                )
            sampler = checkpoint_sampler(ckpt.gan)
            for mc_config in config.mc:
                mc_rows.append(mc_row(sampler, ckpt.iteration, train_set, test_set, mc_config))
        finish_stage(stage)

        stage = "reports"
        provenance = {
            "label": config.label,
            "config_hash": config_hash(config),
            "dataset_seed": (
                config.synthetic.seed if config.synthetic is not None else str(config.dataset_path)
            ),
            "split_seed": config.split.seed,
            "train_seed": config.train.seed,
        }
        written = emit_reports(out, provenance, wb_rows, mc_rows)
        manifest["outputs"] += [p.name for p in written]
        finish_stage(stage)
    except Exception as exc:
        fail(stage, exc)
        raise

    _write_manifest(out, manifest)
    return manifest


def _write_manifest(out: Path, manifest: dict) -> None:
    with atomic_open(out / "manifest.json", "w") as fh:
        fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
