import builtins
import hashlib
import json
from pathlib import Path

import pytest

from rollmia import (
    Checkpoint,
    ConfigError,
    DivergenceError,
    MetricsRow,
    PianorollShape,
    SplitSpec,
    StyleParams,
    SyntheticSpec,
    TrainConfig,
    build_gan,
    emit_reports,
    run_experiment,
    save_checkpoint,
    synth_generate,
    write_dataset,
)
from rollmia import pianoroll
from rollmia.harness import (
    ExperimentConfig,
    McRow,
    ReportTable,
    _write_manifest,
    config_echo,
    config_hash,
    parse_experiment_config,
    report_from_dir,
    write_lines,
)
from rollmia.montecarlo import EpsilonHeuristic, McConfig

from conftest import nan_gradients_from


def tiny_config_dict(out_dir, count=80, iterations=40, every=20):
    return {
        "schema_version": 1,
        "label": "custom",
        "dataset": {
            "synthetic": {
                "count": count,
                "tracks": 2,
                "bars": 1,
                "steps_per_bar": 8,
                "pitches": 12,
                "seed": 11,
                "style": {"ornament_prob": 0.02},
            }
        },
        "split": {"train_fraction": 0.5, "seed": 22},
        "train": {
            "iterations": iterations,
            "batch_size": 8,
            "latent_dim": 4,
            "lr": 0.001,
            "seed": 33,
            "checkpoint_every": every,
        },
        "attacks": {
            "whitebox": True,
            "mc": [
                {
                    "stash_size": 32,
                    "n_per_query": 16,
                    "heuristic": "median",
                    "metric": "euclidean",
                    "subset_size": 10,
                    "trials": 2,
                    "seed": 44,
                }
            ],
        },
        "output_dir": str(out_dir),
    }


def test_parse_config_roundtrip(tmp_path):
    data = tiny_config_dict(tmp_path / "run")
    config = parse_experiment_config(data)
    assert config.label == "custom"
    assert config.synthetic.count == 80
    assert config.mc[0].heuristic == EpsilonHeuristic.median()
    # the echo is the normalized form: parsing it again is a fixed point
    echo = config_echo(config)
    assert parse_experiment_config(echo) == config
    assert config_echo(parse_experiment_config(echo)) == echo
    assert echo["train"]["d_steps_per_g_step"] == 1  # defaults made explicit
    assert len(config_hash(config)) == 64


def test_parse_config_schema_errors(tmp_path):
    data = tiny_config_dict(tmp_path)
    del data["schema_version"]
    with pytest.raises(ConfigError, match="schema_version"):
        parse_experiment_config(data)
    data = tiny_config_dict(tmp_path)
    data["schema_version"] = 7
    with pytest.raises(ConfigError, match="schema_version"):
        parse_experiment_config(data)
    data = tiny_config_dict(tmp_path)
    del data["train"]["iterations"]
    with pytest.raises(ConfigError):
        parse_experiment_config(data)
    data = tiny_config_dict(tmp_path)
    data["dataset"] = {}
    with pytest.raises(ConfigError, match="dataset"):
        parse_experiment_config(data)


def test_label_constraints(tmp_path):
    data = tiny_config_dict(tmp_path)
    data["label"] = "default"  # requires fraction 0.5, which it has
    parse_experiment_config(data)
    data["split"]["train_fraction"] = 0.4
    with pytest.raises(ConfigError, match="0.5"):
        parse_experiment_config(data)
    data["label"] = "overfitted"
    data["split"]["train_fraction"] = 0.1
    parse_experiment_config(data)
    data["split"]["train_fraction"] = 0.5
    with pytest.raises(ConfigError, match="0.1"):
        parse_experiment_config(data)


def test_emit_reports_exact_lines(tmp_path):
    row = MetricsRow(1000, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)
    mc = McRow(20000, 0.501, 1.0, "median", "euclidean", 1)
    paths = emit_reports(
        [ReportTable("whitebox", [row]), ReportTable("montecarlo", [mc])], tmp_path
    )
    wb = (tmp_path / "wb_metrics.csv").read_text().splitlines()
    assert wb[0] == "iterations,success_rate,accuracy,precision,recall,fpr,f1"
    assert wb[1] == "1000,0.500,0.500,0.500,0.500,0.500,0.500"
    mc_lines = (tmp_path / "mc_metrics.csv").read_text().splitlines()
    assert mc_lines[0] == "epochs,single_mi_accuracy,set_mi_accuracy,heuristic,metric,trials"
    assert mc_lines[1] == "20000,0.501,1.000,median,euclidean,1"
    series = (tmp_path / "success_vs_iteration.csv").read_text().splitlines()
    assert series[0] == "iterations,whitebox_success_rate,single_mi_accuracy"
    assert {p.name for p in paths} == {
        "wb_metrics.csv",
        "mc_metrics.csv",
        "success_vs_iteration.csv",
        "report.md",
    }


def test_emit_reports_empty_table(tmp_path):
    with pytest.raises(ConfigError, match="no rows"):
        emit_reports([ReportTable("whitebox", [])], tmp_path)
    with pytest.raises(ConfigError, match="no tables"):
        emit_reports([], tmp_path)


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("exp") / "run"
    config = parse_experiment_config(tiny_config_dict(out))
    manifest = run_experiment(config)
    return out, config, manifest


def test_run_experiment_outputs(finished_run):
    out, config, manifest = finished_run
    for name in (
        "dataset.prd",
        "train.prd",
        "test.prd",
        "wb_metrics.csv",
        "mc_metrics.csv",
        "success_vs_iteration.csv",
        "report.md",
        "manifest.json",
    ):
        assert (out / name).exists(), name
    checkpoints = sorted((out / "checkpoints").glob("*.ganc"))
    assert len(checkpoints) == 2
    wb_rows = (out / "wb_metrics.csv").read_text().splitlines()[1:]
    mc_rows = (out / "mc_metrics.csv").read_text().splitlines()[1:]
    series = (out / "success_vs_iteration.csv").read_text().splitlines()[1:]
    assert len(wb_rows) == len(mc_rows) == len(series) == 2
    assert [int(r.split(",")[0]) for r in wb_rows] == [20, 40]


def test_manifest_records_all_seeds(finished_run):
    out, config, manifest = finished_run
    on_disk = json.loads((out / "manifest.json").read_text())
    echo = on_disk["config"]
    assert echo["dataset"]["synthetic"]["seed"] == 11
    assert echo["split"]["seed"] == 22
    assert echo["train"]["seed"] == 33
    assert echo["attacks"]["mc"][0]["seed"] == 44
    assert on_disk["config_hash"] == config_hash(config)
    assert on_disk["format_versions"] == {
        "dataset": 1,
        "checkpoint": 1,
        "config_schema": 1,
    }
    assert all(v == "ok" for v in on_disk["stages"].values())
    assert set(on_disk["stages"]) == {"dataset", "split", "train", "attacks", "reports"}
    assert "python" in on_disk["platform"]


# SHA-256 of the tables of the tiny two-checkpoint run, recorded before
# training moved from per-sample to batched gradients: the batch sums change
# the summation order, and no table may change with it.
PINNED_TABLE_DIGESTS = {
    "wb_metrics.csv": "a8eeda74c44895fdd36fd028e33936091e84019e5fd0d0281a5edf8e426a98bb",
    "mc_metrics.csv": "088c8c8685dd020b311e666f16a56015c29de2ee91c48e7ad074c30ea2f9cda9",
    "success_vs_iteration.csv": "dd96ab58b444297faf56746dfef0817d097182c218559145da6d0aa18e5d30d2",
}


def test_attack_tables_are_pinned(finished_run):
    out, _, _ = finished_run
    digests = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in PINNED_TABLE_DIGESTS
    }
    assert digests == PINNED_TABLE_DIGESTS


@pytest.mark.parametrize(
    "env, expected",
    [
        ({}, None),
        ({"OMP_NUM_THREADS": "2"}, "2"),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, "1"),
    ],
)
def test_manifest_records_blas_threads(tmp_path, monkeypatch, env, expected):
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.chdir(tmp_path)
    data = tiny_config_dict("run", iterations=10, every=10)
    data["attacks"] = {"whitebox": True, "mc": []}
    manifest = run_experiment(parse_experiment_config(data))
    assert manifest["platform"]["blas_threads"] == expected
    # the thread setting is recorded beside the config, not hashed into it
    assert manifest["config_hash"] == "553b0a8c959a34c06a93ee9b10f59287f3f486afb5898ebe8e65c26b2cdb1f1d"


def test_rerun_refuses_without_force(finished_run):
    out, config, _ = finished_run
    with pytest.raises(ConfigError, match="not empty"):
        run_experiment(config)


def test_rerun_with_force_is_byte_identical(finished_run):
    out, config, _ = finished_run
    before = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    run_experiment(config, force=True)
    after = {
        p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()
    }
    assert before.keys() == after.keys()
    for name in before:
        assert before[name] == after[name], name


def test_force_refuses_a_directory_without_manifest(tmp_path):
    out = tmp_path / "not_a_run"
    out.mkdir()
    (out / "notes.txt").write_text("keep me")
    config = parse_experiment_config(tiny_config_dict(out))
    with pytest.raises(ConfigError, match="manifest"):
        run_experiment(config, force=True)
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]
    assert (out / "notes.txt").read_text() == "keep me"


def test_failed_stage_manifest(tmp_path):
    data = tiny_config_dict(tmp_path / "fail")
    data["dataset"] = {"path": str(tmp_path / "missing.prd")}
    config = parse_experiment_config(data)
    with pytest.raises(FileNotFoundError):
        run_experiment(config)
    manifest = json.loads((tmp_path / "fail" / "manifest.json").read_text())
    assert manifest["failed_stage"] == "dataset"
    assert manifest["stages"]["dataset"] == "failed"
    assert "error" in manifest


@pytest.mark.parametrize("nan_from, last_good", [(25, 20), (15, None)])
def test_divergence_manifest_names_the_last_good_checkpoint(tmp_path, monkeypatch, nan_from, last_good):
    nan_gradients_from(monkeypatch, nan_from)
    config = parse_experiment_config(tiny_config_dict(tmp_path / "run"))
    with pytest.raises(DivergenceError, match=f"iteration {nan_from}"):
        run_experiment(config)
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["failed_stage"] == "train"
    assert manifest["last_good_iteration"] == last_good
    saved = sorted(p.name for p in (tmp_path / "run" / "checkpoints").iterdir())
    assert saved == ([] if last_good is None else [f"checkpoint_{last_good:06d}.ganc"])


def test_successful_manifest_has_no_divergence_key(finished_run):
    _, _, manifest = finished_run
    assert "last_good_iteration" not in manifest


class HalfWriter:
    """A file whose every write stores half its data, then fails."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError("no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


SHAPE_2X8 = PianorollShape(2, 1, 8, 12)
WRITERS = {
    "dataset": lambda d, v: write_dataset(synth_generate(v, 5, SHAPE_2X8), d / "data.prd"),
    "checkpoint": lambda d, v: save_checkpoint(Checkpoint(v, build_gan(SHAPE_2X8, 4, v)), d / "c.ganc"),
    "lines": lambda d, v: write_lines(d / "t.csv", ["h", str(v)]),
    "manifest": lambda d, v: _write_manifest(d, {"version": v}),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_leaves_the_earlier_file(tmp_path, monkeypatch, writer):
    WRITERS[writer](tmp_path, 1)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    # atomic_open looks ``open`` up in the pianoroll module
    monkeypatch.setattr(
        pianoroll, "open", lambda *a, **kw: HalfWriter(builtins.open(*a, **kw)), raising=False
    )
    with pytest.raises(OSError, match="no space"):
        WRITERS[writer](tmp_path, 2)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    monkeypatch.undo()
    WRITERS[writer](tmp_path, 2)
    after = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert after.keys() == before.keys() and after != before


def test_relative_dataset_path_resolves_against_working_directory(tmp_path, monkeypatch):
    shape = PianorollShape(tracks=2, bars=1, steps_per_bar=8, pitches=12)
    write_dataset(synth_generate(11, 40, shape), tmp_path / "data.prd")
    data = tiny_config_dict("run", iterations=20, every=10)
    data["dataset"] = {"path": "data.prd"}
    data["attacks"] = {"whitebox": True, "mc": []}
    monkeypatch.chdir(tmp_path)
    config = parse_experiment_config(data)
    assert config.dataset_path == Path("data.prd")
    manifest = run_experiment(config)
    assert manifest["config"]["dataset"] == {"path": "data.prd"}
    assert len((tmp_path / "run" / "wb_metrics.csv").read_text().splitlines()) == 3


def test_report_from_dir(finished_run):
    out, _, _ = finished_run
    md = report_from_dir(out, "md")
    assert "White-box discriminator attack" in md
    assert "| iterations |" in md
    csv_text = report_from_dir(out, "csv")
    assert csv_text.startswith("iterations,success_rate")
    with pytest.raises(ConfigError):
        report_from_dir(out, "html")


def test_config_requires_an_attack(tmp_path):
    data = tiny_config_dict(tmp_path)
    data["attacks"] = {"whitebox": False, "mc": []}
    with pytest.raises(ConfigError, match="attack"):
        parse_experiment_config(data)


def test_paired_default_and_overfitted_runs(tmp_path):
    """Mini mirror of the two-model design: same data pool, a 50 percent
    split versus a 10 percent split trained ten times longer, leaving two
    report directories whose series can be compared."""
    runs = {}
    for label, fraction, iterations, every in (
        ("default", 0.5, 100, 10),
        ("overfitted", 0.1, 1000, 100),
    ):
        data = tiny_config_dict(tmp_path / label, count=200, iterations=iterations, every=every)
        data["label"] = label
        data["split"]["train_fraction"] = fraction
        config = parse_experiment_config(data)
        runs[label] = run_experiment(config)
    for label, expected_iters in (("default", range(10, 101, 10)), ("overfitted", range(100, 1001, 100))):
        out = tmp_path / label
        series = (out / "success_vs_iteration.csv").read_text().splitlines()
        assert [int(r.split(",")[0]) for r in series[1:]] == list(expected_iters)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["label"] == label
    # the overfitted run trains on a tenth of the pool for 10x the rounds
    assert runs["overfitted"]["config"]["split"]["train_fraction"] == 0.1
    assert runs["overfitted"]["config"]["train"]["iterations"] == 10 * runs["default"]["config"]["train"]["iterations"]


def test_packaged_configs_parse():
    root = Path(__file__).resolve().parents[1] / "configs"
    # the hash of the config echo names a run in its manifest and report
    hashes = {
        "default.json": "77c0773f14e7fbdef911423004dcba87465b4108c9627549146bbc15024f6633",
        "overfitted.json": "6f61ee777c6fc813b3da979529535040fbc0a6f39d482501c1fad19a97c7aded",
    }
    for name, expected_hash in hashes.items():
        data = json.loads((root / name).read_text())
        config = parse_experiment_config(data)
        assert config.label in ("default", "overfitted")
        assert config_hash(config) == expected_hash
        # overfitted mirrors the default at a tenth of the data and 10x rounds
        if config.label == "overfitted":
            assert config.split.train_fraction == 0.1
            assert config.train.iterations == 10 * 2000
