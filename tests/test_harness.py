import builtins
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rollmia import (
    Checkpoint,
    ConfigError,
    Dataset,
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
from rollmia.cli import main as cli_main
from rollmia.harness import (
    ExperimentConfig,
    McRow,
    _write_manifest,
    config_echo,
    config_hash,
    parse_experiment_config,
    report_from_dir,
    whitebox_row,
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
    paths = emit_reports(tmp_path, {}, [row], [mc])
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
        emit_reports(tmp_path, {}, [], [])
    with pytest.raises(ConfigError, match="no tables"):
        emit_reports(tmp_path, {"label": "custom"}, [], [])


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


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# SHA-256 of the tiny run's report.md and of ``rollmia report`` on it,
# recorded before ``emit_reports`` and ``report_from_dir`` came to share one
# table spec.  The config hash in report.md covers the run's temporary output
# path, so report.md is hashed with that hash replaced by "CONFIG_HASH".
PINNED_REPORT_DIGESTS = {
    "report.md": "ba4015602a45e6a46955f4c987c05e20ef1cb6ab82a4bdf4bf925641944afa13",
    "report --format md": "c505ff637dbead6de2c2cdd9141ead11e4f559cc56260e46eb7e381b538a2a6e",
    "report --format csv": "e808021b320d78501621e98e513b4fe9cc1d3f9b82c2c39604d91f3f30830e5e",
}


def test_report_bytes_are_pinned(finished_run, capsys):
    out, config, _ = finished_run
    report = (out / "report.md").read_text(encoding="utf-8")
    assert f"- config_hash: {config_hash(config)}\n" in report
    digests = {"report.md": _sha256(report.replace(config_hash(config), "CONFIG_HASH"))}
    for fmt in ("md", "csv"):
        capsys.readouterr()
        assert cli_main(["report", "--in-dir", str(out), "--format", fmt]) == 0
        digests[f"report --format {fmt}"] = _sha256(capsys.readouterr().out)
    assert digests == PINNED_REPORT_DIGESTS


# success_vs_iteration.csv of the tiny run with a second, tonal MC config,
# whose single-MI accuracies differ from the first's at both checkpoints: the
# series takes each checkpoint's row of the first MC config only.
PINNED_TWO_MC_SERIES_DIGEST = "dd96ab58b444297faf56746dfef0817d097182c218559145da6d0aa18e5d30d2"


def test_series_follows_the_first_mc_config(tmp_path):
    data = tiny_config_dict(tmp_path / "run")
    data["attacks"]["mc"].append(dict(data["attacks"]["mc"][0], metric="tonal", heuristic="p:0.1"))
    run_experiment(parse_experiment_config(data))
    series = (tmp_path / "run" / "success_vs_iteration.csv").read_text()
    mc_rows = (tmp_path / "run" / "mc_metrics.csv").read_text().splitlines()[1:]
    first = [r.split(",") for r in mc_rows if r.split(",")[4] == "euclidean"]
    assert [line.split(",")[2] for line in series.splitlines()[1:]] == [r[1] for r in first]
    assert _sha256(series) == PINNED_TWO_MC_SERIES_DIGEST


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


@pytest.mark.parametrize("n_members, n_nonmembers", [(1, 1), (1, 5), (5, 1)])
@pytest.mark.parametrize("members_first", [True, False])
def test_whitebox_row_is_never_degenerate(n_members, n_nonmembers, members_first):
    """Top-N labels |members| candidates: tp+fp = tp+fn = |members| >= 1 and
    fp+tn = |nonmembers| >= 1, as no Dataset is empty, so even constant
    scores leave no 0/0 metric."""
    pool = synth_generate(3, n_members + n_nonmembers, SHAPE_2X8)
    ids = pool.ids
    member_ids = ids[:n_members] if members_first else ids[n_nonmembers:]
    is_member = np.isin(ids, member_ids)
    members = Dataset(SHAPE_2X8, pool.rolls[is_member], ids[is_member])
    nonmembers = Dataset(SHAPE_2X8, pool.rolls[~is_member], ids[~is_member])
    row = whitebox_row(lambda set_ids, _rolls: np.zeros(len(set_ids)), 7, members, nonmembers)
    # top-N labels |members| candidates: tp+fp = tp+fn, so these four agree
    assert row.precision == row.recall == row.f1 == row.success_rate
    assert row.success_rate == (1.0 if members_first else max(0, n_members - n_nonmembers) / n_members)


def test_style_values_are_checked_not_coerced(tmp_path):
    data = tiny_config_dict(tmp_path)
    data["dataset"]["synthetic"]["style"] = {"rhythm_period": 3, "ornament_prob": 0, "transpose": -2}
    style = config_echo(parse_experiment_config(data))["dataset"]["synthetic"]["style"]
    assert style == {"rhythm_period": 3, "ornament_prob": 0, "transpose": -2}
    assert type(style["ornament_prob"]) is int
    for key, value in (("rhythm_period", 2.5), ("transpose", 1.5), ("transpose", False),
                       ("ornament_prob", True), ("ornament_prob", None)):
        data["dataset"]["synthetic"]["style"] = {key: value}
        with pytest.raises(ConfigError, match=f"style {key} must be"):
            parse_experiment_config(data)


def test_real_fields_accept_integers_and_echo_floats(tmp_path):
    data = tiny_config_dict(tmp_path)
    data["train"]["lr"] = 1
    echo = config_echo(parse_experiment_config(data))
    assert echo["train"]["lr"] == 1.0 and type(echo["train"]["lr"]) is float
