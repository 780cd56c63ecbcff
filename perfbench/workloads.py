"""The benchmark's workloads: inputs from a seed, set-up, one job, checks.

Each workload is a closed-loop batch job driven from one process: the next
job starts only after the previous one has finished.  ``make_inputs`` turns
the benchmark seed into plain JSON configs; rollmia receives only those
configs and the files built from them.  ``setup`` builds what the timed
region needs, ``run_job`` is the timed region, and ``check`` verifies the
job's outputs.

Every job of a run does the same amount of work.  The cycle index, passed
to ``setup`` and ``run_job``, lets a workload draw fresh seeds per job, and
``pool``, one dict per run, lets a check pool results over the run's jobs.  A job returns ``ops``, a list of
``(name, ok, detail)`` for the stages and calls it made; ``check`` returns
more of them, plus counts that are reported but not gated.  The benchmark's
``error_rate`` is the failed share of all ops.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

DESK_SHAPE = {"tracks": 2, "bars": 1, "steps_per_bar": 16, "pitches": 24, "base_midi_pitch": 24}
DESK_STYLE = {"rhythm_period": 4, "ornament_prob": 0.02, "transpose": 12}
POPULATION = 2000


def derive_seeds(seed: int, count: int) -> list[int]:
    """``count`` independent 32-bit seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count, np.uint32)]


def _experiment_config(label, train_fraction, seeds, iterations, checkpoint_every):
    """Experiment config with the packaged desk model, data and MC attack of
    configs/*.json, with the given seeds and training length."""
    return {
        "schema_version": 1,
        "label": label,
        "dataset": {"synthetic": {"count": POPULATION, **DESK_SHAPE, "seed": seeds[0], "style": DESK_STYLE}},
        "split": {"train_fraction": train_fraction, "seed": seeds[1]},
        "train": {
            "iterations": iterations,
            "batch_size": 32,
            "latent_dim": 16,
            "lr": 0.001,
            "seed": seeds[2],
            "checkpoint_every": checkpoint_every,
            "d_steps_per_g_step": 1,
        },
        "attacks": {
            "whitebox": True,
            "mc": [{
                "stash_size": 256,
                "n_per_query": 64,
                "heuristic": "median",
                "metric": "euclidean",
                "subset_size": 100,
                "trials": 5,
                "seed": seeds[3],
            }],
        },
        "output_dir": "run",
    }


def _write_config(config: dict, path: Path, output_dir: Path) -> Path:
    path.write_text(json.dumps({**config, "output_dir": str(output_dir)}, indent=2), encoding="utf-8")
    return path


def _csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    return [line.split(",") for line in lines[1:]]


def _in_unit_interval(rows: list[list[str]], columns: range) -> bool:
    return all(0.0 <= float(row[c]) <= 1.0 for row in rows for c in columns)


def _attempt(ops: list, name: str, fn: Callable, *args):
    """Run one operation; a failure is recorded, not raised, so one bad call
    shows up in error_rate instead of ending the run."""
    try:
        result = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the benchmark must keep running
        ops.append((name, False, f"{type(exc).__name__}: {exc}"))
        return None
    ops.append((name, True, ""))
    return result


# ---------------------------------------------------------------------------
# desk-train: the packaged default experiment, shortened to one checkpoint.
# ---------------------------------------------------------------------------

# 60 iterations with one checkpoint at the end: long enough that training is
# most of the job, short enough that a run holds five jobs (the packaged
# cadence of 200 would need 200 iterations per job)
DESK_ITERATIONS = 60
STAGES = ("dataset", "split", "train", "attacks", "reports")


def desk_inputs(seed: int) -> dict:
    return {"config": _experiment_config("default", 0.5, derive_seeds(seed, 4), DESK_ITERATIONS, DESK_ITERATIONS)}


def desk_setup(inputs: dict, workdir: Path, index: int) -> dict:
    from rollmia import pianoroll

    synth = inputs["config"]["dataset"]["synthetic"]
    shape = pianoroll.PianorollShape(**DESK_SHAPE)
    style = pianoroll.StyleParams.from_dict(synth["style"])
    reference = workdir / "reference.prd"
    dataset = pianoroll.synth_generate(synth["seed"], synth["count"], shape, style)
    pianoroll.write_dataset(dataset, reference, style=style)
    return {"config": inputs["config"], "reference": reference.read_bytes()}


def desk_job(state: dict, jobdir: Path, index: int) -> dict:
    from rollmia import harness

    out = jobdir / "run"
    path = _write_config(state["config"], jobdir / "config.json", out)
    ops: list = []
    _attempt(ops, "run_experiment", lambda: harness.run_experiment(harness.load_experiment_config(path)))
    return {"out": out, "ops": ops}


def desk_check(state: dict, result: dict, pool: dict) -> tuple[list, dict]:
    out = result["out"]
    config = state["config"]
    ops = []
    manifest_path = out / "manifest.json"
    stages = json.loads(manifest_path.read_text())["stages"] if manifest_path.exists() else {}
    for stage in STAGES:
        ops.append((f"stage {stage}", stages.get(stage) == "ok", stages.get(stage, "missing")))
    checkpoints = config["train"]["iterations"] // config["train"]["checkpoint_every"]
    try:
        wb = _csv_rows(out / "wb_metrics.csv")
        mc = _csv_rows(out / "mc_metrics.csv")
        rows_ok = len(wb) == checkpoints and len(mc) == checkpoints * len(config["attacks"]["mc"])
        values_ok = _in_unit_interval(wb, range(1, 7)) and _in_unit_interval(mc, range(1, 3))
        detail = f"{len(wb)} wb / {len(mc)} mc rows for {checkpoints} checkpoints"
    except (OSError, ValueError, IndexError) as exc:
        rows_ok = values_ok = False
        detail = str(exc)
    ops.append(("one row per checkpoint", rows_ok, detail))
    ops.append(("metric values in [0,1]", values_ok, ""))
    dataset = out / "dataset.prd"
    same = dataset.exists() and dataset.read_bytes() == state["reference"]
    ops.append(("dataset.prd equals a fresh synth_generate+write_dataset", same, ""))
    return ops, {}


# ---------------------------------------------------------------------------
# oracle-audit: both attacks against oracle models with known answers.
# ---------------------------------------------------------------------------

STASH_SIZE = 1000
DRAWS_PER_QUERY = 500
SUBSET = 100
NULL_WB_SEEDS = 5
# (generator, metric, heuristic, trials per job).  Memorizing attacks use
# criterion 3's split (100 members, 1000 others); null attacks use
# criterion 4's balanced split.
ORACLE_ATTACKS = (
    ("memorizing", "euclidean", "p:0.0001", 2),
    ("memorizing", "tonal", "median", 1),
    ("null", "euclidean", "median", 6),
    ("null", "tonal", "p:0.01", 1),
)
# Criterion 4's band is checked on the null Euclidean attack pooled over the
# run's jobs.  Each job draws a fresh population, split, stash and trial
# seeds: with them fixed, the single-MI accuracy of 16 trials centres
# anywhere in 0.47-0.53 across seeds and spreads by about 0.02, so one
# population in a few hundred would leave the band.  A job's 6 trials spread
# by about 0.024 around 0.5 (population and trials together), so 4 jobs put
# the band beyond 4 standard deviations.
CRITERION4_TRIALS = 24
ORACLE_MIN_JOBS = CRITERION4_TRIALS // ORACLE_ATTACKS[2][3]


def job_seed(seed: int, index: int) -> int:
    """Seed for job ``index`` of a run, derived from a workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint32)[0])


def oracle_inputs(seed: int) -> dict:
    s = derive_seeds(seed, 5 + len(ORACLE_ATTACKS) + NULL_WB_SEEDS)
    attacks = [
        {"generator": gen, "metric": metric, "heuristic": heuristic, "trials": trials, "seed": s[5 + i]}
        for i, (gen, metric, heuristic, trials) in enumerate(ORACLE_ATTACKS)
    ]
    return {
        "population": {"count": POPULATION, "seed": s[0]},
        "split_seed": s[1],
        "stash_seeds": {"memorizing": s[2], "null": s[3]},
        "wb_positive": {"margin": 1.0, "tau": 0.1, "seed": s[4]},
        "wb_null": {"margin": 0.0, "tau": 1.0, "seeds": s[5 + len(ORACLE_ATTACKS):]},
        "mc": {"stash_size": STASH_SIZE, "n_per_query": DRAWS_PER_QUERY, "subset_size": SUBSET},
        "attacks": attacks,
    }


def oracle_setup(inputs: dict, workdir: Path, index: int) -> dict:
    from rollmia import gan, pianoroll

    shape = pianoroll.PianorollShape(**DESK_SHAPE)
    pop_seed = job_seed(inputs["population"]["seed"], index)
    pop = pianoroll.synth_generate(pop_seed, inputs["population"]["count"], shape)
    train, test = pianoroll.split(pop, pianoroll.SplitSpec(0.5, job_seed(inputs["split_seed"], index)))
    mem_train = pianoroll.Dataset(shape, pop.rolls[:SUBSET], list(range(SUBSET)))
    mem_test = pianoroll.Dataset(
        shape, pop.rolls[SUBSET:SUBSET + STASH_SIZE], list(range(STASH_SIZE, 2 * STASH_SIZE))
    )
    sampler = pianoroll.synth_sampler(shape)
    generators = {
        "memorizing": (gan.OracleGenerator(1.0, 0.0, mem_train, sampler), mem_train, mem_test),
        "null": (gan.OracleGenerator(0.0, 0.0, train, sampler), train, test),
    }
    stash_seeds = {name: job_seed(seed, index) for name, seed in inputs["stash_seeds"].items()}
    return {
        "inputs": inputs, "train": train, "test": test, "generators": generators, "stash_seeds": stash_seeds,
    }


def _wb_success(train, test, margin: float, tau: float, seed: int) -> float:
    from rollmia import gan, metrics, whitebox

    oracle = gan.OracleDiscriminator(margin, tau, frozenset(train.ids))
    result = whitebox.run_whitebox(
        lambda rid, _roll: gan.oracle_d_score(oracle, rid, (seed, rid)), train, test
    )
    return metrics.compute_metrics(result.confusion, 0).success_rate


def oracle_job(state: dict, jobdir: Path, index: int) -> dict:
    from rollmia import gan, montecarlo

    inputs, train, test = state["inputs"], state["train"], state["test"]
    ops: list = []
    pos = inputs["wb_positive"]
    wb_positive = _attempt(ops, "wb positive oracle", _wb_success, train, test,
                           pos["margin"], pos["tau"], pos["seed"])
    null = inputs["wb_null"]
    wb_null = [
        _attempt(ops, "wb null oracle", _wb_success, train, test, null["margin"], null["tau"], seed)
        for seed in null["seeds"]
    ]
    stashes = {
        name: _attempt(
            ops, f"build_stash {name}", montecarlo.build_stash,
            lambda s, oracle=oracle: gan.oracle_generate(oracle, s),
            inputs["mc"]["stash_size"], state["stash_seeds"][name],
        )
        for name, (oracle, _members, _others) in state["generators"].items()
    }
    mc = {}
    for attack in inputs["attacks"]:
        _oracle, members, others = state["generators"][attack["generator"]]
        label = f"{attack['generator']}/{attack['metric']}/{attack['heuristic']}"
        config = montecarlo.McConfig(
            stash_size=inputs["mc"]["stash_size"],
            n_per_query=inputs["mc"]["n_per_query"],
            heuristic=montecarlo.EpsilonHeuristic.parse(attack["heuristic"]),
            metric=montecarlo.METRIC_FROM_LABEL[attack["metric"]],
            subset_size=inputs["mc"]["subset_size"],
            trials=attack["trials"],
            seed=job_seed(attack["seed"], index),
        )
        mc[label] = _attempt(ops, f"run_mc_trials {label}", montecarlo.run_mc_trials,
                             members, others, stashes[attack["generator"]], config)
    return {"ops": ops, "wb_positive": wb_positive, "wb_null": wb_null, "mc": mc}


def oracle_check(state: dict, result: dict, pool: dict) -> tuple[list, dict]:
    """Criterion 3 per job; criterion 4's MC band on the trials pooled over
    the run's jobs so far, once they reach ``CRITERION4_TRIALS``."""
    ops = []
    mc = result["mc"]
    crit3 = mc.get("memorizing/euclidean/p:0.0001")
    crit4 = mc.get("null/euclidean/median")
    pos = result["wb_positive"]
    ops.append(("criterion 3 white-box success >= 0.95", pos is not None and pos >= 0.95, f"{pos}"))
    ops.append((
        "criterion 3 MC single >= 0.9 and set == 1.0",
        crit3 is not None and crit3.single_mi_accuracy >= 0.9 and crit3.set_mi_correct_fraction == 1.0,
        "" if crit3 is None else f"single {crit3.single_mi_accuracy:.3f}, set {crit3.set_mi_correct_fraction:.3f}",
    ))
    null = [v for v in result["wb_null"] if v is not None]
    null_mean = float(np.mean(null)) if null else math.nan
    ops.append(("criterion 4 white-box mean within 0.5 +- 0.05", abs(null_mean - 0.5) <= 0.05, f"{null_mean:.4f}"))
    pooled = pool.setdefault("null_means", [])
    pooled.append(math.nan if crit4 is None else crit4.single_mi_accuracy)
    if len(pooled) >= ORACLE_MIN_JOBS:
        mean = float(np.mean(pooled))
        ops.append((f"criterion 4 MC single over {len(pooled)} jobs within 0.5 +- 0.05",
                    abs(mean - 0.5) <= 0.05, f"{mean:.4f}"))
    values = [v for r in mc.values() if r is not None for v in (r.single_mi_accuracy, r.set_mi_correct_fraction)]
    ops.append(("MC values in [0,1]", len(values) == 2 * len(mc) and all(0.0 <= v <= 1.0 for v in values), ""))
    return ops, {}


# ---------------------------------------------------------------------------
# checkpoint-audit: CLI attacks against every checkpoint of a short run.
# ---------------------------------------------------------------------------

# five checkpoints, cheap enough to set up once per job: the experiment runs
# only the MC attack, whose rows the CLI rows are compared with, at 3 trials
AUDIT_ITERATIONS = 10
AUDIT_EVERY = 2
AUDIT_MC_TRIALS = 3


def audit_inputs(seed: int) -> dict:
    config = _experiment_config("overfitted", 0.1, derive_seeds(seed, 4), AUDIT_ITERATIONS, AUDIT_EVERY)
    config["attacks"]["whitebox"] = False
    config["attacks"]["mc"][0]["trials"] = AUDIT_MC_TRIALS
    return {"config": config}


def audit_setup(inputs: dict, workdir: Path, index: int) -> dict:
    from rollmia import harness

    out = workdir / "run"
    path = _write_config(inputs["config"], workdir / "config.json", out)
    harness.run_experiment(harness.load_experiment_config(path))
    experiment_rows = {row[0]: ",".join(row) for row in _csv_rows(out / "mc_metrics.csv")}
    return {
        "config": inputs["config"],
        "train": out / "train.prd",
        "test": out / "test.prd",
        "checkpoints": sorted(out.rglob("*.ganc")),
        "experiment_mc_rows": experiment_rows,
    }


def _cli(argv: list[str]) -> None:
    from rollmia import cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")


def audit_job(state: dict, jobdir: Path, index: int) -> dict:
    mc = state["config"]["attacks"]["mc"][0]
    data = ["--train", str(state["train"]), "--test", str(state["test"])]
    mc_args = [
        "--heuristic", mc["heuristic"], "--metric", mc["metric"], "--stash", str(mc["stash_size"]),
        "--n", str(mc["n_per_query"]), "--subset", str(mc["subset_size"]),
        "--trials", str(mc["trials"]), "--seed", str(mc["seed"]),
    ]
    ops: list = []
    outputs = []
    for i, ckpt in enumerate(state["checkpoints"]):
        for kind, extra in (("wb", []), ("mc", mc_args)):
            out = jobdir / f"{kind}_{i}.csv"
            _attempt(ops, f"attack {kind} {ckpt.name}", _cli,
                     ["attack", kind, "--checkpoint", str(ckpt), *data, *extra, "--out", str(out)])
            outputs.append((kind, out))
    return {"ops": ops, "outputs": outputs}


def audit_check(state: dict, result: dict, pool: dict) -> tuple[list, dict]:
    ops = []
    matching = 0
    for kind, path in result["outputs"]:
        try:
            rows = _csv_rows(path)
            ok = len(rows) == 1 and _in_unit_interval(rows, range(1, 7 if kind == "wb" else 3))
        except (OSError, ValueError, IndexError):
            rows, ok = [], False
        ops.append((f"{path.name} has one row", ok, ""))
        if kind == "mc" and rows and state["experiment_mc_rows"].get(rows[0][0]) == ",".join(rows[0]):
            matching += 1
    return ops, {"cli.mc_rows_matching_experiment": matching, "checkpoints": len(state["checkpoints"])}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[int], dict]
    setup: Callable[[dict, Path, int], dict]
    run_job: Callable[[dict, Path, int], dict]
    check: Callable[[dict, dict, dict], tuple[list, dict]]
    min_jobs: int = 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk-train",
            "run_experiment on the default desk config: training is most of the time, so kernel work shows",
            desk_inputs, desk_setup, desk_job, desk_check,
        ),
        Workload(
            "oracle-audit",
            "MC and white-box attacks on oracle models with known answers: distance loops, no nn calls",
            oracle_inputs, oracle_setup, oracle_job, oracle_check, ORACLE_MIN_JOBS,
        ),
        Workload(
            "checkpoint-audit",
            "CLI attacks on every checkpoint of a short run: dataset and checkpoint reads, forward-only nn",
            audit_inputs, audit_setup, audit_job, audit_check,
        ),
    )
}
