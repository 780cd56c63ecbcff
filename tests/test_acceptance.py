"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines
as they complete.  The end-to-end criterion trains the packaged default desk
configuration and is the slowest item (a few minutes on a laptop CPU).
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from rollmia import (
    ConfusionCounts,
    Dataset,
    EpsilonHeuristic,
    FormatError,
    McConfig,
    OracleDiscriminator,
    OracleGenerator,
    PianorollShape,
    SplitSpec,
    TrainConfig,
    build_stash,
    compute_metrics,
    d_score,
    g_sample,
    load_checkpoint,
    oracle_d_score,
    oracle_generate,
    read_dataset,
    run_experiment,
    run_mc_trials,
    run_whitebox,
    save_checkpoint,
    split,
    synth_generate,
    synth_sampler,
    train,
    write_dataset,
)
from rollmia.harness import parse_experiment_config
from rollmia.montecarlo import EUCLIDEAN, epsilon_from_heuristic
from rollmia.nn import backward, forward, glorot_init, mlp_params

from reference import mc_score

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
DESK_SHAPE = PianorollShape(2, 1, 16, 24)


def report(number: int, description: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {number}: {description}{suffix}")
    assert passed, f"criterion {number} failed{suffix}"


@pytest.fixture(scope="module")
def balanced_population():
    pop = synth_generate(1001, 2000, DESK_SHAPE)
    return split(pop, SplitSpec(0.5, 77)) + (pop,)


def test_criterion_1_metric_algebra_matches_overfitted_row():
    members, nonmembers = 2639, 23515
    tp = round(0.121 * members)
    fp = members - tp
    fn = members - tp
    tn = nonmembers - fp
    row = compute_metrics(ConfusionCounts(tp, fp, tn, fn), iteration=20000)
    ok = (
        abs(row.accuracy - 0.823) <= 0.001
        and abs(row.fpr - 0.099) <= 0.001
        and round(row.success_rate, 3) == 0.121
    )
    report(
        1,
        "reconstructed confusion counts reproduce the overfitted-row metrics",
        ok,
        f"accuracy {row.accuracy:.4f}, fpr {row.fpr:.4f}",
    )


def test_criterion_2_column_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        positives = int(rng.integers(1, 5000))
        tp = int(rng.integers(0, positives + 1))
        fp = positives - tp
        fn = positives - tp
        tn = int(rng.integers(0, 50000))
        if tp + fp + tn + fn == 0:
            continue
        row = compute_metrics(ConfusionCounts(tp, fp, tn, fn), iteration=0)
        for value in (row.recall, row.f1):
            worst = max(worst, abs(value - row.precision))
        worst = max(worst, abs(row.success_rate - row.recall))
    report(
        2,
        "predicted-positives = actual-positives forces precision = recall = f1 = success",
        worst <= 1e-12,
        f"max deviation {worst:.1e} over 1000 draws",
    )


def test_criterion_3_attack_positive_controls(balanced_population):
    train_ds, test_ds, pop = balanced_population
    oracle = OracleDiscriminator(1.0, 0.1, frozenset(train_ds.ids))
    result = run_whitebox(
        lambda rid, _roll: oracle_d_score(oracle, rid, (0, rid)), train_ds, test_ds
    )
    wb_success = compute_metrics(result.confusion, 0).success_rate

    mem_train = Dataset(DESK_SHAPE, pop.rolls[:100], list(range(100)))
    mc_test = Dataset(DESK_SHAPE, pop.rolls[100:1100], list(range(1000, 2000)))
    gen_oracle = OracleGenerator(1.0, 0.0, mem_train, synth_sampler(DESK_SHAPE))
    stash = build_stash(lambda s: oracle_generate(gen_oracle, s), 1000, seed=600)
    config = McConfig(
        stash_size=1000,
        n_per_query=500,
        heuristic=EpsilonHeuristic("percentile", 0.0001),
        metric=EUCLIDEAN,
        subset_size=100,
        trials=20,
        seed=601,
    )
    mc = run_mc_trials(mem_train, mc_test, stash, config)
    ok = (
        wb_success >= 0.95
        and mc.single_mi_accuracy >= 0.9
        and mc.set_mi_correct_fraction == 1.0
    )
    report(
        3,
        "oracle-backed attacks reach their positive-control power",
        ok,
        f"wb {wb_success:.3f}, single {mc.single_mi_accuracy:.3f}, "
        f"set {mc.set_mi_correct_fraction:.3f}",
    )


def test_criterion_4_attack_negative_controls(balanced_population):
    train_ds, test_ds, _ = balanced_population
    null_disc = OracleDiscriminator(0.0, 1.0, frozenset(train_ds.ids))
    wb_rates = []
    for seed in range(20):
        result = run_whitebox(
            lambda rid, _roll: oracle_d_score(null_disc, rid, (seed, rid)),
            train_ds,
            test_ds,
        )
        wb_rates.append(compute_metrics(result.confusion, 0).success_rate)
    wb_mean = float(np.mean(wb_rates))

    null_gen = OracleGenerator(0.0, 0.0, train_ds, synth_sampler(DESK_SHAPE))
    stash = build_stash(lambda s: oracle_generate(null_gen, s), 1000, seed=500)
    mc_accs = []
    for seed in range(20):
        config = McConfig(
            stash_size=1000,
            n_per_query=500,
            heuristic=EpsilonHeuristic("median"),
            metric=EUCLIDEAN,
            subset_size=100,
            trials=5,
            seed=seed,
        )
        mc_accs.append(
            run_mc_trials(train_ds, test_ds, stash, config).single_mi_accuracy
        )
    mc_mean = float(np.mean(mc_accs))
    ok = abs(wb_mean - 0.5) <= 0.05 and abs(mc_mean - 0.5) <= 0.05
    report(
        4,
        "attacks against non-leaky oracles are indistinguishable from guessing",
        ok,
        f"wb mean {wb_mean:.4f}, single-mi mean {mc_mean:.4f} over 20 seeds",
    )


def test_criterion_5_end_to_end_desk_run(tmp_path):
    data = json.loads((CONFIG_DIR / "default.json").read_text())
    data["output_dir"] = str(tmp_path / "run")
    config = parse_experiment_config(data)
    manifest = run_experiment(config)
    out = Path(data["output_dir"])

    wb_rows = (out / "wb_metrics.csv").read_text().splitlines()[1:]
    mc_rows = (out / "mc_metrics.csv").read_text().splitlines()[1:]
    rows_ok = len(wb_rows) == 10 and len(mc_rows) == 10

    final = load_checkpoint(out / "checkpoints" / "checkpoint_002000.ganc")
    train_back = read_dataset(out / "train.prd")
    rng = np.random.default_rng(9)
    real_mean = float(np.mean(d_score(final.gan, train_back.rolls[:250])))
    fake_rolls = g_sample(final.gan, rng.standard_normal((250, final.gan.latent_dim)))
    fake_mean = float(np.mean(d_score(final.gan, fake_rolls)))
    final_success = float(wb_rows[-1].split(",")[1])
    ok = (
        all(v == "ok" for v in manifest["stages"].values())
        and rows_ok
        and real_mean > fake_mean
        and 0.40 <= final_success <= 0.60
    )
    report(
        5,
        "default desk experiment completes with a generalizing model",
        ok,
        f"d(real) {real_mean:.2f} vs d(fake) {fake_mean:.2f}, "
        f"final wb success {final_success:.3f}",
    )


def _finite_difference_worst(mlp, rng, h=1e-4):
    x = rng.standard_normal(mlp.in_dim)
    dy = rng.standard_normal(mlp.out_dim)
    _, cache = forward(mlp, x[None])
    grads, dx = backward(mlp, cache, dy[None])
    analytic = grads + [dx[0]]
    targets = mlp_params(mlp) + [x]
    worst = 0.0
    for param, grad in zip(targets, analytic):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            y_plus, _ = forward(mlp, x[None])
            param[idx] = orig - h
            y_minus, _ = forward(mlp, x[None])
            param[idx] = orig
            numeric = float(np.sum(dy * (y_plus - y_minus))) / (2.0 * h)
            scale = max(abs(numeric), abs(grad[idx]), 1.0)
            worst = max(worst, abs(numeric - grad[idx]) / scale)
    return worst


def test_criterion_6_gradient_checks():
    activations = ("linear", "relu", "tanh", "sigmoid")
    worst = 0.0
    for case in range(20):
        rng = np.random.default_rng(9000 + case)
        depth = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 33)) for _ in range(depth + 1)]
        acts = [activations[int(rng.integers(4))] for _ in range(depth)]
        mlp = glorot_init(dims, acts, rng)
        worst = max(worst, _finite_difference_worst(mlp, rng))
    report(
        6,
        "analytic gradients match central finite differences on 20 random nets",
        worst < 1e-4,
        f"max relative error {worst:.2e}",
    )


def test_criterion_7_mc_score_properties():
    sampler = synth_sampler(DESK_SHAPE)
    stash = build_stash(sampler, 40, seed=70)
    config = McConfig(
        stash_size=40,
        n_per_query=16,
        heuristic=EpsilonHeuristic("median"),
        metric=EUCLIDEAN,
        subset_size=1,
        trials=1,
        seed=0,
    )
    rng = np.random.default_rng(71)
    lattice = {round(k / 16, 12) for k in range(17)}
    monotone_ok = lattice_ok = True
    for case in range(1000):
        candidate = sampler(50_000 + case)
        eps_a, eps_b = np.sort(rng.uniform(0.0, 14.0, size=2))
        s_a = mc_score(DESK_SHAPE, candidate, stash, config, float(eps_a), seed=case)
        s_b = mc_score(DESK_SHAPE, candidate, stash, config, float(eps_b), seed=case)
        monotone_ok &= s_a <= s_b
        lattice_ok &= round(s_a, 12) in lattice and round(s_b, 12) in lattice

    heuristics_ok = True
    for case in range(200):
        values = rng.uniform(0.0, 100.0, size=int(rng.integers(1, 400))).tolist()
        ordered = sorted(values)
        k = len(ordered)
        got = epsilon_from_heuristic(values, EpsilonHeuristic("median"))
        heuristics_ok &= got == ordered[(k + 1) // 2 - 1]
        for q in (0.01, 0.001, 0.0001, float(rng.uniform(0.0001, 0.9999))):
            got = epsilon_from_heuristic(values, EpsilonHeuristic("percentile", q))
            heuristics_ok &= got == ordered[max(1, math.ceil(q * k)) - 1]

    ok = monotone_ok and lattice_ok and heuristics_ok
    report(
        7,
        "membership scores are monotone lattice values and thresholds match a sort oracle",
        ok,
        "1000 monotonicity cases, 200 threshold multisets",
    )


def test_criterion_8_determinism_and_io(tmp_path):
    # datasets: identical seeds, identical bytes
    a, b = tmp_path / "a.prd", tmp_path / "b.prd"
    write_dataset(synth_generate(5, 30, DESK_SHAPE), a)
    write_dataset(synth_generate(5, 30, DESK_SHAPE), b)
    datasets_ok = a.read_bytes() == b.read_bytes()
    roundtrip_ok = read_dataset(a) == synth_generate(5, 30, DESK_SHAPE)

    # checkpoints: identical configs, identical bytes
    small_shape = PianorollShape(2, 1, 8, 12)
    train_set = synth_generate(8, 48, small_shape)
    config = TrainConfig(
        iterations=40, batch_size=8, latent_dim=4, lr=1e-3, seed=6, checkpoint_every=20
    )
    ckpt_bytes = []
    for run_idx in range(2):
        final = train(train_set, config)
        path = tmp_path / f"run{run_idx}.ganc"
        save_checkpoint(final, path)
        ckpt_bytes.append(path.read_bytes())
    checkpoints_ok = ckpt_bytes[0] == ckpt_bytes[1]
    ckpt_roundtrip = load_checkpoint(tmp_path / "run0.ganc")
    save_checkpoint(ckpt_roundtrip, tmp_path / "rt.ganc")
    checkpoints_ok &= (tmp_path / "rt.ganc").read_bytes() == ckpt_bytes[0]

    # CSVs: rerunning an experiment reproduces identical bytes
    exp_config = parse_experiment_config(
        {
            "schema_version": 1,
            "label": "custom",
            "dataset": {
                "synthetic": {
                    "count": 48, "tracks": 2, "bars": 1, "steps_per_bar": 8,
                    "pitches": 12, "seed": 8,
                }
            },
            "split": {"train_fraction": 0.5, "seed": 2},
            "train": {
                "iterations": 20, "batch_size": 8, "latent_dim": 4, "lr": 0.001,
                "seed": 3, "checkpoint_every": 10,
            },
            "attacks": {
                "whitebox": True,
                "mc": [
                    {
                        "stash_size": 24, "n_per_query": 12, "heuristic": "median",
                        "metric": "euclidean", "subset_size": 8, "trials": 2, "seed": 4,
                    }
                ],
            },
            "output_dir": str(tmp_path / "exp"),
        }
    )
    run_experiment(exp_config)
    first = {
        p.name: p.read_bytes()
        for p in (tmp_path / "exp").iterdir()
        if p.suffix == ".csv" or p.name == "manifest.json"
    }
    run_experiment(exp_config, force=True)
    second = {
        p.name: p.read_bytes()
        for p in (tmp_path / "exp").iterdir()
        if p.suffix == ".csv" or p.name == "manifest.json"
    }
    csvs_ok = first == second

    # corrupted files raise the distinct documented errors
    bad = tmp_path / "bad.prd"
    bad.write_bytes(b"XXXX" + bytes(40))
    errors_ok = True
    try:
        read_dataset(bad)
        errors_ok = False
    except FormatError as exc:
        errors_ok &= "bad magic" in str(exc)
    truncated = tmp_path / "trunc.ganc"
    truncated.write_bytes(ckpt_bytes[0][:-7])
    try:
        load_checkpoint(truncated)
        errors_ok = False
    except FormatError as exc:
        errors_ok &= "truncated checkpoint" in str(exc)
    mismatched = bytearray(ckpt_bytes[0])
    desc_len = int.from_bytes(mismatched[16:20], "little")
    off = 20 + desc_len
    mismatched[off:off + 4] = (1).to_bytes(4, "little")
    (tmp_path / "mm.ganc").write_bytes(bytes(mismatched))
    try:
        load_checkpoint(tmp_path / "mm.ganc")
        errors_ok = False
    except FormatError as exc:
        errors_ok &= "architecture mismatch" in str(exc)

    ok = datasets_ok and roundtrip_ok and checkpoints_ok and csvs_ok and errors_ok
    report(
        8,
        "identical configs give identical bytes and corrupted files fail distinctly",
        ok,
        f"datasets {datasets_ok}, checkpoints {checkpoints_ok}, csvs {csvs_ok}, errors {errors_ok}",
    )
