"""Command-line interface.

Exit codes: 0 success, 2 configuration/validation error, or a size set by a
flag or config key too large to allocate, 3 data/format error, 4 training
divergence or a white-box scorer that raises.

``attack wb`` and ``attack mc`` compute their CSV line with the experiment's
own row functions, so a checkpoint gives the same line from either entry
point, and print values read from that line's fields.
An ``--oracle`` model scores or samples one record at a time, and is wrapped
into the row functions' whole-set scorer and seed-array sampler.  Both verbs
refuse their --train and --test sides, naming the verb, before any model
scores or samples.
The Monte Carlo stash is seeded by ``(seed, checkpoint iteration)``, or
``(seed, 0)`` for an oracle, as in the experiment.
The parser is built once per process, on the first ``main`` call, and each
verb is looked up in this module by name when it is called.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .errors import ConfigError, DivergenceError, FormatError
from .gan import (
    Checkpoint,
    OracleDiscriminator,
    OracleGenerator,
    check_batch_size,
    load_checkpoint,
    oracle_d_score,
    oracle_generate,
    save_checkpoint,
    train,
)
from .harness import (
    MC_HEADER,
    WB_HEADER,
    SyntheticSpec,
    TrainRunConfig,
    checkpoint_name,
    checkpoint_sampler,
    checkpoint_scorer,
    load_experiment_config,
    mc_row,
    parse_config,
    read_config_file,
    report_from_dir,
    run_experiment,
    whitebox_row,
    write_lines,
)
from .montecarlo import EUCLIDEAN, METRICS, McConfig, plan_mc_trials
from .pianoroll import (
    SplitSpec,
    check_config_block,
    config_block,
    naming_block,
    read_dataset,
    split,
    synth_generate,
    synth_sampler,
    write_dataset,
)


def _parse_oracle(text: str, block: str, bounds: dict[str, tuple[float, float]]) -> dict[str, float]:
    """Parse "k=v,k=v" oracle descriptors, e.g. "p=1,sigma=0" or
    "margin=1,tau=0.1", given by the flag at key path ``block``, which must
    hold the keys of ``bounds``, each a finite real number within its
    (low, high) bounds; every refusal names the block and the key."""
    values: dict[str, float] = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"bad oracle spec {text!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key in values:
            raise ConfigError(f"oracle spec {text!r}: repeated key {key!r}")
        try:
            values[key] = float(raw)
        except ValueError as exc:
            raise ConfigError(f"oracle spec {text!r}: bad value for {key!r}") from exc
    check_config_block(values, block, dict.fromkeys(bounds, float), tuple(bounds))
    for key, (low, high) in bounds.items():
        if not low <= values[key] <= high:
            rule = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
            raise ConfigError(f"{block} {key} must be {rule}, got {values[key]!r}")
    return values


def cmd_dataset_gen(args) -> int:
    spec = config_block(SyntheticSpec, dict(
        count=args.count, seed=args.seed, tracks=args.tracks, bars=args.bars, steps_per_bar=args.steps,
        pitches=args.pitches, base_midi_pitch=args.base_pitch,
    ), "dataset gen")
    # the spec leaves count to the config's split rule; synth_generate refuses one below 1
    with naming_block("dataset gen"):
        dataset = synth_generate(spec.seed, spec.count, spec.shape)
    write_dataset(dataset, args.out, style=spec.style)
    print(f"wrote {len(dataset)} rolls to {args.out}")
    return 0


def cmd_split(args) -> int:
    spec = config_block(SplitSpec, {"train_fraction": args.fraction, "seed": args.seed}, "split")
    dataset = read_dataset(args.input)
    with naming_block("split"):
        train_set, test_set = split(dataset, spec)
    write_dataset(train_set, args.train)
    write_dataset(test_set, args.test)
    print(f"split {len(dataset)} -> train {len(train_set)} / test {len(test_set)}")
    return 0


def cmd_train(args) -> int:
    config = parse_config(TrainRunConfig, read_config_file(args.config), f"config {Path(args.config)}")
    dataset = read_dataset(config.dataset.path)
    check_batch_size(config.train, len(dataset))
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    def sink(ckpt: Checkpoint) -> None:
        path = out_dir / checkpoint_name(ckpt.iteration)
        save_checkpoint(ckpt, path)
        print(f"checkpoint {ckpt.iteration} -> {path}")

    train(dataset, config.train, checkpoint_sink=sink)
    checkpoints = config.train.iterations // config.train.checkpoint_every
    print(f"trained {config.train.iterations} iterations, {checkpoints} checkpoints")
    return 0


def _attack_model(args, from_gan, from_oracle):
    """Read --train and --test and build the attacked model: ``from_gan(gan)``
    for a --checkpoint, whose shape must match the datasets, or
    ``from_oracle(spec, train_set)`` for an --oracle spec.

    Returns (model, iteration, train_set, test_set); an oracle's iteration is 0.
    """
    train_set = read_dataset(args.train)
    test_set = read_dataset(args.test)
    if args.oracle is not None:
        return from_oracle(args.oracle, train_set), 0, train_set, test_set
    ckpt = load_checkpoint(args.checkpoint)
    if ckpt.gan.shape != train_set.shape:
        raise FormatError("architecture mismatch: checkpoint shape differs from dataset")
    return from_gan(ckpt.gan), ckpt.iteration, train_set, test_set


def cmd_attack_wb(args) -> int:
    def from_oracle(text, train_set):
        bounds = {"margin": (-math.inf, math.inf), "tau": (0, math.inf)}
        spec = _parse_oracle(text, "attack wb --oracle", bounds)
        # a bad seed is a usage error, found before any scoring
        check_config_block({"seed": args.seed}, "attack wb", {"seed": int})
        oracle = OracleDiscriminator(
            margin=spec["margin"],
            score_noise=spec["tau"],
            member_ids=frozenset(train_set.ids),
        )
        return lambda ids, _rolls: np.array(
            [oracle_d_score(oracle, rid, (args.seed, rid)) for rid in ids.tolist()]
        )

    scorer, iteration, train_set, test_set = _attack_model(args, checkpoint_scorer, from_oracle)
    with naming_block("attack wb"):
        line = whitebox_row(scorer, iteration, train_set, test_set)
    write_lines(args.out, [WB_HEADER, line])
    print(f"white-box success rate {line.split(',')[1]} -> {args.out}")
    return 0


def cmd_attack_mc(args) -> int:
    config = config_block(McConfig, dict(
        stash_size=args.stash, n_per_query=args.n, heuristic=args.heuristic, metric=args.metric,
        subset_size=args.subset, trials=args.trials, seed=args.seed,
    ), "attack mc")

    def from_oracle(text, train_set):
        spec = _parse_oracle(text, "attack mc --oracle", {"p": (0, 1), "sigma": (0, 1)})
        # the population sampler refuses a pitch range without every class
        with naming_block("attack mc --oracle"):
            oracle = OracleGenerator(
                memorization_rate=spec["p"],
                flip_noise=spec["sigma"],
                training_rolls=train_set,
                population_sampler=synth_sampler(train_set.shape),
            )
        return lambda seeds: np.stack([oracle_generate(oracle, s) for s in seeds.tolist()])

    sample_fn, iteration, train_set, test_set = _attack_model(args, checkpoint_sampler, from_oracle)
    with naming_block("attack mc"):
        plan = plan_mc_trials(train_set, test_set, config)
    line = mc_row(sample_fn, iteration, plan)
    write_lines(args.out, [MC_HEADER, line])
    single, set_level = line.split(",")[1:3]
    print(f"mc single {single} / set {set_level} -> {args.out}")
    return 0


def cmd_experiment_run(args) -> int:
    config = load_experiment_config(args.config)
    manifest = run_experiment(config, force=args.force)
    print(f"experiment '{config.label}' complete -> {config.output_dir}")
    print(f"config hash {manifest['config_hash']}")
    return 0


def cmd_report(args) -> int:
    sys.stdout.write(report_from_dir(args.in_dir, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rollmia",
        description="Membership-inference audit toolkit for pianoroll GANs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dataset = sub.add_parser("dataset", help="dataset utilities")
    dataset_sub = p_dataset.add_subparsers(dest="dataset_command", required=True)
    p_gen = dataset_sub.add_parser("gen", help="generate a synthetic dataset")
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--count", type=int, required=True)
    p_gen.add_argument("--tracks", type=int, default=2)
    p_gen.add_argument("--bars", type=int, default=1)
    p_gen.add_argument("--steps", type=int, default=16)
    p_gen.add_argument("--pitches", type=int, default=24)
    p_gen.add_argument("--base-pitch", type=int, default=24)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.set_defaults(verb="cmd_dataset_gen")

    p_split = sub.add_parser("split", help="split a dataset into train/test")
    p_split.add_argument("--in", dest="input", required=True)
    p_split.add_argument("--fraction", type=float, required=True)
    p_split.add_argument("--seed", type=int, required=True)
    p_split.add_argument("--train", required=True)
    p_split.add_argument("--test", required=True)
    p_split.set_defaults(verb="cmd_split")

    p_train = sub.add_parser("train", help="train a GAN on a dataset")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--out-dir", required=True)
    p_train.set_defaults(verb="cmd_train")

    p_attack = sub.add_parser("attack", help="run a membership-inference attack")
    attack_sub = p_attack.add_subparsers(dest="attack_command", required=True)

    p_wb = attack_sub.add_parser("wb", help="white-box discriminator attack")
    wb_model = p_wb.add_mutually_exclusive_group(required=True)
    wb_model.add_argument("--checkpoint")
    wb_model.add_argument("--oracle", help='oracle discriminator, e.g. "margin=1,tau=0.1"')
    p_wb.add_argument("--train", required=True)
    p_wb.add_argument("--test", required=True)
    p_wb.add_argument("--seed", type=int, default=0, help="seed for oracle score noise")
    p_wb.add_argument("--out", required=True)
    p_wb.set_defaults(verb="cmd_attack_wb")

    p_mc = attack_sub.add_parser("mc", help="Monte Carlo distance attack")
    mc_model = p_mc.add_mutually_exclusive_group(required=True)
    mc_model.add_argument("--checkpoint")
    mc_model.add_argument("--oracle", help='oracle generator, e.g. "p=1,sigma=0"')
    p_mc.add_argument("--train", required=True)
    p_mc.add_argument("--test", required=True)
    p_mc.add_argument("--heuristic", default="median", help="median or p:Q")
    p_mc.add_argument("--metric", choices=sorted(METRICS), default=EUCLIDEAN)
    p_mc.add_argument("--stash", type=int, required=True)
    p_mc.add_argument("--n", type=int, required=True)
    p_mc.add_argument("--subset", type=int, required=True)
    p_mc.add_argument("--trials", type=int, required=True)
    p_mc.add_argument(
        "--seed",
        type=int,
        required=True,
        help="trial seed; the stash is seeded by (seed, checkpoint iteration), "
        "or (seed, 0) for an oracle, as in the experiment",
    )
    p_mc.add_argument("--out", required=True)
    p_mc.set_defaults(verb="cmd_attack_mc")

    p_exp = sub.add_parser("experiment", help="full experiment pipeline")
    exp_sub = p_exp.add_subparsers(dest="experiment_command", required=True)
    p_run = exp_sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument(
        "--force", action="store_true", help="overwrite an earlier run's output dir (one with a manifest.json)"
    )
    p_run.set_defaults(verb="cmd_experiment_run")

    p_report = sub.add_parser("report", help="re-render report tables from a run dir")
    p_report.add_argument("--in-dir", required=True)
    p_report.add_argument("--format", choices=("csv", "md"), default="md")
    p_report.set_defaults(verb="cmd_report")

    return parser


_parser: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return globals()[args.verb](args)
    except (DivergenceError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
