"""rollmia: membership-inference audit toolkit for pianoroll GANs.

Trains a desk-scale multi-track pianoroll GAN, runs white-box discriminator
and black-box Monte Carlo membership-inference attacks against its
checkpoints, and emits metric tables.  Oracle models with a memorization dial
provide ground truth for validating attack power.
"""

__version__ = "0.1.0"

from .errors import ConfigError, DivergenceError, FormatError, ToolkitError
from .pianoroll import (
    Dataset,
    PianorollShape,
    SplitSpec,
    StyleParams,
    read_dataset,
    split,
    synth_generate,
    synth_sampler,
    write_dataset,
)
from .nn import AdamState, DenseLayer, Mlp, adam_step, backward, bce_logits_loss, forward
from .gan import (
    Checkpoint,
    ComposerGan,
    OracleDiscriminator,
    OracleGenerator,
    TrainConfig,
    build_gan,
    d_score,
    g_sample,
    load_checkpoint,
    oracle_d_score,
    oracle_generate,
    save_checkpoint,
    train,
)
from .metrics import ConfusionCounts, MetricsRow, compute_metrics
from .whitebox import WbAttackResult, rank_scores, run_whitebox, run_whitebox_sets
from .montecarlo import (
    EpsilonHeuristic,
    McConfig,
    McPlan,
    McResult,
    build_stash,
    epsilon_from_heuristic,
    plan_mc_trials,
    run_mc_trials,
    score_mc_plan,
    stash_seeds,
)
from .harness import (
    ExperimentConfig,
    SyntheticSpec,
    emit_reports,
    load_experiment_config,
    run_experiment,
)

__all__ = [
    "__version__",
    "ToolkitError", "ConfigError", "FormatError", "DivergenceError",
    "PianorollShape", "Dataset", "SplitSpec", "StyleParams",
    "synth_generate", "synth_sampler", "split",
    "write_dataset", "read_dataset",
    "DenseLayer", "Mlp", "AdamState", "forward", "backward",
    "bce_logits_loss", "adam_step",
    "ComposerGan", "TrainConfig", "Checkpoint", "build_gan", "g_sample",
    "d_score", "train", "save_checkpoint", "load_checkpoint",
    "OracleGenerator", "OracleDiscriminator", "oracle_generate", "oracle_d_score",
    "ConfusionCounts", "MetricsRow", "compute_metrics",
    "WbAttackResult", "rank_scores", "run_whitebox", "run_whitebox_sets",
    "EpsilonHeuristic", "McConfig", "McPlan", "McResult", "build_stash", "stash_seeds",
    "epsilon_from_heuristic", "plan_mc_trials", "run_mc_trials", "score_mc_plan",
    "SyntheticSpec", "ExperimentConfig", "emit_reports",
    "load_experiment_config", "run_experiment",
]
