"""One benchmark run of one workload, in a fresh process started by run.py.

A run repeats cycles of set-up then job, closed-loop, until the next cycle
would end farther from ``--seconds`` than stopping now; it runs at least
``MIN_CYCLES`` cycles and the workload's ``min_jobs``.  Set-ups are spread
over the run rather than bunched before it, so ``setup_s``, their median,
samples the same machine conditions as the jobs.

``wall_s`` is the median of the untraced jobs' wall-clocks, each divided by
the slowdown of the reference work timed right before and right after it
(``speed.py``); ``setup_s`` is the median set-up, scaled the same way.  The unscaled medians are kept in the record under ``clock``.  Untraced
jobs carry probes on the stage calls only, and ``attack_s``, ``dataset_s``
and ``train_s`` are the medians of each job's scaled time in those calls.
With ``--trace 1`` the jobs alternate untraced and traced; each per-layer
metric is its median over the traced jobs, and the tracing overhead is the
median traced wall-clock minus the median untraced one, both unscaled.  The
result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed
from spans import Tracer, aggregate, public_functions
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

MIN_CYCLES = 3

# time inside any of these calls is attack_s, whichever entry point made them
ATTACK_CALLS = {
    "harness.whitebox_row",
    "harness.mc_row",
    "cli.cmd_attack_wb",
    "cli.cmd_attack_mc",
    "whitebox.run_whitebox",
    "montecarlo.build_stash",
    "montecarlo.run_mc_trials",
}
# probed on every untraced job: the time inside these calls gives the stage
# metrics.  Time in ``synth_generate`` and the ``write_dataset`` call right
# after it is ``dataset_s``; the split stage writes too, and is not counted.
STAGE_PROBES = sorted(ATTACK_CALLS | {"pianoroll.synth_generate", "pianoroll.write_dataset", "gan.train"})

# (name, unit); BENCHMARK.json lists the same names
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]
# printed and recorded but not gated.  Only desk-train has dataset and train
# stages in its timed region; attack_s is nearly all of wall_s on the two
# audit workloads and a slice of a few hundred milliseconds on desk-train.
STAGE_METRICS = [("attack_s", "s"), ("dataset_s", "s"), ("train_s", "s")]

# (name, unit, better); names are <module>.<function>.<stat> for spans
PER_LAYER = [
    ("pianoroll.synth_generate.self_s", "s", "lower"),
    ("pianoroll.read_dataset.calls", "count", "lower"),
    ("pianoroll.read_dataset.self_s", "s", "lower"),
    ("pianoroll.write_dataset.self_s", "s", "lower"),
    ("pianoroll.write_dataset.bytes", "bytes", "lower"),
    ("pianoroll.flatten.calls", "count", "lower"),
    ("pianoroll.split.total_s", "s", "lower"),
    ("nn.forward.calls", "count", "lower"),
    ("nn.forward.self_s", "s", "lower"),
    ("nn.backward.calls", "count", "lower"),
    ("nn.backward.self_s", "s", "lower"),
    ("nn.adam_step.self_s", "s", "lower"),
    ("nn.flop_computed", "flop", "lower"),
    ("gan.train.s_per_iter", "s/iter", "lower"),
    ("gan.g_sample.calls", "count", "lower"),
    ("gan.g_sample.self_s", "s", "lower"),
    ("gan.d_score.calls", "count", "lower"),
    ("gan.d_score.self_s", "s", "lower"),
    ("gan.save_checkpoint.self_s", "s", "lower"),
    ("gan.load_checkpoint.self_s", "s", "lower"),
    ("whitebox.run_whitebox.self_s", "s", "lower"),
    ("whitebox.run_whitebox.candidates", "count", "lower"),
    ("montecarlo.build_stash.self_s", "s", "lower"),
    ("montecarlo.run_mc_trials.self_s", "s", "lower"),
    ("montecarlo.roll_features.calls", "count", "lower"),
    ("montecarlo.features_distance.calls", "count", "lower"),
    ("montecarlo.features_distance.self_s", "s", "lower"),
    ("montecarlo.distance_evals_computed", "count", "lower"),
    ("harness.whitebox_row.total_s", "s", "lower"),
    ("harness.mc_row.total_s", "s", "lower"),
    ("harness.emit_reports.total_s", "s", "lower"),
    ("cli.cmd_attack_wb.total_s", "s", "lower"),
    ("cli.cmd_attack_mc.total_s", "s", "lower"),
    ("cli.mc_rows_matching_experiment", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _macs(mlp) -> int:
    return sum(layer.in_dim * layer.out_dim for layer in mlp.layers)


# Computed counts.  Flop convention: a matrix-vector product is 2*in*out
# (multiply-add); backward is an outer product (in*out) plus a transposed
# matrix-vector product (2*in*out).  Elementwise work is not counted.
def _count_forward(args, kwargs, counts):
    counts["nn.flop_computed"] += 2 * _macs(_arg(args, kwargs, 0, "mlp"))


def _count_backward(args, kwargs, counts):
    counts["nn.flop_computed"] += 3 * _macs(_arg(args, kwargs, 0, "mlp"))


def _count_mc(args, kwargs, counts):
    c = _arg(args, kwargs, 3, "config")
    counts["montecarlo.distance_evals_computed"] += c.trials * 2 * c.subset_size * c.n_per_query


def _count_wb(args, kwargs, counts):
    members, nonmembers = _arg(args, kwargs, 1, "members"), _arg(args, kwargs, 2, "nonmembers")
    counts["whitebox.run_whitebox.candidates"] += len(members) + len(nonmembers)


def _count_write(args, kwargs, counts):
    counts["pianoroll.write_dataset.bytes"] += Path(_arg(args, kwargs, 1, "path")).stat().st_size


def _count_train(args, kwargs, counts):
    counts["gan.train.iterations"] += _arg(args, kwargs, 1, "config").iterations


HOOKS = {
    "nn.forward": _count_forward,
    "nn.backward": _count_backward,
    "montecarlo.run_mc_trials": _count_mc,
    "whitebox.run_whitebox": _count_wb,
    "pianoroll.write_dataset": _count_write,
    "gan.train": _count_train,
}


def stage_times(spans: list) -> dict[str, float]:
    """One job's time in each stage, from its outermost probe spans."""
    times: dict[str, float] = {}
    after_synth = False
    for name, start, end, parent in spans:
        if parent is not None:
            continue
        if name == "pianoroll.synth_generate" or (after_synth and name == "pianoroll.write_dataset"):
            stage = "dataset_s"
        elif name == "gan.train":
            stage = "train_s"
        elif name in ATTACK_CALLS:
            stage = "attack_s"
        else:
            stage = None
        after_synth = name == "pianoroll.synth_generate"
        if stage is not None:
            times[stage] = times.get(stage, 0.0) + end - start
    return times


def layer_metrics(spans: list, counts: dict, reported: dict) -> dict[str, float]:
    stats = aggregate(spans)
    out = {}
    for name, _unit, _better in PER_LAYER:
        function, _, stat = name.rpartition(".")
        if name in counts or name in reported:
            out[name] = counts.get(name, reported.get(name))
        elif stat in ("calls", "self_s", "total_s"):
            out[name] = stats.get(function, {}).get(stat, 0)
        else:
            out[name] = 0
    iterations = counts.get("gan.train.iterations", 0)
    if iterations:
        out["gan.train.s_per_iter"] = stats["gan.train"]["total_s"] / iterations
    out["trace.spans"] = len(spans)
    return out


def _openblas_threads() -> int | None:
    """Thread count OpenBLAS reports for numpy's bundled library, if found."""
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "libscipy_openblas*.so")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_pinned": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_reported": _openblas_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "seed": seed,
    }


def run(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    inputs = workload.make_inputs(seed)
    traced_functions = public_functions() if trace else []
    setup_times: list[float] = []
    clock_setup_times: list[float] = []
    jobs: list[dict] = []
    pool: dict = {}
    began = time.perf_counter()
    units = speed.unit_times()
    while True:
        index = len(jobs)
        setup_dir, jobdir = workdir / f"setup{index}", workdir / f"job{index}"
        setup_dir.mkdir()
        jobdir.mkdir()
        start = time.perf_counter()
        state = workload.setup(inputs, setup_dir, index)
        setup_s = time.perf_counter() - start
        units_after_setup = speed.unit_times()
        setup_times.append(setup_s / speed.slowdown(units, units_after_setup))
        clock_setup_times.append(setup_s)

        traced = trace and index % 2 == 1
        tracer = Tracer()
        tracer.install(traced_functions if traced else STAGE_PROBES, HOOKS if traced else None)
        start = time.perf_counter()
        try:
            result = workload.run_job(state, jobdir, index)
        finally:
            end = time.perf_counter()
            tracer.uninstall()
        units = speed.unit_times()
        checks, reported = workload.check(state, result, pool)
        factor = 1.0 / speed.slowdown(units_after_setup, units)
        job = {
            "traced": traced,
            "clock_s": end - start,
            "wall_s": (end - start) * factor,
            "units": {k: (units_after_setup[k] + units[k]) / 2 for k in units},
        }
        if not traced:
            job["stages"] = {k: v * factor for k, v in stage_times(tracer.spans).items()}
        job["ops"] = result["ops"] + checks
        job["reported"] = reported
        if traced:
            job["layers"] = layer_metrics(tracer.spans, tracer.counts, reported)
            job["absent"] = tracer.absent
        jobs.append(job)
        # free this cycle's data before the next set-up, so peak memory is
        # one cycle's and not two
        del state, result, tracer
        shutil.rmtree(setup_dir)
        shutil.rmtree(jobdir)
        if len(jobs) == MIN_CYCLES:
            # the allocator's high-water mark can creep up from cycle to
            # cycle, so peak memory is read after a fixed number of cycles
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        elapsed = time.perf_counter() - began
        cycle = elapsed / len(jobs)
        if len(jobs) < max(MIN_CYCLES, workload.min_jobs) or (trace and len(jobs) < 2):
            continue
        if elapsed + cycle / 2 >= seconds:
            break

    plain = [j for j in jobs if not j["traced"]]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(j["wall_s"] for j in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    for name, _unit in STAGE_METRICS:
        times = [j["stages"][name] for j in plain if name in j["stages"]]
        if times:
            metrics[name] = statistics.median(times)

    ops = [op for j in jobs for op in j["ops"]]
    out = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "jobs": len(plain),
        "setup_times": setup_times,
        "clock": {
            "setup_s": statistics.median(clock_setup_times),
            "wall_s": statistics.median(j["clock_s"] for j in plain),
            "setup_times": clock_setup_times,
        },
        "job_records": [{k: v for k, v in j.items() if k not in ("ops", "layers")} for j in jobs],
        "attempted": len(ops),
        "failed": sum(1 for op in ops if not op[1]),
        "failures": sorted({f"{name}: {detail}" for name, ok, detail in ops if not ok}),
        "metrics": metrics,
        "units": {name: unit for name, unit, *_ in END_TO_END + STAGE_METRICS + PER_LAYER},
        "reported": jobs[-1]["reported"],
    }
    if trace:
        layered = [j for j in jobs if j["traced"]]
        layers = {name: statistics.median(j["layers"][name] for j in layered) for name, _u, _b in PER_LAYER}
        layers["trace.overhead_s"] = (
            statistics.median(j["clock_s"] for j in layered) - statistics.median(j["clock_s"] for j in plain)
        )
        out["layers"] = layers
        out["traced_jobs"] = len(layered)
        out["absent"] = sorted(set(layered[-1]["absent"]))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import rollmia

    if Path(rollmia.__file__).resolve().parent != ROOT / "src" / "rollmia":
        print(f"error: imported rollmia from {rollmia.__file__}, not this checkout", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["machine"] = machine_record(args.seed)
    Path(args.out).write_text(json.dumps(result, indent=1, default=str) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
