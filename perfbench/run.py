"""Benchmark for rollmia: run workloads, print metrics, check outputs.

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --trace 1             # the traced per-layer run
    python3 perfbench/run.py --workload desk-train --seed 3 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in a fresh child process
(worker.py) with the BLAS thread count pinned to ``BLAS_THREADS``.  The
command prints every metric by name with its unit, writes the full record,
machine details included, to .perfbench/results/, and prints one JSON object
as its last line: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer ones).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# one BLAS thread: the kernels are matrix-vector sized, and a second thread
# on a shared two-core machine adds spread without shortening the run
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict:
    results = ROOT / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload}-seed{seed}-trace{trace}.json"
    out.unlink(missing_ok=True)
    # numpy asks for transparent huge pages on large arrays by default; whether
    # the kernel grants them depends on memory fragmentation, which moves
    # peak_rss_mb by 2 MB steps from run to run
    env = dict(os.environ, PYTHONHASHSEED="0", NUMPY_MADVISE_HUGEPAGE="0")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not out.exists():
        raise RuntimeError(f"workload {workload} exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def print_report(result: dict) -> None:
    m = result["machine"]
    units = result["units"]
    print(
        f"== {result['workload']}  seed {result['seed']}  trace {int(result['trace'])}  "
        f"nproc {m['nproc']}  {m['blas_name']} {m['blas_version']}  "
        f"blas threads {m['blas_threads_pinned']} (reported {m['blas_threads_reported']})  "
        f"numpy {m['numpy']}  python {m['python']}"
    )
    clock = result["clock"]
    print(f"end-to-end: medians over {result['jobs']} untraced jobs; "
          f"setup_s: median of {len(result['setup_times'])} set-ups; times at nominal machine speed "
          f"(unscaled: setup_s {clock['setup_s']:.6f} s, wall_s {clock['wall_s']:.6f} s)")
    for name, value in result["metrics"].items():
        print(f"  {name:<40} {value:14.6f} {units[name]}")
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<40} {rate:14.6f} ratio  ({result['failed']} of {result['attempted']} ops failed)")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for name, value in result["reported"].items():
        print(f"  reported {name} = {value}")
    if "layers" in result:
        print(f"per-layer: medians over {result['traced_jobs']} traced jobs")
        for name, value in result["layers"].items():
            print(f"  {name:<40} {value:14.6f} {units[name]}")
        if result["absent"]:
            print(f"  absent in this version: {', '.join(result['absent'])}")


def main(argv=None) -> int:
    names = [w["name"] for w in SPEC["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "rollmia" / "__init__.py").is_file():
        print(f"error: no rollmia sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = names if args.workload == "all" else [args.workload]
    try:
        results = [run_child(w, args.seed, args.seconds, args.trace) for w in workloads]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    wanted = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    metrics = {}
    for result in results:
        print_report(result)
        source = result["layers"] if args.trace else result["metrics"]
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for m in wanted:
            metrics[prefix + m["name"]] = {"value": source[m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
