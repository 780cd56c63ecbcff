"""Record a baseline: run every workload over several seeds and summarize.

    python3 perfbench/baseline.py --label BENCH_1 --seeds 1-10

Runs ``run.py`` once per (workload, seed) untraced and once per workload
traced (with the first seed), then writes ``perfbench/<label>.json``.  For
each end-to-end metric it gives the median, the quartiles and the spread
(interquartile distance over the median) next to the metric's bound; for
each per-layer metric, the traced run's value.  The machine record of the
first run is kept with it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return {"last": last, "record": json.loads(record.read_text(encoding="utf-8"))}


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "bound": bound,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="output name, e.g. BENCH_1")
    parser.add_argument("--seeds", default="1-10", help="inclusive seed range, e.g. 1-10")
    args = parser.parse_args(argv)

    seeds = _seeds(args.seeds)
    out = {"label": args.label, "run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for w in SPEC["workloads"]:
        name = w["name"]
        runs = []
        for seed in seeds:
            runs.append(_run(name, seed, 0))
            metrics = runs[-1]["last"]["metrics"]
            print(name, seed, {k: round(v["value"], 4) for k, v in metrics.items()}, flush=True)
        traced = _run(name, seeds[0], 1)
        out.setdefault("machine", runs[0]["record"]["machine"])
        out["workloads"][name] = {
            "correct": all(r["last"]["correct"] for r in runs + [traced]),
            "attempted": sum(r["last"]["attempted"] for r in runs),
            "failed": sum(r["last"]["failed"] for r in runs),
            "end_to_end": {
                m["name"]: summarize([r["last"]["metrics"][m["name"]]["value"] for r in runs], m["bound"])
                for m in SPEC["end_to_end"]
            },
            "per_layer": {k: v["value"] for k, v in traced["last"]["metrics"].items()},
            "reported": traced["record"]["reported"],
        }
        for metric, s in out["workloads"][name]["end_to_end"].items():
            print(f"  {name} {metric}: median {s['median']:.4f}, spread {s['spread']:.4f} (bound {s['bound']})")
    path = HERE / f"{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
