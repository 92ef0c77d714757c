"""Repeat the benchmark over seeds and summarise each metric's spread.

    python3 bench/repeat.py --seeds 1-10 [--workloads search,analyze] \
        [--out bench/out/repeat.json]

Run it from the root of a checkout.  For each workload it makes one
``--trace 0`` run per seed with BENCHMARK.json's command and
run_seconds, then one ``--trace 1`` run, and prints for every end-to-end
metric the median of the runs and the spread: the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, the figure each metric's bound is checked against.
The summary, per-layer numbers included, is written as JSON to --out.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=True)
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
            "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", default=str(ROOT / "bench" / "out" / "repeat.json"))
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary = {"run_seconds": spec["run_seconds"], "seeds": [first, last],
               "workloads": {}}
    for workload in args.workloads.split(","):
        values, correct = {}, True
        for seed in range(first, last + 1):
            meta, res = run(spec, workload, seed, 0)
            correct &= res["correct"]
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        meta, traced = run(spec, workload, first, 1)
        correct &= traced["correct"]
        summary["machine"] = {k: meta[k] for k in ("python", "numpy", "nproc",
                                                   "machine")}
        e2e = {name: summarise(v) for name, v in values.items()}
        summary["workloads"][workload] = {
            "correct": correct,
            "end_to_end": e2e,
            "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        for name, s in e2e.items():
            print(f"{workload:10} {name:12} median {s['median']:.4f} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}) "
                  f"{'ok' if correct else 'INCORRECT'}", flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n",
                              encoding="utf-8")


if __name__ == "__main__":
    main()
