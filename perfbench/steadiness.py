#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a wbl checkout:

    python3 perfbench/steadiness.py --workloads scan,certify,cli --seeds 1-10 [--out FILE]

For each workload and end-to-end metric it prints the median of the runs
and their spread: the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
the metric's bound in BENCHMARK.json. With ``--out`` it also writes every
run's result as JSON, which is how ``baseline.json`` was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default="scan,certify,cli")
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            res["seed"] = seed
            res["summary"] = [ln for ln in lines[:-2] if not ln.startswith("  ") or "n=" in ln]
            runs[workload].append(res)
            vals = " ".join(f"{k}={v['value']:.5g}" for k, v in res["metrics"].items())
            print(f"{workload} seed={seed} correct={res['correct']} attempted={res['attempted']} {vals}", flush=True)
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs[workload]]
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            print(f"  {workload:8s} {name:20s} median={med:.5g} spread={(q3 - q1) / med:.4f} bound={bound}")
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
