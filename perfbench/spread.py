#!/usr/bin/env python3
"""Run the benchmark on several seeds and summarise each metric.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --workload exemplar-train --seeds 1-10
    python3 perfbench/spread.py --workload subspace-lane --seeds 1-5 --json out.json

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
interquartile distance as a share of the median, next to a third of the
metric's bound in BENCHMARK.json, the most the spread may be for the
benchmark to count as steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(runs: list[dict], bounds: dict[str, float]) -> dict[str, dict]:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0,
            "bound": bounds[name],
            "values": values,
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--json", default=None, help="also write the summary here")
    args = ap.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, failed = [], 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            failed += 1
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            continue
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        print(f"seed {seed}: ok", file=sys.stderr)
    if len(runs) < 2:
        print("fewer than two successful runs", file=sys.stderr)
        return 1
    summary = summarise(runs, bounds)
    for name, s in summary.items():
        print(f"{name:34s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
              f"spread {s['spread']:.4f}  (a third of the bound: {s['bound'] / 3:.4f})")
    if args.json:
        Path(args.json).write_text(json.dumps({"workload": args.workload, "runs": len(runs),
                                               "failed_runs": failed, "metrics": summary}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
