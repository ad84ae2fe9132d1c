#!/usr/bin/env python3
"""Run-to-run noise of the benchmark's end-to-end metrics.

    python3 perfbench/noise.py --runs 10 --seconds 10 [--workloads ann_open,zipf_sharded]

Runs `perfbench/run.py` once per seed (1..runs) on each workload, then
prints, per metric, the median of the runs and the spread: the distance
between the first and third quartile (`statistics.quantiles(n=4)`) as a
share of the median, next to the bound `BENCHMARK.json` fixes for it.
With `--json FILE` the raw values are saved too.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload, seed, seconds):
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        raise SystemExit(f"{workload} seed {seed} failed with {out.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: a correctness check failed")
    steal = [l for l in lines if "host steal per window" in l]
    window_steal = json.loads(steal[0].split("[", 1)[1].split("]", 1)[0].join("[]")) if steal else []
    return {k: v["value"] for k, v in result["metrics"].items()}, window_steal


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--json", default="")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    raw = {}
    for w in workloads:
        pairs = [one_run(w, s, args.seconds)
                 for s in range(args.first_seed, args.first_seed + args.runs)]
        runs = [p[0] for p in pairs]
        raw[w] = runs
        raw[w + ".window_steal_ms"] = [p[1] for p in pairs]
        print(f"{w}: {args.runs} runs of {args.seconds}s")
        for name in runs[0]:
            vals = [r[name] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
            print(f"  {name:<14} median {med:>12.4f}  IQR/median {spread:7.2%}  bound {bound}{flag}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))


if __name__ == "__main__":
    main()
