"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --label set1 --seeds 1-10 [--workloads paper_cli,...]
    python3 perfbench/spread.py --compare set1 set2

Runs perfbench/run.py once per workload and seed, one run at a time, with the
run length from BENCHMARK.json, and keeps each result line under
perfbench/results/<label>/. For each workload and end-to-end metric it prints
the median, the quartiles and the spread: the distance between the first and
third quartile as a share of the median, next to the metric's bound.
--compare prints how far the second set's medians moved from the first's.
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
RESULTS = HERE / "results"


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def _load(label: str) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for f in sorted((RESULTS / label).glob("*.json")):
        runs.setdefault(f.name.rsplit("-", 1)[0], []).append(json.loads(f.read_text()))
    return runs


def summarize(label: str, bench: dict) -> dict:
    summary = {}
    for workload, runs in _load(label).items():
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{label} {workload}: {len(runs)} runs, correct {all(r['correct'] for r in runs)}, "
              f"failed share {sorted(shares)}")
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            summary[(workload, m["name"])] = med
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 else "  <-- above a third of the bound"
            print(f"  {m['name']:14s} median {med:12.5g}  q1 {q1:12.5g}  q3 {q3:12.5g}  "
                  f"spread {100 * spread:5.2f}%  bound {100 * m['bound']:.0f}%{flag}")
    return summary


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--label")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--workloads")
    p.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    if args.compare:
        first, second = (summarize(label, bench) for label in args.compare)
        print(f"{args.compare[1]} against {args.compare[0]} (positive = worse):")
        for m in bench["end_to_end"]:
            sign = -1.0 if m["better"] == "higher" else 1.0
            for workload in sorted({w for w, _ in first}):
                a, b = first[(workload, m["name"])], second[(workload, m["name"])]
                print(f"  {workload:13s} {m['name']:14s} {100 * sign * (b - a) / a:+6.2f}%  bound {100 * m['bound']:.0f}%")
        return 0

    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    out = RESULTS / args.label
    out.mkdir(parents=True, exist_ok=True)
    for workload in names:
        for seed in _seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            (out / f"{workload}-{seed}.json").write_text(proc.stdout.strip().splitlines()[-1] + "\n")
            print(proc.stderr.strip().splitlines()[-1], flush=True)
    summarize(args.label, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
