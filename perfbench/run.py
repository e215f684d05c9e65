"""Replay benchmark for seamloc.

    python3 perfbench/run.py --workload paper_cli --seed 1 --seconds 20 --trace 0

Runs one workload from the root of a source checkout, in this process and on
one thread: set-up builds the seeded inputs several times, then the timed
phase replays them in whole rounds until --seconds have passed. Every
timed operation is speed-corrected (see speed.py). The outputs of every round
are checked, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 installs the per-layer
wrappers (see layers.py) and reports the per-layer metrics instead.
--size tiny shrinks every input for the smoke test.
"""

from __future__ import annotations

import os

# One thread: keep numpy's BLAS from starting a pool.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = {"full": 5, "tiny": 2}


def _parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    return p.parse_args(argv)


def _run_ops(clock, tracer, ops, failures):
    """Run ops in order under the speed clock.

    Returns the results and the (raw, corrected) seconds of each op; a failed
    op gives None and no times.
    """
    results, times = [], []
    for op in ops:
        if tracer is not None:
            tracer.truth_intervals = op.intervals
        try:
            out, raw, secs = clock.call(op.fn)
        except Exception as exc:  # an operation that fails is counted, not fatal
            failures.append(f"{type(exc).__name__}: {exc}")
            out, raw, secs = None, None, None
        if tracer is not None:
            tracer.commit(clock.last_scale)
        results.append(out)
        times.append((raw, secs))
    return results, times


def run(args) -> dict:
    from layers import LayerTracer
    from speed import SpeedClock
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    tracer = LayerTracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
        clock = SpeedClock()
        failures: list[str] = []

        setup_s = []
        for _ in range(SETUP_REPEATS[args.size]):
            _, times = _run_ops(clock, tracer, workload.setup_ops(), failures)
            setup_s.append(sum(secs for _, secs in times if secs is not None))
        workload.after_setup()
        if failures:
            raise RuntimeError(f"set-up failed: {failures[0]}")

        if tracer is not None:
            tracer.phase = "replay"
        ops = workload.replay_ops()
        per_op: list[list[tuple[float, float]]] = [[] for _ in ops]
        problems: list[str] = []
        first = None
        rounds = attempted = 0
        gc.collect()
        deadline = time.perf_counter() + args.seconds
        while True:
            n_failed = len(failures)
            results, times = _run_ops(clock, tracer, ops, failures)
            rounds += 1
            attempted += len(ops)
            for op_times, t in zip(per_op, times):
                if t[1] is not None:
                    op_times.append(t)
            if len(failures) == n_failed:
                outcome = workload.outcome(results)
                if first is None:
                    first = outcome
                    problems += workload.check(outcome)
                elif outcome != first:
                    problems.append(f"round {rounds} differs from round 1 on the same inputs")
            if time.perf_counter() >= deadline:
                break

        if first is None:
            problems.append("no round completed without a failed operation")
        # Per operation, the median over rounds; summed over one round.
        replay_s = sum(statistics.median(s for _, s in t) for t in per_op if t)
        replay_raw_s = sum(statistics.median(r for r, _ in t) for t in per_op if t)
        result = {
            "correct": not problems,
            "attempted": attempted,
            "failed": len(failures),
        }
        for line in problems + failures[:5]:
            print(f"{args.workload}: {line}", file=sys.stderr)
        print(
            f"{args.workload}: seed {args.seed}, {rounds} rounds of {len(ops)} operations, "
            f"{workload.trace_seconds:.1f} s of trace per round, replay {replay_s:.4f} s corrected, "
            f"{replay_raw_s:.4f} s raw per round, "
            f"set-up {', '.join(f'{s:.4f}' for s in setup_s)} s",
            file=sys.stderr,
        )
        if tracer is not None:
            result["metrics"] = tracer.report(rounds, len(setup_s))
        else:
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            result["metrics"] = {
                "replay_rtf": {"value": workload.trace_seconds / replay_s, "unit": "x"},
                "final_error_m": {"value": first["final_error_m"] if first else float("nan"), "unit": "m"},
                "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
                "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
            }
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "seamloc" / "__init__.py").is_file():
        print(f"error: no seamloc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
