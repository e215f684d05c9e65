"""How layer cost grows with input size, measured from outside the program.

    python3 perfbench/growth.py

Prints two markdown tables: `pf_step` time per call for particle counts
N in {100, 1k, 10k} and wall counts M in {10, 100, 1000}, and
`detect_door_openings` time against trace length. Each figure is the median
of several calls, both raw and speed-corrected (see speed.py).
"""

from __future__ import annotations

import dataclasses
import os
import statistics
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from seamloc import filters, sim  # noqa: E402
from seamloc.geometry import FloorPlan, Point2, Segment2  # noqa: E402
from seamloc.pdr import PdrConfig, Pose  # noqa: E402
from seamloc.signal import detect_door_openings, detect_steps, normalized_series  # noqa: E402
from speed import SpeedClock  # noqa: E402

REPEATS = 7


def corridor(m: int) -> FloorPlan:
    """Two walls 6 m apart along x in [-50, 50], cut into m pieces in all."""
    walls = []
    per_side = m // 2
    for y in (-3.0, 3.0):
        xs = [-50.0 + 100.0 * i / per_side for i in range(per_side + 1)]
        walls += [Segment2(Point2(a, y), Point2(b, y)) for a, b in zip(xs, xs[1:])]
    return FloorPlan(walls=tuple(walls), doors=())


def _median_call(clock: SpeedClock, fn) -> tuple[float, float]:
    raw, corrected = [], []
    for _ in range(REPEATS):
        _, r, c = clock.call(fn)
        raw.append(r)
        corrected.append(c)
    return 1e3 * statistics.median(raw), 1e3 * statistics.median(corrected)


def pf_table(clock: SpeedClock) -> None:
    pdr_cfg = PdrConfig()
    print("| particles N | walls M | pf_step raw ms | pf_step corrected ms |")
    print("|---:|---:|---:|---:|")
    for n in (100, 1000, 10000):
        cfg = filters.PfConfig(particle_count=n)
        for m in (10, 100, 1000):
            plan = corridor(m)
            pset = filters.pf_init(Pose(Point2(-40.0, 0.0), 0.0), cfg, seed=1)
            raw, corrected = _median_call(clock, lambda: filters.pf_step(pset, 0.0, cfg, pdr_cfg, plan))
            print(f"| {n} | {m} | {raw:.3f} | {corrected:.3f} |")


def door_table(clock: SpeedClock) -> None:
    print("| trace samples | steps | detect_door_openings raw ms | corrected ms |")
    print("|---:|---:|---:|---:|")
    for legs in (1, 4, 16, 64):
        points = [Point2(0.0, 0.0)]
        for i in range(legs):
            points.append(Point2(points[-1].x + 6.0, 0.0))
        script = sim.WalkScript(
            waypoints=tuple(points),
            pauses=tuple((i, 3.0) for i in range(1, legs + 1, 2)),
            door_actions=tuple(sim.DoorAction(i, "gate", sim.OPEN_AND_CROSS) for i in range(2, legs + 1, 2)),
        )
        trace, _ = sim.generate_walk(script, dataclasses.replace(sim.CALIBRATED_NOISE, seed=legs))
        t, a = normalized_series(trace)
        steps = detect_steps(t, a)
        raw, corrected = _median_call(clock, lambda: detect_door_openings(t, a, steps=steps))
        print(f"| {len(trace)} | {len(steps)} | {raw:.3f} | {corrected:.3f} |")


def main() -> int:
    clock = SpeedClock()
    pf_table(clock)
    print()
    door_table(clock)
    return 0


if __name__ == "__main__":
    sys.exit(main())
