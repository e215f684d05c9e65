"""Rewrite the golden files under tests/golden/ from the current code.

    PYTHONPATH=src python tests/make_golden.py

Four kinds of file live there, all checked by tests/test_golden.py:
- writer files: each is written by a save_* function from a hand-built
  object of literal values (writer_cases), and must keep its exact bytes;
- track.json: what track returns on 16 seeded CALIBRATED_NOISE walks
  (oracle_walks), the outputs a behaviour-preserving change keeps;
- walks.json: the sha256 of the bytes save_trace and save_truth write for
  each of those walks, so the simulator's files stay byte-identical;
- report_<case>/: the report.txt, cdf.csv and confusion.csv that
  save_report writes for evaluate over the walks of each report_cases case.
A change that rewrites any of them says so, and why, in CHANGES.md.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import tempfile
from pathlib import Path

import numpy as np

from seamloc import (
    CALIBRATED_NOISE,
    Door,
    DoorAction,
    DoorOpenEvent,
    FloorPlan,
    Fingerprint,
    GroundTruth,
    PipelineConfig,
    Point2,
    Pose,
    RadioMap,
    Segment2,
    StepEvent,
    SwitchEvent,
    WalkScript,
    crossing_script,
    generate_walk,
    track,
    turn_back_script,
    two_building_plan,
)
from seamloc import evaluate
from seamloc.harness import EventLog, save_events, save_floorplan, save_path, save_radiomap, save_report
from seamloc.harness import save_trace, save_truth
from seamloc.sim import OPEN_AND_CROSS

GOLDEN = Path(__file__).resolve().parent / "golden"


def _trial() -> EventLog:
    """A step, an opening and a switch at t = 1.0 (written in that order), an
    opening before every step, a switch past the last step and an empty
    environment."""
    return EventLog(
        steps=[StepEvent(0, 0.5, 1.5), StepEvent(1, 1.0, 1.25), StepEvent(2, 1e300, 1.0)],
        door_opens=[DoorOpenEvent(5e-324, 0.25, 2), DoorOpenEvent(1.0, 2.0, 4)],
        switches=[  # in time order: step 7, past the last step, is written at t 0.0
            SwitchEvent(7, "doorB", Point2(-0.0, 5e-324), "outdoor", "indoor"),
            SwitchEvent(1, "doorA", Point2(10, 4), "indoor", "outdoor"),
        ],
        poses=[Pose(Point2(1, 0), 0), Pose(Point2(0.75, -0.0), -0.0), Pose(Point2(1e300, -5e-324), math.pi)],
        environments=["indoor", "outdoor", ""],
    )


def writer_cases() -> dict:
    """File name -> (save function, object): every writer, from literal values."""
    return {
        "plan.txt": (
            save_floorplan,
            FloorPlan(  # int coordinates, tangents and start heading
                walls=(Segment2(Point2(0, 0), Point2(10, 0)), Segment2(Point2(-0.0, 1e100), Point2(5e-324, 2.5))),
                doors=(
                    Door("doorA", Point2(10, 4), (0, 1), "indoor", "outdoor"),
                    Door("doorB", Point2(20.0, -0.0), (-1.0, -0.0), "hall", "yard"),
                ),
                start_position=Point2(4, 4),
                start_heading=0,
                start_environment="indoor",
            ),
        ),
        "plan_no_start.txt": (
            save_floorplan,
            FloorPlan(walls=(Segment2(Point2(0.1, 0.2), Point2(0.30000000000000004, 0.2)),), doors=()),
        ),
        "radiomap.txt": (
            save_radiomap,
            RadioMap(
                entries=(
                    Fingerprint(Point2(1, 2), {"ap2": -0.0, "ap1": -50, "ap10": -120.0}),
                    Fingerprint(Point2(1e300, 5e-324), {"b": -5e-324, "a": -73.25}),
                )
            ),
        ),
        "truth_group.txt": (
            save_truth,
            GroundTruth(
                step_times=np.array([0.5, 1.0, 1e300]),
                step_positions=np.array([[0.75, 0.0], [1.5, -0.0], [1e300, 5e-324]]),
                step_headings=np.array([0.0, -0.0, math.pi]),
                environments=("indoor", "outdoor", "outdoor"),
                door_open_intervals=((0.25, 0.75), (5e-324, 1e300)),
                crossings=((1, "doorA"),),
                turn_backs=((2, "doorB"),),
                initial_position=Point2(0, -0.0),
                initial_heading=0,
                initial_environment="indoor",
                group="phone A",
            ),
        ),
        "truth_no_group.txt": (
            save_truth,
            GroundTruth(  # int arrays
                step_times=np.array([1, 2]),
                step_positions=np.array([[1, 0], [2, 0]]),
                step_headings=np.array([0, 0]),
                environments=("outdoor", "outdoor"),
                door_open_intervals=(),
                crossings=(),
                turn_backs=(),
                initial_position=Point2(0, 0),
                initial_heading=0,
                initial_environment="outdoor",
            ),
        ),
        "trial.events.csv": (save_events, _trial()),
        "trial.path.csv": (save_path, _trial()),
    }


def oracle_walks() -> list[tuple[str, WalkScript, FloorPlan, int]]:
    """(name, script, plan, seed) of the 16 walks track.json holds."""
    plan = two_building_plan()
    door_a = plan.doors[0]
    outdoor_start = dataclasses.replace(
        plan, doors=(door_a,), start_position=Point2(15.0, 4.0), start_heading=math.pi, start_environment="outdoor"
    )
    # An outdoor_long-style walker: zig-zag legs of 0.80 m steps against the
    # tracker's 0.75 m, a plain stop and a door-opening wiggle, no walls.
    zigzag = (Point2(0.0, 0.0), Point2(8.0, 4.0), Point2(16.0, 0.0), Point2(24.0, 4.0), Point2(32.0, 0.0))
    open_field = FloorPlan(
        walls=(), doors=(), start_position=zigzag[0], start_heading=math.atan2(4.0, 8.0), start_environment="outdoor"
    )
    walker = WalkScript(
        waypoints=zigzag,
        pauses=((1, 3.0),),
        door_actions=(DoorAction(3, "gate", OPEN_AND_CROSS),),
        step_length_true=0.80,
        start_environment="outdoor",
    )
    walks = [(f"crossing-{i}", crossing_script(plan), plan, i) for i in range(5)]
    walks += [(f"turn-back-{i}", turn_back_script(plan), plan, 10 + i) for i in range(4)]
    paused = dataclasses.replace(crossing_script(plan), pauses=((1, 3.0), (3, 2.0)))
    walks += [(f"pause-{i}", paused, plan, 20 + i) for i in range(3)]
    walks += [(f"outdoor-start-{i}", crossing_script(outdoor_start), outdoor_start, 30 + i) for i in range(3)]
    walks.append(("walker-0.80", walker, open_field, 40))
    return walks


@functools.cache
def oracle_runs() -> tuple:
    """(name, trace, truth, log) of every oracle walk. The truth carries the
    plan's door crossings and, as its group, the walk's name without its number."""
    runs = []
    for name, script, plan, seed in oracle_walks():
        noise = dataclasses.replace(CALIBRATED_NOISE, seed=seed)
        trace, truth = generate_walk(script, noise, doors=plan.doors, group=name.rsplit("-", 1)[0])
        _, log = track(trace, plan, PipelineConfig(seed=seed))
        runs.append((name, trace, truth, log))
    return tuple(runs)


def track_records() -> list[dict]:
    """track's outputs on every oracle walk, as JSON values."""
    records = []
    for name, _, _, log in oracle_runs():
        records.append(
            {
                "name": name,
                "steps": [s.t for s in log.steps],
                "door_opens": [[d.t_start, d.t_end, d.zero_crossings] for d in log.door_opens],
                "switches": [[s.step_index, s.door_id, s.from_env, s.to_env] for s in log.switches],
                "crossing_points": [[s.crossing_point.x, s.crossing_point.y] for s in log.switches],
                "poses": [[p.position.x, p.position.y, p.heading] for p in log.poses],
                "environments": log.environments,
            }
        )
    return json.loads(json.dumps(records))


def walk_digests() -> dict[str, dict[str, str]]:
    """Walk name -> sha256 of the trace and truth files the simulator's writers make of it."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, trace, truth, _ in oracle_runs():
            digests[name] = {}
            for kind, save, obj in (("trace", save_trace, trace), ("truth", save_truth, truth)):
                path = Path(tmp) / kind
                save(obj, path)
                digests[name][kind] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


REPORT_FILES = ("report.txt", "cdf.csv", "confusion.csv")


def report_cases() -> dict[str, list]:
    """Case -> the (log, truth) pairs evaluate scores: every walk, the crossing
    walks alone (no negatives: FPR and TNR are NaN) and the turn-back walks alone
    (no positives: TPR and FNR are NaN)."""
    runs = oracle_runs()
    return {
        "all": [(log, truth) for _, _, truth, log in runs],
        "crossing": [(log, truth) for _, _, truth, log in runs if truth.group == "crossing"],
        "turn-back": [(log, truth) for _, _, truth, log in runs if truth.group == "turn-back"],
    }


def main() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, (save, obj) in writer_cases().items():
        save(obj, GOLDEN / name)
    (GOLDEN / "track.json").write_text(json.dumps(track_records(), indent=1) + "\n", encoding="utf-8")
    (GOLDEN / "walks.json").write_text(json.dumps(walk_digests(), indent=1) + "\n", encoding="utf-8")
    for case, results in report_cases().items():
        save_report(evaluate(results), GOLDEN / f"report_{case}")


if __name__ == "__main__":
    main()
