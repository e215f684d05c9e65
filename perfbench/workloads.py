"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each workload builds its inputs from the run seed in set-up, then lists the
operations one round of the timed phase performs. Every round replays the
same inputs, so the results of every round must be identical. The checks
compare the tracker's outputs with something computed apart from it: the
simulator's ground truth, the benchmark's own matcher, or plain dead
reckoning.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from seamloc import cli, harness, pdr, sim
from seamloc.geometry import FloorPlan, Point2, Segment2
from seamloc.pdr import wrap_angle

SAMPLE_RATE = 100.0  # Hz, the simulator's default, passed explicitly
STEP = 0.75  # m, the simulator's and the tracker's default step length
PIPELINE = harness.PipelineConfig()

# Gyro with a strong bias, so that plain dead reckoning drifts into the walls
# and the particle filter has something to correct.
BIASED_GYRO_NOISE = sim.NoiseModel(accel_sigma=0.05, gyro_sigma=0.01, gyro_bias=0.02, mag_sigma=0.5)


@dataclass
class Op:
    """One timed operation. `intervals` are the true door-opening intervals
    of the trace it tracks, for the traced run's false-opening count."""

    fn: Callable[[], Any]
    intervals: tuple[tuple[float, float], ...] | None = None


def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=n)]


def _distance(a, b) -> float:
    return math.hypot(a[0] - b[0], a[1] - b[1])


class Workload:
    name = ""

    def setup_ops(self) -> list[Op]:
        raise NotImplementedError

    def after_setup(self) -> None:
        """Untimed work after the last set-up, such as reading back inputs."""

    def replay_ops(self) -> list[Op]:
        raise NotImplementedError

    trace_seconds = 0.0  # seconds of trace replayed per round

    def outcome(self, results: list[Any]) -> dict:
        """Per-round summary; equal summaries mean identical outputs."""
        raise NotImplementedError

    def check(self, outcome: dict) -> list[str]:
        """Problems found in a round's outcome; empty when all checks pass."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# paper_cli: the paper's protocol on files, through seamloc.cli.main
# ---------------------------------------------------------------------------


def _write_walk_script(script: sim.WalkScript, path: Path) -> None:
    lines = ["version: 1"]
    lines += [f"waypoint: {p.x!r} {p.y!r}" for p in script.waypoints]
    lines += [f"door_action: {a.waypoint} {a.door_id} {a.action}" for a in script.door_actions]
    lines += [f"pause: {w} {s!r}" for w, s in script.pauses]
    lines += [
        f"cadence: {script.cadence!r}",
        f"step_length: {script.step_length_true!r}",
        f"start_environment: {script.start_environment}",
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _read_truth(path: Path) -> dict:
    """The benchmark's own reader for the fields its checks need."""
    truth = {"crossings": [], "turn_backs": [], "door_opens": [], "final": None}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if key == "final":
            truth["final"] = (float(parts[0]), float(parts[1]))
        elif key == "crossing":
            truth["crossings"].append((int(parts[0]), parts[1]))
        elif key == "turn_back":
            truth["turn_backs"].append((int(parts[0]), parts[1]))
        elif key == "door_open":
            truth["door_opens"].append((float(parts[0]), float(parts[1])))
    return truth


def _read_switches(events_path: Path) -> list[tuple[int, str]]:
    switches = []
    for line in events_path.read_text(encoding="utf-8").splitlines()[1:]:
        cols = line.split(",")
        if cols[0] == "switch":
            switches.append((int(cols[1]), cols[3]))
    return switches


def _last_position(path_csv: Path) -> tuple[float, float] | None:
    rows = path_csv.read_text(encoding="utf-8").splitlines()
    if len(rows) < 2:
        return None
    cols = rows[-1].split(",")
    return float(cols[2]), float(cols[3])


def match_switches(switches, crossings, window: int) -> tuple[int, int]:
    """(true positives, false positives): each true crossing takes the nearest
    unused switch through the same door within `window` steps."""
    free = list(switches)
    tp = 0
    for step, door in crossings:
        near = [s for s in free if s[1] == door and abs(s[0] - step) <= window]
        if near:
            free.remove(min(near, key=lambda s: abs(s[0] - step)))
            tp += 1
    return tp, len(free)


class PaperCli(Workload):
    """Two-building crossing walks and turn-back walks under calibrated noise,
    simulated, tracked, evaluated and reported through the command line."""

    name = "paper_cli"
    SIZES = {"full": (16, 8), "tiny": (2, 1)}  # crossing walks, turn-back walks

    def __init__(self, seed: int, size: str, workdir: Path):
        n_cross, n_back = self.SIZES[size]
        rng = np.random.default_rng([seed, 1])
        self.dir = workdir
        self.trials_dir = workdir / "trials"
        self.out_dir = workdir / "tracked"
        self.report_dir = workdir / "report"
        plan = sim.two_building_plan()
        self.plan_file = workdir / "plan.txt"
        harness.save_floorplan(plan, self.plan_file)
        scripts = {
            "crossing": sim.crossing_script(plan),
            "turn_back": sim.turn_back_script(plan),
        }
        for kind, script in scripts.items():
            _write_walk_script(script, workdir / f"{kind}.walk.txt")
        noise = {k: v for k, v in dataclasses.asdict(sim.CALIBRATED_NOISE).items() if k != "seed"}
        self.config_file = workdir / "config.json"
        self.config_file.write_text(json.dumps({"noise": noise, "sim": {"sample_rate": SAMPLE_RATE}}))
        kinds = ["crossing"] * n_cross + ["turn_back"] * n_back
        noise_seeds = _seeds(rng, len(kinds))
        pf_seeds = _seeds(rng, len(kinds))
        self.trials = [
            (f"t{i:03d}", kind, noise_seeds[i], pf_seeds[i]) for i, kind in enumerate(kinds)
        ]
        self.truths: dict[str, dict] = {}
        self.trace_seconds = 0.0

    @staticmethod
    def _cli(argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"seamloc {argv[0]} exited {code}")
        return out.getvalue()

    def _simulate(self, name: str, kind: str, noise_seed: int):
        return self._cli(
            [
                "simulate", "--script", str(self.dir / f"{kind}.walk.txt"), "--plan", str(self.plan_file),
                "--out", str(self.trials_dir), "--name", name, "--config", str(self.config_file),
                "--seed", str(noise_seed),
            ]
        )

    def setup_ops(self) -> list[Op]:
        # Every set-up writes into a fresh directory, so none overwrites files.
        shutil.rmtree(self.trials_dir, ignore_errors=True)
        return [Op(lambda n=n, k=k, s=s: self._simulate(n, k, s)) for n, k, s, _ in self.trials]

    def after_setup(self) -> None:
        # Read back what set-up wrote, with the benchmark's own reader.
        self.truths = {n: _read_truth(self.trials_dir / f"{n}.truth.txt") for n, *_ in self.trials}
        samples = sum(
            sum(1 for _ in open(self.trials_dir / f"{n}.trace.csv", encoding="utf-8")) - 1 for n, *_ in self.trials
        )
        self.trace_seconds = samples / SAMPLE_RATE

    def replay_ops(self) -> list[Op]:
        ops = []
        for name, _, _, pf_seed in self.trials:
            argv = [
                "track", "--trace", str(self.trials_dir / f"{name}.trace.csv"), "--plan", str(self.plan_file),
                "--out", str(self.out_dir), "--name", name, "--seed", str(pf_seed),
            ]
            ops.append(Op(lambda argv=argv: self._cli(argv), tuple(self.truths[name]["door_opens"])))
        eval_argv = ["eval", "--events", str(self.out_dir), "--truth", str(self.trials_dir), "--out", str(self.report_dir)]
        ops.append(Op(lambda: self._cli(eval_argv)))
        ops.append(Op(lambda: self._cli(["report", "--in", str(self.report_dir)])))
        return ops

    def outcome(self, results: list[Any]) -> dict:
        window = harness.CrossingConfig().coincidence_steps
        tp = fp = positives = negatives = 0
        errors = []
        for name, *_ in self.trials:
            truth = self.truths[name]
            switches = _read_switches(self.out_dir / f"{name}.events.csv")
            t, f = match_switches(switches, truth["crossings"], window)
            tp, fp = tp + t, fp + f
            positives += len(truth["crossings"])
            negatives += len(truth["turn_backs"])
            last = _last_position(self.out_dir / f"{name}.path.csv")
            errors.append(_distance(last, truth["final"]) if last else float("inf"))
        return {
            "tp": tp, "fp": fp, "positives": positives, "negatives": negatives,
            "final_errors": errors, "final_error_m": sum(errors) / len(errors), "report": results[-1],
        }

    def check(self, o: dict) -> list[str]:
        problems = []
        report = o["report"] or ""
        want = (
            f"true crossings: {o['positives']}   detected: {o['tp']}",
            f"negative approaches: {o['negatives']}   false switches: {o['fp']}",
        )
        for line in want:
            if line not in report:
                problems.append(f"report.txt disagrees with the benchmark's matcher: no line {line!r}")
        tpr = o["tp"] / o["positives"] if o["positives"] else 0.0
        fpr = o["fp"] / o["negatives"] if o["negatives"] else 1.0
        if tpr < 0.90:
            problems.append(f"TPR {tpr:.3f} < 0.90")
        if fpr > 0.02:
            problems.append(f"FPR {fpr:.3f} > 0.02")
        avg = next((ln for ln in report.splitlines() if "average" in ln), "")
        if f"average {o['final_error_m']:.3f}" not in avg:
            problems.append(f"report average {avg.strip()!r} != {o['final_error_m']:.3f}")
        return problems


# ---------------------------------------------------------------------------
# In-memory workloads: harness.track on walks built with sim.generate_walk
# ---------------------------------------------------------------------------


class InMemory(Workload):
    """Shared shape of the in-memory workloads: walks built in set-up with
    sim.generate_walk, one harness.track call per walk in the timed phase."""

    def __init__(self, seed: int, size: str, workdir: Path):
        self.walks: list[tuple[sim.WalkScript, sim.NoiseModel, FloorPlan]] = []
        self.built: list[tuple[Any, Any]] = []
        self.seed = seed

    def _build(self, i: int) -> None:
        script, noise, _ = self.walks[i]
        self.built[i] = sim.generate_walk(script, noise, sample_rate=SAMPLE_RATE)

    def setup_ops(self) -> list[Op]:
        self.built = [None] * len(self.walks)
        return [Op(lambda i=i: self._build(i)) for i in range(len(self.walks))]

    @property
    def trace_seconds(self) -> float:
        return sum(len(trace) for trace, _ in self.built) / SAMPLE_RATE

    def replay_ops(self) -> list[Op]:
        ops = []
        for i, (trace, truth) in enumerate(self.built):
            plan = self.walks[i][2]
            cfg = dataclasses.replace(PIPELINE, seed=self.seed + i)
            ops.append(
                Op(lambda trace=trace, plan=plan, cfg=cfg: harness.track(trace, plan, cfg), truth.door_open_intervals)
            )
        return ops

    def _common(self, results) -> tuple[dict, list[str]]:
        errors = []
        problems = []
        for (trace, truth), (path, log) in zip(self.built, results):
            if len(log.steps) != truth.step_count:
                problems.append(f"{len(log.steps)} steps detected, simulator made {truth.step_count}")
            if log.switches:
                problems.append(f"{len(log.switches)} environment switches on a walk through no door")
            errors.append(_distance(
                (path[-1].position.x, path[-1].position.y), (truth.final_position.x, truth.final_position.y)
            ) if path else float("inf"))
        return {"final_errors": errors, "final_error_m": sum(errors) / len(errors)}, problems


# ---------------------------------------------------------------------------
# outdoor_long: long outdoor walks, no walls, no doors
# ---------------------------------------------------------------------------

# True step length of the outdoor walker. The tracker keeps its fixed 0.75 m
# step, so the final error is mostly a systematic along-track error that
# repeats across seeds, not the few centimetres of heading noise alone.
WALKER_STEP = 0.80  # m


class OutdoorLong(InMemory):
    """Long outdoor zig-zag walks with turns, plain stops and door-opening
    wiggles under calibrated noise, by a walker whose steps are longer than
    the tracker assumes. The plan has no walls and no doors."""

    name = "outdoor_long"
    SIZES = {"full": (10, 6), "tiny": (2, 2)}  # walks, legs per walk

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        n_walks, n_legs = self.SIZES[size]
        rng = np.random.default_rng([seed, 2])
        for noise_seed in _seeds(rng, n_walks):
            base = float(rng.uniform(-math.pi, math.pi))
            points = [Point2(0.0, 0.0)]
            for leg in range(n_legs):
                heading = wrap_angle(base + (-1) ** leg * float(rng.uniform(0.4, 0.8)))
                length = WALKER_STEP * int(rng.integers(10, 15))
                last = points[-1]
                points.append(Point2(last.x + length * math.cos(heading), last.y + length * math.sin(heading)))
            # Plain stops at every other inner waypoint, one door-opening
            # wiggle at the last inner waypoint (or at the end of the walk).
            inner = list(range(1, n_legs))
            stops, wiggle = (inner[:-1:2], inner[-1]) if len(inner) > 1 else (inner, n_legs)
            script = sim.WalkScript(
                waypoints=tuple(points),
                pauses=tuple((w, float(rng.uniform(2.0, 4.0))) for w in stops),
                door_actions=(sim.DoorAction(waypoint=wiggle, door_id="gate", action=sim.OPEN_AND_CROSS),),
                step_length_true=WALKER_STEP,
                start_environment="outdoor",
            )
            start_heading = math.atan2(points[1].y - points[0].y, points[1].x - points[0].x)
            plan = FloorPlan(
                walls=(), doors=(), start_position=points[0], start_heading=start_heading, start_environment="outdoor"
            )
            self.walks.append((script, dataclasses.replace(sim.CALIBRATED_NOISE, seed=noise_seed), plan))

    def outcome(self, results) -> dict:
        o, problems = self._common(results)
        errs = []
        for (trace, truth), (path, _) in zip(self.built, results):
            for pose, true_heading in zip(path, truth.step_headings):
                errs.append(abs(wrap_angle(pose.heading - float(true_heading))))
        o["heading_error_rad"] = sum(errs) / len(errs) if errs else float("inf")
        o["problems"] = problems
        return o

    def check(self, o: dict) -> list[str]:
        problems = list(o["problems"])
        if not o["heading_error_rad"] < 0.2:
            problems.append(f"mean heading error {o['heading_error_rad']:.3f} rad >= 0.2")
        return problems


# ---------------------------------------------------------------------------
# indoor_walls: in-memory track around a ring corridor of short wall pieces
# ---------------------------------------------------------------------------

RING_SIDES = (30, 20, 30, 20)  # centreline sides of the ring, in steps
CORRIDOR = 2.0  # m
WALL_PIECE = 1.0  # m, nominal length of one wall segment


def _pieces(x0, y0, x1, y1) -> list[Segment2]:
    n = max(1, int(round(math.hypot(x1 - x0, y1 - y0) / WALL_PIECE)))
    pts = [Point2(x0 + (x1 - x0) * i / n, y0 + (y1 - y0) * i / n) for i in range(n + 1)]
    return [Segment2(a, b) for a, b in zip(pts, pts[1:])]


def _box(x0, y0, x1, y1) -> list[Segment2]:
    return _pieces(x0, y0, x1, y0) + _pieces(x1, y0, x1, y1) + _pieces(x1, y1, x0, y1) + _pieces(x0, y1, x0, y0)


def ring_plan() -> FloorPlan:
    """A 2 m ring corridor whose walls are cut into 1 m pieces, plus eight
    closed 3.5 m rooms inside the ring, off the walking path."""
    w = RING_SIDES[0] * STEP + CORRIDOR
    h = RING_SIDES[1] * STEP + CORRIDOR
    walls = _box(0.0, 0.0, w, h) + _box(CORRIDOR, CORRIDOR, w - CORRIDOR, h - CORRIDOR)
    for row in range(2):
        for col in range(4):
            x0, y0 = CORRIDOR + 1.0 + 4.75 * col, CORRIDOR + 1.0 + 6.5 * row
            walls += _box(x0, y0, x0 + 3.5, y0 + 3.5)
    return FloorPlan(walls=tuple(walls), doors=())


def _ring_point(k: int) -> Point2:
    """Centreline point k steps along the ring from its south-west corner."""
    half = CORRIDOR / 2
    corners = [(half, half), (half + RING_SIDES[0] * STEP, half),
               (half + RING_SIDES[0] * STEP, half + RING_SIDES[1] * STEP), (half, half + RING_SIDES[1] * STEP)]
    k %= sum(RING_SIDES)
    for side, n in enumerate(RING_SIDES):
        if k <= n:
            (ax, ay), (bx, by) = corners[side], corners[(side + 1) % 4]
            return Point2(ax + (bx - ax) * k / n, ay + (by - ay) * k / n)
        k -= n
    raise AssertionError("unreachable")


class IndoorWalls(InMemory):
    """Walks of whole steps along the ring's centreline, turning at its
    corners, with a strongly biased gyro. No doors."""

    name = "indoor_walls"
    SIZES = {"full": (12, 20), "tiny": (2, 8)}  # walks, steps per walk

    def __init__(self, seed: int, size: str, workdir: Path):
        super().__init__(seed, size, workdir)
        n_walks, n_steps = self.SIZES[size]
        rng = np.random.default_rng([seed, 3])
        base = ring_plan()
        corners = np.cumsum((0,) + RING_SIDES * 2)
        for noise_seed in _seeds(rng, n_walks):
            k0 = int(rng.integers(0, sum(RING_SIDES)))
            ks = [k0] + [int(c) for c in corners if k0 < c < k0 + n_steps] + [k0 + n_steps]
            points = [_ring_point(k) for k in ks]
            heading = math.atan2(points[1].y - points[0].y, points[1].x - points[0].x)
            plan = dataclasses.replace(
                base, start_position=points[0], start_heading=heading, start_environment="indoor"
            )
            script = sim.WalkScript(waypoints=tuple(points), start_environment="indoor")
            self.walks.append((script, dataclasses.replace(BIASED_GYRO_NOISE, seed=noise_seed), plan))

    def outcome(self, results) -> dict:
        o, problems = self._common(results)
        pdr_errors = []
        for (trace, truth), (_, log), (_, _, plan) in zip(self.built, results, self.walks):
            start = pdr.Pose(plan.start_position, plan.start_heading)
            poses = pdr.run_pdr(trace, log.steps, pdr.PdrConfig(initial_pose=start))
            end = poses[-1].position if poses else start.position
            pdr_errors.append(_distance((end.x, end.y), (truth.final_position.x, truth.final_position.y)))
        o["pdr_final_error_m"] = sum(pdr_errors) / len(pdr_errors)
        o["problems"] = problems
        return o

    def check(self, o: dict) -> list[str]:
        problems = list(o["problems"])
        if not o["final_error_m"] < o["pdr_final_error_m"]:
            problems.append(
                f"PF final error {o['final_error_m']:.3f} m not below dead reckoning's {o['pdr_final_error_m']:.3f} m"
            )
        return problems


WORKLOADS = {w.name: w for w in (PaperCli, OutdoorLong, IndoorWalls)}
