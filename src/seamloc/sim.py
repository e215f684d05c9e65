"""Synthetic pedestrian walks with ground truth.

Generates IMU traces whose normalized acceleration reproduces the gait and
door-opening signatures the detectors consume: one 2 m/s^2 sinusoid cycle
per step, and a 1.5 s low-amplitude wiggle while a door is opened. Turns
happen in place between legs as a single-sample gyro spike, which the
trapezoidal heading integrator reproduces exactly, so a noiseless trace
dead-reckons back to the true path to machine precision.

The acceleration is a list of blocks joined once: zeros per pause, one
wiggle per door opening, and per leg the step cycle tiled once per step. A
turn spikes the first sample of the next non-empty block. Step positions are
running sums along each leg, so traces are byte-identical to earlier versions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidParameterError, InvalidScriptError
from .geometry import Door, FloorPlan, Point2, Segment2, segment_intersection, zone_for_door
from .pdr import wrap_angle
from .signal import Trace

GRAVITY = 9.81
STEP_AMPLITUDE = 2.0  # m/s^2, clears the +/-1.5 step thresholds
JIGGLE_AMPLITUDE = 0.8  # m/s^2, inside the door band, under step thresholds
JIGGLE_PERIOD = 0.4  # s
JIGGLE_DURATION = 1.5  # s
MAG_HORIZONTAL = 22.0  # uT
MAG_VERTICAL = -43.0  # uT

OPEN_AND_CROSS = "open-and-cross"
TURN_BACK = "approach-and-turn-back"


@dataclass(frozen=True)
class DoorAction:
    waypoint: int
    door_id: str
    action: str

    def __post_init__(self):
        if self.action not in (OPEN_AND_CROSS, TURN_BACK):
            raise InvalidParameterError(f"unknown door action {self.action!r}")


@dataclass(frozen=True)
class WalkScript:
    waypoints: tuple[Point2, ...]
    cadence: float = 2.0
    step_length_true: float = 0.75
    door_actions: tuple[DoorAction, ...] = ()
    pauses: tuple[tuple[int, float], ...] = ()
    start_environment: str = "indoor"

    def __post_init__(self):
        if len(self.waypoints) < 2:
            raise InvalidScriptError("need at least two waypoints")
        if not (0 < self.cadence < math.inf and 0 < self.step_length_true < math.inf):
            raise InvalidScriptError("cadence and step length must be positive and finite")
        for a, b in zip(self.waypoints, self.waypoints[1:]):
            if a.x == b.x and a.y == b.y:
                raise InvalidScriptError("coincident consecutive waypoints")
            if math.hypot(b.x - a.x, b.y - a.y) == math.inf:
                raise InvalidScriptError(f"leg from ({a.x}, {a.y}) to ({b.x}, {b.y}) has no finite length")
        for waypoint in [w for w, _ in self.pauses] + [a.waypoint for a in self.door_actions]:
            if not 0 <= waypoint < len(self.waypoints):
                raise InvalidScriptError(f"pause or door action at waypoint {waypoint}: no such waypoint")
        if not all(0 <= seconds < math.inf for _, seconds in self.pauses):
            raise InvalidScriptError("pause seconds must be finite and >= 0")


@dataclass(frozen=True)
class NoiseModel:
    accel_sigma: float = 0.0  # m/s^2
    gyro_sigma: float = 0.0  # rad/s
    gyro_bias: float = 0.0  # rad/s
    mag_sigma: float = 0.0  # uT
    seed: int = 0

    def __post_init__(self):
        if min(self.accel_sigma, self.gyro_sigma, self.mag_sigma) < 0:
            raise InvalidParameterError("noise sigmas must be non-negative")


# Noise level used by the synthetic evaluation protocol: small enough that
# step detection stays reliable, large enough that dead reckoning drifts.
CALIBRATED_NOISE = NoiseModel(accel_sigma=0.05, gyro_sigma=0.005, gyro_bias=0.002, mag_sigma=0.5)


@dataclass
class GroundTruth:
    step_times: np.ndarray  # (K,)
    step_positions: np.ndarray  # (K, 2)
    step_headings: np.ndarray  # (K,)
    environments: tuple[str, ...]  # per step, after the step
    door_open_intervals: tuple[tuple[float, float], ...]
    crossings: tuple[tuple[int, str], ...]  # (step index, door id)
    turn_backs: tuple[tuple[int, str], ...]  # (step index, door id)
    initial_position: Point2
    initial_heading: float
    initial_environment: str
    group: str = ""

    def __post_init__(self):
        k = len(self.step_times)
        if not (len(self.step_positions) == len(self.step_headings) == len(self.environments) == k):
            raise InvalidParameterError("ground truth arrays differ in length")
        env = self.initial_environment
        cross_steps = {s for s, _ in self.crossings}
        for i, e in enumerate(self.environments):
            if e != env and i not in cross_steps:
                raise InvalidParameterError(f"environment changed at step {i} without a crossing")
            env = e

    @property
    def step_count(self) -> int:
        return len(self.step_times)

    @property
    def final_position(self) -> Point2:
        if self.step_count == 0:
            return self.initial_position
        return Point2(float(self.step_positions[-1, 0]), float(self.step_positions[-1, 1]))


def generate_walk(
    script: WalkScript,
    noise: NoiseModel = NoiseModel(),
    sample_rate: float = 100.0,
    doors: tuple[Door, ...] = (),
    zone_width: float = 5.0,
    group: str = "",
) -> tuple[Trace, GroundTruth]:
    """Synthesize one walk: IMU trace plus per-step ground truth.

    When doors are given, true zone crossings are located geometrically on
    the true step segments and the environment label toggles there.
    """
    if sample_rate < 20:
        raise InvalidParameterError(f"sample_rate must be >= 20 Hz, got {sample_rate}")
    dt = 1.0 / sample_rate
    cycle = int(round(sample_rate / script.cadence))
    if cycle < 4:
        raise InvalidParameterError("cadence too fast for the sample rate")
    step_cycle = STEP_AMPLITUDE * np.sin(2.0 * math.pi * np.arange(cycle) / cycle)
    jiggle_len = int(round(JIGGLE_DURATION * sample_rate))
    jiggle = JIGGLE_AMPLITUDE * np.sin(2.0 * math.pi * (np.arange(jiggle_len) * dt) / JIGGLE_PERIOD)

    pauses = dict(script.pauses)
    actions: dict[int, DoorAction] = {a.waypoint: a for a in script.door_actions}
    zones = {d.id: zone_for_door(d, zone_width) for d in doors}
    door_by_id = {d.id: d for d in doors}

    blocks: list[np.ndarray] = []  # acceleration, one block per pause, wiggle and leg
    spikes: dict[int, float] = {}  # sample index -> turn rate
    n = 0
    pending_turn = 0.0
    env = script.start_environment
    pos = np.array([script.waypoints[0].x, script.waypoints[0].y])
    leg_headings = [math.atan2(b.y - a.y, b.x - a.x) for a, b in zip(script.waypoints, script.waypoints[1:])]
    heading = leg_headings[0]

    step_times: list[float] = []
    step_positions: list[np.ndarray] = [np.empty((0, 2))]
    step_headings: list[float] = []
    environments: list[str] = []
    door_intervals: list[tuple[float, float]] = []
    crossings: list[tuple[int, str]] = []
    turn_backs: list[tuple[int, str]] = []

    def append(block: np.ndarray) -> int:
        """Add a block; a pending turn rides its first sample. Returns its start index."""
        nonlocal n, pending_turn
        start = n
        if len(block):
            blocks.append(block)
            n += len(block)
            if pending_turn != 0.0:
                spikes[start] = pending_turn / dt
                pending_turn = 0.0
        return start

    def dwell(waypoint: int):
        append(np.zeros(int(round(pauses.get(waypoint, 0.0) * sample_rate))))
        action = actions.get(waypoint)
        if action is None:
            return
        if action.action == OPEN_AND_CROSS:
            start = append(jiggle)
            door_intervals.append((start * dt, (start + jiggle_len) * dt))
        else:
            turn_backs.append((len(step_times) - 1, action.door_id))

    for j, (a, b) in enumerate(zip(script.waypoints, script.waypoints[1:])):
        dwell(j)
        psi = leg_headings[j]
        pending_turn += wrap_angle(psi - heading)
        heading = psi
        n_steps = int(round(math.hypot(b.x - a.x, b.y - a.y) / script.step_length_true))
        start = append(np.tile(step_cycle, n_steps))
        # Sequential sums from the leg's start, as one step after another.
        d = script.step_length_true * np.array([math.cos(psi), math.sin(psi)])
        leg = np.cumsum(np.vstack([pos, np.tile(d, (n_steps, 1))]), axis=0)
        bad = ~np.isfinite(leg[1:]).all(axis=1) | (leg[1:] == leg[:-1]).all(axis=1)
        if bad.any():  # the first bad step raises as its Point2 or Segment2 would
            i = int(np.argmax(bad))
            Segment2(Point2(*leg[i]), Point2(*leg[i + 1]))
        base = len(step_times)
        step_times += (((start + cycle * np.arange(n_steps)) + 0.25 * cycle) * dt).tolist()
        step_positions.append(leg[1:])
        step_headings += [psi] * n_steps
        environments += [env] * n_steps
        if zones:  # crossing truth: the scalar segment test, step by step
            points = leg.tolist()
            for i in range(n_steps):
                seg = Segment2(Point2(*points[i]), Point2(*points[i + 1]))
                for door_id, zone in zones.items():
                    if segment_intersection(zone, seg) is not None:
                        if crossings and crossings[-1] == (base + i - 1, door_id):
                            continue  # step landed on the zone line; same traversal, not a new crossing
                        crossings.append((base + i, door_id))
                        env = door_by_id[door_id].other_side(env)
                environments[base + i] = env
        pos = leg[-1]
    dwell(len(script.waypoints) - 1)
    if not n:
        raise InvalidScriptError("walk has no samples: no steps, pauses or door wiggles")

    t = np.arange(n) * dt
    a_norm = np.concatenate(blocks)
    rate = np.zeros(n)
    rate[list(spikes)] = list(spikes.values())

    # True heading per sample: trapezoidal integral of the clean turn rate.
    psi_true = np.empty(n)
    psi_true[0] = leg_headings[0]
    if n > 1:
        psi_true[1:] = leg_headings[0] + np.cumsum(0.5 * (rate[:-1] + rate[1:]) * dt)

    rng = np.random.default_rng(noise.seed)
    accel = np.column_stack(
        [
            rng.normal(0.0, noise.accel_sigma, n),
            rng.normal(0.0, noise.accel_sigma, n),
            GRAVITY + a_norm + rng.normal(0.0, noise.accel_sigma, n),
        ]
    )
    gyro = np.column_stack(
        [
            rng.normal(0.0, noise.gyro_sigma, n),
            rng.normal(0.0, noise.gyro_sigma, n),
            rate + noise.gyro_bias + rng.normal(0.0, noise.gyro_sigma, n),
        ]
    )
    mag = np.column_stack(
        [
            MAG_HORIZONTAL * np.cos(psi_true) + rng.normal(0.0, noise.mag_sigma, n),
            -MAG_HORIZONTAL * np.sin(psi_true) + rng.normal(0.0, noise.mag_sigma, n),
            np.full(n, MAG_VERTICAL) + rng.normal(0.0, noise.mag_sigma, n),
        ]
    )

    trace = Trace(t=t, accel=accel, gyro=gyro, mag=mag)
    truth = GroundTruth(
        step_times=np.array(step_times),
        step_positions=np.concatenate(step_positions),
        step_headings=np.array(step_headings),
        environments=tuple(environments),
        door_open_intervals=tuple(door_intervals),
        crossings=tuple(crossings),
        turn_backs=tuple(turn_backs),
        initial_position=script.waypoints[0],
        initial_heading=leg_headings[0],
        initial_environment=script.start_environment,
        group=group,
    )
    return trace, truth


def two_building_plan() -> FloorPlan:
    """Canonical fixture: two buildings joined by an outdoor stretch.

    Building A spans x in [0, 10], building B x in [20, 30], both y in
    [0, 8]; each has a 0.9 m doorway centered at y = 4 on the facing wall.
    """
    def rect_with_gap(x0, x1, y0, y1, gap_wall: str):
        gap_lo, gap_hi = 4.0 - 0.45, 4.0 + 0.45
        segs = []
        for (ax, ay, bx, by), name in (
            ((x0, y0, x1, y0), "south"),
            ((x1, y0, x1, y1), "east"),
            ((x1, y1, x0, y1), "north"),
            ((x0, y1, x0, y0), "west"),
        ):
            if name == gap_wall:
                x = ax  # vertical wall
                segs.append(Segment2(Point2(x, y0), Point2(x, gap_lo)))
                segs.append(Segment2(Point2(x, gap_hi), Point2(x, y1)))
            else:
                segs.append(Segment2(Point2(ax, ay), Point2(bx, by)))
        return segs

    walls = tuple(rect_with_gap(0.0, 10.0, 0.0, 8.0, "east") + rect_with_gap(20.0, 30.0, 0.0, 8.0, "west"))
    doors = (
        Door(id="doorA", center=Point2(10.0, 4.0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor"),
        Door(id="doorB", center=Point2(20.0, 4.0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor"),
    )
    return FloorPlan(
        walls=walls,
        doors=doors,
        start_position=Point2(4.6, 4.0),
        start_heading=0.0,
        start_environment="indoor",
    )


def _door_normal_toward(door: Door, point: np.ndarray) -> np.ndarray:
    """Unit normal of the door wall pointing toward the given side."""
    tx, ty = door.tangent
    normal = np.array([ty, -tx])
    offset = point - np.array([door.center.x, door.center.y])
    return normal if float(offset @ normal) >= 0 else -normal


def crossing_script(plan: FloorPlan, approach: float = 0.7, depart: float = 3.05) -> WalkScript:
    """Walk from the plan's start through every door in order."""
    start = plan.start_position
    waypoints = [start]
    actions = []
    cursor = np.array([start.x, start.y])
    for door in plan.doors:
        normal = _door_normal_toward(door, cursor)
        center = np.array([door.center.x, door.center.y])
        front = center + approach * normal
        back = center - depart * normal
        waypoints.append(Point2(float(front[0]), float(front[1])))
        actions.append(DoorAction(waypoint=len(waypoints) - 1, door_id=door.id, action=OPEN_AND_CROSS))
        waypoints.append(Point2(float(back[0]), float(back[1])))
        cursor = back
    return WalkScript(
        waypoints=tuple(waypoints),
        door_actions=tuple(actions),
        start_environment=plan.start_environment or "indoor",
    )


def turn_back_script(plan: FloorPlan, approach: float = 1.45) -> WalkScript:
    """Walk toward the first door, reverse just in front of it, return."""
    start = plan.start_position
    door = plan.doors[0]
    cursor = np.array([start.x, start.y])
    normal = _door_normal_toward(door, cursor)
    center = np.array([door.center.x, door.center.y])
    front = center + approach * normal
    return WalkScript(
        waypoints=(start, Point2(float(front[0]), float(front[1])), start),
        door_actions=(DoorAction(waypoint=1, door_id=door.id, action=TURN_BACK),),
        start_environment=plan.start_environment or "indoor",
    )


def scenario_suite(
    plan: FloorPlan,
    n_trials: int,
    noise: NoiseModel = NoiseModel(),
    crossing_fraction: float = 1.0,
    sample_rate: float = 100.0,
    zone_width: float = 5.0,
) -> list[tuple[Trace, GroundTruth]]:
    """Independent seeded trials: crossing walks and turn-back walks.

    The first round(n_trials * crossing_fraction) trials cross every door of
    the plan; the rest approach the first door and turn back.
    """
    if not plan.doors:
        raise InvalidParameterError("plan has no doors")
    n_cross = int(round(n_trials * crossing_fraction))
    trials = []
    for i in range(n_trials):
        trial_noise = replace(noise, seed=noise.seed + i)
        if i < n_cross:
            script, group = crossing_script(plan), "crossing"
        else:
            script, group = turn_back_script(plan), "turn_back"
        trials.append(
            generate_walk(
                script,
                trial_noise,
                sample_rate=sample_rate,
                doors=plan.doors,
                zone_width=zone_width,
                group=group,
            )
        )
    return trials
