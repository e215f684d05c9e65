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
from .crossing import CrossingConfig, build_zone_lookup
from .geometry import Door, FloorPlan, Point2, Segment2, segment_intersection
from .pdr import wrap_angle
from .signal import Trace

GRAVITY = 9.81
STEP_AMPLITUDE = 2.0  # m/s^2, clears the +/-1.5 step thresholds
JIGGLE_AMPLITUDE = 0.8  # m/s^2, inside the door band, under step thresholds
JIGGLE_PERIOD = 0.4  # s
JIGGLE_DURATION = 1.5  # s
MAG_HORIZONTAL = 22.0  # uT
MAG_VERTICAL = -43.0  # uT
# generate_walk refuses a walk of more samples than this (about 28 h at 100 Hz) before building it.
MAX_WALK_SAMPLES = 10**7

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
        # Each error names the record it is about: a leg by its second waypoint.
        for i, (a, b) in enumerate(zip(self.waypoints, self.waypoints[1:]), start=1):
            if a.x == b.x and a.y == b.y:
                raise InvalidScriptError("coincident consecutive waypoints", record=("waypoint", i))
            if math.hypot(b.x - a.x, b.y - a.y) == math.inf:
                raise InvalidScriptError(
                    f"leg from ({a.x}, {a.y}) to ({b.x}, {b.y}) has no finite length", record=("waypoint", i)
                )
        at = {"pause": [w for w, _ in self.pauses], "door_action": [a.waypoint for a in self.door_actions]}
        for key, waypoints in at.items():
            for k, waypoint in enumerate(waypoints):
                if not 0 <= waypoint < len(self.waypoints):
                    raise InvalidScriptError(f"{key} at waypoint {waypoint}: no such waypoint", record=(key, k))
        for k, (_, seconds) in enumerate(self.pauses):
            if not 0 <= seconds < math.inf:
                raise InvalidScriptError("pause seconds must be finite and >= 0", record=("pause", k))


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
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")


# Noise level used by the synthetic evaluation protocol: small enough that
# step detection stays reliable, large enough that dead reckoning drifts.
CALIBRATED_NOISE = NoiseModel(accel_sigma=0.05, gyro_sigma=0.005, gyro_bias=0.002, mag_sigma=0.5)


def uncrossed_change(initial_environment: str, environments, crossings) -> int | None:
    """Index of the first step whose environment differs from the one before
    it with no crossing at that step, or None."""
    env, cross_steps = initial_environment, {s for s, _ in crossings}
    for i, e in enumerate(environments):
        if e != env and i not in cross_steps:
            return i
        env = e
    return None


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
        i = uncrossed_change(self.initial_environment, self.environments, self.crossings)
        if i is not None:
            raise InvalidParameterError(f"environment changed at step {i} without a crossing")

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
    zone_width: float = CrossingConfig.zone_width,
    group: str = "",
) -> tuple[Trace, GroundTruth]:
    """Synthesize one walk: IMU trace plus per-step ground truth.

    When doors are given, true zone crossings are located geometrically on
    the true step segments and the environment label toggles there.
    """
    if sample_rate < 20:
        raise InvalidParameterError(f"sample_rate must be >= 20 Hz, got {sample_rate}")
    pauses = dict(script.pauses)
    actions: dict[int, DoorAction] = {a.waypoint: a for a in script.door_actions}
    # The walk's length, counted in floats (no size to overflow) before any array is built.
    length = sum(math.hypot(b.x - a.x, b.y - a.y) for a, b in zip(script.waypoints, script.waypoints[1:]))
    wiggles = sum(action.action == OPEN_AND_CROSS for action in actions.values())
    seconds = length / script.step_length_true / script.cadence + sum(pauses.values()) + wiggles * JIGGLE_DURATION
    if not seconds * sample_rate <= MAX_WALK_SAMPLES:
        raise InvalidScriptError(f"walk of {seconds:.6g} s at {sample_rate} Hz exceeds {MAX_WALK_SAMPLES} samples")
    dt = 1.0 / sample_rate
    cycle = int(round(sample_rate / script.cadence))
    if cycle < 4:
        raise InvalidParameterError("cadence too fast for the sample rate")
    step_cycle = STEP_AMPLITUDE * np.sin(2.0 * math.pi * np.arange(cycle) / cycle)
    jiggle_len = int(round(JIGGLE_DURATION * sample_rate))
    jiggle = JIGGLE_AMPLITUDE * np.sin(2.0 * math.pi * (np.arange(jiggle_len) * dt) / JIGGLE_PERIOD)

    zones = build_zone_lookup(doors, CrossingConfig(zone_width=zone_width))

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
                for door, zone in zones.values():
                    if segment_intersection(zone, seg) is not None:
                        if crossings and crossings[-1] == (base + i - 1, door.id):
                            continue  # step landed on the zone line; same traversal, not a new crossing
                        crossings.append((base + i, door.id))
                        env = door.other_side(env)
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
    psi_true[1:] = leg_headings[0] + np.cumsum(0.5 * (rate[:-1] + rate[1:]) * dt)

    # One (3, n) draw per sensor: the same numbers, in the same order, as one draw per axis.
    rng = np.random.default_rng(noise.seed)
    accel, gyro, mag = [rng.normal(0.0, s, (3, n)) for s in (noise.accel_sigma, noise.gyro_sigma, noise.mag_sigma)]
    accel[2] += GRAVITY + a_norm
    gyro[2] += rate + noise.gyro_bias
    mag[0] += MAG_HORIZONTAL * np.cos(psi_true)
    mag[1] += -MAG_HORIZONTAL * np.sin(psi_true)
    mag[2] += MAG_VERTICAL

    # (n, 3) in C order, as the tracker reads it fastest; column_stack copies faster than .T.copy().
    trace = Trace(t=t, accel=np.column_stack(accel), gyro=np.column_stack(gyro), mag=np.column_stack(mag))
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


# Two buildings joined by an outdoor stretch: A spans x in [0, 10], B x in
# [20, 30], both y in [0, 8]; each has a 0.9 m doorway centered at y = 4 on
# the facing wall. One x1 y1 x2 y2 row per wall piece.
_TWO_BUILDING_WALLS = (
    (0.0, 0.0, 10.0, 0.0), (10.0, 0.0, 10.0, 3.55), (10.0, 4.45, 10.0, 8.0), (10.0, 8.0, 0.0, 8.0), (0.0, 8.0, 0.0, 0.0),
    (20.0, 0.0, 30.0, 0.0), (30.0, 0.0, 30.0, 8.0), (30.0, 8.0, 20.0, 8.0), (20.0, 0.0, 20.0, 3.55), (20.0, 4.45, 20.0, 8.0),
)


def two_building_plan() -> FloorPlan:
    """Canonical fixture: the two buildings above, doors doorA and doorB, start inside A."""
    doors = (
        Door(id="doorA", center=Point2(10.0, 4.0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor"),
        Door(id="doorB", center=Point2(20.0, 4.0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor"),
    )
    return FloorPlan(
        walls=tuple(Segment2(Point2(x1, y1), Point2(x2, y2)) for x1, y1, x2, y2 in _TWO_BUILDING_WALLS),
        doors=doors,
        start_position=Point2(4.6, 4.0),
        start_heading=0.0,
        start_environment="indoor",
    )


def _beside(door: Door, cursor: Point2, d: float) -> Point2:
    """The point d from the door's centre along the door wall's normal, on the
    cursor's side; a negative d lands on the other side."""
    tx, ty = door.tangent
    nx, ny = ty, -tx
    if (cursor.x - door.center.x) * nx + (cursor.y - door.center.y) * ny < 0:
        nx, ny = -nx, -ny
    return Point2(door.center.x + d * nx, door.center.y + d * ny)


def crossing_script(plan: FloorPlan) -> WalkScript:
    """Walk from the plan's start through every door in order: open it 0.7 m
    in front, stop 3.05 m behind it."""
    waypoints = [plan.start_position]
    actions = []
    for door in plan.doors:
        cursor = waypoints[-1]
        waypoints.append(_beside(door, cursor, 0.7))
        actions.append(DoorAction(waypoint=len(waypoints) - 1, door_id=door.id, action=OPEN_AND_CROSS))
        waypoints.append(_beside(door, cursor, -3.05))
    return WalkScript(
        waypoints=tuple(waypoints),
        door_actions=tuple(actions),
        start_environment=plan.start_environment or "indoor",
    )


def turn_back_script(plan: FloorPlan) -> WalkScript:
    """Walk toward the first door, reverse 1.45 m in front of it, return."""
    start, door = plan.start_position, plan.doors[0]
    return WalkScript(
        waypoints=(start, _beside(door, start, 1.45), start),
        door_actions=(DoorAction(waypoint=1, door_id=door.id, action=TURN_BACK),),
        start_environment=plan.start_environment or "indoor",
    )


def scenario_suite(
    plan: FloorPlan,
    n_trials: int,
    noise: NoiseModel = NoiseModel(),
    crossing_fraction: float = 1.0,
) -> list[tuple[Trace, GroundTruth]]:
    """Independent seeded trials: crossing walks and turn-back walks.

    The first round(n_trials * crossing_fraction) trials cross every door of
    the plan; the rest approach the first door and turn back. Every walk
    takes generate_walk's default sample rate and zone width.
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
        trials.append(generate_walk(script, trial_noise, doors=plan.doors, group=group))
    return trials
