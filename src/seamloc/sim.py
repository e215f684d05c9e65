"""Synthetic pedestrian walks with ground truth.

Generates IMU traces whose normalized acceleration reproduces the gait and
door-opening signatures the detectors consume: one 2 m/s^2 sinusoid cycle
per step, and a 1.5 s low-amplitude wiggle while a door is opened. Turns
happen in place between legs as a single-sample gyro spike, which the
trapezoidal heading integrator reproduces exactly, so a noiseless trace
dead-reckons back to the true path to machine precision.

A walk is laid out before it is rendered: per waypoint its pause (zeros), its
door wiggle and the leg that starts there (the step cycle tiled by the step
count WalkScript plans), each block with its exact sample count. The sample cap
reads the layout's total; a turn spikes the first sample of the next non-empty
block. Step positions are running sums along each leg, so traces are
byte-identical to earlier versions.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from itertools import accumulate

import numpy as np

from .errors import InvalidParameterError, InvalidScriptError, InvariantViolation
from .crossing import CrossingConfig, build_zone_lookup
from .geometry import CONFIG_LIMIT, Door, FloorPlan, Point2, Segment2, segment_intersection
from .pdr import wrap_angle
from .signal import Trace

GRAVITY = 9.81
STEP_AMPLITUDE = 2.0  # m/s^2, clears the +/-1.5 step thresholds
JIGGLE_AMPLITUDE = 0.8  # m/s^2, inside the door band, under step thresholds
JIGGLE_PERIOD = 0.4  # s
JIGGLE_DURATION = 1.5  # s
MAG_HORIZONTAL = 22.0  # uT
MAG_VERTICAL = -43.0  # uT
# WalkScript refuses a leg of more steps than this, generate_walk a walk of more samples (about 28 h at 100 Hz).
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
        for key, value in (("cadence", self.cadence), ("step_length", self.step_length_true)):
            if not 0 < value < math.inf:  # the last record of a setting is the one in force
                raise InvalidScriptError("cadence and step length must be positive and finite", record=(key, -1))
        # Each error names the record it is about: a leg by its second waypoint.
        legs = []
        for i, (a, b) in enumerate(zip(self.waypoints, self.waypoints[1:]), start=1):
            if a.x == b.x and a.y == b.y:
                raise InvalidScriptError("coincident consecutive waypoints", record=("waypoint", i))
            steps = math.hypot(b.x - a.x, b.y - a.y) / self.step_length_true
            if not steps <= MAX_WALK_SAMPLES:  # an infinite leg too: no leg's step count can overflow
                leg = f"leg from ({a.x}, {a.y}) to ({b.x}, {b.y})"
                raise InvalidScriptError(f"{leg} is {steps:.6g} steps, over {MAX_WALK_SAMPLES}", record=("waypoint", i))
            legs.append((math.atan2(b.y - a.y, b.x - a.x), int(round(steps))))
        object.__setattr__(self, "_legs", tuple(legs))  # outside the fields, as FloorPlan.wall_array
        at = {"pause": [w for w, _ in self.pauses], "door_action": [a.waypoint for a in self.door_actions]}
        for key, waypoints in at.items():
            for k, waypoint in enumerate(waypoints):
                if not 0 <= waypoint < len(self.waypoints):
                    raise InvalidScriptError(f"{key} at waypoint {waypoint}: no such waypoint", record=(key, k))
                if waypoint in waypoints[:k]:
                    raise InvalidScriptError(f"{key} at waypoint {waypoint}: one {key} per waypoint", record=(key, k))
        for k, a in enumerate(self.door_actions):  # a turn-back is recorded at the step before it
            if a.action == TURN_BACK and not any(steps for _, steps in legs[: a.waypoint]):
                message = f"door_action: {a.waypoint} {a.door_id} {TURN_BACK} comes before any step"
                raise InvalidScriptError(message, record=("door_action", k))
        for k, (_, seconds) in enumerate(self.pauses):
            if not 0 <= seconds < math.inf:
                raise InvalidScriptError("pause seconds must be finite and >= 0", record=("pause", k))

    def legs(self) -> tuple[tuple[float, int], ...]:
        """(heading, step count) of each leg, computed once when the script is built."""
        return self._legs


def check_count(name: str, value) -> None:
    """Refuse a seed or count that is not an integer >= 0, naming it."""
    if not isinstance(value, numbers.Integral):
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}")
    if value < 0:
        raise InvalidParameterError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class NoiseModel:
    accel_sigma: float = 0.0  # m/s^2
    gyro_sigma: float = 0.0  # rad/s
    gyro_bias: float = 0.0  # rad/s
    mag_sigma: float = 0.0  # uT
    seed: int = 0

    def __post_init__(self):
        if not all(0 <= sigma <= CONFIG_LIMIT for sigma in (self.accel_sigma, self.gyro_sigma, self.mag_sigma)):
            raise InvalidParameterError(f"noise sigmas must be in [0, {CONFIG_LIMIT:g}]")
        if not abs(self.gyro_bias) <= CONFIG_LIMIT:
            raise InvalidParameterError(f"gyro_bias must be in [-{CONFIG_LIMIT:g}, {CONFIG_LIMIT:g}], got {self.gyro_bias}")
        check_count("seed", self.seed)


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
        if not np.isfinite(self.step_positions).all():  # the first bad step raises as its Point2 would
            i = int(np.argmin(np.isfinite(self.step_positions).all(axis=-1)))
            raise InvariantViolation("point-finite", str(tuple(self.step_positions[i].tolist())), record=("step", i))
        # A step's environment changes only at a crossing.
        env, cross_steps = self.initial_environment, {s for s, _ in self.crossings}
        for i, e in enumerate(self.environments):
            if e != env and i not in cross_steps:
                raise InvalidParameterError(f"environment changed at step {i} without a crossing", record=("step", i))
            env = e
        for kind, events in (("crossing", self.crossings), ("turn_back", self.turn_backs)):
            for j, (step, door) in enumerate(events):  # each is at a step: evaluate matches crossings by index
                if not 0 <= step < k:
                    message = f"{kind} of {door} at step {step}: the file has {k} step lines"
                    raise InvalidParameterError(message, record=(kind, j))
        if " ".join(self.group.split()) != self.group:  # a truth file holds the group as words
            raise InvalidParameterError(f"group {self.group!r} is not single-spaced words", record=("group", -1))

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
    """Render the script's plan (WalkScript.legs) as an IMU trace plus per-step ground truth.

    The walk is laid out before any array is built: per waypoint its pause, its
    door wiggle and the leg that starts there, each block with its exact sample
    count. The sample cap reads the layout's total, and turns, door intervals and
    step times read its block starts. Only the checks that need the sample rate
    are made here. With doors, true zone crossings are found on the true step
    segments; the label toggles there.
    """
    if not 20 <= sample_rate < math.inf:
        raise InvalidParameterError(f"sample_rate must be finite and >= 20 Hz, got {sample_rate}")
    dt = 1.0 / sample_rate
    # Counts stay whole floats up to the cap: a product that overflows is inf, over the cap, not an OverflowError.
    cycle = round(sample_rate / script.cadence, 0)
    if cycle < 4:
        raise InvalidParameterError("cadence too fast for the sample rate")
    jiggle_len = round(JIGGLE_DURATION * sample_rate, 0)
    pauses = dict(script.pauses)
    actions = {a.waypoint: a for a in script.door_actions}
    legs = script.legs()
    steps = [n_steps for _, n_steps in legs] + [0]  # of the leg that starts at each waypoint; none at the last
    sizes = []  # the layout: per waypoint its pause, its door wiggle, then its leg
    for w, n_steps in enumerate(steps):
        pause = round(pauses.get(w, 0.0) * sample_rate, 0)
        wiggle = w in actions and actions[w].action == OPEN_AND_CROSS
        sizes += [pause, jiggle_len if wiggle else 0, cycle * n_steps if n_steps else 0]
    total = sum(sizes)
    if not total <= MAX_WALK_SAMPLES:  # a count that overflowed is inf: name the length from the pauses and steps
        seconds = total / sample_rate if total < math.inf else sum(pauses.values()) + sum(steps) / script.cadence
        raise InvalidScriptError(f"walk of {seconds:.6g} s at {sample_rate} Hz exceeds {MAX_WALK_SAMPLES} samples")
    if not total:
        raise InvalidScriptError("walk has no samples: no steps, pauses or door wiggles")
    starts = list(accumulate(map(int, sizes), initial=0))  # block k is samples starts[k] to starts[k + 1]
    n = starts[-1]

    a_norm, turns = np.zeros(n), np.zeros(n)  # a pause is zeros; a turn is an angle on one sample
    door_intervals: list[tuple[float, float]] = []
    turn_backs: list[tuple[int, str]] = []
    for w, action in sorted(actions.items()):
        start, end = starts[3 * w + 1 : 3 * w + 3]
        if action.action == OPEN_AND_CROSS:
            a_norm[start:end] = JIGGLE_AMPLITUDE * np.sin(2.0 * math.pi * (np.arange(end - start) * dt) / JIGGLE_PERIOD)
            door_intervals.append((start * dt, end * dt))
        else:  # a turn-back is recorded at the last step laid out before it; WalkScript puts one there
            turn_backs.append((sum(steps[:w]) - 1, action.door_id))

    zones = build_zone_lookup(doors, CrossingConfig(zone_width=zone_width))
    env = script.start_environment
    pos = np.array([script.waypoints[0].x, script.waypoints[0].y])
    heading = legs[0][0]
    step_times: list[float] = []
    step_positions: list[np.ndarray] = [np.empty((0, 2))]
    step_headings: list[float] = []
    environments: list[str] = []
    crossings: list[tuple[int, str]] = []
    for j, (psi, n_steps) in enumerate(legs):
        start, end = starts[3 * j + 2 : 3 * j + 4]
        # A turn is made in place on the first sample of the next non-empty block, which starts where this
        # leg does; turns before empty blocks add up there. A turn after the last sample is never made.
        if start < n:
            turns[start] += wrap_angle(psi - heading)
        heading = psi
        if n_steps:  # one sine cycle per step, built only where the cycle counted toward the cap
            a_norm[start:end] = np.tile(STEP_AMPLITUDE * np.sin(2.0 * math.pi * np.arange(cycle) / cycle), n_steps)
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

    t = np.arange(n) * dt
    rate = turns / dt

    # True heading per sample: trapezoidal integral of the clean turn rate.
    psi_true = np.empty(n)
    psi_true[0] = legs[0][0]
    psi_true[1:] = legs[0][0] + np.cumsum(0.5 * (rate[:-1] + rate[1:]) * dt)

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
        initial_heading=legs[0][0],
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


def _check_walkable(plan: FloorPlan) -> None:
    if plan.start_position is None:
        raise InvalidParameterError("plan has no start")
    if not plan.doors:
        raise InvalidParameterError("plan has no doors")


def crossing_script(plan: FloorPlan) -> WalkScript:
    """Walk from the plan's start through every door in order: open it 0.7 m
    in front, stop 3.05 m behind it."""
    _check_walkable(plan)
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
        start_environment=plan.start_environment,
    )


def turn_back_script(plan: FloorPlan) -> WalkScript:
    """Walk toward the first door, reverse 1.45 m in front of it, return."""
    _check_walkable(plan)
    start, door = plan.start_position, plan.doors[0]
    return WalkScript(
        waypoints=(start, _beside(door, start, 1.45), start),
        door_actions=(DoorAction(waypoint=1, door_id=door.id, action=TURN_BACK),),
        start_environment=plan.start_environment,
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
    check_count("n_trials", n_trials)
    if not 0 <= crossing_fraction <= 1:
        raise InvalidParameterError(f"crossing_fraction must be in [0, 1], got {crossing_fraction}")
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
