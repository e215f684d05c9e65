import dataclasses
import math

import numpy as np
import pytest

import seamloc.cli as cli
import seamloc.sim as sim
from seamloc import (
    CALIBRATED_NOISE,
    DoorAction,
    InvalidParameterError,
    InvalidScriptError,
    InvariantViolation,
    NoiseModel,
    Point2,
    SignalConfig,
    WalkScript,
    crossing_script,
    detect_door_openings,
    detect_steps,
    generate_walk,
    normalized_series,
    scenario_suite,
    turn_back_script,
    two_building_plan,
)
from seamloc.geometry import Door, Segment2, segment_intersection, zone_for_door
from seamloc.pdr import wrap_angle
from seamloc.signal import Trace
from seamloc.sim import (
    GRAVITY,
    JIGGLE_AMPLITUDE,
    JIGGLE_DURATION,
    JIGGLE_PERIOD,
    MAG_HORIZONTAL,
    MAG_VERTICAL,
    OPEN_AND_CROSS,
    STEP_AMPLITUDE,
    GroundTruth,
)

STRAIGHT = WalkScript(waypoints=(Point2(0, 0), Point2(7.5, 0)))


class TestGenerateWalk:
    def test_noiseless_step_recovery(self):
        trace, truth = generate_walk(STRAIGHT)
        t, a = normalized_series(trace)
        events = detect_steps(t, a)
        assert len(events) == truth.step_count == 10
        dt = float(trace.t[1] - trace.t[0])
        for ev, true_t in zip(events, truth.step_times):
            assert abs(ev.t - true_t) <= dt

    def test_door_action_produces_one_event_and_crossing(self):
        plan = two_building_plan()
        script = WalkScript(
            waypoints=(Point2(7.0, 4.0), Point2(9.3, 4.0), Point2(13.05, 4.0)),
            door_actions=(DoorAction(waypoint=1, door_id="doorA", action="open-and-cross"),),
        )
        trace, truth = generate_walk(script, doors=plan.doors)
        assert len(truth.door_open_intervals) == 1
        assert len(truth.crossings) == 1
        assert truth.crossings[0][1] == "doorA"
        t, a = normalized_series(trace)
        steps = detect_steps(t, a)
        assert len(detect_door_openings(t, a, SignalConfig(), steps)) == 1

    def test_same_seed_bit_identical(self):
        noise = NoiseModel(accel_sigma=0.1, gyro_sigma=0.01, gyro_bias=0.01, mag_sigma=1.0, seed=11)
        t1, _ = generate_walk(STRAIGHT, noise)
        t2, _ = generate_walk(STRAIGHT, noise)
        assert np.array_equal(t1.accel, t2.accel)
        assert np.array_equal(t1.gyro, t2.gyro)
        assert np.array_equal(t1.mag, t2.mag)

    def test_jiggle_stays_below_step_threshold(self):
        script = WalkScript(
            waypoints=(Point2(0, 0), Point2(3, 0), Point2(6, 0)),
            door_actions=(DoorAction(waypoint=1, door_id="d", action="open-and-cross"),),
        )
        trace, truth = generate_walk(script)
        t, a = normalized_series(trace)
        (t0, t1), = truth.door_open_intervals
        inside = (t >= t0) & (t < t1)
        assert np.abs(a[inside]).max() < 1.5

    def test_step_count_rounds_per_segment(self):
        script = WalkScript(waypoints=(Point2(0, 0), Point2(7.4, 0), Point2(7.4, 3.1)))
        _, truth = generate_walk(script)
        expected = round(7.4 / 0.75) + round(3.1 / 0.75)
        assert truth.step_count == expected

    def test_duration_is_steps_plus_pauses(self):
        script = WalkScript(
            waypoints=(Point2(0, 0), Point2(7.5, 0)),
            pauses=((0, 2.0),),
        )
        trace, truth = generate_walk(script, sample_rate=100.0)
        expected = truth.step_count / script.cadence + 2.0
        assert abs((len(trace) * 0.01) - expected) <= 0.01

    def test_environment_changes_only_at_crossings(self):
        plan = two_building_plan()
        from seamloc import crossing_script

        _, truth = generate_walk(crossing_script(plan), doors=plan.doors)
        # GroundTruth.__post_init__ enforces the invariant; re-check the labels.
        cross_steps = {s for s, _ in truth.crossings}
        env = truth.initial_environment
        for i, e in enumerate(truth.environments):
            if i in cross_steps:
                env = e
            assert e == env

    def test_coincident_waypoints_rejected(self):
        with pytest.raises(InvalidScriptError):
            WalkScript(waypoints=(Point2(0, 0), Point2(0, 0)))

    def test_low_sample_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            generate_walk(STRAIGHT, sample_rate=10.0)

    def test_walk_above_the_sample_cap_is_refused(self, monkeypatch):
        # 3 m in 0.75 m steps at 2 Hz is 2 s; with an 8 s pause the walk is 1000 samples at 100 Hz.
        monkeypatch.setattr(sim, "MAX_WALK_SAMPLES", 1000)
        trace, _ = generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(3, 0)), pauses=((0, 8.0),)))
        assert len(trace) == 1000
        with pytest.raises(InvalidScriptError, match="walk of 10.01 s at 100.0 Hz exceeds 1000 samples"):
            generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(3, 0)), pauses=((0, 8.01),)))

    def test_turns_recover_exactly(self):
        # Heading integration of the synthesized gyro must reproduce leg headings.
        from seamloc.pdr import PdrConfig, Pose, heading_series, wrap_angle

        script = WalkScript(waypoints=(Point2(0, 0), Point2(3, 0), Point2(3, 3), Point2(0, 3)))
        trace, truth = generate_walk(script)
        psi = heading_series(trace, PdrConfig(initial_pose=Pose(Point2(0, 0), truth.initial_heading)))
        assert abs(wrap_angle(psi[-1]) - truth.step_headings[-1]) < 1e-9


class TestScenarioSuite:
    def test_crossing_only_counts(self):
        plan = two_building_plan()
        trials = scenario_suite(plan, 6, NoiseModel(), crossing_fraction=1.0)
        crossings = sum(len(truth.crossings) for _, truth in trials)
        assert crossings == 12  # two doors per trial

    def test_turn_back_only_counts(self):
        plan = two_building_plan()
        trials = scenario_suite(plan, 6, NoiseModel(), crossing_fraction=0.0)
        assert sum(len(truth.crossings) for _, truth in trials) == 0
        assert sum(len(truth.turn_backs) for _, truth in trials) == 6

    def test_mixed_proportions_exact(self):
        plan = two_building_plan()
        trials = scenario_suite(plan, 10, NoiseModel(), crossing_fraction=0.5)
        groups = [truth.group for _, truth in trials]
        assert groups.count("crossing") == 5
        assert groups.count("turn_back") == 5

    def test_trials_use_distinct_seeds(self):
        plan = two_building_plan()
        trials = scenario_suite(plan, 3, CALIBRATED_NOISE, crossing_fraction=1.0)
        a = trials[0][0].accel
        b = trials[1][0].accel
        assert not np.array_equal(a, b)

    def test_requires_doors(self):
        from seamloc import FloorPlan

        with pytest.raises(InvalidParameterError):
            scenario_suite(FloorPlan(walls=(), doors=(), start_position=Point2(0, 0)), 2, NoiseModel())


# ---------------------------------------------------------------------------
# Oracle: the per-step generator that built walks before the block build
# ---------------------------------------------------------------------------


class _PerStepTimeline:
    """Sample-block builder; a pending turn rides the next block's first sample."""

    def __init__(self, dt: float):
        self.dt = dt
        self.a: list[float] = []
        self.w: list[float] = []
        self.pending_turn = 0.0

    def append(self, a_block: np.ndarray) -> int:
        start = len(self.a)
        self.a.extend(float(v) for v in a_block)
        self.w.extend([0.0] * len(a_block))
        if self.pending_turn != 0.0 and len(a_block):
            self.w[start] = self.pending_turn / self.dt
            self.pending_turn = 0.0
        return start


def per_step_walk_oracle(
    script: WalkScript,
    noise: NoiseModel = NoiseModel(),
    sample_rate: float = 100.0,
    doors: tuple[Door, ...] = (),
    zone_width: float = 5.0,
    group: str = "",
):
    """Reference generator: one Python step and one float per sample at a time."""
    if sample_rate < 20:
        raise InvalidParameterError(f"sample_rate must be >= 20 Hz, got {sample_rate}")
    dt = 1.0 / sample_rate
    cycle = int(round(sample_rate / script.cadence))
    if cycle < 4:
        raise InvalidParameterError("cadence too fast for the sample rate")
    jiggle_len = int(round(JIGGLE_DURATION * sample_rate))

    pauses = dict(script.pauses)
    actions: dict[int, DoorAction] = {a.waypoint: a for a in script.door_actions}
    zones = {d.id: zone_for_door(d, zone_width) for d in doors}
    door_by_id = {d.id: d for d in doors}

    tl = _PerStepTimeline(dt)
    env = script.start_environment
    pos = np.array([script.waypoints[0].x, script.waypoints[0].y])
    leg_headings = [
        math.atan2(b.y - a.y, b.x - a.x)
        for a, b in zip(script.waypoints, script.waypoints[1:])
    ]
    heading = leg_headings[0]

    step_times: list[float] = []
    step_positions: list[np.ndarray] = []
    step_headings: list[float] = []
    environments: list[str] = []
    door_intervals: list[tuple[float, float]] = []
    crossings: list[tuple[int, str]] = []
    turn_backs: list[tuple[int, str]] = []

    def dwell(waypoint: int):
        pause = pauses.get(waypoint, 0.0)
        if pause > 0:
            tl.append(np.zeros(int(round(pause * sample_rate))))
        action = actions.get(waypoint)
        if action is None:
            return
        if action.action == OPEN_AND_CROSS:
            tau = np.arange(jiggle_len) * dt
            start = tl.append(JIGGLE_AMPLITUDE * np.sin(2.0 * math.pi * tau / JIGGLE_PERIOD))
            door_intervals.append((start * dt, (start + jiggle_len) * dt))
        else:
            turn_backs.append((len(step_times) - 1, action.door_id))

    for j, (a, b) in enumerate(zip(script.waypoints, script.waypoints[1:])):
        dwell(j)
        psi = leg_headings[j]
        tl.pending_turn += wrap_angle(psi - heading)
        heading = psi
        n_steps = int(round(math.hypot(b.x - a.x, b.y - a.y) / script.step_length_true))
        direction = np.array([math.cos(psi), math.sin(psi)])
        for _ in range(n_steps):
            k = np.arange(cycle)
            start = tl.append(STEP_AMPLITUDE * np.sin(2.0 * math.pi * k / cycle))
            prev = pos
            pos = pos + script.step_length_true * direction
            step_times.append((start + 0.25 * cycle) * dt)
            step_positions.append(pos)
            step_headings.append(psi)
            seg = Segment2(Point2(*prev), Point2(*pos))
            for door_id, zone in zones.items():
                if segment_intersection(zone, seg) is not None:
                    step_idx = len(step_times) - 1
                    if crossings and crossings[-1] == (step_idx - 1, door_id):
                        continue  # step landed on the zone line; same traversal, not a new crossing
                    crossings.append((step_idx, door_id))
                    env = door_by_id[door_id].other_side(env)
            environments.append(env)
    dwell(len(script.waypoints) - 1)

    n = len(tl.a)
    t = np.arange(n) * dt
    a_norm = np.array(tl.a)
    rate = np.array(tl.w)

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
        step_positions=np.array(step_positions).reshape(-1, 2),
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


def assert_same_walk(script, noise=CALIBRATED_NOISE, **kwargs):
    trace, truth = generate_walk(script, noise, **kwargs)
    want_trace, want_truth = per_step_walk_oracle(script, noise, **kwargs)
    pairs = [(name, getattr(trace, name), getattr(want_trace, name)) for name in ("t", "accel", "gyro", "mag")]
    pairs += [(f.name, getattr(truth, f.name), getattr(want_truth, f.name)) for f in dataclasses.fields(GroundTruth)]
    for name, got, want in pairs:
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want), name
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), name
        else:
            assert got == want, name
    return trace, truth


OUTDOOR = WalkScript(
    waypoints=(Point2(0.0, 0.0), Point2(6.0, 1.0), Point2(9.0, 6.5), Point2(2.5, 8.0), Point2(-3.0, 2.0)),
    pauses=((1, 2.5), (3, 0.004)),  # the second pause rounds to no sample at 100 Hz
    door_actions=(DoorAction(waypoint=2, door_id="gate", action=OPEN_AND_CROSS),),
    step_length_true=0.8,
    start_environment="outdoor",
)


class TestPerStepOracle:
    @pytest.mark.parametrize("noise", [NoiseModel(), CALIBRATED_NOISE], ids=["noiseless", "calibrated"])
    @pytest.mark.parametrize("build", [crossing_script, turn_back_script])
    def test_plan_walks_with_doors(self, build, noise):
        plan = two_building_plan()
        _, truth = assert_same_walk(build(plan), noise, doors=plan.doors, group="g")
        assert truth.crossings or truth.turn_backs

    def test_outdoor_walk_with_pauses_and_wiggle(self):
        _, truth = assert_same_walk(OUTDOOR)
        assert len(truth.door_open_intervals) == 1

    @pytest.mark.parametrize("sample_rate", [20.0, 25.0, 100.0, 200.0])
    @pytest.mark.parametrize("cadence", [1.6, 2.0, 2.4])
    def test_sample_rates_and_cadences(self, sample_rate, cadence):
        assert_same_walk(dataclasses.replace(OUTDOOR, cadence=cadence), sample_rate=sample_rate)

    def test_leg_shorter_than_half_a_step(self):
        # The 0.3 m leg has no step; its turn joins the next leg's turn.
        script = WalkScript(waypoints=(Point2(0, 0), Point2(3, 0), Point2(3, 0.3), Point2(6, 0.3)))
        _, truth = assert_same_walk(script)
        assert truth.step_count == 8

    def test_walk_with_no_steps(self):
        script = WalkScript(
            waypoints=(Point2(0, 0), Point2(0.3, 0.1)),
            pauses=((0, 1.0),),
            door_actions=(DoorAction(waypoint=1, door_id="d", action=OPEN_AND_CROSS),),
        )
        trace, truth = assert_same_walk(script)
        assert truth.step_count == 0 and truth.step_positions.shape == (0, 2)
        assert len(trace) == 250

    def test_walk_with_no_samples_is_an_invalid_script(self, tmp_path, capsys):
        with pytest.raises(InvalidScriptError):
            generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(0.3, 0.0))))
        script = tmp_path / "walk.txt"
        script.write_text("version: 1\nwaypoint: 0 0\nwaypoint: 0.3 0\n")
        assert cli.main(["simulate", "--script", str(script), "--out", str(tmp_path / "o")]) == 6
        assert capsys.readouterr().err.startswith("error[invalid-script]: walk has no samples")

    def test_steps_that_vanish_in_rounding_raise_the_same_violation(self):
        # Near 1e17 m doubles are 16 m apart: the first 0.75 m step adds nothing.
        script = WalkScript(waypoints=(Point2(1e17, 0.0), Point2(1e17 + 64.0, 0.0)))
        with pytest.raises(InvariantViolation) as got:
            generate_walk(script)
        with pytest.raises(InvariantViolation) as want:
            per_step_walk_oracle(script)
        assert got.value.invariant == want.value.invariant == "segment-positive-length"
        assert str(got.value) == str(want.value)

    def test_step_that_overflows_raises_the_same_violation(self):
        script = WalkScript(waypoints=(Point2(0.0, 0.0), Point2(1.5e308, 0.0)), step_length_true=1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(InvariantViolation) as got:
                generate_walk(script)
            with pytest.raises(InvariantViolation) as want:
                per_step_walk_oracle(script)
        assert got.value.invariant == want.value.invariant == "point-finite"
        assert str(got.value) == str(want.value)
