import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import seamloc.cli as cli
import seamloc.harness as harness
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
    TURN_BACK,
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

    @pytest.mark.parametrize("field, sign", [("accel_sigma", 1.0), ("gyro_sigma", 1.0), ("mag_sigma", 1.0), ("gyro_bias", 1.0), ("gyro_bias", -1.0)])
    def test_noise_up_to_the_config_limit_gives_a_finite_trace(self, field, sign):
        limit = sign * sim.CONFIG_LIMIT
        trace, _ = generate_walk(STRAIGHT, NoiseModel(**{field: limit}, seed=3))
        assert np.isfinite(trace.accel_squared()).all() and np.isfinite(trace.yaw_increments()[2]).all()
        with pytest.raises(InvalidParameterError, match="must be in"):
            NoiseModel(**{field: math.nextafter(limit, sign * math.inf)})

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

    def truth(self, k=1, **fields):
        """A k-step indoor GroundTruth with the given fields replaced."""
        base = dict(
            step_times=np.arange(k) + 0.5,
            step_positions=np.zeros((k, 2)),
            step_headings=np.zeros(k),
            environments=("indoor",) * k,
            door_open_intervals=(),
            crossings=(),
            turn_backs=(),
            initial_position=Point2(0.0, 0.0),
            initial_heading=0.0,
            initial_environment="indoor",
        )
        return GroundTruth(**{**base, **fields})

    @pytest.mark.parametrize("kind", ["crossings", "turn_backs"])
    @pytest.mark.parametrize("step", [-1, 1, 3])
    def test_event_at_no_step_is_refused(self, kind, step):
        # A truth built in code holds the rule load_truth used to state alone, with the loader's wording.
        events = ((0, "doorA"), (step, "doorA"))
        name = kind[:-1]
        with pytest.raises(InvalidParameterError) as got:
            self.truth(**{kind: events})
        assert str(got.value) == f"{name} of doorA at step {step}: the file has 1 step lines"
        assert got.value.record == (name, 1)

    def test_non_finite_step_position_names_its_step(self):
        positions = np.array([[0.75, 0.0], [1.5, 0.0], [np.nan, 0.0], [np.inf, 0.0]])
        with pytest.raises(InvariantViolation, match=r"^point-finite: \(nan, 0.0\)$") as got:
            self.truth(4, step_positions=positions)
        assert got.value.record == ("step", 2)

    def test_rules_are_checked_positions_then_environments_then_events(self):
        # A truth that breaks all three rules names its first bad step position, then its first
        # uncrossed environment change, then its first event at no step.
        bad = dict(step_positions=np.array([[np.nan, 0.0]]), environments=("outdoor",), turn_backs=((5, "doorA"),))
        order = (("step_positions", ("step", 0)), ("environments", ("step", 0)), ("turn_backs", ("turn_back", 0)))
        for rule, record in order:
            with pytest.raises((InvalidParameterError, InvariantViolation)) as got:
                self.truth(**bad)
            assert got.value.record == record
            del bad[rule]
        self.truth(**bad)

    @pytest.mark.parametrize("group", ["a\nb", "phone  A", " phone", "phone ", "a\tb", "a\x85b"])
    def test_group_is_single_spaced_words(self, group):
        # A truth file holds the group as words: "a\nb" saved a file that would not load, "phone  A" came back as "phone A".
        with pytest.raises(InvalidParameterError, match="single-spaced words") as got:
            self.truth(group=group)
        assert got.value.record == ("group", -1)
        assert self.truth(group=" ".join(group.split())).group == " ".join(group.split())

    @pytest.mark.parametrize(
        "environments, crossings, step",
        [(("outdoor",), (), 0), (("indoor", "outdoor", "outdoor"), (), 1), (("outdoor", "indoor"), ((0, "doorA"),), 1)],
    )
    def test_uncrossed_environment_change_names_its_step(self, environments, crossings, step):
        with pytest.raises(InvalidParameterError, match=f"environment changed at step {step} without a crossing") as got:
            self.truth(len(environments), environments=environments, crossings=crossings)
        assert got.value.record == ("step", step)

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

    def test_cap_counts_the_samples_each_step_builds(self, monkeypatch):
        # 24 steps at cadence 2.4 take 24 / 2.4 = 10 s, but each step builds round(100 / 2.4) = 42 samples.
        monkeypatch.setattr(sim, "MAX_WALK_SAMPLES", 1000)
        with pytest.raises(InvalidScriptError, match="^walk of 10.08 s at 100.0 Hz exceeds 1000 samples$"):
            generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(18, 0)), cadence=2.4))

    def test_pause_whose_sample_count_overflows_is_over_the_cap(self):
        # 1e307 s at 100 Hz is inf samples: refused by the cap, not an OverflowError from rounding inf.
        with pytest.raises(InvalidScriptError, match=r"^walk of 1e\+307 s at 100.0 Hz exceeds 10000000 samples$"):
            generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(5, 0)), pauses=((0, 1e307),)))

    def test_leg_whose_sample_count_overflows_names_a_finite_length(self):
        # 7 steps of round(100 / 1e-306) = 1e308 samples each overflow; 7 steps at cadence 1e-306 take 7e306 s.
        with pytest.raises(InvalidScriptError, match=r"^walk of 7e\+306 s at 100.0 Hz exceeds 10000000 samples$"):
            generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(5, 0)), cadence=1e-306))

    @pytest.mark.parametrize("sample_rate", [math.nan, math.inf, -math.inf])
    def test_sample_rate_that_is_not_finite_is_an_invalid_parameter(self, sample_rate):
        with pytest.raises(InvalidParameterError, match=f"sample_rate must be finite and >= 20 Hz, got {sample_rate}"):
            generate_walk(STRAIGHT, sample_rate=sample_rate)

    # A step cycle of 1e302 samples, and one that overflows to inf: with no step, no cycle is built.
    @pytest.mark.parametrize("cadence", [1e-300, 1e-307])
    def test_walk_with_no_steps_ignores_its_step_cycle(self, tmp_path, capsys, cadence):
        script = WalkScript(waypoints=(Point2(0, 0), Point2(0.3, 0)), pauses=((0, 1.0),), cadence=cadence)
        trace, truth = generate_walk(script)
        assert (len(trace), truth.step_count) == (100, 0)
        path = tmp_path / "walk.txt"
        path.write_text(f"version: 1\ncadence: {cadence}\nwaypoint: 0 0\nwaypoint: 0.3 0\npause: 0 1\n")
        assert cli.main(["simulate", "--script", str(path), "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    # A turn-back is recorded at the step before it; before any step it would be at step -1.
    TURN_BACK_BEFORE_ANY_STEP = [((Point2(0, 0), Point2(5, 0)), 0), ((Point2(0, 0), Point2(0.3, 0), Point2(5, 0)), 1)]

    @pytest.mark.parametrize("waypoints, at", TURN_BACK_BEFORE_ANY_STEP, ids=["waypoint-0", "leg-under-half-a-step"])
    def test_turn_back_before_any_step_is_an_invalid_script(self, waypoints, at):
        script = WalkScript(waypoints=waypoints, door_actions=(DoorAction(at + 1, "doorA", TURN_BACK),))
        _, truth = generate_walk(script)
        assert truth.turn_backs == ((truth.step_count - 1, "doorA"),)
        with pytest.raises(InvalidScriptError) as got:  # refused when the script is built, before any walk
            dataclasses.replace(script, door_actions=(DoorAction(waypoint=at, door_id="doorA", action=TURN_BACK),))
        assert str(got.value) == f"door_action: {at} doorA approach-and-turn-back comes before any step"
        assert got.value.record == ("door_action", 0)

    @pytest.mark.parametrize("waypoints, at", TURN_BACK_BEFORE_ANY_STEP, ids=["waypoint-0", "leg-under-half-a-step"])
    def test_turn_back_before_any_step_exits_6_through_the_cli(self, tmp_path, capsys, waypoints, at):
        script = tmp_path / "walk.txt"
        lines = [f"waypoint: {p.x} {p.y}" for p in waypoints] + [f"door_action: {at} doorA {TURN_BACK}"]
        script.write_text("\n".join(["version: 1", *lines]) + "\n")
        line = len(lines) + 1  # the door action's
        with pytest.raises(InvalidScriptError, match="comes before any step") as got:  # on file: refused at its line
            harness.load_walk_script(script)
        assert (got.value.path, got.value.line) == (str(script), line)
        assert cli.main(["simulate", "--script", str(script), "--out", str(tmp_path / "o")]) == 6
        err = capsys.readouterr().err
        assert err == f"error[invalid-script]: {script}:{line}: door_action: {at} doorA approach-and-turn-back comes before any step\n"
        assert not (tmp_path / "o" / "trial.truth.txt").exists()

    # A waypoint takes one door action and one pause; the second is refused by its record, whose
    # line RECORD_ERRORS in test_harness.py checks on file.
    SECOND_AT_A_WAYPOINT = [
        ("door_action", "door_actions", (DoorAction(1, "doorA", OPEN_AND_CROSS), DoorAction(1, "doorB", TURN_BACK)), 1),
        ("pause", "pauses", ((0, 1.0), (0, 2.0)), 0),
    ]

    @pytest.mark.parametrize("key, field, records, waypoint", SECOND_AT_A_WAYPOINT, ids=["door_action", "pause"])
    def test_second_record_at_a_waypoint_is_refused(self, key, field, records, waypoint):
        waypoints = (Point2(4.6, 4.0), Point2(9.3, 4.0), Point2(13.05, 4.0))
        generate_walk(WalkScript(waypoints=waypoints, **{field: records[:1]}), doors=two_building_plan().doors)
        with pytest.raises(InvalidScriptError) as got:
            WalkScript(waypoints=waypoints, **{field: records})
        assert str(got.value) == f"{key} at waypoint {waypoint}: one {key} per waypoint"
        assert got.value.record == (key, 1)

    # Whole-walk errors of generate_walk: no one record is at fault, so simulate names the script file alone.
    WHOLE_WALK_ERRORS = [
        ("waypoint: 0 0\nwaypoint: 5 0\npause: 0 1e300", 6, "error[invalid-script]", "walk of 1e+300 s at 100.0 Hz exceeds"),
        ("waypoint: 1e17 0\nwaypoint: 1.0000000000000064e17 0", 4, "error[invariant]", "segment-positive-length"),
    ]

    @pytest.mark.parametrize("records, code, category, message", WHOLE_WALK_ERRORS, ids=["cap", "rounding"])
    def test_whole_walk_error_names_the_script_file(self, tmp_path, capsys, records, code, category, message):
        script = tmp_path / "walk.txt"
        script.write_text(f"version: 1\n{records}\n")
        assert cli.main(["simulate", "--script", str(script), "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err.startswith(f"{category}: {script}: {message}")

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

        start = {"start_position": Point2(0, 0), "start_heading": 0.0, "start_environment": "indoor"}
        for plan in (FloorPlan(walls=(), doors=(), **start), FloorPlan(walls=(), doors=())):
            with pytest.raises(InvalidParameterError):
                scenario_suite(plan, 2, NoiseModel())

    @pytest.mark.parametrize(
        "n_trials, fraction, message",
        [
            (-3, 1.0, "n_trials must be >= 0"),
            (2.5, 1.0, "n_trials must be an integer, got 2.5"),
            ("3", 1.0, "n_trials must be an integer, got '3'"),
            (2, math.nan, "crossing_fraction must be in"),
            (2, 5.0, "crossing_fraction must be in"),
            (2, -0.5, "crossing_fraction must be in"),
        ],
    )
    def test_bounds(self, n_trials, fraction, message):
        with pytest.raises(InvalidParameterError, match=message):
            scenario_suite(two_building_plan(), n_trials, crossing_fraction=fraction)

    @pytest.mark.parametrize("walk", [crossing_script, turn_back_script], ids=["crossing", "turn_back"])
    def test_scripts_require_doors(self, walk):
        # turn_back_script took the first door unchecked: IndexError on a plan with none.
        from seamloc import FloorPlan

        with pytest.raises(InvalidParameterError, match="^plan has no doors$"):
            walk(FloorPlan(walls=(), doors=(), start_position=Point2(0, 0), start_heading=0.0, start_environment="indoor"))

    @pytest.mark.parametrize(
        "walk", [crossing_script, turn_back_script, lambda plan: scenario_suite(plan, 1)], ids=["crossing", "turn_back", "suite"]
    )
    def test_requires_a_start(self, walk):
        # The scripts took the start as their first waypoint unchecked: AttributeError on None.x.
        from seamloc import FloorPlan

        plan = two_building_plan()
        with pytest.raises(InvalidParameterError, match="^plan has no start$"):
            walk(FloorPlan(plan.walls, plan.doors))


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
        assert capsys.readouterr().err.startswith(f"error[invalid-script]: {script}: walk has no samples")

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


# ---------------------------------------------------------------------------
# Random walk-script files: refused at a line (or the file), or walked in full
# ---------------------------------------------------------------------------

# Waypoints near the two buildings' doors, and far ones whose legs WalkScript refuses as too many steps.
NEAR_XS = [0.0, 0.3, 4.6, 9.3, 10.2, 13.05, 20.5, 25.0]
FAR_XS = [1.7e308, -1.7e308, 1e6]
SCRIPT_YS = [0.0, 4.0, 4.3, 6.0, 7.5]
# What generate_walk may still refuse: a walk of no samples or over the sample cap, a cadence too fast for 100 Hz.
WALK_ERRORS = ("walk has no samples", "walk of ", "cadence too fast for the sample rate")


def waypoint_lines(xs):
    return st.builds("waypoint: {} {}".format, st.sampled_from(xs), st.sampled_from(SCRIPT_YS))


NEAR_WAYPOINTS = [f"waypoint: {x} {y}" for x in NEAR_XS for y in SCRIPT_YS]


@st.composite
def script_lines(draw) -> list[str]:
    """A walk script's lines: distinct waypoints, then door actions and pauses mostly at one of them,
    settings, and more waypoints, near or far, with values WalkScript refuses among them."""
    n = draw(st.sampled_from([2, 3, 4, 5, 6, 1]))
    picks = draw(st.lists(st.integers(0, len(NEAR_WAYPOINTS) - 1), min_size=n, max_size=n, unique=True))
    # A strategy given twice to one_of is drawn about twice as often: two in three door actions and
    # pauses name a waypoint after the first, where a turn-back can follow a step.
    after_first = st.integers(1, max(1, n - 1))
    at = st.one_of(after_first, after_first, st.sampled_from([-1, 0, n]))
    actions = st.sampled_from([TURN_BACK, OPEN_AND_CROSS])
    door_action = st.builds("door_action: {} {} {}".format, at, st.sampled_from(["doorA", "doorB"]), actions)
    records = st.one_of(
        door_action,
        door_action,
        st.builds("pause: {} {}".format, at, st.sampled_from(["0", "0.004", "1.5", "2.5", "-1", "inf", "nan"])),
        st.builds("cadence: {}".format, st.sampled_from(["2.0", "1.6", "2.4", "30", "0", "inf"])),
        # 0.001 m steps: a leg of over 20 m is more steps than the cap below, a shorter one takes a walk over it.
        st.builds("step_length: {}".format, st.sampled_from(["0.75", "0.6", "0.5", "0.001", "-0.5"])),
        st.one_of(waypoint_lines(NEAR_XS), waypoint_lines(FAR_XS)),
    )
    return ["version: 1", *(NEAR_WAYPOINTS[i] for i in picks), *draw(st.lists(records, min_size=1, max_size=5))]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(lines=script_lines(), seed=st.integers(0, 3))
def test_random_script_file_is_refused_at_a_line_or_walked(tmp_path, monkeypatch, lines, seed):
    """A script file is refused at one of its lines (or as a whole), or generate_walk walks it
    with every truth step index in range, as the per-step oracle does; the walk may still be
    refused for its sample count, its cadence at 100 Hz or having no samples."""
    monkeypatch.setattr(sim, "MAX_WALK_SAMPLES", 20_000)  # 200 s at 100 Hz keeps the oracle quick
    path = tmp_path / "walk.txt"
    path.write_text("\n".join(lines) + "\n")
    try:
        script = harness.load_walk_script(path)
    except InvalidScriptError as exc:
        assert exc.path == str(path)
        if exc.record is None:  # a whole-script rule names the file alone
            assert exc.line is None and str(exc).startswith(f"{path}: ")
        else:
            assert 1 <= exc.line <= len(lines) and lines[exc.line - 1].startswith(f"{exc.record[0]}: ")
            assert str(exc).startswith(f"{path}:{exc.line}: ")
        return
    # The plan is what per_step_walk_oracle computes leg by leg.
    legs = [(b.x - a.x, b.y - a.y) for a, b in zip(script.waypoints, script.waypoints[1:])]
    assert script.legs() == tuple((math.atan2(y, x), int(round(math.hypot(x, y) / script.step_length_true))) for x, y in legs)
    noise = dataclasses.replace(CALIBRATED_NOISE, seed=seed)
    try:
        _, truth = generate_walk(script, noise, doors=two_building_plan().doors)
    except (InvalidScriptError, InvalidParameterError) as exc:
        assert str(exc).startswith(WALK_ERRORS), str(exc)
        return
    assert all(0 <= step < truth.step_count for step, _ in truth.crossings + truth.turn_backs)
    assert_same_walk(script, noise, doors=two_building_plan().doors)


NEAR_POINTS = [Point2(x, y) for x in NEAR_XS for y in SCRIPT_YS]


@st.composite
def near_scripts(draw) -> WalkScript:
    """A WalkScript near the two buildings' doors, with pauses and door actions at its waypoints."""
    waypoints = tuple(draw(st.lists(st.sampled_from(NEAR_POINTS), min_size=2, max_size=5, unique=True)))
    at = st.lists(st.integers(1, len(waypoints) - 1), unique=True, max_size=2)
    actions = tuple(DoorAction(w, "doorA", draw(st.sampled_from([OPEN_AND_CROSS, TURN_BACK]))) for w in draw(at))
    pauses = tuple((w, draw(st.sampled_from([0.004, 0.005, 0.015, 1.5]))) for w in draw(at))
    cadence = draw(st.sampled_from([1.6, 2.0, 2.4]))
    try:
        return WalkScript(waypoints=waypoints, cadence=cadence, door_actions=actions, pauses=pauses)
    except InvalidScriptError:  # a turn-back before any step
        assume(False)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(script=near_scripts(), sample_rate=st.sampled_from([20.0, 25.0, 100.0, 133.0]), delta=st.integers(-40, 40))
def test_cap_refuses_exactly_the_walks_the_oracle_builds_over_it(monkeypatch, script, sample_rate, delta):
    """With the cap a few samples either side of the walk's length, generate_walk refuses the walk
    if and only if per_step_walk_oracle builds more samples than the cap."""
    try:
        trace, _ = generate_walk(script, sample_rate=sample_rate)
    except InvalidScriptError as exc:
        assert str(exc) == "walk has no samples: no steps, pauses or door wiggles"
        return
    n = len(per_step_walk_oracle(script, sample_rate=sample_rate)[0])
    assert len(trace) == n
    cap = max(1, n + delta)
    with monkeypatch.context() as patch:  # undone before the next example
        patch.setattr(sim, "MAX_WALK_SAMPLES", cap)
        try:
            generate_walk(script, sample_rate=sample_rate)
        except InvalidScriptError as exc:
            assert str(exc) == f"walk of {n / sample_rate:.6g} s at {sample_rate} Hz exceeds {cap} samples"
            assert n > cap
        else:
            assert n <= cap
