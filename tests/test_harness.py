import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import make_golden
import seamloc.cli as cli
from seamloc import errors, harness
from seamloc import (
    Door,
    DoorOpenEvent,
    Fingerprint,
    FloorPlan,
    GroundTruth,
    InvalidInputError,
    InvalidParameterError,
    InvariantViolation,
    ParseError,
    PipelineConfig,
    Point2,
    Pose,
    RadioMap,
    Segment2,
    StepEvent,
    SwitchEvent,
    Trace,
    cdf_fraction_below,
    crossing_script,
    evaluate,
    format_report,
    generate_walk,
    track,
    turn_back_script,
    two_building_plan,
)
from seamloc.harness import (
    TRACE_HEADER,
    EventLog,
    load_floorplan,
    load_observation,
    load_radiomap,
    load_trace,
    load_trial,
    load_truth,
    load_walk_script,
    save_events,
    save_floorplan,
    save_path,
    save_radiomap,
    save_report,
    save_trace,
    save_truth,
)
from seamloc.sim import NoiseModel, WalkScript


def make_truth(final_xy, crossings=(), turn_backs=(), group=""):
    """Minimal ground truth ending at final_xy: one step, or as many as its last crossing or turn-back
    needs, every step at final_xy."""
    k = 1 + max([step for step, _ in [*crossings, *turn_backs]] + [0])
    return GroundTruth(
        step_times=0.5 * np.arange(1, k + 1),
        step_positions=np.tile(np.asarray(final_xy, dtype=float), (k, 1)),
        step_headings=np.zeros(k),
        environments=("indoor",) * k,
        door_open_intervals=(),
        crossings=tuple(crossings),
        turn_backs=tuple(turn_backs),
        initial_position=Point2(0.0, 0.0),
        initial_heading=0.0,
        initial_environment="indoor",
        group=group,
    )


def log_with(switches=(), final=Point2(0.0, 0.0)):
    log = EventLog()
    log.switches = list(switches)
    log.poses = [Pose(final, 0.0)]
    log.environments = ["indoor"]
    return log


def switch(step, door="doorA"):
    return SwitchEvent(step_index=step, door_id=door, crossing_point=Point2(0, 0), from_env="indoor", to_env="outdoor")


# An outdoor start with no walls or doors: the heading Kalman filter tracks every step.
OUTDOOR_PLAN = FloorPlan(walls=(), doors=(), start_position=Point2(0, 0), start_heading=0.0, start_environment="outdoor")


def outdoor_trace(scale: float) -> Trace:
    """A 6 m outdoor walk with its sample times multiplied by scale."""
    script = WalkScript(waypoints=(Point2(0, 0), Point2(6, 0)), start_environment="outdoor")
    trace, _ = generate_walk(script, NoiseModel(seed=1))
    return dataclasses.replace(trace, t=trace.t * scale)


def seamloc_subprocess(*args):
    """`python -m seamloc.cli args` in a separate interpreter, where an uncaught
    exception shows on stderr as a traceback and a numpy overflow as a warning."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    cmd = [sys.executable, "-m", "seamloc.cli", *map(str, args)]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


class TestTrack:
    def test_empty_trace(self):
        trace = Trace(t=np.array([]), accel=np.empty((0, 3)), gyro=np.empty((0, 3)), mag=np.empty((0, 3)))
        path, log = track(trace, two_building_plan())
        assert path == [] and log.steps == [] and log.switches == []

    def test_empty_trace_needs_the_plan_start(self):
        # The start check holds for an empty trace as for any other.
        trace = Trace(t=np.array([]), accel=np.empty((0, 3)), gyro=np.empty((0, 3)), mag=np.empty((0, 3)))
        plan = FloorPlan(walls=two_building_plan().walls, doors=())
        with pytest.raises(InvalidInputError, match="floor plan lacks a start annotation"):
            track(trace, plan)

    def test_noiseless_crossing_walk_two_switches(self):
        plan = two_building_plan()
        trace, truth = generate_walk(crossing_script(plan), doors=plan.doors)
        path, log = track(trace, plan)
        assert len(log.switches) == 2
        for sw, (true_step, door_id) in zip(log.switches, truth.crossings):
            assert sw.door_id == door_id
            assert abs(sw.step_index - true_step) <= 5
        assert log.switches[0].to_env == "outdoor"
        assert log.switches[1].to_env == "indoor"

    def test_noiseless_turn_back_no_switch(self):
        plan = two_building_plan()
        trace, truth = generate_walk(turn_back_script(plan), doors=plan.doors)
        path, log = track(trace, plan)
        assert log.switches == []
        assert len(path) == truth.step_count

    def test_active_filter_follows_environment(self):
        plan = two_building_plan()
        trace, _ = generate_walk(crossing_script(plan), doors=plan.doors)
        _, log = track(trace, plan)
        # After the first switch the tracked environment flips outdoor, then back.
        assert log.environments[0] == "indoor"
        assert "outdoor" in log.environments
        assert log.environments[-1] == "indoor"

    def test_plan_without_start_rejected(self):
        plan = FloorPlan(walls=(), doors=())
        trace, _ = generate_walk(crossing_script(two_building_plan()))
        with pytest.raises(InvalidInputError):
            track(trace, plan)

    def test_door_open_flags_follow_the_tie_rule_at_step_times(self, monkeypatch):
        # Detected openings never start or end at a step's t; these do. A step sees an opening
        # that starts or ends at its own t, and not one that ends at the previous step's t.
        from seamloc import crossing as crossing_mod

        plan = two_building_plan()
        trace, _ = generate_walk(crossing_script(plan), doors=plan.doors)

        def detect_door_openings(t, a, cfg, steps):
            ts = [s.t for s in steps]
            return [
                DoorOpenEvent(ts[1], ts[1], 2),  # an instant at step 1
                DoorOpenEvent(ts[3], ts[5], 2),  # from step 3's t to step 5's
                DoorOpenEvent(ts[5], ts[6], 2),  # touching the one before
                DoorOpenEvent((ts[8] + ts[9]) / 2, (ts[8] + ts[9]) / 2, 2),  # between steps 8 and 9
                DoorOpenEvent(ts[11], ts[-1] + 1.0, 2),  # past the last step
            ]

        observe = crossing_mod.observe_step
        flags = []

        def recording(cstate, k, prev, pos, opened, *args):
            flags.append(opened)
            return observe(cstate, k, prev, pos, opened, *args)

        monkeypatch.setattr(harness, "detect_door_openings", detect_door_openings)
        monkeypatch.setattr(crossing_mod, "observe_step", recording)
        _, log = track(trace, plan)
        want = []
        for k, step in enumerate(log.steps):
            prev_t = log.steps[k - 1].t if k else float("-inf")
            want.append(any(ev.t_start <= step.t and ev.t_end > prev_t for ev in log.door_opens))
        assert flags == want
        assert flags[:13] == [False, True, False, True, True, True, True, False, False, True, False, True, True]

    def test_divergence_reports_step_index(self):
        from seamloc import FilterDivergenceError, PfConfig, WalkScript

        # Sealed box much smaller than a step: every particle must cross a wall.
        box = FloorPlan(
            walls=(
                Segment2(Point2(-0.3, -0.3), Point2(0.3, -0.3)),
                Segment2(Point2(0.3, -0.3), Point2(0.3, 0.3)),
                Segment2(Point2(0.3, 0.3), Point2(-0.3, 0.3)),
                Segment2(Point2(-0.3, 0.3), Point2(-0.3, -0.3)),
            ),
            doors=(),
            start_position=Point2(0, 0),
            start_heading=0.0,
            start_environment="indoor",
        )
        trace, _ = generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(3, 0))))
        cfg = PipelineConfig(pf=PfConfig(init_sigma=0.02, step_sigma=0.02))
        with pytest.raises(FilterDivergenceError, match="step 0"):
            track(trace, box, cfg)

    @pytest.mark.parametrize("scale", [1e120, 1e188])
    def test_kf_heading_overflow_names_its_sample(self, scale):
        # Every interval and yaw increment is finite, but over intervals of 1e118 s and more
        # the heading filter's covariance overflows and its heading turns NaN.
        with pytest.raises(InvariantViolation, match=r"^kf-finite: KF heading \S+, covariance \[\[.*\]\] at sample \d+$") as got:
            track(outdoor_trace(scale), OUTDOOR_PLAN)
        key, sample = got.value.record
        assert key is None and str(got.value).endswith(f"at sample {sample}")

    def test_wall_at_the_plan_limit_is_tracked_without_warning(self):
        # The wall's box holds the walk, so the wall test takes it in, but its line passes about 4e99 m
        # above the walk: its products reach 1e200 and stay finite, and no particle crosses it.
        plan = two_building_plan()
        far = Segment2(Point2(-1e100, 1e100), Point2(1e100, -1e99))
        trace, _ = generate_walk(crossing_script(plan), NoiseModel(seed=3), doors=plan.doors)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path, log = track(trace, dataclasses.replace(plan, walls=(*plan.walls, far)))
        want_path, want_log = track(trace, plan)
        assert path == want_path and log.switches == want_log.switches

    def test_kf_heading_within_float_range_is_tracked(self):
        path, log = track(outdoor_trace(1e100), OUTDOOR_PLAN)
        assert len(path) == len(log.steps) > 0
        assert all(math.isfinite(pose.heading) for pose in path)


class TestEvaluate:
    def test_all_detected(self):
        results = []
        for i in range(10):
            truth = make_truth([1.0, 0.0], crossings=[(0, "doorA")], group="crossing")
            results.append((log_with(switches=[switch(1)], final=Point2(1, 0)), truth))
        report = evaluate(results)
        assert report.true_positive_rate == 1.0
        assert report.false_negative_rate == 0.0
        assert report.effectivity["crossing"] == 100.0

    def test_turn_back_with_one_spurious_switch(self):
        results = []
        for i in range(50):
            truth = make_truth([1.0, 0.0], turn_backs=[(0, "doorA")], group="turn_back")
            switches = [switch(0)] if i == 0 else []
            results.append((log_with(switches=switches, final=Point2(1, 0)), truth))
        report = evaluate(results)
        assert report.false_positive_rate == pytest.approx(0.02)
        assert report.true_negative_rate == pytest.approx(0.98)

    def test_wrong_door_not_matched(self):
        truth = make_truth([1.0, 0.0], crossings=[(0, "doorA")])
        report = evaluate([(log_with(switches=[switch(0, door="doorB")], final=Point2(1, 0)), truth)])
        assert report.counts["true_positives"] == 0
        assert report.counts["false_positives"] == 1

    def test_crossings_listed_out_of_step_order(self):
        truth = make_truth([1.0, 0.0], crossings=[(14, "doorA"), (10, "doorA")])
        report = evaluate([(log_with(switches=[switch(10), switch(16)], final=Point2(1, 0)), truth)])
        assert report.counts["true_positives"] == 2
        assert report.counts["false_positives"] == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["doorA", "doorB"])), max_size=6),
        st.lists(st.tuples(st.integers(0, 30), st.sampled_from(["doorA", "doorB"])), max_size=6),
        st.integers(0, 6),
    )
    def test_matching_is_a_maximum_matching(self, crossings, switches, window):
        linear_sum_assignment = pytest.importorskip("scipy.optimize").linear_sum_assignment
        truth = make_truth([1.0, 0.0], crossings=crossings)
        events = [switch(step, door) for step, door in switches]
        fits = np.array(
            [[door == sw.door_id and abs(sw.step_index - step) <= window for sw in events] for step, door in crossings],
            dtype=float,
        ).reshape(len(crossings), len(events))
        rows, cols = linear_sum_assignment(fits, maximize=True)
        best = int(fits[rows, cols].sum())
        assert harness._match_switches(events, truth, window) == (best, len(events) - best)

    def test_outside_window_not_matched(self):
        truth = make_truth([1.0, 0.0], crossings=[(0, "doorA")])
        report = evaluate([(log_with(switches=[switch(6)], final=Point2(1, 0)), truth)])
        assert report.counts["true_positives"] == 0

    def test_cdf_step_function(self):
        results = [
            (log_with(final=Point2(0, 0)), make_truth([e, 0.0])) for e in (1.0, 2.0, 3.0, 4.0)
        ]
        report = evaluate(results)
        assert cdf_fraction_below(report.cdf, 3.5) == pytest.approx(0.75)
        fracs = [f for _, f in report.cdf]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_permutation_invariance(self):
        results = [
            (log_with(switches=[switch(0)], final=Point2(1, 0)), make_truth([1.0, 0.0], crossings=[(0, "doorA")])),
            (log_with(final=Point2(2, 0)), make_truth([1.0, 0.0], turn_backs=[(0, "doorA")])),
            (log_with(final=Point2(0, 1)), make_truth([3.0, 0.0], crossings=[(1, "doorB")])),
        ]
        a = evaluate(results)
        b = evaluate(list(reversed(results)))
        assert a.counts == b.counts
        assert sorted(a.final_errors) == sorted(b.final_errors)

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidInputError):
            evaluate([])

    def test_negative_match_window_rejected(self):
        truth = make_truth([1.0, 0.0], crossings=[(0, "doorA")])
        results = [(log_with(switches=[switch(0)], final=Point2(1, 0)), truth)]
        with pytest.raises(InvalidParameterError, match="match_window"):
            evaluate(results, match_window=-1)
        assert evaluate(results, match_window=0).counts["true_positives"] == 1

    def test_unmatched_switch_without_turn_backs(self):
        # A spurious switch in a crossing-only suite: no negative approaches,
        # so FPR and TNR stay undefined, but the switch is still reported.
        truth = make_truth([1.0, 0.0], crossings=[(0, "doorA")], group="crossing")
        report = evaluate([(log_with(switches=[switch(0), switch(3, door="doorB")], final=Point2(1, 0)), truth)])
        assert report.counts["true_positives"] == 1
        assert report.counts["false_positives"] == 1
        assert report.counts["true_negatives"] == 0
        assert math.isnan(report.false_positive_rate) and math.isnan(report.true_negative_rate)
        assert report.false_switches_per_trial == 1.0
        assert "false switches per trial: 1.000" in format_report(report)

    def test_true_negatives_never_negative(self):
        truth = make_truth([1.0, 0.0], turn_backs=[(0, "doorA")])
        report = evaluate([(log_with(switches=[switch(0), switch(2)], final=Point2(1, 0)), truth)])
        assert report.counts["false_positives"] == 2
        assert report.counts["true_negatives"] == 0
        assert report.false_switches_per_trial == 2.0

    def test_unmatched_switches_charge_at_most_the_trials_turn_backs(self):
        truth = make_truth([1.0, 0.0], turn_backs=[(0, "doorA")])
        report = evaluate([(log_with(switches=[switch(0), switch(2)], final=Point2(1, 0)), truth)])
        assert report.false_positive_rate == 1.0
        assert report.true_negative_rate == 0.0
        assert report.counts["false_positives"] == 2
        assert "false switches: 2" in format_report(report)

    def test_crossing_trial_switch_does_not_charge_turn_backs(self):
        crossing = make_truth([1.0, 0.0], crossings=[(0, "doorA")], group="crossing")
        turn_back = make_truth([1.0, 0.0], turn_backs=[(0, "doorA")], group="turn_back")
        results = [
            (log_with(switches=[switch(0), switch(3, door="doorB")], final=Point2(1, 0)), crossing),
            (log_with(final=Point2(1, 0)), turn_back),
            (log_with(final=Point2(1, 0)), turn_back),
        ]
        report = evaluate(results)
        assert report.counts["false_positives"] == 1
        assert report.counts["true_negatives"] == 2
        assert report.false_positive_rate == 0.0
        assert report.true_negative_rate == 1.0
        assert report.false_switches_per_trial == pytest.approx(1 / 3)
        assert "false switches: 1" in format_report(report)


class TestFormats:
    def test_trace_round_trip(self, tmp_path):
        trace, _ = generate_walk(crossing_script(two_building_plan()), NoiseModel(accel_sigma=0.03, seed=3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trace(trace, p1)
        save_trace(load_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def row_writer_bytes(trace):
        """The trace CSV written row by row, each value through repr(float(v))."""
        lines = ["t,ax,ay,az,gx,gy,gz,mx,my,mz"]
        for i in range(len(trace)):
            row = [trace.t[i], *trace.accel[i], *trace.gyro[i], *trace.mag[i]]
            lines.append(",".join(repr(float(v)) for v in row))
        return ("\n".join(lines) + "\n").encode("utf-8")

    @pytest.mark.parametrize("n", [0, 1, 7])
    def test_save_trace_matches_row_writer(self, tmp_path, n):
        rng = np.random.default_rng(n)
        specials = np.array([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1 / 3])
        cols = rng.choice(specials, size=(n, 9)) * rng.choice([1.0, -1.0], size=(n, 9))
        cols[:, :3][np.abs(cols[:, :3]) == 1e300] *= 1e-150  # an acceleration's squared norm must stay finite
        trace = Trace(t=np.arange(n) * 0.01 + 1e-310, accel=cols[:, :3], gyro=cols[:, 3:6], mag=cols[:, 6:])
        save_trace(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == self.row_writer_bytes(trace)

    def test_save_trace_matches_row_writer_on_a_walk(self, tmp_path):
        trace, _ = generate_walk(crossing_script(two_building_plan()), NoiseModel(accel_sigma=0.03, seed=3))
        save_trace(trace, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == self.row_writer_bytes(trace)

    def test_minimal_two_sample_trace(self, tmp_path):
        p = tmp_path / "two.csv"
        p.write_text(
            "t,ax,ay,az,gx,gy,gz,mx,my,mz\n"
            "0.0,0.0,0.0,9.81,0.0,0.0,0.0,22.0,0.0,-43.0\n"
            "0.01,0.0,0.0,9.81,0.0,0.0,0.0,22.0,0.0,-43.0\n"
        )
        assert len(load_trace(p)) == 2

    def test_trace_non_monotonic_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text(
            "t,ax,ay,az,gx,gy,gz,mx,my,mz\n"
            "0.0,0,0,9.81,0,0,0,22,0,-43\n"
            "0.0,0,0,9.81,0,0,0,22,0,-43\n"
        )
        with pytest.raises(InvariantViolation, match="trace-monotonic-time"):
            load_trace(p)

    @pytest.mark.parametrize("tail", [("inf", "inf"), ("nan", "0.02")])
    def test_trace_non_finite_time_rejected_before_order(self, tmp_path, tail):
        # Finiteness comes first: inf timestamps would make the order check
        # subtract inf - inf, and a NaN one would read as out of order.
        p = tmp_path / "bad.csv"
        rows = [f"{t},0,0,9.81,0,0,0,22,0,-43" for t in ("0.0", *tail)]
        p.write_text("t,ax,ay,az,gx,gy,gz,mx,my,mz\n" + "\n".join(rows) + "\n")
        with pytest.raises(InvariantViolation, match="trace-finite"):
            load_trace(p)

    @pytest.mark.parametrize("accel", [(1e200, 0.0, 9.81), (0.0, -1e200, 9.81), (1e154, 1e154, 1e154)])
    def test_trace_accel_norm_overflow_rejected(self, accel):
        # Every value is finite, but the squared norm that normalized_series takes overflows.
        a = np.tile([0.0, 0.0, 9.81], (4, 1))
        a[2] = accel
        with pytest.raises(InvariantViolation, match="trace-accel-norm-finite") as got:
            Trace(t=np.arange(4) * 0.01, accel=a, gyro=np.zeros((4, 3)), mag=np.tile([22.0, 0.0, -43.0], (4, 1)))
        assert got.value.record == (None, 2)

    def test_trace_accel_norms_whose_sum_alone_overflows_accepted(self):
        a = np.tile([1e154, 0.0, 0.0], (4, 1))  # each squared norm is 1e308; their sum is not finite
        trace = Trace(t=np.arange(4) * 0.01, accel=a, gyro=np.zeros((4, 3)), mag=np.tile([22.0, 0.0, -43.0], (4, 1)))
        assert len(trace) == 4

    def test_trace_bad_column_count(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("t,ax,ay,az,gx,gy,gz,mx,my,mz\n1,2,3\n")
        with pytest.raises(ParseError):
            load_trace(p)

    def test_floorplan_round_trip(self, tmp_path):
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_floorplan(two_building_plan(), p1)
        save_floorplan(load_floorplan(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_floorplan_tangent_normalized_with_warning(self, tmp_path):
        p = tmp_path / "plan.txt"
        off = 1.0 + 5e-7
        p.write_text(f"version: 1\ndoor: d 0.0 0.0 {off} 0.0 indoor outdoor\n")
        with pytest.warns(UserWarning):
            plan = load_floorplan(p)
        assert abs(math.hypot(*plan.doors[0].tangent) - 1.0) < 1e-12

    def test_floorplan_bad_tangent_rejected(self, tmp_path):
        p = tmp_path / "plan.txt"
        p.write_text("version: 1\ndoor: d 0.0 0.0 1.5 0.0 indoor outdoor\n")
        with pytest.raises(InvariantViolation, match="door-tangent-unit"):
            load_floorplan(p)

    @pytest.mark.parametrize("start", ["", "start: 4.6 4.0 0.0 indoor\n"])
    def test_floorplan_repeated_door_id_names_the_later_door(self, tmp_path, start):
        p = tmp_path / "plan.txt"
        doors = "door: d 0 0 0 1 indoor outdoor\nwall: 0 0 1 0\ndoor: d 5 0 0 1 indoor outdoor\n"
        p.write_text(f"version: 1\n{doors}{start}")
        with pytest.raises(InvariantViolation, match=r":4: door-id-unique: door d") as got:
            load_floorplan(p)
        assert got.value.path == str(p) and got.value.line == 4

    def test_floorplan_nan_tangent_rejected_without_warning(self, tmp_path):
        # abs(nan - 1) > tol is False: the load rule must be written so that NaN fails it.
        p = tmp_path / "plan.txt"
        p.write_text("version: 1\ndoor: doorA 10.0 4.0 nan 1.0 indoor outdoor\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match=r":2: door-tangent-unit: \|tangent\| = nan"):
                load_floorplan(p)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(theta=st.floats(-math.pi, math.pi), e=st.floats(-2e-6, 2e-6))
    @example(theta=1.0187, e=0.0)  # |(cos, sin)| is 0.9999999999999999
    @example(theta=1.0187000000000002, e=0.0)  # (0.5244732491240035, 0.8514269263731978), as long
    @example(theta=1.0187, e=5e-7)
    @example(theta=1.0187, e=-1.5e-6)
    def test_door_tangent_rule_is_the_same_on_load_and_in_code(self, tmp_path, theta, e):
        """Within 1e-9 of unit length a tangent is kept; up to 1e-6 off it is normalized
        with one warning; beyond, it is refused. Every door accepted saves and loads back equal."""
        tangent = (math.cos(theta) * (1.0 + e), math.sin(theta) * (1.0 + e))
        off = abs(math.hypot(*tangent) - 1.0)
        p = tmp_path / "plan.txt"
        written = f"version: 1\ndoor: d 1.0 2.0 {tangent[0]!r} {tangent[1]!r} indoor outdoor\n"
        p.write_text(written)
        builds = [lambda: Door("d", Point2(1.0, 2.0), tangent, "indoor", "outdoor"), lambda: load_floorplan(p).doors[0]]
        if not off <= 1e-6:
            for build in builds:
                with pytest.raises(InvariantViolation, match=r"door-tangent-unit: \|tangent\| = "):
                    build()
            return
        doors = []
        for build in builds:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                doors.append(build())
            assert len(caught) == (off > 1e-9), [str(w.message) for w in caught]
        door = doors[0]
        assert doors[1] == door
        assert door.tangent == tangent if off <= 1e-9 else abs(math.hypot(*door.tangent) - 1.0) <= 1e-9
        plan = FloorPlan(walls=(), doors=(door,))
        save_floorplan(plan, p)
        assert p.read_text() == written or off > 1e-9  # a tangent kept saves back to the same bytes
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert load_floorplan(p) == plan

    @pytest.mark.parametrize(
        "load, text, message",
        [
            (load_radiomap, "version: 1\n", "radiomap-nonempty: no reference points"),
            (load_observation, "# no readings\n", "no RSS readings"),
            (load_walk_script, "version: 1\nwaypoint: 0 0\n", "need at least two waypoints"),
        ],
    )
    def test_whole_file_error_names_its_file(self, cli_run, tmp_path, capsys, load, text, message):
        p = tmp_path / LOADER_COMMANDS[load][2]
        p.write_text(text)
        with pytest.raises(errors.SeamlocError) as got:
            load(p)
        assert str(got.value) == f"{p}: {message}"
        assert got.value.path == str(p) and got.value.line is None
        assert_the_cli_prints(capsys, cli_run, load, p, got.value)

    def test_floorplan_requires_version(self, tmp_path):
        p = tmp_path / "plan.txt"
        p.write_text("wall: 0 0 1 0\n")
        with pytest.raises(ParseError):
            load_floorplan(p)

    def test_radiomap_round_trip(self, tmp_path):
        from seamloc import Fingerprint, RadioMap

        rm = RadioMap(
            entries=(
                Fingerprint(Point2(0.5, 1.5), {"ap2": -61.25, "ap1": -50.0}),
                Fingerprint(Point2(3.25, -2.0), {"ap1": -72.5}),
            )
        )
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        save_radiomap(rm, p1)
        save_radiomap(load_radiomap(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truth_round_trip_fields(self, tmp_path):
        plan = two_building_plan()
        _, truth = generate_walk(crossing_script(plan), doors=plan.doors, group="crossing")
        p = tmp_path / "truth.txt"
        save_truth(truth, p)
        loaded = load_truth(p)
        assert loaded.crossings == truth.crossings
        assert loaded.turn_backs == truth.turn_backs
        assert loaded.group == "crossing"
        assert loaded.step_count == truth.step_count
        assert np.allclose(loaded.step_positions, truth.step_positions)

    def test_trial_round_trip(self, tmp_path):
        plan = two_building_plan()
        trace, _ = generate_walk(crossing_script(plan), doors=plan.doors)
        _, log = track(trace, plan)
        save_events(log, tmp_path / "t.events.csv")
        save_path(log, tmp_path / "t.path.csv")
        loaded = load_trial(tmp_path / "t.events.csv", tmp_path / "t.path.csv")
        assert len(loaded.steps) == len(log.steps)
        assert len(loaded.switches) == len(log.switches)
        assert loaded.switches[0].door_id == log.switches[0].door_id
        assert loaded.poses[-1].position.x == pytest.approx(log.poses[-1].position.x)

    @pytest.mark.parametrize(
        "switch, refused",
        [
            ("switch,1,1.0,doorA,1.0,2.0,,,,indoor,outdoor", False),  # its step's t, as save_events writes it
            ("switch,1,7.5,doorA,1.0,2.0,,,,indoor,outdoor", True),  # loaded, and saved back as t 1.0
            ("switch,2,0.0,doorA,1.0,2.0,,,,indoor,outdoor", False),  # past the last step: 0.0
            ("switch,2,1.0,doorA,1.0,2.0,,,,indoor,outdoor", True),
            ("switch,9,-0.0,doorA,1.0,2.0,,,,indoor,outdoor", True),
            ("switch,-1,0.0,doorA,1.0,2.0,,,,indoor,outdoor", False),  # at no step, as past the last
            ("switch,-1,1.0,doorA,1.0,2.0,,,,indoor,outdoor", True),
        ],
    )
    def test_switch_t_reads_back_as_written(self, tmp_path, switch, refused):
        events, path = tmp_path / "t.events.csv", tmp_path / "t.path.csv"
        events.write_text(f"{harness.EVENTS_HEADER}\nstep,0,0.5,,,,,,,,\nstep,1,1.0,,,,,,,,\n{switch}\n")
        path.write_text(f"{harness.PATH_HEADER}\n0,0.5,0.75,0.0,0.0,indoor\n1,1.0,1.5,0.0,0.0,indoor\n")
        if refused:
            with pytest.raises(ParseError, match=rf"^{re.escape(str(events))}:4: switch at step -?\d+ has t ") as got:
                load_trial(events, path)
            assert got.value.line == 4
            return
        save_events(load_trial(events, path), tmp_path / "again.csv")  # rows sorted by t: a 0.0 switch goes first
        assert sorted((tmp_path / "again.csv").read_text().splitlines()) == sorted(events.read_text().splitlines())

    def test_walk_script_load(self, tmp_path):
        p = tmp_path / "walk.txt"
        p.write_text(
            "version: 1\n"
            "waypoint: 0.0 0.0\n"
            "waypoint: 6.0 0.0\n"
            "cadence: 2.5\n"
            "step_length: 0.7\n"
            "door_action: 1 doorA open-and-cross\n"
            "pause: 0 1.0\n"
        )
        script = load_walk_script(p)
        assert len(script.waypoints) == 2
        assert script.cadence == 2.5
        assert script.door_actions[0].door_id == "doorA"
        assert script.pauses == ((0, 1.0),)

    @pytest.mark.parametrize(
        "row, message",
        [
            ("door_action: 1 doorA", "door_action needs 'waypoint door action'"),
            ("pause: 0", "pause needs 'waypoint seconds'"),
            ("waypoint: 6.0", "expected 2 fields, got 1"),
            ("bogus: 1", "unknown record 'bogus'"),
        ],
    )
    def test_walk_script_error_names_file_and_line_once(self, tmp_path, row, message):
        p = tmp_path / "ws.txt"
        p.write_text(f"version: 1\nwaypoint: 0.0 0.0\nwaypoint: 6.0 0.0\n{row}\n")
        with pytest.raises(ParseError) as info:
            load_walk_script(p)
        assert str(info.value) == f"{p}:4: {message}"
        assert info.value.line == 4

    def test_walk_script_bad_number_is_wrapped_once(self, tmp_path):
        p = tmp_path / "ws.txt"
        p.write_text("version: 1\nwaypoint: 0.0 0.0\ncadence: fast\n")
        with pytest.raises(ParseError) as info:
            load_walk_script(p)
        assert str(info.value).startswith(f"{p}:3: bad number: ")
        assert str(info.value).count(str(p)) == 1


class TestReportOutput:
    def test_four_cell_structure(self, tmp_path):
        results = [
            (log_with(switches=[switch(0)], final=Point2(1, 0)), make_truth([1.0, 0.0], crossings=[(0, "doorA")], group="crossing")),
            (log_with(final=Point2(1, 0)), make_truth([1.0, 0.0], turn_backs=[(0, "doorA")], group="turn_back")),
        ]
        report = evaluate(results)
        save_report(report, tmp_path)
        text = (tmp_path / "report.txt").read_text()
        assert "actual positive" in text and "actual negative" in text
        assert "estimated positive" in text and "estimated negative" in text
        conf = (tmp_path / "confusion.csv").read_text().splitlines()
        assert conf[0] == ",actual_positive,actual_negative"
        assert len(conf) == 3
        cdf_lines = (tmp_path / "cdf.csv").read_text().splitlines()
        assert cdf_lines[0] == "error,fraction"
        assert len(cdf_lines) == 3


class TestCli:
    def write_inputs(self, tmp_path):
        plan_file = tmp_path / "plan.txt"
        save_floorplan(two_building_plan(), plan_file)
        script_file = tmp_path / "walk.txt"
        script_file.write_text(
            "version: 1\n"
            "waypoint: 4.6 4.0\n"
            "waypoint: 9.3 4.0\n"
            "waypoint: 13.05 4.0\n"
            "door_action: 1 doorA open-and-cross\n"
        )
        return plan_file, script_file

    def test_simulate_track_eval_report(self, tmp_path, capsys):
        plan_file, _ = self.write_inputs(tmp_path)
        script_file = tmp_path / "walk.txt"
        script_file.write_text(CI_WALK)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--script", str(script_file), "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == 0
        assert cli.main(["track", "--trace", str(out / "trial.trace.csv"), "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == 0
        # The tracker finds every step the simulator wrote, the pause and the last turn included.
        tracked = re.search(r"^tracked (\d+) steps", capsys.readouterr().out, re.MULTILINE)
        assert int(tracked[1]) == (out / "trial.truth.txt").read_text().count("\nstep: ") > 0
        # Each file written reads back to the same bytes: load, save again, compare.
        log = load_trial(out / "trial.events.csv", out / "trial.path.csv")
        save_events(log, tmp_path / "events.again.csv")
        save_path(log, tmp_path / "path.again.csv")
        save_truth(load_truth(out / "trial.truth.txt"), tmp_path / "truth.again.txt")
        for name, again in [("events.csv", "events.again.csv"), ("path.csv", "path.again.csv"), ("truth.txt", "truth.again.txt")]:
            assert (out / f"trial.{name}").read_bytes() == (tmp_path / again).read_bytes(), name
        assert cli.main(["eval", "--events", str(out), "--truth", str(out), "--out", str(tmp_path / "rep")]) == 0
        assert cli.main(["report", "--in", str(tmp_path / "rep")]) == 0
        text = capsys.readouterr().out
        assert "Confusion matrix" in text
        assert "CDF points" in text

    def test_turn_back_truth_reads_back_as_written(self, tmp_path):
        # Its turn_back record names a step of the file.
        plan_file, _ = self.write_inputs(tmp_path)
        script = tmp_path / "turn_walk.txt"
        script.write_text("version: 1\nwaypoint: 4.6 4.0\nwaypoint: 8.55 4.0\nwaypoint: 4.6 4.0\ndoor_action: 1 doorA approach-and-turn-back\n")
        assert cli.main(["simulate", "--script", str(script), "--plan", str(plan_file), "--out", str(tmp_path / "turn"), "--seed", "5"]) == 0
        truth = tmp_path / "turn" / "trial.truth.txt"
        assert "\nturn_back: " in truth.read_text()
        save_truth(load_truth(truth), tmp_path / "again.txt")
        assert (tmp_path / "again.txt").read_bytes() == truth.read_bytes()

    def test_back_to_back_calls_share_no_values(self, tmp_path, capsys):
        plan_file, script_file = self.write_inputs(tmp_path)
        first, second = tmp_path / "first", tmp_path / "second"
        args = ["--script", str(script_file), "--plan", str(plan_file)]
        assert cli.main(["simulate", *args, "--out", str(first), "--name", "a", "--seed", "7"]) == 0
        assert cli.main(["report", "--in", str(first)]) == 3  # no report.txt there
        assert cli.main(["simulate", *args, "--out", str(second)]) == 0
        assert sorted(p.name for p in second.iterdir()) == ["trial.trace.csv", "trial.truth.txt"]
        assert cli._parser() is cli._parser()
        parse = cli._parser().parse_args
        seeded = parse(["track", "--trace", "t", "--plan", "p", "--out", "o", "--seed", "5", "--name", "x"])
        plain = parse(["track", "--trace", "t", "--plan", "p", "--out", "o"])
        assert (seeded.seed, seeded.name, plain.seed, plain.name) == (5, "x", None, "trial")
        assert vars(parse(["report", "--in", "d"])) == {"command": "report", "input": "d", "func": cli._cmd_report}

    def test_locate_missing_config_is_parse_error(self, tmp_path, capsys):
        from seamloc import Fingerprint, RadioMap

        rm_file = tmp_path / "rm.txt"
        save_radiomap(
            RadioMap(entries=(Fingerprint(Point2(0, 0), {"ap1": -50.0}), Fingerprint(Point2(2, 0), {"ap1": -56.0}))),
            rm_file,
        )
        obs_file = tmp_path / "obs.txt"
        obs_file.write_text("ap1 -53.0\n")
        rc = cli.main(["locate", "--observation", str(obs_file), "--radiomap", str(rm_file), "--config", str(tmp_path / "cfg.json")])
        assert rc == 3

    def test_locate_with_config(self, tmp_path, capsys):
        from seamloc import Fingerprint, RadioMap

        rm_file = tmp_path / "rm.txt"
        save_radiomap(
            RadioMap(entries=(Fingerprint(Point2(0, 0), {"ap1": -50.0}), Fingerprint(Point2(2, 0), {"ap1": -56.0}))),
            rm_file,
        )
        obs_file = tmp_path / "obs.txt"
        obs_file.write_text("ap1 -53.0\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"wknn": {"k": 2, "mode": "KNN"}}')
        assert cli.main(["locate", "--observation", str(obs_file), "--radiomap", str(rm_file), "--config", str(cfg)]) == 0
        out = capsys.readouterr().out.strip()
        x, y = (float(v) for v in out.split())
        assert x == pytest.approx(1.0)

    @pytest.mark.parametrize("reading", ["inf", "1e200", "-1e200", "nan"])
    def test_locate_reading_outside_the_dbm_rule_names_its_line(self, cli_run, tmp_path, capsys, reading):
        # Every WKNN weight was 0 here, and the sum of weights divided by zero.
        obs = tmp_path / "obs.txt"
        obs.write_text(f"ap1 -53.0\nap1 {reading}\n")
        cfg = tmp_path / "k1.json"
        cfg.write_text('{"wknn": {"k": 1}}')
        args = ["locate", "--observation", str(obs), "--radiomap", str(cli_run / "rm.txt"), "--config", str(cfg)]
        assert cli.main(args) == 4
        assert capsys.readouterr().err.startswith(f"error[invariant]: {obs}:2: fingerprint-dbm-range: ap1: ")

    def test_track_config_leaves_out_noise_and_wknn(self, tmp_path):
        from seamloc import InvalidParameterError, PfConfig

        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"wknn": {"k": 2}, "noise": {"seed": 4}, "pf": {"particle_count": 50}}')
        built = cli.build_pipeline_config(cli.load_config(cfg), seed=3)
        assert built == PipelineConfig(pf=PfConfig(particle_count=50), seed=3)
        cfg.write_text('{"wknn": {"neighbours": 2}}')
        with pytest.raises(InvalidParameterError):  # load_config still checks the wknn section
            cli.load_config(cfg)

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        plan_file, script_file = self.write_inputs(tmp_path)
        rc = cli.main(["track", "--trace", str(bad), "--plan", str(plan_file), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "error[parse]" in capsys.readouterr().err

    def test_empty_trace_with_startless_plan_exit_code(self, tmp_path, capsys):
        trace = tmp_path / "empty.csv"
        trace.write_text(f"{TRACE_HEADER}\n")
        plan_file = GOLDEN / "plan_no_start.txt"
        assert cli.main(["track", "--trace", str(trace), "--plan", str(plan_file), "--out", str(tmp_path / "o")]) == 5
        assert capsys.readouterr().err.startswith("error[invalid-input]: floor plan lacks a start annotation")

    def test_repeated_door_id_exit_code(self, tmp_path, capsys):
        plan_file, script_file = self.write_inputs(tmp_path)
        lines = plan_file.read_text().splitlines()
        door = next(k for k, line in enumerate(lines) if line.startswith("door: doorA"))
        lines.insert(door + 1, lines[door])
        plan_file.write_text("\n".join(lines) + "\n")
        out = str(tmp_path / "o")
        assert cli.main(["simulate", "--script", str(script_file), "--plan", str(plan_file), "--out", out]) == 4
        assert capsys.readouterr().err.startswith(f"error[invariant]: {plan_file}:{door + 2}: door-id-unique")

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        plan_file, script_file = self.write_inputs(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pf": {"particles": 10}}')
        rc = cli.main(["simulate", "--script", str(script_file), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert "error[invalid-parameter]" in capsys.readouterr().err

    def test_yaw_axis_is_no_config_key(self, tmp_path, capsys):
        # The device z axis is vertical for the gyro and the magnetometer alike.
        plan_file, _ = self.write_inputs(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pdr": {"yaw_axis": "z"}}')
        rc = cli.main(["track", "--trace", "t.csv", "--plan", str(plan_file), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error[invalid-parameter]: unknown pdr keys: ['yaw_axis']")

    def _tracked_trial(self, tmp_path):
        plan_file, script_file = self.write_inputs(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--script", str(script_file), "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == 0
        assert cli.main(["track", "--trace", str(out / "trial.trace.csv"), "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == 0
        return out

    def _eval_subprocess(self, out, tmp_path):
        return seamloc_subprocess("eval", "--events", out, "--truth", out, "--out", tmp_path / "rep")

    @staticmethod
    def _replace_first(path, prefix, new_line):
        lines = path.read_text().splitlines()
        k = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
        lines[k] = new_line
        path.write_text("\n".join(lines) + "\n")
        return k + 1

    def test_eval_blank_step_row_is_parse_error(self, tmp_path):
        out = self._tracked_trial(tmp_path)
        events = out / "trial.events.csv"
        lineno = self._replace_first(events, "step,", "step,,,,,,,,,,")
        proc = self._eval_subprocess(out, tmp_path)
        assert proc.returncode == 3
        assert "error[parse]" in proc.stderr and f"trial.events.csv:{lineno}:" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_eval_short_truth_step_row_is_parse_error(self, tmp_path):
        out = self._tracked_trial(tmp_path)
        truth = out / "trial.truth.txt"
        lineno = self._replace_first(truth, "step:", "step: 0 0.25")
        proc = self._eval_subprocess(out, tmp_path)
        assert proc.returncode == 3
        assert "error[parse]" in proc.stderr and f"trial.truth.txt:{lineno}:" in proc.stderr
        assert "Traceback" not in proc.stderr


def row_loop_trace(path):
    """The row loop load_trace used before its numpy fast path, as an oracle.

    It numbers lines as they stand in the file, blank ones included.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].strip() != TRACE_HEADER:
        raise ParseError("expected header", path=str(path), line=lines[0][0] if lines else None)
    rows = []
    for lineno, line in lines[1:]:
        parts = line.split(",")
        if len(parts) != 10:
            raise ParseError(f"expected 10 columns, got {len(parts)}", path=str(path), line=lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
    return np.array(rows).reshape(-1, 10)


def trace_columns(path, monkeypatch):
    """load_trace's parsed columns, before Trace checks time order and finiteness."""
    monkeypatch.setattr(harness, "Trace", lambda t, accel, gyro, mag: np.column_stack([t, accel, gyro, mag]))
    return load_trace(path)


def outcome(load, path):
    try:
        data = load(path)
    except ParseError as exc:
        return "parse", exc.line
    return "ok", data.shape, data.tobytes()


# Fields that float() and numpy read alike, and fields only float() reads,
# which send load_trace to its row loop.
field = st.one_of(
    st.floats().map(repr),
    st.integers(-(10**6), 10**6).map(str),
    st.sampled_from(["-0.0", "-nan", "+1e5", " 2.5 ", "\t7", "1e500", "4.9e-324", ".5", "5."]),
)
float_only_field = st.sampled_from(["1_0", "\uff11", "\u0663.5"])
full_row = st.lists(field, min_size=10, max_size=10).map(",".join)
float_only_row = st.tuples(st.lists(field, min_size=9, max_size=9), float_only_field).map(
    lambda t: ",".join([*t[0], t[1]])
)
blank_line = st.sampled_from(["", "   ", "\t"])
bad_line = st.one_of(
    st.lists(field, min_size=1, max_size=9).map(",".join),
    st.sampled_from(["x", "1,2,3,4,5,6,7,8,9,x", "1,2,3,4,5,6,7,8,9,10,11"]),
)


class TestReader:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(st.sampled_from(["", "  "]), max_size=2),
        st.lists(st.one_of(full_row, blank_line), max_size=8),
        st.one_of(st.none(), float_only_row, bad_line),
        st.integers(0, 8),
        st.sampled_from(["\n", "\r\n"]),
    )
    def test_trace_matches_row_loop(self, tmp_path, monkeypatch, leading, rows, extra, at, newline):
        if extra is not None:
            rows.insert(at, extra)
        p = tmp_path / "tr.csv"
        p.write_bytes(newline.join([*leading, TRACE_HEADER, *rows, ""]).encode("utf-8"))
        assert outcome(lambda q: trace_columns(q, monkeypatch), p) == outcome(row_loop_trace, p)

    # Each file: valid records, two blank lines, then a bad field on line 5
    # (line 4 in the observation file, which has no version line).
    BAD_AFTER_BLANKS = {
        "trace": (
            load_trace,
            f"{TRACE_HEADER}\n0.0,0,0,9.81,0,0,0,22,0,-43\n\n\n0.01,x,0,9.81,0,0,0,22,0,-43\n",
            5,
        ),
        "floorplan": (load_floorplan, "version: 1\nwall: 0 0 1 0\n\n\nwall: 0 0 x 0\n", 5),
        "radiomap": (load_radiomap, "version: 1\npoint: 0 0 ap1=-50\n\n\npoint: 0 0 ap1=x\n", 5),
        "observation": (load_observation, "ap1 -50\n\n\nap2 x\n", 4),
        "truth": (load_truth, "version: 1\ninitial: 0 0 0 indoor\n\n\nstep: 0 x 0 0 0 indoor\n", 5),
        "truth step index": (load_truth, "version: 1\ninitial: 0 0 0 indoor\n\n\nstep: x 0.5 0 0 0 indoor\n", 5),
        "walk_script": (load_walk_script, "version: 1\nwaypoint: 0 0\n\n\nwaypoint: x 0\n", 5),
    }
    EVENTS = f"{harness.EVENTS_HEADER}\nstep,0,0.5,,,,,,,,\n"
    PATH = f"{harness.PATH_HEADER}\n0,0.5,0.75,0.0,0.0,indoor\n"

    @pytest.mark.parametrize("fmt", sorted(BAD_AFTER_BLANKS))
    def test_bad_field_after_blank_lines_names_its_line(self, tmp_path, fmt):
        load, text, line = self.BAD_AFTER_BLANKS[fmt]
        p = tmp_path / "f.txt"
        p.write_text(text)
        with pytest.raises(ParseError) as info:
            load(p)
        assert info.value.line == line and str(info.value).startswith(f"{p}:{line}: ")

    @pytest.mark.parametrize(
        "events, path",
        [
            (EVENTS + "\n\nstep,x,1.0,,,,,,,,\n", PATH),
            (EVENTS, PATH + "\n\n1,1.0,x,0.0,0.0,indoor\n"),
            (EVENTS + "\n\nswitch,0,x,doorA,0.0,0.0,,,,indoor,outdoor\n", PATH),
            (EVENTS, PATH + "\n\nx,1.0,0.75,0.0,0.0,indoor\n"),
            (EVENTS, PATH + "\n\n1,x,0.75,0.0,0.0,indoor\n"),
        ],
        ids=["events", "path", "events switch t", "path step", "path t"],
    )
    def test_trial_bad_field_after_blank_lines_names_its_line(self, tmp_path, events, path):
        (tmp_path / "t.events.csv").write_text(events)
        (tmp_path / "t.path.csv").write_text(path)
        with pytest.raises(ParseError) as info:
            load_trial(tmp_path / "t.events.csv", tmp_path / "t.path.csv")
        bad = tmp_path / ("t.events.csv" if events != self.EVENTS else "t.path.csv")
        assert info.value.line == 5 and str(info.value).startswith(f"{bad}:5: ")

    def test_version_spacing_is_free(self, tmp_path):
        p = tmp_path / "plan.txt"
        p.write_text("# plan\nversion :1\nwall: 0 0 1 0\n")
        assert len(load_floorplan(p).walls) == 1

    def test_radiomap_needs_one_reading(self, tmp_path):
        p = tmp_path / "rm.txt"
        p.write_text("version: 1\npoint: 0 0\npoint: 1 0 ap1\n")
        with pytest.raises(ParseError, match=":2: expected 3 fields, got 2"):
            load_radiomap(p)
        p.write_text("version: 1\npoint: 1 0 ap1\n")
        with pytest.raises(ParseError, match=":2: bad number: expected tx=dbm, got 'ap1'"):
            load_radiomap(p)

    def test_truth_group_keeps_its_words(self, tmp_path):
        plan = two_building_plan()
        _, truth = generate_walk(crossing_script(plan), doors=plan.doors, group="user 3 phone A")
        p = tmp_path / "truth.txt"
        save_truth(truth, p)
        assert load_truth(p).group == "user 3 phone A"

    @pytest.mark.parametrize(
        "load, text, line, message",
        [
            # A start or initial record that a later one supersedes is built too, and refused at its line.
            (load_floorplan, "wall: 0 0 1 0\nstart: inf 0 0 indoor\nstart: 0 0 0 indoor", 3, "point-finite: (inf, 0.0)"),
            (load_truth, "initial: 0 nan 0 indoor\ninitial: 0 0 0 indoor", 2, "point-finite: (0.0, nan)"),
            # Of several bad records, the first in the file is named: here a wall before a door.
            (load_floorplan, "wall: 0 0 0 0\ndoor: d 0 0 1.5 0 indoor outdoor", 2, "segment-positive-length"),
            (load_floorplan, "door: d 0 0 1.5 0 indoor outdoor\nwall: 0 0 0 0", 2, "door-tangent-unit"),
            (load_floorplan, "start: 0 nan 0 indoor\ndoor: d 0 0 1.5 0 indoor outdoor", 2, "point-finite"),
        ],
    )
    def test_every_record_is_built_in_file_order(self, cli_run, tmp_path, capsys, load, text, line, message):
        p = tmp_path / LOADER_COMMANDS[load][2]
        p.write_text(f"version: 1\n{text}\n")
        with pytest.raises(InvariantViolation, match=rf"^{re.escape(str(p))}:{line}: {re.escape(message)}") as got:
            load(p)
        assert (got.value.path, got.value.line) == (str(p), line)
        assert_the_cli_prints(capsys, cli_run, load, p, got.value)

    @pytest.mark.parametrize(
        "final, refused",
        [
            (None, False),  # save_truth always writes one, but a file without it still loads
            ("final: 1.5 0.0", False),
            ("final: 1.5 -0.0", True),  # by repr, as written
            ("final: 0.75 0.0", True),  # the first step's position, not the last
        ],
    )
    def test_truth_final_is_the_last_steps_position(self, tmp_path, final, refused):
        p = tmp_path / "truth.txt"
        steps = "step: 0 0.5 0.75 0.0 0.0 indoor\nstep: 1 1.0 1.5 0.0 0.0 indoor\n"
        p.write_text(f"version: 1\ninitial: 0 0 0 indoor\n{'' if final is None else final + chr(10)}{steps}")
        if refused:
            with pytest.raises(ParseError, match=rf"^{re.escape(str(p))}:3: final \(.* is not \(1.5, 0.0\), the last step's position"):
                load_truth(p)
            return
        truth = load_truth(p)
        assert truth.final_position == Point2(1.5, 0.0)
        save_truth(truth, tmp_path / "again.txt")
        assert load_truth(tmp_path / "again.txt").final_position == truth.final_position

    @pytest.mark.parametrize(
        "save, obj, key, name",
        [
            (save_floorplan, FloorPlan((), (Door("door A", Point2(0, 0), (0.0, 1.0), "indoor", "outdoor"),)), "door", "door A"),
            (save_floorplan, FloorPlan((), (Door("a", Point2(0, 0), (0.0, 1.0), "in door", "outdoor"),)), "door", "in door"),
            (save_floorplan, FloorPlan((), (Door("", Point2(0, 0), (0.0, 1.0), "indoor", "outdoor"),)), "door", ""),
            (save_floorplan, FloorPlan((), (), Point2(0, 0), 0.0, "in\tdoor"), "start", "in\tdoor"),
            (save_events, EventLog(switches=[SwitchEvent(0, "a,b", Point2(0, 0), "indoor", "outdoor")]), "switch", "a,b"),
            (save_events, EventLog(switches=[SwitchEvent(0, "a", Point2(0, 0), "indoor ", "outdoor")]), "switch", "indoor "),
            (save_path, EventLog([StepEvent(0, 0.5, 0.0)], poses=[Pose(Point2(0, 0), 0.0)], environments=[" in"]), "a", " in"),
            (save_path, EventLog([StepEvent(0, 0.5, 0.0)], poses=[Pose(Point2(0, 0), 0.0)], environments=["in\ndoor"]), "a", "in\ndoor"),
            (save_radiomap, RadioMap((Fingerprint(Point2(0, 0), {"ap=1": -50.0}),)), "point", "ap=1"),
            (save_radiomap, RadioMap((Fingerprint(Point2(0, 0), {"ap 1": -50.0}),)), "point", "ap 1"),
        ],
    )
    def test_writer_refuses_a_name_its_file_cannot_hold(self, tmp_path, save, obj, key, name):
        # Each of these saved a file that its loader refused or read back otherwise.
        p = tmp_path / "out.txt"
        with pytest.raises(InvalidParameterError, match=rf"^{key} field '[^']*{re.escape(repr(name)[1:-1])}"):
            save(obj, p)
        assert not p.exists()  # refused before the file is opened

    def test_writers_keep_the_names_their_files_hold(self, tmp_path):
        # A CSV field may be empty or hold inner spaces; a radio map's transmitter may be empty.
        log = EventLog([StepEvent(0, 0.5, 0.0)], poses=[Pose(Point2(0, 0), 0.0)], environments=[""])
        log.switches.append(SwitchEvent(0, "door A", Point2(0, 0), "in door", ""))
        save_events(log, tmp_path / "t.events.csv")
        save_path(log, tmp_path / "t.path.csv")
        loaded = load_trial(tmp_path / "t.events.csv", tmp_path / "t.path.csv")
        assert (loaded.switches, loaded.environments) == (log.switches, log.environments)
        radio_map = RadioMap((Fingerprint(Point2(0, 0), {"": -50.0, "a:b,c": -60.0}),))
        save_radiomap(radio_map, tmp_path / "rm.txt")
        assert load_radiomap(tmp_path / "rm.txt") == radio_map

    @pytest.mark.parametrize("save", [save_events, save_path])
    @pytest.mark.parametrize(
        "log, match",
        [
            # load_trial refused both files: 1 path rows disagree with the 2 step rows.
            (EventLog([StepEvent(0, 0.5, 0.0), StepEvent(1, 1.0, 0.0)], poses=[Pose(Point2(0, 0), 0.0)], environments=["indoor"]), "2 steps, 1 poses and 1 environments"),
            # save_events sorted the steps by time, so path row 0 disagreed with step row 0.
            (EventLog([StepEvent(0, 2.0, 0.0), StepEvent(1, 1.0, 0.0)], poses=[Pose(Point2(0, 0), 0.0)] * 2, environments=["indoor"] * 2), "step 1 has t 1.0, after 2.0"),
            # Path row 0 (t nan) disagreed with step row 0 (t nan).
            (EventLog([StepEvent(0, math.nan, 0.0)], poses=[Pose(Point2(0, 0), 0.0)], environments=["indoor"]), "step 0 has t nan"),
            # The second environment was written empty and loaded back as ''.
            (EventLog([StepEvent(0, 0.5, 0.0), StepEvent(1, 1.0, 0.0)], poses=[Pose(Point2(0, 0), 0.0)] * 2, environments=["indoor"]), "2 steps, 2 poses and 1 environments"),
            # save_events sorted the openings by t_start, and load_trial read them back reordered.
            (EventLog([StepEvent(0, 0.5, 0.0)], [DoorOpenEvent(2.0, 2.5, 3), DoorOpenEvent(1.0, 1.5, 3)], poses=[Pose(Point2(0, 0), 0.0)], environments=["indoor"]), "door_open 1 has t_start 1.0, after 2.0"),
            # An opening with t_start nan sorted anywhere among the rows.
            (EventLog([StepEvent(0, 0.5, 0.0)], [DoorOpenEvent(1.0, 1.5, 3), DoorOpenEvent(math.nan, 2.5, 3)], poses=[Pose(Point2(0, 0), 0.0)], environments=["indoor"]), "door_open 1 has t_start nan, after 1.0"),
            # save_events wrote step,5, and load_trial read it back as index 5.
            (EventLog([StepEvent(5, 0.5, 0.0)], poses=[Pose(Point2(0, 0), 0.0)], environments=["indoor"]), "step 5 is step row 0"),
            # save_events sorted the switches by their step's t (0.0 past the last step), and load_trial read them back reordered.
            (EventLog([StepEvent(0, 0.5, 0.0)], switches=[SwitchEvent(0, "a", Point2(0, 0), "indoor", "outdoor"), SwitchEvent(3, "a", Point2(0, 0), "outdoor", "indoor")], poses=[Pose(Point2(0, 0), 0.0)], environments=["indoor"]), "switch 1 has t 0.0, after 0.5"),
        ],
    )
    def test_trial_writers_refuse_what_load_trial_refuses(self, tmp_path, save, log, match):
        p = tmp_path / "out.csv"
        with pytest.raises(InvalidParameterError, match=re.escape(match)):
            save(log, p)
        assert not p.exists()  # refused before the file is opened


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    """Every input file of simulate, track, eval and locate, all valid."""
    from seamloc import Fingerprint, RadioMap

    d = tmp_path_factory.mktemp("cli_run")
    plan_file, script_file = TestCli().write_inputs(d)
    assert cli.main(["simulate", "--script", str(script_file), "--plan", str(plan_file), "--out", str(d), "--seed", "5"]) == 0
    assert cli.main(["track", "--trace", str(d / "trial.trace.csv"), "--plan", str(plan_file), "--out", str(d), "--seed", "5"]) == 0
    save_radiomap(RadioMap(entries=(Fingerprint(Point2(0, 0), {"ap1": -50.0}),)), d / "rm.txt")
    (d / "obs.txt").write_text("ap1 -53.0\n")
    (d / "cfg.json").write_text("{}\n")
    return d


def cli_args(command, d, files={}):
    """command and its input flags on the valid files in d, as cli_run holds them, or flag -> path in files."""
    inputs = {
        "simulate": {"--script": d / "walk.txt", "--plan": d / "plan.txt"},
        "track": {"--trace": d / "trial.trace.csv", "--plan": d / "plan.txt"},
        "eval": {"--events": d, "--truth": d},
        "locate": {"--observation": d / "obs.txt", "--radiomap": d / "rm.txt"},
    }[command] | files
    return [command, *(str(arg) for pair in inputs.items() for arg in pair)]


NON_UTF8_CASES = [
    ("simulate", "walk.txt"),
    ("simulate", "plan.txt"),
    ("simulate", "cfg.json"),
    ("track", "trial.trace.csv"),
    ("track", "plan.txt"),
    ("track", "cfg.json"),
    ("eval", "trial.events.csv"),
    ("eval", "trial.path.csv"),
    ("eval", "trial.truth.txt"),
    ("eval", "cfg.json"),
    ("locate", "obs.txt"),
    ("locate", "rm.txt"),
    ("locate", "cfg.json"),
]


@pytest.mark.parametrize("command, name", NON_UTF8_CASES)
def test_non_utf8_input_is_parse_error(cli_run, tmp_path, capsys, command, name):
    for f in cli_run.iterdir():
        shutil.copy(f, tmp_path / f.name)
    target = tmp_path / name
    lines = target.read_bytes().split(b"\n")
    lines[1] = lines[1][:1] + b"\xff\xfe" + lines[1][1:]
    target.write_bytes(b"\n".join(lines))
    rc = cli.main([*cli_args(command, tmp_path), "--out", str(tmp_path / "out"), "--config", str(tmp_path / "cfg.json")])
    err = capsys.readouterr().err
    assert rc == 3 and err.startswith("error[parse]: ")
    if name != "cfg.json":  # the JSON reader names no line
        assert f"{name}:2: not UTF-8 text" in err


@pytest.mark.parametrize("name", ["report.txt", "cdf.csv"])
def test_report_non_utf8_file_is_parse_error(tmp_path, name):
    (tmp_path / "report.txt").write_text("suite: s\n")
    (tmp_path / "cdf.csv").write_text("error_m,fraction\n0.5,1.0\n")
    (tmp_path / name).write_bytes(b"x\xff\n")
    proc = seamloc_subprocess("report", "--in", tmp_path)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error[parse]: ") and "Traceback" not in proc.stderr
    assert f"{name}:1: not UTF-8 text" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "row",
    [
        "cadence: nan",
        "cadence: inf",
        "step_length: inf",
        "step_length: nan",
        # The first leg's length overflows; the leg after it is finite but would not fit in memory.
        pytest.param("waypoint: -1.7e308 0\nwaypoint: 1.7e308 0", id="waypoint: -1.7e308 0, waypoint: 1.7e308 0"),
        "pause: 0 inf",
        "pause: 0 nan",
        "pause: 1 -3",
        "pause: 2 1.0",
        "pause: -1 1.0",
        "door_action: 7 doorA open-and-cross",
        "door_action: -1 doorA open-and-cross",
        # Walks far above the sample cap, refused before any array is built.
        "pause: 0 1e300",
        "pause: 0 1e9",
        "waypoint: 1e12 0",
    ],
)
def test_simulate_non_finite_script_value_is_invalid_script(tmp_path, row):
    script = tmp_path / "walk.txt"
    script.write_text(f"version: 1\n{row}\nwaypoint: 0.0 0.0\nwaypoint: 6.0 0.0\n")
    proc = seamloc_subprocess("simulate", "--script", script, "--out", tmp_path / "o")
    assert proc.returncode == 6
    assert proc.stderr.startswith("error[invalid-script]: ") and "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def load_path_rows(path):
    """load_trial of a path file beside an events file with no records, named as eval reads them."""
    events = path.with_name("trial.events.csv")
    events.write_text(f"{harness.EVENTS_HEADER}\n")
    return load_trial(events, path)


def load_event_rows(path):
    """load_trial of an events file beside a path file with no rows, named as eval reads them."""
    rows = path.with_name("trial.path.csv")
    rows.write_text(f"{harness.PATH_HEADER}\n")
    return load_trial(path, rows)


# The command that reads each loader's file, its flag, and the file's name (eval's flags name its directory).
LOADER_COMMANDS = {
    load_floorplan: ("track", "--plan", "plan.txt"),
    load_trace: ("track", "--trace", "trial.trace.csv"),
    load_walk_script: ("simulate", "--script", "walk.txt"),
    load_radiomap: ("locate", "--radiomap", "rm.txt"),
    load_observation: ("locate", "--observation", "obs.txt"),
    load_truth: ("eval", "--truth", "trial.truth.txt"),
    load_path_rows: ("eval", "--events", "trial.path.csv"),
    load_event_rows: ("eval", "--events", "trial.events.csv"),
}


def assert_the_cli_prints(capsys, d, load, path, error):
    """The command that reads path with load, on d's valid files otherwise, exits with
    error's code and prints its line, raising and warning nothing (cli_main_quietly)."""
    command, flag, _ = LOADER_COMMANDS[load]
    files = {flag: path.parent if command == "eval" else path}
    rc, err = cli_main_quietly(capsys, *cli_args(command, d, files), "--out", path.with_name("out"))
    assert (rc, err) == (error.exit_code, f"error[{error.category}]: {error}\n")


RECORD_ERRORS = [
    (load_floorplan, "wall: 0 0 0 0", InvariantViolation, "segment-positive-length: degenerate at"),
    (load_floorplan, "door: d 0 0 0 1 indoor indoor", InvariantViolation, "door-distinct-env: door d"),
    (load_floorplan, "door: d 0 0 1.5 0 indoor outdoor", InvariantViolation, "door-tangent-unit: |tangent| = 1.5"),
    (load_floorplan, "door: d 0 0 nan 1.0 indoor outdoor", InvariantViolation, "door-tangent-unit: |tangent| = nan"),
    (load_floorplan, "wall: -1e200 -1e200 1e200 1e200", InvariantViolation, "plan-coordinate-range: wall (-1e+200, -1e+200) to (1e+200, 1e+200) beyond 1e+100 m"),
    (load_floorplan, "door: d 0 1e101 0 1 indoor outdoor", InvariantViolation, "plan-coordinate-range: door (0.0, 1e+101) beyond 1e+100 m"),
    (load_floorplan, "start: nan 0 0 indoor", InvariantViolation, "point-finite: (nan, 0.0)"),
    (load_floorplan, "start: 0 0 nan indoor", InvariantViolation, "heading-finite: start heading nan"),
    (load_floorplan, "start: 0 0 -inf indoor", InvariantViolation, "heading-finite: start heading -inf"),
    (load_radiomap, "point: 0 0 ap1=5", InvariantViolation, "fingerprint-dbm-range: ap1: 5.0 dBm"),
    # A transmitter read twice is refused, not overwritten by its later reading.
    (load_radiomap, "point: 0 0 ap1=-50 ap1=-80", InvariantViolation, "transmitter-unique: transmitter ap1 read twice"),
    (load_observation, "ap1 -50\nap2 -70\nap1 -60", InvariantViolation, "transmitter-unique: transmitter ap1 read twice"),
    # Observed readings follow the radio map's rule.
    (load_observation, "ap1 inf", InvariantViolation, "fingerprint-dbm-range: ap1: inf dBm"),
    (load_observation, "ap1 1e200", InvariantViolation, "fingerprint-dbm-range: ap1: 1e+200 dBm"),
    (load_observation, "ap1 -1e200", InvariantViolation, "fingerprint-dbm-range: ap1: -1e+200 dBm"),
    (load_observation, "ap1 nan", InvariantViolation, "fingerprint-dbm-range: ap1: nan dBm"),
    (load_walk_script, "waypoint: nan 0", InvariantViolation, "point-finite: (nan, 0.0)"),
    (load_walk_script, "door_action: 1 doorA fly", InvalidParameterError, "unknown door action 'fly'"),
    # A setting names its last record, the one in force.
    (load_walk_script, "cadence: 2.0\ncadence: nan", errors.InvalidScriptError, "cadence and step length must be"),
    (load_walk_script, "step_length: inf", errors.InvalidScriptError, "cadence and step length must be"),
    # Whole-script rules name the second waypoint of a leg, or the pause or door action.
    (load_walk_script, "waypoint: 5 0\nwaypoint: 5 0", errors.InvalidScriptError, "coincident consecutive waypoints"),
    (load_walk_script, "waypoint: 1.7e308 0\nwaypoint: -1.7e308 0", errors.InvalidScriptError, "leg from (1.7e+308, 0.0)"),
    (load_walk_script, "pause: 7 1.0", errors.InvalidScriptError, "pause at waypoint 7: no such waypoint"),
    (load_walk_script, "pause: 0 -1", errors.InvalidScriptError, "pause seconds must be finite and >= 0"),
    (load_walk_script, "door_action: -1 doorA open-and-cross", errors.InvalidScriptError, "door_action at waypoint -1"),
    (load_walk_script, "pause: 0 1.0\npause: 0 2.0", errors.InvalidScriptError, "pause at waypoint 0: one pause per waypoint"),
    (load_walk_script, "door_action: 1 d open-and-cross\n# a comment\ndoor_action: 1 e approach-and-turn-back", errors.InvalidScriptError, "door_action at waypoint 1: one door_action per waypoint"),
    (load_truth, "step: 0 0.1 0.75 0 0 outdoor", ParseError, "environment changed at step 0 without a crossing"),
    (load_truth, "step: 0 0.1 nan 0 0 indoor", InvariantViolation, "point-finite: (nan, 0.0)"),
    (load_truth, "initial: inf 0 0 indoor", InvariantViolation, "point-finite: (inf, 0.0)"),
    # Columns that save_truth derives read back as written: a step's index, and final.
    (load_truth, "step: 7 0.1 0.75 0 0 indoor", ParseError, "step 7 is step row 0: an index is its row's position"),
    (load_truth, "final: 99.0 -5.0", ParseError, "final (99.0, -5.0) is not (0.0, 0.0), the last step's position"),
    (load_path_rows, "0,0.5,nan,0.0,0.0,indoor", InvariantViolation, "point-finite: (nan, 0.0)"),
    (load_event_rows, "switch,0,0.5,doorA,inf,4.0,,,,indoor,outdoor", InvariantViolation, "point-finite: (inf, 4.0)"),
    # A column that a record leaves empty is read as empty: save_events would write it back empty.
    (load_event_rows, "door_open,junk,x,,,,1.0,2.0,3,,", ParseError, "door_open leaves this column empty, got 'junk'"),
    (load_event_rows, "step,0,0.5,doorA,,,,,,,", ParseError, "step leaves this column empty, got 'doorA'"),
    # Steps and openings that save_events would refuse or write back otherwise: by line, not as a path row.
    (load_event_rows, "step,5,0.5,,,,,,,,", ParseError, "step 5 is step row 0: an index is its row's position"),
    (load_event_rows, "step,0,1.0,,,,,,,,\nstep,1,0.5,,,,,,,,", ParseError, "step times must be in order and not NaN: step 1 has t 0.5, after 1.0"),
    (load_event_rows, "step,0,nan,,,,,,,,", ParseError, "step times must be in order and not NaN: step 0 has t nan, after -inf"),
    (load_event_rows, "door_open,,,,,,2.0,2.5,3,,\ndoor_open,,,,,,1.0,1.5,3,,", ParseError, "door_open times must be in order and not NaN: door_open 1 has t_start 1.0"),
    # A switch's time is its step's, or 0.0 past the last step: save_events would write these two the other way round.
    (load_event_rows, "step,0,0.5,,,,,,,,\nswitch,0,0.5,doorA,1.0,2.0,,,,indoor,outdoor\nswitch,5,0.0,doorA,1.0,2.0,,,,outdoor,indoor", ParseError, "switch times must be in order and not NaN: switch 1 has t 0.0, after 0.5"),
    # A switch's t is its step's, or 0.0 at no step: it would be saved back otherwise.
    (load_event_rows, "switch,0,0.5,doorA,1.0,2.0,,,,indoor,outdoor", ParseError, "switch at step 0 has t 0.5, not 0.0"),
    # A trace names its first bad sample; an interval's is the sample that ends it, and overflow warns nothing.
    (load_trace, "0,0,0,9.81,0,0,0,22,0,-43\n0.01,0,0,9.81,0,0,0,nan,0,-43", InvariantViolation, "trace-finite: non-finite value in mag"),
    (load_trace, "0,0,0,9.81,0,0,0,22,0,-43\n0,0,0,9.81,0,0,0,22,0,-43", InvariantViolation, "trace-monotonic-time"),
    (load_trace, "0,0,0,9.81,0,0,1e308,22,0,-43\n0.01,0,0,9.81,0,0,1e308,22,0,-43", InvariantViolation, "trace-increment-finite"),
    (load_trace, "-1e308,0,0,9.81,0,0,0,22,0,-43\n1e308,0,0,9.81,0,0,0,22,0,-43", InvariantViolation, "trace-increment-finite"),
    (load_trace, "0,0,0,9.81,0,0,1e300,22,0,-43\n1e10,0,0,9.81,0,0,1e300,22,0,-43", InvariantViolation, "trace-increment-finite"),
    (load_trace, "0,0,0,9.81,0,0,0,22,0,-43\n0.01,1e200,0,9.81,0,0,0,22,0,-43", InvariantViolation, "trace-accel-norm-finite"),
]
# Lines before the bad record: a version line and a comment, where the format has them; a truth file its start.
RECORD_HEADS = {
    load_observation: "# a comment\n",
    load_truth: "version: 1\ninitial: 0 0 0 indoor\n# a comment\n",
    load_path_rows: f"{harness.PATH_HEADER}\n",
    load_event_rows: f"{harness.EVENTS_HEADER}\n",
    load_trace: f"{harness.TRACE_HEADER}\n",
}
# Records after the bad one: a walk script needs two good waypoints.
RECORD_TAILS = {load_walk_script: "waypoint: 0 0\nwaypoint: 5 0\n"}


@pytest.mark.parametrize("load, record, error, message", RECORD_ERRORS, ids=[r[1] for r in RECORD_ERRORS])
def test_record_error_names_its_file_and_line(cli_run, tmp_path, capsys, load, record, error, message):
    # The bad record is the last line of `record`; the command that reads the file prints the same error.
    path = tmp_path / LOADER_COMMANDS[load][2]
    head = RECORD_HEADS.get(load, "version: 1\n# a comment\n")
    path.write_text(f"{head}{record}\n{RECORD_TAILS.get(load, '')}")
    with pytest.raises(errors.SeamlocError) as got:
        load(path)
    line = head.count(chr(10)) + 1 + record.count(chr(10))
    assert type(got.value) is error
    assert str(got.value).startswith(f"{path}:{line}: {message}")
    assert got.value.path == str(path) and got.value.line == line
    assert_the_cli_prints(capsys, cli_run, load, path, got.value)


GOLDEN = Path(__file__).parent / "golden"
# The walk script of the protocol run (TestCli, and CI's installed console script), and an observation.
CI_WALK = """version: 1
waypoint: 4.6 4.0
waypoint: 9.3 4.0
waypoint: 13.05 4.0
waypoint: 13.05 6.0
door_action: 1 doorA open-and-cross
pause: 2 1.5
"""
CI_OBSERVATION = "ap1 -53.0\nap2 -71.5\n"


@pytest.fixture(scope="module")
def fuzz_sources(tmp_path_factory):
    """Loader name -> (load taking the dict of file texts, file name -> valid text)."""
    d = tmp_path_factory.mktemp("fuzz_sources")
    (d / "walk.txt").write_text(CI_WALK)
    plan = two_building_plan()
    trace, _ = generate_walk(load_walk_script(d / "walk.txt"), doors=plan.doors)
    save_trace(Trace(trace.t[:12], trace.accel[:12], trace.gyro[:12], trace.mag[:12]), d / "trace.csv")
    golden = {name: (GOLDEN / name).read_text() for name in ("trial.events.csv", "trial.path.csv")}
    return {
        "floorplan": (lambda p: load_floorplan(p["plan.txt"]), {"plan.txt": (GOLDEN / "plan.txt").read_text()}),
        "radiomap": (lambda p: load_radiomap(p["rm.txt"]), {"rm.txt": (GOLDEN / "radiomap.txt").read_text()}),
        "observation": (lambda p: load_observation(p["obs.txt"]), {"obs.txt": CI_OBSERVATION}),
        "truth": (lambda p: load_truth(p["truth.txt"]), {"truth.txt": (GOLDEN / "truth_group.txt").read_text()}),
        "walk_script": (lambda p: load_walk_script(p["walk.txt"]), {"walk.txt": CI_WALK}),
        "trial": (lambda p: load_trial(p["trial.events.csv"], p["trial.path.csv"]), golden),
        "trace": (lambda p: load_trace(p["trace.csv"]), {"trace.csv": (d / "trace.csv").read_text()}),
    }


def mutate_line(line: str, sep, at: int, value) -> str:
    """line with its field at (modulo the field count) set to value; in a tx=dbm field, its dbm."""
    fields = line.split(sep)
    k = at % len(fields)
    tx, eq, _ = fields[k].rpartition("=")
    fields[k] = f"{tx}={value}" if eq else value
    return (sep or " ").join(fields)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    loader=st.sampled_from(["floorplan", "radiomap", "observation", "truth", "walk_script", "trial", "trace"]),
    target=st.integers(0, 1),
    row=st.integers(0, 100),
    at=st.integers(0, 20),
    value=st.sampled_from(["nan", "-nan", "inf", "-inf", "1e309", "", "x", None, "duplicate"]),
)
def test_mutated_input_loads_or_names_its_file(fuzz_sources, tmp_path, loader, target, row, at, value):
    """One field or line of a valid file becomes NaN, infinite, past the float range,
    empty or not a number (value None empties the whole line), or a line is repeated:
    the file loads, or the error names it, and no warning mentions NaN. A trial's path
    rows that disagree with its events' step rows name the path file, whichever changed."""
    load, texts = fuzz_sources[loader]
    name = sorted(texts)[target % len(texts)]
    lines = texts[name].splitlines()
    k = row % len(lines)
    if value == "duplicate":
        lines.insert(k, lines[k])
    elif value is None:
        lines[k] = ""
    else:
        lines[k] = mutate_line(lines[k], "," if name.endswith(".csv") else None, at, value)
    paths = {n: tmp_path / n for n in texts}
    for n, text in texts.items():
        paths[n].write_text("\n".join(lines) + "\n" if n == name else text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            load(paths)
        except errors.SeamlocError as exc:
            disagree = loader == "trial" and "disagree" in str(exc) and exc.path == str(paths["trial.path.csv"])
            assert exc.path == str(paths[name]) or disagree, str(exc)
            assert str(exc).startswith(f"{exc.path}: " if exc.line is None else f"{exc.path}:{exc.line}: ")
    assert not [w for w in caught if "nan" in str(w.message).lower() or w.category is RuntimeWarning]


def mutate_trace(rows: list[str], mutations) -> list[str]:
    """Trace rows after each (kind, row, column, value) in turn; row and column wrap around."""
    rows = list(rows)
    for kind, row, column, value in mutations:
        k = row % len(rows)
        if kind == "repeat":
            rows.insert(k, rows[k])
        elif kind == "huge":
            rows[k] = mutate_line(rows[k], ",", column, repr(value))
        else:  # "gap": every later sample moves value seconds on
            for j in range(k + 1, len(rows)):
                t, rest = rows[j].split(",", 1)
                rows[j] = f"{float(t) + value!r},{rest}"
    return rows


HUGE = st.tuples(st.floats(1e154, 1e308), st.sampled_from([1.0, -1.0])).map(lambda v: v[0] * v[1])
TRACE_MUTATIONS = st.one_of(
    st.tuples(st.just("repeat"), st.integers(0, 10**4), st.just(0), st.just(0.0)),
    st.tuples(st.just("huge"), st.integers(0, 10**4), st.integers(0, 9), HUGE),
    st.tuples(st.just("gap"), st.integers(0, 10**4), st.just(0), st.floats(1.0, 1e6)),
)
ACCEL_1E200 = [("huge", 100, 1, 1e200)]  # ax = 1e200 on line 102: finite, but its squared norm overflows
# Accelerations on line 102 whose squared norms, summed left to right, just overflow and just do not.
ACCEL_EDGE, ACCEL_EDGE_FINITE = (
    [("huge", 100, column, v) for column, v in enumerate(row, start=1)]
    for row in [
        (6.519186188128723e153, 1.0117508093489196e154, 5.9080923240013664e153),
        (7.95658427630762e153, 1.0752255955300567e154, 9.22535642644458e152),
    ]
)


def write_mutated_trace(d, path, mutations) -> None:
    """d's simulated trace after mutations, written to path."""
    header, *rows = (d / "trial.trace.csv").read_text().splitlines()
    path.write_text("\n".join([header, *mutate_trace(rows, mutations)]) + "\n")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(TRACE_MUTATIONS, min_size=1, max_size=3))
@example(mutations=ACCEL_1E200)
@example(mutations=ACCEL_EDGE)
@example(mutations=ACCEL_EDGE_FINITE)
def test_track_on_mutated_trace_exits_0_or_with_its_error(cli_run, tmp_path, capsys, mutations):
    """A repeated row, a finite value of magnitude 1e154-1e308 in any column, or a time gap
    of 1 s-1e6 s: track exits 0 or with an error's code, raising and warning nothing, and
    the files of a 0 exit read back."""
    trace, out = tmp_path / "mutated.trace.csv", tmp_path / "out"
    write_mutated_trace(cli_run, trace, mutations)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["track", "--trace", str(trace), "--plan", str(cli_run / "plan.txt"), "--out", str(out), "--seed", "5"])
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert rc == 0 or (rc in {code for _, code in EXIT_CODES} and err.startswith("error[")), (rc, err)
    if rc == 0:
        load_trial(out / "trial.events.csv", out / "trial.path.csv")


def test_accel_norm_overflow_names_its_line_without_traceback(cli_run, tmp_path):
    for mutations in (ACCEL_1E200, ACCEL_EDGE):
        trace = tmp_path / "accel.trace.csv"
        write_mutated_trace(cli_run, trace, mutations)
        proc = seamloc_subprocess("track", "--trace", trace, "--plan", cli_run / "plan.txt", "--out", tmp_path / "o")
        assert proc.returncode == 4, mutations
        assert proc.stderr.startswith(f"error[invariant]: {trace}:102: trace-accel-norm-finite: ")
        assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    write_mutated_trace(cli_run, trace, ACCEL_EDGE_FINITE)  # its root is finite, so it is tracked
    proc = seamloc_subprocess("track", "--trace", trace, "--plan", cli_run / "plan.txt", "--out", tmp_path / "o")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_kf_heading_overflow_names_the_trace_without_traceback(tmp_path):
    trace, plan = tmp_path / "far.trace.csv", tmp_path / "plan.txt"
    save_trace(outdoor_trace(1e120), trace)
    save_floorplan(OUTDOOR_PLAN, plan)
    proc = seamloc_subprocess("track", "--trace", trace, "--plan", plan, "--out", tmp_path / "o")
    assert proc.returncode == 4
    assert re.fullmatch(rf"error\[invariant\]: {re.escape(str(trace))}: kf-finite: KF heading \S+, covariance \[\[.*\]\] at sample \d+\n", proc.stderr)
    assert not (tmp_path / "o").exists()


def mutate_trial(d, out, mutations) -> None:
    """d's tracked trial (events, path, truth) after each (kind, row, value) in turn, written to out."""
    header, *events = (d / "trial.events.csv").read_text().splitlines()
    path_header, *path = (d / "trial.path.csv").read_text().splitlines()
    truth = (d / "trial.truth.txt").read_text().splitlines()
    for kind, row, value in mutations:
        steps = [k for k, line in enumerate(events) if line.startswith("step,")]
        if kind == "drop_step" and steps:
            del events[steps[row % len(steps)]]
        elif kind == "drop_path" and path:
            del path[row % len(path)]
        elif kind == "repeat_path" and path:
            path.insert(row % len(path), path[row % len(path)])
        elif kind == "switch_past_end":  # a switch moved, or one added, to the last step or past it
            switches = [k for k, line in enumerate(events) if line.startswith("switch,")]
            at = switches[row % len(switches)] if switches and row % 2 else len(events)
            fields = (events[at] if at < len(events) else "switch,0,9.0,doorA,10.0,4.0,,,,indoor,outdoor").split(",")
            k = len(steps) - 1 + value
            fields[1:3] = str(k), events[steps[k]].split(",")[2] if 0 <= k < len(steps) else "0.0"  # the t save_events writes
            events[at:at + 1] = [",".join(fields)]
        elif kind == "drop_truth_steps":  # every truth step, or one
            truth = [line for k, line in enumerate(truth) if not line.startswith("step:") or (value and k != row % len(truth))]
    out.mkdir()
    (out / "trial.events.csv").write_text("\n".join([header, *events]) + "\n")
    (out / "trial.path.csv").write_text("\n".join([path_header, *path]) + "\n")
    (out / "trial.truth.txt").write_text("\n".join(truth) + "\n")


TRIAL_MUTATIONS = st.tuples(
    st.sampled_from(["drop_step", "drop_path", "repeat_path", "switch_past_end", "drop_truth_steps"]),
    st.integers(0, 10**4),
    st.integers(0, 10**6),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(TRIAL_MUTATIONS, min_size=1, max_size=3))
def test_eval_on_mutated_trial_exits_0_or_with_its_error(cli_run, tmp_path_factory, capsys, mutations):
    """Events and path files of different lengths, switches at or past the last
    step, and a truth file with no steps or one fewer: eval exits 0 or with an
    error's code, raising and warning nothing, and a 0 exit writes its report."""
    d = tmp_path_factory.mktemp("trial")
    mutate_trial(cli_run, d / "in", mutations)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["eval", "--events", str(d / "in"), "--truth", str(d / "in"), "--out", str(d / "out")])
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert rc == 0 or (rc in {code for _, code in EXIT_CODES} and err.startswith("error[")), (rc, err)
    if rc == 0:
        assert (d / "out" / "report.txt").read_text().startswith("Door crossing evaluation")


def test_eval_of_a_truth_without_steps_prints_no_traceback(cli_run, tmp_path):
    mutate_trial(cli_run, tmp_path / "in", [("drop_truth_steps", 0, 0), ("switch_past_end", 1, 5)])
    proc = seamloc_subprocess("eval", "--events", tmp_path / "in", "--truth", tmp_path / "in", "--out", tmp_path / "out")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.returncode in {0} | {code for _, code in EXIT_CODES}, proc.stderr


PATH_ROWS = (GOLDEN / "trial.path.csv").read_text().splitlines()[1:]  # the rows of steps 0, 1 and 2


@pytest.mark.parametrize(
    "rows, line, message",
    [
        (PATH_ROWS[:2], 4, "2 path rows disagree with the 3 step rows of {events}"),
        ([], None, "0 path rows disagree with the 3 step rows of {events}"),
        (PATH_ROWS + PATH_ROWS[-1:], 5, "path row 3 (step 2, t 1e+300) disagrees with step row 3 of {events} (only 3 step rows)"),
        (PATH_ROWS[:1] + PATH_ROWS[:2], 3, "path row 1 (step 0, t 0.5) disagrees with step row 1 of {events} (t 1.0)"),
        ([PATH_ROWS[0], "1,1.5,0.75,0.0,0.0,outdoor", PATH_ROWS[2]], 3, "path row 1 (step 1, t 1.5) disagrees with step row 1 of {events} (t 1.0)"),
    ],
    ids=["short", "empty", "long", "step", "t"],
)
def test_path_rows_that_are_not_the_step_rows_name_the_path_file(tmp_path, rows, line, message):
    events, path = tmp_path / "t.events.csv", tmp_path / "t.path.csv"
    shutil.copy(GOLDEN / "trial.events.csv", events)
    path.write_text("\n".join([harness.PATH_HEADER, *rows]) + "\n")
    with pytest.raises(ParseError) as got:
        load_trial(events, path)
    assert (got.value.path, got.value.line) == (str(path), line)
    assert str(got.value) == f"{path}{'' if line is None else f':{line}'}: {message.format(events=events)}"


@pytest.mark.parametrize("steps, crossing", [(0, 7), (1, 1), (1, -1), (2, 2)])
def test_truth_crossing_at_no_step_names_its_line(tmp_path, steps, crossing):
    path = tmp_path / "truth.txt"
    rows = [f"step: {i} {0.5 * (i + 1)} {0.75 * (i + 1)} 0 0 indoor" for i in range(steps)]
    path.write_text("\n".join(["version: 1", "initial: 0 0 0 indoor", *rows, f"crossing: {crossing} doorA"]) + "\n")
    with pytest.raises(ParseError) as got:
        load_truth(path)
    message = f"crossing of doorA at step {crossing}: the file has {steps} step lines"
    assert str(got.value) == f"{path}:{steps + 3}: {message}"
    if steps:  # the last step is a step
        path.write_text(path.read_text().replace(f"crossing: {crossing}", f"crossing: {steps - 1}"))
        assert load_truth(path).crossings == ((steps - 1, "doorA"),)


@pytest.mark.parametrize("steps, turn_back", [(0, 0), (1, -1), (1, 1), (2, 2)])
def test_truth_turn_back_at_no_step_names_its_line(tmp_path, steps, turn_back):
    # generate_walk wrote turn_back: -1 for a turn-back before any step; no truth file holds one now.
    path = tmp_path / "truth.txt"
    rows = [f"step: {i} {0.5 * (i + 1)} {0.75 * (i + 1)} 0 0 indoor" for i in range(steps)]
    path.write_text("\n".join(["version: 1", "initial: 0 0 0 indoor", *rows, f"turn_back: {turn_back} doorA"]) + "\n")
    with pytest.raises(ParseError) as got:
        load_truth(path)
    message = f"turn_back of doorA at step {turn_back}: the file has {steps} step lines"
    assert str(got.value) == f"{path}:{steps + 3}: {message}"
    if steps:  # the last step is a step
        path.write_text(path.read_text().replace(f"turn_back: {turn_back}", f"turn_back: {steps - 1}"))
        assert load_truth(path).turn_backs == ((steps - 1, "doorA"),)


# Names of any text (a file holds only the one-word ones: one_word), and finite floats well inside float range,
# signed zeros and subnormals included.
NAMES = st.text(max_size=5)
FINITE = st.floats(-1e300, 1e300)
PLANAR = st.floats(-1e100, 1e100)  # a plan's wall ends and door centres: within geometry.PLAN_LIMIT


@st.composite
def truth_fields(draw):
    """GroundTruth fields whose steps and events agree: environments change only at crossing steps."""
    k = draw(st.integers(0, 5))
    env = initial_environment = draw(NAMES)
    crossings = draw(st.lists(st.tuples(st.integers(0, k - 1), NAMES), max_size=3)) if k else []
    environments = []
    for i in range(k):
        if any(step == i for step, _ in crossings):
            env = draw(NAMES)
        environments.append(env)
    return {
        "step_times": np.array(draw(st.lists(FINITE, min_size=k, max_size=k)), dtype=float),
        "step_positions": np.array(draw(st.lists(st.tuples(FINITE, FINITE), min_size=k, max_size=k)), dtype=float).reshape(k, 2),
        "step_headings": np.array(draw(st.lists(FINITE, min_size=k, max_size=k)), dtype=float),
        "environments": tuple(environments),
        "door_open_intervals": tuple(draw(st.lists(st.tuples(FINITE, FINITE), max_size=3))),
        "crossings": tuple(crossings),
        "turn_backs": tuple(draw(st.lists(st.tuples(st.integers(0, k - 1), NAMES), max_size=3)) if k else []),
        "initial_position": Point2(draw(FINITE), draw(FINITE)),
        "initial_heading": draw(FINITE),
        "initial_environment": initial_environment,
        "group": " ".join(draw(st.text(max_size=12)).split()),  # single-spaced words, saved one word a field
    }


def one_word(name):
    """Whether a file whose fields split on whitespace holds name as one field, so that it reads back as written."""
    return name.split() == [name]


def assert_saves_and_loads_back(save, load, obj, names, path):
    """obj saves and loads back equal when every name is one word; otherwise its save is refused and writes no file."""
    path.unlink(missing_ok=True)  # hypothesis runs every example in one tmp_path
    if not all(map(one_word, names)):
        with pytest.raises(InvalidParameterError, match="would not read back as written"):
            save(obj, path)
        assert not path.exists()
        return None
    save(obj, path)
    loaded = load(path)
    assert_same_fields(loaded, obj)
    return loaded


def assert_same_fields(a, b):
    """Every dataclass field of a and b equal: arrays by shape and bytes, other values by repr (so -0.0 is not 0.0)."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert (x.shape, x.tobytes()) == (y.shape, y.tobytes()), f.name
        else:
            assert repr(x) == repr(y), f.name


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=truth_fields(), refused=st.none())
# A turn-back at no step built, saved, and then failed to load: it is refused where the truth is built.
@example(
    fields={
        "step_times": np.array([0.5]),
        "step_positions": np.array([[0.75, 0.0]]),
        "step_headings": np.array([0.0]),
        "environments": ("indoor",),
        "door_open_intervals": (),
        "crossings": (),
        "turn_backs": ((3, "doorA"),),
        "initial_position": Point2(0.0, 0.0),
        "initial_heading": 0.0,
        "initial_environment": "indoor",
    },
    refused=("turn_back", 0),
)
def test_truth_that_builds_loads_back_as_saved(tmp_path, fields, refused):
    if refused is not None:
        with pytest.raises(errors.SeamlocError) as got:
            GroundTruth(**fields)
        assert got.value.record == refused
        return
    truth = GroundTruth(**fields)
    names = [truth.initial_environment, *truth.environments, *(door for _, door in truth.crossings + truth.turn_backs)]
    assert_saves_and_loads_back(save_truth, load_truth, truth, names, tmp_path / "truth.txt")


@st.composite
def floorplan_fields(draw):
    """FloorPlan fields with walls of positive length, doors of distinct ids and sides, and a whole start or none."""
    walls = draw(st.lists(st.tuples(PLANAR, PLANAR, PLANAR, PLANAR).filter(lambda w: w[:2] != w[2:]), max_size=3))
    doors = []
    for door_id in draw(st.lists(NAMES, max_size=3, unique=True)):
        angle = draw(st.floats(-math.pi, math.pi))
        inner, outer = draw(st.lists(NAMES, min_size=2, max_size=2, unique=True))
        doors.append(Door(door_id, Point2(draw(PLANAR), draw(PLANAR)), (math.cos(angle), math.sin(angle)), inner, outer))
    fields = {"walls": tuple(Segment2(Point2(*w[:2]), Point2(*w[2:])) for w in walls), "doors": tuple(doors)}
    if draw(st.booleans()):
        fields.update(start_position=Point2(draw(FINITE), draw(FINITE)), start_heading=draw(FINITE), start_environment=draw(NAMES))
    return fields


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=floorplan_fields(), refused=st.none())
# A start position with no heading or environment built, and save_floorplan then raised TypeError.
@example(fields={"walls": (), "doors": (), "start_position": Point2(0, 0)}, refused=("start", -1))
# A wall past the coordinate limit loaded, and the wall test then overflowed with RuntimeWarnings.
@example(fields={"walls": (Segment2(Point2(-1e200, -1e200), Point2(1e200, 1e200)),), "doors": ()}, refused=("wall", 0))
# A door id of two words saved, and load_floorplan then refused the file: "expected 7 fields, got 8".
@example(fields={"walls": (), "doors": (Door("door A", Point2(0, 0), (0.0, 1.0), "indoor", "outdoor"),)}, refused=None)
def test_floorplan_that_builds_loads_back_as_saved(tmp_path, fields, refused):
    if refused is not None:
        with pytest.raises(InvariantViolation) as got:
            FloorPlan(**fields)
        assert got.value.record == refused
        return
    plan = FloorPlan(**fields)
    names = [name for door in plan.doors for name in (door.id, door.inner_env, door.outer_env)]
    names += [] if plan.start_environment is None else [plan.start_environment]
    loaded = assert_saves_and_loads_back(save_floorplan, load_floorplan, plan, names, tmp_path / "plan.txt")
    if loaded is not None:
        assert loaded.wall_array().tobytes() == plan.wall_array().tobytes()


TIMES = st.floats()  # NaN and infinities included
TRIAL_NAMES = st.one_of(NAMES, st.text(", a\n", max_size=4))  # a CSV field with a comma, a line break or an end space does not read back


@st.composite
def trial_logs(draw):
    """EventLogs of any events: steps, openings and switches in any order (each list sorted by
    time or not), a step index off its row, switches at any step index, NaN and infinite times,
    names with commas and spaces, and pose and environment counts off the step count."""
    k = draw(st.integers(0, 4))
    times = draw(st.lists(TIMES, min_size=k, max_size=k))
    if draw(st.booleans()):
        times.sort()
    indices = list(range(k))
    if k and draw(st.booleans()):
        indices[draw(st.integers(0, k - 1))] = draw(st.integers(-1, 5))
    opens = draw(st.lists(st.tuples(TIMES, TIMES, st.integers(-5, 50)), max_size=3))
    if draw(st.booleans()):
        opens.sort(key=lambda d: d[0])
    switches = draw(st.lists(st.builds(SwitchEvent, st.integers(-2, k + 2), TRIAL_NAMES, st.builds(Point2, FINITE, FINITE), TRIAL_NAMES, TRIAL_NAMES), max_size=3))
    if draw(st.booleans()):  # in the order save_events writes them: by their step's t, 0.0 at no step
        switches.sort(key=lambda sw: times[sw.step_index] if 0 <= sw.step_index < k else 0.0)
    n_poses, n_envs = draw(st.sampled_from([(k, k)] * 12 + [(k + 1, k), (k, k + 1), (max(k - 1, 0), k), (k, max(k - 1, 0))]))
    return EventLog(
        steps=[StepEvent(i, t, draw(TIMES)) for i, t in zip(indices, times)],
        door_opens=[DoorOpenEvent(*d) for d in opens],
        switches=switches,
        poses=draw(st.lists(st.builds(Pose, st.builds(Point2, FINITE, FINITE), TIMES), min_size=n_poses, max_size=n_poses)),
        environments=draw(st.lists(TRIAL_NAMES, min_size=n_envs, max_size=n_envs)),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log=trial_logs())
@example(log=make_golden._trial())
# The golden trial with its switches listed as they were: they saved, and loaded back reordered.
@example(log=dataclasses.replace(make_golden._trial(), switches=make_golden._trial().switches[::-1]))
def test_trial_saves_and_loads_back_or_is_refused(tmp_path, log):
    # Either both files save and load_trial returns the log (peak is not kept), or each writer
    # that refuses it writes no file: a trial rule refuses it in both, a name only in its own file.
    files = {save_events: tmp_path / "t.events.csv", save_path: tmp_path / "t.path.csv"}
    refusals = {}
    for save, path in files.items():
        path.unlink(missing_ok=True)  # hypothesis runs every example in one tmp_path
        try:
            save(log, path)
        except InvalidParameterError as exc:
            refusals[save] = str(exc)
            assert not path.exists()
    if len(refusals) == 1:
        assert "would not read back as written" in next(iter(refusals.values()))
    if refusals:
        return
    assert repr(load_trial(*files.values())) == repr(as_loaded(log))


def as_loaded(log):
    """log as load_trial returns it: peak is not kept, and a float field holds a float (10 reads back as 10.0)."""
    def point(p):
        return Point2(float(p.x), float(p.y))

    return EventLog(
        steps=[StepEvent(s.index, float(s.t), 0.0) for s in log.steps],
        door_opens=[DoorOpenEvent(float(d.t_start), float(d.t_end), d.zero_crossings) for d in log.door_opens],
        switches=[dataclasses.replace(sw, crossing_point=point(sw.crossing_point)) for sw in log.switches],
        poses=[Pose(point(p.position), float(p.heading)) for p in log.poses],
        environments=log.environments,
    )


def cli_main_quietly(capsys, *args):
    """(exit code, stderr) of cli.main in this process: it returns 0 or an error
    class's exit code with its error line, and warns nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(list(map(str, args)))
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert rc == 0 or (rc in {code for _, code in EXIT_CODES} and err.startswith("error[")), (rc, err)
    return rc, err


def test_eval_of_a_path_short_of_its_last_row_names_the_path_file(cli_run, tmp_path, capsys):
    # eval exited 0 here, taking the tenth of eleven steps as the walk's end: a final error of 0.837 m, not 0.087 m.
    for name in ("trial.events.csv", "trial.path.csv", "trial.truth.txt"):
        shutil.copy(cli_run / name, tmp_path / name)
    path = tmp_path / "trial.path.csv"
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    args = ("eval", "--events", tmp_path, "--truth", tmp_path, "--out", tmp_path / "rep")
    rc, err = cli_main_quietly(capsys, *args)
    message = f"{len(lines) - 2} path rows disagree with the {len(lines) - 1} step rows of {tmp_path / 'trial.events.csv'}"
    assert (rc, err) == (3, f"error[parse]: {path}:{len(lines)}: {message}\n")
    proc = seamloc_subprocess(*args)
    assert (proc.returncode, proc.stderr) == (3, err)


def test_eval_of_a_crossing_at_no_truth_step_names_its_line(cli_run, tmp_path, capsys):
    for name in ("trial.events.csv", "trial.path.csv"):
        shutil.copy(cli_run / name, tmp_path / name)
    truth = tmp_path / "trial.truth.txt"
    truth.write_text("version: 1\ninitial: 0 0 0 indoor\ncrossing: 7 doorA\n")
    args = ("eval", "--events", tmp_path, "--truth", tmp_path, "--out", tmp_path / "rep")
    rc, err = cli_main_quietly(capsys, *args)
    assert (rc, err) == (3, f"error[parse]: {truth}:3: crossing of doorA at step 7: the file has 0 step lines\n")
    proc = seamloc_subprocess(*args)
    assert (proc.returncode, proc.stderr) == (3, err)


def test_eval_of_a_turn_back_at_no_truth_step_names_its_line(cli_run, tmp_path, capsys):
    for name in ("trial.events.csv", "trial.path.csv"):
        shutil.copy(cli_run / name, tmp_path / name)
    truth = tmp_path / "trial.truth.txt"
    truth.write_text("version: 1\ninitial: 0 0 0 indoor\nstep: 0 0.5 0.75 0 0 indoor\nturn_back: -1 doorA\n")
    args = ("eval", "--events", tmp_path, "--truth", tmp_path, "--out", tmp_path / "rep")
    rc, err = cli_main_quietly(capsys, *args)
    assert (rc, err) == (3, f"error[parse]: {truth}:4: turn_back of doorA at step -1: the file has 1 step lines\n")
    proc = seamloc_subprocess(*args)
    assert (proc.returncode, proc.stderr) == (3, err)


# Field values for the fuzz below: quarters up to 50, so that no walk nears the sample cap, and non-numbers.
FIELD_VALUES = st.one_of(st.integers(-200, 200).map(lambda k: repr(k / 4)), st.sampled_from(["nan", "inf", "-inf", "1e309", "", "x"]))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    row=st.integers(0, 10**4),
    at=st.integers(0, 5),
    value=st.one_of(st.none(), FIELD_VALUES),
    sample_rate=st.one_of(st.just(20), st.floats(20.0, 120.0)),
    cadence=st.floats(0.5, 7.0),
)
# At 20 Hz a step cycle of 20 / cadence samples rounds to 4, the fewest allowed, up to 5.71 steps/s.
@example(row=0, at=0, value=None, sample_rate=20, cadence=5.0)
@example(row=0, at=0, value=None, sample_rate=20, cadence=20 / 3.5)
@example(row=0, at=0, value=None, sample_rate=20, cadence=5.8)
def test_simulate_on_mutated_inputs_exits_0_or_with_its_error(cli_run, tmp_path_factory, capsys, row, at, value, sample_rate, cadence):
    """The CI walk script with a cadence line and one record field mutated (value None
    leaves it as it is), at a sample rate from 20 Hz: simulate exits 0 or with an error's code,
    raising and warning nothing, and the files of a 0 exit read back."""
    d = tmp_path_factory.mktemp("simulate")
    lines = [*CI_WALK.splitlines(), f"cadence: {cadence!r}"]
    if value is not None:  # a field of a record after the version line
        k = 1 + row % (len(lines) - 1)
        key, fields = lines[k].split(": ")
        lines[k] = f"{key}: {mutate_line(fields, None, at, value)}"
    (d / "walk.txt").write_text("\n".join(lines) + "\n")
    (d / "cfg.json").write_text(json.dumps({"sim": {"sample_rate": sample_rate}}))
    args = ("simulate", "--script", d / "walk.txt", "--plan", cli_run / "plan.txt", "--out", d / "out", "--config", d / "cfg.json")
    rc, _ = cli_main_quietly(capsys, *args, "--seed", "3")
    if rc == 0:
        load_trace(d / "out" / "trial.trace.csv")
        load_truth(d / "out" / "trial.truth.txt")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    radio_map=st.sampled_from(["golden", "ci", "both"]),
    readings=st.lists(st.tuples(st.sampled_from(["ap1", "ap2", "a", "b", "zz9"]), st.floats(-120.0, 0.0).map(repr)), max_size=4),
    bad=st.one_of(st.none(), st.tuples(st.integers(0, 10), FIELD_VALUES)),
    wknn=st.fixed_dictionaries(
        {}, optional={"k": st.integers(0, 3), "mode": st.sampled_from(["NN", "KNN", "WKNN", "knn"]), "missing_rss_floor": st.floats(-125.0, 5.0)}
    ),
)
# An observation that shares no transmitter with the map: every distance comes from the floor.
@example(radio_map="both", readings=[("zz9", "-60.0")], bad=None, wknn={})
@example(radio_map="golden", readings=[("zz9", "-60.0"), ("b", "-5e-324")], bad=None, wknn={"k": 2, "mode": "KNN"})
def test_locate_on_mutated_inputs_exits_0_or_with_its_error(cli_run, tmp_path_factory, capsys, radio_map, readings, bad, wknn):
    """Observations of the map's transmitters, others or none, one reading perhaps made
    a bad value, against the golden map, CI's or both joined, under any wknn section:
    locate exits 0 with a finite position or with an error's code, raising and warning nothing."""
    d = tmp_path_factory.mktemp("locate")
    if bad is not None and readings:
        readings[bad[0] % len(readings)] = (readings[bad[0] % len(readings)][0], bad[1])
    (d / "obs.txt").write_text("".join(f"{tx} {dbm}\n" for tx, dbm in readings))
    golden, ci = (GOLDEN / "radiomap.txt").read_text(), (cli_run / "rm.txt").read_text()
    maps = {"golden": golden, "ci": ci, "both": golden + ci.split("\n", 1)[1]}
    (d / "rm.txt").write_text(maps[radio_map])
    (d / "cfg.json").write_text(json.dumps({"wknn": wknn}))
    args = ("locate", "--observation", d / "obs.txt", "--radiomap", d / "rm.txt", "--config", d / "cfg.json", "--out", d / "out")
    rc, _ = cli_main_quietly(capsys, *args)
    if rc == 0:
        x, y = map(float, (d / "out" / "position.txt").read_text().split())
        assert math.isfinite(x) and math.isfinite(y)


UTF8_OR_NOT = st.one_of(st.text(max_size=20).map(str.encode), st.binary(max_size=40))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(report=UTF8_OR_NOT, cdf=st.one_of(st.none(), UTF8_OR_NOT), at=st.integers(0, 10**4))
@example(report=b"x\xff\n", cdf=None, at=0)
@example(report=b"", cdf=b"\xc3", at=0)
def test_report_on_mutated_files_exits_0_or_with_its_error(tmp_path_factory, capsys, report, cdf, at):
    """A golden report and CDF with bytes, UTF-8 or not, put in at any place, or no CDF file:
    report exits 0 and prints both, or exits 3 naming the file, raising and warning nothing."""
    d = tmp_path_factory.mktemp("report")
    for name, extra in {"report.txt": report, "cdf.csv": cdf}.items():
        if extra is not None:
            text = (GOLDEN / "report_all" / name).read_bytes()
            k = at % (len(text) + 1)
            (d / name).write_bytes(text[:k] + extra + text[k:])
    rc, err = cli_main_quietly(capsys, "report", "--in", d)
    assert rc in (0, 3)
    if rc == 3:
        assert err.startswith(f"error[parse]: {d}") and ": not UTF-8 text" in err


@pytest.mark.parametrize(
    "case, code",
    [("simulate", 2), ("locate", 0), ("report", 3)],
    ids=["simulate at 20 Hz, cadence 5.8", "locate with no shared transmitter", "report of a non-UTF-8 CDF"],
)
def test_fuzz_case_in_a_subprocess_prints_no_traceback_or_warning(cli_run, tmp_path, case, code):
    if case == "simulate":
        (tmp_path / "walk.txt").write_text(CI_WALK + "cadence: 5.8\n")
        (tmp_path / "cfg.json").write_text('{"sim": {"sample_rate": 20}}')
        args = ("--script", tmp_path / "walk.txt", "--plan", cli_run / "plan.txt", "--out", tmp_path / "o", "--config", tmp_path / "cfg.json")
    elif case == "locate":
        (tmp_path / "obs.txt").write_text("zz9 -60.0\n")
        (tmp_path / "cfg.json").write_text('{"wknn": {"k": 2}}')
        args = ("--observation", tmp_path / "obs.txt", "--radiomap", GOLDEN / "radiomap.txt", "--config", tmp_path / "cfg.json")
    else:
        shutil.copy(GOLDEN / "report_all" / "report.txt", tmp_path / "report.txt")
        (tmp_path / "cdf.csv").write_bytes(b"error,fraction\n0.5,\xff1.0\n")
        args = ("--in", tmp_path)
    proc = seamloc_subprocess(case, *args)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


BAD_CONFIGS = [
    ("track", '{"pdr": {"step_length": "abc"}}'),
    ("track", '{"pdr": {"initial_pose": 5}}'),
    ("track", '{"pdr": 3}'),
    ("eval", '{"eval": {"match_window": "abc"}}'),
    ("eval", '{"eval": {"match_window": -1}}'),
    ("eval", '{"eval": 5}'),
    ("simulate", '{"sim": {"sample_rate": "x"}}'),
    ("simulate", '{"sim": {"sample_rate": Infinity}}'),
    ("track", '{"signal": {"g": NaN}}'),
    ("locate", '{"wknn": {"k": 2, "missing_rss_floor": 1e200}}'),
    ("locate", '{"wknn": {"missing_rss_floor": 5}}'),
    ("locate", '{"wknn": {"missing_rss_floor": -121}}'),
    # numpy's seeding rejected a negative seed with a ValueError traceback.
    ("simulate", '{"noise": {"seed": -2}}'),
    # pf_init failed to allocate these particles (a MemoryError, or a ValueError past the largest dimension).
    ("track", '{"pf": {"particle_count": 1000000000000}}'),
    ("track", '{"pf": {"particle_count": 9223372036854775808}}'),
    # Past geometry.CONFIG_LIMIT: numpy warned of overflow in the particle moves and the wall test, then exit 4 or 7.
    ("track", '{"pf": {"step_sigma": 1e308}}'),
    ("track", '{"pf": {"step_sigma": 1e200}}'),
    ("track", '{"pf": {"heading_sigma": 1e308}}'),
    ("track", '{"pf": {"init_sigma": 1e308}}'),
    ("track", '{"pdr": {"step_length": 1e308}}'),
    # A door zone of infinite ends: exit 4 with point-finite, naming no config value.
    ("track", '{"crossing": {"zone_width": 1e308}}'),
    # Past geometry.CONFIG_LIMIT: the noisy samples overflowed, and simulate exited 4 with
    # trace-finite or trace-increment-finite, blaming the walk script.
    ("simulate", '{"noise": {"accel_sigma": 1e308}}'),
    ("simulate", '{"noise": {"gyro_sigma": 1e308}}'),
    ("simulate", '{"noise": {"mag_sigma": 1e308}}'),
    ("simulate", '{"noise": {"gyro_bias": 1e308}}'),
    ("simulate", '{"noise": {"gyro_bias": -1e51}}'),
    # A negative count was taken as 0.
    ("track", '{"signal": {"door_min_zero_crossings": -1}}'),
]


def _cli_exit_2(d, tmp_path, command, *extra):
    """Run command on the valid inputs in d in a separate interpreter, so an
    uncaught exception shows as a traceback; it must exit 2 with invalid-parameter."""
    proc = seamloc_subprocess(*cli_args(command, d), "--out", tmp_path / "o", *extra)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error[invalid-parameter]: ") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command, config", BAD_CONFIGS)
def test_bad_config_value_is_invalid_parameter(cli_run, tmp_path, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    _cli_exit_2(cli_run, tmp_path, command, "--config", str(cfg))


@pytest.mark.parametrize("command, seed", [("track", "-1"), ("simulate", "-3")])
def test_negative_seed_is_invalid_parameter(cli_run, tmp_path, command, seed):
    _cli_exit_2(cli_run, tmp_path, command, "--seed", seed)


def test_negative_seed_is_rejected_by_each_config():
    with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
        PipelineConfig(seed=-1)
    with pytest.raises(InvalidParameterError, match="seed must be >= 0, got -1"):
        NoiseModel(seed=-1)
    for cls in (PipelineConfig, NoiseModel):  # numpy's SeedSequence takes integers only
        with pytest.raises(InvalidParameterError, match="^seed must be an integer, got 1.5$"):
            cls(seed=1.5)
    assert PipelineConfig(seed=0).seed == NoiseModel(seed=np.int64(0)).seed == 0


CONFIG_FLOATS = [
    (cls, f.name) for cls in cli._SECTIONS.values() for f in dataclasses.fields(cls) if f.type == "float"
]


@pytest.mark.parametrize("cls, name", CONFIG_FLOATS, ids=[f"{cls.__name__}.{name}" for cls, name in CONFIG_FLOATS])
def test_nan_config_value_is_invalid_parameter(cls, name):
    # The JSON reader refuses NaN; the dataclasses refuse it for Python callers too.
    with pytest.raises(InvalidParameterError):
        cls(**{name: float("nan")})


def test_config_float_takes_json_int(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"pdr": {"step_length": 1}, "sim": {"sample_rate": 50}, "eval": {"match_window": 3}}')
    raw = cli.load_config(cfg)
    assert cli.build_pipeline_config(raw).pdr.step_length == 1


EXIT_CODES = [
    (errors.SeamlocError, 1),
    (errors.InvalidParameterError, 2),
    (errors.ParseError, 3),
    (errors.InvariantViolation, 4),
    (errors.InvalidInputError, 5),
    (errors.InvalidScriptError, 6),
    (errors.FilterDivergenceError, 7),
    (errors.UnreliableMeasurementError, 9),
    (OSError, 10),
]


def test_exit_codes_cover_every_error_class():
    assert {cls for cls, _ in EXIT_CODES} == {errors.SeamlocError, *errors.SeamlocError.__subclasses__(), OSError}


@pytest.mark.parametrize("error, code", EXIT_CODES, ids=[cls.__name__ for cls, _ in EXIT_CODES])
def test_cli_prints_category_and_returns_exit_code(monkeypatch, capsys, error, code):
    def load_trace(path):
        raise error("some-invariant", "boom") if error is errors.InvariantViolation else error("boom")

    monkeypatch.setattr(harness, "load_trace", load_trace)
    assert cli.main(["track", "--trace", "t.csv", "--plan", "p.txt", "--out", "o"]) == code
    category = "io" if error is OSError else error.category
    assert capsys.readouterr().err.startswith(f"error[{category}]: ")
