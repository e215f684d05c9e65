import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seamloc.cli as cli
from seamloc import (
    FloorPlan,
    GroundTruth,
    InvalidInputError,
    InvariantViolation,
    ParseError,
    PipelineConfig,
    Point2,
    Pose,
    Segment2,
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
    EventLog,
    load_floorplan,
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
from seamloc.sim import NoiseModel


def make_truth(final_xy, crossings=(), turn_backs=(), group=""):
    """Minimal one-step ground truth ending at final_xy."""
    return GroundTruth(
        step_times=np.array([0.5]),
        step_positions=np.array([final_xy]),
        step_headings=np.array([0.0]),
        environments=("indoor",),
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


class TestTrack:
    def test_empty_trace(self):
        trace = Trace(t=np.array([]), accel=np.empty((0, 3)), gyro=np.empty((0, 3)), mag=np.empty((0, 3)))
        path, log = track(trace, two_building_plan())
        assert path == [] and log.steps == [] and log.switches == []

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

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_door_open_flags_match_scan_of_every_opening(self, seed, monkeypatch):
        # Noisy walks with stops and door wiggles: plain stops under this
        # noise also read as openings, so steps meet many openings.
        from seamloc import CALIBRATED_NOISE, DoorAction, WalkScript
        from seamloc import crossing as crossing_mod

        plan = two_building_plan()
        noise = dataclasses.replace(CALIBRATED_NOISE, seed=seed)
        outdoor = WalkScript(
            waypoints=(Point2(0, 0), Point2(8, 0), Point2(8, 6), Point2(0, 6), Point2(0, 12)),
            pauses=((1, 3.0), (3, 2.5)),
            door_actions=(DoorAction(waypoint=2, door_id="gate", action="open-and-cross"),),
            start_environment="outdoor",
        )
        outdoor_plan = FloorPlan(walls=(), doors=(), start_position=Point2(0, 0), start_heading=0.0, start_environment="outdoor")
        walks = [
            (generate_walk(crossing_script(plan), noise, doors=plan.doors)[0], plan),
            (generate_walk(turn_back_script(plan), noise, doors=plan.doors)[0], plan),
            (generate_walk(outdoor, noise)[0], outdoor_plan),
        ]
        observe = crossing_mod.observe_step
        flags, want = [], []

        def recording(cstate, k, prev, pos, opened, *args):
            flags.append(opened)
            return observe(cstate, k, prev, pos, opened, *args)

        monkeypatch.setattr(crossing_mod, "observe_step", recording)
        for trace, walk_plan in walks:
            _, log = track(trace, walk_plan)
            for k, step in enumerate(log.steps):
                prev_t = log.steps[k - 1].t if k else float("-inf")
                want.append(any(ev.t_start <= step.t and ev.t_end > prev_t for ev in log.door_opens))
        assert flags == want
        assert True in flags and False in flags

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


class TestFormats:
    def test_trace_round_trip(self, tmp_path):
        trace, _ = generate_walk(crossing_script(two_building_plan()), NoiseModel(accel_sigma=0.03, seed=3))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_trace(trace, p1)
        save_trace(load_trace(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

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
        plan_file, script_file = self.write_inputs(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--script", str(script_file), "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == 0
        assert cli.main(["track", "--trace", str(out / "trial.trace.csv"), "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == 0
        assert cli.main(["eval", "--events", str(out), "--truth", str(out), "--out", str(tmp_path / "rep")]) == 0
        assert cli.main(["report", "--in", str(tmp_path / "rep")]) == 0
        text = capsys.readouterr().out
        assert "Confusion matrix" in text
        assert "CDF points" in text

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

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("nonsense\n")
        plan_file, script_file = self.write_inputs(tmp_path)
        rc = cli.main(["track", "--trace", str(bad), "--plan", str(plan_file), "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "error[parse]" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        plan_file, script_file = self.write_inputs(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"pf": {"particles": 10}}')
        rc = cli.main(["simulate", "--script", str(script_file), "--out", str(tmp_path / "o"), "--config", str(cfg)])
        assert rc == 2
        assert "error[invalid-parameter]" in capsys.readouterr().err

    def _tracked_trial(self, tmp_path):
        plan_file, script_file = self.write_inputs(tmp_path)
        out = tmp_path / "run"
        assert cli.main(["simulate", "--script", str(script_file), "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == 0
        assert cli.main(["track", "--trace", str(out / "trial.trace.csv"), "--plan", str(plan_file), "--out", str(out), "--seed", "5"]) == 0
        return out

    def _eval_subprocess(self, out, tmp_path):
        # A separate interpreter, so an uncaught exception shows as a traceback.
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
        cmd = [sys.executable, "-m", "seamloc.cli", "eval", "--events", str(out), "--truth", str(out), "--out", str(tmp_path / "rep")]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

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
