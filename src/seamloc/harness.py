"""End-to-end tracking pipeline, evaluation metrics, and file formats.

Formats (all UTF-8, floats written with shortest round-trip repr):
  trace      CSV, header ``t,ax,ay,az,gx,gy,gz,mx,my,mz`` (s, m/s^2, rad/s, uT)
  floor plan line records: ``version:``, ``wall: x1 y1 x2 y2``,
             ``door: id cx cy tx ty inner outer``, ``start: x y heading env``
  radio map  line records: ``version:``, ``point: x y tx=dbm tx=dbm ...``
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import crossing as crossing_mod
from .crossing import CrossingConfig, CrossingState, SwitchEvent, build_zone_lookup
from .errors import (
    FilterDivergenceError,
    InvalidInputError,
    InvariantViolation,
    ParseError,
    SeamlocError,
    StateInconsistencyError,
)
# kf_predict, kf_update, mag_heading: kept here for the benchmark's layer tracer (perfbench/layers.py).
from .filters import HeadingKfState, KfConfig, ParticleSet, PfConfig, _mag_z, kf_init, kf_predict, kf_run, kf_update, mag_heading, pf_init, pf_step
from .fingerprint import Fingerprint, RadioMap, WknnConfig
from .geometry import Door, FloorPlan, Point2, Segment2, distance
from .pdr import _AXES, PdrConfig, Pose, propagate_step, wrap_angle
from .signal import DoorOpenEvent, SignalConfig, StepEvent, Trace, detect_door_openings, detect_steps, normalized_series
from .sim import GroundTruth

PF = "PF"
KF = "KF"


@dataclass(frozen=True)
class PipelineConfig:
    signal: SignalConfig = field(default_factory=SignalConfig)
    pdr: PdrConfig = field(default_factory=PdrConfig)
    pf: PfConfig = field(default_factory=PfConfig)
    kf: KfConfig = field(default_factory=KfConfig)
    crossing: CrossingConfig = field(default_factory=CrossingConfig)
    wknn: WknnConfig = field(default_factory=WknnConfig)
    indoor_label: str = "indoor"
    seed: int = 0


@dataclass(frozen=True)
class TrackerState:
    pose: Pose
    environment: str
    active_filter: str  # PF | KF
    crossing: CrossingState
    step_count: int
    pf: ParticleSet | None
    kf: HeadingKfState | None
    seed: int
    indoor_label: str

    def __post_init__(self):
        indoor = self.environment == self.indoor_label
        if (self.active_filter == PF) != indoor:
            raise StateInconsistencyError(
                f"active filter {self.active_filter} inconsistent with environment {self.environment!r}"
            )


@dataclass
class EventLog:
    steps: list[StepEvent] = field(default_factory=list)
    door_opens: list[DoorOpenEvent] = field(default_factory=list)
    switches: list[SwitchEvent] = field(default_factory=list)
    poses: list[Pose] = field(default_factory=list)
    environments: list[str] = field(default_factory=list)


@dataclass
class EvalReport:
    true_positive_rate: float
    false_negative_rate: float
    true_negative_rate: float
    false_positive_rate: float
    effectivity: dict[str, float]  # percent detected per trial group
    final_errors: list[float]
    cdf: list[tuple[float, float]]
    counts: dict[str, int]
    false_switches_per_trial: float  # defined even when the suite has no turn-backs


def init_tracker(plan: FloorPlan, cfg: PipelineConfig) -> TrackerState:
    if plan.start_position is None or plan.start_heading is None or plan.start_environment is None:
        raise InvalidInputError("floor plan lacks a start annotation (position, heading, environment)")
    pose = Pose(plan.start_position, wrap_angle(plan.start_heading))
    indoor = plan.start_environment == cfg.indoor_label
    return TrackerState(
        pose=pose,
        environment=plan.start_environment,
        active_filter=PF if indoor else KF,
        crossing=CrossingState(environment=plan.start_environment),
        step_count=0,
        pf=pf_init(pose, cfg.pf, seed=cfg.seed) if indoor else None,
        kf=None if indoor else kf_init(pose.heading),
        seed=cfg.seed,
        indoor_label=cfg.indoor_label,
    )


def _pf_step_with_recovery(tracker: TrackerState, heading: float, cfg: PipelineConfig, plan: FloorPlan, k: int):
    try:
        return pf_step(tracker.pf, heading, cfg.pf, cfg.pdr, plan)
    except FilterDivergenceError:
        # One reinitialization at the last valid estimate, then give up.
        fresh = pf_init(Pose(tracker.pose.position, heading), cfg.pf, seed=tracker.seed + 7919 + k)
        try:
            return pf_step(fresh, heading, cfg.pf, cfg.pdr, plan)
        except FilterDivergenceError as exc:
            raise FilterDivergenceError(f"particle filter diverged at step {k}") from exc


def track(trace: Trace, plan: FloorPlan, cfg: PipelineConfig = PipelineConfig()) -> tuple[list[Pose], EventLog]:
    """Run the whole pipeline over one trace.

    Steps and door openings come from the normalized acceleration; heading is
    gyro-integrated (indoors) or Kalman-corrected with the magnetometer
    (outdoors); position advances per step through the active back-end; the
    crossing state machine arms near doors and switches environments.
    """
    log = EventLog()
    if len(trace) == 0:
        return [], log

    t, a = normalized_series(trace, cfg.signal)
    steps = detect_steps(t, a, cfg.signal)
    door_opens = detect_door_openings(t, a, cfg.signal, steps)
    log.steps = steps
    log.door_opens = door_opens

    tracker = init_tracker(plan, cfg)
    zones = build_zone_lookup(plan.doors, cfg.crossing)
    pdr_cfg = dataclasses.replace(cfg.pdr, initial_pose=tracker.pose)
    cfg = dataclasses.replace(cfg, pdr=pdr_cfg)

    gz = trace.gyro[:, _AXES[cfg.pdr.yaw_axis]]
    dt_arr = np.diff(trace.t)
    rate_arr = 0.5 * (gz[:-1] + gz[1:])  # trapezoid-equivalent rate per interval
    dts, rates, increments = dt_arr.tolist(), rate_arr.tolist(), (rate_arr * dt_arr).tolist()
    mag_z = None  # magnetometer heading per interval end, computed on first KF use
    sample_at = np.maximum(np.searchsorted(trace.t, [s.t for s in steps], side="right") - 1, 0).tolist()
    open_starts = [ev.t_start for ev in door_opens]
    open_ends = [ev.t_end for ev in door_opens]  # sorted: merged openings are disjoint
    heading = tracker.pose.heading
    cursor = 0
    path: list[Pose] = []

    for k, step in enumerate(steps):
        i_k = sample_at[k]
        kf = tracker.kf
        if tracker.active_filter == KF:
            if mag_z is None:
                mag_z = [_mag_z(mx, my, cfg.kf.declination) for mx, my in trace.mag[1:, :2].tolist()]
            kf = kf_run(kf, rates, dts, mag_z, cursor, i_k, cfg.kf)
            heading = kf.heading
        else:
            for inc in increments[cursor:i_k]:
                heading = wrap_angle(heading + inc)
        cursor = i_k

        prev_pos = tracker.pose.position
        if tracker.active_filter == PF:
            pf, estimate = _pf_step_with_recovery(tracker, heading, cfg, plan, k)
            pose = Pose(estimate, heading)
            tracker = dataclasses.replace(tracker, pose=pose, pf=pf, step_count=k + 1)
        else:
            pose = propagate_step(Pose(prev_pos, heading), cfg.pdr)
            tracker = dataclasses.replace(tracker, pose=pose, kf=kf, step_count=k + 1)

        # An opening overlaps (prev_t, step.t] when the first one ending after
        # prev_t starts by step.t.
        j = bisect.bisect_right(open_ends, steps[k - 1].t if k else float("-inf"))
        opened = j < len(open_starts) and open_starts[j] <= step.t

        cstate = crossing_mod.arm_check(tracker.crossing, pose.position, plan.doors, cfg.crossing)
        cstate, switch = crossing_mod.observe_step(
            cstate, k, prev_pos, pose.position, opened, cfg.crossing, zones
        )
        tracker = dataclasses.replace(tracker, crossing=cstate)
        if switch is not None:
            log.switches.append(switch)
            tracker = crossing_mod.on_switch(tracker, switch, cfg.pf, cfg.kf)
            heading = tracker.pose.heading if tracker.kf is None else tracker.kf.heading

        path.append(pose)
        log.environments.append(tracker.environment)

    log.poses = path
    return path, log


def _match_switches(switches: list[SwitchEvent], truth: GroundTruth, window: int):
    used = [False] * len(switches)
    tp = 0
    for step_idx, door_id in truth.crossings:
        for i, sw in enumerate(switches):
            if not used[i] and sw.door_id == door_id and abs(sw.step_index - step_idx) <= window:
                used[i] = True
                tp += 1
                break
    fp = used.count(False)
    return tp, fp


def evaluate(results, match_window: int = 5) -> EvalReport:
    """Confusion matrix, switching effectivity, and final-error CDF.

    Each result pairs one trial's EventLog with its GroundTruth. A true
    crossing counts as detected when a switch for the same door lands within
    match_window steps of the true crossing step. Negative opportunities are
    the truth's turn-back approaches; unmatched switches count against them,
    and the true-negative count stops at zero when they outnumber them. A
    suite without turn-backs has no false-positive rate, so every unmatched
    switch also shows in false_switches_per_trial.
    """
    results = list(results)
    if not results:
        raise InvalidInputError("no trials to evaluate")

    positives = negatives = tp = fp = 0
    group_tp: dict[str, int] = {}
    group_pos: dict[str, int] = {}
    final_errors: list[float] = []
    for log, truth in results:
        trial_tp, trial_fp = _match_switches(log.switches, truth, match_window)
        positives += len(truth.crossings)
        negatives += len(truth.turn_backs)
        tp += trial_tp
        fp += trial_fp
        group = truth.group or "all"
        group_tp[group] = group_tp.get(group, 0) + trial_tp
        group_pos[group] = group_pos.get(group, 0) + len(truth.crossings)
        last = log.poses[-1].position if log.poses else truth.initial_position
        final_errors.append(distance(last, truth.final_position))

    tpr = tp / positives if positives else float("nan")
    fpr = fp / negatives if negatives else float("nan")
    ordered = sorted(final_errors)
    n = len(ordered)
    cdf = [(e, (i + 1) / n) for i, e in enumerate(ordered)]
    effectivity = {
        g: (100.0 * group_tp[g] / group_pos[g]) if group_pos[g] else float("nan")
        for g in sorted(group_tp)
    }
    return EvalReport(
        true_positive_rate=tpr,
        false_negative_rate=1.0 - tpr if positives else float("nan"),
        true_negative_rate=1.0 - fpr if negatives else float("nan"),
        false_positive_rate=fpr,
        effectivity=effectivity,
        final_errors=final_errors,
        cdf=cdf,
        counts={
            "true_positives": tp,
            "false_negatives": positives - tp,
            "false_positives": fp,
            "true_negatives": max(negatives - fp, 0),
            "positives": positives,
            "negatives": negatives,
            "trials": len(results),
        },
        false_switches_per_trial=fp / len(results),
    )


def cdf_fraction_below(cdf: list[tuple[float, float]], x: float) -> float:
    """Fraction of errors strictly below x, read off the CDF step function."""
    frac = 0.0
    for err, cum in cdf:
        if err < x:
            frac = cum
        else:
            break
    return frac


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

TRACE_HEADER = "t,ax,ay,az,gx,gy,gz,mx,my,mz"


def _fmt(x: float) -> str:
    return repr(float(x))


def _read_records(path) -> list[tuple[int, str, str]]:
    """(line number, key, rest) for each non-blank, non-comment line."""
    records = []
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", path=str(path), line=lineno)
        key, rest = line.split(":", 1)
        records.append((lineno, key.strip(), rest.strip()))
    return records


def _check_version(records, path):
    if not records or records[0][1] != "version":
        raise ParseError("first record must be 'version: 1'", path=str(path))
    if records[0][2] != "1":
        raise ParseError(f"unsupported version {records[0][2]!r}", path=str(path), line=records[0][0])


def _floats(rest: str, count: int, path, lineno) -> list[float]:
    parts = rest.split()
    if len(parts) != count:
        raise ParseError(f"expected {count} fields, got {len(parts)}", path=str(path), line=lineno)
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc


def save_trace(trace: Trace, path) -> None:
    lines = [TRACE_HEADER]
    for i in range(len(trace)):
        row = [trace.t[i], *trace.accel[i], *trace.gyro[i], *trace.mag[i]]
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trace(path) -> Trace:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != TRACE_HEADER:
        raise ParseError(f"expected header {TRACE_HEADER!r}", path=str(path), line=1)
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 10:
            raise ParseError(f"expected 10 columns, got {len(parts)}", path=str(path), line=lineno)
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
    data = np.array(rows).reshape(-1, 10)
    return Trace(t=data[:, 0], accel=data[:, 1:4], gyro=data[:, 4:7], mag=data[:, 7:10])


def save_floorplan(plan: FloorPlan, path) -> None:
    lines = ["version: 1"]
    for w in plan.walls:
        lines.append(f"wall: {_fmt(w.a.x)} {_fmt(w.a.y)} {_fmt(w.b.x)} {_fmt(w.b.y)}")
    for d in plan.doors:
        lines.append(
            f"door: {d.id} {_fmt(d.center.x)} {_fmt(d.center.y)} "
            f"{_fmt(d.tangent[0])} {_fmt(d.tangent[1])} {d.inner_env} {d.outer_env}"
        )
    if plan.start_position is not None:
        lines.append(
            f"start: {_fmt(plan.start_position.x)} {_fmt(plan.start_position.y)} "
            f"{_fmt(plan.start_heading)} {plan.start_environment}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_floorplan(path) -> FloorPlan:
    records = _read_records(path)
    _check_version(records, path)
    walls: list[Segment2] = []
    doors: list[Door] = []
    start = None
    for lineno, key, rest in records[1:]:
        if key == "wall":
            x1, y1, x2, y2 = _floats(rest, 4, path, lineno)
            walls.append(Segment2(Point2(x1, y1), Point2(x2, y2)))
        elif key == "door":
            parts = rest.split()
            if len(parts) != 7:
                raise ParseError(f"door needs 7 fields, got {len(parts)}", path=str(path), line=lineno)
            door_id, inner, outer = parts[0], parts[5], parts[6]
            try:
                cx, cy, tx, ty = (float(p) for p in parts[1:5])
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
            norm = math.hypot(tx, ty)
            if abs(norm - 1.0) > 1e-6:
                raise InvariantViolation(
                    "door-tangent-unit", f"{path}:{lineno}: |tangent| = {norm} beyond 1e-6 of unit"
                )
            if norm != 1.0:
                warnings.warn(f"door {door_id}: tangent normalized on load ({norm})")
                tx, ty = tx / norm, ty / norm
            doors.append(Door(id=door_id, center=Point2(cx, cy), tangent=(tx, ty), inner_env=inner, outer_env=outer))
        elif key == "start":
            parts = rest.split()
            if len(parts) != 4:
                raise ParseError(f"start needs 4 fields, got {len(parts)}", path=str(path), line=lineno)
            try:
                x, y, heading = float(parts[0]), float(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
            start = (Point2(x, y), heading, parts[3])
        else:
            raise ParseError(f"unknown record {key!r}", path=str(path), line=lineno)
    return FloorPlan(
        walls=tuple(walls),
        doors=tuple(doors),
        start_position=start[0] if start else None,
        start_heading=start[1] if start else None,
        start_environment=start[2] if start else None,
    )


def save_radiomap(radio_map: RadioMap, path) -> None:
    lines = ["version: 1"]
    for fp in radio_map.entries:
        rss = " ".join(f"{tx}={_fmt(dbm)}" for tx, dbm in sorted(fp.rss.items()))
        lines.append(f"point: {_fmt(fp.position.x)} {_fmt(fp.position.y)} {rss}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_radiomap(path) -> RadioMap:
    records = _read_records(path)
    _check_version(records, path)
    entries: list[Fingerprint] = []
    for lineno, key, rest in records[1:]:
        if key != "point":
            raise ParseError(f"unknown record {key!r}", path=str(path), line=lineno)
        parts = rest.split()
        if len(parts) < 3:
            raise ParseError("point needs x y and at least one tx=dbm", path=str(path), line=lineno)
        try:
            x, y = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
        rss: dict[str, float] = {}
        for item in parts[2:]:
            if "=" not in item:
                raise ParseError(f"expected tx=dbm, got {item!r}", path=str(path), line=lineno)
            tx, val = item.split("=", 1)
            try:
                rss[tx] = float(val)
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
        entries.append(Fingerprint(position=Point2(x, y), rss=rss))
    return RadioMap(entries=tuple(entries))


def load_observation(path) -> dict[str, float]:
    """RSS observation file: one ``transmitter dbm`` pair per line."""
    rss: dict[str, float] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected 'transmitter dbm'", path=str(path), line=lineno)
        try:
            rss[parts[0]] = float(parts[1])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
    if not rss:
        raise InvalidInputError(f"{path}: no RSS readings")
    return rss


def save_truth(truth: GroundTruth, path) -> None:
    lines = ["version: 1"]
    if truth.group:
        lines.append(f"group: {truth.group}")
    lines.append(
        f"initial: {_fmt(truth.initial_position.x)} {_fmt(truth.initial_position.y)} "
        f"{_fmt(truth.initial_heading)} {truth.initial_environment}"
    )
    lines.append(f"final: {_fmt(truth.final_position.x)} {_fmt(truth.final_position.y)}")
    for i in range(truth.step_count):
        lines.append(
            f"step: {i} {_fmt(truth.step_times[i])} {_fmt(truth.step_positions[i, 0])} "
            f"{_fmt(truth.step_positions[i, 1])} {_fmt(truth.step_headings[i])} {truth.environments[i]}"
        )
    for t0, t1 in truth.door_open_intervals:
        lines.append(f"door_open: {_fmt(t0)} {_fmt(t1)}")
    for step, door in truth.crossings:
        lines.append(f"crossing: {step} {door}")
    for step, door in truth.turn_backs:
        lines.append(f"turn_back: {step} {door}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# Fields per ground-truth record, as save_truth writes them.
_TRUTH_FIELDS = {"initial": 4, "step": 6, "door_open": 2, "crossing": 2, "turn_back": 2}


def load_truth(path) -> GroundTruth:
    records = _read_records(path)
    _check_version(records, path)
    group = ""
    initial = None
    steps: list[tuple[float, float, float, float, str]] = []
    door_opens: list[tuple[float, float]] = []
    crossings: list[tuple[int, str]] = []
    turn_backs: list[tuple[int, str]] = []
    for lineno, key, rest in records[1:]:
        parts = rest.split()
        if key == "group":
            group = rest
            continue
        if key == "final":
            continue  # derived from steps on load
        if key not in _TRUTH_FIELDS:
            raise ParseError(f"unknown record {key!r}", path=str(path), line=lineno)
        if len(parts) != _TRUTH_FIELDS[key]:
            raise ParseError(f"{key} needs {_TRUTH_FIELDS[key]} fields, got {len(parts)}", path=str(path), line=lineno)
        try:
            if key == "initial":
                initial = (float(parts[0]), float(parts[1]), float(parts[2]), parts[3])
            elif key == "step":
                steps.append((float(parts[1]), float(parts[2]), float(parts[3]), float(parts[4]), parts[5]))
            elif key == "door_open":
                door_opens.append((float(parts[0]), float(parts[1])))
            elif key == "crossing":
                crossings.append((int(parts[0]), parts[1]))
            else:
                turn_backs.append((int(parts[0]), parts[1]))
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
    if initial is None:
        raise ParseError("missing 'initial' record", path=str(path))
    return GroundTruth(
        step_times=np.array([s[0] for s in steps]),
        step_positions=np.array([[s[1], s[2]] for s in steps]).reshape(-1, 2),
        step_headings=np.array([s[3] for s in steps]),
        environments=tuple(s[4] for s in steps),
        door_open_intervals=tuple(door_opens),
        crossings=tuple(crossings),
        turn_backs=tuple(turn_backs),
        initial_position=Point2(initial[0], initial[1]),
        initial_heading=initial[2],
        initial_environment=initial[3],
        group=group,
    )


def load_walk_script(path):
    """Walk script records: waypoint/cadence/step_length/start_environment/
    door_action/pause lines after ``version: 1``."""
    from .sim import DoorAction, WalkScript

    records = _read_records(path)
    _check_version(records, path)
    waypoints: list[Point2] = []
    actions: list = []
    pauses: list[tuple[int, float]] = []
    cadence = 2.0
    step_length = 0.75
    start_environment = "indoor"
    for lineno, key, rest in records[1:]:
        parts = rest.split()
        try:
            if key == "waypoint":
                x, y = _floats(rest, 2, path, lineno)
                waypoints.append(Point2(x, y))
            elif key == "cadence":
                cadence = float(rest)
            elif key == "step_length":
                step_length = float(rest)
            elif key == "start_environment":
                start_environment = rest
            elif key == "door_action":
                if len(parts) != 3:
                    raise ParseError("door_action needs 'waypoint door action'", path=str(path), line=lineno)
                actions.append(DoorAction(waypoint=int(parts[0]), door_id=parts[1], action=parts[2]))
            elif key == "pause":
                if len(parts) != 2:
                    raise ParseError("pause needs 'waypoint seconds'", path=str(path), line=lineno)
                pauses.append((int(parts[0]), float(parts[1])))
            else:
                raise ParseError(f"unknown record {key!r}", path=str(path), line=lineno)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
    return WalkScript(
        waypoints=tuple(waypoints),
        cadence=cadence,
        step_length_true=step_length,
        door_actions=tuple(actions),
        pauses=tuple(pauses),
        start_environment=start_environment,
    )


PATH_HEADER = "step,t,x,y,heading,environment"
EVENTS_HEADER = "kind,step,t,door,x,y,t_start,t_end,zero_crossings,from_env,to_env"


def save_path(log: EventLog, path) -> None:
    lines = [PATH_HEADER]
    for i, pose in enumerate(log.poses):
        env = log.environments[i] if i < len(log.environments) else ""
        lines.append(
            f"{i},{_fmt(log.steps[i].t)},{_fmt(pose.position.x)},{_fmt(pose.position.y)},{_fmt(pose.heading)},{env}"
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_events(log: EventLog, path) -> None:
    rows = []
    for s in log.steps:
        rows.append((s.t, f"step,{s.index},{_fmt(s.t)},,,,,,,,"))
    for d in log.door_opens:
        rows.append((d.t_start, f"door_open,,,,,,{_fmt(d.t_start)},{_fmt(d.t_end)},{d.zero_crossings},,"))
    for sw in log.switches:
        t_sw = log.steps[sw.step_index].t if sw.step_index < len(log.steps) else 0.0
        rows.append(
            (
                t_sw,
                f"switch,{sw.step_index},{_fmt(t_sw)},{sw.door_id},"
                f"{_fmt(sw.crossing_point.x)},{_fmt(sw.crossing_point.y)},,,,{sw.from_env},{sw.to_env}",
            )
        )
    rows.sort(key=lambda r: r[0])
    Path(path).write_text("\n".join([EVENTS_HEADER] + [r[1] for r in rows]) + "\n", encoding="utf-8")


def load_trial(events_path, path_path) -> EventLog:
    """Rebuild the EventLog parts evaluation needs from serialized files."""
    log = EventLog()
    lines = [ln for ln in Path(events_path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not lines or lines[0] != EVENTS_HEADER:
        raise ParseError(f"expected header {EVENTS_HEADER!r}", path=str(events_path), line=1)
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 11:
            raise ParseError(f"expected 11 columns, got {len(parts)}", path=str(events_path), line=lineno)
        kind = parts[0]
        try:
            if kind == "step":
                log.steps.append(StepEvent(index=int(parts[1]), t=float(parts[2]), peak=0.0))
            elif kind == "door_open":
                log.door_opens.append(
                    DoorOpenEvent(t_start=float(parts[6]), t_end=float(parts[7]), zero_crossings=int(parts[8]))
                )
            elif kind == "switch":
                log.switches.append(
                    SwitchEvent(
                        step_index=int(parts[1]),
                        door_id=parts[3],
                        crossing_point=Point2(float(parts[4]), float(parts[5])),
                        from_env=parts[9],
                        to_env=parts[10],
                    )
                )
            else:
                raise ParseError(f"unknown event kind {kind!r}", path=str(events_path), line=lineno)
        except SeamlocError:
            raise
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(events_path), line=lineno) from exc
    plines = [ln for ln in Path(path_path).read_text(encoding="utf-8").splitlines() if ln.strip()]
    if not plines or plines[0] != PATH_HEADER:
        raise ParseError(f"expected header {PATH_HEADER!r}", path=str(path_path), line=1)
    for lineno, line in enumerate(plines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"expected 6 columns, got {len(parts)}", path=str(path_path), line=lineno)
        try:
            x, y, heading = float(parts[2]), float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path_path), line=lineno) from exc
        log.poses.append(Pose(Point2(x, y), heading))
        log.environments.append(parts[5])
    return log


def format_report(report: EvalReport) -> str:
    c = report.counts

    def pct(x: float) -> str:
        return "n/a" if math.isnan(x) else f"{100.0 * x:.1f}%"

    lines = [
        "Door crossing evaluation",
        "========================",
        f"trials: {c['trials']}",
        f"true crossings: {c['positives']}   detected: {c['true_positives']}",
        f"negative approaches: {c['negatives']}   false switches: {c['false_positives']}",
        f"false switches per trial: {report.false_switches_per_trial:.3f}",
        "",
        "Confusion matrix (door crossing detection)",
        "                     actual positive   actual negative",
        f"estimated positive   {pct(report.true_positive_rate):>15}   {pct(report.false_positive_rate):>15}",
        f"estimated negative   {pct(report.false_negative_rate):>15}   {pct(report.true_negative_rate):>15}",
        "",
        "Switching effectivity by trial group",
    ]
    for group, eff in report.effectivity.items():
        value = "n/a" if math.isnan(eff) else f"{eff:.1f}%"
        lines.append(f"  {group}: {value}")
    errs = report.final_errors
    lines += [
        "",
        "Final position error [m]",
        f"  min {min(errs):.3f}   max {max(errs):.3f}   average {sum(errs) / len(errs):.3f}",
    ]
    if report.cdf:
        q70 = report.cdf[min(int(math.ceil(0.7 * len(errs))) - 1, len(errs) - 1)][0]
        lines.append(f"  70% of errors at or below {q70:.3f} m")
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(format_report(report), encoding="utf-8")
    cdf_lines = ["error,fraction"] + [f"{_fmt(e)},{_fmt(f)}" for e, f in report.cdf]
    (out / "cdf.csv").write_text("\n".join(cdf_lines) + "\n", encoding="utf-8")
    conf_lines = [
        ",actual_positive,actual_negative",
        f"estimated_positive,{_fmt(report.true_positive_rate)},{_fmt(report.false_positive_rate)}",
        f"estimated_negative,{_fmt(report.false_negative_rate)},{_fmt(report.true_negative_rate)}",
    ]
    (out / "confusion.csv").write_text("\n".join(conf_lines) + "\n", encoding="utf-8")
