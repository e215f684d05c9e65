"""End-to-end tracking pipeline, evaluation metrics, and file formats.

Every file format is UTF-8 with floats written as their shortest round-trip
repr. The field specs under "File formats" below drive both _read and _write,
so a file reads back as written, and every written column is checked on read.
"""

from __future__ import annotations

import bisect
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import crossing as crossing_mod
from .crossing import CrossingConfig, CrossingState, SwitchEvent, build_zone_lookup
from .errors import FilterDivergenceError, InvalidInputError, InvalidParameterError, InvariantViolation, ParseError
from .errors import InvalidScriptError, SeamlocError
# track calls none of kf_predict, kf_update and mag_heading: perfbench/layers.py wraps these names
# here, and its traced run fails without them; their per-layer metrics read 0, as kf_run does the work.
from .filters import KfConfig, PfConfig, kf_init, kf_predict, kf_run, kf_update, mag_heading, mag_headings, pf_init, pf_step
from .fingerprint import Fingerprint, RadioMap, dbm_reading
from .geometry import Door, FloorPlan, Point2, Segment2, distance
from .pdr import PdrConfig, Pose, integrate_heading, propagate_step, step_samples, wrap_angle
from .signal import DoorOpenEvent, SignalConfig, StepEvent, Trace, detect_door_openings, detect_steps, normalized_series
from .sim import DoorAction, GroundTruth, WalkScript, uncrossed_change

INDOOR = "indoor"  # the environment tracked by the particle filter; every other one runs the heading KF


@dataclass(frozen=True)
class PipelineConfig:
    signal: SignalConfig = field(default_factory=SignalConfig)
    pdr: PdrConfig = field(default_factory=PdrConfig)
    pf: PfConfig = field(default_factory=PfConfig)
    kf: KfConfig = field(default_factory=KfConfig)
    crossing: CrossingConfig = field(default_factory=CrossingConfig)
    seed: int = 0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidParameterError(f"seed must be >= 0, got {self.seed}")


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


def track(trace: Trace, plan: FloorPlan, cfg: PipelineConfig = PipelineConfig()) -> tuple[list[Pose], EventLog]:
    """Run the whole pipeline over one trace.

    Steps and door openings come from the normalized acceleration; heading is
    gyro-integrated (indoors) or Kalman-corrected with the magnetometer
    (outdoors); position advances per step through the active back-end; the
    crossing state machine arms near doors and switches environments.

    The tracker's state is the loop's locals: position, heading, the crossing
    state (which holds the environment) and the back-end, exactly one of the
    particle filter pf (indoors) and the heading filter kf (elsewhere).
    """
    log = EventLog()
    if len(trace) == 0:
        return [], log

    t, a = normalized_series(trace, cfg.signal)
    steps = detect_steps(t, a, cfg.signal)
    door_opens = detect_door_openings(t, a, cfg.signal, steps)
    log.steps = steps
    log.door_opens = door_opens

    if plan.start_position is None or plan.start_heading is None or plan.start_environment is None:
        raise InvalidInputError("floor plan lacks a start annotation (position, heading, environment)")
    position, heading = plan.start_position, wrap_angle(plan.start_heading)
    cstate = CrossingState(environment=plan.start_environment)
    indoor = plan.start_environment == INDOOR
    pf = pf_init(Pose(position, heading), cfg.pf, seed=cfg.seed) if indoor else None
    kf = None if indoor else kf_init(heading)
    zones = build_zone_lookup(plan.doors, cfg.crossing)

    dts, rates, increments = (arr.tolist() for arr in trace.yaw_increments())
    mag_z = None  # magnetometer heading per interval end, computed on first KF use
    sample_at = step_samples(trace, steps)
    open_starts = [ev.t_start for ev in door_opens]
    open_ends = [ev.t_end for ev in door_opens]  # sorted: merged openings are disjoint
    cursor = 0
    path: list[Pose] = []

    for k, step in enumerate(steps):
        i_k = sample_at[k]
        if pf is None:
            if mag_z is None:
                mag_z = mag_headings(trace.mag[1:, :2], cfg.kf.declination)
            kf = kf_run(kf, rates, dts, mag_z, cursor, i_k, cfg.kf)
            heading = kf.heading
        else:
            heading = integrate_heading(heading, increments, cursor, i_k)
        cursor = i_k

        prev_pos = position
        if pf is None:
            position = propagate_step(Pose(prev_pos, heading), cfg.pdr).position
        else:
            try:
                pf, position = pf_step(pf, heading, cfg.pf, cfg.pdr, plan)
            except FilterDivergenceError:
                # One reinitialization at the last valid estimate, then give up.
                pf = pf_init(Pose(prev_pos, heading), cfg.pf, seed=cfg.seed + 7919 + k)
                try:
                    pf, position = pf_step(pf, heading, cfg.pf, cfg.pdr, plan)
                except FilterDivergenceError as exc:
                    raise FilterDivergenceError(f"particle filter diverged at step {k}") from exc

        # An opening overlaps (prev_t, step.t] when the first one ending after
        # prev_t starts by step.t.
        j = bisect.bisect_right(open_ends, steps[k - 1].t if k else float("-inf"))
        opened = j < len(open_starts) and open_starts[j] <= step.t

        cstate = crossing_mod.arm_check(cstate, position, plan.doors, cfg.crossing)
        cstate, switch = crossing_mod.observe_step(cstate, k, prev_pos, position, opened, cfg.crossing, zones)
        if switch is not None:
            log.switches.append(switch)
            indoor = switch.to_env == INDOOR
            pf = pf_init(Pose(switch.crossing_point, heading), cfg.pf, seed=cfg.seed + k + 1) if indoor else None
            kf = None if indoor else kf_init(heading)

        path.append(Pose(position, heading))
        log.environments.append(cstate.environment)

    log.poses = path
    return path, log


def _match_switches(switches: list[SwitchEvent], truth: GroundTruth, window: int):
    """(matched, unmatched) switch counts. Crossings and switches both go in step
    order, each crossing taking the earliest free switch for its door within
    window steps: in that order the greedy matching is a maximum one."""
    switches = sorted(switches, key=lambda sw: sw.step_index)
    used = [False] * len(switches)
    tp = 0
    for step_idx, door_id in sorted(truth.crossings):
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
    the truth's turn-back approaches; a trial's unmatched switches count
    against at most that trial's approaches, so FPR stays within [0, 1].
    counts["false_positives"] keeps every unmatched switch, and so does
    false_switches_per_trial, which a suite without turn-backs still has.
    """
    if match_window < 0:
        raise InvalidParameterError(f"match_window must be >= 0, got {match_window}")
    results = list(results)
    if not results:
        raise InvalidInputError("no trials to evaluate")

    positives = negatives = tp = fp = charged = 0
    group_tp: dict[str, int] = {}
    group_pos: dict[str, int] = {}
    final_errors: list[float] = []
    for log, truth in results:
        trial_tp, trial_fp = _match_switches(log.switches, truth, match_window)
        positives += len(truth.crossings)
        negatives += len(truth.turn_backs)
        tp += trial_tp
        fp += trial_fp
        charged += min(trial_fp, len(truth.turn_backs))
        group = truth.group or "all"
        group_tp[group] = group_tp.get(group, 0) + trial_tp
        group_pos[group] = group_pos.get(group, 0) + len(truth.crossings)
        last = log.poses[-1].position if log.poses else truth.initial_position
        final_errors.append(distance(last, truth.final_position))

    tpr = tp / positives if positives else float("nan")
    fpr = charged / negatives if negatives else float("nan")
    ordered = sorted(final_errors)
    n = len(ordered)
    cdf = [(e, (i + 1) / n) for i, e in enumerate(ordered)]
    effectivity = {
        g: (100.0 * group_tp[g] / group_pos[g]) if group_pos[g] else float("nan")
        for g in sorted(group_tp)
    }
    return EvalReport(
        true_positive_rate=tpr,
        false_negative_rate=1.0 - tpr,
        true_negative_rate=1.0 - fpr,
        false_positive_rate=fpr,
        effectivity=effectivity,
        final_errors=final_errors,
        cdf=cdf,
        counts={
            "true_positives": tp,
            "false_negatives": positives - tp,
            "false_positives": fp,
            "true_negatives": negatives - charged,
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
PATH_HEADER = "step,t,x,y,heading,environment"
EVENTS_HEADER = "kind,step,t,door,x,y,t_start,t_end,zero_crossings,from_env,to_env"


def _fmt(x: float) -> str:
    return repr(float(x))


def _tx_dbm(field: str) -> tuple[str, float]:
    tx, eq, dbm = field.partition("=")
    if not eq:
        raise ValueError(f"expected tx=dbm, got {field!r}")
    return tx, float(dbm)


# Field specs: each record key (None: the lines carry no key) maps to the
# converters of the record's fields in file order, and _read and _write both
# follow it. None skips a field on read and writes it empty, a trailing ...
# lets the converter before it take every further field, and a leading
# string names the fields in the field-count error.
_TRACE = {None: (float,) * 10}
_PATH = {None: (int, float, float, float, float, str)}
_EVENTS = {  # columns after kind: step,t,door,x,y,t_start,t_end,zero_crossings,from_env,to_env
    "step": (int, float, None, None, None, None, None, None, None, None),
    "door_open": (None, None, None, None, None, float, float, int, None, None),
    "switch": (int, float, str, float, float, None, None, None, str, str),
}
_FLOORPLAN = {
    "wall": (float, float, float, float),  # x1 y1 x2 y2
    "door": (str, float, float, float, float, str, str),  # id cx cy tx ty inner outer
    "start": (float, float, float, str),  # x y heading environment
}
_RADIOMAP = {"point": (float, float, _tx_dbm, ...)}  # x y tx=dbm ...
_OBSERVATION = {None: (str, float)}  # transmitter dbm
_CDF = {None: (float, float)}  # error fraction
_CONFUSION = {None: (str, float, float)}  # row actual_positive actual_negative
_TRUTH = {
    "group": (str, ...),
    "initial": (float, float, float, str),  # x y heading environment
    "final": (float, float),  # x y; derived from the steps on load
    "step": (int, float, float, float, float, str),  # index t x y heading environment
    "door_open": (float, float),  # t_start t_end
    "crossing": (int, str),  # step door
    "turn_back": (int, str),  # step door
}
_WALK_SCRIPT = {
    "waypoint": (float, float),
    "cadence": (float,),
    "step_length": (float,),
    "start_environment": (str,),
    "door_action": ("waypoint door action", int, str, str),
    "pause": ("waypoint seconds", int, float),
}


def _text(path) -> str:
    """A file's text; a byte that is not UTF-8 raises ParseError naming its line."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "_").splitlines())
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}", path=str(path), line=line) from None


def _lines(path, head="version: 1", sep=None) -> list[tuple[int, str]]:
    """(line number, stripped text) of each record line after the head; sep None allows # comments."""
    lines = [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, _text(path).splitlines()), start=1)
        if line and not (sep is None and line.startswith("#"))
    ]
    # Spacing inside the head line is free: 'version:1' reads as 'version: 1'.
    if head is not None:
        if not lines or "".join(lines[0][1].split()) != "".join(head.split()):
            raise ParseError(f"expected {head!r} first", path=str(path), line=lines[0][0] if lines else None)
        del lines[0]
    return lines


def _spec(fields, key, n: int):
    """(field names or None, converters) of a key's record with n fields."""
    names, convs = None, fields[key]
    if isinstance(convs[0], str):
        names, convs = convs[0], convs[1:]
    if convs[-1] is ...:
        convs = convs[:-1] + convs[-2:-1] * (n - len(convs) + 1)
    return names, convs


def _read(path, fields, head="version: 1", sep=None, lines=None) -> dict:
    """Record key -> [(line number, field values)], in file order.

    The one parser of every format above: keyed lines read ``key: fields``
    with sep None (whitespace) and ``key<sep>fields`` in CSV. A line that
    does not match fields raises ParseError(path, line), numbered as in the
    file. Pass lines from _lines to skip reading the file again.
    """
    records = {key: [] for key in fields}
    for lineno, line in _lines(path, head, sep) if lines is None else lines:
        key = None
        if None not in fields:
            key, _, line = line.partition(":" if sep is None else sep)
            key = key.strip()
        if key not in fields:
            raise ParseError(f"unknown record {key!r}", path=str(path), line=lineno)
        parts = line.split(sep)
        names, convs = _spec(fields, key, len(parts))
        if len(parts) != len(convs):
            message = f"{key} needs {names!r}" if names else f"expected {len(convs)} fields, got {len(parts)}"
            raise ParseError(message, path=str(path), line=lineno)
        try:
            values = tuple([conv(part) for conv, part in zip(convs, parts) if conv is not None])
        except ValueError as exc:
            raise ParseError(f"bad number: {exc}", path=str(path), line=lineno) from exc
        records[key].append((lineno, values))
    return records


# How _write turns a value back into the field its converter reads.
_FORMATS = {float: _fmt, int: str, str: str, _tx_dbm: lambda pair: f"{pair[0]}={_fmt(pair[1])}"}


def _write(path, fields, rows, head="version: 1", sep=None) -> None:
    """Write rows, (record key, values) in file order, so that _read with the same
    fields returns them: values holds one value per converter that is not None."""
    lines = [] if head is None else [head]
    for key, values in rows:
        # Every ... spec converts each of its fields, so its field count is len(values).
        convs, values = _spec(fields, key, len(values))[1], iter(values)
        line = (sep or " ").join(["" if conv is None else _FORMATS[conv](next(values)) for conv in convs])
        lines.append(line if key is None else f"{key}: {line}" if sep is None else f"{key}{sep}{line}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def save_trace(trace: Trace, path) -> None:
    rows = np.column_stack((trace.t, trace.accel, trace.gyro, trace.mag)).tolist()  # Python floats: repr is _fmt
    lines = [TRACE_HEADER, *(",".join(map(repr, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_trace(path) -> Trace:
    lines = _lines(path, TRACE_HEADER, ",")
    try:
        data = np.loadtxt([line for _, line in lines], delimiter=",", comments=None, ndmin=2) if lines else None
    except ValueError:
        data = None
    if data is None or data.shape[1] != 10:
        # numpy rejects some fields that float() takes (1_0, non-ASCII digits):
        # the row loop returns the same values or names the bad line.
        data = np.array([row for _, row in _read(path, _TRACE, sep=",", lines=lines)[None]]).reshape(-1, 10)
    try:
        return Trace(t=data[:, 0], accel=data[:, 1:4], gyro=data[:, 4:7], mag=data[:, 7:10])
    except InvariantViolation as exc:  # row i of data is lines[i]
        if exc.record is not None:
            exc.args = (f"{path}:{lines[exc.record][0]}: {exc}",)
        raise


def save_floorplan(plan: FloorPlan, path) -> None:
    rows = [("wall", (w.a.x, w.a.y, w.b.x, w.b.y)) for w in plan.walls]
    rows += [("door", (d.id, d.center.x, d.center.y, *d.tangent, d.inner_env, d.outer_env)) for d in plan.doors]
    if plan.start_position is not None:
        start = plan.start_position
        rows.append(("start", (start.x, start.y, plan.start_heading, plan.start_environment)))
    _write(path, _FLOORPLAN, rows)


def _build(path, records, build) -> list:
    """build(*values) of each (line number, values) record; a SeamlocError it raises
    keeps its class and gains the record's path:line: in front of its message."""
    built = []
    for lineno, values in records:
        try:
            built.append(build(*values))
        except SeamlocError as exc:
            exc.args = (f"{path}:{lineno}: {exc}",)
            raise
    return built


def _door(door_id, cx, cy, tx, ty, inner, outer) -> Door:
    norm = math.hypot(tx, ty)
    if abs(norm - 1.0) > 1e-6:
        raise InvariantViolation("door-tangent-unit", f"|tangent| = {norm} beyond 1e-6 of unit")
    if norm != 1.0:
        warnings.warn(f"door {door_id}: tangent normalized on load ({norm})")
        tx, ty = tx / norm, ty / norm
    return Door(id=door_id, center=Point2(cx, cy), tangent=(tx, ty), inner_env=inner, outer_env=outer)


def load_floorplan(path) -> FloorPlan:
    records = _read(path, _FLOORPLAN)
    doors = tuple(_build(path, records["door"], _door))
    walls = tuple(_build(path, records["wall"], lambda x1, y1, x2, y2: Segment2(Point2(x1, y1), Point2(x2, y2))))
    plan = _build(path, records["start"][-1:], lambda x, y, *rest: FloorPlan(walls, doors, Point2(x, y), *rest))
    return plan[0] if plan else FloorPlan(walls, doors)


def save_radiomap(radio_map: RadioMap, path) -> None:
    rows = [("point", (fp.position.x, fp.position.y, *sorted(fp.rss.items()))) for fp in radio_map.entries]
    _write(path, _RADIOMAP, rows)


def load_radiomap(path) -> RadioMap:
    points = _read(path, _RADIOMAP)["point"]
    return RadioMap(entries=tuple(_build(path, points, lambda x, y, *rss: Fingerprint(Point2(x, y), dict(rss)))))


def load_observation(path) -> dict[str, float]:
    """RSS observation file: one ``transmitter dbm`` pair per line."""
    rss = dict(_build(path, _read(path, _OBSERVATION, head=None)[None], dbm_reading))
    if not rss:
        raise InvalidInputError(f"{path}: no RSS readings")
    return rss


def save_truth(truth: GroundTruth, path) -> None:
    rows = [("group", (truth.group,))] if truth.group else []  # written as it stands, read back word by word
    start = truth.initial_position
    rows.append(("initial", (start.x, start.y, truth.initial_heading, truth.initial_environment)))
    rows.append(("final", (truth.final_position.x, truth.final_position.y)))
    times, positions, headings = truth.step_times.tolist(), truth.step_positions.tolist(), truth.step_headings.tolist()
    rows += [("step", (i, times[i], *positions[i], headings[i], env)) for i, env in enumerate(truth.environments)]
    rows += [("door_open", interval) for interval in truth.door_open_intervals]
    rows += [("crossing", crossing) for crossing in truth.crossings]
    rows += [("turn_back", turn_back) for turn_back in truth.turn_backs]
    _write(path, _TRUTH, rows)


def load_truth(path) -> GroundTruth:
    records = _read(path, _TRUTH)
    if not records["initial"]:
        raise ParseError("missing 'initial' record", path=str(path))
    ((start, heading, environment),) = _build(path, records["initial"][-1:], lambda x, y, *rest: (Point2(x, y), *rest))
    steps = [step for _, step in records["step"]]  # index t x y heading environment; the index is not kept
    _build(path, records["step"], lambda _i, _t, x, y, *_: Point2(x, y))  # a step's position must be finite
    environments = tuple(s[5] for s in steps)
    crossings = tuple(crossing for _, crossing in records["crossing"])
    i = uncrossed_change(environment, environments, crossings)
    if i is not None:
        line = records["step"][i][0]
        raise ParseError(f"environment changed at step {i} without a crossing", path=str(path), line=line)
    return GroundTruth(
        step_times=np.array([s[1] for s in steps]),
        step_positions=np.array([s[2:4] for s in steps]).reshape(-1, 2),
        step_headings=np.array([s[4] for s in steps]),
        environments=environments,
        door_open_intervals=tuple(interval for _, interval in records["door_open"]),
        crossings=crossings,
        turn_backs=tuple(turn_back for _, turn_back in records["turn_back"]),
        initial_position=start,
        initial_heading=heading,
        initial_environment=environment,
        group=" ".join(records["group"][-1][1]) if records["group"] else "",
    )


def load_walk_script(path):
    """Walk script records: waypoint/cadence/step_length/start_environment/
    door_action/pause lines after ``version: 1``."""
    records = _read(path, _WALK_SCRIPT)
    # The last record of each setting wins; WalkScript holds the defaults.
    script_fields = {"cadence": "cadence", "step_length": "step_length_true", "start_environment": "start_environment"}
    settings = {name: values[0] for key, name in script_fields.items() for _, values in records[key]}
    try:
        return WalkScript(
            waypoints=tuple(_build(path, records["waypoint"], Point2)),
            door_actions=tuple(_build(path, records["door_action"], DoorAction)),
            pauses=tuple(pause for _, pause in records["pause"]),
            **settings,
        )
    except InvalidScriptError as exc:
        if exc.record is not None:
            key, k = exc.record
            exc.args = (f"{path}:{records[key][k][0]}: {exc}",)
        raise


def save_path(log: EventLog, path) -> None:
    env = log.environments + [""] * (len(log.poses) - len(log.environments))  # a missing one is written empty
    rows = [(None, (i, log.steps[i].t, p.position.x, p.position.y, p.heading, env[i])) for i, p in enumerate(log.poses)]
    _write(path, _PATH, rows, PATH_HEADER, ",")


def save_events(log: EventLog, path) -> None:
    rows = [("step", (s.index, s.t)) for s in log.steps]
    rows += [("door_open", (d.t_start, d.t_end, d.zero_crossings)) for d in log.door_opens]
    for sw in log.switches:
        t = log.steps[sw.step_index].t if sw.step_index < len(log.steps) else 0.0  # past the last step: no time
        x, y = sw.crossing_point.x, sw.crossing_point.y
        rows.append(("switch", (sw.step_index, t, sw.door_id, x, y, sw.from_env, sw.to_env)))
    # A stable sort by time: at equal times, steps come first, then openings, then switches.
    rows.sort(key=lambda row: row[1][0] if row[0] == "door_open" else row[1][1])
    _write(path, _EVENTS, rows, EVENTS_HEADER, ",")


def load_trial(events_path, path_path) -> EventLog:
    """Rebuild the EventLog parts evaluation needs from serialized files."""
    events = _read(events_path, _EVENTS, EVENTS_HEADER, ",")
    rows = _read(path_path, _PATH, PATH_HEADER, ",")[None]
    return EventLog(
        steps=[StepEvent(index=index, t=t, peak=0.0) for _, (index, t) in events["step"]],
        door_opens=[DoorOpenEvent(t_start=t0, t_end=t1, zero_crossings=z) for _, (t0, t1, z) in events["door_open"]],
        switches=_build(
            events_path,
            events["switch"],
            lambda k, _t, door, x, y, src, dst: SwitchEvent(k, door, Point2(x, y), src, dst),
        ),
        poses=_build(path_path, rows, lambda _step, _t, x, y, heading, _env: Pose(Point2(x, y), heading)),
        environments=[env for _, (*_, env) in rows],
    )


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
        f"  70% of errors at or below {report.cdf[math.ceil(0.7 * len(errs)) - 1][0]:.3f} m",
    ]
    return "\n".join(lines) + "\n"


def save_report(report: EvalReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(format_report(report), encoding="utf-8")
    _write(out / "cdf.csv", _CDF, [(None, point) for point in report.cdf], "error,fraction", ",")
    confusion = [
        (None, ("estimated_positive", report.true_positive_rate, report.false_positive_rate)),
        (None, ("estimated_negative", report.false_negative_rate, report.true_negative_rate)),
    ]
    _write(out / "confusion.csv", _CONFUSION, confusion, ",actual_positive,actual_negative", ",")
