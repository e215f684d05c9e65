"""File formats: the replay inputs and outputs, and the EventLog that a trial's files hold.

Every file format is UTF-8 with floats written as their shortest round-trip
repr. The field specs below drive both _read and _write, so a file reads back
as written, and every written column is checked on read.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .crossing import SwitchEvent
from .errors import InvalidInputError, InvalidParameterError, ParseError, SeamlocError
from .fingerprint import Fingerprint, RadioMap, dbm_reading, unique_readings
from .geometry import Door, FloorPlan, Point2, Segment2
from .metrics import EvalReport, format_report
from .pdr import Pose
from .signal import DoorOpenEvent, StepEvent, Trace
from .sim import DoorAction, GroundTruth, WalkScript


@dataclass
class EventLog:
    steps: list[StepEvent] = field(default_factory=list)
    door_opens: list[DoorOpenEvent] = field(default_factory=list)
    switches: list[SwitchEvent] = field(default_factory=list)
    poses: list[Pose] = field(default_factory=list)
    environments: list[str] = field(default_factory=list)


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
# follow it. None marks a field that is written empty and must read empty,
# a trailing ... lets the converter before it take every further field, and
# a leading string names the fields in the field-count error.
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
    "final": (float, float),  # x y: GroundTruth.final_position, checked on load
    "step": (int, float, float, float, float, str),  # index (the row's position) t x y heading environment
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


def _read(path, fields, head="version: 1", sep=None, build={}) -> dict:
    """Record key -> [(line number, record)], in file order.

    The one parser of every format above: keyed lines read ``key: fields``
    with sep None (whitespace) and ``key<sep>fields`` in CSV. A record is
    build[key](*values) where build has its key, else its field values. A
    line that does not match fields raises ParseError(path, line), numbered
    as in the file, and a SeamlocError that build raises keeps its class and
    is named at that line too.
    """
    records = {key: [] for key in fields}
    for lineno, line in _lines(path, head, sep):
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
        # A column left empty reads back as written only if it is empty; only events rows have one.
        unused = [part for conv, part in zip(convs, parts) if conv is None and part] if None in convs else ()
        if unused:
            raise ParseError(f"{key} leaves this column empty, got {unused[0]!r}", path=str(path), line=lineno)
        if key in build:
            try:
                values = build[key](*values)
            except SeamlocError as exc:
                raise exc.at(path, lineno)
        records[key].append((lineno, values))
    return records


# How _write turns a value back into the field its converter reads.
_FORMATS = {float: _fmt, int: str, str: str, _tx_dbm: lambda pair: f"{pair[0]}={_fmt(pair[1])}"}


def _name_reads_back(conv, text: str, sep) -> bool:
    """Whether a str or transmitter (tx=dbm) field reads back as itself: a transmitter holds
    no =; a field is one word where fields split on whitespace, and in CSV holds no sep, no
    line break and no whitespace at either end (an empty one reads back)."""
    if conv is _tx_dbm and text.count("=") > 1:  # dbm holds no =
        return False
    if sep is None:
        return text.split() == [text]
    return sep not in text and text == text.strip() and len(text.splitlines()) < 2


def _write(path, fields, rows, head="version: 1", sep=None) -> None:
    """Write rows, (record key, values) in file order, so that _read with the same
    fields returns them: values holds one value per converter that is not None. A
    name that would not read back as written (a str field, or a radio map's
    transmitter) raises InvalidParameterError before the file is opened."""
    lines = [] if head is None else [head]
    for key, values in rows:
        # Every ... spec converts each of its fields, so its field count is len(values).
        convs, values = _spec(fields, key, len(values))[1], iter(values)
        texts = ["" if conv is None else _FORMATS[conv](next(values)) for conv in convs]
        for conv, text in zip(convs, texts) if str in convs or _tx_dbm in convs else ():  # most rows hold no name
            if (conv is str or conv is _tx_dbm) and not _name_reads_back(conv, text, sep):
                raise InvalidParameterError(f"{key or 'a'} field {text!r} would not read back as written")
        line = (sep or " ").join(texts)
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
        data = np.array([row for _, row in _read(path, _TRACE, TRACE_HEADER, ",")[None]]).reshape(-1, 10)
    with _located(path, {None: lines}):  # row i of data is lines[i]
        return Trace(t=data[:, 0], accel=data[:, 1:4], gyro=data[:, 4:7], mag=data[:, 7:10])


def save_floorplan(plan: FloorPlan, path) -> None:
    rows = [("wall", (w.a.x, w.a.y, w.b.x, w.b.y)) for w in plan.walls]
    rows += [("door", (d.id, d.center.x, d.center.y, *d.tangent, d.inner_env, d.outer_env)) for d in plan.doors]
    if plan.start_position is not None:
        start = plan.start_position
        rows.append(("start", (start.x, start.y, plan.start_heading, plan.start_environment)))
    _write(path, _FLOORPLAN, rows)


@contextmanager
def _located(path, records):
    """Name a SeamlocError raised in the block at path and, if its record is (key, k), the line of records[key][k]."""
    try:
        yield
    except SeamlocError as exc:
        raise exc.at(path, None if exc.record is None else records[exc.record[0]][exc.record[1]][0])


def load_floorplan(path) -> FloorPlan:
    records = _read(path, _FLOORPLAN, build={
        "wall": lambda x1, y1, x2, y2: Segment2(Point2(x1, y1), Point2(x2, y2)),
        "door": lambda i, x, y, tx, ty, *envs: Door(i, Point2(x, y), (tx, ty), *envs),
        "start": lambda x, y, *rest: (Point2(x, y), *rest),  # every start is built, and the last one wins
    })
    walls, doors = (tuple(built for _, built in records[key]) for key in ("wall", "door"))
    with _located(path, records):  # a repeated door id names the later door's line, a bad heading its start's
        return FloorPlan(walls, doors, *(records["start"][-1][1] if records["start"] else ()))


def save_radiomap(radio_map: RadioMap, path) -> None:
    rows = [("point", (fp.position.x, fp.position.y, *sorted(fp.rss.items()))) for fp in radio_map.entries]
    _write(path, _RADIOMAP, rows)


def load_radiomap(path) -> RadioMap:
    records = _read(path, _RADIOMAP, build={"point": lambda x, y, *rss: Fingerprint(Point2(x, y), unique_readings(rss))})
    with _located(path, records):  # no reference points: the error is about the whole file
        return RadioMap(entries=tuple(entry for _, entry in records["point"]))


def load_observation(path) -> dict[str, float]:
    """RSS observation file: one ``transmitter dbm`` pair per line."""
    records = _read(path, _OBSERVATION, head=None, build={None: dbm_reading})
    with _located(path, records):  # a repeated transmitter names its second line, no readings the file
        rss = unique_readings(reading for _, reading in records[None])
        if not rss:
            raise InvalidInputError("no RSS readings")
    return rss


def save_truth(truth: GroundTruth, path) -> None:
    rows = [("group", tuple(truth.group.split()))] if truth.group else []  # single-spaced words: they read back as written
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
    records = _read(path, _TRUTH, build={"initial": lambda x, y, *rest: (Point2(x, y), *rest)})
    if not records["initial"]:
        raise ParseError("missing 'initial' record", path=str(path))
    start, heading, environment = records["initial"][-1][1]
    steps = [step for _, step in records["step"]]  # index t x y heading environment
    for k, (lineno, (index, *_)) in enumerate(records["step"]):  # save_truth writes the row's position
        if index != k:
            raise ParseError(f"step {index} is step row {k}: an index is its row's position", path=str(path), line=lineno)
    with _located(path, records):  # GroundTruth's rules name the step, crossing or turn_back line
        try:
            truth = GroundTruth(
                step_times=np.array([s[1] for s in steps]),
                step_positions=np.array([s[2:4] for s in steps]).reshape(-1, 2),
                step_headings=np.array([s[4] for s in steps]),
                environments=tuple(s[5] for s in steps),
                door_open_intervals=tuple(interval for _, interval in records["door_open"]),
                crossings=tuple(crossing for _, crossing in records["crossing"]),
                turn_backs=tuple(turn_back for _, turn_back in records["turn_back"]),
                initial_position=start,
                initial_heading=heading,
                initial_environment=environment,
                group=" ".join(records["group"][-1][1]) if records["group"] else "",
            )
        except InvalidParameterError as exc:  # a step or event rule; a file that breaks it is a parse error
            raise ParseError(str(exc), record=exc.record) from None
    end = (truth.final_position.x, truth.final_position.y)  # what save_truth writes as final
    for lineno, final in records["final"]:
        if repr(final) != repr(end):  # by repr, as written: -0.0 is not 0.0
            message = f"final {final!r} is not {end!r}, the last step's position (initial's at no step)"
            raise ParseError(message, path=str(path), line=lineno)
    return truth


def load_walk_script(path):
    """Walk script records: waypoint/cadence/step_length/start_environment/
    door_action/pause lines after ``version: 1``."""
    records = _read(path, _WALK_SCRIPT, build={"waypoint": Point2, "door_action": DoorAction})
    # The last record of each setting wins; WalkScript holds the defaults.
    script_fields = {"cadence": "cadence", "step_length": "step_length_true", "start_environment": "start_environment"}
    settings = {name: values[0] for key, name in script_fields.items() for _, values in records[key]}
    with _located(path, records):  # a whole-script rule names the line of the record it is about
        return WalkScript(
            waypoints=tuple(point for _, point in records["waypoint"]),
            door_actions=tuple(action for _, action in records["door_action"]),
            pauses=tuple(pause for _, pause in records["pause"]),
            **settings,
        )


def _switch_t(steps, k: int) -> float:
    """The t an events file gives a switch at step k: step row k's, or 0.0 where there is none."""
    return steps[k].t if 0 <= k < len(steps) else 0.0


def _check_events(steps, door_opens, switches) -> None:
    """Refuse, with InvalidParameterError naming the record, events that an events file
    would not read back as: step k has index k, and step times, opening start times and
    switch times (_switch_t) are in order (save_events sorts its rows by time)."""
    for k, step in enumerate(steps):
        if step.index != k:
            raise InvalidParameterError(f"step {step.index} is step row {k}: an index is its row's position", record=("step", k))
    for kind, name, times in (
        ("step", "t", [s.t for s in steps]),
        ("door_open", "t_start", [d.t_start for d in door_opens]),
        ("switch", "t", [_switch_t(steps, sw.step_index) for sw in switches]),
    ):
        for k, (before, t) in enumerate(zip([-math.inf, *times], times)):
            if not before <= t:  # NaN fails too
                message = f"{kind} times must be in order and not NaN: {kind} {k} has {name} {t!r}, after {before!r}"
                raise InvalidParameterError(message, record=(kind, k))


def _check_trial(log: EventLog) -> None:
    """Refuse, with InvalidParameterError, a log whose files load_trial would refuse or
    read back otherwise: it needs one pose per step, one environment per pose, and the
    events _check_events takes."""
    if not len(log.steps) == len(log.poses) == len(log.environments):
        counts = f"{len(log.steps)} steps, {len(log.poses)} poses and {len(log.environments)} environments"
        raise InvalidParameterError(f"a trial needs one pose per step and one environment per pose, got {counts}")
    _check_events(log.steps, log.door_opens, log.switches)


def save_path(log: EventLog, path) -> None:
    _check_trial(log)
    trial = enumerate(zip(log.steps, log.poses, log.environments))
    rows = [(None, (i, s.t, p.position.x, p.position.y, p.heading, env)) for i, (s, p, env) in trial]
    _write(path, _PATH, rows, PATH_HEADER, ",")


def save_events(log: EventLog, path) -> None:
    _check_trial(log)
    rows = [("step", (s.index, s.t)) for s in log.steps]
    rows += [("door_open", (d.t_start, d.t_end, d.zero_crossings)) for d in log.door_opens]
    for sw in log.switches:
        x, y, t = sw.crossing_point.x, sw.crossing_point.y, _switch_t(log.steps, sw.step_index)
        rows.append(("switch", (sw.step_index, t, sw.door_id, x, y, sw.from_env, sw.to_env)))
    # A stable sort by time: at equal times, steps come first, then openings, then switches.
    rows.sort(key=lambda row: row[1][0] if row[0] == "door_open" else row[1][1])
    _write(path, _EVENTS, rows, EVENTS_HEADER, ",")


def load_trial(events_path, path_path) -> EventLog:
    """Rebuild the EventLog parts evaluation needs from serialized files. The events
    must be what save_events takes (_check_events), and a switch row's t, which is not
    kept, the one it writes (_switch_t). Path row k must be the events' step row k:
    step k, that row's t, one row per step row."""
    events = _read(events_path, _EVENTS, EVENTS_HEADER, ",", {
        "switch": lambda k, t, door, x, y, *envs: (t, SwitchEvent(k, door, Point2(x, y), *envs))})
    rows = _read(path_path, _PATH, PATH_HEADER, ",", {
        None: lambda step, t, x, y, heading, env: (step, t, Pose(Point2(x, y), heading), env)})[None]
    log = EventLog(
        steps=[StepEvent(index=index, t=t, peak=0.0) for _, (index, t) in events["step"]],
        door_opens=[DoorOpenEvent(t_start=t0, t_end=t1, zero_crossings=z) for _, (t0, t1, z) in events["door_open"]],
        switches=[switch for _, (_, switch) in events["switch"]],
        poses=[pose for _, (_, _, pose, _) in rows],
        environments=[env for _, (*_, env) in rows],
    )
    with _located(events_path, events):  # a rule of save_events names its step, door_open or switch line
        try:
            _check_events(log.steps, log.door_opens, log.switches)
        except InvalidParameterError as exc:  # a file that breaks it is a parse error
            raise ParseError(str(exc), record=exc.record) from None
    for lineno, (t, switch) in events["switch"]:
        want = _switch_t(log.steps, switch.step_index)
        if repr(t) != repr(want):  # by repr, as written: -0.0 is not 0.0
            message = f"switch at step {switch.step_index} has t {t!r}, not {want!r} (its step's t, or 0.0 at no step)"
            raise ParseError(message, path=str(events_path), line=lineno)
    times = [step.t for step in log.steps]
    for k, (lineno, (step, t, *_)) in enumerate(rows):
        if k == len(times) or step != k or t != times[k]:
            at = f"t {times[k]!r}" if k < len(times) else f"only {len(times)} step rows"
            message = f"path row {k} (step {step}, t {t!r}) disagrees with step row {k} of {events_path} ({at})"
            raise ParseError(message, path=str(path_path), line=lineno)
    if len(rows) < len(times):
        message = f"{len(rows)} path rows disagree with the {len(times)} step rows of {events_path}"
        raise ParseError(message, path=str(path_path), line=rows[-1][0] + 1 if rows else None)
    return log


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
