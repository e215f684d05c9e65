"""Command-line interface: simulate, track, locate, eval, report."""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import harness
from .crossing import CrossingConfig
from .errors import InvalidParameterError, ParseError, SeamlocError
from .filters import KfConfig, PfConfig
from .fingerprint import WknnConfig, estimate_position
from .pdr import PdrConfig
from .signal import SignalConfig
from .sim import NoiseModel, generate_walk

EXIT_CODES = {
    "invalid-parameter": 2,
    "parse": 3,
    "invariant": 4,
    "invalid-input": 5,
    "invalid-script": 6,
    "filter-divergence": 7,
    "unreliable-measurement": 9,
}

_SECTIONS = {
    "signal": SignalConfig,
    "pdr": PdrConfig,
    "pf": PfConfig,
    "kf": KfConfig,
    "crossing": CrossingConfig,
    "wknn": WknnConfig,
    "noise": NoiseModel,
}

# Sections the commands read key by key: key -> annotation, as on a config dataclass.
_PLAIN_SECTIONS = {"sim": {"sample_rate": "float"}, "eval": {"match_window": "int"}}

# The JSON values each annotation accepts. A field of any other type, such as
# pdr.initial_pose, is no config key; bool, a subclass of int, is no number,
# and NaN and Infinity, which Python's json module reads, are no JSON numbers.
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,)}


def _check_section(name: str, values, types: dict[str, str]):
    """Reject a section that is not an object, an unknown key, or a value its annotation does not allow."""
    if not isinstance(values, dict):
        raise InvalidParameterError(f"{name} section must be a JSON object, got {values!r}")
    unknown = set(values) - set(types)
    if unknown:
        raise InvalidParameterError(f"unknown {name} keys: {sorted(unknown)}")
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[types[key]]):
            raise InvalidParameterError(f"{name}.{key} must be {types[key]}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise InvalidParameterError(f"{name}.{key} must be finite, got {value!r}")


def _build_section(section: str, values: dict):
    cls = _SECTIONS[section]
    _check_section(section, values, {f.name: f.type for f in dataclasses.fields(cls) if f.type in _JSON_TYPES})
    return cls(**values)


def load_config(path) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ParseError("config file not found", path=str(path))
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"bad JSON: {exc}", path=str(path)) from exc
    if not isinstance(raw, dict):
        raise ParseError("config must be a JSON object", path=str(path))
    unknown = set(raw) - set(_SECTIONS) - set(_PLAIN_SECTIONS)
    if unknown:
        raise InvalidParameterError(f"unknown config sections: {sorted(unknown)}")
    for section, values in raw.items():  # validates keys, types and ranges eagerly
        if section in _SECTIONS:
            _build_section(section, values)
        else:
            _check_section(section, values, _PLAIN_SECTIONS[section])
    return raw


def build_pipeline_config(raw: dict, seed: int | None = None) -> harness.PipelineConfig:
    kwargs = {  # the noise and wknn sections configure simulate and locate
        section: _build_section(section, raw[section])
        for section in _SECTIONS
        if section in raw and section not in ("noise", "wknn")
    }
    if seed is not None:
        kwargs["seed"] = seed
    return harness.PipelineConfig(**kwargs)


def build_noise(raw: dict, seed: int | None = None) -> NoiseModel:
    values = dict(raw.get("noise", {}))
    if seed is not None:
        values["seed"] = seed
    return _build_section("noise", values)


def _cmd_simulate(args) -> int:
    raw = load_config(args.config)
    script = harness.load_walk_script(args.script)
    noise = build_noise(raw, args.seed)
    sample_rate = float(raw.get("sim", {}).get("sample_rate", 100.0))
    doors = ()
    zone_width = _build_section("crossing", raw.get("crossing", {})).zone_width
    if args.plan:
        doors = harness.load_floorplan(args.plan).doors
    trace, truth = generate_walk(script, noise, sample_rate=sample_rate, doors=doors, zone_width=zone_width)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.save_trace(trace, out / f"{args.name}.trace.csv")
    harness.save_truth(truth, out / f"{args.name}.truth.txt")
    print(f"wrote {args.name}.trace.csv ({len(trace)} samples) and {args.name}.truth.txt ({truth.step_count} steps)")
    return 0


def _cmd_track(args) -> int:
    raw = load_config(args.config)
    cfg = build_pipeline_config(raw, args.seed)
    trace = harness.load_trace(args.trace)
    plan = harness.load_floorplan(args.plan)
    path, log = harness.track(trace, plan, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.save_path(log, out / f"{args.name}.path.csv")
    harness.save_events(log, out / f"{args.name}.events.csv")
    print(f"tracked {len(path)} steps, {len(log.door_opens)} door openings, {len(log.switches)} switches")
    return 0


def _cmd_locate(args) -> int:
    raw = load_config(args.config)
    cfg = _build_section("wknn", raw.get("wknn", {}))
    observed = harness.load_observation(args.observation)
    radio_map = harness.load_radiomap(args.radiomap)
    position = estimate_position(observed, radio_map, cfg)
    line = f"{position.x!r} {position.y!r}"
    print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "position.txt").write_text(line + "\n", encoding="utf-8")
    return 0


def _cmd_eval(args) -> int:
    raw = load_config(args.config)
    window = int(raw.get("eval", {}).get("match_window", CrossingConfig().coincidence_steps))
    events_dir = Path(args.events)
    truth_dir = Path(args.truth)
    results = []
    for events_file in sorted(events_dir.glob("*.events.csv")):
        stem = events_file.name[: -len(".events.csv")]
        path_file = events_dir / f"{stem}.path.csv"
        truth_file = truth_dir / f"{stem}.truth.txt"
        if not path_file.exists():
            raise ParseError(f"missing {path_file.name} next to {events_file.name}", path=str(events_dir))
        if not truth_file.exists():
            raise ParseError(f"missing {truth_file.name} for {events_file.name}", path=str(truth_dir))
        log = harness.load_trial(events_file, path_file)
        truth = harness.load_truth(truth_file)
        results.append((log, truth))
    report = harness.evaluate(results, match_window=window)
    harness.save_report(report, args.out)
    print(f"evaluated {len(results)} trials -> {args.out}/report.txt")
    return 0


def _cmd_report(args) -> int:
    base = Path(args.input)
    report_file, cdf_file = base / "report.txt", base / "cdf.csv"
    if not report_file.exists():
        raise ParseError("no report.txt in directory (run eval first)", path=str(base))
    report = harness._text(report_file)
    cdf = harness._text(cdf_file) if cdf_file.exists() else None
    sys.stdout.write(report)
    if cdf is not None:
        print("\nCDF points (error, cumulative fraction)")
        sys.stdout.write(cdf)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="seamloc", description="Seamless indoor/outdoor localization replay engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="walk script + noise -> trace + ground truth")
    p.add_argument("--script", required=True)
    p.add_argument("--plan", help="floor plan; enables geometric crossing ground truth")
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="trial")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("track", help="trace + floor plan -> path + events")
    p.add_argument("--trace", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--name", default="trial")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.set_defaults(func=_cmd_track)

    p = sub.add_parser("locate", help="RSS observation + radio map -> position")
    p.add_argument("--observation", required=True)
    p.add_argument("--radiomap", required=True)
    p.add_argument("--out")
    p.add_argument("--config")
    p.set_defaults(func=_cmd_locate)

    p = sub.add_parser("eval", help="events + truth directories -> report")
    p.add_argument("--events", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="print a saved evaluation report")
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SeamlocError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return EXIT_CODES.get(exc.category, 1)
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 10


if __name__ == "__main__":
    sys.exit(main())
