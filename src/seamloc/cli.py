"""Command-line interface: simulate, track, locate, eval, report."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

from . import formats, harness
from .crossing import CrossingConfig
from .errors import InvalidInputError, InvalidParameterError, InvalidScriptError, InvariantViolation, ParseError, SeamlocError
from .filters import KfConfig, PfConfig
from .fingerprint import WknnConfig, estimate_position
from .pdr import PdrConfig
from .signal import SignalConfig
from .sim import NoiseModel, generate_walk

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


def load_config(path) -> dict:
    """Section name -> its dataclass built from the JSON file's values, or for
    the plain sections (sim, eval) the values; {} when path is None."""
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
    config = {}
    for section, values in raw.items():  # validates keys, types and ranges eagerly
        if section in _SECTIONS:
            cls = _SECTIONS[section]
            _check_section(section, values, {f.name: f.type for f in dataclasses.fields(cls) if f.type in _JSON_TYPES})
            config[section] = cls(**values)
        else:
            _check_section(section, values, _PLAIN_SECTIONS[section])
            config[section] = values
    return config


def build_pipeline_config(config: dict, seed: int | None = None) -> harness.PipelineConfig:
    # The noise and wknn sections configure simulate and locate.
    kwargs = {section: config[section] for section in ("signal", "pdr", "pf", "kf", "crossing") if section in config}
    if seed is not None:
        kwargs["seed"] = seed
    return harness.PipelineConfig(**kwargs)


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    script = formats.load_walk_script(args.script)
    noise = config.get("noise", NoiseModel())
    if args.seed is not None:
        noise = dataclasses.replace(noise, seed=args.seed)
    doors = harness.load_floorplan(args.plan).doors if args.plan else ()
    zone_width = config.get("crossing", CrossingConfig()).zone_width
    try:
        trace, truth = generate_walk(script, noise, doors=doors, zone_width=zone_width, **config.get("sim", {}))
    except (InvalidScriptError, InvariantViolation) as exc:  # about the whole walk: the script, at no line
        raise exc.at(args.script)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.save_trace(trace, out / f"{args.name}.trace.csv")
    formats.save_truth(truth, out / f"{args.name}.truth.txt")
    print(f"wrote {args.name}.trace.csv ({len(trace)} samples) and {args.name}.truth.txt ({truth.step_count} steps)")
    return 0


def _cmd_track(args) -> int:
    cfg = build_pipeline_config(load_config(args.config), args.seed)
    trace = harness.load_trace(args.trace)
    plan = harness.load_floorplan(args.plan)
    try:
        path, log = harness.track(trace, plan, cfg)
    except InvariantViolation as exc:
        raise exc if exc.record is None else exc.at(args.trace)  # an error about a sample names the trace
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    harness.save_path(log, out / f"{args.name}.path.csv")
    harness.save_events(log, out / f"{args.name}.events.csv")
    print(f"tracked {len(path)} steps, {len(log.door_opens)} door openings, {len(log.switches)} switches")
    return 0


def _cmd_locate(args) -> int:
    cfg = load_config(args.config).get("wknn", WknnConfig())
    observed = formats.load_observation(args.observation)
    radio_map = formats.load_radiomap(args.radiomap)
    position = estimate_position(observed, radio_map, cfg)
    line = f"{position.x!r} {position.y!r}"
    print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "position.txt").write_text(line + "\n", encoding="utf-8")
    return 0


def _cmd_eval(args) -> int:
    config = load_config(args.config)
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
    if not results:
        raise InvalidInputError("no trials to evaluate: no *.events.csv file").at(events_dir)
    report = harness.evaluate(results, **config.get("eval", {}))
    harness.save_report(report, args.out)
    print(f"evaluated {len(results)} trials -> {args.out}/report.txt")
    return 0


def _cmd_report(args) -> int:
    base = Path(args.input)
    report_file, cdf_file = base / "report.txt", base / "cdf.csv"
    if not report_file.exists():
        raise ParseError("no report.txt in directory (run eval first)", path=str(base))
    report = formats._text(report_file)
    cdf = formats._text(cdf_file) if cdf_file.exists() else None
    sys.stdout.write(report)
    if cdf is not None:
        print("\nCDF points (error, cumulative fraction)")
        sys.stdout.write(cdf)
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command tree, built on first use and shared by every later call."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SeamlocError as exc:
        print(f"error[{exc.category}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[io]: {exc}", file=sys.stderr)
        return 10


if __name__ == "__main__":
    sys.exit(main())
