"""Per-layer tracing from outside the program.

`LayerTracer.install()` replaces public functions under the names that
`seamloc.harness`, `seamloc.crossing`, `seamloc.cli` and `seamloc.filters`
look them up by, so every call into a layer passes through a wrapper that
times it, counts it, or inspects its result. Nothing in the package changes,
and `uninstall()` puts the original functions back.

Timed wrappers nest: a layer's self time is its time minus the time of the
timed calls made directly inside it. Times gathered during one benchmark
operation are held as pending and committed with that operation's speed
scale (see speed.py), so traced times are in the same corrected seconds as
the end-to-end figures.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

from seamloc import cli, crossing, filters, geometry, harness, signal, sim
from seamloc.errors import FilterDivergenceError, UnreliableMeasurementError

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("filters.kf_predict_ms", "ms"),
    ("filters.kf_update_ms", "ms"),
    ("filters.mag_heading_ms", "ms"),
    ("filters.kf_predict_calls", "count"),
    ("filters.mag_rejected", "count"),
    ("signal.trace_sample_calls", "count"),
    ("harness.track_self_ms", "ms"),
    ("filters.pf_step_ms", "ms"),
    ("filters.pf_step_us_p50", "us"),
    ("filters.pf_step_calls", "count"),
    ("filters.pf_init_calls", "count"),
    ("geometry.wall_array_ms", "ms"),
    ("geometry.wall_array_calls", "count"),
    ("filters.pf_live_fraction", "fraction"),
    ("filters.pf_divergences", "count"),
    ("signal.normalize_ms", "ms"),
    ("signal.steps_ms", "ms"),
    ("signal.door_open_ms", "ms"),
    ("signal.door_open_events", "count"),
    ("signal.door_open_false", "count"),
    ("crossing.arm_check_ms", "ms"),
    ("crossing.observe_step_ms", "ms"),
    ("geometry.segment_intersection_calls", "count"),
    ("harness.evaluate_ms", "ms"),
    ("crossing.switches", "count"),
    ("harness.load_trace_ms", "ms"),
    ("harness.load_floorplan_ms", "ms"),
    ("harness.save_path_ms", "ms"),
    ("harness.save_events_ms", "ms"),
    ("harness.load_trial_ms", "ms"),
    ("harness.load_truth_ms", "ms"),
    ("harness.save_report_ms", "ms"),
    ("harness.bytes_read", "bytes"),
    ("harness.bytes_written", "bytes"),
    ("cli.self_ms", "ms"),
    ("harness.save_trace_ms", "ms"),
    ("sim.generate_walk_ms", "ms"),
]

# Metrics taken per set-up rather than per round of the timed phase.
SETUP_METRICS = {"harness.save_trace_ms", "sim.generate_walk_ms"}

REPORT_FILES = ("report.txt", "cdf.csv", "confusion.csv")


def _size(path) -> int:
    return Path(path).stat().st_size


class LayerTracer:
    def __init__(self):
        self.phase = "setup"
        self._seconds = {"setup": defaultdict(float), "replay": defaultdict(float)}
        self._counts = {"setup": defaultdict(float), "replay": defaultdict(float)}
        self._pf_step_us: list[float] = []
        self._pending_seconds: dict[str, float] = defaultdict(float)
        self._pending_pf_step: list[float] = []
        self._stack: list[list[float]] = []
        self._live_sum = 0.0
        self._live_prior = None
        self._live_now = None
        self._patches: list[tuple[object, str, object]] = []
        # (t_start, t_end) door-opening intervals of the trace now being tracked
        self.truth_intervals: tuple[tuple[float, float], ...] | None = None

    # -- accounting -------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        self._counts[self.phase][name] += n

    def commit(self, scale: float) -> None:
        """Book the pending times of one operation at its speed scale."""
        totals = self._seconds[self.phase]
        for name, secs in self._pending_seconds.items():
            totals[name] += secs * scale
        if self.phase == "replay":
            self._pf_step_us.extend(1e6 * s * scale for s in self._pending_pf_step)
        self._pending_seconds.clear()
        self._pending_pf_step.clear()

    def report(self, rounds: int, setups: int) -> dict[str, dict]:
        metrics = {}
        for name, unit in PER_LAYER:
            phase, per = ("setup", setups) if name in SETUP_METRICS else ("replay", rounds)
            if name == "filters.pf_step_us_p50":
                value = statistics.median(self._pf_step_us) if self._pf_step_us else 0.0
            elif name == "filters.pf_live_fraction":
                calls = self._counts["replay"]["filters.pf_step_calls"]
                value = self._live_sum / calls if calls else 0.0
            elif unit == "ms":
                value = 1e3 * self._seconds[phase][name] / per
            else:
                value = self._counts[phase][name] / per
            metrics[name] = {"value": value, "unit": unit}
        return metrics

    # -- wrappers ---------------------------------------------------------
    def _timed(self, fn, metric: str, after=None, self_metric: str | None = None, calls: list | None = None):
        pending = self._pending_seconds
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                pending[metric] += dt
                if calls is not None:
                    calls.append(dt)
                if self_metric:
                    pending[self_metric] += dt - frame[0]
            if after is not None:
                after(out, args)
            return out

        return wrapper

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        count = self.count

        def after_door_openings(events, args):
            count("signal.door_open_events", len(events))
            if self.truth_intervals is not None:
                false = sum(
                    1
                    for ev in events
                    if not any(ev.t_start < t1 and ev.t_end > t0 for t0, t1 in self.truth_intervals)
                )
                count("signal.door_open_false", false)

        def after_observe(out, args):
            if out[1] is not None:
                count("crossing.switches")

        def bytes_read(*positions):
            def after(out, args):
                count("harness.bytes_read", sum(_size(args[i]) for i in positions))

            return after

        def bytes_written(out, args):
            count("harness.bytes_written", _size(args[1]))

        def report_written(out, args):
            count("harness.bytes_written", sum(_size(Path(args[1]) / f) for f in REPORT_FILES))

        def counted(fn, metric):
            def wrapper(*args, **kwargs):
                count(metric)
                return fn(*args, **kwargs)

            return wrapper

        timed = self._timed
        self._patch(harness, "track", timed(harness.track, "harness.track_ms", self_metric="harness.track_self_ms"))
        self._patch(cli, "main", timed(cli.main, "cli.main_ms", self_metric="cli.self_ms"))
        for attr, metric, after in (
            ("normalized_series", "signal.normalize_ms", None),
            ("detect_steps", "signal.steps_ms", None),
            ("detect_door_openings", "signal.door_open_ms", after_door_openings),
            ("kf_update", "filters.kf_update_ms", None),
            ("evaluate", "harness.evaluate_ms", None),
            ("load_trace", "harness.load_trace_ms", bytes_read(0)),
            ("load_floorplan", "harness.load_floorplan_ms", bytes_read(0)),
            ("load_trial", "harness.load_trial_ms", bytes_read(0, 1)),
            ("load_truth", "harness.load_truth_ms", bytes_read(0)),
            ("save_path", "harness.save_path_ms", bytes_written),
            ("save_events", "harness.save_events_ms", bytes_written),
            ("save_report", "harness.save_report_ms", report_written),
            ("save_trace", "harness.save_trace_ms", bytes_written),
        ):
            self._patch(harness, attr, timed(getattr(harness, attr), metric, after))

        kf_predict = timed(harness.kf_predict, "filters.kf_predict_ms")
        self._patch(harness, "kf_predict", counted(kf_predict, "filters.kf_predict_calls"))

        mag_heading = timed(harness.mag_heading, "filters.mag_heading_ms")

        def mag_heading_counted(*args, **kwargs):
            try:
                return mag_heading(*args, **kwargs)
            except UnreliableMeasurementError:
                count("filters.mag_rejected")
                raise

        self._patch(harness, "mag_heading", mag_heading_counted)

        pf_step = timed(harness.pf_step, "filters.pf_step_ms", calls=self._pending_pf_step)

        def pf_step_traced(pset, *args, **kwargs):
            count("filters.pf_step_calls")
            self._live_prior = pset.weights > 0
            self._live_now = None
            try:
                return pf_step(pset, *args, **kwargs)
            except FilterDivergenceError:
                count("filters.pf_divergences")
                raise
            finally:
                live = self._live_now if self._live_now is not None else float(self._live_prior.mean())
                if self.phase == "replay":
                    self._live_sum += live

        self._patch(harness, "pf_step", pf_step_traced)
        self._patch(harness, "pf_init", counted(harness.pf_init, "filters.pf_init_calls"))
        self._patch(filters, "pf_init", counted(filters.pf_init, "filters.pf_init_calls"))

        segments_cross = filters._segments_cross

        def segments_cross_traced(p0, p1, walls):
            hit = segments_cross(p0, p1, walls)
            if self._live_prior is not None and len(self._live_prior) == len(hit):
                self._live_now = float((self._live_prior & ~hit).mean())
            return hit

        self._patch(filters, "_segments_cross", segments_cross_traced)

        wall_array = timed(geometry.FloorPlan.wall_array, "geometry.wall_array_ms")
        self._patch(geometry.FloorPlan, "wall_array", counted(wall_array, "geometry.wall_array_calls"))
        self._patch(signal.Trace, "sample", counted(signal.Trace.sample, "signal.trace_sample_calls"))
        self._patch(
            crossing,
            "segment_intersection",
            counted(crossing.segment_intersection, "geometry.segment_intersection_calls"),
        )
        self._patch(crossing, "arm_check", timed(crossing.arm_check, "crossing.arm_check_ms"))
        self._patch(crossing, "observe_step", timed(crossing.observe_step, "crossing.observe_step_ms", after_observe))

        generate_walk = timed(sim.generate_walk, "sim.generate_walk_ms")
        self._patch(sim, "generate_walk", generate_walk)
        self._patch(cli, "generate_walk", generate_walk)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
