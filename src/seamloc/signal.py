"""Accelerometer stream processing: normalized acceleration, steps, door openings.

The walk signature is carried entirely by the normalized acceleration
(magnitude minus gravity): gait cycles swing past +/-1.5 m/s^2, while door
manipulation shows up as a low-amplitude (+/-0.5 to 1.5 m/s^2) wiggle that
swings from one edge of the door band to the other, with no step activity.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvariantViolation


@dataclass(frozen=True)
class ImuSample:
    t: float
    accel: tuple[float, float, float]  # m/s^2
    gyro: tuple[float, float, float]  # rad/s
    mag: tuple[float, float, float]  # microtesla


@dataclass
class Trace:
    """Column-oriented IMU stream: t (N,), accel/gyro/mag (N, 3). Construction checks the sample rules in
    order (every value finite, accel_squared finite, t increasing, each yaw increment finite); the first
    that fails raises with record (None, i), i its first bad sample (of an interval, the one ending it)."""

    t: np.ndarray
    accel: np.ndarray
    gyro: np.ndarray
    mag: np.ndarray

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.accel = np.asarray(self.accel, dtype=float).reshape(-1, 3)
        self.gyro = np.asarray(self.gyro, dtype=float).reshape(-1, 3)
        self.mag = np.asarray(self.mag, dtype=float).reshape(-1, 3)
        n = len(self.t)
        if not (len(self.accel) == len(self.gyro) == len(self.mag) == n):
            raise InvariantViolation("trace-equal-lengths", "sensor columns differ in length")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is a rule's failure
            dt, _, dyaw = self.yaw_increments()
            accel_squared = self.accel_squared()
        columns = (("t", self.t), ("accel", self.accel), ("gyro", self.gyro), ("mag", self.mag))
        rules = [("trace-finite", f"non-finite value in {name}", np.isfinite(a), 0) for name, a in columns]
        rules += [
            ("trace-accel-norm-finite", "the squared acceleration norm overflows", np.isfinite(accel_squared), 0),
            ("trace-monotonic-time", "timestamps not strictly increasing", dt > 0, 1),
            ("trace-increment-finite", "the interval or yaw increment from the sample before overflows", np.isfinite(dyaw), 1),
        ]
        for invariant, message, ok, offset in rules:
            if not ok.all():
                raise InvariantViolation(invariant, message, record=(None, int(np.argwhere(~ok)[0, 0]) + offset))

    def __len__(self) -> int:
        return len(self.t)

    def yaw_increments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(dt, rate, rate * dt) of each interval between consecutive samples:
        the trapezoid rule on the gyro z axis (vertical), rate the mean of its ends."""
        dt = np.diff(self.t)
        rate = 0.5 * (self.gyro[:-1, 2] + self.gyro[1:, 2])
        return dt, rate, rate * dt

    def accel_squared(self) -> np.ndarray:
        """Each sample's ax * ax + ay * ay + az * az, summed left to right; normalized_series takes its root."""
        ax, ay, az = self.accel.T
        return ax * ax + ay * ay + az * az

    def sample(self, i: int) -> ImuSample:
        return ImuSample(
            t=float(self.t[i]),
            accel=tuple(self.accel[i]),
            gyro=tuple(self.gyro[i]),
            mag=tuple(self.mag[i]),
        )


@dataclass(frozen=True)
class SignalConfig:
    g: float = 9.81
    step_hi: float = 1.5
    step_lo: float = -1.5
    door_hi: float = 0.5
    door_lo: float = -0.5
    step_refractory: float = 0.3
    door_window: float = 1.5
    door_min_zero_crossings: int = 2

    def __post_init__(self):
        if not self.g > 0:
            raise InvalidParameterError(f"gravity must be positive, got {self.g}")
        if not self.door_hi < self.step_hi:
            raise InvalidParameterError("door_hi must be below step_hi")
        if not self.door_lo > self.step_lo:
            raise InvalidParameterError("door_lo must be above step_lo")
        if not self.door_lo < self.door_hi:
            raise InvalidParameterError("door_lo must be below door_hi")
        if not (self.step_refractory > 0 and self.door_window > 0):
            raise InvalidParameterError("time windows must be positive")
        if self.door_min_zero_crossings < 0:
            raise InvalidParameterError(f"door_min_zero_crossings must be >= 0, got {self.door_min_zero_crossings}")


@dataclass(frozen=True)
class StepEvent:
    index: int
    t: float  # time of the peak acceleration within the gait cycle
    peak: float


@dataclass(frozen=True)
class DoorOpenEvent:
    t_start: float
    t_end: float
    zero_crossings: int


def normalize_accel(sample: ImuSample, cfg: SignalConfig = SignalConfig()) -> float:
    """Acceleration magnitude minus gravity: sqrt(ax^2 + ay^2 + az^2) - g."""
    ax, ay, az = sample.accel
    return math.sqrt(ax * ax + ay * ay + az * az) - cfg.g


def normalized_series(trace: Trace, cfg: SignalConfig = SignalConfig()) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample normalized acceleration for a whole trace: the root of Trace.accel_squared, minus g."""
    return trace.t, np.sqrt(trace.accel_squared()) - cfg.g


def detect_steps(t: np.ndarray, a: np.ndarray, cfg: SignalConfig = SignalConfig()) -> list[StepEvent]:
    """Step events from a normalized-acceleration series.

    A gait cycle arms at a sample with a >= step_hi and fires at the first
    a <= step_lo at or after the next downward zero crossing (a[i-1] > 0 >= a[i]);
    the next cycle arms after it. Each cycle is three bisections into index
    lists. The event is stamped at the cycle's first maximum, one of its arm
    samples (never NaN), found for all cycles by one reduceat over their runs
    arm[firsts[k]:firsts[k + 1]]; a refractory interval suppresses double counting.
    """
    t, a = np.asarray(t, dtype=float), np.asarray(a, dtype=float)
    arm = np.flatnonzero(a >= cfg.step_hi)
    cross = (np.flatnonzero((a[:-1] > 0.0) & (a[1:] <= 0.0)) + 1).tolist()
    low = np.flatnonzero(a <= cfg.step_lo).tolist()
    arm_at, firsts, end = arm.tolist(), [], 0
    while end < len(arm_at):
        k_cross = bisect.bisect_right(cross, arm_at[end])
        k_low = bisect.bisect_left(low, cross[k_cross]) if k_cross < len(cross) else len(low)
        if k_low == len(low):
            break
        firsts.append(end)
        end = bisect.bisect_right(arm_at, low[k_low])
    runs = a[arm[:end]]
    is_top = runs == np.repeat(np.maximum.reduceat(runs, firsts), np.diff([*firsts, end]))
    tops = np.flatnonzero(is_top)
    peak_at = arm[tops[np.searchsorted(tops, firsts)]]  # the first maximum of each run
    events: list[StepEvent] = []
    for peak_t, peak in zip(t[peak_at].tolist(), a[peak_at].tolist()):
        if not events or peak_t - events[-1].t >= cfg.step_refractory:
            events.append(StepEvent(index=len(events), t=peak_t, peak=peak))
    return events


def _zero_crossing_flags(a: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Band-to-band swing indicator between consecutive samples (length N-1).

    A Schmitt trigger: the sign is +1 at a >= hi, -1 at a <= lo and 0 between,
    and a 0 carries the sign before it, so a swing from <= lo to >= hi, or
    back, counts once, and noise around zero inside the band counts none.
    Flag i is 1 when sample i + 1 is out of band opposite the out-of-band sample before it.
    """
    out = np.flatnonzero((a >= hi) | (a <= lo))
    high = a[out] >= hi
    flags = np.zeros(max(len(a) - 1, 0), dtype=int)
    flags[out[1:][high[1:] != high[:-1]] - 1] = 1
    return flags


def detect_door_openings(
    t: np.ndarray,
    a: np.ndarray,
    cfg: SignalConfig = SignalConfig(),
    steps: list[StepEvent] | None = None,
) -> list[DoorOpenEvent]:
    """Door-opening events: low-amplitude wiggle windows free of steps.

    A window of length door_window qualifies when its peak |a| sits in
    [door_hi, step_hi), it contains at least door_min_zero_crossings swings
    between the band edges (from <= door_lo to >= door_hi, or back; see
    _zero_crossing_flags), and no step event, in any order, falls inside it.
    All windows are tested at once from prefix counts; a NaN fails the peak
    test. Overlapping qualifying windows merge into a single event.
    """
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    n = len(a)
    if n < 2:
        return []
    step_times = [s.t for s in steps or []]
    # Per-sample step counts: left[j] steps at or before t[j], right[j] steps before t[j].
    left, right = (np.bincount(t.searchsorted(step_times, s), minlength=n + 1).cumsum() for s in ("left", "right"))

    crossings = _zero_crossing_flags(a, cfg.door_lo, cfg.door_hi)
    crossing_prefix = np.concatenate([[0], np.cumsum(crossings)])

    # Window [i, ends[i]) per start index i; only full-length windows, which
    # are a prefix of the starts because t + door_window never decreases.
    window_end = t + cfg.door_window
    m = int(np.count_nonzero(window_end <= t[-1]))
    ends = np.searchsorted(t, window_end[:m], side="right")

    # The peak |a| is in [door_hi, step_hi) iff the window holds a sample at or
    # above door_hi and none that is not below step_hi (a NaN is one of those).
    abs_a = np.abs(a)
    reach = np.concatenate([[0], np.cumsum(abs_a >= cfg.door_hi)])
    over = np.concatenate([[0], np.cumsum(~(abs_a < cfg.step_hi))])
    ok = (reach[ends] > reach[:m]) & (over[ends] == over[:m])
    ok &= crossing_prefix[ends - 1] - crossing_prefix[:m] >= cfg.door_min_zero_crossings
    ok &= left[ends - 1] == right[:m]  # no step in [t[i], t[ends[i] - 1]]
    qualifying = np.flatnonzero(ok)
    if len(qualifying) == 0:
        return []

    # Overlapping windows merge: a start opens a new event only after the
    # previous window has ended.
    t_start = t[qualifying]
    t_end = t_start + cfg.door_window
    first = np.flatnonzero(np.concatenate([[True], t_start[1:] > t_end[:-1]]))
    last = np.append(first[1:], len(qualifying)) - 1
    zero_crossings = crossing_prefix[ends[qualifying[last]] - 1] - crossing_prefix[qualifying[first]]
    return [
        DoorOpenEvent(t_start=ts, t_end=te, zero_crossings=zc)
        for ts, te, zc in zip(t_start[first].tolist(), t_end[last].tolist(), zero_crossings.tolist())
    ]
