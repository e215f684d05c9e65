import dataclasses
import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seamloc import (
    CALIBRATED_NOISE,
    DoorOpenEvent,
    ImuSample,
    StepEvent,
    InvalidParameterError,
    Point2,
    SignalConfig,
    WalkScript,
    crossing_script,
    detect_door_openings,
    detect_steps,
    generate_walk,
    normalize_accel,
    normalized_series,
    two_building_plan,
)
from seamloc.errors import InvariantViolation
from seamloc.signal import Trace, _zero_crossing_flags

CFG = SignalConfig()


def make_sample(ax, ay, az):
    return ImuSample(t=0.0, accel=(ax, ay, az), gyro=(0, 0, 0), mag=(22, 0, -43))


def sinusoid(amplitude, period=0.5, duration=5.0, fs=100.0):
    t = np.arange(0.0, duration, 1.0 / fs)
    return t, amplitude * np.sin(2 * np.pi * t / period)


def excursion_count_oracle(a, hi, lo):
    """Independent step oracle: count hi-then-lo threshold excursions."""
    count = 0
    armed = False
    for v in a:
        if not armed and v >= hi:
            armed = True
        elif armed and v <= lo:
            count += 1
            armed = False
    return count


class TestNormalizeAccel:
    def test_at_rest(self):
        assert abs(normalize_accel(make_sample(0, 0, 9.81), CFG)) < 1e-12

    def test_free_fall(self):
        assert abs(normalize_accel(make_sample(0, 0, 0), CFG) + 9.81) < 1e-12

    def test_three_four_five(self):
        assert abs(normalize_accel(make_sample(3, 4, 0), CFG) + 4.81) < 1e-12


# Its squares sum to 1 + 2^-52 left to right and to 1 right to left.
ORDER_ROW = (1.0, 2**-26.5, 2**-26.5)
accel_value = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2**-26.5, -(2**-26.5), 9.81, 5e-324]) | st.floats(-1e150, 1e150)


@st.composite
def accel_rows(draw):
    row = st.tuples(accel_value, accel_value, accel_value) | st.permutations(ORDER_ROW).map(tuple)
    return np.array(draw(st.lists(row, max_size=40)), dtype=float).reshape(-1, 3)


def trace_with_accel(accel, layout):
    """A trace whose accel array has the given memory layout: "C", "fortran", or "strided",
    the column view that load_trace takes of its (n, 10) table."""
    n = len(accel)
    if layout == "strided":
        data = np.zeros((n, 10))
        data[:, 1:4] = accel
        accel = data[:, 1:4]
    elif layout == "fortran":
        accel = np.asfortranarray(accel)
    trace = Trace(t=np.arange(n) * 0.01, accel=accel, gyro=np.zeros((n, 3)), mag=np.ones((n, 3)))
    assert trace.accel.flags.c_contiguous == (layout == "C" or n < 2)  # the trace keeps the layout
    return trace


class TestNormalizedSeriesOracle:
    """normalized_series has the bits of np.linalg.norm(accel, axis=1) - g."""

    @settings(max_examples=200, deadline=None)
    @given(accel_rows(), st.sampled_from(["C", "fortran", "strided"]), st.sampled_from([9.81, 1.0]) | st.floats(1e-3, 20.0))
    def test_matches_linalg_norm(self, accel, layout, g):
        trace = trace_with_accel(accel, layout)
        t, a = normalized_series(trace, SignalConfig(g=g))
        assert t is trace.t
        assert a.tobytes() == (np.linalg.norm(trace.accel, axis=1) - g).tobytes()

    @pytest.mark.parametrize("layout", ["C", "fortran", "strided"])
    def test_squares_summed_left_to_right(self, layout):
        x2 = ORDER_ROW[1] * ORDER_ROW[1]
        assert math.sqrt((1.0 + x2) + x2).hex() == "0x1.0000000000001p+0"
        assert math.sqrt(1.0 + (x2 + x2)).hex() == "0x1.0000000000000p+0"
        trace = trace_with_accel(np.array([ORDER_ROW, ORDER_ROW[::-1]]), layout)
        assert normalized_series(trace, SignalConfig(g=1.0))[1].tolist() == [2.0**-52, 0.0]


# Rows whose squared norm sits at the float limit: sqrt(w * max) per axis for Dirichlet(1, 1, 1) weights w.
# Near it the order of the sum decides whether it overflows.
EDGE_REFUSED = (6.519186188128723e153, 1.0117508093489196e154, 5.9080923240013664e153)
EDGE_ACCEPTED = (7.95658427630762e153, 1.0752255955300567e154, 9.22535642644458e152)


@st.composite
def overflow_edge_rows(draw):
    exponential = [-math.log(draw(st.floats(2**-53, 1.0, exclude_max=True))) for _ in range(3)]
    signs = draw(st.tuples(*[st.sampled_from([1.0, -1.0])] * 3))
    return tuple(s * math.sqrt(e / sum(exponential) * sys.float_info.max) for s, e in zip(signs, exponential))


class TestAccelNormRule:
    """Trace refuses a row exactly when normalized_series, which roots the same sum, would overflow on it."""

    @settings(max_examples=300, deadline=None)
    @given(overflow_edge_rows())
    @example(EDGE_REFUSED)
    @example(EDGE_ACCEPTED)
    def test_trace_accepts_a_row_iff_its_normalized_value_is_finite(self, row):
        columns = dict(t=[0.0], gyro=[[0.0, 0.0, 0.0]], mag=[[22.0, 0.0, -43.0]])
        unchecked = Trace(accel=[[0.0, 0.0, 9.81]], **columns)
        unchecked.accel = np.array([row])  # set after the checks: what normalized_series would see
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                finite = bool(np.isfinite(normalized_series(unchecked)[1]).all())
            except RuntimeWarning:
                finite = False
        try:
            Trace(accel=[row], **columns)
            accepted = True
        except InvariantViolation as exc:
            assert (exc.invariant, exc.record) == ("trace-accel-norm-finite", (None, 0))
            accepted = False
        assert accepted == finite


class TestDetectSteps:
    def test_ten_cycles_ten_steps(self):
        t, a = sinusoid(2.0)
        events = detect_steps(t, a, CFG)
        assert len(events) == 10
        assert len(events) == excursion_count_oracle(a, CFG.step_hi, CFG.step_lo)

    def test_constant_zero_no_steps(self):
        t = np.arange(0, 3, 0.01)
        assert detect_steps(t, np.zeros_like(t), CFG) == []

    def test_subthreshold_amplitude_no_steps(self):
        t, a = sinusoid(0.7)
        assert detect_steps(t, a, CFG) == []

    def test_empty_input(self):
        assert detect_steps(np.array([]), np.array([]), CFG) == []

    def test_time_shift_invariance(self):
        t, a = sinusoid(2.0)
        assert len(detect_steps(t, a, CFG)) == len(detect_steps(t + 1234.5, a, CFG))

    def test_amplitude_scaling_invariance(self):
        t, a = sinusoid(1.0)
        counts = {len(detect_steps(t, k * a, CFG)) for k in (2.0, 2.5, 3.0, 3.5, 4.0)}
        assert counts == {10}

    def test_refractory_spacing(self):
        # 0.2 s cycles would fire every 0.2 s without the refractory hold-off.
        t, a = sinusoid(2.0, period=0.2, duration=4.0)
        events = detect_steps(t, a, CFG)
        gaps = np.diff([e.t for e in events])
        assert np.all(gaps >= CFG.step_refractory)

    def test_events_ordered_with_peaks(self):
        t, a = sinusoid(2.0)
        events = detect_steps(t, a, CFG)
        assert all(e.index == i for i, e in enumerate(events))
        assert all(abs(e.peak) >= CFG.step_hi for e in events)
        assert np.all(np.diff([e.t for e in events]) > 0)


def step_loop_oracle(t, a, cfg=CFG):
    """Reference step detector: the per-sample state machine."""
    t, a = np.asarray(t, dtype=float).tolist(), np.asarray(a, dtype=float).tolist()
    events = []
    armed = saw_zero = False
    peak = peak_t = 0.0
    for i, v in enumerate(a):
        if not armed:
            if v >= cfg.step_hi:
                armed, saw_zero, peak, peak_t = True, False, v, t[i]
            continue
        if v > peak:
            peak, peak_t = v, t[i]
        if not saw_zero and i > 0 and a[i - 1] > 0.0 >= v:
            saw_zero = True
        if saw_zero and v <= cfg.step_lo:
            if not events or peak_t - events[-1].t >= cfg.step_refractory:
                events.append(StepEvent(index=len(events), t=peak_t, peak=peak))
            armed = False
    return events


def assert_steps_match_oracle(t, a, cfg=CFG):
    got = detect_steps(t, a, cfg)
    want = step_loop_oracle(t, a, cfg)
    assert got == want
    for e in got:
        assert type(e.index) is int and type(e.t) is float and type(e.peak) is float
    return got


# Values around both thresholds of the default and the custom configurations:
# repeated peaks, signed zeros, NaN and infinities.
step_level = st.sampled_from(
    [0.0, -0.0, 0.3, -0.3, 1.5, -1.5, 2.0, 2.5, -2.0, 3.0, math.nan, math.inf, -math.inf]
) | st.floats(-3.0, 3.0)


@st.composite
def step_series(draw):
    n = draw(st.integers(0, 150))
    gaps = draw(st.lists(st.sampled_from([0.01, 0.05, 0.1]) | st.floats(0.001, 0.5), min_size=n, max_size=n))
    t = np.cumsum(gaps) + draw(st.floats(0.0, 100.0))
    a = np.array(draw(st.lists(step_level, min_size=n, max_size=n)), dtype=float)
    hi = draw(st.sampled_from([1.5, 2.0, 0.5, 0.0, -0.25]) | st.floats(-1.0, 3.0))
    gap = draw(st.sampled_from([3.0, 1.0, 0.25]) | st.floats(0.01, 5.0))
    refractory = draw(st.sampled_from([0.3, 0.01]) | st.floats(0.001, 2.0))
    cfg = SignalConfig(
        step_hi=hi, step_lo=hi - gap, door_hi=hi - gap / 3, door_lo=hi - 2 * gap / 3, step_refractory=refractory
    )
    return t, a, cfg


class TestDetectStepsOracle:
    """detect_steps works per gait cycle; the per-sample loop is its reference."""

    @settings(max_examples=300, deadline=None)
    @given(step_series())
    def test_random_series_match_loop(self, series):
        assert_steps_match_oracle(*series)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples(self, n):
        assert assert_steps_match_oracle(np.arange(n) * 0.01, np.full(n, 2.0)) == []

    def test_first_of_tied_peaks(self):
        t = np.arange(6) * 0.1
        (event,) = assert_steps_match_oracle(t, [0.0, 2.0, 1.0, 2.0, -0.5, -2.0])
        assert event.t == t[1] and event.peak == 2.0

    def test_nan_and_infinities(self):
        # NaN never arms, crosses, fires or peaks; +inf is a peak and -inf fires.
        t = np.arange(8) * 0.1
        events = assert_steps_match_oracle(t, [math.nan, 2.0, math.nan, math.inf, -0.5, -math.inf, 2.0, -2.0])
        assert [(e.t, e.peak) for e in events] == [(t[3], math.inf), (t[6], 2.0)]

    def test_simulated_walk_matches_loop(self):
        noise = dataclasses.replace(CALIBRATED_NOISE, seed=3)
        trace, truth = generate_walk(crossing_script(two_building_plan()), noise)
        assert len(assert_steps_match_oracle(*normalized_series(trace))) == truth.step_count


def walking_pause_walking(pause_amplitude=0.8, pause_period=0.4, fs=100.0):
    """Walking bout, 1.5 s door wiggle, walking bout."""
    dt = 1.0 / fs
    walk_t = np.arange(0, 2.0, dt)
    walk = 2.0 * np.sin(2 * np.pi * walk_t / 0.5)
    pause_t = np.arange(0, 1.5, dt)
    pause = pause_amplitude * np.sin(2 * np.pi * pause_t / pause_period)
    a = np.concatenate([walk, pause, walk])
    t = np.arange(len(a)) * dt
    return t, a, (2.0, 3.5)  # pause interval


def door_window_oracle(t, a, cfg, steps):
    """Manual check of the three window conditions over every placement; band
    swings are counted inside the window only."""
    step_times = np.array([s.t for s in steps])
    qualifying = []
    for i in range(len(t)):
        if t[i] + cfg.door_window > t[-1]:
            break
        j = int(np.searchsorted(t, t[i] + cfg.door_window, side="right"))
        window = a[i:j]
        peak = np.abs(window).max()
        if not (cfg.door_hi <= peak < cfg.step_hi):
            continue
        crossings = 0
        prev_sign = 0.0
        for v in window:
            s = 1.0 if v >= cfg.door_hi else -1.0 if v <= cfg.door_lo else 0.0
            if s != 0 and prev_sign != 0 and s != prev_sign:
                crossings += 1
            if s != 0:
                prev_sign = s
        if crossings < cfg.door_min_zero_crossings:
            continue
        if np.any((step_times >= t[i]) & (step_times <= t[j - 1])):
            continue
        qualifying.append((t[i], t[i] + cfg.door_window))
    merged = []
    for lo, hi in qualifying:
        if merged and lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return merged


class TestDetectDoorOpenings:
    def test_single_event_covering_pause(self):
        t, a, (pause_lo, pause_hi) = walking_pause_walking()
        steps = detect_steps(t, a, CFG)
        events = detect_door_openings(t, a, CFG, steps)
        assert len(events) == 1
        ev = events[0]
        assert ev.t_start <= pause_lo and ev.t_end >= pause_hi
        assert ev.zero_crossings >= CFG.door_min_zero_crossings
        oracle = door_window_oracle(t, a, CFG, steps)
        assert len(oracle) == 1
        assert abs(oracle[0][0] - ev.t_start) < 1e-9
        assert abs(oracle[0][1] - ev.t_end) < 1e-9

    def test_continuous_walking_no_events(self):
        t = np.arange(0, 10, 0.01)
        a = 2.0 * np.sin(2 * np.pi * t / 0.5)
        steps = detect_steps(t, a, CFG)
        assert detect_door_openings(t, a, CFG, steps) == []

    def test_complete_stillness_no_events(self):
        t = np.arange(0, 10, 0.01)
        assert detect_door_openings(t, np.zeros_like(t), CFG, []) == []

    def test_event_interval_conditions_hold(self):
        t, a, _ = walking_pause_walking()
        steps = detect_steps(t, a, CFG)
        step_times = np.array([s.t for s in steps])
        for ev in detect_door_openings(t, a, CFG, steps):
            inside = (t >= ev.t_start) & (t <= ev.t_end)
            assert np.abs(a[inside]).max() < CFG.step_hi
            assert not np.any((step_times >= ev.t_start) & (step_times <= ev.t_end))

    def test_subband_wiggle_ignored(self):
        # Amplitude below door_hi never qualifies even with zero crossings.
        t = np.arange(0, 10, 0.01)
        a = 0.3 * np.sin(2 * np.pi * t / 0.4)
        assert detect_door_openings(t, a, CFG, []) == []


def door_loop_oracle(t, a, cfg=CFG, steps=None):
    """Reference door detector: the per-start window loop, merged as it goes."""
    t = np.asarray(t, dtype=float)
    a = np.asarray(a, dtype=float)
    n = len(a)
    if n < 2:
        return []
    step_times = np.array([s.t for s in steps or []])
    crossing_prefix = np.concatenate([[0], np.cumsum(_zero_crossing_flags(a, cfg.door_lo, cfg.door_hi))])
    ends = np.searchsorted(t, t + cfg.door_window, side="right")
    full = t + cfg.door_window <= t[-1]
    abs_a = np.abs(a)
    qualifying = []
    for i in range(n):
        if not full[i]:
            break
        j = ends[i]
        window_max = abs_a[i:j].max()
        if not (cfg.door_hi <= window_max < cfg.step_hi):
            continue
        if crossing_prefix[j - 1] - crossing_prefix[i] < cfg.door_min_zero_crossings:
            continue
        if np.any((t[i] <= step_times) & (step_times <= t[j - 1])):  # steps in any order
            continue
        qualifying.append(i)
    events = []
    for i in qualifying:
        t_start, t_end = t[i], t[i] + cfg.door_window
        if events and t_start <= events[-1].t_end:
            merged_start = events[-1].t_start
            i0 = np.searchsorted(t, merged_start, side="left")
            j1 = np.searchsorted(t, t_end, side="right")
            zc = crossing_prefix[j1 - 1] - crossing_prefix[i0]
            events[-1] = DoorOpenEvent(float(merged_start), float(t_end), int(zc))
        else:
            zc = crossing_prefix[ends[i] - 1] - crossing_prefix[i]
            events.append(DoorOpenEvent(float(t_start), float(t_end), int(zc)))
    return events


def assert_doors_match_oracle(t, a, cfg=CFG, steps=None):
    got = detect_door_openings(t, a, cfg, steps)
    want = door_loop_oracle(t, a, cfg, steps)
    assert got == want
    for ev in got:
        assert type(ev.t_start) is float and type(ev.t_end) is float and type(ev.zero_crossings) is int
    return got


# Sample values around the door band and the step band, exact zeros included.
# NaN and infinities fail a window's peak test, as the loop's NaN-propagating max does.
door_level = st.sampled_from(
    [0.0, 0.3, -0.3, 0.5, -0.5, 0.9, -0.9, 1.49, -1.49, 1.5, -1.6, math.nan, math.inf, -math.inf]
) | st.floats(-1.7, 1.7)


@st.composite
def door_series(draw):
    n = draw(st.integers(0, 120))
    gaps = draw(st.lists(st.sampled_from([0.01, 0.02, 0.05]) | st.floats(0.005, 0.3), min_size=n, max_size=n))
    t = np.cumsum(gaps) + draw(st.floats(0.0, 100.0))
    a = np.array(draw(st.lists(door_level, min_size=n, max_size=n)), dtype=float)
    window = draw(st.sampled_from([0.1, 0.25, 0.5, 1.5]) | st.floats(0.01, 3.0))
    cfg = SignalConfig(door_window=window, door_min_zero_crossings=draw(st.integers(0, 3)))
    picks = sorted(draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=4))) if n else []
    steps = [StepEvent(index=k, t=float(t[i]), peak=2.0) for k, i in enumerate(picks)]
    if draw(st.booleans()):
        steps.append(StepEvent(index=len(steps), t=float(t[-1] + 1.0) if n else 1.0, peak=2.0))
    return t, a, cfg, draw(st.permutations(steps))


class TestDoorOpeningsOracle:
    @settings(max_examples=150, deadline=None)
    @given(door_series())
    def test_random_series_match_loop(self, series):
        t, a, cfg, steps = series
        assert_doors_match_oracle(t, a, cfg, steps)
        assert_doors_match_oracle(t, a, cfg, None)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_samples(self, n):
        t = np.arange(n) * 0.01
        assert assert_doors_match_oracle(t, np.full(n, 0.8)) == []

    def test_trace_shorter_than_window(self):
        t = np.arange(100) * 0.01  # 0.99 s against the 1.5 s window
        a = 0.8 * np.sin(2 * np.pi * t / 0.3)
        assert assert_doors_match_oracle(t, a) == []

    def test_window_ending_on_last_sample(self):
        # Binary-exact times: the window from t[n - 3] ends exactly at t[-1].
        t = np.arange(12) * 0.25
        a = np.array([0.8, -0.8] * 6)
        cfg = SignalConfig(door_window=0.5, door_min_zero_crossings=1)
        events = assert_doors_match_oracle(t, a, cfg)
        assert events and events[-1].t_end == t[-1]

    def test_non_uniform_time_with_steps_inside_windows(self):
        rng = np.random.default_rng(4)
        t = np.cumsum(rng.uniform(0.005, 0.03, 3000))
        a = 0.9 * np.sin(2 * np.pi * t / 0.4) + rng.normal(0.0, 0.2, t.size)
        steps = [StepEvent(index=k, t=float(t[i]), peak=2.0) for k, i in enumerate(range(400, 3000, 700))]
        with_steps = assert_doors_match_oracle(t, a, CFG, steps)
        without = assert_doors_match_oracle(t, a, CFG, [])
        assert 0 < len(without) < len(with_steps)

    def test_walk_with_pause_matches_loop(self):
        t, a, _ = walking_pause_walking()
        assert len(assert_doors_match_oracle(t, a, CFG, detect_steps(t, a, CFG))) == 1

    def test_steps_in_any_order(self):
        # Each step splits the wiggle: steps at 1 s and 8 s leave one opening between and one after.
        t = np.arange(0, 10, 0.01)
        a = 0.8 * np.sin(2 * np.pi * t / 0.4)
        steps = [StepEvent(index=0, t=8.0, peak=2.0), StepEvent(index=1, t=1.0, peak=2.0)]
        got = assert_doors_match_oracle(t, a, CFG, steps)
        assert got == detect_door_openings(t, a, CFG, steps[::-1])
        assert len(got) == 2 and got[0].t_end < 8.0 < got[1].t_start


@st.composite
def stepped_wiggle(draw):
    """A door wiggle, so that the step test decides most windows, with steps on
    sample times, between samples, before the first and after the last sample,
    some repeated, in any order."""
    n = draw(st.integers(0, 150))
    gaps = draw(st.lists(st.sampled_from([0.01, 0.05, 0.25]) | st.floats(0.005, 0.3), min_size=n, max_size=n))
    t = (np.cumsum(gaps) + draw(st.floats(0.0, 100.0))).tolist()
    a = 0.8 * np.sin(2 * np.pi * np.array(t) / draw(st.floats(0.1, 1.0)))
    window = draw(st.sampled_from([0.1, 0.5, 1.5]) | st.floats(0.01, 3.0))
    cfg = SignalConfig(door_window=window, door_min_zero_crossings=draw(st.integers(0, 2)))
    times = []
    for where in draw(st.lists(st.sampled_from(["on", "between", "before", "after"]), max_size=6)):
        if n < 2:
            times.append(draw(st.floats(-10.0, 110.0)))
            continue
        i = draw(st.integers(0, n - 2))
        gap = draw(st.floats(1e-9, 5.0))
        times.append({"on": t[i], "between": 0.5 * (t[i] + t[i + 1]), "before": t[0] - gap, "after": t[-1] + gap}[where])
    if times:
        times += draw(st.lists(st.sampled_from(times), max_size=3))
    steps = [StepEvent(index=k, t=v, peak=2.0) for k, v in enumerate(draw(st.permutations(times)))]
    return np.array(t), a, cfg, steps


class TestDoorStepTestOracle:
    """detect_door_openings' step test, per-sample step counts from searchsorted, frees
    the windows that the reference loop frees, with steps on, between and outside
    sample times."""

    @settings(max_examples=150, deadline=None)
    @given(stepped_wiggle())
    def test_matches_searchsorted_step_test(self, series):
        assert_doors_match_oracle(*series)

    @pytest.mark.parametrize("k", range(12))
    def test_step_on_each_sample_time(self, k):
        t = np.arange(12) * 0.25  # binary-exact: windows of 0.5 s end exactly on samples
        a = np.array([0.8, -0.8] * 6)
        cfg = SignalConfig(door_window=0.5, door_min_zero_crossings=1)
        for steps in ([StepEvent(index=0, t=t[k], peak=2.0)], [StepEvent(index=i, t=t[k], peak=2.0) for i in range(3)]):
            got = assert_doors_match_oracle(t, a, cfg, steps)
            assert got and all(not ev.t_start <= t[k] <= ev.t_end for ev in got)


def schmitt_oracle(a, lo, hi):
    """Independent band-swing counter: a state machine that remembers which
    edge of the band the series last reached; 1 for each interval that ends on
    the other edge."""
    flags, side = [0] * max(len(a) - 1, 0), 0
    for i, v in enumerate(a):
        reached = 1 if v >= hi else -1 if v <= lo else 0
        if reached and side and reached != side:
            flags[i - 1] = 1
        side = reached or side
    return flags


def door_openings_of(script, seed):
    trace, truth = generate_walk(script, dataclasses.replace(CALIBRATED_NOISE, seed=seed))
    t, a = normalized_series(trace)
    steps = detect_steps(t, a)
    return steps, detect_door_openings(t, a, CFG, steps), truth


class TestDoorBand:
    """A door opening needs swings from one edge of the door band to the
    other; noise around zero, as at a plain stop, makes none."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(door_level, max_size=60), st.sampled_from([(-0.5, 0.5), (-0.2, 0.9), (0.0, 1e-9)]))
    def test_flags_match_state_machine(self, values, band):
        a = np.array(values, dtype=float)
        got = _zero_crossing_flags(a, *band)
        assert got.dtype == int and got.tolist() == schmitt_oracle(a, *band)

    @pytest.mark.parametrize(
        "values",
        [
            [],
            [0.5],
            [math.nan],
            [-0.5, 0.5],
            [0.5, -0.5],
            [0.5, 0.5],
            [0.4999999999999999, -0.4999999999999999],
            [math.nan, math.nan, math.nan],
            [-0.5, math.nan, math.nan, 0.5, math.nan, -0.5],
            [math.nan, math.nan, 0.5, 0.0, -0.5, math.nan],
            [0.5, 0.4999999999999999, -0.5, -0.4999999999999999, 0.5],
        ],
    )
    def test_short_nan_and_band_edge_series(self, values):
        a = np.array(values, dtype=float)
        got = _zero_crossing_flags(a, CFG.door_lo, CFG.door_hi)
        assert got.dtype == int and got.shape == (max(len(a) - 1, 0),)
        assert got.tolist() == schmitt_oracle(a, CFG.door_lo, CFG.door_hi)

    def test_noise_inside_the_band_makes_no_swing(self):
        a = np.random.default_rng(0).normal(0.0, 0.05, 500)
        assert np.count_nonzero(np.diff(np.sign(a))) > 100
        assert _zero_crossing_flags(a, CFG.door_lo, CFG.door_hi).sum() == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_plain_stop_is_no_opening(self, seed):
        # A 3 s stop between two walks: accelerometer noise around 0 and the
        # tail of the last step cycle gave two openings under the bare sign rule.
        script = WalkScript(waypoints=(Point2(0, 0), Point2(6, 0), Point2(12, 0)), pauses=((1, 3.0),))
        steps, openings, truth = door_openings_of(script, seed)
        assert len(steps) == truth.step_count
        assert openings == []

    @pytest.mark.parametrize("cadence", [1.0, 1.4])
    def test_slow_walking_is_no_opening(self, cadence):
        script = WalkScript(waypoints=(Point2(0, 0), Point2(12, 0)), cadence=cadence, step_length_true=0.55)
        for seed in range(3):
            steps, openings, truth = door_openings_of(script, seed)
            assert len(steps) == truth.step_count
            assert openings == []

    @pytest.mark.parametrize("seed", range(3))
    def test_door_opened_while_walking_slowly(self, seed):
        script = dataclasses.replace(crossing_script(two_building_plan()), cadence=1.2, step_length_true=0.55)
        steps, openings, truth = door_openings_of(script, seed)
        assert len(steps) == truth.step_count
        assert len(openings) == len(truth.door_open_intervals) == 2
        for ev, (t0, t1) in zip(openings, truth.door_open_intervals):
            assert ev.t_start <= t1 and t0 <= ev.t_end
            assert ev.zero_crossings >= CFG.door_min_zero_crossings


class TestSignalConfig:
    def test_band_ordering_enforced(self):
        with pytest.raises(InvalidParameterError):
            SignalConfig(door_hi=2.0)
        with pytest.raises(InvalidParameterError):
            SignalConfig(door_lo=-2.0)
        with pytest.raises(InvalidParameterError):
            SignalConfig(door_lo=0.5, door_hi=0.5)

    def test_positive_windows(self):
        with pytest.raises(InvalidParameterError):
            SignalConfig(door_window=0.0)
