import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seamloc import (
    NoiseModel,
    PdrConfig,
    Point2,
    Pose,
    StepEvent,
    Trace,
    WalkScript,
    detect_steps,
    generate_walk,
    normalized_series,
    run_pdr,
    wrap_angle,
)
from seamloc.pdr import heading_series, integrate_headings, propagate_step


class TestWrapAngle:
    @pytest.mark.parametrize(
        "angle",
        [math.nextafter(math.pi, 4.0), math.pi + 1e-15, -math.pi, 3 * math.pi, -3 * math.pi, math.nextafter(-math.pi, -4.0)],
    )
    def test_seam_stays_in_range(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert abs(math.remainder(wrapped - angle, 2 * math.pi)) < 1e-12

    @given(st.floats(-1e3, 1e3))
    def test_range_and_equivalence(self, angle):
        wrapped = wrap_angle(angle)
        assert -math.pi < wrapped <= math.pi
        assert abs(math.remainder(wrapped - angle, 2 * math.pi)) < 1e-12

    @pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
    def test_non_finite_gives_nan(self, angle):
        assert math.isnan(wrap_angle(angle))

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @example(math.nextafter(math.pi, 4.0))
    def test_finite_angles_wrap_as_by_the_modulo(self, angle):
        # The reference: the modulo, with its round-up to -pi sent to pi.
        if -math.pi < angle <= math.pi:
            want = angle
        else:
            want = math.pi - (math.pi - angle) % (2 * math.pi)
            want = want if want > -math.pi else math.pi
        assert wrap_angle(angle).hex() == want.hex()


class TestPropagateStep:
    cfg = PdrConfig()

    def test_east_step(self):
        pose = propagate_step(Pose(Point2(0, 0), 0.0), self.cfg)
        assert abs(pose.position.x - 0.75) < 1e-15
        assert abs(pose.position.y) < 1e-15

    def test_north_step(self):
        pose = propagate_step(Pose(Point2(0, 0), math.pi / 2), self.cfg)
        assert abs(pose.position.y - 0.75) < 1e-15

    def test_closed_square(self):
        pose = Pose(Point2(0, 0), 0.0)
        for heading in (0.0, math.pi / 2, math.pi, -math.pi / 2):
            pose = propagate_step(Pose(pose.position, heading), self.cfg)
        assert math.hypot(pose.position.x, pose.position.y) < 1e-12


def gyro_trace(gz, fs):
    n = len(gz)
    zeros = np.zeros(n)
    return Trace(
        t=np.arange(n) / fs,
        accel=np.column_stack([zeros, zeros, zeros + 9.81]),
        gyro=np.column_stack([zeros, zeros, gz]),
        mag=np.column_stack([zeros + 22.0, zeros, zeros - 43.0]),
    )


def square_walk(side=7.5):
    return WalkScript(
        waypoints=(
            Point2(0, 0),
            Point2(side, 0),
            Point2(side, side),
            Point2(0, side),
            Point2(0, 0),
        )
    )


def run_pipeline_pdr(trace, truth, heading_offset=0.0):
    t, a = normalized_series(trace)
    steps = detect_steps(t, a)
    cfg = PdrConfig(
        initial_pose=Pose(truth.initial_position, wrap_angle(truth.initial_heading + heading_offset))
    )
    return steps, run_pdr(trace, steps, cfg)


class TestRunPdr:
    def test_straight_line(self):
        trace, truth = generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(7.5, 0))))
        steps, poses = run_pipeline_pdr(trace, truth)
        assert len(poses) == len(steps) == 10
        assert abs(poses[-1].position.x - 7.5) < 1e-9
        assert abs(poses[-1].position.y) < 1e-9

    def test_rectangular_walk_matches_truth(self):
        trace, truth = generate_walk(square_walk())
        steps, poses = run_pipeline_pdr(trace, truth)
        assert len(poses) == truth.step_count
        err = math.hypot(
            poses[-1].position.x - truth.step_positions[-1, 0],
            poses[-1].position.y - truth.step_positions[-1, 1],
        )
        assert err < 1e-6

    def test_constant_gyro_bias_linear_heading_error(self):
        bias, duration, fs = 0.01, 60.0, 50.0
        trace = gyro_trace(np.full(int(duration * fs), bias), fs)
        psi = heading_series(trace, PdrConfig(initial_pose=Pose(Point2(0, 0), 0.0)))
        assert abs(psi[-1] - bias * trace.t[-1]) < 1e-9

    def test_path_length_exact(self):
        trace, truth = generate_walk(square_walk(), NoiseModel(gyro_sigma=0.01, gyro_bias=0.01, seed=4))
        steps, poses = run_pipeline_pdr(trace, truth)
        length = 0.0
        prev = Point2(0, 0)
        for pose in poses:
            length += math.hypot(pose.position.x - prev.x, pose.position.y - prev.y)
            prev = pose.position
        assert length == pytest.approx(0.75 * len(poses), abs=1e-9)

    def test_initial_heading_rotation_equivariance(self):
        phi = 0.83
        trace, truth = generate_walk(square_walk())
        _, base = run_pipeline_pdr(trace, truth)
        _, rotated = run_pipeline_pdr(trace, truth, heading_offset=phi)
        c, s = math.cos(phi), math.sin(phi)
        for p, q in zip(base, rotated):
            rx = c * p.position.x - s * p.position.y
            ry = s * p.position.x + c * p.position.y
            assert math.hypot(rx - q.position.x, ry - q.position.y) < 1e-9

    def test_headings_always_wrapped(self):
        trace, truth = generate_walk(square_walk(), NoiseModel(gyro_bias=0.3, seed=1))
        _, poses = run_pipeline_pdr(trace, truth)
        for pose in poses:
            assert -math.pi < pose.heading <= math.pi


# ---------------------------------------------------------------------------
# Oracle: dead reckoning by the unwrapped cumulative sum it used before the
# one gyro heading rule (pdr.integrate_headings)
# ---------------------------------------------------------------------------


def cumsum_heading_series(trace, cfg):
    """Heading at every sample, unwrapped: the start heading plus np.cumsum of the yaw increments."""
    psi = np.full(len(trace), cfg.initial_pose.heading, dtype=float)
    psi[1:] += np.cumsum(trace.yaw_increments()[2])
    return psi


def cumsum_run_pdr(trace, steps, cfg):
    """Each step advances along wrap_angle of the cumsum heading at the sample at or before it."""
    psi = cumsum_heading_series(trace, cfg)
    poses = []
    pose = cfg.initial_pose
    for step in steps:
        i = max(int(np.searchsorted(trace.t, step.t, side="right")) - 1, 0)
        pose = propagate_step(Pose(pose.position, wrap_angle(psi[i])), cfg)
        poses.append(pose)
    return poses


@st.composite
def turning_walks(draw):
    """A gyro trace of constant-rate turns (up to 10 rad/s, so the heading
    crosses +/-pi many times), a start heading that may lie outside
    (-pi, pi], and step times in order, some before the first sample,
    between samples or after the last."""
    fs = draw(st.sampled_from([20.0, 50.0, 100.0]))
    turns = draw(st.lists(st.tuples(st.floats(-10.0, 10.0), st.integers(1, 80)), min_size=1, max_size=6))
    gz = np.concatenate([np.full(k, rate) for rate, k in turns])
    start = draw(st.floats(-20.0, 20.0))
    end = (len(gz) - 1) / fs
    times = sorted(draw(st.lists(st.floats(-0.5, end + 0.5), max_size=40)))
    steps = [StepEvent(index=k, t=t, peak=2.0) for k, t in enumerate(times)]
    return gyro_trace(gz, fs), steps, PdrConfig(initial_pose=Pose(Point2(1.0, -2.0), start))


class TestOneHeadingRule:
    @settings(max_examples=150, deadline=None)
    @given(turning_walks())
    def test_heading_series_is_the_wrapped_cumsum(self, walk):
        trace, _, cfg = walk
        got, want = heading_series(trace, cfg), cumsum_heading_series(trace, cfg)
        assert len(got) == len(want) == len(trace)
        for g, w in zip(got.tolist(), want.tolist()):
            assert -math.pi < g <= math.pi
            assert abs(wrap_angle(g - wrap_angle(w))) <= 1e-9  # the angle between them: pi and -pi + 1e-12 are close

    @settings(max_examples=150, deadline=None)
    @given(turning_walks())
    def test_run_pdr_matches_the_cumsum_oracle(self, walk):
        trace, steps, cfg = walk
        got, want = run_pdr(trace, steps, cfg), cumsum_run_pdr(trace, steps, cfg)
        assert len(got) == len(want) == len(steps)
        for g, w in zip(got, want):
            assert -math.pi < g.heading <= math.pi
            assert abs(wrap_angle(g.heading - w.heading)) <= 1e-9
            assert math.hypot(g.position.x - w.position.x, g.position.y - w.position.y) <= 1e-9

    def test_huge_finite_rates_do_not_overflow_the_heading(self):
        # Every increment is finite (1e305 rad), so Trace accepts the trace, but
        # their running sum overflowed np.cumsum with a RuntimeWarning.
        trace = gyro_trace(np.full(3000, 1e307), 100.0)
        psi = heading_series(trace, PdrConfig())
        assert len(psi) == 3000
        assert np.isfinite(psi).all() and ((psi > -math.pi) & (psi <= math.pi)).all()
        steps = [StepEvent(index=k, t=float(t), peak=2.0) for k, t in enumerate(trace.t[::50])]
        poses = run_pdr(trace, steps, PdrConfig())
        assert len(poses) == 60
        for pose in poses:
            assert math.isfinite(pose.position.x) and math.isfinite(pose.position.y)
            assert -math.pi < pose.heading <= math.pi

    def test_empty_trace_has_no_headings(self):
        assert len(heading_series(gyro_trace(np.zeros(0), 100.0), PdrConfig())) == 0


def one_interval(heading, increments, i0, i1):
    """The gyro heading rule over one interval: increments[i0:i1] added one at a time,
    the sum wrapped only when it leaves (-pi, pi]."""
    for inc in increments[i0:i1]:
        heading += inc
        if not -math.pi < heading <= math.pi:
            heading = wrap_angle(heading)
    return heading


@st.composite
def folds(draw):
    """(heading, increments, i0, samples): finite increments up to +/-1e300, a start sample
    i0 that may lie above 0, and sample indices in order from i0, repeats allowed."""
    increments = draw(st.lists(st.floats(-1e300, 1e300), max_size=30))
    i0 = draw(st.integers(0, len(increments)))
    samples = sorted(draw(st.lists(st.integers(i0, len(increments)), max_size=20)))
    return draw(st.floats(-math.pi, math.pi, exclude_min=True)), increments, i0, samples


class TestIntegrateHeadings:
    @settings(max_examples=300, deadline=None)
    @given(folds())
    @example((0.5, [0.1, 0.2, 0.3], 1, []))  # no samples, no headings
    @example((0.5, [0.1, 0.2, 0.3], 1, [2, 2, 3]))  # two steps on one sample
    @example((3.0, [1e300, -1e300, 1e300], 0, [1, 2, 3]))
    @example((math.pi, [0.0, 2.0, 4.0], 0, [0, 0, 3]))
    def test_fold_equals_chained_intervals(self, fold):
        heading, increments, i0, samples = fold
        want, h = [], heading
        for i, i1 in zip([i0, *samples], samples):
            h = one_interval(h, increments, i, i1)
            want.append(h)
        got = integrate_headings(heading, increments, i0, samples)
        assert repr(got) == repr(want)  # the same adds in the same order: the same bits
        for h in got:
            assert -math.pi < h <= math.pi
