import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from seamloc import (
    NoiseModel,
    PdrConfig,
    Point2,
    Pose,
    Trace,
    WalkScript,
    detect_steps,
    generate_walk,
    normalized_series,
    run_pdr,
    wrap_angle,
)
from seamloc.pdr import propagate_step


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
        n = int(duration * fs)
        t = np.arange(n) / fs
        trace = Trace(
            t=t,
            accel=np.column_stack([np.zeros(n), np.zeros(n), np.full(n, 9.81)]),
            gyro=np.column_stack([np.zeros(n), np.zeros(n), np.full(n, bias)]),
            mag=np.column_stack([np.full(n, 22.0), np.zeros(n), np.full(n, -43.0)]),
        )
        from seamloc.pdr import heading_series

        psi = heading_series(trace, PdrConfig(initial_pose=Pose(Point2(0, 0), 0.0)))
        assert abs(psi[-1] - bias * t[-1]) < 1e-9

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
