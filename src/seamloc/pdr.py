"""Step-and-heading dead reckoning with gyro-integrated heading."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .geometry import CONFIG_LIMIT, Point2
from .signal import StepEvent, Trace

TWO_PI = 2.0 * math.pi


def wrap_angle(angle: float) -> float:
    """Wrap to (-pi, pi]; angles already in range pass through unchanged, and NaN or infinity gives NaN."""
    if -math.pi < angle <= math.pi:
        return angle
    wrapped = math.pi - (math.pi - angle) % TWO_PI
    return wrapped if not wrapped <= -math.pi else math.pi  # the modulo rounds up to 2 pi just above pi


@dataclass(frozen=True)
class Pose:
    position: Point2
    heading: float  # radians, CCW from +x, in (-pi, pi]


@dataclass(frozen=True)
class PdrConfig:
    step_length: float = 0.75
    initial_pose: Pose = field(default_factory=lambda: Pose(Point2(0.0, 0.0), 0.0))

    def __post_init__(self):
        if not 0 < self.step_length <= CONFIG_LIMIT:
            raise InvalidParameterError(f"step_length must be in (0, {CONFIG_LIMIT:g}], got {self.step_length}")


def propagate_step(pose: Pose, cfg: PdrConfig) -> Pose:
    """Advance one fixed-length step along the current heading."""
    p, step, heading = pose.position, cfg.step_length, pose.heading
    return Pose(Point2(p.x + step * math.cos(heading), p.y + step * math.sin(heading)), heading)


def integrate_heading(heading: float, increments: list[float], i0: int, i1: int) -> float:
    """heading plus the gyro yaw increments[i0:i1], added one at a time and
    wrapped only when the sum leaves (-pi, pi], so it never overflows."""
    for inc in increments[i0:i1]:
        heading += inc
        if not -math.pi < heading <= math.pi:
            heading = wrap_angle(heading)
    return heading


def step_samples(trace: Trace, steps: list[StepEvent]) -> list[int]:
    """Index of the last sample at or before each step (0 for a step before the first sample)."""
    return np.maximum(np.searchsorted(trace.t, [s.t for s in steps], side="right") - 1, 0).tolist()


def heading_series(trace: Trace, cfg: PdrConfig) -> np.ndarray:
    """Heading at every sample, in (-pi, pi]: integrate_heading over one interval at a time."""
    increments = trace.yaw_increments()[2].tolist()
    psi = [wrap_angle(cfg.initial_pose.heading)] if len(trace) else []
    for i in range(len(increments)):
        psi.append(integrate_heading(psi[-1], increments, i, i + 1))
    return np.array(psi)


def run_pdr(trace: Trace, steps: list[StepEvent], cfg: PdrConfig) -> list[Pose]:
    """Dead-reckoned pose at each step, steps in time order: the heading runs through
    integrate_heading to the step's sample, and the step advances step_length along it."""
    increments, samples = trace.yaw_increments()[2].tolist(), step_samples(trace, steps)
    pose = Pose(cfg.initial_pose.position, wrap_angle(cfg.initial_pose.heading))
    poses: list[Pose] = []
    for i0, i1 in zip([0, *samples], samples):
        pose = propagate_step(Pose(pose.position, integrate_heading(pose.heading, increments, i0, i1)), cfg)
        poses.append(pose)
    return poses
