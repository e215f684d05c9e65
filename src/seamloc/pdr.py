"""Step-and-heading dead reckoning with gyro-integrated heading."""

from __future__ import annotations

import math
from collections.abc import Iterable
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


def integrate_headings(heading: float, increments: list[float], i0: int, samples: Iterable[int]) -> list[float]:
    """The heading at each of samples (in order, none before i0), starting from heading at
    sample i0: the gyro yaw increments between are added one at a time, and the sum is
    wrapped only when it leaves (-pi, pi], so it never overflows."""
    headings = []
    for i1 in samples:
        for inc in increments[i0:i1]:
            heading += inc
            if not -math.pi < heading <= math.pi:
                heading = wrap_angle(heading)
        headings.append(heading)
        i0 = i1
    return headings


def step_samples(trace: Trace, steps: list[StepEvent]) -> list[int]:
    """Index of the last sample at or before each step (0 for a step before the first sample)."""
    return np.maximum(np.searchsorted(trace.t, [s.t for s in steps], side="right") - 1, 0).tolist()


def heading_series(trace: Trace, cfg: PdrConfig) -> np.ndarray:
    """Heading at every sample, in (-pi, pi]: one integrate_headings fold over them all."""
    increments = trace.yaw_increments()[2].tolist()
    return np.array(integrate_headings(wrap_angle(cfg.initial_pose.heading), increments, 0, range(len(trace))))


def run_pdr(trace: Trace, steps: list[StepEvent], cfg: PdrConfig) -> list[Pose]:
    """Dead-reckoned pose at each step, steps in time order: one integrate_headings fold gives
    the heading at each step's sample, and the step advances step_length along it."""
    increments, samples = trace.yaw_increments()[2].tolist(), step_samples(trace, steps)
    position, poses = cfg.initial_pose.position, []
    for heading in integrate_headings(wrap_angle(cfg.initial_pose.heading), increments, 0, samples):
        poses.append(propagate_step(Pose(position, heading), cfg))
        position = poses[-1].position
    return poses
