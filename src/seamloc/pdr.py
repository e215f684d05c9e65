"""Step-and-heading dead reckoning with gyro-integrated heading."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError
from .geometry import Point2
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
        if self.step_length <= 0:
            raise InvalidParameterError(f"step_length must be positive, got {self.step_length}")


def propagate_step(pose: Pose, cfg: PdrConfig) -> Pose:
    """Advance one fixed-length step along the current heading."""
    return Pose(
        position=Point2(
            pose.position.x + cfg.step_length * math.cos(pose.heading),
            pose.position.y + cfg.step_length * math.sin(pose.heading),
        ),
        heading=pose.heading,
    )


def heading_series(trace: Trace, cfg: PdrConfig) -> np.ndarray:
    """Heading at every sample: trapezoidal integration of the gyro z axis (vertical).

    Integration runs unwrapped (exact cumulative angle); callers wrap when
    presenting a heading.
    """
    omega = trace.gyro[:, 2]
    psi = np.empty(len(trace))
    if len(trace) == 0:
        return psi
    psi[0] = cfg.initial_pose.heading
    if len(trace) > 1:
        dt = np.diff(trace.t)
        increments = 0.5 * (omega[:-1] + omega[1:]) * dt
        psi[1:] = psi[0] + np.cumsum(increments)
    return psi


def run_pdr(trace: Trace, steps: list[StepEvent], cfg: PdrConfig) -> list[Pose]:
    """Dead-reckoned pose at each step event.

    Heading is integrated across all samples; each step advances the position
    by step_length along the heading at the step's timestamp.
    """
    psi = heading_series(trace, cfg)
    poses: list[Pose] = []
    pose = cfg.initial_pose
    for step in steps:
        i = int(np.searchsorted(trace.t, step.t, side="right")) - 1
        i = max(i, 0)
        pose = propagate_step(Pose(pose.position, wrap_angle(psi[i])), cfg)
        poses.append(pose)
    return poses
