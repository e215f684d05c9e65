"""Correction back-ends: indoor map-constrained particle filter and outdoor
gyro+magnetometer heading Kalman filter.

The particle filter tracks position only; heading comes from dead reckoning.
Particles whose per-step movement would cross a wall get weight zero, which
is what actually corrects the track indoors. Outdoors there are no obstacles,
so a two-state Kalman filter [heading, gyro_bias] fuses the gyro rate with
magnetometer heading instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FilterDivergenceError, InvalidParameterError, UnreliableMeasurementError
from .geometry import FloorPlan, Point2, _segments_cross
from .pdr import PdrConfig, Pose, wrap_angle
from .signal import ImuSample


@dataclass
class ParticleSet:
    """Weighted particle cloud; carries its own RNG stream for determinism."""

    positions: np.ndarray  # (N, 2)
    weights: np.ndarray  # (N,), sums to 1
    rng: np.random.Generator

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class PfConfig:
    particle_count: int = 1000
    step_sigma: float = 0.1
    heading_sigma: float = 0.087  # ~5 degrees
    init_sigma: float = 0.5
    resample_threshold: float = 0.5  # fraction of particle_count

    def __post_init__(self):
        if self.particle_count < 1:
            raise InvalidParameterError("particle_count must be >= 1")
        if min(self.step_sigma, self.heading_sigma, self.init_sigma) < 0:
            raise InvalidParameterError("noise sigmas must be non-negative")
        if not 0 < self.resample_threshold <= 1:
            raise InvalidParameterError("resample_threshold must be in (0, 1]")


def pf_init(pose0: Pose, cfg: PfConfig, seed: int = 0) -> ParticleSet:
    """Fresh particle cloud around pose0: isotropic Gaussian, uniform weights."""
    rng = np.random.default_rng(seed)
    center = np.array([pose0.position.x, pose0.position.y])
    positions = center + rng.normal(0.0, cfg.init_sigma, size=(cfg.particle_count, 2))
    weights = np.full(cfg.particle_count, 1.0 / cfg.particle_count)
    return ParticleSet(positions=positions, weights=weights, rng=rng)


def _systematic_resample(pset: ParticleSet) -> None:
    n = len(pset)
    u0 = pset.rng.uniform(0.0, 1.0 / n)
    points = u0 + np.arange(n) / n
    cumulative = np.cumsum(pset.weights)
    cumulative[-1] = 1.0
    idx = np.searchsorted(cumulative, points)
    pset.positions = pset.positions[idx]
    pset.weights = np.full(n, 1.0 / n)


def pf_step(
    pset: ParticleSet,
    heading: float,
    cfg: PfConfig,
    pdr_cfg: PdrConfig,
    plan: FloorPlan,
) -> tuple[ParticleSet, Point2]:
    """Advance the cloud one step and return (updated set, position estimate).

    Each particle moves step_length + N(0, step_sigma^2) along
    heading + N(0, heading_sigma^2). Movements that cross a wall zero the
    particle's weight; weights renormalize, and systematic resampling fires
    when the effective sample size drops below the configured fraction.

    Raises FilterDivergenceError when every particle crossed a wall; the
    caller re-initializes via pf_init at the last valid estimate.
    """
    n = len(pset)
    lengths = pdr_cfg.step_length + pset.rng.normal(0.0, cfg.step_sigma, n)
    headings = heading + pset.rng.normal(0.0, cfg.heading_sigma, n)
    moved = pset.positions + np.column_stack(
        [lengths * np.cos(headings), lengths * np.sin(headings)]
    )

    weights = pset.weights.copy()
    walls = plan.wall_array()
    if walls.shape[0]:
        weights[_segments_cross(pset.positions, moved, walls)] = 0.0

    total = weights.sum()
    if total <= 0.0:
        raise FilterDivergenceError("every particle crossed a wall")
    weights /= total
    estimate = Point2(float(weights @ moved[:, 0]), float(weights @ moved[:, 1]))

    out = ParticleSet(positions=moved, weights=weights, rng=pset.rng)
    ess = 1.0 / float(np.sum(weights**2))
    if ess < cfg.resample_threshold * n:
        _systematic_resample(out)
    return out, estimate


@dataclass
class HeadingKfState:
    heading: float  # radians, wrapped
    gyro_bias: float  # rad/s
    covariance: np.ndarray  # 2x2 symmetric PSD


@dataclass(frozen=True)
class KfConfig:
    q_heading: float = 1e-3  # rad^2/s
    q_bias: float = 1e-6  # (rad/s)^2/s
    r_mag: float = 0.05  # rad^2
    declination: float = 0.0

    def __post_init__(self):
        if min(self.q_heading, self.q_bias) <= 0 or self.r_mag <= 0:
            raise InvalidParameterError("noise terms must be positive")


def kf_init(heading: float, heading_var: float = 0.25, bias_var: float = 0.0025) -> HeadingKfState:
    """Kalman state at a known heading with default prior uncertainty."""
    return HeadingKfState(
        heading=wrap_angle(heading),
        gyro_bias=0.0,
        covariance=np.diag([heading_var, bias_var]),
    )


def _mag_z(mx: float, my: float, declination: float) -> float | None:
    """Heading from the horizontal field, or None under 1 microtesla."""
    if math.hypot(mx, my) < 1.0:
        return None
    return wrap_angle(math.atan2(-my, mx) + declination)


def mag_heading(sample: ImuSample, cfg: KfConfig = KfConfig()) -> float:
    """Heading from the horizontal magnetometer components.

    Raises UnreliableMeasurementError when the horizontal field is under
    1 microtesla; the caller skips the Kalman update.
    """
    mx, my, _ = sample.mag
    z = _mag_z(mx, my, cfg.declination)
    if z is None:
        raise UnreliableMeasurementError(f"horizontal field {math.hypot(mx, my):.3g} uT")
    return z


# The KF algebra on five floats: heading, bias, p00, p01 (== p10), p11. Each
# line is the 2x2 matrix product written out in its order of operations.
def _predict(h, b, p00, p01, p11, rate, dt, q_heading, q_bias):
    """x' = x + (rate - b) dt; P' = F P F^T + Q with F = [[1, -dt], [0, 1]]."""
    fp01 = p01 - dt * p11  # row 0 of F P, column 1
    p00 = p00 - dt * p01 - dt * fp01 + q_heading * dt
    return wrap_angle(h + (rate - b) * dt), b, p00, fp01, p11 + q_bias * dt


def _update(h, b, p00, p01, p11, z, r):
    """H = [1, 0], wrapped innovation; Joseph form (I-KH) P (I-KH)^T + r K K^T."""
    innovation = wrap_angle(z - h)
    s = p00 + r
    k0, k1 = p00 / s, p01 / s
    g = 1.0 - k0
    a00, a01 = g * p00, g * p01  # rows of (I - KH) P
    a10, a11 = p01 - k1 * p00, p11 - k1 * p01
    return (
        wrap_angle(h + k0 * innovation),
        b + k1 * innovation,
        a00 * g + r * (k0 * k0),
        0.5 * ((a01 - k1 * a00 + r * (k0 * k1)) + (a10 * g + r * (k1 * k0))),
        a11 - k1 * a10 + r * (k1 * k1),
    )


def _unpack(state: HeadingKfState):
    p = state.covariance
    return state.heading, state.gyro_bias, float(p[0, 0]), float(p[0, 1]), float(p[1, 1])


def _pack(h, b, p00, p01, p11) -> HeadingKfState:
    return HeadingKfState(heading=h, gyro_bias=b, covariance=np.array([[p00, p01], [p01, p11]]))


def kf_predict(state: HeadingKfState, gyro_yaw_rate: float, dt: float, cfg: KfConfig) -> HeadingKfState:
    """Propagate heading by the bias-corrected gyro rate; grow covariance."""
    if dt <= 0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    return _pack(*_predict(*_unpack(state), gyro_yaw_rate, dt, cfg.q_heading, cfg.q_bias))


def kf_update(state: HeadingKfState, measured_heading: float, cfg: KfConfig) -> HeadingKfState:
    """Measurement update with H = [1, 0] and wrapped innovation."""
    if not math.isfinite(cfg.r_mag):
        return state  # uninformative measurement
    return _pack(*_update(*_unpack(state), measured_heading, cfg.r_mag))


def kf_run(state: HeadingKfState, rates, dts, z, i0: int, i1: int, cfg: KfConfig) -> HeadingKfState:
    """kf_predict with rates[i], dts[i], then kf_update with z[i] unless it
    is None, for each i in range(i0, i1). The sequences hold Python floats;
    every dt must be positive."""
    x = _unpack(state)
    qh, qb = cfg.q_heading, cfg.q_bias
    r = cfg.r_mag if math.isfinite(cfg.r_mag) else None
    for rate, dt, zi in zip(rates[i0:i1], dts[i0:i1], z[i0:i1]):
        x = _predict(*x, rate, dt, qh, qb)
        if zi is not None and r is not None:
            x = _update(*x, zi, r)
    return _pack(*x) if i1 > i0 else state
