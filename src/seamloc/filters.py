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


MAX_PARTICLES = 10**6  # PfConfig refuses more before any array is made; the growth benchmarks stop at 10**4


@dataclass(frozen=True)
class PfConfig:
    particle_count: int = 1000
    step_sigma: float = 0.1
    heading_sigma: float = 0.087  # ~5 degrees
    init_sigma: float = 0.5
    resample_threshold: float = 0.5  # fraction of particle_count

    def __post_init__(self):
        if not 1 <= self.particle_count <= MAX_PARTICLES:
            raise InvalidParameterError(f"particle_count must be in [1, {MAX_PARTICLES}], got {self.particle_count}")
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
    heading + N(0, heading_sigma^2). The 2N normals come from one draw of
    the set's own stream, lengths first: the same numbers, and the same
    generator state after the call, as two normal(0, sigma, N) draws.
    Movements that cross a wall zero the particle's weight; weights
    renormalize, and systematic resampling fires when the effective sample
    size drops below the configured fraction.

    Raises FilterDivergenceError when every particle crossed a wall; the
    caller re-initializes via pf_init at the last valid estimate.
    """
    n = len(pset)
    z = pset.rng.standard_normal(2 * n)
    # normal(0, s, n) is 0.0 + s * z, and L + (0.0 + s * z) has the bits of
    # s * z + (L + 0.0), where L + 0.0 turns a heading of -0.0 into 0.0 and
    # leaves the step length, which is positive, as it is.
    lengths = cfg.step_sigma * z[:n] + pdr_cfg.step_length
    headings = cfg.heading_sigma * z[n:] + (heading + 0.0)
    moved = np.empty((n, 2))
    np.multiply(lengths, np.cos(headings), out=moved[:, 0])
    np.multiply(lengths, np.sin(headings), out=moved[:, 1])
    moved += pset.positions

    weights = np.where(_segments_cross(pset.positions, moved, plan.wall_array()), 0.0, pset.weights)

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


def kf_init(heading: float) -> HeadingKfState:
    """Kalman state at a known heading, zero gyro bias, and prior covariance
    diag(0.25 rad^2, 0.0025 (rad/s)^2)."""
    return HeadingKfState(heading=wrap_angle(heading), gyro_bias=0.0, covariance=np.diag([0.25, 0.0025]))


def mag_headings(mag_xy, declination: float) -> list[float | None]:
    """wrap_angle(atan2(-my, mx) + declination) of each (mx, my) row, or None
    under 1 microtesla of horizontal field or where that heading is NaN.
    math.atan2 and math.hypot, unlike their numpy forms, give the scalar
    formula's bits; only entries outside (-pi, pi] pay a wrap_angle call."""
    m = np.asarray(mag_xy, dtype=float).reshape(-1, 2)
    mx, my, n = m[:, 0].tolist(), m[:, 1].tolist(), len(m)
    z = np.fromiter(map(math.atan2, (-m[:, 1]).tolist(), mx), float, n) + declination
    out = ~((z > -math.pi) & (z <= math.pi))
    z[out] = list(map(wrap_angle, z[out].tolist()))
    unusable = (np.fromiter(map(math.hypot, mx, my), float, n) < 1.0) | np.isnan(z)
    z = z.tolist()
    for i in np.flatnonzero(unusable).tolist():
        z[i] = None
    return z


def mag_heading(sample: ImuSample, cfg: KfConfig = KfConfig()) -> float:
    """Heading from the horizontal magnetometer components.

    Raises UnreliableMeasurementError when the horizontal field is under
    1 microtesla; the caller skips the Kalman update.
    """
    mx, my, _ = sample.mag
    (z,) = mag_headings([mx, my], cfg.declination)
    if z is None:
        raise UnreliableMeasurementError(f"horizontal field {math.hypot(mx, my):.3g} uT")
    return z


def kf_predict(state: HeadingKfState, gyro_yaw_rate: float, dt: float, cfg: KfConfig) -> HeadingKfState:
    """Propagate heading by the bias-corrected gyro rate; grow covariance."""
    if dt <= 0:
        raise InvalidParameterError(f"dt must be positive, got {dt}")
    return kf_run(state, (gyro_yaw_rate,), (dt,), (None,), 0, 1, cfg)


def kf_update(state: HeadingKfState, measured_heading: float, cfg: KfConfig) -> HeadingKfState:
    """Measurement update with H = [1, 0] and wrapped innovation."""
    return kf_run(state, (0.0,), (0.0,), (measured_heading,), 0, 1, cfg)


def kf_run(state: HeadingKfState, rates, dts, z, i0: int, i1: int, cfg: KfConfig) -> HeadingKfState:
    """For each i in range(i0, i1), predict with rates[i] over dts[i], then update
    with the heading z[i] unless it is None (lists of Python floats). An empty
    range returns state itself. Predict: x' = x + (rate - b) dt, P' = F P F^T + Q,
    F = [[1, -dt], [0, 1]], Q = diag(q_heading, q_bias) dt; a dt of 0 skips it, and
    kf_update is one such interval. Update: H = [1, 0], wrapped innovation, Joseph form
    (I - KH) P (I - KH)^T + r K K^T, symmetrised; an infinite r_mag skips it.
    Each line writes a 2x2 product on five floats out in its order of operations.
    """
    if i1 <= i0:
        return state
    h, b, p = state.heading, state.gyro_bias, state.covariance
    p00, p01, p11 = float(p[0, 0]), float(p[0, 1]), float(p[1, 1])
    qh, qb, r = cfg.q_heading, cfg.q_bias, cfg.r_mag
    zs = z[i0:i1] if math.isfinite(r) else [None] * (i1 - i0)
    lo, hi = -math.pi, math.pi
    for rate, dt, zi in zip(rates[i0:i1], dts[i0:i1], zs):
        if dt:
            fp01 = p01 - dt * p11  # row 0 of F P, column 1
            p00, p01, p11 = p00 - dt * p01 - dt * fp01 + qh * dt, fp01, p11 + qb * dt
            h = h + (rate - b) * dt
            if not lo < h <= hi:
                h = wrap_angle(h)
        if zi is not None:
            e = zi - h
            if not lo < e <= hi:
                e = wrap_angle(e)
            s = p00 + r
            k0, k1 = p00 / s, p01 / s
            g = 1.0 - k0
            a00, a01, a10, a11 = g * p00, g * p01, p01 - k1 * p00, p11 - k1 * p01  # (I - KH) P
            h, b = h + k0 * e, b + k1 * e
            if not lo < h <= hi:
                h = wrap_angle(h)
            p00, p11 = a00 * g + r * (k0 * k0), a11 - k1 * a10 + r * (k1 * k1)
            p01 = 0.5 * ((a01 - k1 * a00 + r * (k0 * k1)) + (a10 * g + r * (k1 * k0)))
    return HeadingKfState(heading=h, gyro_bias=b, covariance=np.array([[p00, p01], [p01, p11]]))
