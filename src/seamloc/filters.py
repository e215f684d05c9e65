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

from .errors import FilterDivergenceError, InvalidParameterError, InvariantViolation, UnreliableMeasurementError
from .geometry import CONFIG_LIMIT, FloorPlan, Point2, _segments_cross
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
        if not all(0 <= sigma <= CONFIG_LIMIT for sigma in (self.step_sigma, self.heading_sigma, self.init_sigma)):
            raise InvalidParameterError(f"noise sigmas must be in [0, {CONFIG_LIMIT:g}]")
        if not 0 < self.resample_threshold <= 1:
            raise InvalidParameterError("resample_threshold must be in (0, 1]")


def pf_init(pose0: Pose, cfg: PfConfig, seed: int = 0) -> ParticleSet:
    """Fresh particle cloud around pose0's position: isotropic Gaussian, uniform weights.
    Only pose0.position is read: the cloud carries no heading, as each step takes its own."""
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
    """Advance the cloud one step and return (updated set, position estimate): pf_run over one heading."""
    return pf_run(pset, (heading,), cfg, pdr_cfg, plan)[0]


def pf_run(pset: ParticleSet, headings, cfg: PfConfig, pdr_cfg: PdrConfig, plan: FloorPlan) -> list[tuple[ParticleSet, Point2]]:
    """Advance the cloud one step per heading and return each step's (updated set, position estimate).

    Each particle moves step_length + N(0, step_sigma^2) along
    heading + N(0, heading_sigma^2). A step's 2N normals come from one draw of
    the set's own stream, lengths first: the same numbers, and the same
    generator state after, as two normal(0, sigma, N) draws. Movements that
    cross a wall zero the particle's weight; weights renormalize, and
    systematic resampling fires when the effective sample size drops below
    the configured fraction.

    A heading that is not finite, anywhere in the run, raises
    InvalidParameterError before any draw, so the stream stays put. Each pair,
    and the generator state after, is what chained pf_step calls give. The run
    stops after a step that resamples, and before a step where every particle
    crossed a wall; at its first step that raises FilterDivergenceError, and
    the caller re-initializes via pf_init at the last valid estimate. The steps
    share one cos and sin pass and one wall test, which decides each step on
    its own (_segments_cross).
    """
    for heading in headings:
        if not math.isfinite(heading):
            raise InvalidParameterError(f"heading must be finite, got {heading}")
    n, k, rng = len(pset), len(headings), pset.rng
    z, states = np.empty((k, 2 * n)), []
    for row in z:
        rng.standard_normal(out=row)
        states.append(rng.bit_generator.state)
    # normal(0, s, n) is 0.0 + s * z, and L + (0.0 + s * z) has the bits of
    # s * z + (L + 0.0), where L + 0.0 turns a heading of -0.0 into 0.0 and
    # leaves the step length, which is positive, as it is.
    lengths = cfg.step_sigma * z[:, :n] + pdr_cfg.step_length
    angles = cfg.heading_sigma * z[:, n:] + (np.array(headings, dtype=float)[:, None] + 0.0)
    cloud = np.empty((k + 1, n, 2))  # row j + 1: the positions after step j
    cloud[0] = pset.positions
    np.multiply(lengths, np.cos(angles), out=cloud[1:, :, 0])
    np.multiply(lengths, np.sin(angles), out=cloud[1:, :, 1])
    for j in range(k):
        cloud[j + 1] += cloud[j]
    hits = _segments_cross(cloud[:-1].reshape(-1, 2), cloud[1:].reshape(-1, 2), plan.wall_array()).reshape(k, n)

    run, weights = [], pset.weights
    for j, (moved, hit) in enumerate(zip(cloud[1:], hits)):
        weights = np.where(hit, 0.0, weights)
        total = weights.sum()
        if total <= 0.0:
            rng.bit_generator.state = states[max(j - 1, 0)]  # as after the draw of the last step kept, or of this first one
            if not run:
                raise FilterDivergenceError("every particle crossed a wall")
            break
        weights /= total
        out = ParticleSet(positions=moved, weights=weights, rng=rng)
        run.append((out, Point2(float(weights @ moved[:, 0]), float(weights @ moved[:, 1]))))
        if 1.0 / float(np.sum(weights**2)) < cfg.resample_threshold * n:
            rng.bit_generator.state = states[j]
            _systematic_resample(out)
            break
    return run


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
        if not (self.q_heading > 0 and self.q_bias > 0 and self.r_mag > 0):  # r_mag inf: no magnetometer
            raise InvalidParameterError("noise terms must be positive")
        if not math.isfinite(self.declination):
            raise InvalidParameterError(f"declination must be finite, got {self.declination}")


def kf_init(heading: float) -> HeadingKfState:
    """Kalman state at a known heading, zero gyro bias, and prior covariance
    diag(0.25 rad^2, 0.0025 (rad/s)^2)."""
    return HeadingKfState(heading=wrap_angle(heading), gyro_bias=0.0, covariance=np.diag([0.25, 0.0025]))


def _mag_heading(mx: float, my: float, declination: float) -> float | None:
    """wrap_angle(atan2(-my, mx) + declination), or None under 1 microtesla of
    horizontal field or where that heading is NaN."""
    z = wrap_angle(math.atan2(-my, mx) + declination)
    return None if math.hypot(mx, my) < 1.0 or math.isnan(z) else z


def mag_headings(mag_xy, declination: float) -> list[float | None]:
    """_mag_heading of each (mx, my) row. math.atan2, unlike np.arctan2, gives
    its bits; only entries outside (-pi, pi] pay a wrap_angle call, and only
    rows whose squared norm is not over 1.001 (near or under 1 microtesla, or
    NaN) pay a _mag_heading call."""
    m = np.asarray(mag_xy, dtype=float).reshape(-1, 2)
    mx, my, n = m[:, 0], m[:, 1], len(m)
    z = np.fromiter(map(math.atan2, (-my).tolist(), mx.tolist()), float, n) + declination
    out = ~((z > -math.pi) & (z <= math.pi))
    z[out] = list(map(wrap_angle, z[out].tolist()))
    with np.errstate(over="ignore"):  # an overflowing square is inf, over 1.001
        weak = np.flatnonzero(~(mx * mx + my * my > 1.001)).tolist()
    z = z.tolist()
    for i, (x, y) in zip(weak, m[weak].tolist()):
        z[i] = _mag_heading(x, y, declination)
    return z


def mag_heading(sample: ImuSample, cfg: KfConfig = KfConfig()) -> float:
    """Heading from the horizontal magnetometer components.

    Raises UnreliableMeasurementError when the horizontal field is under
    1 microtesla; the caller skips the Kalman update.
    """
    mx, my, _ = sample.mag
    z = _mag_heading(float(mx), float(my), cfg.declination)
    if z is None:
        raise UnreliableMeasurementError(f"horizontal field {math.hypot(mx, my):.3g} uT")
    return z


def kf_predict(state: HeadingKfState, gyro_yaw_rate: float, dt: float, cfg: KfConfig) -> HeadingKfState:
    """Propagate heading by the bias-corrected gyro rate; grow covariance."""
    if not 0 < dt < math.inf:
        raise InvalidParameterError(f"dt must be positive and finite, got {dt}")
    if not math.isfinite(gyro_yaw_rate):
        raise InvalidParameterError(f"gyro_yaw_rate must be finite, got {gyro_yaw_rate}")
    return kf_run(state, (gyro_yaw_rate,), (dt,), (None,), 0, 1, cfg)


def kf_update(state: HeadingKfState, measured_heading: float, cfg: KfConfig) -> HeadingKfState:
    """Measurement update with H = [1, 0] and wrapped innovation."""
    if not math.isfinite(measured_heading):
        raise InvalidParameterError(f"measured_heading must be finite, got {measured_heading}")
    return kf_run(state, (0.0,), (0.0,), (measured_heading,), 0, 1, cfg)


def kf_run(state: HeadingKfState, rates, dts, z, i0: int, i1: int, cfg: KfConfig) -> HeadingKfState:
    """For each i in range(i0, i1), predict with rates[i] over dts[i], then update
    with the heading z[i] unless it is None (lists of Python floats). An empty
    range returns state itself. Predict: x' = x + (rate - b) dt, P' = F P F^T + Q,
    F = [[1, -dt], [0, 1]], Q = diag(q_heading, q_bias) dt; a dt of 0 skips it, and
    kf_update is one such interval. Update: H = [1, 0], wrapped innovation, Joseph form
    (I - KH) P (I - KH)^T + r K K^T, symmetrised; an infinite r_mag skips it.
    Each line writes 2x2 products out on floats in their order of operations (r k0 k1 once).
    A state that is not all finite (finite input whose products overflow) is refused.
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
            a00, a10, rk01 = g * p00, p01 - k1 * p00, r * (k0 * k1)  # a00, a10: column 0 of (I - KH) P
            h, b = h + k0 * e, b + k1 * e
            if not lo < h <= hi:
                h = wrap_angle(h)
            p00, p11 = a00 * g + r * (k0 * k0), p11 - k1 * p01 - k1 * a10 + r * (k1 * k1)
            p01 = 0.5 * ((g * p01 - k1 * a00 + rk01) + (a10 * g + rk01))
    if not all(map(math.isfinite, (h, b, p00, p01, p11))):
        raise InvariantViolation("kf-finite", f"KF heading {h}, covariance {[[p00, p01], [p01, p11]]} at sample {i1}", record=(None, i1))
    return HeadingKfState(heading=h, gyro_bias=b, covariance=np.array([[p00, p01], [p01, p11]]))
