import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from seamloc import (
    FilterDivergenceError,
    FloorPlan,
    HeadingKfState,
    ImuSample,
    InvalidParameterError,
    InvariantViolation,
    KfConfig,
    NoiseModel,
    PdrConfig,
    PfConfig,
    Point2,
    Pose,
    Segment2,
    UnreliableMeasurementError,
    WalkScript,
    generate_walk,
    kf_init,
    kf_predict,
    kf_update,
    mag_heading,
    pf_init,
    pf_step,
    wrap_angle,
)
from seamloc import filters
from seamloc.filters import MAX_PARTICLES, ParticleSet
from seamloc.geometry import _segments_cross
from test_geometry import per_wall_oracle

EMPTY_PLAN = FloorPlan(walls=(), doors=())


def _pieced_corridor_run():
    """(sha256 of every step's positions and weights, final estimate as hex
    floats, live particles per step) for a fixed 20-step run."""
    xs = [0.4 * i - 2.0 for i in range(151)]
    walls = tuple(
        Segment2(Point2(a, y), Point2(b, y)) for y in (-0.6, 0.6) for a, b in zip(xs, xs[1:])
    )
    plan = FloorPlan(walls=walls, doors=())
    assert len(plan.walls) == 300
    cfg = PfConfig(particle_count=500)
    pset = pf_init(Pose(Point2(0.0, 0.0), 0.0), cfg, seed=2024)
    h = hashlib.sha256()
    live = []
    for k in range(20):
        pset, est = pf_step(pset, float(0.25 * np.sin(0.7 * k)), cfg, PdrConfig(), plan)
        h.update(pset.positions.astype("<f8").tobytes())
        h.update(pset.weights.astype("<f8").tobytes())
        live.append(int((pset.weights > 0).sum()))
    return h.hexdigest(), (est.x.hex(), est.y.hex()), live


class TestPfConfig:
    @pytest.mark.parametrize("count", [0, MAX_PARTICLES + 1, 10**12, 2**63])
    def test_particle_count_outside_the_cap_is_refused(self, count):
        # Refused by the config, before pf_init would try to allocate the cloud.
        with pytest.raises(InvalidParameterError, match=f"particle_count must be in \\[1, {MAX_PARTICLES}\\], got {count}"):
            PfConfig(particle_count=count)

    def test_cap_itself_is_allowed(self):
        assert PfConfig(particle_count=MAX_PARTICLES).particle_count == MAX_PARTICLES


class TestPfInit:
    def test_degenerate_sigma_collapses_to_pose(self):
        pset = pf_init(Pose(Point2(3, -2), 0.0), PfConfig(particle_count=100, init_sigma=0.0), seed=1)
        assert np.allclose(pset.positions, [3, -2])

    def test_uniform_weights(self):
        pset = pf_init(Pose(Point2(0, 0), 0.0), PfConfig(particle_count=250), seed=1)
        assert np.allclose(pset.weights, 1.0 / 250)

    def test_seed_determinism(self):
        a = pf_init(Pose(Point2(0, 0), 0.0), PfConfig(), seed=99)
        b = pf_init(Pose(Point2(0, 0), 0.0), PfConfig(), seed=99)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.weights, b.weights)


class TestPfStep:
    def test_zero_noise_no_walls_equals_pdr(self):
        cfg = PfConfig(particle_count=64, step_sigma=0.0, heading_sigma=0.0, init_sigma=0.0)
        pdr_cfg = PdrConfig()
        pset = pf_init(Pose(Point2(1, 2), 0.0), cfg, seed=0)
        pset, est = pf_step(pset, math.pi / 2, cfg, pdr_cfg, EMPTY_PLAN)
        assert abs(est.x - 1.0) < 1e-12
        assert abs(est.y - 2.75) < 1e-12

    def test_weights_sum_to_one(self):
        cfg = PfConfig(particle_count=300)
        pdr_cfg = PdrConfig()
        plan = FloorPlan(walls=(Segment2(Point2(-5, 1), Point2(10, 1)),), doors=())
        pset = pf_init(Pose(Point2(0, 0), 0.0), cfg, seed=2)
        for _ in range(10):
            pset, _ = pf_step(pset, 0.1, cfg, pdr_cfg, plan)
            assert abs(pset.weights.sum() - 1.0) < 1e-9

    def test_wall_ahead_diverges(self):
        cfg = PfConfig(particle_count=50, step_sigma=0.0, heading_sigma=0.0, init_sigma=0.0)
        plan = FloorPlan(walls=(Segment2(Point2(0.1, -100), Point2(0.1, 100)),), doors=())
        pset = pf_init(Pose(Point2(0, 0), 0.0), cfg, seed=0)
        with pytest.raises(FilterDivergenceError):
            pf_step(pset, 0.0, cfg, PdrConfig(), plan)

    def test_no_live_particle_crossed_a_wall(self):
        # Tiny resample threshold keeps the index mapping intact for the check.
        cfg = PfConfig(particle_count=400, resample_threshold=1e-9)
        plan = FloorPlan(walls=(Segment2(Point2(-5, 0.8), Point2(40, 0.8)),), doors=())
        pdr_cfg = PdrConfig()
        pset = pf_init(Pose(Point2(0, 0), 0.0), cfg, seed=5)
        for _ in range(8):
            before = pset.positions.copy()
            pset, _ = pf_step(pset, 0.3, cfg, pdr_cfg, plan)
            crossed = _segments_cross(before, pset.positions, plan.wall_array())
            assert not np.any(crossed & (pset.weights > 0))

    def test_pipeline_determinism(self):
        cfg = PfConfig(particle_count=200)
        pdr_cfg = PdrConfig()
        plan = FloorPlan(walls=(Segment2(Point2(-5, 1), Point2(30, 1)),), doors=())
        estimates = []
        for _ in range(2):
            pset = pf_init(Pose(Point2(0, 0), 0.0), cfg, seed=31)
            run = []
            for _ in range(15):
                pset, est = pf_step(pset, 0.05, cfg, pdr_cfg, plan)
                run.append((est.x, est.y))
            estimates.append(run)
        assert estimates[0] == estimates[1]

    def test_pieced_corridor_matches_recorded_run(self):
        # Recorded from the per-wall loop the wall test replaced: 20 steps of
        # 500 particles in a 1.2 m corridor of 300 wall pieces, with wall
        # kills and one resampling. The digest covers every step's positions
        # and weights as little-endian float64.
        digest, estimate, live = _pieced_corridor_run()
        assert live == [481, 444, 364, 303, 274, 270, 270, 263, 251, 500, 499, 491, 454, 431, 429, 429, 422, 396, 392, 392]
        assert estimate == ("0x1.d80615ba919d8p+3", "0x1.0b35bcc353b60p-3")
        assert digest == "e7371045918d7cf834d25aea8bccaf0918894be3b28d8ded9e7fc67ffc75baa7"

    def test_pieced_corridor_matches_per_wall_oracle(self, monkeypatch):
        # Same run with the reference per-wall test in place of the culled,
        # blocked one; unlike the recorded digest this does not depend on the
        # platform's sin/cos.
        fast = _pieced_corridor_run()
        monkeypatch.setattr(filters, "_segments_cross", lambda p0, p1, table: per_wall_oracle(p0, p1, table[:4].T))
        assert _pieced_corridor_run() == fast


def oracle_pf_step(pset, heading, cfg, pdr_cfg, plan):
    """pf_step as it was written first: two normal draws, the moves joined by
    np.column_stack, hit weights zeroed by a boolean index, and the per-wall
    reference test in place of the culled, blocked one."""
    n = len(pset)
    lengths = pdr_cfg.step_length + pset.rng.normal(0.0, cfg.step_sigma, n)
    headings = heading + pset.rng.normal(0.0, cfg.heading_sigma, n)
    moved = pset.positions + np.column_stack(
        [lengths * np.cos(headings), lengths * np.sin(headings)]
    )

    weights = pset.weights.copy()
    weights[per_wall_oracle(pset.positions, moved, plan.wall_array()[:4].T)] = 0.0

    total = weights.sum()
    if total <= 0.0:
        raise FilterDivergenceError("every particle crossed a wall")
    weights /= total
    estimate = Point2(float(weights @ moved[:, 0]), float(weights @ moved[:, 1]))

    out = ParticleSet(positions=moved, weights=weights, rng=pset.rng)
    ess = 1.0 / float(np.sum(weights**2))
    if ess < cfg.resample_threshold * n:
        filters._systematic_resample(out)
    return out, estimate


def _plan(*walls):
    return FloorPlan(walls=tuple(Segment2(Point2(x1, y1), Point2(x2, y2)) for x1, y1, x2, y2 in walls), doors=())


# Clouds start around the origin: no wall, a wall beside the cloud, walls
# whose box misses it, a wall along the x axis (collinear steps when the
# cloud sits on it), and a pieced corridor of 300 walls.
PF_PLANS = {
    "empty": EMPTY_PLAN,
    "near": _plan((0.6, -5.0, 0.6, 5.0)),
    "far": _plan((50.0, 50.0, 51.0, 50.0), (-50.0, -50.0, -50.0, -49.0)),
    "on-axis": _plan((-5.0, 0.0, 5.0, 0.0), (0.5, -5.0, 0.5, 5.0)),
    "corridor": _plan(*((a, y, a + 0.4, y) for y in (-0.6, 0.6) for a in (0.4 * i - 2.0 for i in range(150)))),
}
signed = st.sampled_from([0.0, -0.0, math.pi, -math.pi])
pf_sigma = st.one_of(st.just(0.0), st.sampled_from([0.087, 0.1]), st.floats(0.0, 2.0))


class TestPfStepBitExact:
    """pf_step against oracle_pf_step: positions, weights, estimate and the
    generator state after the call agree bit for bit."""

    @staticmethod
    def run(step, seed, n, spread, center, weights, heading, cfg, pdr_cfg, plan):
        rng = np.random.default_rng(seed)
        positions = center + spread * rng.standard_normal((n, 2))
        w = np.ones(n)
        if weights == "random":
            w = rng.random(n) * (rng.random(n) >= 0.3)
            w[0] = 1.0  # at least one live particle
        w /= w.sum()
        pset = ParticleSet(positions=positions, weights=w, rng=np.random.default_rng([seed, 1]))
        try:
            out, est = step(pset, heading, cfg, pdr_cfg, plan)
        except FilterDivergenceError:
            return "diverged", pset.rng.bit_generator.state
        bits = (out.positions.tobytes(), out.weights.tobytes(), est.x.hex(), est.y.hex())
        return (out.positions.shape, out.weights.shape, bits), out.rng.bit_generator.state

    @settings(max_examples=250, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        n=st.one_of(st.integers(1, 8), st.integers(1, 2000)),
        spread=st.sampled_from([0.0, 0.3]),
        center=st.sampled_from([(0.0, 0.0), (-0.0, -0.0), (0.25, -0.0)]),
        weights=st.sampled_from(["uniform", "random"]),
        heading=st.one_of(signed, st.floats(-4.0, 4.0)),
        step_sigma=pf_sigma,
        heading_sigma=pf_sigma,
        step_length=st.sampled_from([0.75, 0.6]),
        plan=st.sampled_from(sorted(PF_PLANS)),
    )
    # No noise at all: every particle at -0.0, moving along a -0.0 heading.
    @example(seed=0, n=5, spread=0.0, center=(-0.0, -0.0), weights="uniform", heading=-0.0,
             step_sigma=0.0, heading_sigma=0.0, step_length=0.75, plan="empty")
    @example(seed=3, n=1000, spread=0.0, center=(0.0, 0.0), weights="random", heading=math.pi,
             step_sigma=0.0, heading_sigma=0.0, step_length=0.75, plan="on-axis")
    @example(seed=4, n=2000, spread=0.3, center=(0.0, 0.0), weights="random", heading=0.0,
             step_sigma=0.1, heading_sigma=0.087, step_length=0.75, plan="corridor")
    def test_matches_oracle(self, seed, n, spread, center, weights, heading, step_sigma, heading_sigma, step_length, plan):
        cfg = PfConfig(particle_count=n, step_sigma=step_sigma, heading_sigma=heading_sigma)
        args = (seed, n, spread, np.array(center), weights, heading, cfg, PdrConfig(step_length=step_length), PF_PLANS[plan])
        assert self.run(pf_step, *args) == self.run(oracle_pf_step, *args)


# A closed 4 m box around the origin: a straight walk from the origin along x leaves it in
# the third step of 0.75 m, and one from (1.5, 0) in the first.
RUN_PLANS = {**PF_PLANS, "box": _plan((-2.0, -2.0, 2.0, -2.0), (2.0, -2.0, 2.0, 2.0), (2.0, 2.0, -2.0, 2.0), (-2.0, 2.0, -2.0, -2.0))}


def chained_pf_steps(pset, headings, cfg, pdr_cfg, plan):
    """pf_step once per heading, up to where pf_run stops: after a step that resamples, before
    one that diverges (which raises again if it is the first). A heading that is not finite
    anywhere refuses the run before any step. Returns the pairs and the generator state
    after the last of them."""
    run, state = [], pset.rng.bit_generator.state
    if not all(map(math.isfinite, headings)):
        raise InvalidParameterError("heading must be finite")
    with mock.patch.object(filters, "_systematic_resample", wraps=filters._systematic_resample) as resample:
        for heading in headings:
            try:
                pset, estimate = pf_step(pset, heading, cfg, pdr_cfg, plan)
            except FilterDivergenceError:
                if not run:
                    raise
                break
            run.append((pset, estimate))
            state = pset.rng.bit_generator.state
            if resample.called:
                break
    return run, state


class TestPfRunEqualsChainedSteps:
    """pf_run against chained pf_step calls: each step's positions, weights and
    estimate, and the generator state after the run, agree bit for bit."""

    @staticmethod
    def run(advance, seed, n, spread, center, weights, headings, cfg, pdr_cfg, plan):
        rng = np.random.default_rng(seed)
        positions = center + spread * rng.standard_normal((n, 2))
        w = np.ones(n)
        if weights == "random":
            w = rng.random(n) * (rng.random(n) >= 0.3)
            w[0] = 1.0  # at least one live particle
        w /= w.sum()
        pset = ParticleSet(positions=positions, weights=w, rng=np.random.default_rng([seed, 1]))
        try:
            run, state = advance(pset, headings, cfg, pdr_cfg, plan)
        except (FilterDivergenceError, InvalidParameterError) as exc:
            return type(exc).__name__, pset.rng.bit_generator.state
        steps = [(out.positions.tobytes(), out.weights.tobytes(), est.x.hex(), est.y.hex()) for out, est in run]
        return steps, state

    @staticmethod
    def pf_run(pset, headings, cfg, pdr_cfg, plan):
        run = filters.pf_run(pset, headings, cfg, pdr_cfg, plan)
        return run, pset.rng.bit_generator.state

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        n=st.one_of(st.integers(1, 8), st.integers(1, 2000)),
        spread=st.sampled_from([0.0, 0.3]),
        center=st.sampled_from([(0.0, 0.0), (-0.0, -0.0), (0.25, -0.0)]),
        weights=st.sampled_from(["uniform", "random"]),
        headings=st.lists(st.one_of(signed, st.floats(-4.0, 4.0)), min_size=1, max_size=8),
        step_sigma=pf_sigma,
        heading_sigma=pf_sigma,
        resample_threshold=st.sampled_from([0.5, 1e-9, 1.0]),
        plan=st.sampled_from(sorted(RUN_PLANS)),
    )
    # Resampling at the third of five steps, where the corridor's walls first take particles:
    # 512 uniform weights are powers of two, so before it the effective sample size is exactly N.
    @example(seed=5, n=512, spread=0.0, center=(0.0, 0.0), weights="uniform", headings=[0.0, 0.0, 0.6, 0.6, 0.0],
             step_sigma=0.1, heading_sigma=0.087, resample_threshold=1.0, plan="corridor")
    # Every particle leaves the box at the first step, and at the third.
    @example(seed=1, n=50, spread=0.0, center=(1.5, 0.0), weights="uniform", headings=[0.0, 0.0, 0.0],
             step_sigma=0.0, heading_sigma=0.0, resample_threshold=0.5, plan="box")
    @example(seed=2, n=50, spread=0.0, center=(0.0, 0.0), weights="uniform", headings=[0.0, 0.0, 0.0, 0.0],
             step_sigma=0.0, heading_sigma=0.0, resample_threshold=0.5, plan="box")
    # A heading that is not finite at the first step, and at the third: either refuses the run before any draw.
    @example(seed=3, n=100, spread=0.3, center=(0.0, 0.0), weights="random", headings=[math.nan, 0.0, 0.0],
             step_sigma=0.1, heading_sigma=0.087, resample_threshold=0.5, plan="near")
    @example(seed=4, n=100, spread=0.3, center=(0.0, 0.0), weights="random", headings=[0.0, 0.1, math.inf, 0.0],
             step_sigma=0.1, heading_sigma=0.087, resample_threshold=1e-9, plan="near")
    def test_matches_chained_pf_step(self, seed, n, spread, center, weights, headings, step_sigma, heading_sigma, resample_threshold, plan):
        cfg = PfConfig(particle_count=n, step_sigma=step_sigma, heading_sigma=heading_sigma, resample_threshold=resample_threshold)
        args = (seed, n, spread, np.array(center), weights, headings, cfg, PdrConfig(), RUN_PLANS[plan])
        assert self.run(self.pf_run, *args) == self.run(chained_pf_steps, *args)


class TestMagHeading:
    def test_aligned_with_x(self):
        s = ImuSample(0.0, (0, 0, 9.81), (0, 0, 0), (22.0, 0.0, -43.0))
        assert abs(mag_heading(s)) < 1e-12

    def test_negative_y_is_quarter_turn(self):
        s = ImuSample(0.0, (0, 0, 9.81), (0, 0, 0), (0.0, -22.0, -43.0))
        assert abs(mag_heading(s) - math.pi / 2) < 1e-12

    def test_weak_horizontal_field_rejected(self):
        s = ImuSample(0.0, (0, 0, 9.81), (0, 0, 0), (0.0, 0.0, 50.0))
        with pytest.raises(UnreliableMeasurementError):
            mag_heading(s)

    def test_declination_applied(self):
        s = ImuSample(0.0, (0, 0, 9.81), (0, 0, 0), (22.0, 0.0, -43.0))
        assert abs(mag_heading(s, KfConfig(declination=0.2)) - 0.2) < 1e-12


class TestKfPredict:
    def test_zero_rate_zero_bias(self):
        state = kf_init(0.5)
        cfg = KfConfig()
        out = kf_predict(state, 0.0, 0.1, cfg)
        assert out.heading == 0.5
        assert out.covariance[0, 0] > state.covariance[0, 0]

    def test_bias_cancels_rate(self):
        state = HeadingKfState(heading=0.2, gyro_bias=0.1, covariance=np.diag([0.1, 0.01]))
        out = kf_predict(state, 0.1, 1.0, KfConfig())
        assert abs(out.heading - 0.2) < 1e-15

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(Exception):
            kf_predict(kf_init(0.0), 0.0, 0.0, KfConfig())

    def test_covariance_psd_after_many_predicts(self):
        state = kf_init(0.0)
        cfg = KfConfig()
        for _ in range(10_000):
            state = kf_predict(state, 0.01, 0.01, cfg)
        cov = state.covariance
        assert np.allclose(cov, cov.T)
        assert np.linalg.eigvalsh(cov).min() >= -1e-12


class TestKfUpdate:
    def test_infinite_noise_no_change(self):
        state = kf_init(0.3)
        out = kf_update(state, 1.0, KfConfig(r_mag=float("inf")))
        assert out.heading == state.heading
        assert np.array_equal(out.covariance, state.covariance)

    def test_zero_prior_covariance_no_change(self):
        state = HeadingKfState(heading=0.3, gyro_bias=0.02, covariance=np.zeros((2, 2)))
        out = kf_update(state, 1.2, KfConfig())
        assert out.heading == 0.3
        assert out.gyro_bias == 0.02

    def test_heading_variance_never_increases(self):
        rng = np.random.default_rng(0)
        state = kf_init(0.0)
        cfg = KfConfig()
        for _ in range(200):
            state = kf_predict(state, rng.normal(0, 0.1), 0.05, cfg)
            prior = state.covariance[0, 0]
            state = kf_update(state, rng.normal(0, 0.2), cfg)
            assert state.covariance[0, 0] <= prior + 1e-15

    def test_two_pi_measurement_invariance(self):
        state = kf_init(0.4)
        cfg = KfConfig()
        a = kf_update(state, 1.0, cfg)
        b = kf_update(state, 1.0 + 2 * math.pi, cfg)
        assert abs(a.heading - b.heading) < 1e-12
        assert abs(a.gyro_bias - b.gyro_bias) < 1e-12
        assert np.allclose(a.covariance, b.covariance, atol=1e-12)

    def test_bias_estimation_on_straight_walk(self):
        # Scaled-down acceptance scenario: one seed, 60 s.
        script = WalkScript(waypoints=(Point2(0, 0), Point2(90, 0)))
        noise = NoiseModel(accel_sigma=0.05, gyro_sigma=0.01, gyro_bias=0.02, mag_sigma=2.2, seed=3)
        trace, _ = generate_walk(script, noise)
        gz = trace.gyro[:, 2]
        state = kf_init(0.0)
        cfg = KfConfig()
        for i in range(len(trace) - 1):
            dt = float(trace.t[i + 1] - trace.t[i])
            state = kf_predict(state, 0.5 * float(gz[i] + gz[i + 1]), dt, cfg)
            try:
                state = kf_update(state, mag_heading(trace.sample(i + 1), cfg), cfg)
            except UnreliableMeasurementError:
                pass
        assert abs(state.heading) < 0.2
        assert 0.01 <= state.gyro_bias <= 0.03  # within 50% of the injected 0.02


class TestNonFiniteInput:
    """The scalar filter steps refuse input that is not finite, where they would return NaN or warn."""

    @pytest.mark.parametrize("rate, dt", [(0.01, math.nan), (0.01, math.inf), (math.inf, 0.01), (math.nan, 0.01)])
    def test_kf_predict(self, rate, dt):
        with pytest.raises(InvalidParameterError, match="must be .*finite"):
            kf_predict(kf_init(0.1), rate, dt, KfConfig())

    @pytest.mark.parametrize("z", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("r_mag", [0.05, math.inf])
    def test_kf_update(self, z, r_mag):
        with pytest.raises(InvalidParameterError, match=f"measured_heading must be finite, got {z}"):
            kf_update(kf_init(0.1), z, KfConfig(r_mag=r_mag))

    # Finite input whose products overflow: the heading goes NaN, or the covariance infinite.
    @pytest.mark.parametrize("rate, dt", [(1e308, 10.0), (0.0, 1e308), (1e200, 1e200)])
    def test_kf_predict_overflow(self, rate, dt):
        with pytest.raises(InvariantViolation, match=r"^kf-finite: KF heading \S+, covariance \[\[.*\]\] at sample 1$") as got:
            kf_predict(kf_init(0.1), rate, dt, KfConfig())
        assert got.value.record == (None, 1)

    def test_kf_update_overflow(self):
        # A finite prior whose gain terms overflow: p01 * k1 is inf.
        state = HeadingKfState(heading=0.0, gyro_bias=0.0, covariance=np.array([[1.0, 1e300], [1e300, 1e300]]))
        with pytest.raises(InvariantViolation, match=r"^kf-finite: KF heading \S+, covariance \[\[.*\]\] at sample 1$") as got:
            kf_update(state, 1.0, KfConfig(r_mag=1e-300))
        assert got.value.record == (None, 1)

    def test_kf_steps_at_the_edge_of_overflow_pass(self):
        state = kf_predict(kf_init(0.1), 0.0, 1e150, KfConfig())
        assert all(map(math.isfinite, (state.heading, state.gyro_bias, *state.covariance.flat)))
        assert kf_update(state, 0.5, KfConfig()).heading == pytest.approx(0.5)

    def test_kf_run_over_a_range_names_its_last_sample(self):
        # An interval of 1e200 s at index 5 overflows the covariance; the range that holds it ends before sample 7.
        rates, dts, z = [0.01] * 8, [1.0] * 5 + [1e200] + [1.0] * 2, [0.3] * 8
        assert all(map(math.isfinite, _unpack(filters.kf_run(kf_init(0.1), rates, dts, z, 3, 5, KfConfig()))))
        with pytest.raises(InvariantViolation, match=r"^kf-finite: KF heading \S+, covariance .* at sample 7$") as got:
            filters.kf_run(kf_init(0.1), rates, dts, z, 3, 7, KfConfig())
        assert got.value.record == (None, 7)

    @pytest.mark.parametrize("heading", [math.inf, -math.inf, math.nan])
    def test_pf_step_refuses_before_its_draw(self, heading):
        cfg = PfConfig(particle_count=50)
        pset = pf_init(Pose(Point2(0, 0), 0.0), cfg, seed=1)
        before = pset.rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match=f"heading must be finite, got {heading}"):
            pf_step(pset, heading, cfg, PdrConfig(), EMPTY_PLAN)
        assert pset.rng.bit_generator.state == before


# --- Reference heading KF: the numpy 2x2 matrix form of one predict and one update,
# the algebra that the scalar forms below expand ---


def oracle_kf_predict(state, gyro_yaw_rate, dt, cfg):
    heading = wrap_angle(state.heading + (gyro_yaw_rate - state.gyro_bias) * dt)
    f = np.array([[1.0, -dt], [0.0, 1.0]])
    q = np.diag([cfg.q_heading * dt, cfg.q_bias * dt])
    cov = f @ state.covariance @ f.T + q
    cov = 0.5 * (cov + cov.T)
    return HeadingKfState(heading=heading, gyro_bias=state.gyro_bias, covariance=cov)


def oracle_kf_update(state, measured_heading, cfg):
    if not math.isfinite(cfg.r_mag):
        return state
    p = state.covariance
    innovation = wrap_angle(measured_heading - state.heading)
    s = p[0, 0] + cfg.r_mag
    k = p[:, 0] / s
    heading = wrap_angle(state.heading + k[0] * innovation)
    bias = state.gyro_bias + k[1] * innovation
    ikh = np.eye(2) - np.outer(k, [1.0, 0.0])
    cov = ikh @ p @ ikh.T + cfg.r_mag * np.outer(k, k)
    cov = 0.5 * (cov + cov.T)
    return HeadingKfState(heading=heading, gyro_bias=bias, covariance=cov)


KF_TOL = 1e-12


def assert_kf_close(got, want):
    assert abs(wrap_angle(got.heading - want.heading)) <= KF_TOL
    assert -math.pi < got.heading <= math.pi
    assert abs(got.gyro_bias - want.gyro_bias) <= KF_TOL
    assert np.max(np.abs(got.covariance - want.covariance)) <= KF_TOL
    assert np.array_equal(got.covariance, got.covariance.T)


# Wrapped headings, in (-pi, pi].
near_pi = st.one_of(
    st.floats(-math.pi, math.pi, exclude_min=True),
    st.sampled_from([math.pi, -math.pi + 1e-15, math.pi - 1e-15, math.nextafter(-math.pi, 0.0)]),
)
kf_states = st.builds(
    lambda h, b, l00, l10, l11: HeadingKfState(
        heading=h, gyro_bias=b, covariance=np.array([[l00 * l00, l00 * l10], [l00 * l10, l10 * l10 + l11 * l11]])
    ),
    near_pi,
    st.floats(-0.1, 0.1),
    st.floats(0.0, 1.0),
    st.floats(-0.1, 0.1),
    st.floats(0.0, 0.1),
)
kf_configs = st.builds(
    KfConfig,
    q_heading=st.floats(1e-6, 1e-1),
    q_bias=st.floats(1e-9, 1e-3),
    r_mag=st.one_of(st.floats(1e-4, 10.0), st.just(float("inf"))),
    declination=st.one_of(st.just(0.0), st.floats(-0.5, 0.5)),
)
rates = st.floats(-3.0, 3.0)
dts = st.floats(1e-4, 0.5)


class TestKfOracle:
    @settings(max_examples=300, deadline=None)
    @given(kf_states, rates, dts, kf_configs)
    def test_predict_matches_matrix_form(self, state, rate, dt, cfg):
        assert_kf_close(kf_predict(state, rate, dt, cfg), oracle_kf_predict(state, rate, dt, cfg))

    @settings(max_examples=300, deadline=None)
    @given(kf_states, near_pi, kf_configs)
    def test_update_matches_matrix_form(self, state, z, cfg):
        assert_kf_close(kf_update(state, z, cfg), oracle_kf_update(state, z, cfg))


# --- Reference scalar heading KF: one Python call per predict and per update ---
# kf_run, kf_predict and kf_update must give these functions' bits exactly.


def scalar_predict(h, b, p00, p01, p11, rate, dt, q_heading, q_bias):
    fp01 = p01 - dt * p11
    p00 = p00 - dt * p01 - dt * fp01 + q_heading * dt
    return wrap_angle(h + (rate - b) * dt), b, p00, fp01, p11 + q_bias * dt


def scalar_update(h, b, p00, p01, p11, z, r):
    innovation = wrap_angle(z - h)
    s = p00 + r
    k0, k1 = p00 / s, p01 / s
    g = 1.0 - k0
    a00, a01 = g * p00, g * p01
    a10, a11 = p01 - k1 * p00, p11 - k1 * p01
    return (
        wrap_angle(h + k0 * innovation),
        b + k1 * innovation,
        a00 * g + r * (k0 * k0),
        0.5 * ((a01 - k1 * a00 + r * (k0 * k1)) + (a10 * g + r * (k1 * k0))),
        a11 - k1 * a10 + r * (k1 * k1),
    )


def scalar_mag_z(mx, my, declination):
    if math.hypot(mx, my) < 1.0 or math.isnan(mx) or math.isnan(my):
        return None
    return wrap_angle(math.atan2(-my, mx) + declination)


def _unpack(state):
    p = state.covariance
    return state.heading, state.gyro_bias, float(p[0, 0]), float(p[0, 1]), float(p[1, 1])


def _pack(h, b, p00, p01, p11):
    return HeadingKfState(heading=h, gyro_bias=b, covariance=np.array([[p00, p01], [p01, p11]]))


def scalar_kf_predict(state, rate, dt, cfg):
    return _pack(*scalar_predict(*_unpack(state), rate, dt, cfg.q_heading, cfg.q_bias))


def scalar_kf_update(state, z, cfg):
    if not math.isfinite(cfg.r_mag):
        return state
    return _pack(*scalar_update(*_unpack(state), z, cfg.r_mag))


def scalar_kf_run(state, rates, dts, z, i0, i1, cfg):
    x = _unpack(state)
    for rate, dt, zi in zip(rates[i0:i1], dts[i0:i1], z[i0:i1]):
        x = scalar_predict(*x, rate, dt, cfg.q_heading, cfg.q_bias)
        if zi is not None and math.isfinite(cfg.r_mag):
            x = scalar_update(*x, zi, cfg.r_mag)
    return _pack(*x) if i1 > i0 else state


def bits(values):
    """IEEE bit patterns, so -0.0 != 0.0 and NaN == NaN; None stays None."""
    return [None if v is None else np.float64(v).view(np.int64).item() for v in values]


def assert_kf_bits(got, want):
    assert bits([got.heading, got.gyro_bias, *got.covariance.ravel()]) == bits(
        [want.heading, want.gyro_bias, *want.covariance.ravel()]
    )


seam = st.sampled_from([math.pi, -math.pi, math.nextafter(math.pi, 0.0), math.nextafter(-math.pi, 0.0)])
# Measured headings, on and past the seam: kf_update takes unwrapped input too.
measured = st.one_of(near_pi, seam, st.floats(-10.0, 10.0))


class TestKfBitExact:
    @settings(max_examples=300, deadline=None)
    @given(kf_states, st.one_of(rates, st.just(0.0)), dts, kf_configs)
    def test_predict(self, state, rate, dt, cfg):
        assert_kf_bits(kf_predict(state, rate, dt, cfg), scalar_kf_predict(state, rate, dt, cfg))

    @settings(max_examples=300, deadline=None)
    @given(kf_states, measured, kf_configs)
    def test_update(self, state, z, cfg):
        assert_kf_bits(kf_update(state, z, cfg), scalar_kf_update(state, z, cfg))

    @settings(max_examples=200, deadline=None)
    @given(kf_states, st.lists(st.tuples(rates, dts, st.one_of(st.none(), measured)), max_size=60), kf_configs, st.data())
    def test_run(self, state, samples, cfg, data):
        rate_list, dt_list, z = ([s[j] for s in samples] for j in range(3))
        i0 = data.draw(st.integers(0, len(samples)))
        i1 = data.draw(st.integers(i0, len(samples)))
        got = filters.kf_run(state, rate_list, dt_list, z, i0, i1, cfg)
        assert_kf_bits(got, scalar_kf_run(state, rate_list, dt_list, z, i0, i1, cfg))
        if i0 == i1:
            assert got is state

    @pytest.mark.parametrize("cfg", [KfConfig(), KfConfig(declination=3.0), KfConfig(r_mag=float("inf"))])
    def test_run_on_a_long_walk(self, cfg):
        script = WalkScript(waypoints=(Point2(0, 0), Point2(40, 0), Point2(40, 30), Point2(0, 30)))
        noise = NoiseModel(accel_sigma=0.05, gyro_sigma=0.01, gyro_bias=0.02, mag_sigma=2.2, seed=5)
        trace, _ = generate_walk(script, noise)
        mag = trace.mag.copy()
        mag[::9, :2] *= 1e-3
        gz = trace.gyro[:, 2]
        rate_list = (0.5 * (gz[:-1] + gz[1:])).tolist()
        dt_list = np.diff(trace.t).tolist()
        z = [scalar_mag_z(mx, my, cfg.declination) for mx, my in mag[1:, :2].tolist()]
        assert bits(filters.mag_headings(mag[1:, :2], cfg.declination)) == bits(z)
        state = kf_init(3.1)
        got = filters.kf_run(state, rate_list, dt_list, z, 0, len(dt_list), cfg)
        assert_kf_bits(got, scalar_kf_run(state, rate_list, dt_list, z, 0, len(dt_list), cfg))


# Horizontal components for the magnetometer heading, with the cases the
# vectorised form must get right: weak fields, signed zeros, the atan2 = -pi
# seam, NaN and infinities.
mag_component = st.one_of(
    st.floats(-60.0, 60.0),
    st.floats(-0.8, 0.8),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.6, 0.8, math.inf, -math.inf, math.nan, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True),
)
declinations = st.one_of(st.just(0.0), st.floats(-math.pi, math.pi), st.floats(-10.0, 10.0), seam)


# (mx, my) rows whose squared norm mx * mx + my * my is one float under, on and one
# over each edge of [0.999, 1.001], the band where mag_headings asks math.hypot.
BAND_EDGE_ROWS = [
    (0.9994998749374608, 0.0),
    (0.8654478609367522, 0.5),
    (0.999499874937461, 0.0),
    (0.9275640139634567, 0.375),
    (1.000499875062461, 0.0),
    (0.9954898291795854, 0.1),
]


class TestMagHeadings:
    @staticmethod
    def check(rows, declination):
        want = [scalar_mag_z(mx, my, declination) for mx, my in rows]
        got = filters.mag_headings(np.array(rows, dtype=float).reshape(-1, 2), declination)
        assert bits(got) == bits(want)
        for (mx, my), z in zip(rows, got):  # the scalar form: the same bits, or a refusal where the entry is None
            sample = ImuSample(0.0, (0.0, 0.0, 9.81), (0.0, 0.0, 0.0), (mx, my, -43.0))
            if z is None:
                with pytest.raises(UnreliableMeasurementError):
                    mag_heading(sample, KfConfig(declination=declination))
            else:
                assert bits([mag_heading(sample, KfConfig(declination=declination))]) == bits([z])
        return got

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(mag_component, mag_component), max_size=40), declinations)
    @example(rows=BAND_EDGE_ROWS, declination=0.0)
    @example(rows=[(0.0, 1.3407807929942597e154)], declination=0.0)  # its squares overflow
    def test_matches_scalar_formula(self, rows, declination):
        self.check(rows, declination)

    def test_band_edge_rows_sit_on_the_edges(self):
        edges = [x for e in (0.999, 1.001) for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 2.0))]
        assert [mx * mx + my * my for mx, my in BAND_EDGE_ROWS] == edges

    def test_seam_and_edge_cases(self):
        rows = [
            (0.5, 0.5),  # under 1 uT
            (0.6, 0.8),  # exactly 1 uT: used
            (-22.0, 0.0),  # atan2(-0.0, -22) is -pi, which wraps to pi
            (-22.0, -0.0),  # atan2(+0.0, -22) is pi
            (22.0, 0.0),
            (-22.0, 1e-300),
            (math.nan, 22.0),
            (22.0, math.inf),
            (math.inf, math.nan),
            (-math.inf, -math.inf),
        ]
        for declination in (0.0, 0.3, -0.3, math.pi, -math.pi, 7.0):
            got = self.check(rows, declination)
            assert got[0] is None and got[1] is not None
            assert all(g is None or -math.pi < g <= math.pi for g in got)
        assert self.check(rows[2:3], 0.0) == [math.pi]

    def test_empty(self):
        assert filters.mag_headings(np.zeros((0, 2)), 0.1) == []

    def test_mag_heading_shares_the_definition(self):
        for mx, my in [(22.0, 0.0), (-22.0, 0.0), (0.1, 0.1), (3.0, -4.0)]:
            s = ImuSample(0.0, (0, 0, 9.81), (0, 0, 0), (mx, my, -43.0))
            want = scalar_mag_z(mx, my, 0.2)
            if want is None:
                with pytest.raises(UnreliableMeasurementError):
                    mag_heading(s, KfConfig(declination=0.2))
            else:
                assert bits([mag_heading(s, KfConfig(declination=0.2))]) == bits([want])
