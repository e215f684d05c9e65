import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamloc import (
    FilterDivergenceError,
    FloorPlan,
    HeadingKfState,
    ImuSample,
    KfConfig,
    NoiseModel,
    PdrConfig,
    PfConfig,
    PipelineConfig,
    Point2,
    Pose,
    Segment2,
    Trace,
    UnreliableMeasurementError,
    WalkScript,
    detect_steps,
    generate_walk,
    kf_init,
    kf_predict,
    kf_update,
    mag_heading,
    normalized_series,
    pf_init,
    pf_step,
    track,
    wrap_angle,
)
from seamloc import filters
from seamloc.geometry import _segments_cross
from seamloc.pdr import heading_series

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
        from test_geometry import per_wall_oracle

        fast = _pieced_corridor_run()
        monkeypatch.setattr(filters, "_segments_cross", per_wall_oracle)
        assert _pieced_corridor_run() == fast

    def test_corridor_beats_raw_pdr(self):
        # Scaled-down version of the acceptance scenario: 5 seeds.
        corridor = FloorPlan(
            walls=(
                Segment2(Point2(-2, -1), Point2(35, -1)),
                Segment2(Point2(-2, 1), Point2(35, 1)),
            ),
            doors=(),
        )
        script = WalkScript(waypoints=(Point2(0, 0), Point2(30, 0)))
        pf_cfg = PfConfig(init_sigma=0.2)
        pdr_cfg = PdrConfig(initial_pose=Pose(Point2(0, 0), 0.0))
        pf_errs, pdr_errs = [], []
        for seed in range(5):
            noise = NoiseModel(accel_sigma=0.05, gyro_sigma=0.01, gyro_bias=0.015, mag_sigma=0.5, seed=seed)
            trace, truth = generate_walk(script, noise)
            t, a = normalized_series(trace)
            steps = detect_steps(t, a)
            psi = heading_series(trace, pdr_cfg)
            final = truth.final_position

            pose = pdr_cfg.initial_pose
            pset = pf_init(pose, pf_cfg, seed=seed)
            est = pose.position
            for s in steps:
                i = max(int(np.searchsorted(trace.t, s.t, side="right")) - 1, 0)
                h = wrap_angle(psi[i])
                try:
                    pset, est = pf_step(pset, h, pf_cfg, pdr_cfg, corridor)
                except FilterDivergenceError:
                    pset = pf_init(Pose(est, h), pf_cfg, seed=seed + 500)
                    pset, est = pf_step(pset, h, pf_cfg, pdr_cfg, corridor)
                pose = Pose(Point2(pose.position.x + 0.75 * math.cos(h), pose.position.y + 0.75 * math.sin(h)), h)
            pf_errs.append(math.hypot(est.x - final.x, est.y - final.y))
            pdr_errs.append(math.hypot(pose.position.x - final.x, pose.position.y - final.y))
        assert np.mean(pf_errs) < np.mean(pdr_errs)


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


# --- Reference heading KF: the numpy 2x2 matrix form, one sample at a time ---


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


def oracle_mag_heading(mx, my, cfg):
    """None where the horizontal field is too weak to use."""
    if math.hypot(mx, my) < 1.0:
        return None
    return wrap_angle(math.atan2(-my, mx) + cfg.declination)


def oracle_kf_loop(state, rates, dts, mags, cfg):
    """The per-sample loop the tracker ran outdoors before kf_run."""
    for rate, dt, (mx, my) in zip(rates, dts, mags):
        state = oracle_kf_predict(state, rate, dt, cfg)
        z = oracle_mag_heading(mx, my, cfg)
        if z is not None:
            state = oracle_kf_update(state, z, cfg)
    return state


def oracle_track_headings(trace, steps, heading, cfg, kf_state=None):
    """Heading at each step from the tracker's former per-sample loop: the KF
    when kf_state is given, else wrapped gyro increments."""
    gz = trace.gyro[:, 2]
    cursor = 0
    out = []
    for step in steps:
        i_k = max(int(np.searchsorted(trace.t, step.t, side="right")) - 1, 0)
        for i in range(cursor, i_k):
            dt = float(trace.t[i + 1] - trace.t[i])
            rate = 0.5 * float(gz[i] + gz[i + 1])
            if kf_state is not None:
                kf_state = oracle_kf_predict(kf_state, rate, dt, cfg)
                z = oracle_mag_heading(trace.mag[i + 1, 0], trace.mag[i + 1, 1], cfg)
                if z is not None:
                    kf_state = oracle_kf_update(kf_state, z, cfg)
                heading = kf_state.heading
            else:
                heading = wrap_angle(heading + rate * dt)
        cursor = i_k
        out.append(heading)
    return out


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
# Horizontal field components; about a third of the draws fall under 1 uT.
mag_xy = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)) | st.tuples(
    st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)
)


class TestKfOracle:
    @settings(max_examples=300, deadline=None)
    @given(kf_states, rates, dts, kf_configs)
    def test_predict_matches_matrix_form(self, state, rate, dt, cfg):
        assert_kf_close(kf_predict(state, rate, dt, cfg), oracle_kf_predict(state, rate, dt, cfg))

    @settings(max_examples=300, deadline=None)
    @given(kf_states, near_pi, kf_configs)
    def test_update_matches_matrix_form(self, state, z, cfg):
        assert_kf_close(kf_update(state, z, cfg), oracle_kf_update(state, z, cfg))

    @settings(max_examples=150, deadline=None)
    @given(kf_states, st.lists(st.tuples(rates, dts, mag_xy), max_size=60), kf_configs, st.data())
    def test_run_matches_per_sample_loop(self, state, samples, cfg, data):
        rate_list = [s[0] for s in samples]
        dt_list = [s[1] for s in samples]
        z = [filters._mag_z(mx, my, cfg.declination) for _, _, (mx, my) in samples]
        i0 = data.draw(st.integers(0, len(samples)))
        i1 = data.draw(st.integers(i0, len(samples)))
        got = filters.kf_run(state, rate_list, dt_list, z, i0, i1, cfg)
        want = oracle_kf_loop(state, rate_list[i0:i1], dt_list[i0:i1], [s[2] for s in samples[i0:i1]], cfg)
        assert_kf_close(got, want)
        if i0 == i1:
            assert got is state

    def test_run_on_a_long_walk(self):
        script = WalkScript(waypoints=(Point2(0, 0), Point2(40, 0), Point2(40, 30)))
        noise = NoiseModel(accel_sigma=0.05, gyro_sigma=0.01, gyro_bias=0.02, mag_sigma=2.2, seed=5)
        trace, _ = generate_walk(script, noise)
        mag = trace.mag.copy()
        mag[::9, :2] *= 1e-3  # weak-field samples: the update is skipped
        cfg = KfConfig(declination=0.05)
        gz = trace.gyro[:, 2]
        rate_list = (0.5 * (gz[:-1] + gz[1:])).tolist()
        dt_list = np.diff(trace.t).tolist()
        z = [filters._mag_z(mx, my, cfg.declination) for mx, my in mag[1:, :2].tolist()]
        assert None in z
        state = kf_init(0.0)
        got = filters.kf_run(state, rate_list, dt_list, z, 0, len(dt_list), cfg)
        want = oracle_kf_loop(state, rate_list, dt_list, mag[1:, :2].tolist(), cfg)
        assert_kf_close(got, want)

    @pytest.mark.parametrize("kf_cfg", [KfConfig(), KfConfig(declination=0.1), KfConfig(r_mag=float("inf"))])
    @pytest.mark.parametrize("environment", ["outdoor", "indoor"])
    def test_track_headings_match_per_sample_loop(self, kf_cfg, environment):
        script = WalkScript(
            waypoints=(Point2(0, 0), Point2(20, 0), Point2(20, -15)),
            pauses=((1, 3.0),),
            start_environment=environment,
        )
        noise = NoiseModel(accel_sigma=0.05, gyro_sigma=0.01, gyro_bias=0.02, mag_sigma=2.2, seed=8)
        trace, _ = generate_walk(script, noise)
        mag = trace.mag.copy()
        mag[::5, :2] *= 1e-3  # weak-field samples: the update is skipped
        trace = Trace(t=trace.t, accel=trace.accel, gyro=trace.gyro, mag=mag)
        start = 3.1  # near +pi, so wrapped headings cross the seam
        plan = FloorPlan(walls=(), doors=(), start_position=Point2(0, 0), start_heading=start, start_environment=environment)
        path, log = track(trace, plan, PipelineConfig(kf=kf_cfg))
        assert log.steps and not log.switches
        kf_state = kf_init(start) if environment == "outdoor" else None
        want = oracle_track_headings(trace, log.steps, start, kf_cfg, kf_state)
        got = [pose.heading for pose in path]
        if kf_state is None:
            assert got == want
        else:
            assert max(abs(wrap_angle(g - w)) for g, w in zip(got, want)) <= KF_TOL
