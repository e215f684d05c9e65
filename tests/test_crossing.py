import numpy as np
import pytest

from seamloc import (
    CrossingConfig,
    CrossingState,
    Door,
    KfConfig,
    PfConfig,
    Point2,
    Pose,
    StateInconsistencyError,
    arm_check,
    build_zone_lookup,
    observe_step,
    on_switch,
)
from seamloc.crossing import ARMED, IDLE
from seamloc.harness import PipelineConfig, TrackerState

CFG = CrossingConfig()
DOOR = Door(id="front", center=Point2(0, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
FAR_DOOR = Door(id="side", center=Point2(30, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
ZONES = build_zone_lookup((DOOR, FAR_DOOR), CFG)


def armed_state(env="indoor", door="front"):
    return CrossingState(environment=env, phase=ARMED, armed_door=door)


def away_segment(step):
    # Movement far from any zone.
    x = 10.0 + 0.5 * step
    return Point2(x, 10.0), Point2(x + 0.5, 10.0)


def crossing_segment():
    return Point2(-0.4, 0.3), Point2(0.4, 0.3)


class TestArmCheck:
    def test_arms_inside_area(self):
        state = CrossingState(environment="indoor")
        out = arm_check(state, Point2(3, 0), (DOOR,), CFG)
        assert out.phase == ARMED and out.armed_door == "front"

    def test_stays_idle_outside(self):
        state = CrossingState(environment="indoor")
        out = arm_check(state, Point2(6, 0), (DOOR,), CFG)
        assert out.phase == IDLE

    def test_disarms_on_exit_and_clears_evidence(self):
        state = CrossingState(
            environment="indoor", phase=ARMED, armed_door="front",
            last_door_open=3, last_crossing=(4, Point2(0, 0)),
        )
        out = arm_check(state, Point2(6, 0), (DOOR,), CFG)
        assert out.phase == IDLE
        assert out.last_door_open is None and out.last_crossing is None

    def test_nearest_door_wins(self):
        near = Door(id="near", center=Point2(3, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
        far = Door(id="far", center=Point2(-4, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
        out = arm_check(CrossingState(environment="indoor"), Point2(0, 0), (far, near), CFG)
        assert out.armed_door == "near"

    # The arming disc around a door at (3, 4), radius 5, is inclusive: a
    # point on its rim arms an idle detector and keeps an armed one armed.
    area_door = Door(id="d", center=Point2(3, 4), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")

    def phases_at(self, x):
        cfg = CrossingConfig(area_radius=5.0)
        idle = arm_check(CrossingState(environment="indoor"), Point2(x, 4), (self.area_door,), cfg)
        armed = arm_check(armed_state(door="d"), Point2(x, 4), (self.area_door,), cfg)
        return idle.phase, armed.phase

    def test_arms_at_door_center(self):
        assert self.phases_at(3.0) == (ARMED, ARMED)

    def test_area_boundary_inclusive(self):
        assert self.phases_at(3.0 + 5.0) == (ARMED, ARMED)

    def test_idle_just_outside_area(self):
        assert self.phases_at(3.0 + 5.01) == (IDLE, IDLE)

    def test_armed_state_requires_door(self):
        with pytest.raises(StateInconsistencyError):
            CrossingState(environment="indoor", phase=ARMED)


class TestObserveStep:
    def test_idle_is_noop(self):
        state = CrossingState(environment="indoor")
        out, ev = observe_step(state, 3, *crossing_segment(), True, CFG, ZONES)
        assert out is state and ev is None

    def test_door_then_crossing_within_window(self):
        state = armed_state()
        state, ev = observe_step(state, 10, *away_segment(10), True, CFG, ZONES)
        assert ev is None
        state, ev = observe_step(state, 11, *away_segment(11), False, CFG, ZONES)
        assert ev is None
        state, ev = observe_step(state, 12, *crossing_segment(), False, CFG, ZONES)
        assert ev is not None
        assert ev.step_index == 12
        assert ev.door_id == "front"
        assert ev.from_env == "indoor" and ev.to_env == "outdoor"
        assert state.phase == IDLE and state.environment == "outdoor"

    def test_crossing_without_door_never_switches(self):
        state = armed_state()
        state, ev = observe_step(state, 10, *crossing_segment(), False, CFG, ZONES)
        assert ev is None
        for k in range(11, 30):
            state, ev = observe_step(state, k, *away_segment(k), False, CFG, ZONES)
            assert ev is None

    def test_gap_exactly_five_switches(self):
        state = armed_state()
        state, ev = observe_step(state, 10, *away_segment(10), True, CFG, ZONES)
        for k in range(11, 15):
            state, ev = observe_step(state, k, *away_segment(k), False, CFG, ZONES)
            assert ev is None
        state, ev = observe_step(state, 15, *crossing_segment(), False, CFG, ZONES)
        assert ev is not None and ev.step_index == 15

    def test_gap_of_six_does_not_switch(self):
        state = armed_state()
        state, ev = observe_step(state, 10, *away_segment(10), True, CFG, ZONES)
        for k in range(11, 16):
            state, ev = observe_step(state, k, *away_segment(k), False, CFG, ZONES)
        state, ev = observe_step(state, 16, *crossing_segment(), False, CFG, ZONES)
        assert ev is None

    def test_order_independent_crossing_then_door(self):
        state = armed_state()
        state, ev = observe_step(state, 10, *crossing_segment(), False, CFG, ZONES)
        assert ev is None
        state, ev = observe_step(state, 13, *away_segment(13), True, CFG, ZONES)
        assert ev is not None
        assert ev.to_env == "outdoor"

    def test_crossing_point_on_zone_segment(self):
        state = armed_state()
        state, _ = observe_step(state, 1, *away_segment(1), True, CFG, ZONES)
        _, ev = observe_step(state, 2, *crossing_segment(), False, CFG, ZONES)
        zone = ZONES["front"][1].segment
        dx, dy = zone.b.x - zone.a.x, zone.b.y - zone.a.y
        t = ((ev.crossing_point.x - zone.a.x) * dx + (ev.crossing_point.y - zone.a.y) * dy) / (dx * dx + dy * dy)
        assert -1e-9 <= t * zone.length <= zone.length + 1e-9
        off = abs((ev.crossing_point.x - zone.a.x) * dy - (ev.crossing_point.y - zone.a.y) * dx) / zone.length
        assert off < 1e-9

    def test_stale_door_open_pruned(self):
        state = armed_state()
        state, _ = observe_step(state, 10, *away_segment(10), True, CFG, ZONES)
        # Re-observing at step 16 prunes the record before matching.
        state, ev = observe_step(state, 16, *crossing_segment(), False, CFG, ZONES)
        assert ev is None
        assert state.last_door_open is None

    def test_environment_toggles_back_after_two_switches(self):
        state = armed_state(env="indoor")
        state, _ = observe_step(state, 1, *away_segment(1), True, CFG, ZONES)
        state, ev1 = observe_step(state, 2, *crossing_segment(), False, CFG, ZONES)
        assert ev1.to_env == "outdoor"
        state = arm_check(state, Point2(0.5, 0.3), (DOOR, FAR_DOOR), CFG)
        assert state.phase == ARMED
        state, _ = observe_step(state, 3, *away_segment(3), True, CFG, ZONES)
        state, ev2 = observe_step(state, 4, *crossing_segment(), False, CFG, ZONES)
        assert ev2.from_env == "outdoor" and ev2.to_env == "indoor"

    def test_replay_determinism(self):
        stream = [
            (10, *away_segment(10), True),
            (11, *crossing_segment(), False),
            (12, *away_segment(12), False),
        ]
        logs = []
        for _ in range(2):
            state = armed_state()
            events = []
            for step, prev, cur, opened in stream:
                state, ev = observe_step(state, step, prev, cur, opened, CFG, ZONES)
                events.append(ev)
            logs.append((state, events))
        assert logs[0] == logs[1]

    def test_door_open_alone_never_switches(self):
        # Path stays clear of every zone; repeated door-opens must not switch.
        state = armed_state()
        for k in range(25):
            state, ev = observe_step(state, k, *away_segment(k), True, CFG, ZONES)
            assert ev is None

    def test_random_streams_without_door_never_switch(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            state = armed_state()
            pos = Point2(rng.uniform(-3, -1), rng.uniform(-2, 2))
            for k in range(30):
                nxt = Point2(pos.x + rng.uniform(0, 0.8), pos.y + rng.uniform(-0.4, 0.4))
                state, ev = observe_step(state, k, pos, nxt, False, CFG, ZONES)
                assert ev is None  # door never opened
                pos = nxt
                if state.phase == IDLE:
                    break


def make_tracker(env="indoor"):
    cfg = PipelineConfig()
    pose = Pose(Point2(0.4, 0.1), 0.3)
    from seamloc.filters import kf_init, pf_init

    return TrackerState(
        pose=pose,
        environment=env,
        active_filter="PF" if env == "indoor" else "KF",
        crossing=CrossingState(environment=env),
        step_count=7,
        pf=pf_init(pose, cfg.pf, seed=0) if env == "indoor" else None,
        kf=None if env == "indoor" else kf_init(pose.heading),
        seed=0,
        indoor_label="indoor",
    )


class TestOnSwitch:
    def test_indoor_to_outdoor_swaps_to_kf(self):
        from seamloc.crossing import SwitchEvent

        tracker = make_tracker("indoor")
        ev = SwitchEvent(step_index=7, door_id="front", crossing_point=Point2(0, 0), from_env="indoor", to_env="outdoor")
        out = on_switch(tracker, ev, PfConfig(), KfConfig())
        assert out.environment == "outdoor"
        assert out.active_filter == "KF" and out.pf is None and out.kf is not None
        assert out.kf.heading == tracker.pose.heading

    def test_outdoor_to_indoor_reseeds_pf_at_crossing(self):
        from seamloc.crossing import SwitchEvent

        tracker = make_tracker("outdoor")
        point = Point2(1.5, -0.25)
        ev = SwitchEvent(step_index=9, door_id="front", crossing_point=point, from_env="outdoor", to_env="indoor")
        out = on_switch(tracker, ev, PfConfig(init_sigma=0.0), KfConfig())
        assert out.environment == "indoor"
        assert out.active_filter == "PF" and out.kf is None
        assert np.allclose(out.pf.positions, [point.x, point.y])

    def test_mismatched_environment_rejected(self):
        from seamloc.crossing import SwitchEvent

        tracker = make_tracker("indoor")
        ev = SwitchEvent(step_index=7, door_id="front", crossing_point=Point2(0, 0), from_env="outdoor", to_env="indoor")
        with pytest.raises(StateInconsistencyError):
            on_switch(tracker, ev, PfConfig(), KfConfig())
