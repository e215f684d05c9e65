import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seamloc import (
    CALIBRATED_NOISE,
    CrossingConfig,
    CrossingState,
    Door,
    DoorAction,
    PipelineConfig,
    Point2,
    WalkScript,
    generate_walk,
    observe_step,
    track,
    two_building_plan,
)
from seamloc.crossing import arm_check, build_zone_lookup
from seamloc.sim import TURN_BACK

CFG = CrossingConfig()
DOOR = Door(id="front", center=Point2(0, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
FAR_DOOR = Door(id="side", center=Point2(30, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
ZONES = build_zone_lookup((DOOR, FAR_DOOR), CFG)


def armed_state(env="indoor", door="front"):
    return CrossingState(environment=env, armed_door=door)


def away_segment(step):
    # Movement far from any zone.
    x = 10.0 + 0.5 * step
    return Point2(x, 10.0), Point2(x + 0.5, 10.0)


def crossing_segment():
    return Point2(-0.4, 0.3), Point2(0.4, 0.3)


class TestArmCheck:
    def test_arms_inside_area(self):
        state = CrossingState(environment="indoor")
        out = arm_check(state, Point2(3, 0), build_zone_lookup((DOOR,), CFG), CFG)
        assert out.armed_door == "front"

    def test_stays_idle_outside(self):
        state = CrossingState(environment="indoor")
        out = arm_check(state, Point2(6, 0), build_zone_lookup((DOOR,), CFG), CFG)
        assert out.armed_door is None

    def test_disarms_on_exit_and_clears_evidence(self):
        state = CrossingState(
            environment="indoor", armed_door="front",
            last_door_open=3, last_crossing=(4, Point2(0, 0)),
        )
        out = arm_check(state, Point2(6, 0), build_zone_lookup((DOOR,), CFG), CFG)
        assert out.armed_door is None
        assert out.last_door_open is None and out.last_crossing is None

    def test_nearest_door_wins(self):
        near = Door(id="near", center=Point2(3, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
        far = Door(id="far", center=Point2(-4, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
        out = arm_check(CrossingState(environment="indoor"), Point2(0, 0), build_zone_lookup((far, near), CFG), CFG)
        assert out.armed_door == "near"

    def test_equal_distance_arms_first_in_plan_order(self):
        left = Door(id="left", center=Point2(-3, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
        right = Door(id="right", center=Point2(3, 0), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")
        for doors in ((left, right), (right, left)):
            out = arm_check(CrossingState(environment="indoor"), Point2(0, 0), build_zone_lookup(doors, CFG), CFG)
            assert out.armed_door == doors[0].id

    # The arming disc around a door at (3, 4), radius 5, is inclusive: a
    # point on its rim arms an idle detector and keeps an armed one armed.
    area_door = Door(id="d", center=Point2(3, 4), tangent=(0.0, 1.0), inner_env="indoor", outer_env="outdoor")

    def armed_doors_at(self, x):
        cfg = CrossingConfig(area_radius=5.0)
        idle = arm_check(CrossingState(environment="indoor"), Point2(x, 4), build_zone_lookup((self.area_door,), cfg), cfg)
        armed = arm_check(armed_state(door="d"), Point2(x, 4), build_zone_lookup((self.area_door,), cfg), cfg)
        return idle.armed_door, armed.armed_door

    def test_arms_at_door_center(self):
        assert self.armed_doors_at(3.0) == ("d", "d")

    def test_area_boundary_inclusive(self):
        assert self.armed_doors_at(3.0 + 5.0) == ("d", "d")

    def test_idle_just_outside_area(self):
        assert self.armed_doors_at(3.0 + 5.01) == (None, None)


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
        assert state.armed_door is None and state.environment == "outdoor"

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
        zone = ZONES["front"][1]
        dx, dy = zone.b.x - zone.a.x, zone.b.y - zone.a.y
        length = math.hypot(dx, dy)
        t = ((ev.crossing_point.x - zone.a.x) * dx + (ev.crossing_point.y - zone.a.y) * dy) / (dx * dx + dy * dy)
        assert -1e-9 <= t * length <= length + 1e-9
        off = abs((ev.crossing_point.x - zone.a.x) * dy - (ev.crossing_point.y - zone.a.y) * dx) / length
        assert off < 1e-9

    def test_stale_door_open_pruned(self):
        # A door-open six steps back is out of the window for every later crossing.
        state = armed_state()
        state, _ = observe_step(state, 10, *away_segment(10), True, CFG, ZONES)
        state, ev = observe_step(state, 16, *crossing_segment(), False, CFG, ZONES)
        assert ev is None
        state, ev = observe_step(state, 17, *crossing_segment(), False, CFG, ZONES)
        assert ev is None and state.armed_door == "front"

    def test_environment_toggles_back_after_two_switches(self):
        state = armed_state(env="indoor")
        state, _ = observe_step(state, 1, *away_segment(1), True, CFG, ZONES)
        state, ev1 = observe_step(state, 2, *crossing_segment(), False, CFG, ZONES)
        assert ev1.to_env == "outdoor"
        state = arm_check(state, Point2(0.5, 0.3), ZONES, CFG)
        assert state.armed_door == "front"
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
                if state.armed_door is None:
                    break


def coincidence_reference(steps, n):
    """Steps where the rule fires: the step brings new evidence, and the latest
    door-open and the latest crossing since the last switch are at most n apart."""
    last_open = last_crossing = None
    fired = []
    for k, (opened, crossed) in enumerate(steps):
        last_open = k if opened else last_open
        last_crossing = k if crossed else last_crossing
        if (opened or crossed) and None not in (last_open, last_crossing) and abs(last_crossing - last_open) <= n:
            fired.append(k)
            last_open = last_crossing = None
    return fired


# Per step (door opened, zone crossed); mostly quiet, so evidence lands at every distance.
STEP_EVIDENCE = st.sampled_from([(False, False)] * 5 + [(True, False), (False, True), (True, True)])


class TestCoincidenceOracle:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 8), st.lists(STEP_EVIDENCE, max_size=40))
    def test_switches_match_reference(self, n, steps):
        cfg = CrossingConfig(coincidence_steps=n)
        state, fired = armed_state(), []
        for k, (opened, crossed) in enumerate(steps):
            segment = crossing_segment() if crossed else away_segment(k)
            state, ev = observe_step(state, k, *segment, opened, cfg, ZONES)
            if ev is not None:
                assert ev.step_index == k and ev.door_id == "front"
                fired.append(k)
                state = armed_state(env=state.environment)  # the door stays in reach
        assert fired == coincidence_reference(steps, n)


@pytest.mark.parametrize("step_length", [0.55, 0.60, 0.65])
def test_pause_and_turn_back_is_no_switch(step_length):
    """A walker stops 0.7 m in front of door A for 3 s and walks back. The
    tracker's 0.75 m steps carry its estimate into the door zone, so an
    opening read into the stop would switch it: under a bare sign-change door
    rule that happened on every seed at 0.55 and 0.60 m."""
    plan = two_building_plan()
    script = WalkScript(
        waypoints=(plan.start_position, Point2(9.3, 4.0), plan.start_position),
        step_length_true=step_length,
        pauses=((1, 3.0),),
        door_actions=(DoorAction(1, "doorA", TURN_BACK),),
    )
    for seed in range(5):
        trace, _ = generate_walk(script, dataclasses.replace(CALIBRATED_NOISE, seed=seed))
        _, log = track(trace, plan, PipelineConfig(seed=seed))
        assert log.door_opens == [] and log.switches == []
