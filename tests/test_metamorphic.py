"""Metamorphic properties of the whole pipeline: transformations of good input
that mean nothing to the walk must leave track's answer as it was.

The walks are 15 crossing and 5 turn-back scenario_suite walks on
two_building_plan under CALIBRATED_NOISE. Each property is one test.
"""

import dataclasses
import math

import numpy as np
import pytest

from seamloc import CALIBRATED_NOISE, PipelineConfig, scenario_suite, track, two_building_plan
from seamloc.geometry import distance
from seamloc.formats import load_floorplan, load_trace, save_floorplan, save_trace

PLAN = two_building_plan()

# Poses of a trace whose times are shifted by an offset stay within this many ulps of the
# offset, in metres and radians: these walks measured 94 (positions) and 25 (headings)
# at offsets of 1e3, 1e6 and 1e9 s.
POSE_ULPS = 200


@pytest.fixture(scope="module")
def walks():
    """(trace, track's (poses, log) on PLAN) of each walk."""
    return [(trace, track(trace, PLAN)) for trace, _ in scenario_suite(PLAN, 20, CALIBRATED_NOISE, crossing_fraction=0.75)]


def test_walks_switch_and_hold_no_door_tie(walks):
    # arm_check takes the first door in plan order on a tie; no pose of these walks is one.
    radius = PipelineConfig().crossing.area_radius
    a, b = (door.center for door in PLAN.doors)
    for _, (poses, _) in walks:
        assert not any(distance(p.position, a) == distance(p.position, b) <= radius for p in poses)
    assert sum(len(log.switches) for _, (_, log) in walks) == 2 * 15


@pytest.mark.parametrize("order", ["walls", "doors", "both", "both through files"])
def test_plan_record_order_leaves_the_track_bit_identical(walks, tmp_path, order):
    plan = dataclasses.replace(
        PLAN,
        walls=PLAN.walls[::-1] if order != "doors" else PLAN.walls,
        doors=PLAN.doors[::-1] if order != "walls" else PLAN.doors,
    )
    if order.endswith("files"):
        save_floorplan(plan, tmp_path / "plan.txt")
        plan = load_floorplan(tmp_path / "plan.txt")
        assert plan.walls == PLAN.walls[::-1] and plan.doors == PLAN.doors[::-1]
    for trace, tracked in walks:
        assert repr(track(trace, plan)) == repr(tracked)  # repr: every float's bits, -0.0 included


def near(shifted, t, offset):
    """The shifted time shifted back is the original time, to the rounding of original + offset."""
    return abs((shifted - offset) - t) <= np.spacing(offset + abs(t))


@pytest.mark.parametrize("through_files", [False, True], ids=["direct", "through files"])
@pytest.mark.parametrize("offset", [1e3, 1e6, 1e9])
def test_time_offset_keeps_events_and_poses_within_its_ulps(walks, tmp_path, offset, through_files):
    bound = POSE_ULPS * np.spacing(offset)
    for trace, (poses, log) in walks:
        shifted = dataclasses.replace(trace, t=trace.t + offset)
        if through_files:
            save_trace(shifted, tmp_path / "trace.csv")
            shifted = load_trace(tmp_path / "trace.csv")
            assert shifted.t.tobytes() == (trace.t + offset).tobytes()
        got_poses, got = track(shifted, PLAN)
        assert [s.index for s in got.steps] == [s.index for s in log.steps]
        assert all(near(s2.t, s.t, offset) for s2, s in zip(got.steps, log.steps))
        assert [d.zero_crossings for d in got.door_opens] == [d.zero_crossings for d in log.door_opens]
        for d2, d in zip(got.door_opens, log.door_opens):
            assert near(d2.t_start, d.t_start, offset) and near(d2.t_end, d.t_end, offset)
        assert [(s.step_index, s.door_id, s.from_env, s.to_env) for s in got.switches] == [
            (s.step_index, s.door_id, s.from_env, s.to_env) for s in log.switches
        ]
        assert all(distance(s2.crossing_point, s.crossing_point) <= bound for s2, s in zip(got.switches, log.switches))
        assert got.environments == log.environments and len(got_poses) == len(poses)
        for p2, p in zip(got_poses, poses):
            assert distance(p2.position, p.position) <= bound
            assert abs(math.remainder(p2.heading - p.heading, math.tau)) <= bound
