import math
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from seamloc import (
    Door,
    FloorPlan,
    InvalidParameterError,
    InvariantViolation,
    PipelineConfig,
    Point2,
    Segment2,
    WalkScript,
    generate_walk,
    segment_intersection,
    track,
)
from seamloc import filters, geometry, harness
from seamloc.geometry import _segments_cross, _wall_table, zone_for_door


def parametric_oracle(l1, l2):
    """Independent oracle: solve a + t(b-a) = c + s(d-c), accept t, s in [0, 1]."""
    a = np.array([l1.a.x, l1.a.y])
    b = np.array([l1.b.x, l1.b.y])
    c = np.array([l2.a.x, l2.a.y])
    d = np.array([l2.b.x, l2.b.y])
    m = np.column_stack([b - a, c - d])
    try:
        ts = np.linalg.solve(m, c - a)
    except np.linalg.LinAlgError:
        return None
    t, s = ts
    if 0.0 <= t <= 1.0 and 0.0 <= s <= 1.0:
        return a + t * (b - a)
    return None


def random_segment(rng):
    while True:
        coords = rng.uniform(-10, 10, 4)
        if (coords[0], coords[1]) != (coords[2], coords[3]):
            return Segment2(Point2(coords[0], coords[1]), Point2(coords[2], coords[3]))


class TestSegmentIntersection:
    def test_perpendicular_bisectors(self):
        p = segment_intersection(
            Segment2(Point2(0, -2.5), Point2(0, 2.5)),
            Segment2(Point2(-1, 0), Point2(1, 0)),
        )
        assert p is not None
        assert abs(p.x) < 1e-12 and abs(p.y) < 1e-12

    def test_diagonal_symmetry(self):
        p = segment_intersection(
            Segment2(Point2(0, 0), Point2(2, 2)),
            Segment2(Point2(0, 2), Point2(2, 0)),
        )
        assert p is not None
        assert abs(p.x - 1.0) < 1e-12 and abs(p.y - 1.0) < 1e-12

    def test_parallel_returns_none(self):
        assert (
            segment_intersection(
                Segment2(Point2(0, 0), Point2(1, 0)),
                Segment2(Point2(0, 1), Point2(1, 1)),
            )
            is None
        )

    def test_collinear_overlap_returns_none(self):
        assert (
            segment_intersection(
                Segment2(Point2(0, 0), Point2(2, 0)),
                Segment2(Point2(1, 0), Point2(3, 0)),
            )
            is None
        )

    def test_disjoint_on_supporting_lines(self):
        # Supporting lines cross at the origin, outside both segments.
        assert (
            segment_intersection(
                Segment2(Point2(1, 1), Point2(2, 2)),
                Segment2(Point2(-1, 1), Point2(-2, 2)),
            )
            is None
        )

    def test_symmetry(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            l1, l2 = random_segment(rng), random_segment(rng)
            p = segment_intersection(l1, l2)
            q = segment_intersection(l2, l1)
            assert (p is None) == (q is None)
            if p is not None:
                assert math.hypot(p.x - q.x, p.y - q.y) < 1e-9

    def test_translation_equivariance(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            l1, l2 = random_segment(rng), random_segment(rng)
            dx, dy = rng.uniform(-5, 5, 2)
            shift = lambda s: Segment2(Point2(s.a.x + dx, s.a.y + dy), Point2(s.b.x + dx, s.b.y + dy))
            p = segment_intersection(l1, l2)
            q = segment_intersection(shift(l1), shift(l2))
            assert (p is None) == (q is None)
            if p is not None:
                assert math.hypot(p.x + dx - q.x, p.y + dy - q.y) < 1e-9

    def test_resubstitution_parameters_in_range(self):
        rng = np.random.default_rng(9)
        for _ in range(300):
            l1, l2 = random_segment(rng), random_segment(rng)
            p = segment_intersection(l1, l2)
            if p is None:
                continue
            for seg in (l1, l2):
                dx, dy = seg.b.x - seg.a.x, seg.b.y - seg.a.y
                t = ((p.x - seg.a.x) * dx + (p.y - seg.a.y) * dy) / (dx * dx + dy * dy)
                length = math.hypot(dx, dy)
                assert -1e-9 <= t * length <= length + 1e-9


class TestZoneForDoor:
    door = Door(id="d", center=Point2(10, 5), tangent=(1.0, 0.0), inner_env="indoor", outer_env="outdoor")

    def test_default_five_meter_zone(self):
        assert zone_for_door(self.door, 5.0) == Segment2(Point2(7.5, 5.0), Point2(12.5, 5.0))

    def test_door_width_zone(self):
        door = Door(id="d", center=Point2(0, 0), tangent=(0.0, 1.0), inner_env="in", outer_env="out")
        zone = zone_for_door(door, 0.9)
        assert abs(zone.a.y + 0.45) < 1e-12
        assert abs(zone.b.y - 0.45) < 1e-12

    def test_negative_width_rejected(self):
        with pytest.raises(InvalidParameterError):
            zone_for_door(self.door, -1.0)

    def test_midpoint_and_length(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cx, cy = rng.uniform(-20, 20, 2)
            angle = rng.uniform(-math.pi, math.pi)
            width = rng.uniform(0.1, 10)
            door = Door(
                id="d", center=Point2(cx, cy), tangent=(math.cos(angle), math.sin(angle)),
                inner_env="a", outer_env="b",
            )
            zone = zone_for_door(door, width)
            mid_x, mid_y = 0.5 * (zone.a.x + zone.b.x), 0.5 * (zone.a.y + zone.b.y)
            assert math.hypot(mid_x - cx, mid_y - cy) < 1e-9
            assert abs(math.hypot(zone.b.x - zone.a.x, zone.b.y - zone.a.y) - width) < 1e-9


def step_hits_walls(step, plan):
    """The wall test the particle filter runs, for one step segment."""
    p0 = np.array([[step.a.x, step.a.y]])
    p1 = np.array([[step.b.x, step.b.y]])
    return bool(_segments_cross(p0, p1, plan.wall_array())[0])


class TestWalls:
    def test_step_through_wall(self):
        plan = FloorPlan(walls=(Segment2(Point2(0, -1), Point2(0, 1)),), doors=())
        assert step_hits_walls(Segment2(Point2(-0.5, 0), Point2(0.5, 0)), plan)

    def test_step_inside_empty_room(self):
        plan = FloorPlan(
            walls=(
                Segment2(Point2(0, 0), Point2(10, 0)),
                Segment2(Point2(10, 0), Point2(10, 10)),
                Segment2(Point2(10, 10), Point2(0, 10)),
                Segment2(Point2(0, 10), Point2(0, 0)),
            ),
            doors=(),
        )
        assert not step_hits_walls(Segment2(Point2(4, 4), Point2(5, 5)), plan)

    def test_step_through_doorway_gap(self):
        # Wall along x = 0 with a 0.9 m gap centered at y = 0.
        gap_walls = (
            Segment2(Point2(0, -5), Point2(0, -0.45)),
            Segment2(Point2(0, 0.45), Point2(0, 5)),
        )
        plan = FloorPlan(walls=gap_walls, doors=())
        step = Segment2(Point2(-0.5, 0.0), Point2(0.5, 0.0))
        assert not step_hits_walls(step, plan)
        # Oracle: the step would intersect neither wall piece individually.
        for wall in gap_walls:
            assert parametric_oracle(step, wall) is None
        # The same step off the gap hits.
        assert step_hits_walls(Segment2(Point2(-0.5, 1.0), Point2(0.5, 1.0)), plan)


class TestTypeInvariants:
    def test_point_must_be_finite(self):
        with pytest.raises(InvariantViolation):
            Point2(float("nan"), 0.0)

    def test_segment_positive_length(self):
        with pytest.raises(InvariantViolation):
            Segment2(Point2(1, 1), Point2(1, 1))

    def test_door_tangent_unit(self):
        with pytest.raises(InvariantViolation):
            Door(id="d", center=Point2(0, 0), tangent=(1.0, 1.0), inner_env="a", outer_env="b")

    def test_door_tangent_nan_rejected(self):
        # abs(nan - 1) > tol is False: the rule must be written so that NaN fails it.
        with pytest.raises(InvariantViolation, match="door-tangent-unit"):
            Door(id="d", center=Point2(0, 0), tangent=(float("nan"), 1.0), inner_env="a", outer_env="b")

    def test_door_distinct_environments(self):
        with pytest.raises(InvariantViolation):
            Door(id="d", center=Point2(0, 0), tangent=(1.0, 0.0), inner_env="a", outer_env="a")

    def test_plan_coordinates_within_the_limit(self):
        # A wall at 1e200 m overflowed the wall test's products, and tracking went on with warnings.
        edge, past = geometry.PLAN_LIMIT, math.nextafter(geometry.PLAN_LIMIT, math.inf)
        walls = (Segment2(Point2(0, 0), Point2(1, 0)), Segment2(Point2(-edge, edge), Point2(edge, -edge)))
        door = Door(id="d", center=Point2(-edge, edge), tangent=(1.0, 0.0), inner_env="a", outer_env="b")
        assert FloorPlan(walls=walls, doors=(door,)).walls == walls
        for bad_walls, doors, record in [
            ((walls[0], Segment2(Point2(0, 0), Point2(0, -past))), (), ("wall", 1)),
            ((Segment2(Point2(-1e200, -1e200), Point2(1e200, 1e200)),), (), ("wall", 0)),
            (walls, (door, Door(id="e", center=Point2(past, 0), tangent=(1.0, 0.0), inner_env="a", outer_env="b")), ("door", 1)),
        ]:
            with pytest.raises(InvariantViolation, match="^plan-coordinate-range: ") as got:
                FloorPlan(walls=bad_walls, doors=doors)
            assert got.value.record == record

    def test_door_ids_unique(self):
        # The crossing machine looks doors up by id: a repeated id would hide a door.
        doors = [
            Door(id=door_id, center=Point2(x, 0), tangent=(1.0, 0.0), inner_env="a", outer_env="b")
            for door_id, x in zip("ded", (0, 4, 8))
        ]
        with pytest.raises(InvariantViolation, match="door-id-unique: door d") as got:
            FloorPlan(walls=(), doors=tuple(doors))
        assert got.value.record == ("door", 2)
        assert len(FloorPlan(walls=(), doors=tuple(doors[:2])).doors) == 2

    @pytest.mark.parametrize("fields", [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)])
    def test_start_is_whole_or_absent(self, fields):
        # A start record holds position, heading and environment: the tracker and the plan file need all three.
        whole = (("start_position", Point2(0, 0)), ("start_heading", 0.0), ("start_environment", "indoor"))
        start = dict(whole[k] for k in fields)
        with pytest.raises(InvariantViolation, match="start-whole") as got:
            FloorPlan(walls=(), doors=(), **start)
        assert got.value.record == ("start", -1)


def per_wall_oracle(p0, p1, walls):
    """Reference wall test: one numpy pass per wall, no cloud box, no blocks.

    A pair touches only where the wall's box and the step's box, padded by
    geometry._CULL_PAD, meet: the per-pair rule of segment_intersection. Signs
    alone would report a touch far from a subnormal wall, where the
    orientation products underflow to 0.
    """
    n = p0.shape[0]
    hit = np.zeros(n, dtype=bool)
    d = p1 - p0
    (blx, bly), (bhx, bhy) = (np.minimum(p0, p1) - geometry._CULL_PAD).T, (np.maximum(p0, p1) + geometry._CULL_PAD).T
    for x1, y1, x2, y2 in walls:
        close = (blx <= max(x1, x2)) & (bhx >= min(x1, x2)) & (bly <= max(y1, y2)) & (bhy >= min(y1, y2))
        wd = np.array([x2 - x1, y2 - y1])
        d1 = wd[0] * (p0[:, 1] - y1) - wd[1] * (p0[:, 0] - x1)
        d2 = wd[0] * (p1[:, 1] - y1) - wd[1] * (p1[:, 0] - x1)
        d3 = d[:, 0] * (y1 - p0[:, 1]) - d[:, 1] * (x1 - p0[:, 0])
        d4 = d[:, 0] * (y2 - p0[:, 1]) - d[:, 1] * (x2 - p0[:, 0])
        # Signs, not products: d1 * d2 underflows to 0 for subnormal values.
        straddle = ((d1 <= 0) & (d2 >= 0)) | ((d1 >= 0) & (d2 <= 0))
        straddle &= ((d3 <= 0) & (d4 >= 0)) | ((d3 >= 0) & (d4 <= 0))
        hit |= straddle & close & ~((d1 == 0) & (d2 == 0))
        # Collinear: projections onto the wall, scaled by its squared length, not divided by it.
        t0 = (p0[:, 0] - x1) * wd[0] + (p0[:, 1] - y1) * wd[1]
        t1 = (p1[:, 0] - x1) * wd[0] + (p1[:, 1] - y1) * wd[1]
        overlap = (np.maximum(t0, t1) >= 0) & (np.minimum(t0, t1) <= wd[0] * wd[0] + wd[1] * wd[1])
        hit |= straddle & close & (d1 == 0) & (d2 == 0) & overlap
    return hit


def assert_same_mask(p0, p1, walls):
    got = _segments_cross(p0, p1, _wall_table(walls))
    want = per_wall_oracle(p0, p1, walls)
    assert got.dtype == bool and got.shape == (p0.shape[0],)
    assert np.array_equal(got, want)
    return got


# Half-metre grid values make exact touches and collinear pairs common;
# free floats cover the generic case.
coord = st.one_of(st.integers(-8, 8).map(lambda k: 0.5 * k), st.floats(-5.0, 5.0))
cloud = st.integers(1, 25).flatmap(lambda n: st.tuples(arrays(float, (n, 2), elements=coord), arrays(float, (n, 2), elements=coord)))
wall_rows = st.integers(1, 20).flatmap(lambda m: arrays(float, (m, 4), elements=coord)).filter(
    lambda w: bool(np.all((w[:, 0] != w[:, 2]) | (w[:, 1] != w[:, 3])))
)


def dense_comb():
    """(p0, p1, walls) of a dense comb: 1024 steps of 50 m across 4096 walls 1 mm wide."""
    n, m = 1024, 4096
    rng = np.random.default_rng(9)
    xs = np.sort(rng.uniform(0.5, 49.5, m))
    walls = np.column_stack([xs, np.full(m, -30.0), xs + 0.001, np.full(m, 30.0)])
    p0 = np.column_stack([np.zeros(n), rng.uniform(-10, 10, n)])
    p1 = p0 + np.column_stack([np.full(n, 50.0), rng.uniform(-1, 1, n)])
    return p0, p1, walls


class TestSegmentsCrossOracle:
    @settings(max_examples=300, deadline=None)
    @given(cloud, wall_rows)
    # A subnormal wall beside a zero-length step: d1 * d2 underflows to 0 there.
    @example((np.zeros((1, 2)), np.zeros((1, 2))), np.array([[0.5, 0.0, 0.5, 2.2250738585072014e-308]]))
    # The cloud's box meets no wall: no block runs.
    @example((np.array([[0.0, 0.0], [1.0, -1.0]]), np.array([[1.0, 1.0], [-1.0, 0.5]])), np.array([[4.0, -4.0, 4.0, 4.0], [-3.0, 2.0, 3.0, 2.0]]))
    def test_random_clouds_match_oracle(self, steps, walls):
        assert_same_mask(steps[0], steps[1], walls)

    def test_subnormal_wall_far_from_a_step_is_not_touched(self):
        # The step stops 0.5 m short of x = 0, but d1 = 5e-324 * 0.5 underflows to 0:
        # signs alone put it on the wall's line. The boxes do not meet, so no touch.
        p0, p1, walls = np.array([[-0.5, 0.0]]), np.array([[-1.0, 0.0]]), np.array([[0.0, 0.0, 0.0, 5e-324]])
        assert not assert_same_mask(p0, p1, walls).any()
        assert segment_intersection(Segment2(Point2(0.0, 0.0), Point2(0.0, 5e-324)), Segment2(Point2(-0.5, 0.0), Point2(-1.0, 0.0))) is None
        with mock.patch.object(geometry, "_BLOCK_ELEMENTS", 8):
            assert not _segments_cross(p0, p1, plan_of(walls).wall_array()).any()

    def test_collinear_and_crossing_pairs_in_one_block(self):
        # Step 0 overlaps wall 0 along its line, step 1 crosses both walls,
        # step 2 lies on wall 0's line beyond it and step 3 touches nothing.
        p0 = np.array([[-1.0, 0.0], [0.5, -1.0], [2.5, 0.0], [1.5, 0.5]])
        p1 = np.array([[0.5, 0.0], [0.5, 1.0], [3.0, 0.0], [1.5, 0.8]])
        walls = np.array([[0.0, 0.0, 2.0, 0.0], [0.25, -1.0, 0.75, 1.0]])
        assert assert_same_mask(p0, p1, walls).tolist() == [True, True, False, False]
        # One wall per block: the collinear pass runs in the first block only.
        with mock.patch.object(geometry, "_BLOCK_ELEMENTS", 4):
            assert assert_same_mask(p0, p1, walls).tolist() == [True, True, False, False]

    @settings(max_examples=100, deadline=None)
    @given(wall_rows, st.data())
    def test_endpoints_on_walls_match_oracle(self, walls, data):
        # Step endpoints exactly at wall endpoints and wall midpoints.
        picks = data.draw(st.lists(st.integers(0, len(walls) - 1), min_size=1, max_size=20))
        ends = np.array([[walls[k, 0], walls[k, 1]] for k in picks])
        mids = np.array([[0.5 * (walls[k, 0] + walls[k, 2]), 0.5 * (walls[k, 1] + walls[k, 3])] for k in picks])
        starts = data.draw(arrays(float, (len(picks), 2), elements=coord))
        hit = assert_same_mask(starts, ends, walls)
        assert hit.all()
        assert_same_mask(mids, starts, walls)

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, -1.0)]),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-6, 6),
        st.integers(-6, 6),
    )
    def test_collinear_steps_match_oracle(self, direction, w0, w1, s0, s1):
        # Wall and step on one line through the origin: overlapping,
        # touching at one point, or disjoint, depending on the parameters.
        ux, uy = direction
        if w0 == w1:
            w1 = w0 + 1
        walls = np.array([[w0 * ux, w0 * uy, w1 * ux, w1 * uy]])
        p0 = np.array([[s0 * ux, s0 * uy]])
        p1 = np.array([[s1 * ux, s1 * uy]])
        hit = assert_same_mask(p0, p1, walls)
        overlaps = max(s0, s1) >= min(w0, w1) and min(s0, s1) <= max(w0, w1)
        assert hit[0] == overlaps

    @pytest.mark.parametrize("length", [1e-294, 1e-160, 1e-150])
    def test_step_on_a_wall_too_short_to_square(self, length):
        # The wall's squared length underflows to 0 or to a subnormal; a
        # collinear step at its start still touches it.
        walls = np.array([[0.0, 0.0, 0.0, length]])
        p0 = np.array([[0.0, 0.0], [0.0, -1.0], [1.0, 0.0]])
        p1 = np.array([[0.0, 0.0], [0.0, -0.5], [1.0, 1.0]])
        hit = assert_same_mask(p0, p1, walls)
        assert hit.tolist() == [True, False, False]

    @settings(max_examples=100, deadline=None)
    @given(arrays(float, (12, 2), elements=coord), wall_rows)
    def test_zero_length_steps_match_oracle(self, points, walls):
        assert_same_mask(points, points.copy(), walls)

    @pytest.mark.parametrize("gap", [0.0, 0.5e-6, 1e-6, 1.5e-6, 1e-3])
    def test_walls_at_the_padded_box_edge(self, gap):
        # The steps span x, y in [0, 1]; walls lie `gap` beyond each side.
        p0 = np.array([[0.0, 0.0], [0.0, 1.0], [0.2, 0.5]])
        p1 = np.array([[1.0, 1.0], [1.0, 0.0], [0.7, 0.5]])
        walls = np.array(
            [
                [1.0 + gap, -1.0, 1.0 + gap, 2.0],
                [-gap, -1.0, -gap, 2.0],
                [-1.0, 1.0 + gap, 2.0, 1.0 + gap],
                [-1.0, -gap, 2.0, -gap],
                [1.0 + gap, 1.0 + gap, 3.0, 3.0],
            ]
        )
        hit = assert_same_mask(p0, p1, walls)
        assert hit.any() == (gap == 0.0)

    def test_step_clearing_a_wall_by_a_subnormal_gap_misses(self):
        # Every orientation product underflows to 0 here; the signs show the
        # step passes 1e-170 m above the wall.
        walls = np.array([[-1.0, -1e-170, 1.0, -1e-170]])
        hit = assert_same_mask(np.array([[0.0, 0.0]]), np.array([[0.5, 0.0]]), walls)
        assert not hit[0]

    def test_nan_step_hides_no_wall(self):
        p0 = np.array([[0.0, 0.0], [np.nan, 0.0]])
        p1 = np.array([[2.0, 0.0], [1.0, 1.0]])
        walls = np.array([[1.0, -1.0, 1.0, 1.0]])
        assert assert_same_mask(p0, p1, walls).tolist() == [True, False]

    def test_empty_inputs(self):
        assert _segments_cross(np.empty((0, 2)), np.empty((0, 2)), _wall_table(np.array([[0.0, 0.0, 1.0, 0.0]]))).shape == (0,)
        assert not _segments_cross(np.zeros((3, 2)), np.ones((3, 2)), _wall_table(np.empty((0, 4)))).any()

    @settings(max_examples=50, deadline=None)
    @given(cloud, wall_rows)
    def test_small_blocks_match_oracle(self, steps, walls):
        # With a tiny block bound every plan spans several blocks.
        with mock.patch.object(geometry, "_BLOCK_ELEMENTS", 8):
            assert_same_mask(steps[0], steps[1], walls)

    def test_plan_larger_than_one_block(self):
        # 1000 particles over 1000 scattered walls: many blocks at the real bound.
        rng = np.random.default_rng(4)
        walls = np.concatenate(
            [rng.uniform(-10, 10, (1000, 2)), np.zeros((1000, 2))], axis=1
        )
        walls[:, 2:] = walls[:, :2] + rng.normal(0.0, 0.5, (1000, 2))
        p0 = rng.uniform(-10, 10, (1000, 2))
        p1 = p0 + rng.normal(0.0, 0.75, (1000, 2))
        assert 1000 > geometry._BLOCK_ELEMENTS // 1000
        hit = assert_same_mask(p0, p1, walls)
        assert 0 < hit.sum() < 1000

    def test_temporaries_do_not_grow_with_walls(self):
        # One (N, M) float array here would be 32 MiB; blocks keep the peak
        # to a few (block, N) arrays.
        n, m = 1024, 4096
        rng = np.random.default_rng(6)
        xs = rng.uniform(-20, 20, m)
        walls = np.column_stack([xs, rng.uniform(-20, 20, m), xs + 0.01, rng.uniform(-20, 20, m)])
        p0 = rng.uniform(-20, 20, (n, 2))
        p1 = p0 + 0.75
        tracemalloc.start()
        try:
            _segments_cross(p0, p1, _wall_table(walls))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8 // 4

    def test_every_pair_surviving_the_step_boxes_matches_oracle(self):
        # Every (wall, step) pair of the dense comb survives the per-step box
        # and runs the orientation test. Blocks keep the peak as above.
        n, m = 1024, 4096
        p0, p1, walls = dense_comb()
        assert np.minimum(p0, p1)[:, 0].max() <= walls[:, 0].min() and np.maximum(p0, p1)[:, 0].min() >= walls[:, 2].max()
        assert np.maximum(p0, p1)[:, 1].max() <= 30.0 and np.minimum(p0, p1)[:, 1].min() >= -30.0
        tracemalloc.start()
        try:
            got = _segments_cross(p0, p1, _wall_table(walls))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8 // 4
        assert np.array_equal(got, per_wall_oracle(p0, p1, walls))
        assert got.all()

    @pytest.mark.skipif(sys.platform != "linux", reason="counts minor page faults as Linux reports them")
    def test_dense_comb_keeps_its_pages_between_blocks(self):
        # pairs stays bound until the next block. Freed early, glibc returns its
        # pages and faults them in again at every block: about 123,000 minor
        # faults per call against 1,300 (2-core x86 VM).
        import resource

        p0, p1, walls = dense_comb()
        table = _wall_table(walls)
        _segments_cross(p0, p1, table)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _segments_cross(p0, p1, table)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 30_000


class TestStepBoxes:
    """The per-step box: walls inside the cloud's box that one step's own box misses."""

    @pytest.mark.parametrize("gap", [0.0, 0.5e-6, 1e-6, 1.5e-6, 1e-3])
    def test_walls_at_the_padded_step_box_edge(self, gap):
        # The first step spans x in [0, 1] at y = 0; the walls lie `gap`
        # beyond each side of it, two of them parallel to it. The other two
        # steps stretch the cloud's box over every wall and touch none.
        p0 = np.array([[0.0, 0.0], [-3.0, 6.0], [-3.0, -6.0]])
        p1 = np.array([[1.0, 0.0], [4.0, 6.0], [4.0, -6.0]])
        walls = np.array(
            [
                [1.0 + gap, -1.0, 1.0 + gap, 1.0],
                [-gap, -1.0, -gap, 1.0],
                [0.0, gap, 1.0, gap],
                [0.2, -gap, 0.8, -gap],
                [1.0 + gap, gap, 3.0, 2.0],
            ]
        )
        ends = np.concatenate([p0, p1])
        assert (walls[:, 0::2].min() >= ends[:, 0].min()) and (walls[:, 0::2].max() <= ends[:, 0].max())
        assert (walls[:, 1::2].min() >= ends[:, 1].min()) and (walls[:, 1::2].max() <= ends[:, 1].max())
        for k in range(len(walls)):
            hit = assert_same_mask(p0, p1, walls[k : k + 1])
            assert hit.tolist() == [gap == 0.0, False, False]
        assert_same_mask(p0, p1, walls)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 20).flatmap(lambda n: st.tuples(arrays(float, (n, 2), elements=coord), arrays(float, (n, 2), elements=coord))),
        st.integers(10, 60).flatmap(
            lambda m: st.tuples(
                arrays(float, (m, 2), elements=coord),
                arrays(float, (m, 2), elements=st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5])),
            )
        ),
    )
    def test_long_steps_over_short_walls_in_small_blocks_match_oracle(self, steps, pieces):
        # Steps metres long over many walls at most 0.71 m long, some on the
        # half-metre grid with the step ends. A block bound of 8 elements
        # holds one wall per block once there are more than 8 steps.
        starts, offsets = pieces
        walls = np.concatenate([starts, starts + offsets], axis=1)
        walls = walls[np.any(offsets != 0, axis=1)]
        with mock.patch.object(geometry, "_BLOCK_ELEMENTS", 8):
            assert_same_mask(steps[0], steps[1], walls)

    def test_collinear_rows_match_oracle_when_step_boxes_drop_some(self):
        # Zero-length steps on a wall's line, one at its far end and the
        # rest beyond it, where the step boxes drop them.
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(300):
            wa, wb = rng.uniform(-5, 5, 2), rng.uniform(-5, 5, 2)
            wd = wb - wa
            beyond = [wa + k * wd for k in (-4.0, -3.0, -2.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
            on_line = [p for p in beyond if wd[0] * (p[1] - wa[1]) - wd[1] * (p[0] - wa[0]) == 0]
            if not on_line:
                continue
            points = np.array([wb, *on_line])
            assert_same_mask(points, points.copy(), np.array([[*wa, *wb]]))
            checked += 1
        assert checked > 100


class TestWallArray:
    plan = FloorPlan(
        walls=(Segment2(Point2(0, 0), Point2(1, 0)), Segment2(Point2(1, 0), Point2(1, 2))),
        doors=(),
    )

    def test_values_and_cache(self):
        # The wall table: its first four rows are the walls' x1 y1 x2 y2.
        a = self.plan.wall_array()
        assert a[:4].T.tolist() == [[0.0, 0.0, 1.0, 0.0], [1.0, 0.0, 1.0, 2.0]]
        assert a.shape == (10, 2) and not a.flags.writeable
        assert self.plan.wall_array() is a
        assert np.array_equal(a, _wall_table(a[:4].T))

    def test_cached_array_is_read_only(self):
        with pytest.raises(ValueError):
            self.plan.wall_array()[0, 0] = 5.0
        with pytest.raises(ValueError):
            self.plan.wall_array()[4, 0] = 5.0

    def test_empty_plan(self):
        assert FloorPlan(walls=(), doors=()).wall_array().shape == (10, 0)

    def test_equality_and_hash_ignore_the_cache(self):
        twin = FloorPlan(walls=self.plan.walls, doors=())
        self.plan.wall_array()
        assert "_wall_array" not in twin.__dict__
        assert twin == self.plan and hash(twin) == hash(self.plan)
        assert repr(twin) == repr(self.plan) and "array" not in repr(self.plan)

    def test_track_builds_the_table_once_per_plan(self, monkeypatch):
        # An indoor walk down a corridor: the particle filter tests the walls
        # once per pf_run call, and only the first test builds the table. Run
        # one step at a time, it tests them at every step; in runs of three,
        # less often, and every step's segments are still tested.
        def corridor():
            return FloorPlan(
                walls=(Segment2(Point2(-2, -1), Point2(35, -1)), Segment2(Point2(-2, 1), Point2(35, 1))),
                doors=(),
                start_position=Point2(0.0, 0.0),
                start_heading=0.0,
                start_environment="indoor",
            )

        trace, _ = generate_walk(WalkScript(waypoints=(Point2(0, 0), Point2(10, 0)), start_environment="indoor"))
        monkeypatch.setattr(harness, "PF_RUN", 1)
        single = repr(track(trace, corridor(), PipelineConfig()))
        for pf_run in (1, 3):
            build = mock.Mock(wraps=geometry._wall_table)
            wall_test = mock.Mock(wraps=geometry._segments_cross)
            monkeypatch.setattr(geometry, "_wall_table", build)
            monkeypatch.setattr(filters, "_segments_cross", wall_test)
            monkeypatch.setattr(harness, "PF_RUN", pf_run)
            path, log = track(trace, corridor(), PipelineConfig())
            if pf_run == 1:
                assert len(log.steps) > 10 and wall_test.call_count == len(log.steps)
            else:
                tested = sum(len(c.args[0]) for c in wall_test.call_args_list) // PipelineConfig().pf.particle_count
                assert tested >= len(log.steps) > wall_test.call_count
            assert build.call_count == 1
            assert repr((path, log)) == single
def plan_of(walls: np.ndarray) -> FloorPlan:
    return FloorPlan(walls=tuple(Segment2(Point2(*w[:2]), Point2(*w[2:])) for w in walls.tolist()), doors=())


class TestWallTablePaths:
    """The table a plan caches and the one _wall_table builds of the same rows give one mask."""

    @pytest.mark.parametrize("block", [geometry._BLOCK_ELEMENTS, 8])
    @settings(max_examples=50, deadline=None)
    @given(steps=cloud, walls=wall_rows)
    def test_cached_and_built_tables_match_oracle(self, block, steps, walls):
        with mock.patch.object(geometry, "_BLOCK_ELEMENTS", block):
            from_plan = _segments_cross(*steps, plan_of(walls).wall_array())
            built = _segments_cross(*steps, _wall_table(walls))
        assert np.array_equal(from_plan, per_wall_oracle(*steps, walls))
        assert np.array_equal(built, from_plan)


def on_line(seg, t):
    """The point a + t (b - a) of seg's line; exact for grid ends and dyadic t."""
    return Point2(seg.a.x + t * (seg.b.x - seg.a.x), seg.a.y + t * (seg.b.y - seg.a.y))


def segments(ends):
    return ends.filter(lambda e: e[:2] != e[2:]).map(lambda e: Segment2(Point2(*e[:2]), Point2(*e[2:])))


segment = segments(st.tuples(coord, coord, coord, coord))
# Vertical and horizontal segments on the half-metre grid.
grid = st.integers(-8, 8).map(lambda k: 0.5 * k)
axis_segment = st.one_of(
    segments(st.tuples(grid, grid, grid).map(lambda v: (v[0], v[1], v[0], v[2]))),
    segments(st.tuples(grid, grid, grid).map(lambda v: (v[1], v[0], v[2], v[0]))),
)
dyadic = st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0, 1.5, 2.0])


@st.composite
def touching_pairs(draw):
    """(zone, step) with an end of one exactly on the other's line, or both axis-aligned, or free."""
    kind = draw(st.sampled_from(["step end on zone line", "zone end on step line", "axis", "free"]))
    if kind == "axis":
        return draw(axis_segment), draw(axis_segment)
    zone, step = draw(segment), draw(segment)
    end = on_line(zone, draw(dyadic)) if kind == "step end on zone line" else on_line(step, draw(dyadic))
    if kind == "step end on zone line" and (end.x, end.y) != (step.b.x, step.b.y):
        step = Segment2(step.b, end) if draw(st.booleans()) else Segment2(end, step.b)
    elif kind == "zone end on step line" and (end.x, end.y) != (zone.b.x, zone.b.y):
        zone = Segment2(zone.b, end)
    return zone, step


class TestOneTouchRule:
    """segment_intersection and the particle filter's wall test agree on every pair off one line."""

    @settings(max_examples=500, deadline=None)
    @given(touching_pairs())
    # A step ending 1e-10 m short of the zone touches neither.
    @example((Segment2(Point2(10.0, 1.5), Point2(10.0, 6.5)), Segment2(Point2(9.0, 4.0), Point2(10.0 - 1e-10, 4.0))))
    # A step ending exactly on the zone touches both.
    @example((Segment2(Point2(10.0, 1.5), Point2(10.0, 6.5)), Segment2(Point2(9.0, 4.0), Point2(10.0, 4.0))))
    def test_zone_test_matches_wall_test(self, pair):
        # Collinear here: the lines' determinant is 0 (segment_intersection has
        # no point then) or both step ends lie on the zone's line.
        zone, step = pair
        wdx, wdy = zone.b.x - zone.a.x, zone.b.y - zone.a.y
        sdx, sdy = step.b.x - step.a.x, step.b.y - step.a.y
        on_zone_line = [wdx * (p.y - zone.a.y) - wdy * (p.x - zone.a.x) == 0 for p in (step.a, step.b)]
        assume(wdx * sdy - wdy * sdx != 0 and not all(on_zone_line))
        touches = segment_intersection(zone, step) is not None
        assert touches == step_hits_walls(step, FloorPlan(walls=(zone,), doors=()))


@st.composite
def clouds_on_wall_lines(draw):
    """(p0, p1, walls), the walls of wall_rows. Each step has free coord ends, or lies on a
    wall's line with ends at multiples of half the wall from its start, of zero length at times."""
    walls = draw(wall_rows)
    ends = []
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["free", "on a line", "a point on a line"]))
        if kind == "free":
            ends.append([draw(coord) for _ in range(4)])
            continue
        x1, y1, x2, y2 = walls[draw(st.integers(0, len(walls) - 1))]
        s0 = 0.5 * draw(st.integers(-6, 6))
        s1 = s0 if kind == "a point on a line" else 0.5 * draw(st.integers(-6, 6))
        ends.append([x1 + s0 * (x2 - x1), y1 + s0 * (y2 - y1), x1 + s1 * (x2 - x1), y1 + s1 * (y2 - y1)])
    ends = np.array(ends)
    return ends[:, :2], ends[:, 2:], walls


class TestEachStepOnItsOwn:
    """A step's mask entry depends on that step and the walls, not on the rest of the cloud."""

    @settings(max_examples=200, deadline=None)
    @given(clouds_on_wall_lines())
    # A subnormal wall with a step on its line: the step off its box stays a miss.
    @example((np.array([[-0.4, -0.4], [0.0, 0.0]]), np.array([[-0.3, -0.3], [0.0, 0.0]]), np.array([[0.0, 0.0, 0.0, 5e-324]])))
    def test_mask_entry_is_the_step_tested_alone(self, cloud):
        p0, p1, walls = cloud
        table = _wall_table(walls)
        alone = [_segments_cross(p0[k : k + 1], p1[k : k + 1], table)[0] for k in range(len(p0))]
        assert _segments_cross(p0, p1, table).tolist() == alone

    def test_subnormal_wall_beside_a_step_on_its_line(self):
        p0, p1 = np.array([[-0.4, -0.4], [0.0, 0.0]]), np.array([[-0.3, -0.3], [0.0, 0.0]])
        assert assert_same_mask(p0, p1, np.array([[0.0, 0.0, 0.0, 5e-324]])).tolist() == [False, True]

    def test_step_on_a_walls_far_end_touches_beside_steps_beyond_it(self):
        # Zero-length steps, one exactly on the wall's far end, the rest on its line beyond
        # either end. Its projection is the wall's squared length, by the same formula.
        wa, wb = np.array([1.2509546660466695, 3.9721380096957546]), np.array([2.7568569024519354, -2.7479281000940814])
        wd = wb - wa
        beyond = [wa + k * wd for k in (-4.0, -3.0, -2.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
        points = np.array([wb, *(p for p in beyond if wd[0] * (p[1] - wa[1]) - wd[1] * (p[0] - wa[0]) == 0)])
        assert len(points) == 4
        hit = _segments_cross(points, points.copy(), _wall_table(np.array([[*wa, *wb]])))
        assert hit.tolist() == [True, False, False, False]
