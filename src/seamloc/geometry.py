"""Planar geometry: points, segments, crossing zones, wall tests.

Everything is double precision in a local Cartesian frame (meters), with a
1e-9 m tolerance on inclusion tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvariantViolation

TOL = 1e-9


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvariantViolation("point-finite", f"({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class Segment2:
    a: Point2
    b: Point2

    def __post_init__(self):
        if self.a.x == self.b.x and self.a.y == self.b.y:
            raise InvariantViolation("segment-positive-length", f"degenerate at {self.a}")

    @property
    def length(self) -> float:
        return math.hypot(self.b.x - self.a.x, self.b.y - self.a.y)

    def midpoint(self) -> Point2:
        return Point2(0.5 * (self.a.x + self.b.x), 0.5 * (self.a.y + self.b.y))


@dataclass(frozen=True)
class Door:
    id: str
    center: Point2
    tangent: tuple[float, float]  # unit vector along the wall
    inner_env: str
    outer_env: str

    def __post_init__(self):
        norm = math.hypot(*self.tangent)
        if abs(norm - 1.0) > TOL:
            raise InvariantViolation("door-tangent-unit", f"door {self.id}: |tangent| = {norm}")
        if self.inner_env == self.outer_env:
            raise InvariantViolation("door-distinct-env", f"door {self.id}: both sides {self.inner_env!r}")

    def other_side(self, env: str) -> str:
        return self.outer_env if env == self.inner_env else self.inner_env


@dataclass(frozen=True)
class CrossingZone:
    door_id: str
    segment: Segment2


@dataclass(frozen=True)
class FloorPlan:
    """Wall segments plus door annotations; optional start-pose annotation."""

    walls: tuple[Segment2, ...]
    doors: tuple[Door, ...]
    start_position: Point2 | None = None
    start_heading: float | None = None
    start_environment: str | None = None

    def wall_array(self) -> np.ndarray:
        """Walls as an (M, 4) array of x1, y1, x2, y2 rows.

        Built on first call and cached on the instance outside the dataclass
        fields, so equality and hashing still see only the fields. The
        cached array is read-only; copy it before changing it.
        """
        cached = self.__dict__.get("_wall_array")
        if cached is None:
            cached = np.array([[w.a.x, w.a.y, w.b.x, w.b.y] for w in self.walls]).reshape(-1, 4)
            cached.flags.writeable = False
            object.__setattr__(self, "_wall_array", cached)
        return cached


def distance(p: Point2, q: Point2) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def _within_segment(p: Point2, seg: Segment2, tol: float = TOL) -> bool:
    # Metric check along the segment axis; p is already on the supporting line.
    dx, dy = seg.b.x - seg.a.x, seg.b.y - seg.a.y
    length = math.hypot(dx, dy)
    s = ((p.x - seg.a.x) * dx + (p.y - seg.a.y) * dy) / length
    return -tol <= s <= length + tol


def segment_intersection(l1: Segment2, l2: Segment2) -> Point2 | None:
    """Intersection point of two segments, or None.

    Evaluates the determinant form of the two-point line intersection for the
    supporting lines, then keeps the point only if it lies within both
    segments (inclusive, 1e-9 m). Parallel and collinear pairs yield None.
    """
    x1, y1, x2, y2 = l1.a.x, l1.a.y, l1.b.x, l1.b.y
    x3, y3, x4, y4 = l2.a.x, l2.a.y, l2.b.x, l2.b.y
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if den == 0.0:
        return None
    det12 = x1 * y2 - y1 * x2
    det34 = x3 * y4 - y3 * x4
    p = Point2(
        (det12 * (x3 - x4) - (x1 - x2) * det34) / den,
        (det12 * (y3 - y4) - (y1 - y2) * det34) / den,
    )
    if _within_segment(p, l1) and _within_segment(p, l2):
        return p
    return None


def zone_for_door(door: Door, width: float = 5.0) -> CrossingZone:
    """Crossing-zone segment of the given width centered on the door, along the wall."""
    if width <= 0:
        raise InvalidParameterError(f"zone width must be positive, got {width}")
    half = 0.5 * width
    tx, ty = door.tangent
    return CrossingZone(
        door_id=door.id,
        segment=Segment2(
            Point2(door.center.x - half * tx, door.center.y - half * ty),
            Point2(door.center.x + half * tx, door.center.y + half * ty),
        ),
    )


# Broad-phase margin around the steps' bounding box, in meters. Far above the
# rounding of the orientation products at plan coordinates, so no wall it
# drops can pass the narrow phase.
_CULL_PAD = 1e-6
# Upper bound on the elements of one (K, N) narrow-phase temporary: 256 KiB
# of float64, so a block's working set stays in cache. On a 2-core x86 VM,
# blocks of 2**18 elements ran 1.6-1.8x slower on clouds spanning 1000 walls.
_BLOCK_ELEMENTS = 1 << 15


def _segments_cross(p0: np.ndarray, p1: np.ndarray, walls: np.ndarray) -> np.ndarray:
    """Vectorized inclusive segment-vs-walls test.

    p0, p1: (N, 2) step endpoints; walls: (M, 4) rows x1, y1, x2, y2.
    Returns an (N,) bool mask: True where the step segment touches any wall.

    Broad phase: only walls whose bounding box overlaps the bounding box of
    all step endpoints, padded by _CULL_PAD, are tested; a wall outside it
    cannot touch any step. Narrow phase: the four orientation products and
    the straddle test run as (K, N) broadcasts over the K kept walls, taken
    in blocks of at most max(1, _BLOCK_ELEMENTS // N) walls so that no
    temporary grows to M x N. Only walls with a step lying exactly on their
    line go on to the collinear-overlap test, one wall at a time, because its
    BLAS dot products may round differently when batched. The element-wise
    formulas are those of a per-wall test, so the mask is bit-for-bit the
    same as testing every wall one at a time.
    """
    n = p0.shape[0]
    hit = np.zeros(n, dtype=bool)
    if n == 0 or walls.shape[0] == 0:
        return hit
    # fmin/fmax skip NaN rows, which can hit no wall, so they cannot hide
    # the walls near the other steps.
    lo = np.fmin(np.fmin.reduce(p0), np.fmin.reduce(p1)) - _CULL_PAD
    hi = np.fmax(np.fmax.reduce(p0), np.fmax.reduce(p1)) + _CULL_PAD
    wall_lo = np.minimum(walls[:, :2], walls[:, 2:])
    wall_hi = np.maximum(walls[:, :2], walls[:, 2:])
    near = walls[np.all((wall_hi >= lo) & (wall_lo <= hi), axis=1)]

    # Walls run down the rows and steps along the columns, so the inner
    # loop of every broadcast is a contiguous run over the N steps.
    d = p1 - p0
    px0, py0 = np.ascontiguousarray(p0.T)
    px1, py1 = np.ascontiguousarray(p1.T)
    dx, dy = np.ascontiguousarray(d.T)
    block = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, near.shape[0], block):
        w = near[start : start + block]
        x1, y1, x2, y2 = w[:, 0:1], w[:, 1:2], w[:, 2:3], w[:, 3:4]
        wdx, wdy = x2 - x1, y2 - y1
        # Orientation cross products for the straddle test, shape (K, N).
        d1 = wdx * (py0 - y1) - wdy * (px0 - x1)
        d2 = wdx * (py1 - y1) - wdy * (px1 - x1)
        d3 = dx * (y1 - py0) - dy * (x1 - px0)
        d4 = dx * (y2 - py0) - dy * (x2 - px0)
        # Straddle by signs: a product such as d1 * d2 underflows to 0 for subnormals.
        straddle = ((d1 <= 0) & (d2 >= 0)) | ((d1 >= 0) & (d2 <= 0))
        straddle &= ((d3 <= 0) & (d4 >= 0)) | ((d3 >= 0) & (d4 <= 0))
        on_line = (d1 == 0) & (d2 == 0)
        hit |= (straddle & ~on_line).any(axis=0)
        collinear = straddle & on_line
        for k in np.flatnonzero(collinear.any(axis=1)):
            # Collinear: require 1D overlap of projections onto the wall axis.
            rows = collinear[k]
            wa = w[k, :2]
            wd = np.array([wdx[k, 0], wdy[k, 0]])
            axis = wd / np.dot(wd, wd)
            t0 = (p0[rows] - wa) @ axis
            t1 = (p1[rows] - wa) @ axis
            overlap = (np.maximum(t0, t1) >= 0) & (np.minimum(t0, t1) <= 1)
            hit[np.flatnonzero(rows)[overlap]] = True
    return hit

