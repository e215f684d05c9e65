"""Planar geometry: points, segments, crossing zones, wall tests.

Everything is double precision in a local Cartesian frame (meters). Whether
a step touches a segment, a door's zone or a wall, is decided by one rule:
the exact orientation signs of _straddle, with no tolerance.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError, InvariantViolation


@dataclass(frozen=True)
class Point2:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvariantViolation("point-finite", f"({self.x}, {self.y})")


@dataclass(frozen=True)
class Segment2:
    a: Point2
    b: Point2

    def __post_init__(self):
        if self.a.x == self.b.x and self.a.y == self.b.y:
            raise InvariantViolation("segment-positive-length", f"degenerate at {self.a}")


@dataclass(frozen=True)
class Door:
    id: str
    center: Point2
    tangent: tuple[float, float]  # along the wall: kept within 1e-9 of unit length, normalized up to 1e-6 off
    inner_env: str
    outer_env: str

    def __post_init__(self):
        norm = math.hypot(*self.tangent)
        if not abs(norm - 1.0) <= 1e-6:  # NaN fails too
            raise InvariantViolation("door-tangent-unit", f"|tangent| = {norm} beyond 1e-6 of unit, door {self.id}")
        if abs(norm - 1.0) > 1e-9:
            warnings.warn(f"door {self.id}: tangent normalized ({norm})")
            object.__setattr__(self, "tangent", (self.tangent[0] / norm, self.tangent[1] / norm))
        if self.inner_env == self.outer_env:
            raise InvariantViolation("door-distinct-env", f"door {self.id}: both sides {self.inner_env!r}")

    def other_side(self, env: str) -> str:
        return self.outer_env if env == self.inner_env else self.inner_env


# The largest |coordinate| of a wall end or door centre, in m. Within it, _straddle's
# products stay under 8e200 and segment_intersection's under 4e300: none overflows.
PLAN_LIMIT = 1e100
# The largest step length, crossing-zone width and particle filter sigma (initial spread,
# step, heading) that a config takes. A normal draw stays under 10 sigma, so a step moves
# a particle at most 1.1e51 m and turns it at most 1e51 rad, whose cos and sin are finite;
# a walk of fewer than 1e48 steps from within PLAN_LIMIT stays within 2e100 m, where
# _straddle's products stay under 4e201 and segment_intersection's under 7e301.
CONFIG_LIMIT = 1e50


@dataclass(frozen=True)
class FloorPlan:
    """Wall segments plus door annotations; optional start-pose annotation."""

    walls: tuple[Segment2, ...]
    doors: tuple[Door, ...]
    start_position: Point2 | None = None
    start_heading: float | None = None
    start_environment: str | None = None

    def __post_init__(self):
        if (self.start_position, self.start_heading, self.start_environment).count(None) not in (0, 3):
            raise InvariantViolation("start-whole", "position, heading and environment together", record=("start", -1))
        if self.start_heading is not None and not math.isfinite(self.start_heading):
            raise InvariantViolation("heading-finite", f"start heading {self.start_heading}", record=("start", -1))
        for key, group in (("wall", [(w.a, w.b) for w in self.walls]), ("door", [(d.center,) for d in self.doors])):
            for k, points in enumerate(group):
                if not all(abs(p.x) <= PLAN_LIMIT and abs(p.y) <= PLAN_LIMIT for p in points):
                    where = " to ".join(f"({p.x}, {p.y})" for p in points)
                    raise InvariantViolation("plan-coordinate-range", f"{key} {where} beyond {PLAN_LIMIT:g} m", record=(key, k))
        ids = [door.id for door in self.doors]  # the crossing machine looks doors up by id
        for k, door_id in enumerate(ids):
            if door_id in ids[:k]:
                raise InvariantViolation("door-id-unique", f"door {door_id} repeats an id", record=("door", k))

    def wall_array(self) -> np.ndarray:
        """The read-only (10, M) wall table that _segments_cross reads (_wall_table).

        Built on first call and cached on the instance outside the dataclass
        fields, so equality, hashing and repr see only the fields.
        """
        table = self.__dict__.get("_wall_array")
        if table is None:
            table = _wall_table(np.array([[w.a.x, w.a.y, w.b.x, w.b.y] for w in self.walls]).reshape(-1, 4))
            table.flags.writeable = False
            object.__setattr__(self, "_wall_array", table)
        return table


def distance(p: Point2, q: Point2) -> float:
    return math.hypot(p.x - q.x, p.y - q.y)


def segment_intersection(l1: Segment2, l2: Segment2) -> Point2 | None:
    """Intersection point of two segments, or None.

    Decides as the particle filter's wall test, _segments_cross, does, with l1
    as the wall and l2 as the step and no tolerance: an end exactly on the
    other segment touches it, one 1e-10 m short does not. Pairs whose boxes,
    padded by _CULL_PAD, do not meet miss at once; the rest touch where
    _straddle finds them straddling off the wall's line. The point is the
    determinant form of the two-point line intersection. Parallel and
    collinear pairs yield None.
    """
    x1, y1, x2, y2 = l1.a.x, l1.a.y, l1.b.x, l1.b.y
    x3, y3, x4, y4 = l2.a.x, l2.a.y, l2.b.x, l2.b.y
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if den == 0.0:
        return None
    if (
        max(x1, x2) < min(x3, x4) - _CULL_PAD
        or min(x1, x2) > max(x3, x4) + _CULL_PAD
        or max(y1, y2) < min(y3, y4) - _CULL_PAD
        or min(y1, y2) > max(y3, y4) + _CULL_PAD
    ):
        return None
    if not _straddle((x1, y1, x2, y2, x2 - x1, y2 - y1), (x3, x4, y3, y4))[0]:
        return None
    det12 = x1 * y2 - y1 * x2
    det34 = x3 * y4 - y3 * x4
    return Point2(
        (det12 * (x3 - x4) - (x1 - x2) * det34) / den,
        (det12 * (y3 - y4) - (y1 - y2) * det34) / den,
    )


def zone_for_door(door: Door, width: float) -> Segment2:
    """Crossing-zone segment of the given width centered on the door, along the wall."""
    if width <= 0:
        raise InvalidParameterError(f"zone width must be positive, got {width}")
    half = 0.5 * width
    tx, ty = door.tangent
    return Segment2(
        Point2(door.center.x - half * tx, door.center.y - half * ty),
        Point2(door.center.x + half * tx, door.center.y + half * ty),
    )


# Margin around each bounding box of the box tests, in meters. Far above the
# rounding of the orientation products at plan coordinates, so no wall it
# drops can pass the orientation test.
_CULL_PAD = 1e-6
# Upper bound on the elements of one (walls, N) box test and so on the pairs it
# gathers. On a 2-core x86 VM, 2**18 ran 10,000 steps over 1000 scattered walls
# in 25 ms against 54, but holds 8x the memory where every pair survives.
_BLOCK_ELEMENTS = 1 << 15


def _straddle(wall, steps) -> tuple[np.ndarray, np.ndarray]:
    """Element-wise (straddle off the wall's line, straddle on it) of wall rows
    x1 y1 x2 y2 dx dy and step rows x0 x1 y0 y1."""
    (x1, y1, x2, y2, wdx, wdy), (qx0, qx1, qy0, qy1) = wall, steps
    dx, dy = qx1 - qx0, qy1 - qy0
    d1 = wdx * (qy0 - y1) - wdy * (qx0 - x1)
    d2 = wdx * (qy1 - y1) - wdy * (qx1 - x1)
    d3 = dx * (y1 - qy0) - dy * (x1 - qx0)
    d4 = dx * (y2 - qy0) - dy * (x2 - qx0)
    # Straddle by signs: a product such as d1 * d2 underflows to 0 for subnormals.
    # min <= 0 <= max holds when one is <= 0 and the other >= 0; a NaN fails it.
    straddle = (np.minimum(d1, d2) <= 0) & (np.maximum(d1, d2) >= 0)
    straddle &= (np.minimum(d3, d4) <= 0) & (np.maximum(d3, d4) >= 0)
    collinear = straddle & (d1 == 0) & (d2 == 0)
    return straddle ^ collinear, collinear


def _wall_table(walls: np.ndarray) -> np.ndarray:
    """The (10, M) table of (M, 4) walls: rows x1 y1 x2 y2 dx dy, box lows x y, box highs x y."""
    w = walls.T
    return np.concatenate([w, w[2:] - w[:2], np.minimum(w[:2], w[2:]), np.maximum(w[:2], w[2:])])


def _segments_cross(p0: np.ndarray, p1: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Vectorized inclusive segment-vs-walls test.

    p0, p1: (N, 2) step endpoints; table: the (10, M) wall table of _wall_table,
    as FloorPlan.wall_array() caches it.
    Returns an (N,) bool mask: True where the step segment touches any wall.

    Walls whose bounding box misses the box of all steps, padded by
    _CULL_PAD, are dropped. The boxes of the K kept walls are compared with
    each step's own padded box in (block, N) blocks of max(1,
    _BLOCK_ELEMENTS // N) walls. The surviving (wall, step) pairs, gathered
    in row-major order, run the orientation test, and those on the wall's
    line run the collinear-overlap test. Each pair is decided on its own,
    by segment_intersection's rule: it touches only where the wall's box and
    the step's padded box meet, and there by element-wise formulas alone.
    So a step's entry depends on that step and the walls only, bit for bit
    that of testing every wall one at a time.
    The padding is far above the rounding of the products, so the boxes drop
    no pair that the orientation signs report, save where the products
    underflow: a step that misses a subnormal wall can have d1 = 0.
    """
    n = p0.shape[0]
    hit = np.zeros(n, dtype=bool)
    if n == 0 or table.shape[1] == 0:
        return hit
    # Steps as rows x0, x1, y0, y1, and their padded boxes. A step box with a
    # NaN edge fails every comparison, so a NaN step hits nothing; the cloud
    # box skips such boxes (fmin/fmax).
    step = np.empty((4, n))
    step[0::2], step[1::2] = p0.T, p1.T
    slx, sly = sl = np.minimum(step[0::2], step[1::2]) - _CULL_PAD
    shx, shy = sh = np.maximum(step[0::2], step[1::2]) + _CULL_PAD
    (lx, ly), (hx, hy) = np.fmin.reduce(sl, axis=1), np.fmax.reduce(sh, axis=1)
    wall = table[:, (table[8] >= lx) & (table[9] >= ly) & (table[6] <= hx) & (table[7] <= hy)]
    block = max(1, _BLOCK_ELEMENTS // n)
    for start in range(0, wall.shape[1], block):
        wlx, wly, whx, why = wall[6:, start : start + block, None]
        close = (whx >= slx) & (wlx <= shx) & (why >= sly) & (wly <= shy)
        # Pairs in row-major order: wall values repeat, step values gather. Each wall's
        # count is a binary search of flat, not a count_nonzero over all of close.
        flat, first = np.flatnonzero(close), np.arange(0, close.size + 1, n)
        bounds = flat.searchsorted(first)
        counts = bounds[1:] - bounds[:-1]
        i = flat - first[:-1].repeat(counts)
        # pairs stays bound until the next block: freed early, glibc returns and re-faults its
        # pages (1024 x 4096 dense comb, 2-core VM, median of 10 runs: 348 ms against 167).
        pairs = wall[:6, start : start + block].repeat(counts, axis=1)
        pair_steps = step.take(i, axis=1)
        crossing, collinear = _straddle(pairs, pair_steps)
        # compress, not a boolean index: it does not branch on each element.
        hit[i.compress(crossing)] = True
        if not collinear.any():
            continue
        # Collinear: 1D overlap of the step's projections onto the wall, times its squared
        # length (dividing by it fails where it underflows, under ~1e-154 m).
        x1, y1, _, _, wdx, wdy = pairs.compress(collinear, axis=1)
        qx0, qx1, qy0, qy1 = pair_steps.compress(collinear, axis=1)
        t0, t1 = (qx0 - x1) * wdx + (qy0 - y1) * wdy, (qx1 - x1) * wdx + (qy1 - y1) * wdy
        hit[i.compress(collinear)[(np.maximum(t0, t1) >= 0) & (np.minimum(t0, t1) <= wdx * wdx + wdy * wdy)]] = True
    return hit
