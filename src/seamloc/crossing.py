"""Door-crossing detection and environment switching.

Arms when the track enters a door's crossing area, then watches two pieces
of evidence: a door-opening event from the accelerometer and a geometric
crossing of the door's zone segment by the per-step path segment. Only when
both land within a bounded number of steps of each other does the tracker
switch environments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .errors import InvalidParameterError
from .geometry import CONFIG_LIMIT, Door, Point2, Segment2, distance, segment_intersection, zone_for_door


@dataclass(frozen=True)
class CrossingConfig:
    zone_width: float = 5.0
    area_radius: float = 5.0
    coincidence_steps: int = 5

    def __post_init__(self):
        if not (self.zone_width > 0 and self.area_radius > 0 and self.coincidence_steps > 0):
            raise InvalidParameterError("crossing parameters must be positive")
        if not self.zone_width <= CONFIG_LIMIT:
            raise InvalidParameterError(f"zone_width must be at most {CONFIG_LIMIT:g}, got {self.zone_width}")


@dataclass(frozen=True)
class CrossingState:
    """Detector state; the pending evidence is the latest record of each kind."""

    environment: str
    armed_door: str | None = None  # None while idle
    last_crossing: tuple[int, Point2] | None = None  # (step index, crossing point)
    last_door_open: int | None = None  # step index


@dataclass(frozen=True)
class SwitchEvent:
    step_index: int
    door_id: str
    crossing_point: Point2
    from_env: str
    to_env: str


def build_zone_lookup(doors: tuple[Door, ...] | list[Door], cfg: CrossingConfig) -> dict[str, tuple[Door, Segment2]]:
    """Door id -> (door, crossing-zone segment of configured width)."""
    return {d.id: (d, zone_for_door(d, cfg.zone_width)) for d in doors}


def arm_check(
    state: CrossingState, pose_position: Point2, zones: Mapping[str, tuple[Door, Segment2]], cfg: CrossingConfig
) -> CrossingState:
    """Arm at the nearest door in reach (first in plan order on a tie); disarm, dropping evidence, on leaving it."""
    if state.armed_door is None:
        nearest = min((door for door, _ in zones.values()), key=lambda d: distance(pose_position, d.center), default=None)
        if nearest is not None and distance(pose_position, nearest.center) <= cfg.area_radius:
            return CrossingState(environment=state.environment, armed_door=nearest.id)
        return state
    if distance(pose_position, zones[state.armed_door][0].center) > cfg.area_radius:
        return CrossingState(environment=state.environment)
    return state


def observe_step(
    state: CrossingState,
    step_index: int,
    prev_pos: Point2,
    cur_pos: Point2,
    door_opened_now: bool,
    cfg: CrossingConfig,
    zones: Mapping[str, tuple[Door, Segment2]],
) -> tuple[CrossingState, SwitchEvent | None]:
    """Feed one step of evidence; emit a SwitchEvent on door-open/crossing coincidence.

    No-op while idle. The test |crossing step - door-open step| <= coincidence_steps
    is order-independent, inclusive and the only age rule: only a step's new record
    can fire, and a record older than the window fails against it.
    """
    if state.armed_door is None:
        return state, None

    last_door_open = step_index if door_opened_now else state.last_door_open
    last_crossing = state.last_crossing
    door, zone = zones[state.armed_door]
    if (prev_pos.x, prev_pos.y) != (cur_pos.x, cur_pos.y):
        point = segment_intersection(zone, Segment2(prev_pos, cur_pos))
        if point is not None:
            last_crossing = (step_index, point)

    if (
        last_door_open is not None
        and last_crossing is not None
        and abs(last_crossing[0] - last_door_open) <= cfg.coincidence_steps
    ):
        to_env = door.other_side(state.environment)
        event = SwitchEvent(
            step_index=step_index,
            door_id=door.id,
            crossing_point=last_crossing[1],
            from_env=state.environment,
            to_env=to_env,
        )
        return CrossingState(environment=to_env), event

    return CrossingState(state.environment, state.armed_door, last_crossing, last_door_open), None

