"""RSS fingerprinting: radio map storage and NN/KNN/WKNN position estimation."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidInputError, InvalidParameterError, InvariantViolation
from .geometry import Point2

MODES = ("NN", "KNN", "WKNN")


def dbm_reading(tx: str, dbm: float) -> tuple[str, float]:
    """(tx, dbm) of a reading in [-120, 0] dBm, the rule of map and observation
    alike; NaN and infinities fail it."""
    if not -120.0 <= dbm <= 0.0:
        raise InvariantViolation("fingerprint-dbm-range", f"{tx}: {dbm} dBm outside [-120, 0]")
    return tx, dbm


@dataclass(frozen=True)
class Fingerprint:
    position: Point2
    rss: dict[str, float]  # transmitter id -> dBm

    def __post_init__(self):
        if not self.rss:
            raise InvariantViolation("fingerprint-nonempty", "no RSS entries")
        for reading in self.rss.items():
            dbm_reading(*reading)


@dataclass(frozen=True)
class RadioMap:
    entries: tuple[Fingerprint, ...]

    def __post_init__(self):
        if not self.entries:
            raise InvariantViolation("radiomap-nonempty", "no reference points")

    @property
    def transmitters(self) -> tuple[str, ...]:
        seen: dict[str, None] = {}
        for fp in self.entries:
            for tx in fp.rss:
                seen.setdefault(tx)
        return tuple(seen)


@dataclass(frozen=True)
class WknnConfig:
    k: int = 3
    mode: str = "WKNN"
    missing_rss_floor: float = -100.0

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if self.mode not in MODES:
            raise InvalidParameterError(f"mode must be one of {MODES}")
        if not -120.0 <= self.missing_rss_floor <= 0.0:
            raise InvalidParameterError(f"missing_rss_floor must be in [-120, 0] dBm, got {self.missing_rss_floor}")


def rss_distance(
    observed: dict[str, float], reference: dict[str, float], floor: float = WknnConfig.missing_rss_floor
) -> float:
    """Euclidean distance over the union of transmitter ids.

    Missing readings on either side take the floor value.
    """
    keys = set(observed) | set(reference)
    if not keys:
        raise InvalidInputError("both RSS maps are empty")
    acc = 0.0
    for key in keys:
        diff = observed.get(key, floor) - reference.get(key, floor)
        acc += diff * diff
    return math.sqrt(acc)


def estimate_position(observed: dict[str, float], radio_map: RadioMap, cfg: WknnConfig = WknnConfig()) -> Point2:
    """NN/KNN/WKNN position estimate against a radio map.

    Distances are RSS-space Euclidean; the K nearest reference points get
    weights 1/d (WKNN) or 1 (KNN), the rest weight zero, and the estimate is
    the weighted mean of their positions. NN forces K = 1. Ties at the K-th
    rank break by ascending insertion index. An exact RSS match (d = 0 among
    the nearest) returns that reference position directly. Observed readings
    follow the radio map's dBm rule, so every distance and weight is finite.
    """
    for reading in observed.items():
        dbm_reading(*reading)
    m = len(radio_map.entries)
    k = 1 if cfg.mode == "NN" else cfg.k
    if k > m:
        raise InvalidParameterError(f"k = {k} exceeds radio map size {m}")
    distances = [rss_distance(observed, fp.rss, cfg.missing_rss_floor) for fp in radio_map.entries]
    order = sorted(range(m), key=lambda i: (distances[i], i))
    nearest = order[:k]
    for i in nearest:
        if distances[i] == 0.0:
            return radio_map.entries[i].position
    weights = [1.0 / distances[i] if cfg.mode == "WKNN" else 1.0 for i in nearest]
    total = sum(weights)
    wx = wy = 0.0
    for i, w in zip(nearest, weights):
        wx += (w / total) * radio_map.entries[i].position.x
        wy += (w / total) * radio_map.entries[i].position.y
    return Point2(wx, wy)
