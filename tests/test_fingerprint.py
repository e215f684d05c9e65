import math

import numpy as np
import pytest

from seamloc import (
    Fingerprint,
    InvalidInputError,
    InvalidParameterError,
    InvariantViolation,
    Point2,
    RadioMap,
    WknnConfig,
    estimate_position,
)
from seamloc.fingerprint import rss_distance


def brute_force_estimate(observed, radio_map, k, mode, floor=-100.0):
    """Direct weighted-average oracle: full sort, explicit weight vector."""
    m = len(radio_map.entries)
    if mode == "NN":
        k = 1
    dists = []
    for fp in radio_map.entries:
        keys = set(observed) | set(fp.rss)
        d = math.sqrt(sum((observed.get(t, floor) - fp.rss.get(t, floor)) ** 2 for t in keys))
        dists.append(d)
    order = sorted(range(m), key=lambda i: (dists[i], i))
    selected = order[:k]
    for i in selected:
        if dists[i] == 0.0:
            return radio_map.entries[i].position
    weights = [0.0] * m
    for i in selected:
        weights[i] = 1.0 / dists[i] if mode == "WKNN" else 1.0
    total = sum(weights)
    x = sum(w * fp.position.x for w, fp in zip(weights, radio_map.entries)) / total
    y = sum(w * fp.position.y for w, fp in zip(weights, radio_map.entries)) / total
    return Point2(x, y)


def seeded_radio_map(seed=2024, m=50, n_tx=5):
    rng = np.random.default_rng(seed)
    txs = [f"ap{i}" for i in range(n_tx)]
    entries = []
    for _ in range(m):
        pos = Point2(float(rng.uniform(0, 40)), float(rng.uniform(0, 25)))
        rss = {tx: float(rng.uniform(-90, -30)) for tx in txs}
        entries.append(Fingerprint(position=pos, rss=rss))
    return RadioMap(entries=tuple(entries)), txs, rng


class TestRssDistance:
    def test_identical_maps(self):
        assert rss_distance({"A": -50.0}, {"A": -50.0}) == 0.0

    def test_floor_cancels_missing(self):
        assert rss_distance({"A": -50.0}, {"A": -53.0, "B": -100.0}, floor=-100.0) == 3.0

    def test_three_four_five(self):
        assert rss_distance({"A": -40.0, "B": -70.0}, {"A": -43.0, "B": -74.0}) == 5.0

    def test_both_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            rss_distance({}, {})


class TestEstimatePosition:
    def test_single_entry_map(self):
        rm = RadioMap(entries=(Fingerprint(Point2(4, 7), {"A": -60.0}),))
        for mode in ("NN", "KNN", "WKNN"):
            est = estimate_position({"A": -50.0}, rm, WknnConfig(k=1, mode=mode))
            assert (est.x, est.y) == (4, 7)

    def test_equidistant_knn_centroid(self):
        rm = RadioMap(
            entries=(
                Fingerprint(Point2(0, 0), {"A": -50.0}),
                Fingerprint(Point2(2, 0), {"A": -56.0}),
            )
        )
        est = estimate_position({"A": -53.0}, rm, WknnConfig(k=2, mode="KNN"))
        assert abs(est.x - 1.0) < 1e-12 and est.y == 0.0

    def test_exact_match_returns_reference(self):
        rm, txs, _ = seeded_radio_map(seed=5)
        target = rm.entries[13]
        est = estimate_position(dict(target.rss), rm, WknnConfig(k=3, mode="WKNN"))
        assert (est.x, est.y) == (target.position.x, target.position.y)

    def test_k_larger_than_map_rejected(self):
        rm = RadioMap(entries=(Fingerprint(Point2(0, 0), {"A": -60.0}),))
        with pytest.raises(InvalidParameterError):
            estimate_position({"A": -60.0}, rm, WknnConfig(k=2, mode="KNN"))

    def test_estimate_in_bounding_box_of_selected(self):
        rm, txs, rng = seeded_radio_map(seed=31)
        for _ in range(50):
            obs = {tx: float(rng.uniform(-90, -30)) for tx in txs}
            est = estimate_position(obs, rm, WknnConfig(k=4, mode="WKNN"))
            dists = sorted(
                (rss_distance(obs, fp.rss), i) for i, fp in enumerate(rm.entries)
            )
            chosen = [rm.entries[i].position for _, i in dists[:4]]
            assert min(p.x for p in chosen) - 1e-9 <= est.x <= max(p.x for p in chosen) + 1e-9
            assert min(p.y for p in chosen) - 1e-9 <= est.y <= max(p.y for p in chosen) + 1e-9

    def test_constant_rss_offset_invariance(self):
        rm, txs, rng = seeded_radio_map(seed=8)
        obs = {tx: float(rng.uniform(-80, -40)) for tx in txs}
        shifted_map = RadioMap(
            entries=tuple(
                Fingerprint(fp.position, {t: v + 7.0 for t, v in fp.rss.items()}) for fp in rm.entries
            )
        )
        shifted_obs = {t: v + 7.0 for t, v in obs.items()}
        a = estimate_position(obs, rm, WknnConfig(k=3, mode="WKNN"))
        b = estimate_position(shifted_obs, shifted_map, WknnConfig(k=3, mode="WKNN"))
        assert math.hypot(a.x - b.x, a.y - b.y) < 1e-9

    def test_duplicating_unselected_point_invariant(self):
        rm, txs, rng = seeded_radio_map(seed=12, m=10)
        obs = {tx: float(rng.uniform(-80, -40)) for tx in txs}
        base = estimate_position(obs, rm, WknnConfig(k=3, mode="WKNN"))
        dists = sorted((rss_distance(obs, fp.rss), i) for i, fp in enumerate(rm.entries))
        worst = rm.entries[dists[-1][1]]
        extended = RadioMap(entries=rm.entries + (worst,))
        dup = estimate_position(obs, extended, WknnConfig(k=3, mode="WKNN"))
        assert (base.x, base.y) == (dup.x, dup.y)

    def test_kth_rank_tie_breaks_by_insertion_index(self):
        rm = RadioMap(
            entries=(
                Fingerprint(Point2(0, 0), {"A": -50.0}),
                Fingerprint(Point2(10, 0), {"A": -56.0}),
                Fingerprint(Point2(0, 10), {"A": -56.0}),  # same distance as entry 1
            )
        )
        est = estimate_position({"A": -52.0}, rm, WknnConfig(k=2, mode="KNN"))
        # Entry 1 wins the tie at the K-th rank, so the centroid is of entries 0 and 1.
        assert (est.x, est.y) == (5.0, 0.0)


class TestTypes:
    def test_fingerprint_requires_rss(self):
        with pytest.raises(InvariantViolation):
            Fingerprint(Point2(0, 0), {})

    def test_fingerprint_dbm_range(self):
        with pytest.raises(InvariantViolation):
            Fingerprint(Point2(0, 0), {"A": 5.0})

    def test_radiomap_nonempty(self):
        with pytest.raises(InvariantViolation):
            RadioMap(entries=())


class TestDbmRule:
    """Observations and the missing-reading floor follow the radio map's [-120, 0] dBm rule."""

    rm = RadioMap(entries=(Fingerprint(Point2(0, 0), {"ap1": -50.0}), Fingerprint(Point2(2, 0), {"ap1": -56.0})))

    @pytest.mark.parametrize("dbm", [math.inf, -math.inf, math.nan, 1e200, -1e200, 0.5, -120.5])
    def test_observed_reading_outside_the_rule_is_refused(self, dbm):
        with pytest.raises(InvariantViolation):
            estimate_position({"ap1": dbm}, self.rm, WknnConfig(k=2))

    @pytest.mark.parametrize("floor", [math.inf, math.nan, 1e200, -1e200, 0.5, -120.5])
    def test_floor_outside_the_rule_is_refused(self, floor):
        with pytest.raises(InvalidParameterError):
            WknnConfig(k=2, missing_rss_floor=floor)

    @pytest.mark.parametrize("dbm", [-120.0, 0.0])
    def test_range_ends_give_a_finite_estimate(self, dbm):
        est = estimate_position({"ap2": dbm}, self.rm, WknnConfig(k=2, missing_rss_floor=-120.0 - dbm))
        assert math.isfinite(est.x) and math.isfinite(est.y)
