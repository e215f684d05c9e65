"""Filter invariants after every filter call that track makes on the 16 golden walks:
particle weights finite, >= 0 and summing to 1; the heading KF covariance exactly
symmetric and PSD; every heading in (-pi, pi]."""

import dataclasses
import math

import numpy as np
import pytest

import make_golden
from seamloc import CALIBRATED_NOISE, PipelineConfig, generate_walk, harness


def assert_wrapped(heading):
    assert -math.pi < heading <= math.pi, heading


def check_filters(monkeypatch) -> dict[str, int]:
    """Wrap harness.pf_step, kf_run and integrate_heading with the invariant checks; returns their call counts."""
    calls = {"pf_step": 0, "kf_run": 0, "integrate_heading": 0}
    pf_step, kf_run, integrate_heading = harness.pf_step, harness.kf_run, harness.integrate_heading

    def checked_pf_step(*args):
        pset, position = pf_step(*args)
        w = pset.weights
        assert np.isfinite(w).all() and (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-12, w.sum()
        calls["pf_step"] += 1
        return pset, position

    def checked_kf_run(*args):
        state = kf_run(*args)
        p = state.covariance
        assert (p == p.T).all(), p
        assert np.linalg.eigvalsh(p).min() >= -1e-12, p
        assert_wrapped(state.heading)
        calls["kf_run"] += 1
        return state

    def checked_integrate_heading(*args):
        heading = integrate_heading(*args)
        assert_wrapped(heading)
        calls["integrate_heading"] += 1
        return heading

    monkeypatch.setattr(harness, "pf_step", checked_pf_step)
    monkeypatch.setattr(harness, "kf_run", checked_kf_run)
    monkeypatch.setattr(harness, "integrate_heading", checked_integrate_heading)
    return calls


WALKS = make_golden.oracle_walks()


@pytest.mark.parametrize("name, script, plan, seed", WALKS, ids=[w[0] for w in WALKS])
def test_filters_keep_their_invariants_on_golden_walks(monkeypatch, name, script, plan, seed):
    noise = dataclasses.replace(CALIBRATED_NOISE, seed=seed)
    trace, _ = generate_walk(script, noise, doors=plan.doors)
    calls = check_filters(monkeypatch)
    path, log = harness.track(trace, plan, PipelineConfig(seed=seed))
    # One heading update per step, from the back-end of the environment the step starts in.
    assert calls["kf_run"] + calls["integrate_heading"] == len(log.steps) > 0
    assert calls["pf_step"] >= calls["integrate_heading"]
    for pose in path:
        assert_wrapped(pose.heading)
