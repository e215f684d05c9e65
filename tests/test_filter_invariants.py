"""Filter invariants after every filter call that track makes on the 16 golden walks:
particle weights finite, >= 0 and summing to 1 at every step a particle-filter run
returns; the heading KF covariance exactly symmetric and PSD; every heading in (-pi, pi]."""

import dataclasses
import math

import numpy as np
import pytest

import make_golden
from seamloc import CALIBRATED_NOISE, PipelineConfig, generate_walk, harness


def assert_wrapped(heading):
    assert -math.pi < heading <= math.pi, heading


def check_filters(monkeypatch) -> dict[str, int]:
    """Wrap harness.pf_run, kf_run and integrate_headings with the invariant checks; returns
    their call counts, and as "pf_steps" the steps that the pf_run calls returned."""
    calls = {"pf_run": 0, "pf_steps": 0, "kf_run": 0, "integrate_headings": 0}
    pf_run, kf_run, integrate_headings = harness.pf_run, harness.kf_run, harness.integrate_headings

    def checked_pf_run(*args):
        run = pf_run(*args)
        for pset, _ in run:
            w = pset.weights
            assert np.isfinite(w).all() and (w >= 0).all()
            assert abs(w.sum() - 1.0) <= 1e-12, w.sum()
        calls["pf_run"] += 1
        calls["pf_steps"] += len(run)
        return run

    def checked_kf_run(*args):
        state = kf_run(*args)
        p = state.covariance
        assert (p == p.T).all(), p
        assert np.linalg.eigvalsh(p).min() >= -1e-12, p
        assert_wrapped(state.heading)
        calls["kf_run"] += 1
        return state

    def checked_integrate_headings(*args):
        headings = integrate_headings(*args)
        for heading in headings:
            assert_wrapped(heading)
        calls["integrate_headings"] += 1
        return headings

    monkeypatch.setattr(harness, "pf_run", checked_pf_run)
    monkeypatch.setattr(harness, "kf_run", checked_kf_run)
    monkeypatch.setattr(harness, "integrate_headings", checked_integrate_headings)
    return calls


WALKS = make_golden.oracle_walks()
# Each walk with the particle filter advanced one step per pf_run call, and in runs of three.
CASES = [(*walk, 1) for walk in WALKS] + [(*walk, 3) for walk in WALKS]


@pytest.mark.parametrize("name, script, plan, seed, pf_run", CASES, ids=[w[0] for w in WALKS] + [f"{w[0]}-pf_run3" for w in WALKS])
def test_filters_keep_their_invariants_on_golden_walks(monkeypatch, name, script, plan, seed, pf_run):
    noise = dataclasses.replace(CALIBRATED_NOISE, seed=seed)
    trace, _ = generate_walk(script, noise, doors=plan.doors)
    monkeypatch.setattr(harness, "PF_RUN", pf_run)
    calls = check_filters(monkeypatch)
    path, log = harness.track(trace, plan, PipelineConfig(seed=seed))
    # One KF heading update per outdoor step; indoors, one heading fold per pf_run call that
    # is not the divergence retry, which reuses its call's headings. calls["pf_run"] counts
    # the runs that returned: a call that diverges is followed by its retry, which returns here.
    starts_in = [plan.start_environment, *log.environments[:-1]]
    indoor = starts_in.count("indoor")
    assert len(log.steps) > 0
    assert calls["kf_run"] == len(log.steps) - indoor
    assert calls["integrate_headings"] == calls["pf_run"]
    assert calls["pf_steps"] >= indoor
    if pf_run == 1:
        assert calls["pf_run"] >= indoor
    else:
        assert calls["pf_run"] < calls["pf_steps"] or indoor == 0
    for pose in path:
        assert_wrapped(pose.heading)
