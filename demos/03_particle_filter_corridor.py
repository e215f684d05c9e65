"""Indoor correction: a wall-aware particle filter against raw dead reckoning.

A pedestrian walks 30 m down a 2 m corridor with a biased gyro. Raw PDR
curves into the wall; particles that would cross a wall are eliminated, so
the filtered estimate stays in the corridor.
"""

import math

import numpy as np

from seamloc import (
    FilterDivergenceError,
    FloorPlan,
    NoiseModel,
    PdrConfig,
    PfConfig,
    Point2,
    Pose,
    Segment2,
    WalkScript,
    detect_steps,
    generate_walk,
    normalized_series,
    pf_init,
    pf_step,
    run_pdr,
)
from seamloc.pdr import heading_series, step_samples

corridor = FloorPlan(
    walls=(Segment2(Point2(-2, -1), Point2(35, -1)), Segment2(Point2(-2, 1), Point2(35, 1))),
    doors=(),
)
script = WalkScript(waypoints=(Point2(0, 0), Point2(30, 0)))
pf_cfg = PfConfig(init_sigma=0.2)
pdr_cfg = PdrConfig(initial_pose=Pose(Point2(0, 0), 0.0))

pf_errs, pdr_errs = [], []
pf_path = pdr_path = None
for seed in range(8):
    noise = NoiseModel(accel_sigma=0.05, gyro_sigma=0.01, gyro_bias=0.015, mag_sigma=0.5, seed=seed)
    trace, truth = generate_walk(script, noise)
    t, a = normalized_series(trace)
    steps = detect_steps(t, a)
    final = truth.final_position

    poses = run_pdr(trace, steps, pdr_cfg)
    pdr_errs.append(math.hypot(poses[-1].position.x - final.x, poses[-1].position.y - final.y))

    psi = heading_series(trace, pdr_cfg)
    pset = pf_init(pdr_cfg.initial_pose, pf_cfg, seed=seed)
    est = pdr_cfg.initial_pose.position
    estimates = []
    for i in step_samples(trace, steps):
        h = psi[i]
        try:
            pset, est = pf_step(pset, h, pf_cfg, pdr_cfg, corridor)
        except FilterDivergenceError:
            # The cloud got pinned against a wall: restart it at the last fix.
            pset = pf_init(Pose(est, h), pf_cfg, seed=seed + 1000)
            pset, est = pf_step(pset, h, pf_cfg, pdr_cfg, corridor)
        estimates.append(est)
    pf_errs.append(math.hypot(est.x - final.x, est.y - final.y))
    if seed == 0:
        pf_path = estimates
        pdr_path = poses

print("final-position error over 8 seeds [m]:")
print(f"  raw PDR        : {np.mean(pdr_errs):5.2f} mean   {np.min(pdr_errs):.2f}..{np.max(pdr_errs):.2f}")
print(f"  particle filter: {np.mean(pf_errs):5.2f} mean   {np.min(pf_errs):.2f}..{np.max(pf_errs):.2f}")

try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    fig, ax = plt.subplots(figsize=(10, 3))
    ax.axhline(1, color="k"), ax.axhline(-1, color="k")
    ax.plot([p.position.x for p in pdr_path], [p.position.y for p in pdr_path], "r.-", ms=3, lw=0.8, label="raw PDR")
    ax.plot([p.x for p in pf_path], [p.y for p in pf_path], "b.-", ms=3, lw=0.8, label="particle filter")
    ax.plot([0, 30], [0, 0], "g--", lw=1, label="true path")
    ax.set_xlabel("x [m]"), ax.set_ylabel("y [m]")
    ax.legend(loc="upper left")
    fig.tight_layout()
    fig.savefig("demo03_corridor.png", dpi=120)
    print("wrote demo03_corridor.png")
except ImportError:
    print("matplotlib not available; skipping plot")
