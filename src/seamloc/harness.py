"""End-to-end tracking pipeline: steps and door openings, dead reckoning, the particle filter
indoors or the heading Kalman filter outdoors, and the door-crossing machine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import crossing as crossing_mod
from .crossing import CrossingConfig, CrossingState, build_zone_lookup
from .errors import FilterDivergenceError, InvalidInputError
# track calls none of kf_predict, kf_update, mag_heading and pf_step: perfbench/layers.py wraps these
# names here, and its traced run fails without them; their per-layer metrics read 0, as kf_run and
# pf_run do the work.
from .filters import KfConfig, PfConfig, kf_init, kf_predict, kf_run, kf_update, mag_heading, mag_headings, pf_init, pf_run, pf_step
# The CLI calls these loaders, writers and evaluate through this module, where perfbench/layers.py
# wraps them; the benchmark and the tests also look up EventLog, save_floorplan and save_report here.
from .formats import EventLog, load_floorplan, load_trace, load_trial, load_truth, save_events, save_floorplan, save_path, save_report, save_trace
from .geometry import FloorPlan
from .metrics import evaluate
from .pdr import PdrConfig, Pose, integrate_headings, propagate_step, step_samples, wrap_angle
from .signal import SignalConfig, Trace, detect_door_openings, detect_steps, normalized_series
from .sim import check_count


@dataclass(frozen=True)
class PipelineConfig:
    signal: SignalConfig = field(default_factory=SignalConfig)
    pdr: PdrConfig = field(default_factory=PdrConfig)
    pf: PfConfig = field(default_factory=PfConfig)
    kf: KfConfig = field(default_factory=KfConfig)
    crossing: CrossingConfig = field(default_factory=CrossingConfig)
    seed: int = 0

    def __post_init__(self):
        check_count("seed", self.seed)


# Steps that track's indoor branch hands pf_run at once, so one wall test covers them. Against
# runs of 1 at N = 1000 on indoor_walls, runs of 2, 4 and 5 gained about 5%, 14% and nothing,
# and runs of 3 about 15%: a longer run's joint cloud box keeps more walls.
PF_RUN = 3


def _backend(environment: str, pose: Pose, cfg: PipelineConfig, seed: int):
    """(pf, kf) on entering an environment at pose: the particle filter for "indoor", the heading KF for any other."""
    if environment == "indoor":
        return pf_init(pose, cfg.pf, seed=seed), None
    return None, kf_init(pose.heading)


def track(trace: Trace, plan: FloorPlan, cfg: PipelineConfig = PipelineConfig()) -> tuple[list[Pose], EventLog]:
    """Run the whole pipeline over one trace.

    Steps and door openings come from the normalized acceleration; heading is
    gyro-integrated (indoors) or Kalman-corrected with the magnetometer
    (outdoors); position advances per step through the active back-end; the
    crossing state machine arms near doors and switches environments.

    The tracker's state is the loop's locals: position, heading, the crossing
    state (which holds the environment) and the back-end, exactly one of the
    particle filter pf (indoors) and the heading filter kf (elsewhere).
    """
    t, a = normalized_series(trace, cfg.signal)
    steps = detect_steps(t, a, cfg.signal)
    door_opens = detect_door_openings(t, a, cfg.signal, steps)
    log = EventLog(steps=steps, door_opens=door_opens)

    if plan.start_position is None:  # FloorPlan holds a whole start or none
        raise InvalidInputError("floor plan lacks a start annotation (position, heading, environment)")
    position, heading = plan.start_position, wrap_angle(plan.start_heading)
    cstate = CrossingState(environment=plan.start_environment)
    pf, kf = _backend(cstate.environment, Pose(position, heading), cfg, cfg.seed)
    zones = build_zone_lookup(plan.doors, cfg.crossing)

    mag_z = increments = None  # built on first use: dts, rates and mag_z for the KF, increments indoors
    ahead = []  # indoors: (heading, (set, estimate)) of the steps that the last pf_run call returned, not yet taken
    bounds = [0, *step_samples(trace, steps)]  # step k's samples run from bounds[k] to bounds[k + 1]
    # Step k sees an opening that overlaps (t of step k - 1, t of step k]: merged openings are
    # disjoint and sorted, so one does when more start by t_k than end by t_(k-1) (t_(-1) = -inf).
    ts = np.array([-math.inf] + [s.t for s in steps])
    opened = (np.searchsorted([ev.t_start for ev in door_opens], ts[1:], "right")
              > np.searchsorted([ev.t_end for ev in door_opens], ts[:-1], "right")).tolist()

    for k in range(len(steps)):
        prev_pos = position
        if pf is None:
            if mag_z is None:
                dts, rates = (arr.tolist() for arr in trace.yaw_increments()[:2])
                mag_z = mag_headings(trace.mag[1:, :2], cfg.kf.declination)
            kf = kf_run(kf, rates, dts, mag_z, bounds[k], bounds[k + 1], cfg.kf)
            heading = kf.heading
            pose = propagate_step(Pose(prev_pos, heading), cfg.pdr)
        else:
            if not ahead:  # fold the next run's headings on from step k - 1's
                if increments is None:
                    increments = trace.yaw_increments()[2].tolist()
                run = integrate_headings(heading, increments, bounds[k], bounds[k + 1 : k + 1 + PF_RUN])
                try:
                    ahead = list(zip(run, pf_run(pf, run, cfg.pf, cfg.pdr, plan)))
                except FilterDivergenceError:
                    # One reinitialization at the last valid estimate, then give up.
                    pf = pf_init(Pose(prev_pos, run[0]), cfg.pf, seed=cfg.seed + 7919 + k)
                    try:
                        ahead = list(zip(run, pf_run(pf, run, cfg.pf, cfg.pdr, plan)))
                    except FilterDivergenceError as exc:
                        raise FilterDivergenceError(f"particle filter diverged at step {k}") from exc
            heading, (pf, position) = ahead.pop(0)
            pose = Pose(position, heading)
        position = pose.position

        cstate = crossing_mod.arm_check(cstate, position, zones, cfg.crossing)
        cstate, switch = crossing_mod.observe_step(cstate, k, prev_pos, position, opened[k], cfg.crossing, zones)
        if switch is not None:
            log.switches.append(switch)
            pf, kf = _backend(switch.to_env, Pose(switch.crossing_point, heading), cfg, cfg.seed + k + 1)
            ahead = []

        log.poses.append(pose)
        log.environments.append(cstate.environment)

    return log.poses, log
