"""track restated plainly, one step and one sample at a time, and a law that the two agree.

reference_track keeps none of track's bookkeeping: no step bounds built before
the loop, no heading folds over several steps, no queue of particle-filter runs.
Per step it adds each sample's gyro yaw increment through wrap_angle, chains
one kf_predict and kf_update per sample outdoors, takes one pf_step indoors
(with track's one retry), and asks whether any merged door opening overlaps the
step's interval. Its output must be track's, repr for repr, or the same error, and
it must make the same calls that leave no trace in the output: the door-open flag
handed to observe_step at each step, and the pose and seed of each pf_init.
"""

import bisect
import dataclasses
import math
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import make_golden
from seamloc import CALIBRATED_NOISE, DoorAction, PipelineConfig, WalkScript, crossing, crossing_script, filters, generate_walk
from seamloc import harness, turn_back_script, two_building_plan
from seamloc.crossing import CrossingState, arm_check, build_zone_lookup
from seamloc.errors import FilterDivergenceError, SeamlocError
from seamloc.filters import KfConfig, PfConfig, _mag_heading, kf_init, kf_predict, kf_update, pf_step
from seamloc.geometry import Point2, Segment2
from seamloc.pdr import Pose, propagate_step, wrap_angle
from seamloc.signal import detect_door_openings, detect_steps, normalized_series
from seamloc.sim import OPEN_AND_CROSS


def reference_track(trace, plan, cfg):
    """(poses, EventLog) of the trace, as track gives them."""
    t, a = normalized_series(trace, cfg.signal)
    steps = detect_steps(t, a, cfg.signal)
    door_opens = detect_door_openings(t, a, cfg.signal, steps)
    log = harness.EventLog(steps=steps, door_opens=door_opens)
    times, yaw, mag = trace.t.tolist(), trace.gyro[:, 2].tolist(), trace.mag[:, :2].tolist()
    zones = build_zone_lookup(plan.doors, cfg.crossing)

    def enter(environment, pose, seed):  # (pf, kf) for the environment entered at pose
        if environment == "indoor":
            return filters.pf_init(pose, cfg.pf, seed=seed), None
        return None, kf_init(pose.heading)

    position, heading = plan.start_position, wrap_angle(plan.start_heading)
    cstate = CrossingState(environment=plan.start_environment)
    pf, kf = enter(cstate.environment, Pose(position, heading), cfg.seed)
    sample, prev_t = 0, -math.inf  # the last sample at or before the step before (the first for step 0), and its time
    for k, step in enumerate(steps):
        prev_pos = position
        last = max(bisect.bisect_right(times, step.t) - 1, 0)
        for i in range(sample, last):  # the interval from sample i to i + 1
            dt, rate = times[i + 1] - times[i], 0.5 * (yaw[i] + yaw[i + 1])
            if pf is None:
                kf = kf_predict(kf, rate, dt, cfg.kf)
                z = _mag_heading(*mag[i + 1], cfg.kf.declination)
                if z is not None:
                    kf = kf_update(kf, z, cfg.kf)
            else:
                heading = wrap_angle(heading + rate * dt)
        sample = last
        if pf is None:
            heading = kf.heading
            position = propagate_step(Pose(prev_pos, heading), cfg.pdr).position
        else:
            try:
                pf, position = pf_step(pf, heading, cfg.pf, cfg.pdr, plan)
            except FilterDivergenceError:
                pf = filters.pf_init(Pose(prev_pos, heading), cfg.pf, seed=cfg.seed + 7919 + k)
                try:
                    pf, position = pf_step(pf, heading, cfg.pf, cfg.pdr, plan)
                except FilterDivergenceError as exc:
                    raise FilterDivergenceError(f"particle filter diverged at step {k}") from exc
        opened = any(ev.t_start <= step.t and ev.t_end > prev_t for ev in door_opens)
        prev_t = step.t
        cstate = arm_check(cstate, position, zones, cfg.crossing)
        cstate, switch = crossing.observe_step(cstate, k, prev_pos, position, opened, cfg.crossing, zones)
        if switch is not None:
            log.switches.append(switch)
            pf, kf = enter(switch.to_env, Pose(switch.crossing_point, heading), cfg.seed + k + 1)
        log.poses.append(Pose(position, heading))
        log.environments.append(cstate.environment)
    return log.poses, log


def round_trips(plan, r: int) -> WalkScript:
    """From the start of two_building_plan, r times: through door A, 3.05 m out, back
    through it and to the start. Each door is opened 0.7 m in front, as crossing_script does."""
    legs = [Point2(9.3, 4.0), Point2(13.05, 4.0), Point2(10.7, 4.0), plan.start_position]
    waypoints = (plan.start_position, *legs * r)
    actions = [DoorAction(w, "doorA", OPEN_AND_CROSS) for w in range(1, len(waypoints)) if w % 2]
    return WalkScript(waypoints=waypoints, door_actions=tuple(actions))


PLAN = two_building_plan()
# Building A with a corridor 1.2 m wide along the walk to door A: a cloud of the default
# init_sigma, 0.5 m, loses many particles to its walls, so runs stop early and resample.
CORRIDOR = dataclasses.replace(
    PLAN, walls=PLAN.walls + tuple(Segment2(Point2(1.0, y), Point2(9.6, y)) for y in (3.4, 4.6))
)
SCRIPTS = {
    "crossing": crossing_script,
    "turn-back": turn_back_script,
    "round-trip": lambda plan: round_trips(plan, 1),
    "round-trips": lambda plan: round_trips(plan, 2),
}


def drawn_walk(plan, script, start, seed):
    plan = dataclasses.replace(plan, start_environment=start)
    return SCRIPTS[script](plan), plan, seed


# (script, plan, noise seed): a script through two_building_plan or CORRIDOR, or a golden
# walk (pauses that read as openings, an outdoor start, the open-field 0.80 m walker).
WALKS = st.builds(
    drawn_walk,
    st.sampled_from([PLAN, CORRIDOR]),
    st.sampled_from(sorted(SCRIPTS)),
    st.sampled_from(["indoor", "outdoor"]),
    st.integers(0, 2**16),
) | st.sampled_from([walk[1:] for walk in make_golden.oracle_walks()])


def outcome(track, trace, plan, cfg):
    """repr of what track returns, or the type and message of the SeamlocError it raises; and
    repr of the calls it makes, in order: the door-open flag of each observe_step, and the
    pose and seed of each pf_init (whose cloud ignores the heading)."""
    calls, observe, init = [], crossing.observe_step, filters.pf_init

    def observe_step(cstate, k, prev, pos, opened, *args):
        calls.append(opened)
        return observe(cstate, k, prev, pos, opened, *args)

    def pf_init(pose, pf_cfg, seed):
        calls.append((pose, seed))
        return init(pose, pf_cfg, seed=seed)

    with (
        mock.patch.object(crossing, "observe_step", observe_step),
        mock.patch.object(harness, "pf_init", pf_init),
        mock.patch.object(filters, "pf_init", pf_init),
    ):
        try:
            return repr(track(trace, plan, cfg)), repr(calls)
        except SeamlocError as exc:
            return (type(exc).__name__, str(exc)), repr(calls)


@settings(max_examples=150, deadline=None)
@given(
    WALKS,
    st.sampled_from([KfConfig(), KfConfig(declination=0.1), KfConfig(r_mag=math.inf)]),
    st.booleans(),
    st.sampled_from([None, 3.1, -3.1]),
    st.one_of(st.integers(1, 4), st.integers(1, 1000)),  # a few particles diverge and retry
    st.integers(1, 5),
)
def test_track_equals_the_reference_tracker(walk, kf, weak_field, start_heading, particles, pf_run):
    script, plan, seed = walk
    trace, _ = generate_walk(script, dataclasses.replace(CALIBRATED_NOISE, seed=seed), doors=plan.doors)
    if weak_field:  # every 5th sample's horizontal field under 1 uT: the KF skips its update
        mag = trace.mag.copy()
        mag[::5, :2] *= 1e-3
        trace = dataclasses.replace(trace, mag=mag)
    if start_heading is not None:  # near +-pi, so wrapped headings cross the seam
        plan = dataclasses.replace(plan, start_heading=start_heading)
    cfg = PipelineConfig(pf=PfConfig(particle_count=particles), kf=kf, seed=seed)
    with mock.patch.object(harness, "PF_RUN", pf_run):
        assert outcome(harness.track, trace, plan, cfg) == outcome(reference_track, trace, plan, cfg)


def test_track_folds_each_gyro_increment_about_once(monkeypatch):
    # Eight round trips through door A: 16 switches, and 9 indoor stretches. Folding each
    # stretch's headings to the end of the trace took 4.75 increments per sample here.
    trace, _ = generate_walk(round_trips(PLAN, 8), dataclasses.replace(CALIBRATED_NOISE, seed=3), doors=PLAN.doors)
    folded, integrate_headings = [], harness.integrate_headings

    def counted(heading, increments, i0, samples):
        samples = list(samples)
        folded.append(samples[-1] - i0 if samples else 0)
        return integrate_headings(heading, increments, i0, samples)

    monkeypatch.setattr(harness, "integrate_headings", counted)
    _, log = harness.track(trace, PLAN, PipelineConfig(seed=3))
    assert len(log.switches) == 16
    assert sum(folded) <= len(trace)
