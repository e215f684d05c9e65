"""Seamless indoor/outdoor pedestrian localization with door-crossing detection.

Replays IMU traces through step/door-opening detection, dead reckoning with
particle-filter (indoor) or Kalman-heading (outdoor) correction, and a
door/crossing coincidence state machine that switches environments. Includes
a WKNN radio-map positioning back-end and a synthetic walk simulator used as
the verification oracle.
"""

from .crossing import CrossingConfig, CrossingState, SwitchEvent, observe_step
from .errors import (
    FilterDivergenceError,
    InvalidInputError,
    InvalidParameterError,
    InvalidScriptError,
    InvariantViolation,
    ParseError,
    SeamlocError,
    UnreliableMeasurementError,
)
from .filters import (
    HeadingKfState,
    KfConfig,
    ParticleSet,
    PfConfig,
    kf_init,
    kf_predict,
    kf_update,
    mag_heading,
    pf_init,
    pf_step,
)
from .fingerprint import Fingerprint, RadioMap, WknnConfig, estimate_position
from .formats import EventLog, load_floorplan, load_radiomap, load_trace, save_floorplan, save_radiomap, save_trace
from .geometry import Door, FloorPlan, Point2, Segment2, distance, segment_intersection
from .harness import PipelineConfig, track
from .metrics import EvalReport, cdf_fraction_below, evaluate, format_report
from .pdr import PdrConfig, Pose, run_pdr, wrap_angle
from .signal import (
    DoorOpenEvent,
    ImuSample,
    SignalConfig,
    StepEvent,
    Trace,
    detect_door_openings,
    detect_steps,
    normalize_accel,
    normalized_series,
)
from .sim import (
    CALIBRATED_NOISE,
    DoorAction,
    GroundTruth,
    NoiseModel,
    WalkScript,
    crossing_script,
    generate_walk,
    scenario_suite,
    turn_back_script,
    two_building_plan,
)
