"""Landmark-aided inertial navigation observer on the extended pose group.

The estimator fuses body-rate and specific-force samples with weighted
landmark bearings resolved in the body frame.  It maintains attitude,
position and velocity on the matrix group that couples them, adapts a
per-axis bound on the rate-noise covariance, and can estimate gravity
online when it is not known.
"""

from .liegroup import (NavState, NavTangent, NotSkewSymmetric, nav_error,
                       rodrigues_exp, se23_exp, skew, so3_distance,
                       so3_gammas, vex, vex_antisym)
from .measurement import (ConfigReport, InsufficientLandmarks, LandmarkMap,
                          LandmarkObservation, MeasurementSummary,
                          UnknownLandmarkId, aggregate, check_configuration,
                          synthesize_observation)
from .observer import (ADAPTIVE_GRAVITY, GRAVITY_ENU, KNOWN_GRAVITY, MATRIX,
                       QUATERNION, Correction, Gains, Metrics, ModeError,
                       NonFiniteState, ObserverState, UnstableSetWarning,
                       compute_corrections, correct, correct_quaternion,
                       error_metrics, gravity_step, predict,
                       predict_quaternion, sigma_step)
from .quaternion import (NonUnitQuaternion, quat_from_rotvec, quat_product,
                         quat_to_rot, rot_to_quat)
from .simulator import (ImuSample, ImuStream, InitError, NoiseSpec, RunResult,
                        Scenario, TrajectorySpec, TruthSample, TruthStream,
                        apply_init_error, build_streams, default_landmark_map,
                        default_scenario, hover_scenario, run_closed_loop,
                        run_scenario, summarize)

__version__ = "0.1.0"

__all__ = [
    "ADAPTIVE_GRAVITY", "ConfigReport", "Correction", "GRAVITY_ENU", "Gains",
    "ImuSample", "ImuStream", "InitError", "InsufficientLandmarks", "KNOWN_GRAVITY",
    "LandmarkMap", "LandmarkObservation", "MATRIX", "MeasurementSummary",
    "Metrics", "ModeError", "NavState", "NavTangent", "NoiseSpec",
    "NonFiniteState", "NonUnitQuaternion", "NotSkewSymmetric",
    "ObserverState", "QUATERNION", "RunResult", "Scenario", "TrajectorySpec",
    "TruthSample", "TruthStream", "UnknownLandmarkId", "UnstableSetWarning", "aggregate",
    "apply_init_error", "build_streams", "check_configuration",
    "compute_corrections", "correct", "correct_quaternion",
    "default_landmark_map", "default_scenario", "error_metrics",
    "gravity_step", "hover_scenario", "nav_error", "predict",
    "predict_quaternion", "quat_from_rotvec", "quat_product", "quat_to_rot",
    "rodrigues_exp", "rot_to_quat", "run_closed_loop", "run_scenario",
    "se23_exp", "sigma_step", "skew", "so3_distance",
    "so3_gammas", "summarize",
    "synthesize_observation", "vex", "vex_antisym",
]
