"""Nonlinear landmark-aided inertial observer on the extended pose group.

The estimator propagates attitude, position and velocity from gyro and
accelerometer samples and corrects them from per-epoch landmark aggregates.
Alongside the pose it adapts a per-axis bound on the angular-rate noise
covariance, and can optionally estimate the gravity vector instead of
assuming it known.

Two discrete update styles are provided.  ``step`` performs one synchronous
predict-plus-correct cycle in which both halves share a single sample
interval.  For streams where landmark epochs are sparser than inertial
samples, ``predict`` advances the state (including the action of the current
gravity estimate) every inertial sample and ``correct`` applies the
innovation-driven terms whenever a fresh epoch arrives, scaled by the time
elapsed since the previous correction.

The attitude is kept as a rotation matrix or as a unit quaternion, chosen at
:meth:`ObserverState.create`; both run the same update law.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .liegroup import (NavState, nav_error, orthonormalize_rows, skew,
                       so3_distance, so3_gammas, vex_antisym)
from .measurement import LandmarkMap, LandmarkObservation, MeasurementSummary, aggregate
from .quaternion import (quat_from_rotvec, quat_normalize, quat_product,
                         quat_to_rot, rot_to_quat)

# Local "east, north, up" world frame: gravity points down the third axis.
GRAVITY_ENU = np.array([0.0, 0.0, -9.81])

# Attitude block is re-orthonormalized after this many propagation steps.
REORTHO_EVERY = 1000

# Half-turn initialization detector: |trace(r_err) + 1| below this warns.
UNSTABLE_TRACE_TOL = 1e-6

KNOWN_GRAVITY = "known"
ADAPTIVE_GRAVITY = "adaptive"

# Attitude representations.
MATRIX = "matrix"
QUATERNION = "quaternion"
REPRESENTATIONS = (MATRIX, QUATERNION)

# Debug hook used by the self test to prove the convergence check has teeth.
_FAULT_FLIP_W_OMEGA = False


class ModeError(RuntimeError):
    """Raised when a gravity-adaptation call does not match the configured mode."""


class NonFiniteState(RuntimeError):
    """Raised when an update produces NaN or infinite state entries."""


class UnstableSetWarning(UserWarning):
    """Initialization lies on the measure-zero set of half-turn attitude errors."""


@dataclass(frozen=True)
class Gains:
    """Observer gains.  All entries must be strictly positive.

    Defaults are the reference-experiment values: attitude gain ``k_w``,
    position and velocity-channel gains ``k_v`` and ``k_a``, covariance
    adaptation pair ``gamma_sigma`` / ``k_sigma``, gravity adaptation pair
    ``gamma_g`` / ``mu``.
    """

    k_w: float = 3.0
    k_v: float = 10.0
    k_a: float = 10.0
    gamma_sigma: float = 3.0
    k_sigma: float = 0.1
    gamma_g: float = 2.0
    mu: float = 1.0

    def __post_init__(self):
        for name in ("k_w", "k_v", "k_a", "gamma_sigma", "k_sigma", "gamma_g", "mu"):
            if not float(getattr(self, name)) > 0.0:
                raise ValueError(f"gain {name} must be strictly positive")


@dataclass(frozen=True)
class Correction:
    """Correction terms of one update: angular, position-channel and
    acceleration-channel terms plus the adaptation gain ``k_adapt``."""

    w_omega: np.ndarray
    w_vel: np.ndarray
    w_acc: np.ndarray
    k_adapt: float


@dataclass(frozen=True)
class ObserverState:
    """Full estimator state: extended pose, noise-covariance bound estimate,
    gravity estimate and the gravity handling mode.

    ``quat`` is the unit-quaternion attitude of a state that keeps one and
    ``None`` for a matrix attitude; when it is set, ``nav.r`` is always its
    rotation matrix.
    """

    nav: NavState
    sigma_hat: np.ndarray
    g_hat: np.ndarray
    gravity_mode: str = KNOWN_GRAVITY
    steps: int = 0
    quat: np.ndarray | None = None

    @classmethod
    def create(cls, nav: NavState, gravity_mode: str = KNOWN_GRAVITY,
               g_ref: np.ndarray = GRAVITY_ENU,
               g0: np.ndarray | None = None,
               sigma0: np.ndarray | None = None,
               representation: str = MATRIX) -> "ObserverState":
        """Initial state.  Known mode pins ``g_hat`` to ``g_ref``; adaptive
        mode starts it at ``g0`` (zero by default).  ``representation``
        stores the attitude as a rotation matrix or as a unit quaternion
        converted from ``nav.r``."""
        if gravity_mode not in (KNOWN_GRAVITY, ADAPTIVE_GRAVITY):
            raise ModeError(f"unknown gravity mode {gravity_mode!r}")
        if representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {representation!r}")
        if gravity_mode == KNOWN_GRAVITY:
            g_hat = np.asarray(g_ref, dtype=float).copy()
        else:
            g_hat = np.zeros(3) if g0 is None else np.asarray(g0, dtype=float).copy()
        sigma = np.zeros(3) if sigma0 is None else np.asarray(sigma0, dtype=float).copy()
        quat = None
        if representation == QUATERNION:
            quat = rot_to_quat(nav.r)
            nav = NavState(quat_to_rot(quat), nav.p, nav.v)
        return cls(nav=nav, sigma_hat=sigma, g_hat=g_hat,
                   gravity_mode=gravity_mode, quat=quat)


@dataclass(frozen=True)
class Metrics:
    """Error metrics against ground truth, all from the group error
    ``x @ xhat^-1``: attitude distance in [0, 1], position error (m),
    velocity error (m/s), gravity error (m/s^2)."""

    att: float
    pos: float
    vel: float
    grav: float

    def as_array(self) -> np.ndarray:
        return np.array([self.att, self.pos, self.vel, self.grav])


def compute_corrections(summary: MeasurementSummary, state: ObserverState,
                        gains: Gains) -> Correction:
    """Correction terms from one epoch's aggregates.

    Parameters
    ----------
    summary : MeasurementSummary
        Aggregates evaluated at the predicted state.
    state : ObserverState
        Supplies the predicted attitude plus the current covariance-bound and
        gravity estimates (the acceleration term always uses the current
        gravity estimate; in known mode that is the configured constant).
    gains : Gains

    Returns
    -------
    Correction
    """
    rhat = state.nav.r
    ups = vex_antisym(summary.scatter_err)
    d = summary.att_dist
    r_ups = rhat.T @ ups
    w_omega = (-gains.k_w * (d + 1.0) * ups
               - 0.25 * ((d + 2.0) / (d + 1.0)) * (rhat @ (r_ups * state.sigma_hat)))
    if _FAULT_FLIP_W_OMEGA:
        w_omega = -w_omega
    w_vel = np.cross(summary.centroid, w_omega) - gains.k_v * summary.pos_innovation
    w_acc = -state.g_hat - gains.k_a * summary.pos_innovation
    k_adapt = gains.gamma_sigma * (d + 2.0) / 8.0 * float(np.exp(d))
    return Correction(w_omega=w_omega, w_vel=w_vel, w_acc=w_acc, k_adapt=k_adapt)


def sigma_step(state: ObserverState, summary: MeasurementSummary,
               corr: Correction, gains: Gains, dt: float) -> np.ndarray:
    """One explicit-Euler update of the noise-covariance bound estimate."""
    r_ups = state.nav.r.T @ vex_antisym(summary.scatter_err)
    drive = corr.k_adapt * (r_ups * r_ups)
    return state.sigma_hat + dt * drive - dt * gains.k_sigma * gains.gamma_sigma * state.sigma_hat


def gravity_step(state: ObserverState, corr: Correction,
                 summary: MeasurementSummary, gains: Gains, dt: float) -> np.ndarray:
    """One explicit-Euler update of the gravity estimate (adaptive mode only)."""
    if state.gravity_mode != ADAPTIVE_GRAVITY:
        raise ModeError("gravity adaptation requested in known-gravity mode")
    rate = -np.cross(corr.w_omega, state.g_hat) + gains.mu * gains.gamma_g * summary.pos_innovation
    return state.g_hat + dt * rate


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NonFiniteState("observer state left the finite range")


def _turn(r: np.ndarray, quat: np.ndarray | None, rotvec: np.ndarray,
          g0: np.ndarray, *, left: bool, steps: int | None = None):
    """Turn an attitude by ``exp(rotvec)``, whose matrix is ``g0``, from the
    left or the right.

    This is the only code that depends on how the attitude is stored.
    Returns the turned rotation matrix, the turned unit quaternion (``None``
    for a matrix attitude) and, after a left turn, the matrix that rotates
    position and velocity along with the attitude (``None`` after a right
    turn).  A matrix attitude is re-orthonormalized when ``steps``, the step
    count the turn completes, is a multiple of :data:`REORTHO_EVERY`; a
    quaternion is renormalized on every turn.
    """
    if quat is None:
        r_new = g0 @ r if left else r @ g0
        if steps is not None and steps % REORTHO_EVERY == 0:
            r_new = orthonormalize_rows(r_new)
        return r_new, None, g0 if left else None
    dq = quat_from_rotvec(rotvec)
    q_new = quat_normalize(quat_product(dq, quat) if left else quat_product(quat, dq))
    return quat_to_rot(q_new), q_new, quat_to_rot(dq) if left else None


def _innovate(state: ObserverState, lmap: LandmarkMap, obs: LandmarkObservation,
              gains: Gains, dt: float):
    """Correction terms of one epoch at ``state``, with the noise bound and
    gravity estimate adapted over ``dt``: (correction, sigma_hat, g_hat)."""
    summary = aggregate(lmap, obs, state.nav.r, state.nav.p)
    corr = compute_corrections(summary, state, gains)
    g_hat = state.g_hat
    if state.gravity_mode == ADAPTIVE_GRAVITY:
        g_hat = gravity_step(state, corr, summary, gains, dt)
    return corr, sigma_step(state, summary, corr, gains, dt), g_hat


def predict(state: ObserverState, omega_m: np.ndarray, a_m: np.ndarray,
            dt: float) -> ObserverState:
    """Propagate one inertial sample, including the current gravity estimate.

    The update is the exact flow of the piecewise-constant dynamics: the
    motion inputs act from the right, the gravity estimate from the left, so
    with exact inputs a zero-error state stays at zero error.
    """
    r, p, v = state.nav.r, state.nav.p, state.nav.v
    g_hat = state.g_hat
    rotvec = np.asarray(omega_m, dtype=float) * dt
    g0, g1, g2 = so3_gammas(rotvec)
    a = np.asarray(a_m, dtype=float)
    p_new = p + v * dt + (r @ (g2 @ a)) * (dt * dt) + 0.5 * g_hat * (dt * dt)
    v_new = v + (r @ (g1 @ a)) * dt + g_hat * dt
    steps = state.steps + 1
    r_new, q_new, _ = _turn(r, state.quat, rotvec, g0, left=False, steps=steps)
    _check_finite(r_new, p_new, v_new)
    return ObserverState(nav=NavState(r_new, p_new, v_new),
                         sigma_hat=state.sigma_hat, g_hat=state.g_hat,
                         gravity_mode=state.gravity_mode, steps=steps,
                         quat=q_new)


def correct(state: ObserverState, lmap: LandmarkMap, obs: LandmarkObservation,
            gains: Gains, dt: float) -> ObserverState:
    """Apply one epoch's innovation-driven correction to a predicted state.

    ``dt`` is the time the correction accounts for, normally the interval
    since the previous epoch.  The gravity action is not reapplied here; it
    is part of :func:`predict`.
    """
    corr, sigma, g_hat = _innovate(state, lmap, obs, gains, dt)
    # innovation part of the acceleration channel; gravity lives in predict
    w_acc_inn = corr.w_acc + state.g_hat
    rotvec = -corr.w_omega * dt
    g0c, g1c, _ = so3_gammas(rotvec)
    r_new, q_new, turn = _turn(state.nav.r, state.quat, rotvec, g0c, left=True)
    p_new = turn @ state.nav.p + g1c @ (-corr.w_vel * dt)
    v_new = turn @ state.nav.v + g1c @ (-w_acc_inn * dt)
    _check_finite(r_new, p_new, v_new, sigma, g_hat)
    return ObserverState(nav=NavState(r_new, p_new, v_new), sigma_hat=sigma,
                         g_hat=g_hat, gravity_mode=state.gravity_mode,
                         steps=state.steps, quat=q_new)


def step(state: ObserverState, omega_m: np.ndarray, a_m: np.ndarray,
         lmap: LandmarkMap, obs: LandmarkObservation, gains: Gains,
         dt: float) -> ObserverState:
    """One synchronous predict-plus-correct cycle.

    The inertial inputs are integrated over ``dt``, the epoch aggregates are
    evaluated at the predicted state, and the full correction (gravity
    included) is applied over the same ``dt``.
    """
    r, p, v = state.nav.r, state.nav.p, state.nav.v
    a = np.asarray(a_m, dtype=float)
    rotvec = np.asarray(omega_m, dtype=float) * dt
    g0, g1, g2 = so3_gammas(rotvec)
    r_y, q_y, _ = _turn(r, state.quat, rotvec, g0, left=False)
    p_y = p + v * dt + (r @ (g2 @ a)) * (dt * dt)
    v_y = v + (r @ (g1 @ a)) * dt
    # bookkeeping entry of the prediction product, consumed by the correction
    y54 = dt

    predicted = replace(state, nav=NavState(r_y, p_y, v_y), quat=q_y)
    corr, sigma, g_hat = _innovate(predicted, lmap, obs, gains, dt)

    rotvec_c = -corr.w_omega * dt
    g0c, g1c, g2c = so3_gammas(rotvec_c)
    c4 = g1c @ (-corr.w_vel * dt) + g2c @ (corr.w_acc * dt) * dt
    c5 = g1c @ (-corr.w_acc * dt)
    steps = state.steps + 1
    r_new, q_new, turn = _turn(r_y, q_y, rotvec_c, g0c, left=True, steps=steps)
    p_new = turn @ p_y + c4 + c5 * y54
    v_new = turn @ v_y + c5
    _check_finite(r_new, p_new, v_new, sigma, g_hat)
    return ObserverState(nav=NavState(r_new, p_new, v_new), sigma_hat=sigma,
                         g_hat=g_hat, gravity_mode=state.gravity_mode,
                         steps=steps, quat=q_new)


def predict_quaternion(state: ObserverState, omega_m: np.ndarray,
                       a_m: np.ndarray, dt: float) -> ObserverState:
    """:func:`predict`; kept as its own function because ``bench/tracer.py``
    traces it by name."""
    return predict(state, omega_m, a_m, dt)


def correct_quaternion(state: ObserverState, lmap: LandmarkMap,
                       obs: LandmarkObservation, gains: Gains,
                       dt: float) -> ObserverState:
    """:func:`correct`; kept as its own function because ``bench/tracer.py``
    traces it by name."""
    return correct(state, lmap, obs, gains, dt)


def error_metrics(x: NavState, state: ObserverState,
                  g_true: np.ndarray = GRAVITY_ENU) -> Metrics:
    """Error metrics of an estimate against the true state."""
    err = nav_error(x, state.nav)
    grav = float(np.linalg.norm(g_true - err.r @ state.g_hat))
    return Metrics(att=so3_distance(err.r),
                   pos=float(np.linalg.norm(err.p)),
                   vel=float(np.linalg.norm(err.v)),
                   grav=grav)


def on_unstable_set(r_err: np.ndarray, tol: float = UNSTABLE_TRACE_TOL) -> bool:
    """True when an attitude error is a half turn within ``tol`` on the trace."""
    return abs(float(np.trace(r_err)) + 1.0) <= tol


def warn_if_unstable(r_err: np.ndarray) -> bool:
    """Warn (and return True) when initialized on the half-turn set.

    Convergence from that measure-zero set is not guaranteed; any
    perturbation, including sensor noise, knocks the error off it.
    """
    if on_unstable_set(r_err):
        warnings.warn("initial attitude error is a half turn; convergence "
                      "from this set is not guaranteed", UnstableSetWarning,
                      stacklevel=2)
        return True
    return False


class _w_omega_sign_fault:
    """Context manager flipping the sign of the attitude correction.

    Exists solely so the self test can demonstrate that its convergence
    check fails when the update law is broken.
    """

    def __enter__(self):
        global _FAULT_FLIP_W_OMEGA
        _FAULT_FLIP_W_OMEGA = True
        return self

    def __exit__(self, *exc):
        global _FAULT_FLIP_W_OMEGA
        _FAULT_FLIP_W_OMEGA = False
        return False


def inject_w_omega_sign_fault() -> _w_omega_sign_fault:
    return _w_omega_sign_fault()
