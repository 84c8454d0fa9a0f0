"""Nonlinear landmark-aided inertial observer on the extended pose group.

The estimator propagates attitude, position and velocity from gyro and
accelerometer samples and corrects them from per-epoch landmark aggregates.
Alongside the pose it adapts a per-axis bound on the angular-rate noise
covariance, and can optionally estimate the gravity vector instead of
assuming it known.

The discrete form is one update pair: ``predict`` advances the state
(including the action of the current gravity estimate) every inertial
sample, and ``correct`` applies the innovation-driven terms whenever a
landmark epoch arrives, scaled by the time elapsed since the previous
correction.

The attitude is kept as a rotation matrix or as a unit quaternion, chosen at
:meth:`ObserverState.create`; both run the same update law.

The propagation law lives in one function, ``_advance``.  It steps a flat
state, every part a float list (the attitude matrix as nine floats, row by
row, and its quaternion as four), with inputs that depend on nothing else:
``[G1 a; G2 a]`` and the turn, ``G0`` for a matrix and ``exp(omega dt)`` for
a quaternion.  :func:`predict` computes them for one sample and wraps the
result in an :class:`ObserverState`; the closed-loop engine computes them
for many samples at once (``_motion_rows``) and keeps the flat state between
epochs.

The arithmetic follows the rule stated in :mod:`se23nav.liegroup`: the
state-dependent half of the law (``_advance``) is explicit float sums, the
input-only half (``so3_gammas``, ``G1 a``, ``G2 a``), the correction and the
scoring keep their numpy products.
"""

from __future__ import annotations

import contextlib
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .liegroup import (NavState, _cross, _so3_gammas_rows, orthonormalize_rows,
                       so3_gammas, vex_antisym)
from .measurement import LandmarkMap, LandmarkObservation, MeasurementSummary, aggregate
from .quaternion import (_quat_from_rotvec_rows, _turn_right, quat_from_rotvec,
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
    acceleration-channel terms, the adaptation gain ``k_adapt`` and
    ``body_axis``, the attitude innovation axis resolved in the body frame of
    the predicted attitude, which drives the noise-bound adaptation."""

    w_omega: np.ndarray
    w_vel: np.ndarray
    w_acc: np.ndarray
    k_adapt: float
    body_axis: np.ndarray


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
               representation: str = MATRIX) -> "ObserverState":
        """Initial state, with a zero noise bound.  Known mode pins ``g_hat``
        to ``g_ref``; adaptive mode starts it at zero.  ``representation``
        stores the attitude as a rotation matrix or as a unit quaternion
        converted from ``nav.r``."""
        if gravity_mode not in (KNOWN_GRAVITY, ADAPTIVE_GRAVITY):
            raise ModeError(f"unknown gravity mode {gravity_mode!r}")
        if representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {representation!r}")
        if gravity_mode == KNOWN_GRAVITY:
            g_hat = np.asarray(g_ref, dtype=float).copy()
        else:
            g_hat = np.zeros(3)
        quat = None
        if representation == QUATERNION:
            quat = rot_to_quat(nav.r)
            nav = NavState(quat_to_rot(quat), nav.p, nav.v)
        return cls(nav=nav, sigma_hat=np.zeros(3), g_hat=g_hat,
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
    rhat = np.ascontiguousarray(state.nav.r)
    ups = vex_antisym(summary.scatter_err)
    d = summary.att_dist
    r_ups = rhat.T @ ups
    spread = (rhat @ (r_ups * state.sigma_hat)).tolist()
    k_att = -gains.k_w * (d + 1.0)
    k_spread = 0.25 * ((d + 2.0) / (d + 1.0))
    w_omega = [k_att * u - k_spread * c for u, c in zip(ups.tolist(), spread)]
    if _FAULT_FLIP_W_OMEGA:
        w_omega = [-c for c in w_omega]
    inn = summary.pos_innovation.tolist()
    w_vel = [c - gains.k_v * e
             for c, e in zip(_cross(summary.centroid.tolist(), w_omega), inn)]
    w_acc = [-g - gains.k_a * e for g, e in zip(state.g_hat.tolist(), inn)]
    k_adapt = gains.gamma_sigma * (d + 2.0) / 8.0 * float(np.exp(d))
    return Correction(w_omega=np.array(w_omega), w_vel=np.array(w_vel),
                      w_acc=np.array(w_acc), k_adapt=k_adapt, body_axis=r_ups)


def sigma_step(state: ObserverState, corr: Correction, gains: Gains,
               dt: float) -> np.ndarray:
    """One explicit-Euler update of the noise-covariance bound estimate."""
    r_ups = corr.body_axis.tolist()
    k = corr.k_adapt
    decay = dt * gains.k_sigma * gains.gamma_sigma
    return np.array([s + dt * (k * (u * u)) - decay * s
                     for s, u in zip(state.sigma_hat.tolist(), r_ups)])


def gravity_step(state: ObserverState, corr: Correction,
                 summary: MeasurementSummary, gains: Gains, dt: float) -> np.ndarray:
    """One explicit-Euler update of the gravity estimate (adaptive mode only)."""
    if state.gravity_mode != ADAPTIVE_GRAVITY:
        raise ModeError("gravity adaptation requested in known-gravity mode")
    g = state.g_hat.tolist()
    k = gains.mu * gains.gamma_g
    turned = _cross(corr.w_omega.tolist(), g)
    return np.array([gi + dt * (-c + k * e) for gi, c, e
                     in zip(g, turned, summary.pos_innovation.tolist())])


def _check_finite(*arrays: np.ndarray) -> None:
    for a in arrays:
        if not all(map(math.isfinite, a.ravel().tolist())):
            raise NonFiniteState("observer state left the finite range")


def _gammas(rotvec: np.ndarray):
    """:func:`so3_gammas`; an overflow raises :class:`NonFiniteState`."""
    try:
        return so3_gammas(rotvec)
    except OverflowError:
        raise NonFiniteState("observer state left the finite range") from None


def _advance(r: list, p: list, v: list, g: list, quat: list | None, steps: int,
             turn: list, g12a: list, dt: float) -> tuple[list, list, list, list | None]:
    """The propagation law: one inertial step of a flat state.

    Every argument but ``steps`` and ``dt`` is a float list.  ``r`` is the
    attitude matrix as nine floats, row by row, and ``quat`` its unit
    quaternion (``None`` for a matrix attitude); ``p``, ``v`` and the gravity
    estimate ``g`` have three.  The inputs enter only through the rows
    ``g12a = [G1 a; G2 a]`` (six floats) and ``turn``: the nine entries of
    ``G0`` for a matrix, ``exp(omega dt)`` for a quaternion, where ``G0, G1,
    G2`` are the :func:`so3_gammas` of ``omega dt``.  ``steps`` is the step
    count this step completes; a matrix attitude is re-orthonormalized when
    it is a multiple of :data:`REORTHO_EVERY`.  Returns the new ``(r, p, v,
    quat)``; raises :class:`NonFiniteState` when an entry leaves the finite
    range.
    """
    # r G1 a and r G2 a, every entry an explicit sum in index order
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    a0, a1, a2, b0, b1, b2 = g12a
    x = [r00 * a0 + r01 * a1 + r02 * a2, r10 * a0 + r11 * a1 + r12 * a2,
         r20 * a0 + r21 * a1 + r22 * a2]
    y = [r00 * b0 + r01 * b1 + r02 * b2, r10 * b0 + r11 * b1 + r12 * b2,
         r20 * b0 + r21 * b1 + r22 * b2]
    dt2 = dt * dt
    p_new = [pi + vi * dt + yi * dt2 + 0.5 * gi * dt2
             for pi, vi, yi, gi in zip(p, v, y, g)]
    v_new = [vi + xi * dt + gi * dt for vi, xi, gi in zip(v, x, g)]
    if quat is None:
        c00, c01, c02, c10, c11, c12, c20, c21, c22 = turn
        r_new = [r00 * c00 + r01 * c10 + r02 * c20, r00 * c01 + r01 * c11 + r02 * c21,
                 r00 * c02 + r01 * c12 + r02 * c22,
                 r10 * c00 + r11 * c10 + r12 * c20, r10 * c01 + r11 * c11 + r12 * c21,
                 r10 * c02 + r11 * c12 + r12 * c22,
                 r20 * c00 + r21 * c10 + r22 * c20, r20 * c01 + r21 * c11 + r22 * c21,
                 r20 * c02 + r21 * c12 + r22 * c22]
        if steps % REORTHO_EVERY == 0:
            r_new = orthonormalize_rows(r_new).ravel().tolist()
    else:
        quat, r_new = _turn_right(quat, turn)
    if not all(map(math.isfinite, r_new + p_new + v_new)):
        raise NonFiniteState("observer state left the finite range")
    return r_new, p_new, v_new, quat


def _motion_rows(omega: np.ndarray, a: np.ndarray, dt: list, quaternion: bool):
    """The inputs of :func:`_advance` for ``n`` steps of ``dt`` seconds under
    ``(n, 3)`` rates ``omega`` and specific forces ``a``, as lists of ``n``
    float lists: the turns (``G0`` or, if ``quaternion``, ``dq``) and ``[G1 a;
    G2 a]``; each row has the bits :func:`predict` computes.  A row that
    leaves the finite range raises in :func:`_advance`, at its own step, so
    nothing warns here."""
    n = len(dt)
    with np.errstate(all="ignore"):
        rotvec = omega * np.array(dt)[:, None]
        g0, g1, g2 = _so3_gammas_rows(rotvec)
        g12a = (np.stack([g1, g2], axis=1) @ a[:, None, :, None]).reshape(n, 6)
        turns = _quat_from_rotvec_rows(rotvec) if quaternion else g0.reshape(n, 9)
        return turns.tolist(), g12a.tolist()


def predict(state: ObserverState, omega_m: np.ndarray, a_m: np.ndarray,
            dt: float) -> ObserverState:
    """Propagate one inertial sample, including the current gravity estimate.

    The update is the exact flow of the piecewise-constant dynamics: the
    motion inputs act from the right, the gravity estimate from the left, so
    with exact inputs a zero-error state stays at zero error.
    """
    rotvec = np.asarray(omega_m, dtype=float) * dt
    g0, g1, g2 = _gammas(rotvec)
    a = np.asarray(a_m, dtype=float)
    quat = state.quat
    turn = g0 if quat is None else quat_from_rotvec(rotvec)
    steps = state.steps + 1
    r, p, v, quat = _advance(
        np.ravel(state.nav.r).tolist(), state.nav.p.tolist(), state.nav.v.tolist(),
        state.g_hat.tolist(), None if quat is None else quat.tolist(), steps,
        turn.ravel().tolist(), (g1 @ a).tolist() + (g2 @ a).tolist(), dt)
    return ObserverState(nav=NavState(np.array(r).reshape(3, 3), np.array(p), np.array(v)),
                         sigma_hat=state.sigma_hat, g_hat=state.g_hat,
                         gravity_mode=state.gravity_mode, steps=steps,
                         quat=None if quat is None else np.array(quat))


def correct(state: ObserverState, lmap: LandmarkMap, obs: LandmarkObservation,
            gains: Gains, dt: float) -> ObserverState:
    """Apply one epoch's innovation-driven correction to a predicted state.

    ``dt`` is the time the correction accounts for, normally the interval
    since the previous epoch.  The gravity action is not reapplied here; it
    is part of :func:`predict`.
    """
    summary = aggregate(lmap, obs, state.nav.r, state.nav.p)
    corr = compute_corrections(summary, state, gains)
    sigma = sigma_step(state, corr, gains, dt)
    g_hat = state.g_hat
    if state.gravity_mode == ADAPTIVE_GRAVITY:
        g_hat = gravity_step(state, corr, summary, gains, dt)
    rotvec = np.array([-c * dt for c in corr.w_omega.tolist()])
    g0c, g1c, _ = _gammas(rotvec)
    # the attitude turns by exp(rotvec) from the left; p and v turn with it
    if state.quat is None:
        r_new, q_new, turn = g0c @ np.ascontiguousarray(state.nav.r), None, g0c
    else:
        dq = quat_from_rotvec(rotvec)
        q_new, r_new = _turn_right(dq.tolist(), state.quat.tolist())
        r_new, q_new, turn = np.array(r_new).reshape(3, 3), np.array(q_new), quat_to_rot(dq)
    pos_in = np.array([-c * dt for c in corr.w_vel.tolist()])
    # innovation part of the acceleration channel; gravity lives in predict
    vel_in = np.array([-(c + g) * dt for c, g
                       in zip(corr.w_acc.tolist(), state.g_hat.tolist())])
    p_new = turn @ state.nav.p + g1c @ pos_in
    v_new = turn @ state.nav.v + g1c @ vel_in
    _check_finite(r_new, p_new, v_new, sigma, g_hat)
    return ObserverState(nav=NavState(r_new, p_new, v_new), sigma_hat=sigma,
                         g_hat=g_hat, gravity_mode=state.gravity_mode,
                         steps=state.steps, quat=q_new)


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


def _error_norms(r, p, v, r_hat, p_hat, v_hat, g_hat, g_true):
    """Attitude distance and position, velocity and gravity error norms of
    estimates against true states, stacked along any leading axes.  Each row
    rounds as ``nav_error``, ``so3_distance`` and ``_norm`` do for one, since
    products are stacked ``@`` and norms ``np.vecdot`` (not ``np.einsum``)."""
    rt = np.swapaxes(r_hat, -1, -2)
    r_err = r @ rt
    p_err = (r @ -(rt @ p_hat[..., None]))[..., 0] + p
    v_err = (r @ -(rt @ v_hat[..., None]))[..., 0] + v
    g_err = g_true - (r_err @ g_hat[..., None])[..., 0]
    d = (3.0 - np.trace(r_err, axis1=-2, axis2=-1)) / 4.0
    d = np.where(d > 0.0, d, 0.0)  # min(1.0, max(0.0, d)), NaN to 0.0
    att = np.where(d < 1.0, d, 1.0)
    return (att, *(np.sqrt(np.vecdot(e, e)) for e in (p_err, v_err, g_err)))


def error_metrics(x: NavState, state: ObserverState,
                  g_true: np.ndarray = GRAVITY_ENU) -> Metrics:
    """Error metrics of an estimate against the true state."""
    nav = state.nav
    r, r_hat = np.ascontiguousarray(x.r), np.ascontiguousarray(nav.r)
    return Metrics(*map(float, _error_norms(r, x.p, x.v, r_hat, nav.p, nav.v,
                                            state.g_hat, np.asarray(g_true, dtype=float))))


def warn_if_unstable(r_err: np.ndarray) -> bool:
    """Warn (and return True) when initialized on the half-turn set, that is
    when the attitude error's trace is -1 within :data:`UNSTABLE_TRACE_TOL`.

    Convergence from that measure-zero set is not guaranteed; any
    perturbation, including sensor noise, knocks the error off it.
    """
    if abs(float(np.trace(r_err)) + 1.0) <= UNSTABLE_TRACE_TOL:
        warnings.warn("initial attitude error is a half turn; convergence "
                      "from this set is not guaranteed", UnstableSetWarning,
                      stacklevel=2)
        return True
    return False


@contextlib.contextmanager
def inject_w_omega_sign_fault():
    """Flip the sign of the attitude correction inside the ``with`` block.

    Exists solely so the self test can demonstrate that its convergence
    check fails when the update law is broken.
    """
    global _FAULT_FLIP_W_OMEGA
    saved, _FAULT_FLIP_W_OMEGA = _FAULT_FLIP_W_OMEGA, True
    try:
        yield
    finally:
        _FAULT_FLIP_W_OMEGA = saved
