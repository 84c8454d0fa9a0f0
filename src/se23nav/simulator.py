"""Scenario synthesis and the closed-loop estimation engine.

Trajectories are analytic: position, velocity and acceleration come from
closed-form expressions (or an exact cubic spline), attitude from a
yaw-pitch composition with its exact body rate.  Inertial samples are the
true body rate and specific force at the sample instant, optionally
perturbed by seeded Gaussian noise, and are treated as constant over the
following sample interval.

The engine consumes three time-stamped streams (truth, inertial, landmark
epochs) merged on an integer-nanosecond clock and records one row per
instant where truth is available.  Simulation and replay drive the same
engine with the same float values, which is what makes replay reproduce a
recorded run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, Sequence

import numpy as np

from .liegroup import NavState, rodrigues_exp, skew
from .measurement import LandmarkMap, LandmarkObservation, synthesize_observation
from .observer import (ADAPTIVE_GRAVITY, GRAVITY_ENU, KNOWN_GRAVITY, MATRIX,
                       Gains, Metrics, ObserverState, correct, error_metrics,
                       predict, warn_if_unstable)
from .quaternion import quat_to_rot, rot_to_quat

NS_PER_S = 1_000_000_000

# Corrections for one epoch never account for more than this many seconds,
# even when the previous epoch is older (gappy logs).
DEFAULT_MAX_CORRECTION_DT = 0.1


class TrajectoryError(ValueError):
    """Raised for an unknown or inconsistent trajectory description."""


@dataclass(frozen=True)
class TrajectorySpec:
    """Analytic reference motion.

    ``kind`` selects the position model:

    - ``"lissajous"``: per-axis sinusoids around ``center`` with amplitude,
      angular frequency and phase taken per axis.
    - ``"circle"``: planar circle of ``radius`` about ``center`` at angular
      rate ``freq[0]`` with phase ``phase[0]``.
    - ``"hover"``: stationary at ``center`` with a constant attitude; the
      yaw and pitch amplitudes are reused as the fixed angles and the body
      rate is zero.
    - ``"waypoints"``: natural cubic spline through ``waypoint_times`` /
      ``waypoint_points``.

    Attitude for the moving kinds is yaw about the world vertical composed
    with pitch about the intermediate lateral axis, both sinusoidal.
    """

    kind: str = "lissajous"
    center: tuple = (5.0, 5.0, 5.0)
    amplitude: tuple = (2.0, 1.5, 0.8)
    freq: tuple = (2.0 * math.pi * 0.1, 2.0 * math.pi * 0.15, 2.0 * math.pi * 0.05)
    phase: tuple = (0.0, math.pi / 3.0, math.pi / 6.0)
    radius: float = 2.0
    yaw_amp: float = 1.0
    yaw_freq: float = 0.5
    pitch_amp: float = 0.35
    pitch_freq: float = 0.4
    pitch_phase: float = 0.7
    waypoint_times: tuple = ()
    waypoint_points: tuple = ()

    def __post_init__(self):
        if self.kind not in ("lissajous", "circle", "hover", "waypoints"):
            raise TrajectoryError(f"unknown trajectory kind {self.kind!r}")
        if self.kind == "waypoints":
            if len(self.waypoint_times) < 2:
                raise TrajectoryError("waypoint trajectory needs at least two waypoints")
            if len(self.waypoint_times) != len(self.waypoint_points):
                raise TrajectoryError("waypoint times and points differ in length")
            t = np.asarray(self.waypoint_times, dtype=float)
            if np.any(np.diff(t) <= 0.0):
                raise TrajectoryError("waypoint times must be strictly increasing")


def _natural_cubic_coeffs(t: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Second derivatives of the natural cubic spline through (t, y).

    Solves the standard tridiagonal system with zero curvature at both ends
    (Thomas algorithm); ``y`` may have trailing axes.
    """
    n = t.size
    m = np.zeros_like(y)
    if n < 3:
        return m
    h = np.diff(t)
    # interior equations: h[i-1] m[i-1] + 2(h[i-1]+h[i]) m[i] + h[i] m[i+1] = rhs
    rhs = 6.0 * ((y[2:] - y[1:-1]) / h[1:, None] - (y[1:-1] - y[:-2]) / h[:-1, None])
    diag = 2.0 * (h[:-1] + h[1:]).copy()
    upper = h[1:].copy()
    lower = h[:-1].copy()
    for i in range(1, n - 2):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    sol = np.zeros_like(rhs)
    sol[-1] = rhs[-1] / diag[-1]
    for i in range(n - 4, -1, -1):
        sol[i] = (rhs[i] - upper[i] * sol[i + 1]) / diag[i]
    m[1:-1] = sol
    return m


def _spline_eval(spec: TrajectorySpec, t: np.ndarray):
    wt = np.asarray(spec.waypoint_times, dtype=float)
    wp = np.asarray(spec.waypoint_points, dtype=float).reshape(len(wt), 3)
    m = _natural_cubic_coeffs(wt, wp)
    tc = np.clip(t, wt[0], wt[-1])
    idx = np.clip(np.searchsorted(wt, tc, side="right") - 1, 0, len(wt) - 2)
    h = (wt[idx + 1] - wt[idx])[:, None]
    a = ((wt[idx + 1] - tc)[:, None]) / h
    b = ((tc - wt[idx])[:, None]) / h
    y0, y1 = wp[idx], wp[idx + 1]
    m0, m1 = m[idx], m[idx + 1]
    pos = (a * y0 + b * y1
           + ((a ** 3 - a) * m0 + (b ** 3 - b) * m1) * (h ** 2) / 6.0)
    vel = ((y1 - y0) / h
           + (-(3.0 * a ** 2 - 1.0) * m0 + (3.0 * b ** 2 - 1.0) * m1) * h / 6.0)
    acc = a * m0 + b * m1
    # hold position beyond the ends
    before = t < wt[0]
    after = t > wt[-1]
    for mask in (before, after):
        vel[mask] = 0.0
        acc[mask] = 0.0
    return pos, vel, acc


def trajectory_pose(spec: TrajectorySpec, t: np.ndarray):
    """Position, velocity and acceleration at times ``t`` (shape (n, 3) each)."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if spec.kind == "lissajous":
        c = np.asarray(spec.center, dtype=float)
        a = np.asarray(spec.amplitude, dtype=float)
        w = np.asarray(spec.freq, dtype=float)
        ph = np.asarray(spec.phase, dtype=float)
        arg = np.outer(t, w) + ph
        pos = c + a * np.sin(arg)
        vel = a * w * np.cos(arg)
        acc = -a * w * w * np.sin(arg)
        return pos, vel, acc
    if spec.kind == "circle":
        c = np.asarray(spec.center, dtype=float)
        w = float(spec.freq[0])
        ph = float(spec.phase[0])
        arg = w * t + ph
        r = spec.radius
        pos = np.stack([c[0] + r * np.cos(arg), c[1] + r * np.sin(arg),
                        np.full_like(t, c[2])], axis=1)
        vel = np.stack([-r * w * np.sin(arg), r * w * np.cos(arg),
                        np.zeros_like(t)], axis=1)
        acc = np.stack([-r * w * w * np.cos(arg), -r * w * w * np.sin(arg),
                        np.zeros_like(t)], axis=1)
        return pos, vel, acc
    if spec.kind == "hover":
        c = np.asarray(spec.center, dtype=float)
        pos = np.tile(c, (t.size, 1))
        zero = np.zeros((t.size, 3))
        return pos, zero, zero.copy()
    return _spline_eval(spec, t)


def _rot_y(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def _rot_z(psi: float) -> np.ndarray:
    c, s = math.cos(psi), math.sin(psi)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def trajectory_attitude(spec: TrajectorySpec, t: np.ndarray):
    """Attitude matrices (n, 3, 3) and body rates (n, 3) at times ``t``.

    The body rate follows from differentiating the yaw-pitch composition:
    the yaw rate enters through the pitch-transposed vertical axis, the
    pitch rate through the lateral axis.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    n = t.size
    rots = np.empty((n, 3, 3))
    omegas = np.zeros((n, 3))
    if spec.kind == "hover":
        r = _rot_z(spec.yaw_amp) @ _rot_y(spec.pitch_amp)
        rots[:] = r
        return rots, omegas
    psi = spec.yaw_amp * np.sin(spec.yaw_freq * t)
    dpsi = spec.yaw_amp * spec.yaw_freq * np.cos(spec.yaw_freq * t)
    th = spec.pitch_amp * np.sin(spec.pitch_freq * t + spec.pitch_phase)
    dth = spec.pitch_amp * spec.pitch_freq * np.cos(spec.pitch_freq * t + spec.pitch_phase)
    for i in range(n):
        ct, st = math.cos(th[i]), math.sin(th[i])
        rots[i] = _rot_z(psi[i]) @ _rot_y(th[i])
        omegas[i, 0] = -dpsi[i] * st
        omegas[i, 1] = dth[i]
        omegas[i, 2] = dpsi[i] * ct
    return rots, omegas


# ---------------------------------------------------------------------------
# sampled streams

@dataclass(frozen=True)
class TruthSample:
    """Ground truth at one instant; attitude as a unit quaternion (w, x, y, z)."""

    t_ns: int
    quat: np.ndarray
    pos: np.ndarray
    vel: np.ndarray

    def nav(self) -> NavState:
        return NavState(quat_to_rot(self.quat), self.pos, self.vel)


@dataclass(frozen=True)
class ImuSample:
    """Body rate (rad/s) and specific force (m/s^2) at one instant."""

    t_ns: int
    omega: np.ndarray
    accel: np.ndarray


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded Gaussian sensor noise.

    ``profile``, when given, maps an array of sample times to per-sample
    (rate, specific-force) standard deviations and overrides the constant
    values.  A spec whose standard deviations are all zero draws nothing.
    """

    std_omega: float = 0.0
    std_accel: float = 0.0
    std_obs: float = 0.0
    seed: int = 0
    profile: Callable[[np.ndarray], tuple] | None = None

    def silent(self) -> bool:
        return (self.profile is None and self.std_omega == 0.0
                and self.std_accel == 0.0 and self.std_obs == 0.0)


@dataclass(frozen=True)
class InitError:
    """Initial estimation error: the estimate starts at the true state moved
    by the inverse of this group element (angle about ``axis``, position and
    velocity offsets)."""

    angle: float = 0.0
    axis: tuple = (0.0, 0.0, 1.0)
    pos: tuple = (0.0, 0.0, 0.0)
    vel: tuple = (0.0, 0.0, 0.0)

    def as_nav(self) -> NavState:
        ax = np.asarray(self.axis, dtype=float)
        nrm = np.linalg.norm(ax)
        if nrm == 0.0:
            raise ValueError("init error axis must be nonzero")
        r = rodrigues_exp(ax / nrm * self.angle)
        return NavState(r, np.asarray(self.pos, dtype=float),
                        np.asarray(self.vel, dtype=float))


def apply_init_error(x0: NavState, err: InitError) -> NavState:
    """Initial estimate whose group error against ``x0`` equals ``err``."""
    return err.as_nav().inverse().compose(x0)


def generate_truth(spec: TrajectorySpec, t_ns: np.ndarray) -> list[TruthSample]:
    t = t_ns.astype(float) / NS_PER_S
    pos, vel, _ = trajectory_pose(spec, t)
    rots, _ = trajectory_attitude(spec, t)
    return [TruthSample(int(t_ns[i]), rot_to_quat(rots[i]), pos[i], vel[i])
            for i in range(t_ns.size)]


def synthesize_imu(spec: TrajectorySpec, t_ns: np.ndarray,
                   noise: NoiseSpec | None = None,
                   g_ref: np.ndarray = GRAVITY_ENU,
                   rng: np.random.Generator | None = None) -> list[ImuSample]:
    """Inertial samples at ``t_ns``: true body rate and specific force, plus
    optional noise drawn in time order from ``rng``."""
    t = t_ns.astype(float) / NS_PER_S
    _, _, acc = trajectory_pose(spec, t)
    rots, omegas = trajectory_attitude(spec, t)
    g = np.asarray(g_ref, dtype=float)
    n = t_ns.size
    sf = np.einsum("nij,nj->ni", rots.transpose(0, 2, 1), acc - g)
    if noise is not None and not noise.silent():
        if rng is None:
            raise ValueError("a generator is required for noisy inertial samples")
        if noise.profile is not None:
            std_w, std_a = noise.profile(t)
            std_w = np.broadcast_to(np.asarray(std_w, dtype=float), (n,))
            std_a = np.broadcast_to(np.asarray(std_a, dtype=float), (n,))
        else:
            std_w = np.full(n, noise.std_omega)
            std_a = np.full(n, noise.std_accel)
        omegas = omegas + rng.normal(size=(n, 3)) * std_w[:, None]
        sf = sf + rng.normal(size=(n, 3)) * std_a[:, None]
    return [ImuSample(int(t_ns[i]), omegas[i], sf[i]) for i in range(n)]


# ---------------------------------------------------------------------------
# closed-loop engine

@dataclass(frozen=True)
class MetricsRow:
    """One run record: the four error norms against truth (``None`` for a
    run without truth), the estimated state (attitude as a unit quaternion)
    and the adapted quantities."""

    t_ns: int
    att: float | None
    pos: float | None
    vel: float | None
    grav: float | None
    quat: np.ndarray
    p_est: np.ndarray
    v_est: np.ndarray
    sigma: np.ndarray
    g_hat: np.ndarray


@dataclass
class RunResult:
    """Outcome of one closed-loop run.

    ``rows`` has one entry per instant with ground truth, or per processed
    instant when there is no truth at all (its error norms are then
    ``None``); ``initial`` is the pre-correction error at the first instant
    with truth, ``None`` without truth.
    """

    rows: list
    initial: Metrics | None
    final_state: ObserverState

    @property
    def final(self) -> MetricsRow:
        return self.rows[-1]


_EV_TRUTH, _EV_IMU, _EV_OBS = 0, 1, 2


def merge_events(truth: Sequence[TruthSample], imu: Sequence[ImuSample],
                 observations: Sequence[tuple[int, LandmarkObservation]]) -> list:
    """One time-ordered list of ``(t_ns, kind, payload)`` events.

    Events at the same instant keep a fixed order: truth, then the inertial
    sample, then the landmark epoch, so prediction precedes correction.
    """
    events = [(s.t_ns, _EV_TRUTH, s) for s in truth]
    events += [(s.t_ns, _EV_IMU, s) for s in imu]
    events += [(int(t), _EV_OBS, o) for t, o in observations]
    events.sort(key=lambda e: (e[0], e[1]))
    return events


def run_closed_loop(truth: Sequence[TruthSample],
                    imu: Sequence[ImuSample],
                    observations: Sequence[tuple[int, LandmarkObservation]],
                    lmap: LandmarkMap,
                    gains: Gains,
                    init_estimate: NavState,
                    *,
                    gravity_mode: str = KNOWN_GRAVITY,
                    g_ref: np.ndarray = GRAVITY_ENU,
                    g0: np.ndarray | None = None,
                    sigma0: np.ndarray | None = None,
                    representation: str = MATRIX,
                    obs_nominal_dt: float = 0.05,
                    max_correction_dt: float = DEFAULT_MAX_CORRECTION_DT) -> RunResult:
    """Run the estimator over merged time-stamped streams.

    Inertial samples are held constant until the next sample arrives
    (propagation happens when the clock advances past them).  Landmark
    epochs correct the predicted state over the interval since the previous
    correction, capped at ``max_correction_dt``; the first epoch uses
    ``obs_nominal_dt``.  One row is recorded per instant at which truth is
    known, or per processed instant when ``truth`` is empty, after every
    event at that instant has been processed.
    """
    state = ObserverState.create(init_estimate, gravity_mode=gravity_mode,
                                 g_ref=g_ref, g0=g0, sigma0=sigma0,
                                 representation=representation)
    events = merge_events(truth, imu, observations)
    if not events:
        raise ValueError("no events to process")

    g_true = np.asarray(g_ref, dtype=float)
    rows: list[MetricsRow] = []
    pending_imu: ImuSample | None = None
    state_t_ns: int | None = None
    last_corr_ns: int | None = None
    initial: Metrics | None = None

    for t_ns, group in groupby(events, key=lambda e: e[0]):
        if pending_imu is not None:
            state = predict(state, pending_imu.omega, pending_imu.accel,
                            (t_ns - state_t_ns) / NS_PER_S)
        state_t_ns = t_ns

        true_nav = None
        for _, kind, payload in group:
            if kind == _EV_TRUTH:
                true_nav = payload.nav()
                if initial is None:
                    initial = error_metrics(true_nav, state, g_true)
                    warn_if_unstable(true_nav.r @ state.nav.r.T)
            elif kind == _EV_IMU:
                pending_imu = payload
            else:
                if last_corr_ns is None:
                    dt_c = obs_nominal_dt
                else:
                    dt_c = (t_ns - last_corr_ns) / NS_PER_S
                dt_c = min(dt_c, max_correction_dt)
                state = correct(state, lmap, payload, gains, dt_c)
                last_corr_ns = t_ns

        if true_nav is None and truth:
            continue
        errors = (None,) * 4
        if true_nav is not None:
            met = error_metrics(true_nav, state, g_true)
            errors = (met.att, met.pos, met.vel, met.grav)
        rows.append(MetricsRow(
            t_ns, *errors,
            quat=rot_to_quat(state.nav.r) if state.quat is None else state.quat.copy(),
            p_est=state.nav.p.copy(), v_est=state.nav.v.copy(),
            sigma=state.sigma_hat.copy(), g_hat=state.g_hat.copy()))

    return RunResult(rows=rows, initial=initial, final_state=state)


# ---------------------------------------------------------------------------
# scenarios

@dataclass(frozen=True)
class Scenario:
    """Complete description of a closed-loop experiment."""

    trajectory: TrajectorySpec
    lmap: LandmarkMap
    gains: Gains = Gains()
    init_error: InitError = InitError()
    duration: float = 40.0
    imu_rate: float = 200.0
    obs_rate: float = 20.0
    gravity_mode: str = KNOWN_GRAVITY
    g_ref: tuple = (0.0, 0.0, -9.81)
    noise: NoiseSpec = NoiseSpec()
    max_correction_dt: float = DEFAULT_MAX_CORRECTION_DT
    g0: tuple | None = None
    sigma0: tuple | None = None


def time_grid(duration: float, rate: float) -> np.ndarray:
    """Integer-nanosecond sample times from 0 to ``duration`` inclusive."""
    dt_ns = round(NS_PER_S / rate)
    n = round(duration * rate)
    return np.arange(n + 1, dtype=np.int64) * dt_ns


def build_streams(scn: Scenario):
    """Synthesize the truth, inertial and landmark-epoch streams of a scenario."""
    t_ns = time_grid(scn.duration, scn.imu_rate)
    g_ref = np.asarray(scn.g_ref, dtype=float)
    rng_imu = rng_obs = None
    if not scn.noise.silent():
        children = np.random.SeedSequence(scn.noise.seed).spawn(2)
        rng_imu = np.random.default_rng(children[0])
        rng_obs = np.random.default_rng(children[1])
    truth = generate_truth(scn.trajectory, t_ns)
    imu = synthesize_imu(scn.trajectory, t_ns, scn.noise, g_ref, rng_imu)
    every = round(scn.imu_rate / scn.obs_rate)
    if every < 1:
        raise ValueError("landmark epochs cannot outpace inertial samples")
    observations = []
    for i in range(0, t_ns.size, every):
        s = truth[i]
        obs = synthesize_observation(s.nav(), scn.lmap, t=s.t_ns / NS_PER_S,
                                     noise_std=scn.noise.std_obs, rng=rng_obs)
        observations.append((int(s.t_ns), obs))
    return truth, imu, observations


def _engine_kwargs(scn: Scenario, gravity_mode: str,
                   representation: str = MATRIX) -> dict:
    """Keyword arguments of :func:`run_closed_loop` for one run of ``scn``."""
    return dict(
        gravity_mode=gravity_mode,
        g_ref=np.asarray(scn.g_ref, dtype=float),
        g0=None if scn.g0 is None else np.asarray(scn.g0, dtype=float),
        sigma0=None if scn.sigma0 is None else np.asarray(scn.sigma0, dtype=float),
        representation=representation,
        obs_nominal_dt=1.0 / scn.obs_rate,
        max_correction_dt=scn.max_correction_dt)


def run_scenario(scn: Scenario, representation: str = MATRIX):
    """Build a scenario's streams and run the engine over them.

    Returns (truth, imu, observations, result).
    """
    truth, imu, observations = build_streams(scn)
    init_nav = apply_init_error(truth[0].nav(), scn.init_error)
    result = run_closed_loop(
        truth, imu, observations, scn.lmap, scn.gains, init_nav,
        **_engine_kwargs(scn, scn.gravity_mode, representation))
    return truth, imu, observations, result


ATT_CONVERGED = 0.01


def summarize(result: RunResult) -> dict:
    """Run summary: initial and final errors, the time the attitude error
    first dropped below :data:`ATT_CONVERGED`, and per-metric mean-square
    values over the last fifth of the run."""
    if result.initial is None:
        fs = result.final_state
        return {"samples": 0, "sigma_hat": fs.sigma_hat.tolist(),
                "g_hat": fs.g_hat.tolist()}
    last = result.final
    t_conv = None
    for r in result.rows:
        if r.att < ATT_CONVERGED:
            t_conv = r.t_ns / NS_PER_S
            break
    tail = result.rows[-max(1, len(result.rows) // 5):]
    steady = {name: float(np.mean([getattr(r, name) ** 2 for r in tail]))
              for name in ("att", "pos", "vel", "grav")}
    return {
        "samples": len(result.rows),
        "initial_att": result.initial.att,
        "initial_pos": result.initial.pos,
        "initial_vel": result.initial.vel,
        "final_att": last.att,
        "final_pos": last.pos,
        "final_vel": last.vel,
        "final_grav": last.grav,
        "time_to_converge": t_conv,
        "steady_state_ms": steady,
        "sigma_hat": last.sigma.tolist(),
        "g_hat": last.g_hat.tolist(),
    }


# Landmark layout of the reference experiment: four low corner beacons and
# two elevated ones, so the scatter is well conditioned in every axis.
_DEFAULT_LANDMARKS = (
    (0.8, 1.2, 0.5),
    (9.2, 1.8, 1.1),
    (8.9, 9.1, 0.7),
    (1.1, 8.6, 1.4),
    (5.2, 4.7, 9.3),
    (4.8, 5.3, 6.2),
)


def default_landmark_map(normalized: bool = True) -> LandmarkMap:
    """Reference landmark map.

    With ``normalized`` the common weight is chosen so the weighted scatter
    matrix has unit mean eigenvalue, which keeps the adaptation gain (it
    scales exponentially with the attitude-distance statistic) in a sane
    range for large initial errors.
    """
    pts = np.asarray(_DEFAULT_LANDMARKS, dtype=float)
    ids = np.arange(len(pts))
    if normalized:
        pc = pts.mean(axis=0)
        d = pts - pc
        tr = float(np.sum(d * d))
        w = np.full(len(pts), 3.0 / tr)
    else:
        w = np.ones(len(pts))
    return LandmarkMap(ids=ids, positions=pts, weights=w)


def default_scenario(gravity_mode: str = KNOWN_GRAVITY,
                     noisy: bool = False, seed: int = 0,
                     duration: float = 40.0) -> Scenario:
    """Reference experiment: slow spatial figure over six landmarks, large
    initial attitude error (170 degrees), known or adaptive gravity."""
    noise = NoiseSpec(std_omega=0.12, std_accel=0.11, seed=seed) if noisy else NoiseSpec()
    return Scenario(
        trajectory=TrajectorySpec(),
        lmap=default_landmark_map(),
        gains=Gains(),
        init_error=InitError(angle=2.9670597283903604,
                             axis=(1.0, 1.0, 1.0),
                             pos=(3.0, -2.0, 1.0)),
        duration=duration,
        gravity_mode=gravity_mode,
        noise=noise,
    )


def hover_scenario(duration: float = 40.0) -> Scenario:
    """Stationary scenario whose sampled inputs are exactly constant, so an
    estimate started at the truth must stay there to rounding."""
    return Scenario(
        trajectory=TrajectorySpec(kind="hover", center=(5.0, 5.0, 3.0),
                                  yaw_amp=0.4, pitch_amp=0.2),
        lmap=default_landmark_map(),
        init_error=InitError(),
        duration=duration,
    )
