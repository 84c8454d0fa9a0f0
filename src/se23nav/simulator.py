"""Scenario synthesis and the closed-loop estimation engine.

Trajectories are analytic: position, velocity and acceleration come from
closed-form expressions (or an exact cubic spline), attitude from a
yaw-pitch composition with its exact body rate.  Inertial samples are the
true body rate and specific force at the sample instant, optionally
perturbed by seeded Gaussian noise, and are treated as constant over the
following sample interval.

The engine consumes three time-stamped streams (truth and inertial columns,
landmark epochs) merged on an integer-nanosecond clock and records one row
per instant where truth is available.  Simulation and replay drive the same
engine with the same float values, which is what makes replay reproduce a
recorded run bit for bit.  The engine propagates with the law of
``observer.predict`` (``observer._advance``) on a flat state, its input-only
terms computed a block of steps at a time, so it matches a loop over the
public ``predict`` and ``correct`` bit for bit.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import astuple, dataclass, replace
from typing import Sequence

import numpy as np

from .liegroup import NavState, so3_gammas
from .measurement import LandmarkMap, LandmarkObservation, synthesize_observation
# The engine runs ``_advance``, the law of ``predict``, on a flat state.
# ``predict`` stays imported all the same: ``bench/test_bench.py`` checks that
# the tracer rebinds ``simulator.predict`` along with ``observer.predict``.
from .observer import (GRAVITY_ENU, KNOWN_GRAVITY, MATRIX, Gains, Metrics,
                       NonFiniteState, ObserverState, _advance, _error_norms,
                       _motion_rows, correct, error_metrics, predict,
                       warn_if_unstable)
from .quaternion import quat_to_rot, rot_to_quat

NS_PER_S = 1_000_000_000

# The engine computes the input-only terms of this many steps at a time, so
# their memory does not grow with the length of a run.
_BLOCK = 256

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


# Rotations about the lateral and the vertical axis, (..., 3, 3) for angles (...).
def _rot_y(theta) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    o, i = np.zeros_like(c), np.ones_like(c)
    return np.stack([c, o, s, o, i, o, -s, o, c], axis=-1).reshape(c.shape + (3, 3))


def _rot_z(psi) -> np.ndarray:
    c, s = np.cos(psi), np.sin(psi)
    o, i = np.zeros_like(c), np.ones_like(c)
    return np.stack([c, -s, o, s, c, o, o, o, i], axis=-1).reshape(c.shape + (3, 3))


def trajectory_attitude(spec: TrajectorySpec, t: np.ndarray):
    """Attitude matrices (n, 3, 3) and body rates (n, 3) at times ``t``.

    The body rate follows from differentiating the yaw-pitch composition:
    the yaw rate enters through the pitch-transposed vertical axis, the
    pitch rate through the lateral axis.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    if spec.kind == "hover":
        r = _rot_z(spec.yaw_amp) @ _rot_y(spec.pitch_amp)
        return np.tile(r, (t.size, 1, 1)), np.zeros((t.size, 3))
    psi = spec.yaw_amp * np.sin(spec.yaw_freq * t)
    dpsi = spec.yaw_amp * spec.yaw_freq * np.cos(spec.yaw_freq * t)
    th = spec.pitch_amp * np.sin(spec.pitch_freq * t + spec.pitch_phase)
    dth = spec.pitch_amp * spec.pitch_freq * np.cos(spec.pitch_freq * t + spec.pitch_phase)
    omegas = np.stack([-dpsi * np.sin(th), dth, dpsi * np.cos(th)], axis=-1)
    return _rot_z(psi) @ _rot_y(th), omegas


# ---------------------------------------------------------------------------
# sampled streams

class _Columns:
    """Array columns as long as ``t_ns``, a strictly increasing 1-D int64 array,
    that read as a sequence of ``_row`` records (``len``, ``[k]``, iteration)."""

    def __len__(self) -> int:
        return len(self.t_ns)

    def __getitem__(self, k: int):
        t, *cols = vars(self).values()  # the fields, in order
        return self._row(int(t[k]), *(c[k] for c in cols))

    def __post_init__(self):
        t = self.t_ns
        if (not (isinstance(t, np.ndarray) and t.dtype == np.int64 and t.ndim == 1)
                or np.any(t[1:] <= t[:-1])):
            raise ValueError("t_ns must be a strictly increasing 1-D int64 array")
        if any(len(c) != len(t) for c in vars(self).values() if isinstance(c, np.ndarray)):
            raise ValueError("every column must have the length of t_ns")


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
class TruthStream(_Columns):
    """Ground truth as ``(n, 4)`` and ``(n, 3)`` columns of :class:`TruthSample`."""

    t_ns: np.ndarray
    quat: np.ndarray
    pos: np.ndarray
    vel: np.ndarray
    _row = TruthSample


@dataclass(frozen=True)
class ImuStream(_Columns):
    """Inertial samples as ``(n, 3)`` columns of :class:`ImuSample`."""

    t_ns: np.ndarray
    omega: np.ndarray
    accel: np.ndarray
    _row = ImuSample


@dataclass(frozen=True)
class NoiseSpec:
    """Seeded Gaussian sensor noise; the levels and the seed are nonnegative.
    A spec whose standard deviations are all zero draws nothing."""

    std_omega: float = 0.0
    std_accel: float = 0.0
    std_obs: float = 0.0
    seed: int = 0

    def __post_init__(self):
        for name in ("std_omega", "std_accel", "std_obs", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"noise {name} must be nonnegative")

    def silent(self) -> bool:
        return self.std_omega == 0.0 and self.std_accel == 0.0 and self.std_obs == 0.0


@dataclass(frozen=True)
class InitError:
    """Initial estimation error: the estimate starts at the true state moved
    by the inverse of this group element (angle about a nonzero ``axis``,
    position and velocity offsets)."""

    angle: float = 0.0
    axis: tuple = (0.0, 0.0, 1.0)
    pos: tuple = (0.0, 0.0, 0.0)
    vel: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow is reported below
            norm = np.linalg.norm(np.asarray(self.axis, dtype=float))
        if not 0.0 < norm < math.inf:
            raise ValueError("init error axis must have a finite, nonzero length")

    def as_nav(self) -> NavState:
        ax = np.asarray(self.axis, dtype=float)
        r = so3_gammas(ax / np.linalg.norm(ax) * self.angle)[0]
        return NavState(r, np.asarray(self.pos, dtype=float),
                        np.asarray(self.vel, dtype=float))


def apply_init_error(x0: NavState, err: InitError) -> NavState:
    """Initial estimate whose group error against ``x0`` equals ``err``."""
    return err.as_nav().inverse().compose(x0)


# ---------------------------------------------------------------------------
# closed-loop engine

@dataclass(frozen=True)
class MetricsRow:
    """One row of a run record: the four error norms against truth
    (``None`` for a run without truth), the estimated state (attitude as a
    unit quaternion) and the adapted quantities."""

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
class RunResult(_Columns):
    """Columnar record of one closed-loop run that reads as a sequence of
    :class:`MetricsRow` (``rows`` lists them, ``final`` is the last).

    Row ``k`` of each column (named as the row fields) is the ``k``-th
    instant with ground truth, or processed instant when there is no truth;
    the error columns are then ``None``.  ``initial`` is the pre-correction
    error at the first instant with truth; a record read from a file has no
    ``initial`` or ``final_state``.
    """

    t_ns: np.ndarray
    att: np.ndarray | None
    pos: np.ndarray | None
    vel: np.ndarray | None
    grav: np.ndarray | None
    quat: np.ndarray
    p_est: np.ndarray
    v_est: np.ndarray
    sigma: np.ndarray
    g_hat: np.ndarray
    initial: Metrics | None = None
    final_state: ObserverState | None = None

    def __getitem__(self, k: int) -> MetricsRow:
        errors = (None if c is None else float(c[k])
                  for c in (self.att, self.pos, self.vel, self.grav))
        return MetricsRow(int(self.t_ns[k]), *errors, quat=self.quat[k],
                          p_est=self.p_est[k], v_est=self.v_est[k],
                          sigma=self.sigma[k], g_hat=self.g_hat[k])

    @property
    def rows(self) -> list[MetricsRow]:
        return list(self)

    @property
    def final(self) -> MetricsRow:
        return self[-1]


def merge_events(truth: TruthStream | None, imu: ImuStream,
                 observations: Sequence[tuple[int, LandmarkObservation]]):
    """The engine's schedule: the distinct instants of the streams (int64), the
    index of the inertial sample held at each (the last at or before it, -1
    before the first) and the epochs keyed by time, which strictly increases."""
    epoch_t = np.array([t for t, _ in observations], dtype=np.int64)
    if np.any(epoch_t[1:] <= epoch_t[:-1]):
        raise ValueError("landmark epoch times must strictly increase")
    times = [imu.t_ns, epoch_t] + ([] if truth is None else [truth.t_ns])
    instants = np.unique(np.concatenate(times))
    held = np.searchsorted(imu.t_ns, instants, side="right") - 1
    return instants, held, dict(zip(epoch_t.tolist(), (o for _, o in observations)))


def run_closed_loop(truth: TruthStream | None,
                    imu: ImuStream,
                    observations: Sequence[tuple[int, LandmarkObservation]],
                    lmap: LandmarkMap,
                    gains: Gains,
                    init_estimate: NavState,
                    *,
                    gravity_mode: str = KNOWN_GRAVITY,
                    g_ref: np.ndarray = GRAVITY_ENU,
                    representation: str = MATRIX,
                    obs_nominal_dt: float = 0.05,
                    max_correction_dt: float = DEFAULT_MAX_CORRECTION_DT) -> RunResult:
    """Run the estimator over merged time-stamped streams.

    Inertial samples are held constant until the next sample arrives
    (propagation happens when the clock advances past them).  Landmark
    epochs correct the predicted state over the interval since the previous
    correction, capped at ``max_correction_dt``; the first epoch uses
    ``obs_nominal_dt``.  One row is recorded per row of ``truth``, or per
    processed instant when ``truth`` is ``None``, after every event at that
    instant has been processed.  Raises :class:`NonFiniteState` when an
    error norm is not finite.
    """
    if truth is not None and not len(truth):
        raise ValueError("ground truth is empty; pass truth=None for a run without truth")
    state = ObserverState.create(init_estimate, gravity_mode=gravity_mode,
                                 g_ref=g_ref, representation=representation)
    instants, held, epochs = merge_events(truth, imu, observations)
    if not instants.size:
        raise ValueError("no events to process")

    g_true = np.asarray(g_ref, dtype=float)
    t_rot = None if truth is None else quat_to_rot(truth.quat)
    first = -1 if truth is None else int(np.searchsorted(instants, truth.t_ns[0]))
    n = instants.size
    stamps, held = instants.tolist(), held.tolist()
    last_corr_ns: int | None = None
    initial: Metrics | None = None
    steps = state.steps
    # the flat state between epochs, all float lists: ObserverState is built
    # only to correct, to score the first truth instant and to return the
    # final state
    matrix = state.quat is None

    def flat(state: ObserverState):
        return (state.nav.r.ravel().tolist(), None if matrix else state.quat.tolist(),
                state.nav.p.tolist(), state.nav.v.tolist(), state.g_hat.tolist(),
                state.sigma_hat.tolist() + state.g_hat.tolist())

    def observer_state() -> ObserverState:
        return ObserverState(nav=NavState(np.array(r).reshape(3, 3), np.array(p),
                                          np.array(v)),
                             sigma_hat=state.sigma_hat, g_hat=state.g_hat,
                             gravity_mode=gravity_mode, steps=steps,
                             quat=None if matrix else np.array(quat))

    r, quat, p, v, g, adapted = flat(state)
    # the estimate at every instant, scored after the loop: the attitude as
    # kept (a quaternion's matrix is its quat_to_rot), p, v, sigma and g_hat,
    # packed doubles (a list of floats would cost four times the memory)
    record = array("d")
    block_end = 0
    for k, t_ns in enumerate(stamps):
        if k and held[k - 1] >= 0:
            if k >= block_end:
                # the input-only half of the next steps, a block at a time
                block_start, block_end = k, min(k + _BLOCK, n)
                dts = [(stamps[i] - stamps[i - 1]) / NS_PER_S
                       for i in range(block_start, block_end)]
                rows = np.maximum(held[block_start - 1:block_end - 1], 0)
                turns, g12as = _motion_rows(imu.omega[rows], imu.accel[rows], dts,
                                            not matrix)
            i = k - block_start
            steps += 1
            r, p, v, quat = _advance(r, p, v, g, quat, steps, turns[i], g12as[i], dts[i])
        if k == first:
            state = observer_state()
            true_nav = NavState(t_rot[0], truth.pos[0], truth.vel[0])
            initial = error_metrics(true_nav, state, g_true)
            warn_if_unstable(true_nav.r @ state.nav.r.T)
        epoch = epochs.get(t_ns)
        if epoch is not None:
            dt_c = obs_nominal_dt if last_corr_ns is None else (t_ns - last_corr_ns) / NS_PER_S
            state = correct(observer_state(), lmap, epoch, gains,
                            min(dt_c, max_correction_dt))
            r, quat, p, v, g, adapted = flat(state)
            last_corr_ns = t_ns
        record.extend((r if matrix else quat) + p + v + adapted)

    state = observer_state()
    table = np.frombuffer(record).reshape(n, -1)
    keep = np.ones(n, bool) if truth is None else np.isin(instants, truth.t_ns)
    # the kept rows of each column, copied C-ordered, since products round by
    # memory layout
    w = table.shape[1] - 12  # the attitude's width
    edges = [0, w, w + 3, w + 6, w + 9, w + 12]
    att, p_col, v_col, sigma_col, g_col = (table[keep, a:b] for a, b in zip(edges, edges[1:]))
    del table, record  # before scoring allocates its temporaries
    if matrix:
        att = att.reshape(-1, 3, 3)
    errors = (None,) * 4
    if truth is not None:
        rot = att if matrix else quat_to_rot(att)
        errors = _error_norms(t_rot, truth.pos, truth.vel, rot, p_col, v_col, g_col,
                              g_true)
        if not np.isfinite(np.concatenate([*errors, astuple(initial)])).all():
            raise NonFiniteState("an error norm against truth is not finite")
    return RunResult(instants if truth is None else truth.t_ns, *errors,
                     quat=rot_to_quat(att) if matrix else att,
                     p_est=p_col, v_est=v_col, sigma=sigma_col, g_hat=g_col,
                     initial=initial, final_state=state)


# ---------------------------------------------------------------------------
# scenarios

@dataclass(frozen=True, kw_only=True)
class RunSpec:
    """An experiment's run-level values, in the order a run configuration lists
    them; the defaults are the reference experiment's, noise-free."""

    duration: float = 40.0
    imu_rate: float = 200.0
    obs_rate: float = 20.0
    gravity_mode: str = KNOWN_GRAVITY
    representation: str = MATRIX
    max_correction_dt: float = DEFAULT_MAX_CORRECTION_DT
    noise: NoiseSpec = NoiseSpec()
    gains: Gains = Gains()
    g_ref: tuple = (0.0, 0.0, -9.81)
    init_error: InitError = InitError(angle=2.9670597283903604,  # 170 degrees
                                      axis=(1.0, 1.0, 1.0), pos=(3.0, -2.0, 1.0))
    trajectory: TrajectorySpec = TrajectorySpec()


@dataclass(frozen=True, kw_only=True)
class Scenario(RunSpec):
    """Complete description of a closed-loop experiment: a run over a map."""

    lmap: LandmarkMap


def time_grid(duration: float, rate: float) -> np.ndarray:
    """Integer-nanosecond sample times from 0 to ``duration`` inclusive."""
    dt_ns = round(NS_PER_S / rate)
    n = round(duration * rate)
    return np.arange(n + 1, dtype=np.int64) * dt_ns


def build_streams(scn: Scenario):
    """Synthesize the truth and inertial columns and the landmark epochs of a
    scenario from one evaluation of its trajectory on the inertial grid.  Noise,
    unless silent, is drawn for all rates, then all forces, then epoch by epoch."""
    every = round(scn.imu_rate / scn.obs_rate)
    if every < 1:
        raise ValueError("landmark epochs cannot outpace inertial samples")
    t_ns = time_grid(scn.duration, scn.imu_rate)
    t = t_ns.astype(float) / NS_PER_S
    pos, vel, acc = trajectory_pose(scn.trajectory, t)
    rots, omegas = trajectory_attitude(scn.trajectory, t)
    sf = np.einsum("nij,nj->ni", rots.transpose(0, 2, 1),
                   acc - np.asarray(scn.g_ref, dtype=float))
    rng_obs = None
    if not scn.noise.silent():
        rng_imu, rng_obs = map(np.random.default_rng,
                               np.random.SeedSequence(scn.noise.seed).spawn(2))
        omegas = omegas + rng_imu.normal(size=omegas.shape) * scn.noise.std_omega
        sf = sf + rng_imu.normal(size=sf.shape) * scn.noise.std_accel
    quats = rot_to_quat(rots)
    observations = [(t, synthesize_observation(NavState(r, p, v), scn.lmap,
                                               noise_std=scn.noise.std_obs, rng=rng_obs))
                    for t, r, p, v in zip(t_ns[::every].tolist(), quat_to_rot(quats[::every]),
                                          pos[::every], vel[::every])]
    return TruthStream(t_ns, quats, pos, vel), ImuStream(t_ns, omegas, sf), observations


def _run_streams(scn: Scenario, truth: TruthStream | None, imu: ImuStream,
                 observations: Sequence[tuple[int, LandmarkObservation]]) -> RunResult:
    """One engine run of ``scn`` over its streams, started at the scenario's
    initial error from truth's first row or, without truth, from the first row
    the scenario synthesizes, where the recorded run started."""
    start = truth if truth is not None else build_streams(replace(scn, duration=0.0))[0]
    x0 = NavState(quat_to_rot(start.quat[0]), start.pos[0], start.vel[0])
    return run_closed_loop(
        truth, imu, observations, scn.lmap, scn.gains,
        apply_init_error(x0, scn.init_error), gravity_mode=scn.gravity_mode,
        g_ref=np.asarray(scn.g_ref, dtype=float), representation=scn.representation,
        obs_nominal_dt=1.0 / scn.obs_rate, max_correction_dt=scn.max_correction_dt)


def run_scenario(scn: Scenario):
    """Build a scenario's streams and run the engine over them.

    Returns (truth, imu, observations, result).
    """
    truth, imu, observations = build_streams(scn)
    return truth, imu, observations, _run_streams(scn, truth, imu, observations)


ATT_CONVERGED = 0.01


def summarize(result: RunResult) -> dict:
    """Run summary from the record's columns: initial errors (engine runs with
    truth), final errors, the time the attitude error first dropped below
    :data:`ATT_CONVERGED` and per-metric mean-square values over the last fifth
    of the run (records with error columns), and the last adapted quantities."""
    n, errors = len(result), ("att", "pos", "vel", "grav")
    info: dict = {"samples": n}
    if result.initial is not None:
        info |= {f"initial_{name}": getattr(result.initial, name) for name in errors[:3]}
    if result.att is not None:
        below = np.flatnonzero(result.att < ATT_CONVERGED)
        tail = slice(-max(1, n // 5), None)
        info |= {f"final_{name}": float(getattr(result, name)[-1]) for name in errors}
        info["time_to_converge"] = int(result.t_ns[below[0]]) / NS_PER_S if below.size else None
        info["steady_state_ms"] = {name: float(np.mean(getattr(result, name)[tail] ** 2))
                                   for name in errors}
    return info | {"sigma_hat": result.sigma[-1].tolist(), "g_hat": result.g_hat[-1].tolist()}


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


def default_landmark_map() -> LandmarkMap:
    """Reference landmark map.

    The common weight is chosen so the weighted scatter matrix has unit mean
    eigenvalue, which keeps the adaptation gain (it scales exponentially
    with the attitude-distance statistic) in a sane range for large initial
    errors.
    """
    pts = np.asarray(_DEFAULT_LANDMARKS, dtype=float)
    d = pts - pts.mean(axis=0)
    w = np.full(len(pts), 3.0 / float(np.sum(d * d)))
    return LandmarkMap(ids=np.arange(len(pts)), positions=pts, weights=w)


def default_scenario(gravity_mode: str = KNOWN_GRAVITY,
                     noisy: bool = False, seed: int = 0,
                     duration: float = 40.0) -> Scenario:
    """Reference experiment: slow spatial figure over six landmarks, large
    initial attitude error (170 degrees), known or adaptive gravity."""
    noise = NoiseSpec(std_omega=0.12, std_accel=0.11, seed=seed) if noisy else NoiseSpec()
    return Scenario(lmap=default_landmark_map(), duration=duration,
                    gravity_mode=gravity_mode, noise=noise)


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
