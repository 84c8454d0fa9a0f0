"""Scenario synthesis and the closed-loop engine: finite-difference truth
oracles, stream determinism, event ordering, run bookkeeping."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from se23nav import (ADAPTIVE_GRAVITY, GRAVITY_ENU, KNOWN_GRAVITY, MATRIX,
                     QUATERNION, Gains, ImuStream, InitError, LandmarkObservation,
                     NavState, NoiseSpec, NonFiniteState,
                     ObserverState, TrajectorySpec, TruthStream, UnstableSetWarning,
                     apply_init_error, build_streams, correct, default_landmark_map,
                     default_scenario, error_metrics, hover_scenario, predict,
                     run_closed_loop, run_scenario, so3_distance, so3_gammas, summarize)
from se23nav import simulator
from se23nav.liegroup import _norm, nav_error
from se23nav.observer import REORTHO_EVERY
from se23nav.quaternion import rot_to_quat
from se23nav.simulator import (TrajectoryError, time_grid, trajectory_attitude,
                               trajectory_pose)

NS = 1_000_000_000


def test_position_derivatives_by_central_difference():
    spec = TrajectorySpec()
    t = np.arange(0.0, 4.0, 1e-3)
    pos, vel, acc = trajectory_pose(spec, t)
    dpos = (pos[2:] - pos[:-2]) / (2e-3)
    dvel = (vel[2:] - vel[:-2]) / (2e-3)
    assert np.max(np.abs(dpos - vel[1:-1])) < 1e-6
    assert np.max(np.abs(dvel - acc[1:-1])) < 1e-6


def test_attitude_rate_consistent_with_rotation_flow():
    spec = TrajectorySpec()
    t = np.arange(0.0, 4.0, 1e-3)
    rots, omegas = trajectory_attitude(spec, t)
    for k in range(0, t.size - 1, 97):
        stepped = rots[k] @ so3_gammas(omegas[k] * 1e-3)[0]
        assert so3_distance(stepped @ rots[k + 1].T) < 1e-12


def test_specific_force_definition():
    scn = dataclasses.replace(default_scenario(duration=2.0), imu_rate=100.0)
    _, imu, _ = build_streams(scn)
    t = time_grid(2.0, 100.0) / NS
    _, _, acc = trajectory_pose(scn.trajectory, t)
    rots, omegas = trajectory_attitude(scn.trajectory, t)
    assert len(imu) == t.size == 201
    for k in range(0, t.size, 17):
        assert_allclose(imu[k].omega, omegas[k], atol=1e-12)
        assert_allclose(imu[k].accel, rots[k].T @ (acc[k] - GRAVITY_ENU),
                        atol=1e-12)


def test_circle_trajectory_geometry():
    spec = TrajectorySpec(kind="circle", center=(1.0, -2.0, 4.0), radius=2.0)
    t = np.linspace(0.0, 12.0, 400)
    pos, vel, acc = trajectory_pose(spec, t)
    w = spec.freq[0]
    radial = np.linalg.norm(pos[:, :2] - np.array([1.0, -2.0]), axis=1)
    assert np.max(np.abs(radial - 2.0)) < 1e-12
    assert np.max(np.abs(pos[:, 2] - 4.0)) < 1e-12
    speed = np.linalg.norm(vel, axis=1)
    assert np.max(np.abs(speed - 2.0 * abs(w))) < 1e-12
    assert np.max(np.abs(np.linalg.norm(acc, axis=1) - 2.0 * w * w)) < 1e-12


def test_hover_is_static():
    scn = hover_scenario()
    t = np.linspace(0.0, 10.0, 50)
    pos, vel, acc = trajectory_pose(scn.trajectory, t)
    assert np.max(np.abs(pos - np.array([5.0, 5.0, 3.0]))) == 0.0
    assert np.max(np.abs(vel)) == 0.0
    assert np.max(np.abs(acc)) == 0.0
    rots, omegas = trajectory_attitude(scn.trajectory, t)
    cz, sz = math.cos(0.4), math.sin(0.4)
    cy, sy = math.cos(0.2), math.sin(0.2)
    rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    for k in range(t.size):
        assert_allclose(rots[k], rz @ ry, atol=1e-15)
    assert np.max(np.abs(omegas)) == 0.0


def test_waypoint_spline_interpolation_and_end_conditions():
    times = (0.0, 1.0, 2.5, 4.0)
    points = ((0.0, 0.0, 0.0), (1.0, 2.0, 0.5), (3.0, 1.0, 1.0), (4.0, 4.0, 2.0))
    spec = TrajectorySpec(kind="waypoints", waypoint_times=times,
                          waypoint_points=points)
    pos, vel, acc = trajectory_pose(spec, np.array(times))
    assert_allclose(pos, np.array(points), atol=1e-12)
    # first derivative is continuous across the interior knots
    eps = 1e-7
    for knot in (1.0, 2.5):
        _, v_lo, _ = trajectory_pose(spec, np.array([knot - eps]))
        _, v_hi, _ = trajectory_pose(spec, np.array([knot + eps]))
        assert np.max(np.abs(v_hi - v_lo)) < 1e-5
    # natural end conditions: zero curvature at both ends
    _, _, a0 = trajectory_pose(spec, np.array([0.0]))
    _, _, a1 = trajectory_pose(spec, np.array([4.0 - 1e-9]))
    assert np.max(np.abs(a0)) < 1e-6
    assert np.max(np.abs(a1)) < 1e-6
    # before the first and after the last waypoint the pose holds still
    pos, vel, acc = trajectory_pose(spec, np.array([-1.0, 5.0, 9.0]))
    assert_allclose(pos[0], points[0], atol=1e-12)
    assert_allclose(pos[1], points[-1], atol=1e-12)
    assert_allclose(pos[2], points[-1], atol=1e-12)
    assert np.max(np.abs(vel)) == 0.0
    assert np.max(np.abs(acc)) == 0.0


def test_trajectory_validation():
    with pytest.raises(TrajectoryError):
        TrajectorySpec(kind="spiral")
    with pytest.raises(TrajectoryError):
        TrajectorySpec(kind="waypoints", waypoint_times=(0.0,),
                       waypoint_points=((0.0, 0.0, 0.0),))
    with pytest.raises(TrajectoryError):
        TrajectorySpec(kind="waypoints", waypoint_times=(0.0, 1.0),
                       waypoint_points=((0.0, 0.0, 0.0),))
    with pytest.raises(TrajectoryError):
        TrajectorySpec(kind="waypoints", waypoint_times=(1.0, 1.0),
                       waypoint_points=((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        InitError(axis=(0.0, 0.0, 0.0)).as_nav()
    for bad in ({"std_obs": -0.1}, {"seed": -1}):
        with pytest.raises(ValueError) as ei:
            NoiseSpec(**bad)
        assert next(iter(bad)) in str(ei.value)


def test_imu_noise_statistics():
    scn = dataclasses.replace(default_scenario(duration=100.0), imu_rate=1000.0)
    _, clean, _ = build_streams(scn)
    noise = NoiseSpec(std_omega=0.12, std_accel=0.11, seed=7)
    _, noisy, _ = build_streams(dataclasses.replace(scn, noise=noise))
    dw = np.array([n.omega - c.omega for n, c in zip(noisy, clean)])
    da = np.array([n.accel - c.accel for n, c in zip(noisy, clean)])
    assert abs(dw.std() - 0.12) / 0.12 < 0.02
    assert abs(da.std() - 0.11) / 0.11 < 0.02
    # a silent spec draws nothing, whatever its seed
    _, silent, _ = build_streams(dataclasses.replace(scn, noise=NoiseSpec(seed=1)))
    assert all(np.array_equal(a.omega, b.omega) and np.array_equal(a.accel, b.accel)
               for a, b in zip(silent, clean))


def test_stream_determinism_and_seed_sensitivity():
    scn = default_scenario(noisy=True, seed=3, duration=2.0)
    a = build_streams(scn)
    b = build_streams(scn)
    for sa, sb in zip(a[1], b[1]):
        assert np.array_equal(sa.omega, sb.omega)
        assert np.array_equal(sa.accel, sb.accel)
    for (ta, oa), (tb, ob) in zip(a[2], b[2]):
        assert ta == tb and np.array_equal(oa.points, ob.points)
    other = build_streams(dataclasses.replace(
        scn, noise=dataclasses.replace(scn.noise, seed=4)))
    assert not np.array_equal(a[1][0].omega, other[1][0].omega)


def test_longer_horizon_noise_layout():
    # inertial noise is drawn per channel (all rate rows, then all force
    # rows), so across durations the rate prefix is bit-identical while the
    # force draws start at a different stream offset; observation noise is
    # drawn per epoch in time order, so its prefix extends exactly
    noisy = dataclasses.replace(default_scenario(noisy=True, seed=5).noise,
                                std_obs=0.05)
    short = build_streams(dataclasses.replace(
        default_scenario(seed=5, duration=2.0), noise=noisy))
    long = build_streams(dataclasses.replace(
        default_scenario(seed=5, duration=4.0), noise=noisy))
    for sa, sb in zip(short[1], long[1]):
        assert np.array_equal(sa.omega, sb.omega)
    assert not np.array_equal(short[1][0].accel, long[1][0].accel)
    for (ta, oa), (tb, ob) in zip(short[2], long[2]):
        assert ta == tb and np.array_equal(oa.points, ob.points)


def test_time_grid_layout():
    g = time_grid(40.0, 200.0)
    assert g.dtype == np.int64
    assert g.size == 8001
    assert g[0] == 0
    assert np.all(np.diff(g) == 5_000_000)
    assert time_grid(100.0, 1000.0).size == 100_001
    g3 = time_grid(40.0, 3.0)
    assert g3.size == 121
    assert np.all(np.diff(g3) == round(NS / 3))


def test_observation_epoch_spacing():
    truth, imu, obs = build_streams(default_scenario(duration=2.0))
    assert len(truth) == len(imu) == 401
    assert len(obs) == 41
    t_obs = np.array([t for t, _ in obs])
    assert np.all(np.diff(t_obs) == 50_000_000)
    assert t_obs[0] == 0 and t_obs[-1] == 2 * NS


def test_initial_error_construction():
    scn = default_scenario()
    truth, _, _ = build_streams(dataclasses.replace(scn, duration=0.1))
    x0 = truth[0].nav()
    xh0 = apply_init_error(x0, scn.init_error)
    err = nav_error(x0, xh0)
    expect = scn.init_error.as_nav()
    assert_allclose(err.r, expect.r, atol=1e-12)
    assert_allclose(err.p, expect.p, atol=1e-12)
    assert abs(np.linalg.norm(err.p) - math.sqrt(14.0)) < 1e-9
    angle = scn.init_error.angle
    assert abs(so3_distance(err.r) - (1.0 - math.cos(angle)) / 2.0) < 1e-12
    assert so3_distance(err.r) > 0.9


def test_engine_matches_manual_event_replay():
    for representation in (MATRIX, QUATERNION):
        for gravity_mode in (KNOWN_GRAVITY, ADAPTIVE_GRAVITY):
            _check_manual_event_replay(representation, gravity_mode)


def _check_manual_event_replay(representation, gravity_mode):
    # replays the documented event semantics by hand: propagation holds the
    # newest inertial sample, corrections span the gap since the last epoch;
    # every truth instant is scored with the per-row error formula
    scn = dataclasses.replace(default_scenario(gravity_mode, noisy=True, seed=9),
                              duration=1.0, imu_rate=50.0, obs_rate=10.0)
    truth, imu, observations, result = run_scenario(
        dataclasses.replace(scn, representation=representation))
    g_ref = np.asarray(scn.g_ref, dtype=float)

    st = ObserverState.create(apply_init_error(truth[0].nav(), scn.init_error),
                              gravity_mode=gravity_mode, g_ref=g_ref,
                              representation=representation)
    imu_at = {s.t_ns: s for s in imu}
    obs_at = {t: o for t, o in observations}
    pending = None
    s_t = None
    last_corr = None
    rows = []
    for sample in truth:
        t = sample.t_ns
        if s_t is not None and t > s_t and pending is not None:
            st = predict(st, pending.omega, pending.accel, (t - s_t) / NS)
        s_t = t
        if t in imu_at:
            pending = imu_at[t]
        if t in obs_at:
            dt_c = 1.0 / scn.obs_rate if last_corr is None else (t - last_corr) / NS
            dt_c = min(dt_c, scn.max_correction_dt)
            st = correct(st, scn.lmap, obs_at[t], scn.gains, dt_c)
            last_corr = t
        err = nav_error(sample.nav(), st.nav)
        quat = rot_to_quat(st.nav.r) if st.quat is None else st.quat
        rows.append([so3_distance(err.r), _norm(err.p), _norm(err.v),
                     _norm(g_ref - err.r @ st.g_hat), *quat, *st.nav.p,
                     *st.nav.v, *st.sigma_hat, *st.g_hat])

    got = np.column_stack([result.att, result.pos, result.vel, result.grav,
                           result.quat, result.p_est, result.v_est,
                           result.sigma, result.g_hat])
    assert result.t_ns.tolist() == [s.t_ns for s in truth]
    assert got.tobytes() == np.array(rows).tobytes()
    fs = result.final_state
    for a, b in ((fs.nav.r, st.nav.r), (fs.nav.p, st.nav.p), (fs.nav.v, st.nav.v),
                 (fs.sigma_hat, st.sigma_hat), (fs.g_hat, st.g_hat)):
        assert a.tobytes() == b.tobytes()


def test_engine_matches_public_predict_and_correct_over_long_schedules():
    # more steps than the engine computes inputs for at once and than the
    # re-orthonormalization period, with steps of 2**53 + 1 and 2**53 + 3 ns:
    # int / int divides them exactly rounded, numpy rounds the integer to a
    # double first, which moves the second step's dt by one ulp
    for representation in (MATRIX, QUATERNION):
        _check_public_loop(representation)


def _check_public_loop(representation):
    scn = dataclasses.replace(default_scenario(ADAPTIVE_GRAVITY, noisy=True, seed=4),
                              duration=6.5, representation=representation)
    truth, imu, observations = build_streams(scn)
    n = len(imu)
    assert n - 1 > max(simulator._BLOCK, REORTHO_EVERY)
    assert (2 ** 53 + 3) / NS != float(2 ** 53 + 3) / NS
    # the steps that end at samples 700 and 1100 last 2**53 + 1 and 2**53 + 3 ns
    step_ns = int(imu.t_ns[1] - imu.t_ns[0])
    t_ns = (imu.t_ns + np.where(np.arange(n) >= 700, 2 ** 53 + 1 - step_ns, 0)
            + np.where(np.arange(n) >= 1100, 2 ** 53 + 3 - step_ns, 0))
    at = dict(zip(imu.t_ns.tolist(), t_ns.tolist()))
    truth = TruthStream(t_ns, truth.quat, truth.pos, truth.vel)
    imu = ImuStream(t_ns, imu.omega, imu.accel)
    observations = [(at[t], o) for t, o in observations]
    g_ref = np.asarray(scn.g_ref, dtype=float)
    init = apply_init_error(truth[0].nav(), scn.init_error)
    result = run_closed_loop(truth, imu, observations, scn.lmap, scn.gains, init,
                             gravity_mode=scn.gravity_mode, g_ref=g_ref,
                             representation=representation,
                             obs_nominal_dt=1.0 / scn.obs_rate)

    st = ObserverState.create(init, gravity_mode=scn.gravity_mode, g_ref=g_ref,
                              representation=representation)
    obs_at = dict(observations)
    stamps = t_ns.tolist()
    last_corr = None
    rows = []
    for k, t in enumerate(stamps):
        if k:
            st = predict(st, imu.omega[k - 1], imu.accel[k - 1], (t - stamps[k - 1]) / NS)
        if t in obs_at:
            dt_c = 1.0 / scn.obs_rate if last_corr is None else (t - last_corr) / NS
            st = correct(st, scn.lmap, obs_at[t], scn.gains,
                         min(dt_c, scn.max_correction_dt))
            last_corr = t
        m = error_metrics(truth[k].nav(), st, g_ref)
        quat = rot_to_quat(st.nav.r) if st.quat is None else st.quat
        rows.append([m.att, m.pos, m.vel, m.grav, *quat, *st.nav.p, *st.nav.v,
                     *st.sigma_hat, *st.g_hat])

    assert result.t_ns.tolist() == stamps
    got = np.column_stack([result.att, result.pos, result.vel, result.grav,
                           result.quat, result.p_est, result.v_est,
                           result.sigma, result.g_hat])
    assert got.tobytes() == np.array(rows).tobytes()
    fs = result.final_state
    assert fs.steps == st.steps == n - 1
    assert (fs.quat is None) == (st.quat is None)
    for a, b in ((fs.nav.r, st.nav.r), (fs.nav.p, st.nav.p), (fs.nav.v, st.nav.v),
                 (fs.sigma_hat, st.sigma_hat), (fs.g_hat, st.g_hat),
                 (fs.quat, st.quat)):
        assert a is None or a.tobytes() == b.tobytes()


# Steps of one nanosecond up to an inertial dropout of 0.4 s; a schedule may
# also hold one step longer than 2**53 ns.
_STEP_NS = st.sampled_from([1, 7, 3_333_333, 5_000_000, 50_000_000, 400_000_000])


@st.composite
def _hostile_schedules(draw):
    """Inertial, epoch and truth times (truth ``None`` or a list): inertial
    gaps, a first sample after the first epoch, epochs on inertial instants
    and off them, farther apart than ``max_correction_dt`` or closer."""
    steps = draw(st.lists(_STEP_NS, min_size=1, max_size=20))
    if draw(st.booleans()):
        steps.insert(draw(st.integers(0, len(steps))), 2 ** 53 + 3)
    start = draw(st.sampled_from([0, 2_000_000, 120_000_000]))
    imu_t = np.cumsum([start] + steps).tolist()
    end = imu_t[-1] + draw(st.sampled_from([0, 30_000_000]))
    times = st.one_of(st.sampled_from(imu_t), st.integers(0, end))
    epoch_t = sorted(set(draw(st.lists(times, max_size=8))))
    truth_t = None
    if draw(st.booleans()):
        truth_t = sorted(set(draw(st.lists(times, min_size=1, max_size=8))))
    return imu_t, epoch_t, truth_t


def _public_loop(imu, observations, truth, init, lmap, gains, gravity_mode,
                 representation, cap, nominal):
    """run_closed_loop's columns, final state and initial error, by a loop
    over the public predict and correct through the merged instants."""
    truth_t = [] if truth is None else truth.t_ns.tolist()
    instants = sorted(set(imu.t_ns.tolist()) | set(dict(observations)) | set(truth_t))
    st = ObserverState.create(init, gravity_mode=gravity_mode, g_ref=GRAVITY_ENU,
                              representation=representation)
    obs_at, truth_at = dict(observations), {t: k for k, t in enumerate(truth_t)}
    rows, initial, held, last_corr = [], None, -1, None
    for k, t in enumerate(instants):
        if k and held >= 0:
            st = predict(st, imu.omega[held], imu.accel[held], (t - instants[k - 1]) / NS)
        held = int(np.searchsorted(imu.t_ns, t, side="right")) - 1
        if truth_t and t == truth_t[0]:
            initial = error_metrics(truth[0].nav(), st, GRAVITY_ENU)
        if t in obs_at:
            dt_c = nominal if last_corr is None else (t - last_corr) / NS
            st = correct(st, lmap, obs_at[t], gains, min(dt_c, cap))
            last_corr = t
        if truth is None or t in truth_at:
            m = [] if truth is None else dataclasses.astuple(
                error_metrics(truth[truth_at[t]].nav(), st, GRAVITY_ENU))
            quat = rot_to_quat(st.nav.r) if st.quat is None else st.quat
            rows.append([*m, *quat, *st.nav.p, *st.nav.v, *st.sigma_hat, *st.g_hat])
    return np.array(rows), st, initial


@given(_hostile_schedules(), st.integers(0, 2 ** 32 - 1),
       st.sampled_from((KNOWN_GRAVITY, ADAPTIVE_GRAVITY)), st.sampled_from((0.01, 0.1)))
def test_engine_matches_the_public_loop_on_hostile_schedules(schedule, seed, gravity_mode,
                                                            cap):
    imu_t, epoch_t, truth_t = schedule
    rng = np.random.default_rng(seed)
    lmap = default_landmark_map()
    imu = ImuStream(np.array(imu_t, dtype=np.int64), rng.normal(0.0, 0.5, (len(imu_t), 3)),
                    rng.normal(0.0, 5.0, (len(imu_t), 3)) + [0.0, 0.0, 9.81])
    observations = [(t, LandmarkObservation(ids=lmap.ids, points=rng.normal(0.0, 5.0, (6, 3))))
                    for t in epoch_t]
    truth = None
    if truth_t is not None:
        quats = rng.normal(size=(len(truth_t), 4))
        truth = TruthStream(np.array(truth_t, dtype=np.int64),
                            quats / np.linalg.norm(quats, axis=1, keepdims=True),
                            rng.normal(0.0, 5.0, (len(truth_t), 3)),
                            rng.normal(0.0, 1.0, (len(truth_t), 3)))
    init = NavState(so3_gammas(rng.normal(0.0, 1.0, 3))[0], rng.normal(0.0, 5.0, 3),
                    rng.normal(0.0, 1.0, 3))
    for representation in (MATRIX, QUATERNION):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")  # a half-turn start warns
            want, st_want, initial = _public_loop(imu, observations, truth, init, lmap, Gains(),
                                         gravity_mode, representation, cap, 0.05)
            result = run_closed_loop(truth, imu, observations, lmap, Gains(), init,
                                     gravity_mode=gravity_mode,
                                     representation=representation, max_correction_dt=cap)
        cols = [result.att, result.pos, result.vel, result.grav] if truth else []
        got = np.column_stack(cols + [result.quat, result.p_est, result.v_est,
                                      result.sigma, result.g_hat])
        assert got.tobytes() == want.tobytes()
        assert result.initial == initial
        fs = result.final_state
        assert fs.steps == st_want.steps
        for a, b in ((fs.nav.r, st_want.nav.r), (fs.nav.p, st_want.nav.p),
                     (fs.nav.v, st_want.nav.v), (fs.sigma_hat, st_want.sigma_hat),
                     (fs.g_hat, st_want.g_hat), (fs.quat, st_want.quat)):
            assert a is None and b is None or a.tobytes() == b.tobytes()


def test_initial_metrics_are_pre_correction():
    scn = dataclasses.replace(default_scenario(), duration=0.5)
    _, _, _, result = run_scenario(scn)
    angle = scn.init_error.angle
    assert abs(result.initial.att - (1.0 - math.cos(angle)) / 2.0) < 1e-12
    assert abs(result.initial.pos - math.sqrt(14.0)) < 1e-9
    # the first row is recorded after the epoch at t = 0 acted
    assert result.rows[0].att < result.initial.att


def test_run_without_ground_truth():
    scn = dataclasses.replace(default_scenario(), duration=0.5)
    truth, imu, observations = build_streams(scn)
    init = apply_init_error(truth[0].nav(), scn.init_error)
    result = run_closed_loop(None, imu, observations, scn.lmap, scn.gains, init,
                             obs_nominal_dt=1.0 / scn.obs_rate)
    assert result.initial is None
    # one unscored row per processed instant
    assert [r.t_ns for r in result.rows] == [s.t_ns for s in imu]
    assert all(r.att is None and r.pos is None and r.vel is None
               and r.grav is None for r in result.rows)
    # the estimates are those of the scored run over the same streams
    scored = run_closed_loop(truth, imu, observations, scn.lmap, scn.gains,
                             init, obs_nominal_dt=1.0 / scn.obs_rate)
    assert len(scored.rows) == len(result.rows)
    for a, b in zip(scored.rows, result.rows):
        assert a.t_ns == b.t_ns
        for name in ("quat", "p_est", "v_est", "sigma", "g_hat"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    s = summarize(result)
    assert s["samples"] == len(result.rows) and "g_hat" in s
    with pytest.raises(ValueError):
        run_closed_loop(None, ImuStream(imu.t_ns[:0], imu.omega[:0], imu.accel[:0]), [],
                        scn.lmap, scn.gains, init)


def test_engine_rejects_non_increasing_epochs_and_non_finite_errors():
    scn = dataclasses.replace(default_scenario(), duration=0.2)
    truth, imu, observations = build_streams(scn)
    init = apply_init_error(truth[0].nav(), scn.init_error)
    with pytest.raises(ValueError):
        run_closed_loop(truth, imu, observations[:1] * 2, scn.lmap, scn.gains, init)
    empty = TruthStream(truth.t_ns[:0], truth.quat[:0], truth.pos[:0], truth.vel[:0])
    with pytest.raises(ValueError, match="truth=None"):
        run_closed_loop(empty, imu, observations, scn.lmap, scn.gains, init)
    # finite truth whose errors overflow: no record the CSV reader would reject
    for column in ("pos", "vel"):
        far = dataclasses.replace(truth, **{column: getattr(truth, column) + 1e155})
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState):
            run_closed_loop(far, imu, observations, scn.lmap, scn.gains, init)


def test_summarize_fields():
    scn = hover_scenario(duration=2.0)
    _, _, _, result = run_scenario(scn)
    s = summarize(result)
    assert s["samples"] == len(result.rows) == 401
    assert s["time_to_converge"] == 0.0
    assert set(s["steady_state_ms"]) == {"att", "pos", "vel", "grav"}
    assert s["final_att"] == result.final.att
    tail = result.rows[-len(result.rows) // 5:]
    assert abs(s["steady_state_ms"]["pos"]
               - np.mean([r.pos ** 2 for r in tail])) < 1e-18


def test_default_landmark_map_normalization():
    lmap = default_landmark_map()
    c = (lmap.weights[:, None] * lmap.positions).sum(axis=0) / lmap.weights.sum()
    d = lmap.positions - c
    trace = float((lmap.weights[:, None] * d * d).sum())
    assert abs(trace - 3.0) < 1e-12


def test_engine_warns_on_half_turn_initialization():
    scn = dataclasses.replace(
        hover_scenario(duration=0.5),
        init_error=InitError(angle=math.pi, axis=(0.0, 0.0, 1.0)))
    with pytest.warns(UnstableSetWarning):
        run_scenario(scn)
    with warnings.catch_warnings():
        warnings.simplefilter("error", UnstableSetWarning)
        run_scenario(hover_scenario(duration=0.5))


def test_init_error_axis_needs_a_finite_nonzero_length():
    for axis in ((0.0, 0.0, 0.0), (1e200, 1e200, 0.0), (math.inf, 0.0, 0.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the length overflows without a warning
            with pytest.raises(ValueError, match="finite, nonzero length"):
                InitError(axis=axis)
    assert InitError(axis=(1e150, 1e150, 0.0)).as_nav().r.shape == (3, 3)


def test_unknown_representation_rejected():
    scn = hover_scenario(duration=0.2)
    with pytest.raises(ValueError):
        run_scenario(dataclasses.replace(scn, representation="euler"))
