"""Observer updates: hand-computed corrections, exact-flow oracles, guards."""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_rotation, rk4_pose

from se23nav import (ADAPTIVE_GRAVITY, GRAVITY_ENU, KNOWN_GRAVITY, MATRIX,
                     QUATERNION, Gains, LandmarkMap, ModeError, NavState,
                     NonFiniteState, ObserverState, UnstableSetWarning,
                     compute_corrections, correct, correct_quaternion,
                     error_metrics, gravity_step, nav_error, predict,
                     predict_quaternion, quat_to_rot, rodrigues_exp, sigma_step,
                     so3_distance, synthesize_observation)
from se23nav.liegroup import skew
from se23nav.measurement import MeasurementSummary
from se23nav.observer import inject_w_omega_sign_fault, warn_if_unstable


def _norm_map(rng, n=6):
    # weights scaled so the weighted scatter has trace 3; larger scatters
    # push the discrete attitude loop past its per-epoch stability limit
    positions = rng.uniform(-4.0, 4.0, size=(n, 3))
    weights = rng.uniform(0.5, 2.0, size=n)
    c = (weights[:, None] * positions).sum(axis=0) / weights.sum()
    d = positions - c
    trace = float((weights[:, None] * d * d).sum())
    return LandmarkMap(ids=np.arange(1, n + 1), positions=positions,
                       weights=weights * (3.0 / trace))


def _summary(centroid, scatter_err, pos_innovation, att_dist):
    return MeasurementSummary(centroid=np.asarray(centroid, dtype=float),
                              total_weight=6.0,
                              scatter=np.eye(3),
                              scatter_err=np.asarray(scatter_err, dtype=float),
                              pos_innovation=np.asarray(pos_innovation, dtype=float),
                              att_dist=float(att_dist))


def _state(r=None, p=None, v=None, sigma=None, g_hat=None,
           mode=KNOWN_GRAVITY):
    return ObserverState(nav=NavState(np.eye(3) if r is None else r,
                                      np.zeros(3) if p is None else np.asarray(p, float),
                                      np.zeros(3) if v is None else np.asarray(v, float)),
                         sigma_hat=np.zeros(3) if sigma is None else np.asarray(sigma, float),
                         g_hat=GRAVITY_ENU.copy() if g_hat is None else np.asarray(g_hat, float),
                         gravity_mode=mode)


_HAND_SUMMARY = _summary(centroid=[1.0, 1.0, 1.0],
                         scatter_err=skew(np.array([0.1, 0.0, 0.0])),
                         pos_innovation=[0.0, 0.5, 0.0],
                         att_dist=0.2)


def test_corrections_hand_case_zero_sigma():
    # identity attitude, default gains, axis statistic (0.1, 0, 0), distance
    # 0.2, innovation (0, 0.5, 0), centroid (1, 1, 1), zero covariance bound
    corr = compute_corrections(_HAND_SUMMARY, _state(), Gains())
    assert_allclose(corr.w_omega, [-0.36, 0.0, 0.0], atol=1e-15)
    assert_allclose(corr.w_vel, [0.0, -5.36, 0.36], atol=1e-14)
    assert_allclose(corr.w_acc, [0.0, -5.0, 9.81], atol=1e-14)
    assert abs(corr.k_adapt - 0.825 * math.exp(0.2)) < 1e-15


def test_corrections_hand_case_nonzero_sigma():
    # covariance bound (2, 0, 0) adds -0.25 * (2.2 / 1.2) * 0.1 * 2 = -11/120
    corr = compute_corrections(_HAND_SUMMARY, _state(sigma=[2.0, 0.0, 0.0]), Gains())
    assert_allclose(corr.w_omega, [-0.36 - 11.0 / 120.0, 0.0, 0.0], atol=1e-14)
    assert_allclose(corr.w_acc, [0.0, -5.0, 9.81], atol=1e-14)


def test_fault_hook_flips_attitude_correction_only():
    with inject_w_omega_sign_fault():
        corr = compute_corrections(_HAND_SUMMARY, _state(), Gains())
    assert_allclose(corr.w_omega, [0.36, 0.0, 0.0], atol=1e-15)
    # downstream terms see the flipped value
    assert_allclose(corr.w_vel, np.cross([1.0, 1.0, 1.0], corr.w_omega)
                    - 10.0 * np.array([0.0, 0.5, 0.0]), atol=1e-14)
    # hook is scoped to the context manager
    corr = compute_corrections(_HAND_SUMMARY, _state(), Gains())
    assert corr.w_omega[0] < 0.0
    # and reset when the body raises
    with pytest.raises(KeyError):
        with inject_w_omega_sign_fault():
            raise KeyError
    corr = compute_corrections(_HAND_SUMMARY, _state(), Gains())
    assert corr.w_omega[0] < 0.0


def test_sigma_step_hand_euler():
    st = _state(sigma=[2.0, 0.0, 0.0])
    corr = compute_corrections(_HAND_SUMMARY, st, Gains())
    out = sigma_step(st, corr, Gains(), dt=0.05)
    k_adapt = 0.825 * math.exp(0.2)
    expected0 = 2.0 + 0.05 * k_adapt * 0.01 - 0.05 * 0.1 * 3.0 * 2.0
    assert_allclose(out, [expected0, 0.0, 0.0], atol=1e-14)


def test_gravity_step_hand_euler_and_mode_guard():
    st = _state(mode=ADAPTIVE_GRAVITY, g_hat=[0.0, 0.0, -9.81])
    corr = compute_corrections(_HAND_SUMMARY, st, Gains())
    out = gravity_step(st, corr, _HAND_SUMMARY, Gains(), dt=0.05)
    # rate = -w_omega x g_hat + mu * gamma_g * innovation
    #      = (0, 0.36 * 9.81, 0) + (0, 1, 0)
    assert_allclose(out, [0.0, 0.05 * (0.36 * 9.81 + 1.0), -9.81], atol=1e-13)
    with pytest.raises(ModeError):
        gravity_step(_state(), corr, _HAND_SUMMARY, Gains(), dt=0.05)


def test_sigma_bound_tracks_input_to_state_estimate():
    # with the drive bounded, the bound estimate never exceeds the larger of
    # its start value and drive_max / (k_sigma * gamma_sigma), and stays
    # nonnegative
    rng = np.random.default_rng(40)
    gains = Gains()
    dt = 0.05
    ups_cap = 0.5
    k_adapt_cap = gains.gamma_sigma * 3.0 / 8.0 * math.exp(1.0)
    drive_cap = k_adapt_cap * 3.0 * ups_cap * ups_cap  # |r_ups|_inf^2 <= |ups|^2
    ceil = drive_cap / (gains.k_sigma * gains.gamma_sigma)
    for sigma0 in (np.zeros(3), np.full(3, 2.0 * ceil)):
        sigma = sigma0.copy()
        top = np.maximum(sigma0, ceil)
        for _ in range(4000):
            r = random_rotation(rng)
            ups = rng.uniform(-ups_cap, ups_cap, size=3)
            d = rng.uniform(0.0, 1.0)
            noise_sym = rng.normal(size=(3, 3))
            summ = _summary([0, 0, 0], skew(ups) + noise_sym + noise_sym.T,
                            [0, 0, 0], d)
            st = ObserverState(nav=NavState(r, np.zeros(3), np.zeros(3)),
                               sigma_hat=sigma, g_hat=GRAVITY_ENU)
            corr = compute_corrections(summ, st, gains)
            sigma = sigma_step(st, corr, gains, dt)
            assert np.all(sigma >= 0.0)
            assert np.all(sigma <= top + 1e-9)
        assert np.all(sigma <= ceil + 1e-9)


def test_predict_matches_runge_kutta_flow():
    # the propagation step is the exact flow of the piecewise-constant
    # dynamics, so a fine-substep integrator must land on the same state
    rng = np.random.default_rng(41)
    for _ in range(15):
        r = random_rotation(rng)
        p, v = rng.normal(size=3), rng.normal(size=3)
        omega, sf = rng.normal(size=3), rng.normal(size=3) * 3.0
        st = _state(r=r, p=p, v=v)
        out = predict(st, omega, sf, dt=0.02)
        r_ref, p_ref, v_ref = rk4_pose(r, p, v, omega, sf, GRAVITY_ENU, 0.02,
                                       substeps=100)
        assert np.max(np.abs(out.nav.r - r_ref)) < 1e-12
        assert np.max(np.abs(out.nav.p - p_ref)) < 1e-12
        assert np.max(np.abs(out.nav.v - v_ref)) < 1e-12


def test_predict_free_fall_closed_form():
    p0, v0 = np.array([1.0, 2.0, 3.0]), np.array([0.5, -0.25, 0.0])
    st = _state(p=p0, v=v0)
    out = predict(st, np.zeros(3), np.zeros(3), dt=0.5)
    assert_allclose(out.nav.v, v0 + 0.5 * GRAVITY_ENU, atol=1e-15)
    assert_allclose(out.nav.p, p0 + 0.5 * v0 + 0.125 * GRAVITY_ENU, atol=1e-15)
    assert out.steps == 1


def test_predict_correct_fixed_point_at_truth():
    # static truth, exact inputs, known gravity: prediction holds the state
    # and the per-epoch correction is the identity to machine precision
    rng = np.random.default_rng(42)
    r = random_rotation(rng)
    p = np.array([5.0, -2.0, 3.0])
    truth = NavState(r, p, np.zeros(3))
    sf = r.T @ (np.zeros(3) - GRAVITY_ENU)
    lmap = _norm_map(rng)
    st = ObserverState.create(truth)
    dt = 0.005
    for k in range(2000):
        st = predict(st, np.zeros(3), sf, dt)
        if (k + 1) % 10 == 0:
            obs = synthesize_observation(truth, lmap)
            st = correct(st, lmap, obs, Gains(), dt=0.05)
    m = error_metrics(truth, st)
    assert m.att < 1e-12
    assert m.pos < 1e-11
    assert m.vel < 1e-11
    assert m.grav < 1e-12


def test_correct_keeps_step_counter():
    rng = np.random.default_rng(43)
    truth = NavState(random_rotation(rng), np.array([1.0, 0.0, 0.0]), np.zeros(3))
    lmap = LandmarkMap(ids=np.arange(1, 5),
                       positions=rng.normal(size=(4, 3)), weights=np.ones(4))
    obs = synthesize_observation(truth, lmap)
    st = ObserverState.create(truth)
    assert correct(st, lmap, obs, Gains(), dt=0.05).steps == 0


def test_attitude_stays_orthonormal_over_long_runs():
    rng = np.random.default_rng(45)
    st = _state(r=random_rotation(rng), g_hat=np.zeros(3))
    dt = 0.01
    for _ in range(5500):
        st = predict(st, rng.normal(size=3), np.zeros(3), dt)
    r = st.nav.r
    assert np.linalg.norm(r @ r.T - np.eye(3)) < 1e-12
    assert np.linalg.det(r) > 0.9
    assert st.steps == 5500


def test_non_finite_inputs_are_rejected():
    st = _state()
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteState):
            predict(st, np.zeros(3), np.array([np.inf, 0.0, 0.0]), 0.01)
        with pytest.raises(NonFiniteState):
            predict(st, np.array([np.nan, 0.0, 0.0]), np.zeros(3), 0.01)
    # |omega dt| near 1e104 overflows the cube in the rotation integrals
    omega = np.array([1e106, 0.0, 0.0])
    for rep in (MATRIX, QUATERNION):
        st = ObserverState.create(NavState.identity(), representation=rep)
        with pytest.raises(NonFiniteState):
            predict(st, omega, np.zeros(3), 0.01)


def test_create_modes_and_guards():
    nav = NavState.identity()
    known = ObserverState.create(nav)
    assert_allclose(known.g_hat, GRAVITY_ENU, atol=0)
    assert_allclose(known.sigma_hat, np.zeros(3), atol=0)
    adaptive = ObserverState.create(nav, gravity_mode=ADAPTIVE_GRAVITY)
    assert_allclose(adaptive.g_hat, np.zeros(3), atol=0)
    assert_allclose(adaptive.sigma_hat, np.zeros(3), atol=0)
    with pytest.raises(ModeError):
        ObserverState.create(nav, gravity_mode="frozen")
    with pytest.raises(ValueError):
        ObserverState.create(nav, representation="euler")


def test_gains_must_be_positive():
    for name in ("k_w", "k_v", "k_a", "gamma_sigma", "k_sigma", "gamma_g", "mu"):
        with pytest.raises(ValueError):
            Gains(**{name: 0.0})
        with pytest.raises(ValueError):
            Gains(**{name: -1.0})


def test_error_metrics_hand_values():
    r = rodrigues_exp(np.array([0.0, 0.0, np.pi / 2]))
    x = NavState(r, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.0]))
    st = _state(r=r.copy(), p=[1.0, 2.0, 2.0], v=[0.5, 0.0, -1.0])
    m = error_metrics(x, st)
    assert m.att < 1e-15
    assert abs(m.pos - 1.0) < 1e-12
    assert abs(m.vel - 1.0) < 1e-12
    assert m.grav < 1e-12
    # a half-turn attitude error saturates the distance at one; the group
    # error mixes the rotation error into the position component
    st2 = _state(r=r @ rodrigues_exp(np.array([0.0, 0.0, np.pi])),
                 p=x.p, v=x.v)
    m2 = error_metrics(x, st2)
    assert abs(m2.att - 1.0) < 1e-12
    err = nav_error(x, st2.nav)
    assert abs(m2.pos - np.linalg.norm(x.p - err.r @ x.p)) < 1e-12


def _on_unstable_set(r_err):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UnstableSetWarning)
        return warn_if_unstable(r_err)


def test_unstable_set_detection():
    for axis in (0, 1, 2):
        d = -np.ones(3)
        d[axis] = 1.0
        assert _on_unstable_set(np.diag(d))
    rng = np.random.default_rng(46)
    for _ in range(20):
        assert not _on_unstable_set(random_rotation(rng))
    near = rodrigues_exp(np.array([0.0, np.pi - 1e-2, 0.0]))
    assert not _on_unstable_set(near)
    exact = rodrigues_exp(np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0) * np.pi)
    assert _on_unstable_set(exact)
    with pytest.warns(UnstableSetWarning):
        assert warn_if_unstable(exact)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not warn_if_unstable(near)


def _random_full_state(rng, mode=KNOWN_GRAVITY):
    g_hat = GRAVITY_ENU.copy() if mode == KNOWN_GRAVITY else rng.normal(size=3)
    return ObserverState(nav=NavState(random_rotation(rng), rng.normal(size=3) * 2,
                                      rng.normal(size=3)),
                         sigma_hat=np.abs(rng.normal(size=3)),
                         g_hat=g_hat, gravity_mode=mode)


def _quaternion_state(st):
    """``st`` with its attitude kept as a quaternion, built by ``create``."""
    qs = ObserverState.create(st.nav, gravity_mode=st.gravity_mode,
                              representation=QUATERNION)
    return dataclasses.replace(qs, sigma_hat=st.sigma_hat, g_hat=st.g_hat)


def _assert_states_match(mstate, qstate, atol):
    assert mstate.quat is None and qstate.quat is not None
    assert np.max(np.abs(qstate.nav.r - mstate.nav.r)) < atol
    assert np.max(np.abs(qstate.nav.p - mstate.nav.p)) < atol
    assert np.max(np.abs(qstate.nav.v - mstate.nav.v)) < atol
    assert np.max(np.abs(qstate.sigma_hat - mstate.sigma_hat)) < atol
    assert np.max(np.abs(qstate.g_hat - mstate.g_hat)) < atol
    assert qstate.steps == mstate.steps


def test_quaternion_predict_mirrors_matrix_predict():
    rng = np.random.default_rng(47)
    for _ in range(30):
        st = _random_full_state(rng)
        qs = _quaternion_state(st)
        omega, sf = rng.normal(size=3), rng.normal(size=3) * 2
        _assert_states_match(predict(st, omega, sf, 0.02),
                             predict_quaternion(qs, omega, sf, 0.02), 1e-12)


def test_quaternion_correct_mirrors_matrix():
    rng = np.random.default_rng(48)
    lmap = _norm_map(rng)
    for mode in (KNOWN_GRAVITY, ADAPTIVE_GRAVITY):
        for _ in range(20):
            truth = NavState(random_rotation(rng), rng.normal(size=3),
                             rng.normal(size=3))
            obs = synthesize_observation(truth, lmap)
            st = _random_full_state(rng, mode)
            qs = _quaternion_state(st)
            _assert_states_match(correct(st, lmap, obs, Gains(), 0.05),
                                 correct_quaternion(qs, lmap, obs, Gains(), 0.05),
                                 1e-11)


def test_quaternion_prediction_reaches_known_endpoint():
    # constant quarter-turn-per-second spin for one second lands on the
    # quarter-turn rotation regardless of step size
    qs = ObserverState.create(NavState(np.eye(3), np.zeros(3),
                                       np.array([1.0, 0.0, 0.0])),
                              g_ref=np.zeros(3), representation=QUATERNION)
    omega = np.array([0.0, 0.0, np.pi / 2.0])
    for _ in range(1000):
        qs = predict_quaternion(qs, omega, np.zeros(3), 1e-3)
    target = rodrigues_exp(np.array([0.0, 0.0, np.pi / 2.0]))
    assert so3_distance(quat_to_rot(qs.quat) @ target.T) < 1e-12
    assert_allclose(qs.nav.p, [1.0, 0.0, 0.0], atol=1e-9)
    assert abs(np.linalg.norm(qs.quat) - 1.0) < 1e-14


def test_quaternion_state_matrix_is_its_quaternion_rotation():
    # every update leaves nav.r exactly the rotation of the stored quaternion,
    # and a matrix-attitude state never gains a quaternion
    rng = np.random.default_rng(51)
    lmap = _norm_map(rng)
    for mode in (KNOWN_GRAVITY, ADAPTIVE_GRAVITY):
        mstate = _random_full_state(rng, mode)
        qs = _quaternion_state(mstate)
        assert np.array_equal(qs.nav.r, quat_to_rot(qs.quat))
        for _ in range(10):
            truth = NavState(random_rotation(rng), rng.normal(size=3),
                             rng.normal(size=3))
            obs = synthesize_observation(truth, lmap)
            omega, sf = rng.normal(size=3), rng.normal(size=3)
            for update in (lambda s: predict(s, omega, sf, 0.02),
                           lambda s: correct(s, lmap, obs, Gains(), 0.05)):
                qs = update(qs)
                assert np.array_equal(qs.nav.r, quat_to_rot(qs.quat))
                mstate = update(mstate)
                assert mstate.quat is None


def test_nav_error_convention():
    rng = np.random.default_rng(49)
    x = NavState(random_rotation(rng), rng.normal(size=3), rng.normal(size=3))
    xh = NavState(random_rotation(rng), rng.normal(size=3), rng.normal(size=3))
    err = nav_error(x, xh)
    assert_allclose(err.r, x.r @ xh.r.T, atol=1e-14)
