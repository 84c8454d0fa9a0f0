"""The float-built kernels reproduce the formulas that define them, bit for bit.

Most references below are the numpy expression a kernel evaluated before it
was written in plain floats, copied out here.  The kernels of the
propagation law (the quaternion kernels, ``orthonormalize_rows`` and
``observer._advance``) are defined by explicit sums instead: every inner
product is ``x0*y0 + x1*y1 + ...`` evaluated left to right (``sum_dot``),
where numpy's ``@`` calls a BLAS dot that may fuse multiply-adds.  For them
the numpy formula they replaced stays as a bound check: the two may differ
only by the rounding of those inner products, which for a length-n dot is
at most ``gamma_n * sum |x_i y_i|`` on each side (Higham, *Accuracy and
Stability of Numerical Algorithms*, 2nd ed., section 3.1), carried through
the kernel's remaining operations.  Results are compared with
``tobytes()``, so a single rounding difference, or a zero of the other
sign, fails the test.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from se23nav import (ADAPTIVE_GRAVITY, MATRIX, QUATERNION, Gains, LandmarkMap, NavState,
                     ObserverState, aggregate, compute_corrections, correct, error_metrics,
                     gravity_step, sigma_step, synthesize_observation)
from se23nav.liegroup import (SMALL_ANGLE, _SERIES_ANGLE, _cross, _norm,
                              _so3_gammas_rows, nav_error, orthonormalize_rows,
                              skew, so3_distance, so3_gammas, vex_antisym)
from se23nav.observer import REORTHO_EVERY, _advance, _error_norms, predict
from se23nav.measurement import MeasurementSummary
from se23nav.quaternion import (_normalized, _quat_from_rotvec_rows, _turn_right,
                                quat_from_rotvec, quat_product, quat_to_rot, rot_to_quat)
from se23nav.simulator import NS_PER_S, TrajectorySpec, time_grid, trajectory_attitude

# one coordinate: zero, or a magnitude in [1e-8, 1e3] of either sign
_coord = st.one_of(st.just(0.0), st.floats(1e-8, 1e3), st.floats(-1e3, -1e-8))
vec3 = arrays(float, 3, elements=_coord)
vec4 = arrays(float, 4, elements=_coord)
mat3 = arrays(float, (3, 3), elements=_coord)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# explicit sums and the rounding bound of a dot product

U = 2.0 ** -53  # unit roundoff of a double


def gamma(n: int) -> float:
    return n * U / (1.0 - n * U)


def sum_dot(x, y) -> float:
    """``x . y`` as an explicit sum in index order, left to right."""
    x, y = np.ravel(x).tolist(), np.ravel(y).tolist()
    acc = x[0] * y[0]
    for a, b in zip(x[1:], y[1:]):
        acc = acc + a * b
    return acc


def dot_error(x, y) -> float:
    """How far two evaluations of ``x . y`` may lie apart: each is within
    ``gamma_n * sum |x_i y_i|`` of the exact value (Higham, section 3.1)."""
    x, y = np.ravel(x), np.ravel(y)
    return 2.0 * gamma(x.size) * float(np.sum(np.abs(x * y)))


def within(got, old, tol) -> bool:
    return bool(np.all(np.abs(np.asarray(got) - np.asarray(old)) <= tol))


# ---------------------------------------------------------------------------
# the numpy formulas

def ref_skew(v):
    v = np.asarray(v, dtype=float)
    return np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])


def ref_vex_antisym(a):
    p = 0.5 * (a - a.T)
    return np.array([p[2, 1], p[0, 2], p[1, 0]])


def ref_so3_gammas(w):
    theta = float(np.linalg.norm(w))
    s = ref_skew(w)
    s2 = s @ s
    if theta < SMALL_ANGLE:
        c0, c1 = 1.0 - theta * theta / 6.0, 0.5 - theta * theta / 24.0
    else:
        c0 = np.sin(theta) / theta
        half = np.sin(0.5 * theta)
        c1 = 2.0 * half * half / (theta * theta)
    if theta < _SERIES_ANGLE:
        t2 = theta * theta
        c2 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 * t2 * t2 / 362880.0
        c3 = 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0 - t2 * t2 * t2 / 3628800.0
    else:
        t3 = theta ** 3
        c2 = (theta - np.sin(theta)) / t3
        c3 = (0.5 * theta * theta + np.cos(theta) - 1.0) / (t3 * theta)
    i3 = np.eye(3)
    return (i3 + c0 * s + c1 * s2, i3 + c1 * s + c2 * s2,
            0.5 * i3 + c2 * s + c3 * s2)


def _orthonormalize_rows(r, dot):
    r0 = r[0] / np.sqrt(dot(r[0], r[0]))
    r1 = r[1] - dot(r[1], r0) * r0
    r1 = r1 / np.sqrt(dot(r1, r1))
    return np.array([r0, r1, np.cross(r0, r1)])


def _quat_product(q1, q2, dot):
    w1, v1 = q1[0], q1[1:]
    w2, v2 = q2[0], q2[1:]
    w = w1 * w2 - dot(v1, v2)
    v = w1 * v2 + w2 * v1 + np.cross(v1, v2)
    return np.array([w, v[0], v[1], v[2]])


def _quat_normalize(q, dot):
    return q / np.sqrt(dot(q, q))


def _quat_to_rot(q, dot):
    w, v = q[0], q[1:]
    return (w * w - dot(v, v)) * np.eye(3) + 2.0 * np.outer(v, v) + 2.0 * w * ref_skew(v)


def _quat_from_rotvec(v, dot):
    theta = float(np.sqrt(dot(v, v)))
    if theta < 1e-8:
        q = np.array([1.0, 0.5 * v[0], 0.5 * v[1], 0.5 * v[2]])
        return q / np.sqrt(dot(q, q))
    half = 0.5 * theta
    axis = v / theta
    s = np.sin(half)
    return np.array([np.cos(half), s * axis[0], s * axis[1], s * axis[2]])


def _np_dot(x, y):
    return float(np.asarray(x) @ np.asarray(y))


# the definitions: explicit sums
def ref_orthonormalize_rows(r):
    return _orthonormalize_rows(r, sum_dot)


def ref_quat_product(q1, q2):
    return _quat_product(q1, q2, sum_dot)


def ref_quat_normalize(q):
    return _quat_normalize(q, sum_dot)


def ref_quat_to_rot(q):
    return _quat_to_rot(q, sum_dot)


def ref_quat_from_rotvec(v):
    return _quat_from_rotvec(v, sum_dot)


# the numpy formulas they replaced, now bound checks: @ and np.linalg.norm
def np_orthonormalize_rows(r):
    return _orthonormalize_rows(r, _np_dot)


def np_quat_product(q1, q2):
    return _quat_product(q1, q2, _np_dot)


def np_quat_normalize(q):
    return _quat_normalize(q, _np_dot)


def np_quat_to_rot(q):
    return _quat_to_rot(q, _np_dot)


def np_quat_from_rotvec(v):
    return _quat_from_rotvec(v, _np_dot)


def ref_rot_to_quat_branch(r) -> int:
    t = float(np.trace(r))
    return int(np.argmax([1.0 + t,
                          1.0 + r[0, 0] - r[1, 1] - r[2, 2],
                          1.0 - r[0, 0] + r[1, 1] - r[2, 2],
                          1.0 - r[0, 0] - r[1, 1] + r[2, 2]]))


def ref_rot_to_quat(r):
    t = float(np.trace(r))
    cand = np.array([1.0 + t,
                     1.0 + r[0, 0] - r[1, 1] - r[2, 2],
                     1.0 - r[0, 0] + r[1, 1] - r[2, 2],
                     1.0 - r[0, 0] - r[1, 1] + r[2, 2]])
    i = int(np.argmax(cand))
    s = 2.0 * np.sqrt(max(cand[i], 0.0))
    if i == 0:
        q = np.array([0.25 * s, (r[2, 1] - r[1, 2]) / s,
                      (r[0, 2] - r[2, 0]) / s, (r[1, 0] - r[0, 1]) / s])
    elif i == 1:
        q = np.array([(r[2, 1] - r[1, 2]) / s, 0.25 * s,
                      (r[0, 1] + r[1, 0]) / s, (r[0, 2] + r[2, 0]) / s])
    elif i == 2:
        q = np.array([(r[0, 2] - r[2, 0]) / s, (r[0, 1] + r[1, 0]) / s,
                      0.25 * s, (r[1, 2] + r[2, 1]) / s])
    else:
        q = np.array([(r[1, 0] - r[0, 1]) / s, (r[0, 2] + r[2, 0]) / s,
                      (r[1, 2] + r[2, 1]) / s, 0.25 * s])
    if q[0] < 0.0:
        q = -q
    return q / np.linalg.norm(q)


def ref_error_norms(r, p, v, r_hat, p_hat, v_hat, g_hat, g_true):
    err = nav_error(NavState(r, p, v), NavState(r_hat, p_hat, v_hat))
    return [so3_distance(err.r), _norm(err.p), _norm(err.v),
            _norm(g_true - err.r @ g_hat)]


def ref_trajectory_attitude(spec, t):
    """The per-sample loop: scalar rotation builders, one product per sample."""
    def rot_y(theta):
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])

    def rot_z(psi):
        c, s = math.cos(psi), math.sin(psi)
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])

    n = t.size
    rots = np.empty((n, 3, 3))
    omegas = np.zeros((n, 3))
    if spec.kind == "hover":
        rots[:] = rot_z(spec.yaw_amp) @ rot_y(spec.pitch_amp)
        return rots, omegas
    psi = spec.yaw_amp * np.sin(spec.yaw_freq * t)
    dpsi = spec.yaw_amp * spec.yaw_freq * np.cos(spec.yaw_freq * t)
    th = spec.pitch_amp * np.sin(spec.pitch_freq * t + spec.pitch_phase)
    dth = spec.pitch_amp * spec.pitch_freq * np.cos(spec.pitch_freq * t + spec.pitch_phase)
    for i in range(n):
        ct, st_ = math.cos(th[i]), math.sin(th[i])
        rots[i] = rot_z(psi[i]) @ rot_y(th[i])
        omegas[i, 0] = -dpsi[i] * st_
        omegas[i, 1] = dth[i]
        omegas[i, 2] = dpsi[i] * ct
    return rots, omegas


def unit(q):
    n = np.linalg.norm(q)
    assume(n > 1e-6)
    return q / n


# ---------------------------------------------------------------------------
# generated inputs

_attitude_spec = st.builds(
    TrajectorySpec,
    kind=st.sampled_from(("lissajous", "circle", "hover", "waypoints")),
    yaw_amp=_coord, yaw_freq=_coord, pitch_amp=_coord, pitch_freq=_coord,
    pitch_phase=_coord, waypoint_times=st.just((0.0, 1.0)),
    waypoint_points=st.just(((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))))
# the 40 s and 80 s reference grids at 200 Hz, or n samples at 1, 20 or 200 Hz
_attitude_grid = st.one_of(
    st.sampled_from((time_grid(40.0, 200.0), time_grid(80.0, 200.0))),
    st.builds(lambda n, rate: time_grid(n / rate, rate),
              st.integers(0, 400), st.sampled_from((1.0, 20.0, 200.0))))


@given(_attitude_spec, _attitude_grid)
def test_trajectory_attitude(spec, t_ns):
    t = t_ns.astype(float) / NS_PER_S
    for got, want in zip(trajectory_attitude(spec, t), ref_trajectory_attitude(spec, t)):
        assert same_bits(got, want)


@given(vec3, vec3, vec4)
def test_cross_and_norms(a, b, q):
    assert same_bits(_cross(a.tolist(), b.tolist()), np.cross(a, b))
    assert _norm(a) == float(np.linalg.norm(a))
    assert _norm(q) == float(np.linalg.norm(q))


@given(vec3, mat3)
def test_skew_and_vex_antisym(v, m):
    assert same_bits(skew(v), ref_skew(v))
    assert same_bits(vex_antisym(m), ref_vex_antisym(m))


@given(vec3, st.floats(1e-4, 1.0))
def test_so3_gammas(v, scale):
    # the full range, and the same direction scaled into the rotation range
    for w in (v, v * scale):
        for got, want in zip(so3_gammas(w), ref_so3_gammas(w)):
            assert same_bits(got, want)


def check_normalize_bound(got, q):
    """``got`` against numpy's ``q / |q|``: the squared lengths differ by at
    most the dot bound, the quotients by half of that relative to the
    squared length, and sqrt and division round once more on each side."""
    old = np_quat_normalize(q)
    rel = dot_error(q, q) / float(np.sum(q * q)) + 4.0 * U
    assert within(got, old, rel * np.abs(old))


@given(vec4, vec4)
def test_quat_product_and_normalize(q1, q2):
    got = quat_product(q1, q2)
    assert same_bits(got, ref_quat_product(q1, q2))
    # numpy's formula: the vector part has the same bits, the scalar part
    # moves by the dot of the vector parts and its subtraction's rounding
    old = np_quat_product(q1, q2)
    assert same_bits(got[1:], old[1:])
    assert within(got[0], old[0], dot_error(q1[1:], q2[1:])
                  + U * (abs(got[0]) + abs(old[0])))
    assume(np.linalg.norm(q1) > 0.0)
    got = np.array(_normalized(q1.tolist()))
    assert same_bits(got, ref_quat_normalize(q1))
    check_normalize_bound(got, q1)


@given(vec4)
def test_quat_to_rot_and_back(q):
    q = unit(q)
    r = ref_quat_to_rot(q)
    got = quat_to_rot(q)
    assert same_bits(got, r)
    # each entry takes v.v once, then up to four roundings of terms of at
    # most 2 in magnitude on either side
    assert within(got, np_quat_to_rot(q), dot_error(q[1:], q[1:]) + 16.0 * U)
    assert same_bits(rot_to_quat(r), ref_rot_to_quat(r))


def check_rotvec_bound(got, v):
    """``got`` against numpy's formula.  Far from zero every entry is a
    function of the angle with slope at most one (``cos(t/2)`` and
    ``x sin(t/2) / t``), so it moves by the angle's difference: the squared
    lengths differ by the dot bound, the angles by that over twice the
    angle, plus a rounding of the angle and of each entry's few operations."""
    theta2 = float(np.sum(v * v))
    if theta2 < 1e-16 or sum_dot(v, v) < 1e-16 or float(v @ v) < 1e-16:
        near = np.array([1.0, 0.5 * v[0], 0.5 * v[1], 0.5 * v[2]])
        check_normalize_bound(got, near)
        return
    theta = math.sqrt(theta2)
    tol = dot_error(v, v) / theta + 2.0 * U * theta + 8.0 * U
    assert within(got, np_quat_from_rotvec(v), tol)


@given(vec3)
def test_quat_from_rotvec(v):
    got = quat_from_rotvec(v)
    assert same_bits(got, ref_quat_from_rotvec(v))
    check_rotvec_bound(got, v)


@given(vec4, mat3)
def test_orthonormalize_rows(q, noise):
    r = ref_quat_to_rot(unit(q)) + noise * 1e-6
    got = orthonormalize_rows(r)
    assert same_bits(got, ref_orthonormalize_rows(r))
    assert same_bits(orthonormalize_rows(r.ravel().tolist()), got)
    # five steps on rows of length about one (two lengths, a dot and two
    # quotients, then a cross product of the results), each passing on at
    # most twice the error it receives and adding one dot bound
    assert within(got, np_orthonormalize_rows(r), 32.0 * gamma(3))


@given(vec4, mat3, vec3, vec3, vec3, vec3, st.floats(0.0, 2.0), st.floats(1e-4, 0.2))
def test_correction_terms(q, scatter_err, centroid, inn, sigma, g_hat, d, dt):
    """compute_corrections, sigma_step and gravity_step against their
    numpy formulas."""
    rhat = ref_quat_to_rot(unit(q))
    summary = MeasurementSummary(centroid=centroid, total_weight=1.0,
                                 scatter=np.eye(3), scatter_err=scatter_err,
                                 pos_innovation=inn, att_dist=d)
    state = ObserverState(nav=NavState(rhat, np.zeros(3), np.zeros(3)),
                          sigma_hat=sigma, g_hat=g_hat,
                          gravity_mode=ADAPTIVE_GRAVITY)
    gains = Gains()
    corr = compute_corrections(summary, state, gains)

    ups = ref_vex_antisym(scatter_err)
    r_ups = rhat.T @ ups
    w_omega = (-gains.k_w * (d + 1.0) * ups
               - 0.25 * ((d + 2.0) / (d + 1.0)) * (rhat @ (r_ups * sigma)))
    assert same_bits(corr.w_omega, w_omega)
    assert same_bits(corr.w_vel, np.cross(centroid, w_omega) - gains.k_v * inn)
    assert same_bits(corr.w_acc, -g_hat - gains.k_a * inn)
    assert same_bits(corr.body_axis, r_ups)

    drive = corr.k_adapt * (r_ups * r_ups)
    assert same_bits(sigma_step(state, corr, gains, dt),
                     sigma + dt * drive - dt * gains.k_sigma * gains.gamma_sigma * sigma)
    rate = -np.cross(w_omega, g_hat) + gains.mu * gains.gamma_g * inn
    assert same_bits(gravity_step(state, corr, summary, gains, dt), g_hat + dt * rate)


# ---------------------------------------------------------------------------
# chosen inputs

_AXES = [np.array(a, dtype=float) / np.linalg.norm(a)
         for a in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -2, 3), (-0.3, 0.1, 0.9))]


@pytest.mark.parametrize("angle", [
    0.0, 1e-12, 0.5 * SMALL_ANGLE, SMALL_ANGLE, 2.0 * SMALL_ANGLE,
    0.5 * _SERIES_ANGLE, np.nextafter(_SERIES_ANGLE, 0.0), _SERIES_ANGLE,
    1.0, np.nextafter(np.pi, 0.0), np.pi, 2.0 * np.pi])
def test_angles_at_the_series_switches_and_half_turns(angle):
    for axis in _AXES:
        for w in (angle * axis, -angle * axis):
            for got, want in zip(so3_gammas(w), ref_so3_gammas(w)):
                assert same_bits(got, want)
            assert same_bits(quat_from_rotvec(w), ref_quat_from_rotvec(w))
            assert same_bits(skew(w), ref_skew(w))
            q = ref_quat_from_rotvec(w)
            r = ref_quat_to_rot(q)
            assert same_bits(quat_to_rot(q), r)
            assert same_bits(rot_to_quat(r), ref_rot_to_quat(r))


def test_zero_vectors_keep_their_signed_zeros():
    for z in (np.zeros(3), np.array([-0.0, 0.0, -0.0])):
        assert same_bits(skew(z), ref_skew(z))
        assert same_bits(_cross(z.tolist(), [1.0, -2.0, 3.0]), np.cross(z, [1.0, -2.0, 3.0]))
        for got, want in zip(so3_gammas(z), ref_so3_gammas(z)):
            assert same_bits(got, want)
        assert same_bits(quat_from_rotvec(z), ref_quat_from_rotvec(z))
        assert _norm(z) == 0.0
    for q in (np.array([1.0, 0.0, 0.0, 0.0]), np.array([-1.0, -0.0, 0.0, -0.0])):
        assert same_bits(quat_to_rot(q), ref_quat_to_rot(q))
        assert same_bits(quat_product(q, q), ref_quat_product(q, q))


@pytest.mark.parametrize("branch, r", [
    (0, np.eye(3)),
    (1, np.diag([1.0, -1.0, -1.0])),
    (2, np.diag([-1.0, 1.0, -1.0])),
    (3, np.diag([-1.0, -1.0, 1.0])),
])
def test_rot_to_quat_branches(branch, r):
    # the exact matrix, and rotations a little off it in each direction
    rng = np.random.default_rng(branch)
    cases = [r]
    for _ in range(200):
        w = rng.normal(size=3) * 0.3
        cases.append(r @ ref_quat_to_rot(ref_quat_from_rotvec(w)))
    for m in cases:
        if ref_rot_to_quat_branch(m) == branch:
            assert same_bits(rot_to_quat(m), ref_rot_to_quat(m))
    assert ref_rot_to_quat_branch(r) == branch
    assert sum(ref_rot_to_quat_branch(m) == branch for m in cases) > 100


# ---------------------------------------------------------------------------
# stacked kernels: every row as the one-row call rounds it

_HALF_TURNS = [np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0]),
               np.diag([-1.0, -1.0, 1.0])]
_SIGNED_ZEROS = np.array([-0.0, 0.0, -0.0])


def check_error_norms(rows, g_true):
    """The stacked scorer and ``error_metrics`` against the per-row formula."""
    cols = [np.array(c) for c in zip(*rows)]
    got = np.column_stack(_error_norms(*cols, g_true))
    want = np.array([ref_error_norms(*row, g_true) for row in rows])
    assert got.tobytes() == want.tobytes()
    for (r, p, v, r_hat, p_hat, v_hat, g_hat), w in zip(rows, want):
        state = ObserverState(nav=NavState(r_hat, p_hat, v_hat),
                              sigma_hat=np.zeros(3), g_hat=g_hat)
        met = error_metrics(NavState(r, p, v), state, g_true)
        assert same_bits([met.att, met.pos, met.vel, met.grav], w)


_state = st.tuples(vec4, vec3, vec3)


@given(st.lists(st.tuples(_state, _state, vec3), min_size=1, max_size=6), vec3)
def test_error_norms_stacked(rows, g_true):
    rows = [(ref_quat_to_rot(unit(q)), p, v, ref_quat_to_rot(unit(qh)), ph, vh, g)
            for (q, p, v), (qh, ph, vh), g in rows]
    check_error_norms(rows, g_true)


def test_error_norms_at_identity_half_turns_and_signed_zeros():
    rng = np.random.default_rng(5)
    rots = [np.eye(3), *_HALF_TURNS,
            ref_quat_to_rot(ref_quat_from_rotvec(np.array([0.0, 0.0, np.pi])))]
    vecs = [np.zeros(3), _SIGNED_ZEROS, rng.normal(size=3)]
    # velocities reuse the position pairs, swapped
    rows = [(r, p, p_hat, r_hat, p_hat, p, g)
            for r in rots for r_hat in rots
            for p in vecs for p_hat in vecs for g in vecs[:2]]
    check_error_norms(rows, np.array([0.0, 0.0, -9.81]))
    check_error_norms(rows, _SIGNED_ZEROS)


@given(st.lists(vec4, min_size=1, max_size=8))
def test_quat_to_rot_stacked(qs):
    qs = np.array([unit(q) for q in qs])
    want = np.array([quat_to_rot(q) for q in qs])
    got = quat_to_rot(qs)
    assert same_bits(got, want)
    # a product's rounding depends on the memory layout of its operands
    assert got.flags.c_contiguous
    assert same_bits(quat_to_rot(qs.reshape(1, -1, 4)), want[None])


def test_quat_to_rot_stacked_signed_zeros():
    qs = np.array([[1.0, 0.0, 0.0, 0.0], [-1.0, -0.0, 0.0, -0.0],
                   [0.0, 1.0, -0.0, 0.0], [-0.0, 0.0, 0.0, -1.0]])
    assert same_bits(quat_to_rot(qs), np.array([quat_to_rot(q) for q in qs]))


@given(st.lists(mat3, min_size=1, max_size=8))
def test_rot_to_quat_stacked(ms):
    ms = np.array(ms)
    with np.errstate(all="ignore"):
        assert same_bits(rot_to_quat(ms), np.array([rot_to_quat(m) for m in ms]))


def test_rot_to_quat_stacked_over_every_branch_and_nan():
    rng = np.random.default_rng(7)
    ms = [np.eye(3), *_HALF_TURNS]
    for base in list(ms):
        ms += [base @ ref_quat_to_rot(ref_quat_from_rotvec(rng.normal(size=3) * 0.3))
               for _ in range(50)]
    branches = {ref_rot_to_quat_branch(m) for m in ms}
    assert branches == {0, 1, 2, 3}
    for i, j in ((0, 0), (1, 1), (2, 2), (0, 1), (2, 0)):
        m = ms[1].copy()
        m[i, j] = np.nan
        ms.append(m)
    ms = np.array(ms)
    with np.errstate(all="ignore"):
        want = np.array([rot_to_quat(m) for m in ms])
        assert same_bits(rot_to_quat(ms), want)
        # per matrix as the numpy formula, NaN rows included
        for m, w in zip(ms, want):
            assert same_bits(w, ref_rot_to_quat(m))
    assert np.isnan(want[-5:]).all()


# ---------------------------------------------------------------------------
# batched kernels: every row has the bits of the one-row kernel

# the series switches, each with angles just below and above it
_SWITCH_ANGLES = tuple(float(a) for a in (
    0.5 * SMALL_ANGLE, np.nextafter(SMALL_ANGLE, 0.0), SMALL_ANGLE,
    np.nextafter(SMALL_ANGLE, 1.0), 2.0 * SMALL_ANGLE,
    0.5 * _SERIES_ANGLE, np.nextafter(_SERIES_ANGLE, 0.0), _SERIES_ANGLE,
    np.nextafter(_SERIES_ANGLE, 1.0), 2.0 * _SERIES_ANGLE))
# rows of six coordinates, signed zeros included; a kernel reads three columns
_table = arrays(float, st.tuples(st.integers(2, 8), st.just(6)),
                elements=st.one_of(_coord, st.just(-0.0)))


def check_rows_match(rows):
    gammas = _so3_gammas_rows(rows)
    quats = _quat_from_rotvec_rows(rows)
    assert quats.shape == rows.shape[:-1] + (4,)
    for k in np.ndindex(rows.shape[:-1]):
        for got, want in zip(gammas, so3_gammas(rows[k])):
            assert got.shape == rows.shape[:-1] + (3, 3)
            assert same_bits(got[k], want)
        assert same_bits(quats[k], quat_from_rotvec(rows[k]))


@given(_table, st.lists(st.one_of(st.none(), st.sampled_from(_SWITCH_ANGLES)),
                        min_size=8, max_size=8), st.integers(0, 3))
def test_batched_kernels_match_the_one_row_kernels(table, angles, column):
    # columns of a wider table, as the inertial reader returns them: a
    # strided view that is not C-ordered
    rows = table[:, column:column + 3]
    for k in range(len(rows)):
        norm = np.linalg.norm(rows[k])
        if angles[k] is not None and norm > 0.0:
            rows[k] = rows[k] / norm * angles[k]
    assert not rows.flags.c_contiguous
    check_rows_match(rows)
    check_rows_match(np.asfortranarray(rows))
    check_rows_match(rows[::-1].reshape(1, -1, 3))


def test_batched_kernels_at_the_series_switches_and_signed_zeros():
    angles = [0.0, 1e-12, *_SWITCH_ANGLES, 1.0, np.pi, 2.0 * np.pi]
    rows = [a * s * axis for a in angles for s in (1.0, -1.0) for axis in _AXES]
    rows += [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0], [-0.0, -0.0, -0.0]]
    check_rows_match(np.array(rows))


def test_batched_gammas_mark_an_overflowing_row():
    rows = np.array([[1e103, 0.0, 0.0], [0.1, 0.2, 0.3]])
    g0, g1, g2 = _so3_gammas_rows(rows)
    assert np.isnan(g1[0]).all() and np.isnan(g2[0]).all()
    check_rows_match(rows)


@given(vec4, vec3)
def test_right_turn_is_product_normalize_and_matrix(q, w):
    q = unit(q)
    dq = quat_from_rotvec(w)
    q_new, r_new = _turn_right(q.tolist(), dq.tolist())
    want = np.array(_normalized(quat_product(q, dq).tolist()))
    assert same_bits(q_new, want)
    assert same_bits(np.reshape(r_new, (3, 3)), quat_to_rot(want))


# ---------------------------------------------------------------------------
# the propagation law: explicit sums over the attitude's nine floats

def ref_advance(r, p, v, g, quat, steps, turn, g12a, dt):
    """``observer._advance`` as array formulas, every product ``sum_dot``."""
    x = np.array([[sum_dot(row, a) for row in r] for a in g12a])
    dt2 = dt * dt
    p_new = p + v * dt + x[1] * dt2 + 0.5 * g * dt2
    v_new = v + x[0] * dt + g * dt
    if quat is None:
        r_new = np.array([[sum_dot(row, col) for col in turn.T] for row in r])
        if steps % REORTHO_EVERY == 0:
            r_new = ref_orthonormalize_rows(r_new)
        return r_new, p_new, v_new, None
    q_new = ref_quat_normalize(ref_quat_product(quat, turn))
    return ref_quat_to_rot(q_new), p_new, v_new, q_new


@given(vec4, vec3, vec3, vec3, vec3, vec3, st.floats(1e-4, 0.2),
       st.sampled_from((1, REORTHO_EVERY)), st.booleans())
def test_advance_is_the_explicit_sum_law(q, p, v, g, w, a, dt, steps, quaternion):
    r = ref_quat_to_rot(unit(q))
    g0, g1, g2 = so3_gammas(w * dt)
    g12a = np.array([g1 @ a, g2 @ a])
    quat = turn = None
    if quaternion:
        quat, turn = unit(q), ref_quat_from_rotvec(w * dt)
    want = ref_advance(r, p, v, g, quat, steps, g0 if turn is None else turn, g12a, dt)
    got = _advance(r.ravel().tolist(), p.tolist(), v.tolist(), g.tolist(),
                   None if quat is None else quat.tolist(), steps,
                   (g0 if turn is None else turn).ravel().tolist(), g12a.ravel().tolist(), dt)
    assert same_bits(np.reshape(got[0], (3, 3)), want[0])
    for a_got, a_want in zip(got[1:], want[1:]):
        assert (a_got is None) == (a_want is None)
        assert a_got is None or same_bits(a_got, a_want)
    # numpy's products: r [G1 a; G2 a] moves p and v by one dot bound per
    # entry, times dt**2 and dt, plus the roundings of the sums of four and
    # three terms; r G0 moves by one dot bound per entry
    x1, x2 = (r @ g12a[..., None])[..., 0]
    dt2 = dt * dt
    terms_p = [p, v * dt, x2 * dt2, 0.5 * g * dt2]
    terms_v = [v, x1 * dt, g * dt]
    dx1, dx2 = (np.array([dot_error(row, b) for row in r]) for b in g12a)
    assert within(got[1], sum(terms_p), dx2 * dt2 + 8.0 * U * sum(map(np.abs, terms_p)))
    assert within(got[2], sum(terms_v), dx1 * dt + 6.0 * U * sum(map(np.abs, terms_v)))
    if not quaternion and steps % REORTHO_EVERY:
        bound = np.array([[dot_error(row, col) for col in g0.T] for row in r])
        assert within(np.reshape(got[0], (3, 3)), r @ g0, bound)


# ---------------------------------------------------------------------------
# memory layout: the plain-float kernels and predict read values, not strides

def strided(a):
    """``a`` as a slice of a wider array, every other element of its last axis."""
    a = np.asarray(a, dtype=float)
    wide = np.full(a.shape[:-1] + (2 * a.shape[-1],), np.nan)
    wide[..., ::2] = a
    return wide[..., ::2]


def transposed(a):
    """``a`` as the transpose of a C-ordered copy of its transpose: the same
    values, F-ordered."""
    return np.asarray(a, dtype=float).T.copy().T


@given(vec4, vec4, vec3, mat3, st.lists(vec4, min_size=2, max_size=5),
       st.lists(vec3, min_size=2, max_size=5))
def test_kernels_ignore_memory_layout(q1, q2, w, noise, qs, ws):
    q1, q2 = unit(q1), unit(q2)
    qs = np.array([unit(q) for q in qs])
    r = ref_quat_to_rot(q1) + noise * 1e-6
    cases = [(quat_product, q1, q2), (lambda q: _normalized(q.tolist()), q1), (quat_to_rot, q1),
             (quat_to_rot, qs), (quat_from_rotvec, w), (_quat_from_rotvec_rows, np.array(ws)),
             (orthonormalize_rows, r)]
    for fn, *args in cases:
        want = fn(*(np.ascontiguousarray(a) for a in args))
        for layout in (strided, transposed):
            assert same_bits(fn(*map(layout, args)), want)


def views_of(state):
    """``state`` with its attitude F-ordered and every vector a strided view."""
    nav = state.nav
    return dataclasses.replace(
        state, nav=NavState(transposed(nav.r), strided(nav.p), strided(nav.v)),
        sigma_hat=strided(state.sigma_hat), g_hat=strided(state.g_hat),
        quat=None if state.quat is None else strided(state.quat))


def assert_same_state(got, want):
    for name in ("r", "p", "v"):
        assert same_bits(getattr(got.nav, name), getattr(want.nav, name))
    assert got.steps == want.steps
    assert same_bits(got.sigma_hat, want.sigma_hat) and same_bits(got.g_hat, want.g_hat)
    assert (got.quat is None) == (want.quat is None)
    assert want.quat is None or same_bits(got.quat, want.quat)


def assert_same_fields(got, want):
    for field in dataclasses.fields(want):
        assert same_bits(getattr(got, field.name), getattr(want, field.name))


_LAYOUT_MAP = LandmarkMap(ids=np.arange(1, 7), weights=np.ones(6),
                          positions=np.random.default_rng(7).uniform(-4.0, 4.0, size=(6, 3)))


@given(vec4, vec3, vec3, vec3, vec3, vec3, vec3, st.floats(1e-4, 0.2),
       st.sampled_from((MATRIX, QUATERNION)), st.sampled_from((1, REORTHO_EVERY - 1)))
def test_predict_ignores_memory_layout(q, p, v, sigma, g, omega, a, dt, representation, steps):
    # predict, then correct and its parts and error_metrics at the predicted
    # state against readings taken at the start: each reads values, not strides
    state = ObserverState.create(NavState(ref_quat_to_rot(unit(q)), p, v),
                                 gravity_mode=ADAPTIVE_GRAVITY, representation=representation)
    state = dataclasses.replace(state, sigma_hat=sigma, g_hat=g, steps=steps)
    views = views_of(state)
    assert state.nav.r.flags.c_contiguous and not views.nav.r.flags.c_contiguous
    want = predict(state, omega, a, dt)
    assert want.steps == steps + 1
    assert_same_state(predict(views, strided(omega), strided(a), dt), want)
    obs = synthesize_observation(state.nav, _LAYOUT_MAP)
    assert_same_state(correct(views_of(want), _LAYOUT_MAP, obs, Gains(), dt),
                      correct(want, _LAYOUT_MAP, obs, Gains(), dt))
    summary = aggregate(_LAYOUT_MAP, obs, want.nav.r, want.nav.p)
    assert_same_fields(aggregate(_LAYOUT_MAP, obs, transposed(want.nav.r), strided(want.nav.p)),
                       summary)
    assert_same_fields(compute_corrections(summary, views_of(want), Gains()),
                       compute_corrections(summary, want, Gains()))
    assert_same_fields(error_metrics(views.nav, views_of(want)), error_metrics(state.nav, want))
