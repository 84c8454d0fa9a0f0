"""Group algebra: skew maps, distances, exponentials, extended poses."""

from __future__ import annotations

import numpy as np
import scipy.linalg
from numpy.testing import assert_allclose, assert_array_equal

from conftest import cross_matrix, expm_series, random_rotation

from se23nav import (MATRIX, QUATERNION, NavState, NavTangent, ObserverState,
                     predict, se23_exp, skew, so3_distance, so3_gammas, vex_antisym)
from se23nav.liegroup import nav_error, orthonormalize_rows


def test_skew_vex_roundtrip_is_exact():
    rng = np.random.default_rng(1)
    for _ in range(200):
        x = rng.normal(size=3) * 10.0 ** rng.integers(-8, 8)
        assert_array_equal(vex_antisym(skew(x)), x)
    assert_array_equal(vex_antisym(skew(np.array([1.0, -2.0, 3.0]))),
                       np.array([1.0, -2.0, 3.0]))


def test_skew_encodes_cross_product():
    rng = np.random.default_rng(2)
    for _ in range(100):
        x, y = rng.normal(size=3), rng.normal(size=3)
        assert_allclose(skew(x) @ y, np.cross(x, y), atol=1e-15)


def test_antisym_projection_and_axis():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 3))
    want = 0.5 * np.array([a[2, 1] - a[1, 2], a[0, 2] - a[2, 0], a[1, 0] - a[0, 1]])
    assert_array_equal(vex_antisym(a), want)
    sym = a + a.T
    assert_array_equal(vex_antisym(sym), np.zeros(3))
    # hand-evaluated single-entry case
    m = np.array([[0.0, -1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert_allclose(vex_antisym(m), np.array([0.0, 0.0, 0.5]), atol=0)
    for _ in range(50):
        x = rng.normal(size=3)
        assert_allclose(vex_antisym(skew(x)), x, atol=1e-15)


def test_rotation_trace_pairing_identity():
    # trace(R [w]x) = -2 * axis(R) . w for the anti-symmetric axis of R
    rng = np.random.default_rng(4)
    for _ in range(10_000):
        r = random_rotation(rng)
        w = rng.normal(size=3) * 3.0
        lhs = float(np.trace(r @ skew(w)))
        rhs = -2.0 * float(vex_antisym(r) @ w)
        assert abs(lhs - rhs) < 1e-12


def test_so3_distance_range_and_values():
    assert so3_distance(np.eye(3)) == 0.0
    assert so3_distance(np.diag([1.0, -1.0, -1.0])) == 1.0
    rng = np.random.default_rng(5)
    for _ in range(1000):
        r = random_rotation(rng)
        d = so3_distance(r)
        assert 0.0 <= d <= 1.0
        frob = np.linalg.norm(np.eye(3) - r) ** 2 / 8.0
        assert abs(d - frob) < 1e-12


def test_orthonormalize_rows_repairs_drift():
    rng = np.random.default_rng(6)
    for _ in range(50):
        r = random_rotation(rng)
        drifted = r + rng.normal(size=(3, 3)) * 1e-6
        fixed = orthonormalize_rows(drifted)
        assert np.linalg.norm(fixed @ fixed.T - np.eye(3)) < 1e-12
        assert np.linalg.det(fixed) > 0.0
        assert np.max(np.abs(fixed - r)) < 1e-5
    fixed = orthonormalize_rows(np.eye(3) + 1e-7)
    assert np.linalg.norm(fixed.T @ fixed - np.eye(3)) <= 1e-9
    assert np.linalg.det(fixed) > 0.0


def test_so3_gammas_match_quadrature():
    # G1 and G2 are integrals of exp(s W) against 1 and (1 - s); compare
    # with 30-node Gauss-Legendre quadrature of the series exponential.
    nodes, weights = np.polynomial.legendre.leggauss(30)
    s_nodes = 0.5 * (nodes + 1.0)
    s_weights = 0.5 * weights
    rng = np.random.default_rng(7)
    for theta in [2.5, 1.0, 0.09, 0.11, 1e-5, np.pi]:
        axis = rng.normal(size=3)
        w = axis / np.linalg.norm(axis) * theta
        g0, g1, g2 = so3_gammas(w)
        wx = cross_matrix(w)
        assert_allclose(g0, expm_series(wx), atol=1e-13)
        q1 = sum(sw * expm_series(s * wx) for s, sw in zip(s_nodes, s_weights))
        q2 = sum(sw * (1.0 - s) * expm_series(s * wx)
                 for s, sw in zip(s_nodes, s_weights))
        assert_allclose(g1, q1, atol=1e-12)
        assert_allclose(g2, q2, atol=1e-12)


def test_integral_coefficients_agree_across_branch_switch():
    # the implementation switches from direct formulas to a series for small
    # angles; both must agree with the plain formulas evaluated in the test,
    # to within the cancellation noise of the plain formulas themselves
    from se23nav.liegroup import _int_coeffs
    for theta in [0.05, 0.099, 0.0999999, 0.1000001, 0.101, 0.2, 0.5]:
        c2, c3 = _int_coeffs(theta)
        direct_c2 = (theta - np.sin(theta)) / theta ** 3
        direct_c3 = (0.5 * theta * theta + np.cos(theta) - 1.0) / theta ** 4
        assert abs(c2 - direct_c2) < 1e-13
        assert abs(c3 - direct_c3) < 1e-11


def test_rodrigues_matches_series_exponential():
    rng = np.random.default_rng(9)
    for _ in range(300):
        w = rng.normal(size=3) * rng.uniform(0.0, 4.0)
        assert_allclose(so3_gammas(w)[0], expm_series(cross_matrix(w)),
                        atol=1e-13)
    assert_allclose(so3_gammas(np.zeros(3))[0], np.eye(3), atol=0)


def test_group_exponential_matches_oracles():
    rng = np.random.default_rng(10)
    for _ in range(200):
        u = NavTangent(omega=rng.normal(size=3) * 2.0,
                       p_col=rng.normal(size=3) * 3.0,
                       v_col=rng.normal(size=3) * 3.0,
                       coupling=rng.normal())
        dt = float(rng.uniform(0.0005, 1.5))
        got = se23_exp(u, dt)
        assert_allclose(got, expm_series(u.as_matrix() * dt), atol=1e-12)
        assert_allclose(got, scipy.linalg.expm(u.as_matrix() * dt), atol=1e-11)


def test_closed_form_exponential_matches_generic():
    # one prediction step of a zero-gravity state is the closed-form flow of
    # the constant inputs, so it must equal the state times the generic
    # exponential of the tangent element (omega, specific force)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(300):
        x = NavState(random_rotation(rng), rng.normal(size=3) * 3.0,
                     rng.normal(size=3) * 3.0)
        w, a = rng.normal(size=3) * 2.0, rng.normal(size=3) * 3.0
        dt = float(rng.uniform(0.0005, 1.5))
        flow = se23_exp(NavTangent(omega=w, v_col=a), dt)
        for representation in (MATRIX, QUATERNION):
            s = ObserverState.create(x, g_ref=np.zeros(3),
                                     representation=representation)
            got = predict(s, w, a, dt).nav.as_matrix()
            want = s.nav.as_matrix() @ flow
            worst = max(worst, float(np.max(np.abs(got[:3] - want[:3]))))
    assert worst < 1e-12


def test_navstate_compose_inverse_roundtrip():
    rng = np.random.default_rng(12)
    for _ in range(100):
        x = NavState(random_rotation(rng), rng.normal(size=3), rng.normal(size=3))
        y = NavState(random_rotation(rng), rng.normal(size=3), rng.normal(size=3))
        # composition agrees with the 5x5 product
        assert_allclose(x.compose(y).as_matrix(),
                        x.as_matrix() @ y.as_matrix(), atol=1e-13)
        ident = x.compose(x.inverse())
        assert_allclose(ident.r, np.eye(3), atol=1e-13)
        assert_allclose(ident.p, np.zeros(3), atol=1e-13)
        assert_allclose(ident.v, np.zeros(3), atol=1e-13)


def test_nav_error_blocks():
    rng = np.random.default_rng(14)
    for _ in range(50):
        x = NavState(random_rotation(rng), rng.normal(size=3), rng.normal(size=3))
        xh = NavState(random_rotation(rng), rng.normal(size=3), rng.normal(size=3))
        err = nav_error(x, xh)
        r_err = x.r @ xh.r.T
        assert_allclose(err.r, r_err, atol=1e-14)
        assert_allclose(err.p, x.p - r_err @ xh.p, atol=1e-13)
        assert_allclose(err.v, x.v - r_err @ xh.v, atol=1e-13)
    x = NavState(random_rotation(rng), rng.normal(size=3), rng.normal(size=3))
    err = nav_error(x, x)
    assert np.linalg.norm(err.p) < 1e-13
    assert so3_distance(err.r) < 1e-15
