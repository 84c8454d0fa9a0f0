"""Unit quaternion algebra and its agreement with the rotation matrices."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.spatial.transform import Rotation

from conftest import random_rotation

from se23nav import (NonUnitQuaternion, quat_from_rotvec, quat_product,
                     quat_to_rot, rodrigues_exp, rot_to_quat, so3_distance)
from se23nav.quaternion import _normalized

_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _random_unit(rng):
    q = rng.normal(size=4)
    return q / np.linalg.norm(q)


def test_product_is_rotation_homomorphism():
    rng = np.random.default_rng(20)
    for _ in range(100):
        a, b = _random_unit(rng), _random_unit(rng)
        assert_allclose(quat_to_rot(quat_product(a, b)),
                        quat_to_rot(a) @ quat_to_rot(b), atol=1e-12)


def test_quat_to_rot_matches_scipy():
    rng = np.random.default_rng(21)
    for _ in range(100):
        q = _random_unit(rng)
        ref = Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()
        assert_allclose(quat_to_rot(q), ref, atol=1e-13)


def test_rot_to_quat_known_values():
    # quarter turn about the vertical
    rz90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    assert_allclose(rot_to_quat(rz90),
                    np.array([np.cos(np.pi / 4.0), 0.0, 0.0, np.sin(np.pi / 4.0)]),
                    atol=1e-15)
    # half turn about the first axis has a zero scalar part
    assert_allclose(rot_to_quat(np.diag([1.0, -1.0, -1.0])),
                    np.array([0.0, 1.0, 0.0, 0.0]), atol=1e-15)
    assert_allclose(rot_to_quat(np.eye(3)), _IDENTITY, atol=0)


def test_rot_quat_roundtrip_all_branches():
    rng = np.random.default_rng(22)
    mats = [random_rotation(rng) for _ in range(300)]
    # near half-turn attitudes exercise every large-component branch
    for axis in (np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
                 np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0),
                 np.array([1.0, -1.0, 0.5]) / np.linalg.norm([1.0, -1.0, 0.5])):
        for angle in (np.pi, np.pi - 1e-7, np.pi - 1e-3):
            mats.append(rodrigues_exp(axis * angle))
    for r in mats:
        q = rot_to_quat(r)
        assert q[0] >= 0.0
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15
        assert so3_distance(quat_to_rot(q) @ r.T) < 1e-12


def test_quat_from_rotvec_matches_rodrigues():
    rng = np.random.default_rng(23)
    for _ in range(200):
        v = rng.normal(size=3) * rng.uniform(0.0, 3.5)
        assert_allclose(quat_to_rot(quat_from_rotvec(v)), rodrigues_exp(v),
                        atol=1e-13)
    # small-angle series branch stays unit and correct
    tiny = np.array([1e-10, -2e-10, 5e-11])
    q = quat_from_rotvec(tiny)
    assert abs(np.linalg.norm(q) - 1.0) < 1e-15
    assert_allclose(quat_to_rot(q), rodrigues_exp(tiny), atol=1e-15)
    # half-turn input
    q_pi = quat_from_rotvec(np.array([np.pi, 0.0, 0.0]))
    assert_allclose(q_pi, np.array([np.cos(np.pi / 2.0), 1.0, 0.0, 0.0]),
                    atol=1e-15)


def test_conjugate_inverts():
    rng = np.random.default_rng(24)
    for _ in range(50):
        q = _random_unit(rng)
        conjugate = q * np.array([1.0, -1.0, -1.0, -1.0])
        assert_allclose(quat_product(q, conjugate), _IDENTITY, atol=1e-15)


def test_unit_norm_validation():
    with pytest.raises(NonUnitQuaternion):
        quat_to_rot(np.array([1.1, 0.0, 0.0, 0.0]))
    with pytest.raises(NonUnitQuaternion):
        _normalized([0.0] * 4)
    # mild drift inside tolerance is accepted
    q = quat_to_rot(np.array([1.0 + 1e-7, 0.0, 0.0, 0.0]))
    assert q.shape == (3, 3)


def test_normalize_restores_unit_norm():
    rng = np.random.default_rng(25)
    q = rng.normal(size=4) * 7.3
    n = np.array(_normalized(q.tolist()))
    assert abs(np.linalg.norm(n) - 1.0) < 1e-15
    assert_allclose(n * np.linalg.norm(q), q, atol=1e-12)
