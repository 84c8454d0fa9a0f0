"""Unit quaternion algebra for the attitude-only part of the estimator.

Quaternions are plain numpy arrays ``[w, x, y, z]`` with the scalar part
first.  The product convention is chosen so that the rotation map is a
homomorphism: ``quat_to_rot(quat_product(a, b)) == quat_to_rot(a) @ quat_to_rot(b)``.
The functions compute in plain floats under the rule stated in
:mod:`se23nav.liegroup`.
"""

from __future__ import annotations

import math

import numpy as np

from .liegroup import _cross, _norm

# Unit-norm tolerance accepted by quat_to_rot.
TOL_UNIT = 1e-6


class NonUnitQuaternion(ValueError):
    """Raised when an operation requires a unit quaternion and the norm is off."""


def quat_normalize(q: np.ndarray) -> np.ndarray:
    q = np.asarray(q, dtype=float)
    n = _norm(q)
    if n == 0.0:
        raise NonUnitQuaternion("cannot normalize the zero quaternion")
    return q / n


def quat_product(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Quaternion product; scalar part ``w1 w2 - v1 . v2``."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    dot = float(q1[1:] @ q2[1:])
    w1, *v1 = q1.tolist()
    w2, *v2 = q2.tolist()
    c = _cross(v1, v2)
    return np.array([w1 * w2 - dot] + [w1 * b + w2 * a + ab
                                       for a, b, ab in zip(v1, v2, c)])


def quat_to_rot(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion.

    Raises
    ------
    NonUnitQuaternion
        If the norm deviates from one by more than ``TOL_UNIT``.
    """
    q = np.asarray(q, dtype=float)
    if abs(_norm(q) - 1.0) > TOL_UNIT:
        raise NonUnitQuaternion("quaternion norm deviates from 1 beyond tolerance")
    v = q[1:]
    vv = float(v @ v)
    w, x, y, z = q.tolist()
    # (w^2 - v.v) I + 2 v v^T + 2 w skew(v), summed in that order per entry;
    # the zero entries of I and skew(v) are added too, for signed zeros
    d = w * w - vv
    o = d * 0.0
    tw = 2.0 * w
    return np.array([
        [d + 2.0 * (x * x) + tw * 0.0, o + 2.0 * (x * y) + tw * -z, o + 2.0 * (x * z) + tw * y],
        [o + 2.0 * (y * x) + tw * z, d + 2.0 * (y * y) + tw * 0.0, o + 2.0 * (y * z) + tw * -x],
        [o + 2.0 * (z * x) + tw * -y, o + 2.0 * (z * y) + tw * x, d + 2.0 * (z * z) + tw * 0.0],
    ])


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix, scalar part nonnegative.

    Branches on the largest of the four squared components so the divisions
    stay well conditioned for every attitude, including half-turns.
    """
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.asarray(r, dtype=float).tolist()
    # summed from 0.0 in index order, as np.trace sums
    t = 0.0 + r00 + r11 + r22
    # squared components up to a common factor of 4
    cand = [1.0 + t,
            1.0 + r00 - r11 - r22,
            1.0 - r00 + r11 - r22,
            1.0 - r00 - r11 + r22]
    # first maximum, or the first NaN, as np.argmax picks it
    i = 0
    for k in (1, 2, 3):
        if cand[i] == cand[i] and not cand[k] <= cand[i]:
            i = k
    s = 2.0 * math.sqrt(max(cand[i], 0.0))
    if i == 0:
        q = [0.25 * s, (r21 - r12) / s, (r02 - r20) / s, (r10 - r01) / s]
    elif i == 1:
        q = [(r21 - r12) / s, 0.25 * s, (r01 + r10) / s, (r02 + r20) / s]
    elif i == 2:
        q = [(r02 - r20) / s, (r01 + r10) / s, 0.25 * s, (r12 + r21) / s]
    else:
        q = [(r10 - r01) / s, (r02 + r20) / s, (r12 + r21) / s, 0.25 * s]
    if q[0] < 0.0:
        q = [-c for c in q]
    q = np.array(q)
    return q / _norm(q)


def quat_from_rotvec(v: np.ndarray) -> np.ndarray:
    """Unit quaternion of the rotation vector ``v`` (axis times angle)."""
    v = np.asarray(v, dtype=float)
    theta = _norm(v)
    x, y, z = v.tolist()
    if theta < 1e-8:
        # first-order series; renormalized to kill the O(theta^2) defect
        q = np.array([1.0, 0.5 * x, 0.5 * y, 0.5 * z])
        return q / _norm(q)
    half = 0.5 * theta
    s = float(np.sin(half))
    return np.array([float(np.cos(half)),
                     s * (x / theta), s * (y / theta), s * (z / theta)])
