"""Unit quaternion algebra for the attitude-only part of the estimator.

Quaternions are plain numpy arrays ``[w, x, y, z]`` with the scalar part
first.  The product convention is chosen so that the rotation map is a
homomorphism: ``quat_to_rot(quat_product(a, b)) == quat_to_rot(a) @ quat_to_rot(b)``.
The per-sample functions compute in plain floats under the rule stated in
:mod:`se23nav.liegroup`; ``rot_to_quat`` and the stacked ``quat_to_rot``
apply the same elementwise formulas to whole arrays, so each row rounds as
it would alone.
"""

from __future__ import annotations

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
    """Rotation matrix of a unit quaternion; ``(..., 3, 3)`` matrices of
    ``(..., 4)`` quaternions, each the matrix of its row.

    Raises
    ------
    NonUnitQuaternion
        If a norm deviates from one by more than ``TOL_UNIT``.
    """
    q = np.asarray(q, dtype=float)
    if q.ndim > 1:
        bad = np.any(np.abs(np.sqrt(np.vecdot(q, q)) - 1.0) > TOL_UNIT)
        vv = np.vecdot(q[..., 1:], q[..., 1:])
        w, x, y, z = np.moveaxis(q, -1, 0)
    else:
        bad = abs(_norm(q) - 1.0) > TOL_UNIT
        vv = float(q[1:] @ q[1:])
        w, x, y, z = q.tolist()
    if bad:
        raise NonUnitQuaternion("quaternion norm deviates from 1 beyond tolerance")
    # (w^2 - v.v) I + 2 v v^T + 2 w skew(v), summed in that order per entry;
    # the zero entries of I and skew(v) are added too, for signed zeros
    d = w * w - vv
    o = d * 0.0
    tw = 2.0 * w
    m = [[d + 2.0 * (x * x) + tw * 0.0, o + 2.0 * (x * y) + tw * -z, o + 2.0 * (x * z) + tw * y],
         [o + 2.0 * (y * x) + tw * z, d + 2.0 * (y * y) + tw * 0.0, o + 2.0 * (y * z) + tw * -x],
         [o + 2.0 * (z * x) + tw * -y, o + 2.0 * (z * y) + tw * x, d + 2.0 * (z * z) + tw * 0.0]]
    if q.ndim == 1:
        return np.array(m)
    # C-ordered like the one-row result, so products with it round the same
    return np.stack([np.stack(row, axis=-1) for row in m], axis=-2)


# The terms of each branch of rot_to_quat: 0 is s / 4, 1 to 6 are the
# antisymmetric and symmetric off-diagonal pairs divided by s.
_BRANCH_TERMS = np.array([[0, 1, 2, 3], [1, 0, 4, 5], [2, 4, 0, 6], [3, 5, 6, 0]])


def rot_to_quat(r: np.ndarray) -> np.ndarray:
    """Unit quaternion of a rotation matrix, scalar part nonnegative;
    ``(..., 4)`` quaternions of ``(..., 3, 3)`` matrices.

    Branches on the largest of the four squared components so the divisions
    stay well conditioned for every attitude, including half-turns.
    """
    r = np.asarray(r, dtype=float)
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.moveaxis(r, (-2, -1), (0, 1))
    # summed from 0.0 in index order, as np.trace sums
    t = 0.0 + r00 + r11 + r22
    # squared components up to a common factor of 4
    cand = np.stack([1.0 + t, 1.0 + r00 - r11 - r22, 1.0 - r00 + r11 - r22,
                     1.0 - r00 - r11 + r22], axis=-1)
    # first maximum, or the first NaN
    i = np.argmax(cand, axis=-1)
    c = np.take_along_axis(cand, i[..., None], axis=-1)
    s = 2.0 * np.sqrt(np.where(0.0 > c, 0.0, c))  # max(c, 0.0), NaN kept
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.concatenate([0.25 * s, np.stack(
            [r21 - r12, r02 - r20, r10 - r01, r01 + r10, r02 + r20, r12 + r21],
            axis=-1) / s], axis=-1)
    q = np.take_along_axis(terms, _BRANCH_TERMS[i], axis=-1)
    q = np.where(q[..., :1] < 0.0, -q, q)
    return q / np.sqrt(np.vecdot(q, q))[..., None]


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
