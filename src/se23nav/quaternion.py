"""Unit quaternion algebra for the attitude-only part of the estimator.

Quaternions are plain numpy arrays ``[w, x, y, z]`` with the scalar part
first.  The product convention is chosen so that the rotation map is a
homomorphism: ``quat_to_rot(quat_product(a, b)) == quat_to_rot(a) @ quat_to_rot(b)``.

The kernels the propagation law runs on every step (``quat_product``,
``_normalized``, ``quat_to_rot``, ``quat_from_rotvec`` and
``_turn_right``, which chains the first three) compute in plain floats,
with no numpy product: every inner product and squared norm is an explicit
sum in index order, ``w*w + x*x + y*y + z*z`` evaluated left to right.  A
BLAS dot may fuse multiply-adds or sum in another order, so these kernels
do not reproduce numpy's ``@`` to the last bit; they reproduce themselves,
on any memory layout.  The stacked ``quat_to_rot`` and
``_quat_from_rotvec_rows`` evaluate the same sums as elementwise numpy, which
rounds each term as a float does, so every row has the one-row bits.
``rot_to_quat`` (state creation and scoring, not the law) keeps
``np.vecdot`` for its final normalisation.  Sines and cosines stay
``np.sin`` and ``np.cos``; see :mod:`se23nav.liegroup` for the whole rule.
"""

from __future__ import annotations

import math

import numpy as np

# Unit-norm tolerance accepted by quat_to_rot.
TOL_UNIT = 1e-6


class NonUnitQuaternion(ValueError):
    """Raised when an operation requires a unit quaternion and the norm is off."""


def _product(q1, q2) -> list:
    """Product of two float 4-sequences; scalar part ``w1 w2 - v1 . v2``."""
    w1, x1, y1, z1 = q1
    w2, x2, y2, z2 = q2
    # the vector part is w1 v2 + w2 v1 + v1 x v2, term for term as np.cross
    return [w1 * w2 - (x1 * x2 + y1 * y2 + z1 * z2),
            w1 * x2 + w2 * x1 + (y1 * z2 - z1 * y2),
            w1 * y2 + w2 * y1 + (z1 * x2 - x1 * z2),
            w1 * z2 + w2 * z1 + (x1 * y2 - y1 * x2)]


def _normalized(q) -> list:
    """A float 4-sequence divided by its Euclidean length."""
    w, x, y, z = q
    n = math.sqrt(w * w + x * x + y * y + z * z)
    if n == 0.0:
        raise NonUnitQuaternion("cannot normalize the zero quaternion")
    return [w / n, x / n, y / n, z / n]


def quat_product(q1: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """Quaternion product; scalar part ``w1 w2 - v1 . v2``."""
    return np.array(_product(np.asarray(q1, dtype=float).tolist(),
                             np.asarray(q2, dtype=float).tolist()))


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
        w, x, y, z = np.moveaxis(q, -1, 0)
        bad = np.any(np.abs(np.sqrt(w * w + x * x + y * y + z * z) - 1.0) > TOL_UNIT)
    else:
        w, x, y, z = q.tolist()
        bad = abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) > TOL_UNIT
    if bad:
        raise NonUnitQuaternion("quaternion norm deviates from 1 beyond tolerance")
    m = _rot_entries(w, x, y, z)
    if q.ndim == 1:
        return np.array(m).reshape(3, 3)
    # C-ordered like the one-row result, so products with it round the same
    return np.stack(m, axis=-1).reshape(q.shape[:-1] + (3, 3))


def _rot_entries(w, x, y, z) -> list:
    """The nine entries of the rotation matrix of ``[w, x, y, z]``, row by row."""
    # (w^2 - v.v) I + 2 v v^T + 2 w skew(v), summed in that order per entry;
    # the zero entries of I and skew(v) are added too, for signed zeros
    d = w * w - (x * x + y * y + z * z)
    o = d * 0.0
    tw = 2.0 * w
    return [d + 2.0 * (x * x) + tw * 0.0, o + 2.0 * (x * y) + tw * -z, o + 2.0 * (x * z) + tw * y,
            o + 2.0 * (y * x) + tw * z, d + 2.0 * (y * y) + tw * 0.0, o + 2.0 * (y * z) + tw * -x,
            o + 2.0 * (z * x) + tw * -y, o + 2.0 * (z * y) + tw * x, d + 2.0 * (z * z) + tw * 0.0]


def _turn_right(q, dq) -> tuple[list, list]:
    """``_normalized(_product(q, dq))`` and the nine entries of its
    :func:`quat_to_rot` matrix, of and as float lists, with the checks and
    roundings of both.  ``_turn_right(dq, q)`` turns ``q`` from the left."""
    q = _normalized(_product(q, dq))
    w, x, y, z = q
    if abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) > TOL_UNIT:
        raise NonUnitQuaternion("quaternion norm deviates from 1 beyond tolerance")
    return q, _rot_entries(w, x, y, z)


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
    x, y, z = np.asarray(v, dtype=float).tolist()
    theta = math.sqrt(x * x + y * y + z * z)
    if theta < 1e-8:
        # first-order series; renormalized to kill the O(theta^2) defect
        return np.array(_normalized([1.0, 0.5 * x, 0.5 * y, 0.5 * z]))
    half = 0.5 * theta
    s = float(np.sin(half))
    return np.array([float(np.cos(half)),
                     s * (x / theta), s * (y / theta), s * (z / theta)])


def _quat_from_rotvec_rows(v: np.ndarray) -> np.ndarray:
    """:func:`quat_from_rotvec` of every row of a ``(..., 3)`` array, each row
    bit for bit the one-row result (see :mod:`se23nav.liegroup` for the rules)."""
    x, y, z = np.moveaxis(np.asarray(v, dtype=float), -1, 0)
    with np.errstate(all="ignore"):  # both branches are evaluated on every row
        theta = np.sqrt(x * x + y * y + z * z)
        hx, hy, hz = 0.5 * x, 0.5 * y, 0.5 * z
        n = np.sqrt(1.0 * 1.0 + hx * hx + hy * hy + hz * hz)
        near = np.stack([1.0 / n, hx / n, hy / n, hz / n], axis=-1)
        half = 0.5 * theta
        s = np.sin(half)
        far = np.stack([np.cos(half), s * (x / theta), s * (y / theta), s * (z / theta)],
                       axis=-1)
    return np.where((theta < 1e-8)[..., None], near, far)
