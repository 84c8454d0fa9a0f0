"""Matrix Lie group primitives for extended-pose navigation states.

The navigation state (attitude, position, linear velocity) is materialized
as a 5x5 matrix with the rotation in the upper-left block and position and
velocity as the fourth and fifth columns.  Tangent elements carry an extra
scalar in the (5, 4) slot that couples the velocity column into the position
column under the exponential, which is how constant-rate position updates
arise from a single matrix product.

The 3-vector kernels run once or more per inertial sample, where numpy's
per-call overhead costs far more than the arithmetic.  They unpack their
operands with ``tolist()``, compute in plain floats and build one array at
the end.  Which products are plain-float sums and which stay numpy:

- The state-dependent half of the propagation law computes in plain
  floats, with no ``@``, ``.dot``, ``np.linalg.norm`` or ``np.vecdot``:
  ``observer._advance`` (``r [G1 a; G2 a]`` and ``r G0`` over the attitude
  held as nine floats), :func:`orthonormalize_rows` and the quaternion
  kernels of :mod:`se23nav.quaternion`.  Every inner product there is an
  explicit sum in index order, ``x0*y0 + x1*y1 + x2*y2`` evaluated left to
  right.  The reason is speed: a BLAS call per 3-vector costs more than
  the sum.  OpenBLAS fuses multiply-adds, so no plain-float sum reproduces
  its bits; these sums define their own, and they do not depend on the
  memory layout of the operands.
- The input-only half (:func:`so3_gammas` and its batched twin
  ``_so3_gammas_rows``, ``G1 a`` and ``G2 a``), the correction
  (``measurement.aggregate``, ``observer.correct``) and scoring keep their
  numpy products (``@`` on C-ordered operands), and a norm there is
  ``math.sqrt(float(x.dot(x)))``, the expression ``np.linalg.norm``
  evaluates.  The engine computes the input-only terms a block of steps at
  a time, where numpy's call overhead is shared by many rows.
- Elementwise products and sums, and the cross product, round the same in
  floats and in numpy.  Sines and cosines stay ``np.sin`` and ``np.cos``
  (``math.sin`` rounds differently on some inputs).

Kernels that also come in a batched form (``_so3_gammas_rows`` here, the
stacked ``quaternion.quat_to_rot`` and ``quaternion._quat_from_rotvec_rows``)
give every row the bits the one-row kernel gives it, under these rules: a
plain-float sum becomes the same sum of elementwise numpy terms; products
are stacked ``@`` on C-ordered operands, so each slice is the same BLAS
call as one product; norms are ``np.sqrt(np.vecdot(x, x))``, which calls
the same dot as ``x.dot(x)``, and never ``np.einsum``; sines and cosines are
``np.sin`` and ``np.cos`` on arrays; a branch is taken per row with
``np.where`` over both branches' elementwise terms, which round as the
floats do; and a Python float power (``theta ** 3``) is evaluated per
element, since numpy's array power rounds differently, by ``_cube``, the one
overflow rule of both forms.  So every row matches, overflowing rows
included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Below this rotation angle (rad) closed-form coefficients switch to series.
SMALL_ANGLE = 1e-8
# Threshold for the cancellation-prone third/fourth integral coefficients.
_SERIES_ANGLE = 0.1


def skew(v: np.ndarray) -> np.ndarray:
    """Map a 3-vector to the skew-symmetric matrix with ``skew(x) @ y = x cross y``."""
    x, y, z = np.asarray(v, dtype=float).tolist()
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _cross(a, b) -> list:
    """Cross product of two float 3-sequences, term for term as ``np.cross``."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a vector, the expression ``np.linalg.norm`` evaluates."""
    return math.sqrt(float(x.dot(x)))


def vex_antisym(a: np.ndarray) -> np.ndarray:
    """The axis of the anti-symmetric projection ``(a - a.T) / 2`` of a 3x3
    matrix; on ``skew(x)`` it returns ``x`` exactly, so it is the inverse of
    :func:`skew`."""
    (_, a01, a02), (a10, _, a12), (a20, a21, _) = np.asarray(a, dtype=float).tolist()
    return np.array([0.5 * (a21 - a12), 0.5 * (a02 - a20), 0.5 * (a10 - a01)])


def so3_distance(r: np.ndarray) -> float:
    """Normalized attitude distance ``trace(I - r) / 4`` in ``[0, 1]``.

    Zero at the identity, one for a half-turn.  Equals one eighth of the
    squared Frobenius distance to the identity.
    """
    d = (3.0 - float(np.trace(r))) / 4.0
    # rounding can push the trace a hair past its algebraic range
    return min(1.0, max(0.0, d))


def _unit3(x: float, y: float, z: float) -> list:
    """A float 3-vector divided by its length; NaN for a zero length, as
    numpy's ``0 / 0``, so a caller's finiteness check reports it."""
    n = math.sqrt(x * x + y * y + z * z)
    if n == 0.0:
        return [math.nan] * 3
    return [x / n, y / n, z / n]


def orthonormalize_rows(r: np.ndarray) -> np.ndarray:
    """Re-orthonormalize a drifting rotation matrix (or its nine entries,
    row by row).

    Gram-Schmidt on the first two rows; the third is their cross product so
    the result is always right handed.
    """
    a0, a1, a2, b0, b1, b2, *_ = np.ravel(r).tolist()
    r0 = _unit3(a0, a1, a2)
    d = b0 * r0[0] + b1 * r0[1] + b2 * r0[2]
    r1 = _unit3(b0 - d * r0[0], b1 - d * r0[1], b2 - d * r0[2])
    return np.array([r0, r1, _cross(r0, r1)])


def _rot_coeffs(theta: float) -> tuple[float, float]:
    """Rodrigues coefficients sin(t)/t and (1-cos(t))/t^2, stable at zero."""
    if theta < SMALL_ANGLE:
        return 1.0 - theta * theta / 6.0, 0.5 - theta * theta / 24.0
    c0 = float(np.sin(theta)) / theta
    half = float(np.sin(0.5 * theta))
    c1 = 2.0 * half * half / (theta * theta)
    return c0, c1


def _cube(t: float) -> float:
    """``t ** 3``, NaN where the power overflows."""
    try:
        return t ** 3
    except OverflowError:
        return math.nan


def _int_coeffs(theta: float) -> tuple[float, float]:
    """Second/third integral coefficients (t-sin t)/t^3 and (t^2/2+cos t-1)/t^4.

    Direct evaluation cancels catastrophically for small angles, so a short
    even series is used below ``_SERIES_ANGLE``.  Where ``theta ** 3``
    overflows both coefficients are NaN.
    """
    if theta < _SERIES_ANGLE:
        t2 = theta * theta
        c2 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 * t2 * t2 / 362880.0
        c3 = 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0 - t2 * t2 * t2 / 3628800.0
        return c2, c3
    t3 = _cube(theta)
    c2 = (theta - float(np.sin(theta))) / t3
    c3 = (0.5 * theta * theta + float(np.cos(theta)) - 1.0) / (t3 * theta)
    return c2, c3


def _skew_quadratic(d: float, ca: float, cb: float, w: list, s2: list) -> np.ndarray:
    """``d * I + ca * skew(w) + cb * s2``, summed in that order per entry.

    The identity's zero entries are added too, so signed zeros come out as
    they do from the matrix expression.
    """
    x, y, z = w
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = s2
    return np.array([
        [d + cb * a00, 0.0 + ca * -z + cb * a01, 0.0 + ca * y + cb * a02],
        [0.0 + ca * z + cb * a10, d + cb * a11, 0.0 + ca * -x + cb * a12],
        [0.0 + ca * -y + cb * a20, 0.0 + ca * x + cb * a21, d + cb * a22],
    ])


def so3_gammas(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponential of ``skew(w)`` together with its first two integrals.

    Returns ``(G0, G1, G2)`` where ``G0 = exp(skew(w))``,
    ``G1 = int_0^1 exp(s skew(w)) ds`` and ``G2 = int_0^1 (1-s) exp(s skew(w)) ds``.
    These are the blocks of the closed-form flow in ``observer.predict``.
    ``G1`` and ``G2`` are NaN where ``theta ** 3`` overflows; the observer's
    finiteness checks report them.
    """
    w = np.asarray(w, dtype=float)
    theta = _norm(w)
    s = skew(w)
    s2 = (s @ s).tolist()
    c0, c1 = _rot_coeffs(theta)
    c2, c3 = _int_coeffs(theta)
    wl = w.tolist()
    return (_skew_quadratic(1.0, c0, c1, wl, s2),
            _skew_quadratic(1.0, c1, c2, wl, s2),
            _skew_quadratic(0.5, c2, c3, wl, s2))


def _so3_gammas_rows(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`so3_gammas` of every row of a ``(..., 3)`` array: three
    ``(..., 3, 3)`` stacks, each row bit for bit the one-row result, NaN
    ``G1`` and ``G2`` where ``theta ** 3`` overflows included.
    """
    w = np.asarray(w, dtype=float)
    x, y, z = np.moveaxis(w, -1, 0)
    with np.errstate(all="ignore"):  # both branches are evaluated on every row
        theta = np.sqrt(np.vecdot(w, w))
        o = np.zeros_like(theta)
        s = np.stack([o, -z, y, z, o, -x, -y, x, o], axis=-1).reshape(theta.shape + (3, 3))
        s2 = s @ s
        t3 = np.array([_cube(t) for t in theta.ravel().tolist()]).reshape(theta.shape)
        t2 = theta * theta
        small = theta < SMALL_ANGLE
        half = np.sin(0.5 * theta)
        c0 = np.where(small, 1.0 - t2 / 6.0, np.sin(theta) / theta)
        c1 = np.where(small, 0.5 - t2 / 24.0, 2.0 * half * half / t2)
        series = theta < _SERIES_ANGLE
        c2 = np.where(series, 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
                      - t2 * t2 * t2 / 362880.0, (theta - np.sin(theta)) / t3)
        c3 = np.where(series, 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0
                      - t2 * t2 * t2 / 3628800.0,
                      (0.5 * theta * theta + np.cos(theta) - 1.0) / (t3 * theta))
        # _skew_quadratic's sums: d * 0.0 is +0.0 and d + ca * 0.0 is d
        return tuple(d * np.eye(3) + ca[..., None, None] * s + cb[..., None, None] * s2
                     for d, ca, cb in ((1.0, c0, c1), (1.0, c1, c2), (0.5, c2, c3)))


@dataclass(frozen=True)
class NavTangent:
    """Tangent element of the extended-pose dynamics.

    ``omega`` generates the rotation block, ``p_col`` and ``v_col`` are the
    columns driving position and velocity, and ``coupling`` is the (5, 4)
    scalar that feeds the velocity column into the position column under the
    exponential.
    """

    omega: np.ndarray
    p_col: np.ndarray = field(default_factory=lambda: np.zeros(3))
    v_col: np.ndarray = field(default_factory=lambda: np.zeros(3))
    coupling: float = 1.0

    def as_matrix(self) -> np.ndarray:
        m = np.zeros((5, 5))
        m[:3, :3] = skew(self.omega)
        m[:3, 3] = np.asarray(self.p_col, dtype=float)
        m[:3, 4] = np.asarray(self.v_col, dtype=float)
        m[4, 3] = self.coupling
        return m


def se23_exp(u: NavTangent, dt: float = 1.0) -> np.ndarray:
    """Matrix exponential of ``u.as_matrix() * dt`` by scaling and squaring.

    The argument is scaled until its 1-norm is at most 0.5, a 13-term Taylor
    series is evaluated by Horner's rule, and the result is squared back up.
    Returns the raw 5x5 matrix; with nonzero ``coupling`` the (5, 4) entry is
    ``coupling * dt`` and the result is not an extended pose.
    """
    a = u.as_matrix() * dt
    n1 = float(np.abs(a).sum(axis=0).max())
    squarings = 0
    if n1 > 0.5:
        squarings = int(np.ceil(np.log2(n1 / 0.5)))
        a = a / (2.0 ** squarings)
    e = np.eye(5)
    for k in range(13, 0, -1):
        e = np.eye(5) + (a / k) @ e
    for _ in range(squarings):
        e = e @ e
    return e


@dataclass(frozen=True)
class NavState:
    """Extended pose: rotation ``r``, position ``p``, velocity ``v``.

    The materialized 5x5 form has rows four and five fixed at
    ``[0 0 0 1 0]`` and ``[0 0 0 0 1]``, so composition and inversion stay
    inside the group exactly.
    """

    r: np.ndarray
    p: np.ndarray
    v: np.ndarray

    @classmethod
    def identity(cls) -> "NavState":
        return cls(np.eye(3), np.zeros(3), np.zeros(3))

    def as_matrix(self) -> np.ndarray:
        m = np.eye(5)
        m[:3, :3] = self.r
        m[:3, 3] = self.p
        m[:3, 4] = self.v
        return m

    def compose(self, other: "NavState") -> "NavState":
        return NavState(self.r @ other.r,
                        self.r @ other.p + self.p,
                        self.r @ other.v + self.v)

    def inverse(self) -> "NavState":
        rt = self.r.T
        return NavState(rt, -(rt @ self.p), -(rt @ self.v))


def nav_error(x: NavState, xhat: NavState) -> NavState:
    """Right-invariant estimation error ``x @ xhat^-1``.

    Its rotation block is ``r rhat.T``; position and velocity blocks are
    ``p - r_err @ phat`` and ``v - r_err @ vhat``.
    """
    return x.compose(xhat.inverse())
