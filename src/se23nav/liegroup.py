"""Matrix Lie group primitives for extended-pose navigation states.

The navigation state (attitude, position, linear velocity) is materialized
as a 5x5 matrix with the rotation in the upper-left block and position and
velocity as the fourth and fifth columns.  Tangent elements carry an extra
scalar in the (5, 4) slot that couples the velocity column into the position
column under the exponential, which is how constant-rate position updates
arise from a single matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Frobenius tolerance for treating a matrix as skew symmetric.
TOL_SKEW = 1e-9
# Below this rotation angle (rad) closed-form coefficients switch to series.
SMALL_ANGLE = 1e-8
# Threshold for the cancellation-prone third/fourth integral coefficients.
_SERIES_ANGLE = 0.1

_I3 = np.eye(3)


class NotSkewSymmetric(ValueError):
    """Raised when ``vex`` is applied to a matrix that is not skew symmetric."""


def skew(v: np.ndarray) -> np.ndarray:
    """Map a 3-vector to the skew-symmetric matrix with ``skew(x) @ y = x cross y``."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def vex(s: np.ndarray) -> np.ndarray:
    """Inverse of :func:`skew`.

    Raises
    ------
    NotSkewSymmetric
        If ``s + s.T`` exceeds ``TOL_SKEW`` in Frobenius norm.
    """
    s = np.asarray(s, dtype=float)
    if np.linalg.norm(s + s.T) > TOL_SKEW:
        raise NotSkewSymmetric("input is not skew symmetric within tolerance")
    return np.array([s[2, 1], s[0, 2], s[1, 0]])


def antisym(a: np.ndarray) -> np.ndarray:
    """Anti-symmetric projection ``(a - a.T) / 2``."""
    a = np.asarray(a, dtype=float)
    return 0.5 * (a - a.T)


def vex_antisym(a: np.ndarray) -> np.ndarray:
    """``vex`` of the anti-symmetric projection of an arbitrary 3x3 matrix."""
    p = antisym(a)
    return np.array([p[2, 1], p[0, 2], p[1, 0]])


def so3_distance(r: np.ndarray) -> float:
    """Normalized attitude distance ``trace(I - r) / 4`` in ``[0, 1]``.

    Zero at the identity, one for a half-turn.  Equals one eighth of the
    squared Frobenius distance to the identity.
    """
    d = (3.0 - float(np.trace(r))) / 4.0
    # rounding can push the trace a hair past its algebraic range
    return min(1.0, max(0.0, d))


def is_rotation(r: np.ndarray, tol: float = 1e-9) -> bool:
    r = np.asarray(r, dtype=float)
    if r.shape != (3, 3):
        return False
    if np.linalg.norm(r.T @ r - _I3) > tol:
        return False
    return bool(np.linalg.det(r) > 0.0)


def orthonormalize_rows(r: np.ndarray) -> np.ndarray:
    """Re-orthonormalize a drifting rotation matrix.

    Gram-Schmidt on the first two rows; the third is their cross product so
    the result is always right handed.
    """
    r0 = r[0] / np.linalg.norm(r[0])
    r1 = r[1] - (r[1] @ r0) * r0
    r1 = r1 / np.linalg.norm(r1)
    return np.array([r0, r1, np.cross(r0, r1)])


def _rot_coeffs(theta: float) -> tuple[float, float]:
    """Rodrigues coefficients sin(t)/t and (1-cos(t))/t^2, stable at zero."""
    if theta < SMALL_ANGLE:
        return 1.0 - theta * theta / 6.0, 0.5 - theta * theta / 24.0
    c0 = np.sin(theta) / theta
    half = np.sin(0.5 * theta)
    c1 = 2.0 * half * half / (theta * theta)
    return c0, c1


def _int_coeffs(theta: float) -> tuple[float, float]:
    """Second/third integral coefficients (t-sin t)/t^3 and (t^2/2+cos t-1)/t^4.

    Direct evaluation cancels catastrophically for small angles, so a short
    even series is used below ``_SERIES_ANGLE``.
    """
    if theta < _SERIES_ANGLE:
        t2 = theta * theta
        c2 = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0 - t2 * t2 * t2 / 362880.0
        c3 = 1.0 / 24.0 - t2 / 720.0 + t2 * t2 / 40320.0 - t2 * t2 * t2 / 3628800.0
        return c2, c3
    t3 = theta ** 3
    c2 = (theta - np.sin(theta)) / t3
    c3 = (0.5 * theta * theta + np.cos(theta) - 1.0) / (t3 * theta)
    return c2, c3


def so3_gammas(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exponential of ``skew(w)`` together with its first two integrals.

    Returns ``(G0, G1, G2)`` where ``G0 = exp(skew(w))``,
    ``G1 = int_0^1 exp(s skew(w)) ds`` and ``G2 = int_0^1 (1-s) exp(s skew(w)) ds``.
    These are the blocks of the closed-form flow in ``observer.predict``.
    """
    w = np.asarray(w, dtype=float)
    theta = float(np.linalg.norm(w))
    s = skew(w)
    s2 = s @ s
    c0, c1 = _rot_coeffs(theta)
    c2, c3 = _int_coeffs(theta)
    g0 = _I3 + c0 * s + c1 * s2
    g1 = _I3 + c1 * s + c2 * s2
    g2 = 0.5 * _I3 + c2 * s + c3 * s2
    return g0, g1, g2


def rodrigues_exp(omega: np.ndarray, dt: float = 1.0) -> np.ndarray:
    """Rotation matrix ``exp(skew(omega) * dt)`` by the Rodrigues formula."""
    w = np.asarray(omega, dtype=float) * dt
    theta = float(np.linalg.norm(w))
    c0, c1 = _rot_coeffs(theta)
    s = skew(w)
    return _I3 + c0 * s + c1 * (s @ s)


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

    @classmethod
    def from_matrix(cls, m: np.ndarray, tol: float = 1e-9) -> "NavState":
        """Strict conversion: the bottom rows must match the group pattern."""
        m = np.asarray(m, dtype=float)
        expect = np.array([[0.0, 0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0]])
        if np.abs(m[3:5] - expect).max() > tol:
            raise ValueError("bottom rows do not match the extended-pose pattern")
        return cls.from_blocks(m)

    @classmethod
    def from_blocks(cls, m: np.ndarray) -> "NavState":
        """Read the (r, p, v) blocks, ignoring bookkeeping rows."""
        m = np.asarray(m, dtype=float)
        return cls(m[:3, :3].copy(), m[:3, 3].copy(), m[:3, 4].copy())

    def compose(self, other: "NavState") -> "NavState":
        return NavState(self.r @ other.r,
                        self.r @ other.p + self.p,
                        self.r @ other.v + self.v)

    def inverse(self) -> "NavState":
        rt = self.r.T
        return NavState(rt, -(rt @ self.p), -(rt @ self.v))

    def validate(self, tol: float = 1e-9) -> None:
        if not is_rotation(self.r, tol):
            raise ValueError("rotation block is not orthonormal within tolerance")
        if self.p.shape != (3,) or self.v.shape != (3,):
            raise ValueError("position and velocity must be 3-vectors")


def nav_error(x: NavState, xhat: NavState) -> NavState:
    """Right-invariant estimation error ``x @ xhat^-1``.

    Its rotation block is ``r rhat.T``; position and velocity blocks are
    ``p - r_err @ phat`` and ``v - r_err @ vhat``.
    """
    return x.compose(xhat.inverse())
