"""Shared oracles for the test suite.

Everything here is deliberately independent of the package internals: the
matrix exponential is a plain truncated series with scaling and squaring,
rotations are sampled through scipy, and the reference integrator is a
classical Runge-Kutta scheme.  Tests compare package output against these,
never against values produced by the code under test.
"""

from __future__ import annotations

import numpy as np
from hypothesis import settings
from scipy.spatial.transform import Rotation

# Property tests draw a fixed, derandomized set of examples, so every tier-1
# run checks the same inputs.
settings.register_profile("tier1", derandomize=True, max_examples=100,
                          deadline=None, database=None)
settings.load_profile("tier1")


def expm_series(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Matrix exponential by a 30-term Taylor series with scaling and squaring.

    Plain term-by-term accumulation (no Horner), so it shares no code path
    with the package implementation.
    """
    a = np.asarray(a, dtype=float)
    n1 = float(np.abs(a).sum(axis=0).max()) if a.size else 0.0
    squarings = 0
    if n1 > 0.5:
        squarings = int(np.ceil(np.log2(n1 / 0.5)))
        a = a / (2.0 ** squarings)
    out = np.eye(a.shape[0])
    term = np.eye(a.shape[0])
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def cross_matrix(v) -> np.ndarray:
    """Independent skew builder for oracle-side computations."""
    v = np.asarray(v, dtype=float)
    return np.array([
        [0.0, -v[2], v[1]],
        [v[2], 0.0, -v[0]],
        [-v[1], v[0], 0.0],
    ])


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniformly random rotation matrix via a normalized Gaussian quaternion."""
    q = rng.normal(size=4)
    q = q / np.linalg.norm(q)
    # scipy expects scalar-last ordering
    return Rotation.from_quat([q[1], q[2], q[3], q[0]]).as_matrix()


def random_rotation_batch(rng: np.random.Generator, n: int) -> np.ndarray:
    q = rng.normal(size=(n, 4))
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    return Rotation.from_quat(q[:, [1, 2, 3, 0]]).as_matrix()


def rk4_pose(r, p, v, omega, sf, g, dt, substeps=200):
    """Integrate the rigid-body kinematics with constant body rate and
    specific force: dR = R [omega]x, dP = V, dV = R sf + g."""
    r = np.array(r, dtype=float)
    p = np.array(p, dtype=float)
    v = np.array(v, dtype=float)
    omega = np.asarray(omega, dtype=float)
    sf = np.asarray(sf, dtype=float)
    g = np.asarray(g, dtype=float)
    w = cross_matrix(omega)

    def deriv(state):
        r_, p_, v_ = state
        return r_ @ w, v_, r_ @ sf + g

    h = dt / substeps
    state = (r, p, v)
    for _ in range(substeps):
        k1 = deriv(state)
        k2 = deriv(tuple(s + 0.5 * h * k for s, k in zip(state, k1)))
        k3 = deriv(tuple(s + 0.5 * h * k for s, k in zip(state, k2)))
        k4 = deriv(tuple(s + h * k for s, k in zip(state, k3)))
        state = tuple(s + (h / 6.0) * (a + 2.0 * b + 2.0 * c + d)
                      for s, a, b, c, d in zip(state, k1, k2, k3, k4))
    return state
