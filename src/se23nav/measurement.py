"""Landmark measurement model and the per-epoch aggregate statistics.

A landmark survey is a set of known world-frame points with positive
confidence weights.  Each epoch the vehicle observes body-frame bearings to
a subset of them; the estimator never consumes the raw readings directly,
only the weighted aggregates computed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Relative eigenvalue floor deciding whether a survey is degenerate.
TOL_EIG = 1e-9


class InsufficientLandmarks(ValueError):
    """Raised when an epoch carries fewer than three usable readings."""


class UnknownLandmarkId(ValueError):
    """Raised when an observation references an id missing from the survey."""


@dataclass(frozen=True)
class ConfigReport:
    """Outcome of the survey geometry check.

    ``eigenvalues`` are the sorted eigenvalues of the weighted scatter
    matrix; ``min_pair_sum`` / ``max_pair_sum`` are the extreme eigenvalues
    of its trace-complement, whose positivity is what the observer needs.
    """

    count: int
    eigenvalues: np.ndarray
    min_pair_sum: float
    max_pair_sum: float
    ok: bool
    reason: str | None = None


@dataclass(frozen=True)
class LandmarkMap:
    """Known landmark survey: integer ids, world positions, confidence weights."""

    ids: np.ndarray
    positions: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=int)
        pos = np.asarray(self.positions, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if ids.ndim != 1 or ids.size == 0:
            raise ValueError("survey must contain at least one landmark")
        if len(np.unique(ids)) != ids.size:
            raise ValueError("landmark ids must be unique")
        if pos.shape != (ids.size, 3):
            raise ValueError("positions must be an (n, 3) array")
        if w.shape != (ids.size,) or np.any(w <= 0.0):
            raise ValueError("weights must be positive, one per landmark")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_rows", {int(i): k for k, i in enumerate(ids)})

    def __len__(self) -> int:
        return int(self.ids.size)

    def index_of(self, ids: np.ndarray) -> np.ndarray:
        """Row indices of the given ids; raises UnknownLandmarkId on a miss."""
        try:
            return np.array([self._rows[int(i)] for i in ids], dtype=int)
        except KeyError as e:
            raise UnknownLandmarkId(f"observation references unknown landmark id {e.args[0]}")


@dataclass(frozen=True)
class LandmarkObservation:
    """Body-frame landmark readings for one epoch.

    ``points`` holds one 3-vector per observed id, expressed in the body
    frame of the true vehicle pose at time ``t``.
    """

    t: float
    ids: np.ndarray
    points: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=int)
        pts = np.asarray(self.points, dtype=float)
        if pts.shape != (ids.size, 3):
            raise ValueError("points must be an (k, 3) array matching ids")
        object.__setattr__(self, "ids", ids)
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class MeasurementSummary:
    """Weighted aggregates of one observation epoch.

    ``scatter`` is the weighted landmark scatter matrix, ``scatter_err`` its
    product with the (measured) attitude error, ``pos_innovation`` the
    weighted mean position residual seen from the body frame, and
    ``att_dist`` the scatter-weighted attitude distance
    ``0.25 * trace(scatter - scatter_err)``.
    """

    centroid: np.ndarray
    total_weight: float
    scatter: np.ndarray
    scatter_err: np.ndarray
    pos_innovation: np.ndarray
    att_dist: float


def synthesize_observation(nav, lmap: LandmarkMap, t: float = 0.0,
                           noise_std: float = 0.0, rng=None,
                           ids: np.ndarray | None = None) -> LandmarkObservation:
    """Generate body-frame readings ``r.T @ (p_i - p)`` from a true pose.

    Parameters
    ----------
    nav : NavState
        True vehicle state.
    lmap : LandmarkMap
        Survey to observe.  ``ids`` restricts the epoch to a subset.
    noise_std : float
        Per-axis standard deviation of additive Gaussian noise; ``rng`` must
        be supplied when nonzero.
    """
    if ids is None:
        ids = lmap.ids
        pos = lmap.positions
    else:
        idx = lmap.index_of(np.asarray(ids, dtype=int))
        pos = lmap.positions[idx]
    pts = (pos - nav.p) @ nav.r
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("rng is required for noisy observations")
        pts = pts + rng.normal(0.0, noise_std, size=pts.shape)
    return LandmarkObservation(t=t, ids=np.asarray(ids, dtype=int), points=pts)


def aggregate(lmap: LandmarkMap, obs: LandmarkObservation,
              rhat: np.ndarray, phat: np.ndarray) -> MeasurementSummary:
    """Reduce one epoch of readings to the aggregates the observer consumes.

    Parameters
    ----------
    lmap, obs
        Survey and epoch readings; every observed id must be in the survey
        and at least three readings are required.
    rhat, phat
        Attitude and position estimate the aggregates are evaluated at.

    Returns
    -------
    MeasurementSummary

    Notes
    -----
    With noise-free readings ``scatter_err`` equals ``scatter`` times the
    true attitude error, and ``pos_innovation`` equals the position error
    rotated into the error frame.  ``att_dist`` is clamped at zero, where
    measurement noise could otherwise push it slightly negative.
    """
    if len(obs.ids) < 3:
        raise InsufficientLandmarks(
            "an epoch needs at least 3 readings of non-collinear landmarks")
    idx = lmap.index_of(obs.ids)
    p = lmap.positions[idx]
    s = lmap.weights[idx]
    y = obs.points

    s_t = float(s.sum())
    centroid = (s[:, None] * p).sum(axis=0) / s_t
    d = p - centroid
    sd = s[:, None] * d
    scatter = sd.T @ d
    scatter_err = (sd.T @ y) @ rhat.T
    # weighted mean of p_i - rhat y_i - phat
    y_mean = (s[:, None] * y).sum(axis=0) / s_t
    pos_innovation = centroid - rhat @ y_mean - phat
    att_dist = max(0.0, 0.25 * (float(np.trace(scatter)) - float(np.trace(scatter_err))))
    return MeasurementSummary(centroid=centroid, total_weight=s_t,
                              scatter=scatter, scatter_err=scatter_err,
                              pos_innovation=pos_innovation, att_dist=att_dist)


def sym3_eigvals(m: np.ndarray) -> np.ndarray:
    """Eigenvalues of symmetric 3x3 matrices, ascending, by closed form.

    Accepts a single matrix or a batch ``(..., 3, 3)``.  Deterministic
    (trigonometric solution of the characteristic polynomial, no iteration),
    which keeps degenerate-survey detection reproducible across platforms.
    """
    m = np.asarray(m, dtype=float)
    single = m.ndim == 2
    a = m.reshape((-1, 3, 3))
    a00, a11, a22 = a[:, 0, 0], a[:, 1, 1], a[:, 2, 2]
    a01, a02, a12 = a[:, 0, 1], a[:, 0, 2], a[:, 1, 2]
    p1 = a01 ** 2 + a02 ** 2 + a12 ** 2
    q = (a00 + a11 + a22) / 3.0
    p2 = (a00 - q) ** 2 + (a11 - q) ** 2 + (a22 - q) ** 2 + 2.0 * p1
    p = np.sqrt(np.maximum(p2 / 6.0, 0.0))
    safe = p > 0.0
    pinv = np.where(safe, 1.0 / np.where(safe, p, 1.0), 0.0)
    b00 = (a00 - q) * pinv
    b11 = (a11 - q) * pinv
    b22 = (a22 - q) * pinv
    b01 = a01 * pinv
    b02 = a02 * pinv
    b12 = a12 * pinv
    detb = (b00 * (b11 * b22 - b12 * b12)
            - b01 * (b01 * b22 - b12 * b02)
            + b02 * (b01 * b12 - b11 * b02))
    r = np.clip(detb / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    e1 = q + 2.0 * p * np.cos(phi)
    e3 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    out = np.sort(np.stack([e1, e2, e3], axis=-1), axis=-1)
    out = np.where(safe[:, None], out, np.stack([q, q, q], axis=-1))
    if single:
        return out[0]
    return out.reshape(m.shape[:-2] + (3,))


def check_configuration(lmap: LandmarkMap, tol: float = TOL_EIG) -> ConfigReport:
    """Decide whether a survey supports full attitude recovery.

    The survey must contain at least three landmarks whose weighted scatter
    matrix has at most one negligible eigenvalue: the smallest eigenvalue of
    the trace-complement (the sum of the two smallest scatter eigenvalues)
    must exceed ``tol`` times the largest scatter eigenvalue.
    """
    n = len(lmap)
    s = lmap.weights
    p = lmap.positions
    s_t = float(s.sum())
    centroid = (s[:, None] * p).sum(axis=0) / s_t
    d = p - centroid
    scatter = (s[:, None] * d).T @ d
    lam = sym3_eigvals(scatter)
    min_pair = float(lam[0] + lam[1])
    max_pair = float(lam[1] + lam[2])
    if n < 3:
        return ConfigReport(n, lam, min_pair, max_pair, False,
                            f"only {n} landmark(s); at least 3 are required")
    floor = tol * max(float(lam[2]), np.finfo(float).tiny)
    if min_pair <= floor:
        return ConfigReport(n, lam, min_pair, max_pair, False,
                            "landmarks are collinear within tolerance")
    return ConfigReport(n, lam, min_pair, max_pair, True)
