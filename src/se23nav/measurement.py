"""Landmark measurement model and the per-epoch aggregate statistics.

A landmark survey is a set of known world-frame points with positive
confidence weights.  Each epoch the vehicle observes body-frame bearings to
a subset of them; the estimator never consumes the raw readings directly,
only the weighted aggregates computed here.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        # index_of searches the sorted ids and maps back to survey rows
        order = np.argsort(ids)
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_sorted_ids", ids[order])
        # aggregate's terms of the last observed id set (see _observed)
        object.__setattr__(self, "_memo", (None, None))

    def _arrays(self) -> tuple:
        return self.ids, self.positions, self.weights

    def __eq__(self, other) -> bool:
        if not isinstance(other, LandmarkMap):
            return NotImplemented
        return all(a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                   for a, b in zip(self._arrays(), other._arrays()))

    def __hash__(self) -> int:
        return hash(tuple((a.dtype.str, a.shape, a.tobytes()) for a in self._arrays()))

    def __len__(self) -> int:
        return int(self.ids.size)

    def _observed(self, ids: np.ndarray) -> tuple:
        """The terms of :func:`aggregate` that depend only on the survey and
        the observed ``ids``: their weights as a column, the total weight,
        the centroid, the weighted offsets ``sd``, the scatter and its trace.
        :func:`check_configuration` reads the scatter of all the ids.

        The terms of the last id set are kept, keyed by its bytes; like
        ``_sorted_ids`` this relies on the survey's arrays never changing.
        The arrays returned are read-only, since summaries share them.
        """
        key = ids.tobytes()
        if self._memo[0] == key:
            return self._memo[1]
        idx = self.index_of(ids)
        p = self.positions[idx]
        w = self.weights[idx]
        s_t = float(w.sum())
        s = w[:, None]
        centroid = (s * p).sum(axis=0) / s_t
        d = p - centroid
        sd = s * d
        scatter = sd.T @ d
        terms = (s, s_t, centroid, sd, scatter, float(np.trace(scatter)))
        for a in terms:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False
        object.__setattr__(self, "_memo", (key, terms))
        return terms

    def index_of(self, ids: np.ndarray) -> np.ndarray:
        """Row indices of the given ids; raises UnknownLandmarkId naming the
        first unknown id."""
        ids = np.asarray(ids, dtype=int)
        pos = np.minimum(self._sorted_ids.searchsorted(ids), self._sorted_ids.size - 1)
        wanted, found = ids.tolist(), self._sorted_ids[pos].tolist()
        if found != wanted:
            missing = next(i for i, f in zip(wanted, found) if i != f)
            raise UnknownLandmarkId(f"observation references unknown landmark id {missing}")
        return self._order[pos]


@dataclass(frozen=True)
class LandmarkObservation:
    """Body-frame landmark readings for one epoch.

    ``points`` holds one 3-vector per observed id, expressed in the body
    frame of the true vehicle pose at the epoch's instant.
    """

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


def synthesize_observation(nav, lmap: LandmarkMap, noise_std: float = 0.0,
                           rng=None) -> LandmarkObservation:
    """Generate body-frame readings ``r.T @ (p_i - p)`` of every surveyed
    landmark from a true pose.

    Parameters
    ----------
    nav : NavState
        True vehicle state.
    lmap : LandmarkMap
        Survey to observe.
    noise_std : float
        Per-axis standard deviation of additive Gaussian noise; ``rng`` must
        be supplied when nonzero.
    """
    pts = (lmap.positions - nav.p) @ nav.r
    if noise_std > 0.0:
        if rng is None:
            raise ValueError("rng is required for noisy observations")
        pts = pts + rng.normal(0.0, noise_std, size=pts.shape)
    return LandmarkObservation(ids=lmap.ids, points=pts)


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
    s, s_t, centroid, sd, scatter, trace = lmap._observed(obs.ids)
    rhat = np.ascontiguousarray(rhat)  # products round by memory layout
    y = obs.points
    scatter_err = (sd.T @ y) @ rhat.T
    # weighted mean of p_i - rhat y_i - phat
    y_mean = (s * y).sum(axis=0) / s_t
    pos_innovation = centroid - rhat @ y_mean - phat
    att_dist = max(0.0, 0.25 * (trace - float(np.trace(scatter_err))))
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


def check_configuration(lmap: LandmarkMap) -> ConfigReport:
    """Decide whether a survey supports full attitude recovery.

    The survey must contain at least three landmarks whose weighted scatter
    matrix has at most one negligible eigenvalue: the smallest eigenvalue of
    the trace-complement (the sum of the two smallest scatter eigenvalues)
    must exceed :data:`TOL_EIG` times the largest scatter eigenvalue.
    """
    n = len(lmap)
    scatter = lmap._observed(lmap.ids)[4]  # the whole survey's weighted scatter
    lam = sym3_eigvals(scatter)
    min_pair = float(lam[0] + lam[1])
    max_pair = float(lam[1] + lam[2])
    if n < 3:
        return ConfigReport(n, lam, min_pair, max_pair, False,
                            f"only {n} landmark(s); at least 3 are required")
    floor = TOL_EIG * max(float(lam[2]), np.finfo(float).tiny)
    if min_pair <= floor:
        return ConfigReport(n, lam, min_pair, max_pair, False,
                            "landmarks are collinear within tolerance")
    return ConfigReport(n, lam, min_pair, max_pair, True)
