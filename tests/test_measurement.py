"""Landmark aggregates: hand-loop oracles, error identities, geometry checks."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import random_rotation

from se23nav import (InsufficientLandmarks, LandmarkMap, LandmarkObservation,
                     NavState, Scenario, UnknownLandmarkId, aggregate,
                     check_configuration, default_landmark_map, default_scenario,
                     so3_gammas, synthesize_observation)


def _random_map(rng, n=5):
    return LandmarkMap(ids=np.arange(1, n + 1),
                       positions=rng.uniform(-4.0, 4.0, size=(n, 3)),
                       weights=rng.uniform(0.5, 2.5, size=n))


def _random_nav(rng):
    return NavState(random_rotation(rng), rng.normal(size=3) * 2.0,
                    rng.normal(size=3))


def test_aggregate_matches_hand_loops():
    rng = np.random.default_rng(30)
    lmap = _random_map(rng)
    x = _random_nav(rng)
    xh = _random_nav(rng)
    obs = synthesize_observation(x, lmap)
    out = aggregate(lmap, obs, xh.r, xh.p)

    s, p, y = lmap.weights, lmap.positions, obs.points
    s_t = sum(s)
    centroid = sum(s[i] * p[i] for i in range(5)) / s_t
    scatter = sum(s[i] * np.outer(p[i] - centroid, p[i] - centroid)
                  for i in range(5))
    scatter_err = sum(s[i] * np.outer(p[i] - centroid, xh.r @ y[i])
                      for i in range(5))
    y_mean = sum(s[i] * y[i] for i in range(5)) / s_t
    pos_innovation = centroid - xh.r @ y_mean - xh.p
    att_dist = 0.25 * (np.trace(scatter) - np.trace(scatter_err))

    assert abs(out.total_weight - s_t) < 1e-12
    assert_allclose(out.centroid, centroid, atol=1e-13)
    assert_allclose(out.scatter, scatter, atol=1e-12)
    assert_allclose(out.scatter_err, scatter_err, atol=1e-12)
    assert_allclose(out.pos_innovation, pos_innovation, atol=1e-12)
    assert abs(out.att_dist - att_dist) < 1e-12


def test_aggregate_keeps_its_bits_across_id_sets():
    # the survey-side terms of the last id set are kept; every summary must
    # have the bits of one computed on a fresh survey, whatever came before
    rng = np.random.default_rng(32)
    lmap = _random_map(rng, n=12)
    x, xh = _random_nav(rng), _random_nav(rng)
    full = synthesize_observation(x, lmap, noise_std=0.1, rng=rng)
    subset = LandmarkObservation(ids=full.ids[[7, 2, 9, 4]], points=full.points[[7, 2, 9, 4]])
    unknown = LandmarkObservation(ids=np.array([1, 2, 99]), points=np.zeros((3, 3)))

    def fields(summary):
        return [np.asarray(getattr(summary, f)).tobytes() for f in
                ("centroid", "total_weight", "scatter", "scatter_err",
                 "pos_innovation", "att_dist")]

    fresh = {id(o): fields(aggregate(_random_map(np.random.default_rng(32), n=12), o,
                                     xh.r, xh.p))
             for o in (full, subset)}
    for obs in (full, full, subset, full, subset, subset):
        assert fields(aggregate(lmap, obs, xh.r, xh.p)) == fresh[id(obs)]
        with pytest.raises(UnknownLandmarkId):
            aggregate(lmap, unknown, xh.r, xh.p)
    # summaries share the kept arrays, so those are read-only
    with pytest.raises(ValueError):
        aggregate(lmap, full, xh.r, xh.p).scatter[0, 0] = 0.0


def test_landmark_maps_compare_and_hash_by_value():
    bare, ref = Scenario(lmap=default_landmark_map()), default_scenario()
    assert bare == ref and hash(bare) == hash(ref)
    lmap = default_landmark_map()
    aggregate(lmap, synthesize_observation(NavState.identity(), lmap),
              np.eye(3), np.zeros(3))  # fills the kept terms, which do not count
    assert lmap == ref.lmap and hash(lmap) == hash(ref.lmap)
    weights = lmap.weights.copy()
    weights[3] = np.nextafter(weights[3], 1.0)
    changed = LandmarkMap(ids=lmap.ids, positions=lmap.positions, weights=weights)
    assert changed != lmap and hash(changed) != hash(lmap)
    assert lmap != LandmarkMap(ids=lmap.ids[::-1], positions=lmap.positions[::-1],
                               weights=lmap.weights[::-1])
    assert lmap != "map" and len({lmap, ref.lmap, changed}) == 2


def test_noise_free_error_identities():
    # with exact readings the scatter-error product equals the scatter times
    # the true attitude error, and the position innovation is the rotated
    # position error; at equal attitudes it is exactly the position error
    rng = np.random.default_rng(31)
    for _ in range(30):
        lmap = _random_map(rng, n=6)
        x = _random_nav(rng)
        xh = _random_nav(rng)
        obs = synthesize_observation(x, lmap)
        out = aggregate(lmap, obs, xh.r, xh.p)
        r_err = x.r @ xh.r.T
        assert_allclose(out.scatter_err, out.scatter @ r_err, atol=1e-11)
        expect_inn = (out.centroid - r_err.T @ (out.centroid - x.p) - xh.p)
        assert_allclose(out.pos_innovation, expect_inn, atol=1e-11)

    lmap = _random_map(rng)
    x = _random_nav(rng)
    xh = NavState(x.r.copy(), x.p + np.array([0.4, -0.7, 1.1]), x.v)
    obs = synthesize_observation(x, lmap)
    out = aggregate(lmap, obs, xh.r, xh.p)
    assert_allclose(out.pos_innovation, x.p - xh.p, atol=1e-12)


def test_att_dist_matches_ground_truth_attitude_error():
    # the aggregate distance statistic equals the weighted distance computed
    # directly from the true attitude error
    rng = np.random.default_rng(32)
    for _ in range(20):
        lmap = _random_map(rng, n=6)
        x = _random_nav(rng)
        xh = _random_nav(rng)
        obs = synthesize_observation(x, lmap)
        out = aggregate(lmap, obs, xh.r, xh.p)
        r_err = x.r @ xh.r.T
        direct = 0.25 * np.trace(out.scatter @ (np.eye(3) - r_err))
        assert abs(out.att_dist - direct) < 1e-12
    # half-turn estimate: the distance is strictly positive and still exact
    x = _random_nav(rng)
    xh = NavState(x.r @ so3_gammas(np.array([0.0, 0.0, np.pi]))[0], x.p, x.v)
    lmap = _random_map(rng)
    obs = synthesize_observation(x, lmap)
    out = aggregate(lmap, obs, xh.r, xh.p)
    r_err = x.r @ xh.r.T
    direct = 0.25 * np.trace(out.scatter @ (np.eye(3) - r_err))
    assert abs(out.att_dist - direct) < 1e-12
    assert out.att_dist > 0.1


def test_att_dist_is_clamped_at_zero():
    rng = np.random.default_rng(33)
    lmap = _random_map(rng)
    x = _random_nav(rng)
    # heavy noise can push the raw trace statistic negative
    obs = synthesize_observation(x, lmap, noise_std=5.0,
                                 rng=np.random.default_rng(0))
    for _ in range(50):
        obs = synthesize_observation(x, lmap, noise_std=5.0, rng=rng)
        out = aggregate(lmap, obs, x.r, x.p)
        assert out.att_dist >= 0.0


def test_common_weight_factor_scaling():
    rng = np.random.default_rng(34)
    lmap = _random_map(rng)
    scaled = LandmarkMap(ids=lmap.ids, positions=lmap.positions,
                         weights=lmap.weights * 3.7)
    x = _random_nav(rng)
    xh = _random_nav(rng)
    obs = synthesize_observation(x, lmap)
    a = aggregate(lmap, obs, xh.r, xh.p)
    b = aggregate(scaled, obs, xh.r, xh.p)
    # normalized aggregates are invariant, extensive ones scale linearly
    assert_allclose(b.centroid, a.centroid, atol=1e-12)
    assert_allclose(b.pos_innovation, a.pos_innovation, atol=1e-12)
    assert_allclose(b.scatter, 3.7 * a.scatter, atol=1e-11)
    assert_allclose(b.scatter_err, 3.7 * a.scatter_err, atol=1e-11)
    assert abs(b.att_dist - 3.7 * a.att_dist) < 1e-11


def test_synthesize_observation_values_and_subset():
    rng = np.random.default_rng(35)
    lmap = _random_map(rng)
    x = _random_nav(rng)
    obs = synthesize_observation(x, lmap)
    for i in range(len(lmap)):
        assert_allclose(obs.points[i], x.r.T @ (lmap.positions[i] - x.p),
                        atol=1e-13)
    assert np.array_equal(obs.ids, lmap.ids)
    with pytest.raises(ValueError):
        synthesize_observation(x, lmap, noise_std=0.1)  # rng required


def test_epoch_size_and_id_guards():
    rng = np.random.default_rng(36)
    lmap = _random_map(rng)
    x = _random_nav(rng)
    full = synthesize_observation(x, lmap)
    small = LandmarkObservation(ids=full.ids[:2], points=full.points[:2])
    with pytest.raises(InsufficientLandmarks):
        aggregate(lmap, small, x.r, x.p)
    rogue = LandmarkObservation(ids=np.array([1, 2, 99]),
                                points=np.zeros((3, 3)))
    with pytest.raises(UnknownLandmarkId):
        aggregate(lmap, rogue, x.r, x.p)


def test_index_of_unsorted_negative_and_repeated_ids():
    ids = np.array([40, -7, 3, 1000, -250, 12])
    lmap = LandmarkMap(ids=ids, positions=np.arange(18.0).reshape(6, 3),
                       weights=np.ones(6))
    query = np.array([12, -250, 40, 40, 1000, -7, 3, 12])
    rows = lmap.index_of(query)
    assert rows.dtype == np.dtype(int)
    assert list(ids[rows]) == list(query)
    assert rows[2] == rows[3] == 0 and rows[0] == rows[7] == 5
    assert lmap.index_of(np.array([], dtype=int)).size == 0
    # the first unknown id in observation order is named, whether it lies
    # between survey ids, below or above all of them
    for query, missing in (([3, 5, -8], 5), ([3, -8, 5], -8), ([12, 13], 13),
                           ([2000, 3], 2000), ([-251, 40], -251)):
        with pytest.raises(UnknownLandmarkId) as err:
            lmap.index_of(np.array(query))
        assert str(err.value) == f"observation references unknown landmark id {missing}"


def test_landmark_map_validation():
    with pytest.raises(ValueError):
        LandmarkMap(ids=np.array([1, 1]), positions=np.zeros((2, 3)),
                    weights=np.ones(2))
    with pytest.raises(ValueError):
        LandmarkMap(ids=np.array([1, 2]), positions=np.zeros((2, 3)),
                    weights=np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        LandmarkMap(ids=np.array([1, 2]), positions=np.zeros((3, 3)),
                    weights=np.ones(2))


def test_check_configuration_reports():
    rng = np.random.default_rng(38)
    good = _random_map(rng, n=6)
    rep = check_configuration(good)
    assert rep.ok and rep.reason is None
    assert rep.count == 6
    lam = np.linalg.eigvalsh(_weighted_scatter(good))
    assert abs(rep.min_pair_sum - (lam[0] + lam[1])) < 1e-9
    assert abs(rep.max_pair_sum - (lam[1] + lam[2])) < 1e-9

    two = LandmarkMap(ids=np.array([1, 2]),
                      positions=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
                      weights=np.ones(2))
    rep = check_configuration(two)
    assert not rep.ok
    assert rep.reason == "only 2 landmark(s); at least 3 are required"

    line = LandmarkMap(ids=np.array([1, 2, 3, 4]),
                       positions=np.outer(np.array([0.0, 1.0, 2.0, 3.5]),
                                          np.array([1.0, 1.0, -0.5])),
                       weights=np.ones(4))
    rep = check_configuration(line)
    assert not rep.ok
    assert rep.reason == "landmarks are collinear within tolerance"

    # barely off the line passes with a generous tolerance argument of zero
    almost = LandmarkMap(ids=line.ids,
                         positions=line.positions + rng.normal(size=(4, 3)) * 1e-3,
                         weights=line.weights)
    assert check_configuration(almost).ok


def _survey(positions):
    n = len(positions)
    return LandmarkMap(ids=np.arange(1, n + 1), positions=np.asarray(positions, dtype=float),
                       weights=np.ones(n))


COLLINEAR = "landmarks are collinear within tolerance"


def test_check_configuration_on_degenerate_scatters():
    # a scatter that is a multiple of the identity: +-e_i give 2 I
    rep = check_configuration(_survey(np.vstack([np.eye(3), -np.eye(3)])))
    assert rep.ok
    assert_allclose(rep.eigenvalues, [2.0, 2.0, 2.0], atol=0)
    # coincident landmarks: a zero scatter
    rep = check_configuration(_survey(np.tile([1.0, -2.0, 0.5], (3, 1))))
    assert not rep.ok and rep.reason == COLLINEAR
    assert_allclose(rep.eigenvalues, np.zeros(3), atol=0)
    # -v, 0, v: the rank-one scatter 2 v v^T keeps two zero eigenvalues
    v = np.array([1.0, 2.0, -1.0])
    rep = check_configuration(_survey([-v, 0.0 * v, v]))
    assert not rep.ok and rep.reason == COLLINEAR
    lam = rep.eigenvalues
    assert abs(lam[0]) < 1e-12 and abs(lam[1]) < 1e-12
    assert abs(lam[2] - 2.0 * (v @ v)) < 1e-12


def test_check_configuration_keeps_a_double_zero_eigenvalue_of_a_line():
    s = np.array([0.0, 1.0, 2.5, 4.0])
    line = np.array([1.0, 2.0, 3.0]) + np.outer(s, [0.3, -0.7, 0.2])
    rep = check_configuration(_survey(line))
    assert not rep.ok and rep.reason == COLLINEAR
    lam = rep.eigenvalues
    assert abs(lam[0]) <= 1e-12 * lam[2] and abs(lam[1]) <= 1e-12 * lam[2]


# four low corners of the reference survey, far from collinear at unit scale
_CORNERS = np.array([[0.8, 1.2, 0.5], [9.2, 1.8, 1.1], [8.9, 9.1, 0.7], [1.1, 8.6, 1.4]])


@pytest.mark.parametrize("axis, scale", [(0, 1e150), (0, 1e200), (1, 1e200)])
def test_check_configuration_rejects_a_survey_stretched_along_an_axis(axis, scale):
    # stretched by 1e150 the scatter is finite (about 6.6e301) but its squares
    # are not; by 1e200 the scatter itself overflows, and along y LAPACK
    # would not converge on it
    lmap = _survey(_CORNERS * np.where(np.arange(3) == axis, scale, 1.0))
    with np.errstate(over="ignore"):
        scatter = lmap._observed(lmap.ids)[4]
        rep = check_configuration(lmap)
    assert np.isfinite(scatter).all() == (scale == 1e150)
    assert not rep.ok
    assert rep.reason == COLLINEAR


def _weighted_scatter(lmap):
    s, p = lmap.weights, lmap.positions
    c = (s[:, None] * p).sum(axis=0) / s.sum()
    d = p - c
    return (s[:, None] * d).T @ d
