"""Acceptance gate: one test per shipped guarantee, in order.

Each test states its tolerance inline and fails with the measured numbers,
so the ``pytest -v`` report reads as a per-guarantee pass/fail checklist.
The stochastic-boundedness test is currently expected to fail; its assertion
message carries the full measurement report and the analysis of why.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from conftest import random_rotation_batch

from se23nav import (ADAPTIVE_GRAVITY, InitError, LandmarkMap, NavState,
                     UnstableSetWarning, aggregate, default_scenario,
                     hover_scenario, quat_to_rot, rodrigues_exp, run_scenario,
                     so3_distance, synthesize_observation)
from se23nav.cli import main
from se23nav.liegroup import NavTangent, se23_exp, skew, vex, vex_antisym

TWO_LANDMARKS = "id,px,py,pz,s\n1,0.0,0.0,0.0,1.0\n2,1.0,0.0,0.0,1.0\n"
COLLINEAR = ("id,px,py,pz,s\n"
             "1,0.0,0.0,0.0,1.0\n"
             "2,1.0,1.0,-0.5,1.0\n"
             "3,2.0,2.0,-1.0,1.0\n"
             "4,3.5,3.5,-1.75,1.0\n")


def _expm_batch(mats: np.ndarray, terms: int = 30) -> np.ndarray:
    """Scaled-and-squared truncated exponential series, vectorized over a
    batch of square matrices.  Independent of the package implementation."""
    nrm = float(np.abs(mats).sum(axis=1).max())
    k = 0
    while nrm > 0.5:
        nrm /= 2.0
        k += 1
    scaled = mats / (2.0 ** k)
    eye = np.broadcast_to(np.eye(mats.shape[-1]), mats.shape)
    out = eye.copy()
    term = eye.copy()
    for i in range(1, terms):
        term = term @ scaled / i
        out += term
    for _ in range(k):
        out = out @ out
    return out


def test_acceptance_algebra_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    n = 10_000

    vecs = rng.normal(scale=2.0, size=(n, 3))
    for v in vecs[:2000]:
        s = skew(v)
        assert np.array_equal(vex(s), v)
        assert np.array_equal(skew(vex(s)), s)
        assert np.array_equal(s.T, -s)

    rots = random_rotation_batch(rng, n)
    frob = ((np.eye(3) - rots) ** 2).sum(axis=(1, 2)) / 8.0
    dists = np.array([so3_distance(r) for r in rots])
    assert np.all(dists >= 0.0) and np.all(dists <= 1.0)
    assert np.max(np.abs(dists - frob)) < 1e-12

    omegas = rng.uniform(-3.0, 3.0, size=(n, 3))
    tangents = [NavTangent(omega=omegas[i],
                           p_col=rng.normal(scale=2.0, size=3),
                           v_col=rng.normal(scale=2.0, size=3),
                           coupling=float(rng.uniform(-1.5, 1.5)))
                for i in range(n)]
    mats = np.stack([u.as_matrix() for u in tangents])
    oracle = _expm_batch(mats)
    exps = np.stack([se23_exp(u) for u in tangents])
    assert np.max(np.abs(exps - oracle)) < 1e-10

    rod = np.stack([rodrigues_exp(w) for w in omegas])
    assert np.max(np.abs(exps[:, :3, :3] - rod)) < 1e-12

    for i in rng.integers(0, n, size=100):
        dt = float(rng.uniform(0.01, 2.0))
        scaled = _expm_batch(mats[i][None] * dt)[0]
        assert np.max(np.abs(se23_exp(tangents[i], dt) - scaled)) < 1e-10

    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"algebra oracle suite took {elapsed:.1f} s"


def test_acceptance_projection_bound_sampling():
    # The squared norm of the rotation-error axis extracted from the weighted
    # landmark scatter is pinched between two eigenvalue multiples of the
    # scatter-weighted attitude distance.  Sample surveys and error rotations
    # at scale and demand zero violations beyond float slack.
    t0 = time.monotonic()
    rng = np.random.default_rng(7)
    n = 100_000
    pos = rng.normal(scale=1.5, size=(n, 4, 3))
    wts = rng.uniform(0.5, 2.0, size=(n, 4))
    centroid = (wts[..., None] * pos).sum(axis=1) / wts.sum(axis=1)[:, None]
    dev = pos - centroid[:, None, :]
    scatter = np.einsum("nk,nki,nkj->nij", wts, dev, dev)
    lam = np.linalg.eigvalsh(scatter)

    rot = random_rotation_batch(rng, n)
    mr = scatter @ rot
    axis = 0.5 * np.stack([mr[:, 2, 1] - mr[:, 1, 2],
                           mr[:, 0, 2] - mr[:, 2, 0],
                           mr[:, 1, 0] - mr[:, 0, 1]], axis=1)
    axis_sq = (axis ** 2).sum(axis=1)
    dist = 0.25 * (np.trace(scatter, axis1=1, axis2=2)
                   - np.trace(mr, axis1=1, axis2=2))
    tr_rot = np.trace(rot, axis1=1, axis2=2)
    lower = 0.5 * (lam[:, 0] + lam[:, 1]) * (1.0 + tr_rot) * dist
    upper = 2.0 * (lam[:, 1] + lam[:, 2]) * dist

    # Surveys whose scatter is numerically rank-one carry no usable bound.
    valid = lam[:, 0] + lam[:, 1] > 1e-9 * lam[:, 2]
    assert valid.mean() > 0.99
    slack = 1e-12
    low_viol = int(np.count_nonzero(valid & (axis_sq < lower - slack)))
    high_viol = int(np.count_nonzero(valid & (axis_sq > upper + slack)))
    assert low_viol == 0, f"{low_viol} lower-bound violations"
    assert high_viol == 0, f"{high_viol} upper-bound violations"

    # Cross-check the vectorized quantities against the package pipeline on a
    # subsample: same axis and distance must come out of the epoch aggregate.
    for i in rng.integers(0, n, size=100):
        lmap = LandmarkMap(ids=np.arange(1, 5), positions=pos[i],
                           weights=wts[i])
        truth = NavState(rot[i], np.zeros(3), np.zeros(3))
        obs = synthesize_observation(truth, lmap)
        out = aggregate(lmap, obs, np.eye(3), np.zeros(3))
        assert np.max(np.abs(vex_antisym(out.scatter_err) - axis[i])) < 1e-12
        assert abs(out.att_dist - dist[i]) < 1e-12

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0, f"bound sampling took {elapsed:.1f} s"


def test_acceptance_stationary_fixed_point():
    # Exact initialization, no noise, known gravity: the estimate must sit on
    # the truth to rounding for the whole 40 s / 200 Hz run.
    *_, res = run_scenario(hover_scenario())
    assert len(res.rows) == 8001
    worst = np.array([[row.att, row.pos, row.vel, row.grav]
                      for row in res.rows]).max(axis=0)
    assert np.all(worst < 1e-9), f"worst metrics {worst}"


def test_acceptance_noise_free_convergence():
    *_, res = run_scenario(default_scenario())
    assert res.initial.att > 0.9
    assert abs(res.initial.pos - math.sqrt(14.0)) < 1e-9
    final = res.final
    assert final.att < 0.01, f"final attitude distance {final.att}"
    assert final.pos < 0.05, f"final position error {final.pos}"
    assert final.vel < 0.05, f"final velocity error {final.vel}"
    # Regression locks at ~3x the reference-run values.
    assert final.att < 2e-8
    assert final.pos < 3.5e-3
    assert final.vel < 4.5e-3


@pytest.mark.slow
def test_acceptance_stochastic_boundedness():
    # Mean squared terminal error over 50 noisy seeds must stay below 4x the
    # noise-free terminal value, and must not increase when the horizon
    # doubles from 40 s to 80 s.  Runtime budget: 5 minutes.
    t0 = time.monotonic()

    def final_sq(res):
        row = res.rows[-1]
        return row.att ** 2 + row.pos ** 2 + row.vel ** 2

    def windowed_sq(res):
        tail = res.rows[-max(1, len(res.rows) // 5):]
        return float(np.mean([r.att ** 2 + r.pos ** 2 + r.vel ** 2
                              for r in tail]))

    *_, nf40 = run_scenario(default_scenario(duration=40.0))
    *_, nf80 = run_scenario(default_scenario(duration=80.0))
    nf40_final, nf80_final = final_sq(nf40), final_sq(nf80)
    nf40_win, nf80_win = windowed_sq(nf40), windowed_sq(nf80)

    fin40, fin80, win40, win80 = [], [], [], []
    for seed in range(50):
        *_, r40 = run_scenario(default_scenario(noisy=True, seed=seed,
                                                duration=40.0))
        *_, r80 = run_scenario(default_scenario(noisy=True, seed=seed,
                                                duration=80.0))
        fin40.append(final_sq(r40))
        fin80.append(final_sq(r80))
        win40.append(windowed_sq(r40))
        win80.append(windowed_sq(r80))

    elapsed = time.monotonic() - t0
    mean40, mean80 = float(np.mean(fin40)), float(np.mean(fin80))
    wmean40, wmean80 = float(np.mean(win40)), float(np.mean(win80))
    bound_ok = mean40 < 4.0 * nf40_final
    horizon_ok = mean80 <= mean40
    report = (
        "stochastic boundedness at the terminal instant does not hold as "
        "stated:\n"
        f"  mean squared terminal error, 50 seeds, 40 s: {mean40:.6e}\n"
        f"  noise-free squared terminal value,   40 s: {nf40_final:.6e} "
        f"(4x = {4.0 * nf40_final:.6e}, ratio {mean40 / nf40_final:.1f})\n"
        f"  mean squared terminal error, 50 seeds, 80 s: {mean80:.6e} "
        f"(80s/40s ratio {mean80 / mean40:.3f})\n"
        "the noisy error is bounded but does not shrink toward the "
        "noise-free floor: the squared floor at 40 s is ~3.3e-06 while the "
        "noise-driven mean square is ~2.7e-03 (about 0.05 RMS), so any small "
        "fixed multiple of the noise-free terminal value sits far below the "
        "driven steady state.\n"
        "the 40 s -> 80 s increase is terminal-phase sampling, not growth:\n"
        f"  windowed (last 20%) means: 40 s {wmean40:.6e}, 80 s {wmean80:.6e} "
        f"(ratio {wmean80 / wmean40:.3f})\n"
        f"  noise-free windowed floor: 40 s {nf40_win:.6e}, 80 s "
        f"{nf80_win:.6e} (ratio {nf80_win / nf40_win:.3f}, flat)\n"
        "the attitude sweep period 4*pi s shares no common period with the "
        "40 s horizon, so the terminal instant lands at different sweep "
        "phases at 40 s and 80 s; window-averaged errors are level while "
        "single-instant ones wobble with that phase."
    )
    assert bound_ok and horizon_ok and elapsed < 300.0, (
        report + f"\nruntime: {elapsed:.1f} s against the 300 s budget")


@pytest.mark.slow
def test_acceptance_adaptive_gravity():
    # Gravity estimate starts at zero in adaptive mode.
    *_, res = run_scenario(default_scenario(gravity_mode=ADAPTIVE_GRAVITY))
    assert res.final.grav < 0.2, f"noise-free gravity error {res.final.grav}"

    finals = []
    for seed in range(50):
        *_, r = run_scenario(default_scenario(gravity_mode=ADAPTIVE_GRAVITY,
                                              noisy=True, seed=seed))
        finals.append(r.final.grav)
    mean = float(np.mean(finals))
    assert mean < 0.5, f"mean noisy gravity error {mean} (max {max(finals)})"


def test_acceptance_representation_equivalence():
    scn = default_scenario(noisy=True, seed=0)
    *_, rm = run_scenario(scn, representation="matrix")
    *_, rq = run_scenario(scn, representation="quaternion")
    assert len(rm.rows) == len(rq.rows) == 8001
    att = pos = vel = 0.0
    for a, b in zip(rm.rows, rq.rows):
        assert a.t_ns == b.t_ns
        att = max(att, so3_distance(quat_to_rot(a.quat)
                                    @ quat_to_rot(b.quat).T))
        pos = max(pos, float(np.max(np.abs(a.p_est - b.p_est))))
        vel = max(vel, float(np.max(np.abs(a.v_est - b.v_est))))
    assert att < 1e-8, f"attitude divergence {att}"
    assert pos < 1e-7, f"position divergence {pos}"
    assert vel < 1e-7, f"velocity divergence {vel}"


def test_acceptance_discretization_consistency():
    # Halving the sample interval from 5 ms to 2.5 ms must shrink every
    # noise-free terminal error metric by at least 1.8x.
    *_, coarse = run_scenario(default_scenario())
    *_, fine = run_scenario(dataclasses.replace(default_scenario(),
                                                imu_rate=400.0))
    ratios = {}
    for name in ("att", "pos", "vel"):
        c = getattr(coarse.final, name)
        f = getattr(fine.final, name)
        assert f > 0.0
        ratios[name] = c / f
        assert ratios[name] >= 1.8, f"{name} ratio {ratios[name]:.2f}: {ratios}"
    c_norm = math.hypot(coarse.final.att, coarse.final.pos, coarse.final.vel)
    f_norm = math.hypot(fine.final.att, fine.final.pos, fine.final.vel)
    assert c_norm / f_norm >= 1.8


def test_acceptance_replay_closure(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("duration=2.0\nimu_rate=100.0\nobs_rate=20.0\n"
                    "noise_std_omega=0.12\nnoise_std_accel=0.11\nseed=11\n")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 0
    assert "bit-exact match" in capsys.readouterr().out
    assert (out / "metrics_replay.csv").read_bytes() == \
        (out / "metrics.csv").read_bytes()


def test_acceptance_degenerate_guards(tmp_path, capsys):
    scn = dataclasses.replace(
        hover_scenario(duration=0.5),
        init_error=InitError(angle=math.pi, axis=(0.0, 0.0, 1.0)))
    with pytest.warns(UnstableSetWarning):
        run_scenario(scn)

    (tmp_path / "map2.csv").write_text(TWO_LANDMARKS)
    conf = tmp_path / "two.conf"
    conf.write_text("duration=1.0\nimu_rate=50.0\nobs_rate=10.0\n"
                    "map_file=map2.csv\n")
    assert main(["simulate", "--config", str(conf),
                 "--out-dir", str(tmp_path / "r2")]) == 3
    err = capsys.readouterr().err
    assert "unusable" in err and "at least 3 are required" in err

    (tmp_path / "map3.csv").write_text(COLLINEAR)
    conf = tmp_path / "line.conf"
    conf.write_text("duration=1.0\nimu_rate=50.0\nobs_rate=10.0\n"
                    "map_file=map3.csv\n")
    assert main(["simulate", "--config", str(conf),
                 "--out-dir", str(tmp_path / "r3")]) == 3
    assert "collinear" in capsys.readouterr().err
