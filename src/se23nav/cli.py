"""Command-line front end.

Three subcommands:

- ``simulate`` synthesizes a scenario, runs the estimator closed loop and
  writes the full run (inputs, truth, configuration, metrics) to a
  directory.
- ``replay`` re-runs the estimator from a recorded directory and verifies
  that the recomputed metrics match the recorded ones byte for byte.
- ``selftest`` runs a fast built-in check battery.

Exit codes: 0 success, 1 self-test failure, 2 configuration problem,
3 runtime or modelling-assumption violation, 4 unreadable or malformed
data files.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .liegroup import (NavState, NavTangent, NotSkewSymmetric, rodrigues_exp,
                       se23_exp)
from .measurement import (InsufficientLandmarks, UnknownLandmarkId,
                          check_configuration, sym3_eigvals)
from .observer import (MATRIX, QUATERNION, ModeError, NonFiniteState,
                       ObserverState, inject_w_omega_sign_fault, predict)
from .quaternion import NonUnitQuaternion, quat_from_rotvec, quat_to_rot
from .simulator import (ATT_CONVERGED, _engine_kwargs, apply_init_error,
                        build_streams, default_scenario, generate_truth,
                        hover_scenario, run_closed_loop, run_scenario,
                        summarize)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

_RUNTIME_ERRORS = (NonFiniteState, ModeError, InsufficientLandmarks,
                   UnknownLandmarkId, NotSkewSymmetric, NonUnitQuaternion)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se23nav",
        description="landmark-aided inertial navigation observer")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize and run a scenario")
    sim.add_argument("--config", help="key=value run configuration "
                     "(defaults to the reference experiment)")
    sim.add_argument("--out-dir", required=True,
                     help="directory to write the run into")
    sim.add_argument("--seed", type=int, help="override the noise seed")
    sim.add_argument("--mode", choices=dataio.GRAVITY_MODES,
                     help="override the gravity handling mode")
    sim.add_argument("--quick", action="store_true",
                     help="cap the duration at 10 seconds")

    rep = sub.add_parser("replay", help="re-run a recorded directory")
    rep.add_argument("--out-dir", required=True,
                     help="directory holding a recorded run")

    st = sub.add_parser("selftest", help="run the built-in check battery")
    st.add_argument("--quick", action="store_true",
                    help="shorten the closed-loop checks")
    st.add_argument("--inject-fault", action="store_true",
                    help="flip the attitude correction sign to demonstrate "
                         "the convergence check catches a broken update")
    return parser


def _series_name(cfg: dataio.RunConfig, mode: str, stem: str = "metrics",
                 replayed: bool = False) -> str:
    if cfg.gravity_mode == dataio.BOTH_GRAVITY:
        stem = f"{stem}_{mode}"
    return f"{stem}_replay.csv" if replayed else f"{stem}.csv"


def _print_mode_summary(mode: str, result) -> None:
    info = summarize(result)
    last = result.final
    print(f"mode {mode}: {len(result.rows)} metric rows")
    print(f"  attitude distance {result.initial.att:.6g} -> {last.att:.6g}")
    print(f"  position error    {result.initial.pos:.6g} -> {last.pos:.6g} m")
    print(f"  velocity error    {result.initial.vel:.6g} -> {last.vel:.6g} m/s")
    print(f"  gravity error     {last.grav:.6g} m/s^2")
    t_conv = info["time_to_converge"]
    if t_conv is None:
        print("  attitude never dropped below the convergence threshold")
    else:
        print(f"  attitude converged (< {ATT_CONVERGED:g}) at t = {t_conv:.6g} s")


def _print_estimate_summary(mode: str, result) -> None:
    p, v = result.final.p_est, result.final.v_est
    print(f"mode {mode}: no ground truth; {len(result.rows)} estimate epochs")
    print(f"  final position  ({p[0]:.6g}, {p[1]:.6g}, {p[2]:.6g}) m")
    print(f"  final velocity  ({v[0]:.6g}, {v[1]:.6g}, {v[2]:.6g}) m/s")


def _load_config_for(args) -> dataio.RunConfig:
    cfg = dataio.parse_config(args.config) if args.config else dataio.RunConfig()
    overrides = {}
    if getattr(args, "seed", None) is not None:
        overrides["seed"] = args.seed
    if getattr(args, "mode", None):
        overrides["gravity_mode"] = args.mode
    if getattr(args, "quick", False):
        overrides["duration"] = min(cfg.duration, 10.0)
    if overrides:
        cfg = dataio.config_override(cfg, **overrides)
    return cfg


def _load_map(cfg: dataio.RunConfig, config_path: str | None):
    from .simulator import default_landmark_map
    if not cfg.map_file:
        return default_landmark_map()
    base = Path(config_path).parent if config_path else Path.cwd()
    return dataio.load_map_csv(base / cfg.map_file)


def _require_usable_map(lmap) -> None:
    report = check_configuration(lmap)
    if not report.ok:
        raise _AssumptionViolation(
            f"landmark configuration is unusable: {report.reason}")


class _AssumptionViolation(RuntimeError):
    pass


# Exit code of each anticipated failure, per phase of a run; first match wins.
_CONFIG_FAILURES = (((dataio.ParseError, dataio.ValidationError), EXIT_CONFIG),
                    (OSError, EXIT_IO))
_INPUT_FAILURES = (((InsufficientLandmarks, UnknownLandmarkId), EXIT_RUNTIME),
                   ((dataio.ParseError, dataio.EmptyStream, OSError, ValueError),
                    EXIT_IO))
_RUN_FAILURES = (((_AssumptionViolation,) + _RUNTIME_ERRORS, EXIT_RUNTIME),
                 (OSError, EXIT_IO),
                 (ValueError, EXIT_RUNTIME))


def _fail(error: Exception, table) -> int:
    """Report ``error`` and return the exit code ``table`` gives it; an error
    the table does not name propagates."""
    for types, code in table:
        if isinstance(error, types):
            print(f"error: {error}", file=sys.stderr)
            return code
    raise error


def run_simulate(args) -> int:
    try:
        cfg = _load_config_for(args)
    except Exception as e:
        return _fail(e, _CONFIG_FAILURES)

    try:
        lmap = _load_map(cfg, args.config)
    except Exception as e:
        return _fail(e, _INPUT_FAILURES)

    try:
        _require_usable_map(lmap)
        scenario = dataio.config_to_scenario(cfg, lmap, gravity_mode=cfg.modes()[0])
        truth, imu, observations = build_streams(scenario)
        init_nav = apply_init_error(truth[0].nav(), scenario.init_error)

        out = Path(args.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        dataio.write_truth_csv(out / "truth.csv", truth)
        dataio.write_imu_csv(out / "imu.csv", imu)
        dataio.write_obs_csv(out / "obs.csv", observations)
        dataio.write_map_csv(out / "map.csv", lmap)
        dataio.write_config(out / "config.txt", cfg)

        for mode in cfg.modes():
            result = run_closed_loop(
                truth, imu, observations, lmap, scenario.gains, init_nav,
                **_engine_kwargs(scenario, mode, cfg.representation))
            name = _series_name(cfg, mode)
            dataio.write_metrics_csv(out / name, result.rows)
            _print_mode_summary(mode, result)
            print(f"  wrote {out / name}")
        print(f"run recorded in {out}")
        return EXIT_OK
    except Exception as e:
        return _fail(e, _RUN_FAILURES)


def run_replay(args) -> int:
    out = Path(args.out_dir)
    try:
        cfg = dataio.parse_config(out / "config.txt")
    except Exception as e:
        return _fail(e, _CONFIG_FAILURES)

    try:
        lmap, observations = dataio.load_landmarks(out / "map.csv", out / "obs.csv")
        imu = dataio.load_imu_csv(out / "imu.csv")
        truth_path = out / "truth.csv"
        truth = dataio.load_truth_csv(truth_path) if truth_path.exists() else []
    except Exception as e:
        return _fail(e, _INPUT_FAILURES)

    try:
        _require_usable_map(lmap)
        scenario = dataio.config_to_scenario(cfg, lmap, gravity_mode=cfg.modes()[0])
        if truth:
            start = truth[0]
        else:
            # Without recorded truth the initial estimate is rebuilt from the
            # configuration: the configured trajectory pose at time zero,
            # perturbed by the configured offset, exactly as the original run
            # started.
            start = generate_truth(scenario.trajectory,
                                   np.array([0], dtype=np.int64))[0]
            print("no ground truth recorded; producing estimate-only output")
        init_nav = apply_init_error(start.nav(), scenario.init_error)
        status = EXIT_OK
        for mode in cfg.modes():
            result = run_closed_loop(
                truth, imu, observations, lmap, scenario.gains, init_nav,
                **_engine_kwargs(scenario, mode, cfg.representation))
            if not truth:
                name = _series_name(cfg, mode, stem="estimates", replayed=True)
                dataio.write_estimates_csv(out / name, result.rows)
                _print_estimate_summary(mode, result)
                print(f"  wrote {out / name}")
                continue
            replay_name = _series_name(cfg, mode, replayed=True)
            dataio.write_metrics_csv(out / replay_name, result.rows)
            _print_mode_summary(mode, result)
            print(f"  wrote {out / replay_name}")
            recorded = out / _series_name(cfg, mode)
            if recorded.exists():
                if recorded.read_bytes() == (out / replay_name).read_bytes():
                    print(f"  {recorded.name}: bit-exact match")
                else:
                    print(f"error: {recorded.name} does not match the replay",
                          file=sys.stderr)
                    status = EXIT_RUNTIME
            else:
                print(f"  {recorded.name}: not present, nothing to compare")
        return status
    except Exception as e:
        return _fail(e, _RUN_FAILURES)


def _sample_projection_bounds(n: int, rng) -> tuple[int, int]:
    """Count violations of the attitude-projection norm bounds on ``n`` samples.

    Each sample is a random four-landmark survey (standard-normal positions,
    positive weights) and a uniformly random rotation.  With scatter matrix
    ``m``, rotation ``r`` and trace-complement eigenvalue extremes ``lo``/``hi``
    the squared norm of the anti-symmetric projection axis of ``m @ r`` must
    lie between ``(lo / 2) * (1 + tr(r)) * d`` and ``2 * hi * d``, where ``d``
    is the weighted attitude distance ``0.25 * tr(m - m @ r)``.  Both bounds
    are attained at extremal geometries, so the check allows 1e-12 slack.
    Returns (violations, samples_checked); degenerate surveys are skipped.
    """
    pos = rng.normal(size=(n, 4, 3))
    w = rng.uniform(0.5, 2.0, size=(n, 4))
    cen = np.einsum("nk,nkj->nj", w, pos) / w.sum(axis=1)[:, None]
    d = pos - cen[:, None, :]
    scatter = np.einsum("nk,nki,nkj->nij", w, d, d)
    lam = sym3_eigvals(scatter)
    valid = lam[:, 0] + lam[:, 1] > 1e-9 * lam[:, 2]

    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    qw, qx, qy, qz = q[:, 0], q[:, 1], q[:, 2], q[:, 3]
    r = np.empty((n, 3, 3))
    r[:, 0, 0] = 1.0 - 2.0 * (qy * qy + qz * qz)
    r[:, 0, 1] = 2.0 * (qx * qy - qw * qz)
    r[:, 0, 2] = 2.0 * (qx * qz + qw * qy)
    r[:, 1, 0] = 2.0 * (qx * qy + qw * qz)
    r[:, 1, 1] = 1.0 - 2.0 * (qx * qx + qz * qz)
    r[:, 1, 2] = 2.0 * (qy * qz - qw * qx)
    r[:, 2, 0] = 2.0 * (qx * qz - qw * qy)
    r[:, 2, 1] = 2.0 * (qy * qz + qw * qx)
    r[:, 2, 2] = 1.0 - 2.0 * (qx * qx + qy * qy)

    mr = scatter @ r
    axis = 0.5 * np.stack([mr[:, 2, 1] - mr[:, 1, 2],
                           mr[:, 0, 2] - mr[:, 2, 0],
                           mr[:, 1, 0] - mr[:, 0, 1]], axis=1)
    axis_sq = np.einsum("ni,ni->n", axis, axis)
    dist = 0.25 * (np.trace(scatter, axis1=1, axis2=2)
                   - np.trace(mr, axis1=1, axis2=2))
    tr_r = np.trace(r, axis1=1, axis2=2)
    lower = 0.5 * (lam[:, 0] + lam[:, 1]) * (1.0 + tr_r) * dist
    upper = 2.0 * (lam[:, 1] + lam[:, 2]) * dist
    bad = valid & ((lower > axis_sq + 1e-12) | (axis_sq > upper + 1e-12))
    return int(np.count_nonzero(bad)), int(np.count_nonzero(valid))


def _selftest_checks(quick: bool, inject: bool):
    """Yield (name, passed, detail) tuples for the built-in battery."""
    rng = np.random.default_rng(20240817)

    worst = 0.0
    for _ in range(50):
        x = NavState(rodrigues_exp(rng.normal(size=3)), rng.normal(size=3),
                     rng.normal(size=3))
        w, a = rng.normal(size=3), rng.normal(size=3)
        dt = float(rng.uniform(0.001, 0.5))
        flow = se23_exp(NavTangent(omega=w, v_col=a), dt)
        for rep in (MATRIX, QUATERNION):
            s = ObserverState.create(x, g_ref=np.zeros(3), representation=rep)
            d = np.abs(predict(s, w, a, dt).nav.as_matrix()[:3]
                       - (s.nav.as_matrix() @ flow)[:3])
            worst = max(worst, float(np.max(d)))
    yield ("prediction step is the group exponential", worst < 1e-10,
           f"max deviation {worst:.3e}")

    worst = 0.0
    for _ in range(50):
        v = rng.normal(size=3) * rng.uniform(0.0, 3.0)
        d = np.max(np.abs(quat_to_rot(quat_from_rotvec(v)) - rodrigues_exp(v)))
        worst = max(worst, float(d))
    yield ("quaternion rotation agreement", worst < 1e-12,
           f"max deviation {worst:.3e}")

    n = 1_000 if quick else 100_000
    nvio, checked = _sample_projection_bounds(n, rng)
    yield ("attitude-projection norm bounds", nvio == 0,
           f"{nvio} violations in {checked} samples")

    scn_eq = default_scenario(duration=4.0 if quick else 8.0)
    _, _, _, rm = run_scenario(scn_eq)
    _, _, _, rq = run_scenario(scn_eq, representation=QUATERNION)
    dev = 0.0
    for a, b in zip(rm.rows, rq.rows):
        dev = max(dev, abs(a.att - b.att),
                  float(np.max(np.abs(a.p_est - b.p_est))),
                  float(np.max(np.abs(a.v_est - b.v_est))))
    yield ("quaternion/matrix equivalence", dev < 1e-7,
           f"max series deviation {dev:.3e}")

    hover = hover_scenario(duration=1.0 if quick else 2.0)
    _, _, _, res = run_scenario(hover)
    drift = max(max(r.att for r in res.rows), max(r.pos for r in res.rows))
    yield ("stationary fixed point", drift < 1e-10, f"max drift {drift:.3e}")

    scn = default_scenario(duration=6.0 if quick else 10.0)
    if inject:
        with inject_w_omega_sign_fault():
            _, _, _, res = run_scenario(scn)
    else:
        _, _, _, res = run_scenario(scn)
    last = res.final
    converged = last.att < ATT_CONVERGED and last.pos < 0.05 and last.vel < 0.05
    yield ("closed-loop convergence", converged,
           f"final att {last.att:.3e}, pos {last.pos:.3e}, vel {last.vel:.3e}")

    truth, imu, observations = build_streams(scn)
    init_nav = apply_init_error(truth[0].nav(), scn.init_error)
    kw = _engine_kwargs(scn, scn.gravity_mode)
    r1 = run_closed_loop(truth, imu, observations, scn.lmap, scn.gains,
                         init_nav, **kw)
    r2 = run_closed_loop(truth, imu, observations, scn.lmap, scn.gains,
                         init_nav, **kw)
    same = all(a.att == b.att and a.pos == b.pos and a.vel == b.vel
               and a.grav == b.grav for a, b in zip(r1.rows, r2.rows))
    yield ("deterministic re-run", same and len(r1.rows) == len(r2.rows),
           "identical metric rows" if same else "rows differ")


def run_selftest(args) -> int:
    ok = True
    for name, passed, detail in _selftest_checks(args.quick, args.inject_fault):
        tag = "  ok  " if passed else " FAIL "
        print(f"[{tag}] {name}: {detail}")
        ok = ok and passed
    if args.inject_fault:
        print("fault injection active: a failure above is the expected outcome")
    print("selftest " + ("passed" if ok else "failed"))
    return EXIT_OK if ok else EXIT_SELFTEST


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return run_simulate(args)
    if args.command == "replay":
        return run_replay(args)
    return run_selftest(args)


if __name__ == "__main__":
    sys.exit(main())
