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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import dataio
from .liegroup import NavState, NavTangent, rodrigues_exp, se23_exp
from .measurement import InsufficientLandmarks, UnknownLandmarkId
from .observer import (MATRIX, QUATERNION, ModeError, NonFiniteState,
                       ObserverState, inject_w_omega_sign_fault, predict)
from .quaternion import NonUnitQuaternion, quat_from_rotvec, quat_to_rot
from .simulator import (ATT_CONVERGED, _run_streams, build_streams,
                        default_landmark_map, default_scenario, hover_scenario,
                        run_scenario, summarize)

EXIT_OK = 0
EXIT_SELFTEST = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_IO = 4

_RUNTIME_ERRORS = (NonFiniteState, ModeError, InsufficientLandmarks,
                   UnknownLandmarkId, NonUnitQuaternion)


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
    print(f"mode {mode}: {info['samples']} metric rows")
    print(f"  attitude distance {info['initial_att']:.6g} -> {info['final_att']:.6g}")
    print(f"  position error    {info['initial_pos']:.6g} -> {info['final_pos']:.6g} m")
    print(f"  velocity error    {info['initial_vel']:.6g} -> {info['final_vel']:.6g} m/s")
    print(f"  gravity error     {info['final_grav']:.6g} m/s^2")
    t_conv = info["time_to_converge"]
    if t_conv is None:
        print("  attitude never dropped below the convergence threshold")
    else:
        print(f"  attitude converged (< {ATT_CONVERGED:g}) at t = {t_conv:.6g} s")


def _print_estimate_summary(mode: str, result) -> None:
    p, v = result.p_est[-1], result.v_est[-1]
    print(f"mode {mode}: no ground truth; {len(result)} estimate epochs")
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
    if not cfg.map_file:
        return default_landmark_map()
    base = Path(config_path).parent if config_path else Path.cwd()
    return dataio.load_map_csv(base / cfg.map_file)


# Exit code of each anticipated failure, per phase of a run; first match wins.
_CONFIG_FAILURES = (((dataio.ParseError, dataio.ValidationError), EXIT_CONFIG),
                    (OSError, EXIT_IO))
_INPUT_FAILURES = (((InsufficientLandmarks, UnknownLandmarkId), EXIT_RUNTIME),
                   ((dataio.ParseError, dataio.EmptyStream, OSError, ValueError),
                    EXIT_IO))
_RUN_FAILURES = ((_RUNTIME_ERRORS, EXIT_RUNTIME),
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


def _run_modes(cfg: dataio.RunConfig, scenarios, truth, imu, observations,
               out: Path, replayed: bool) -> int:
    """Run the engine once per scenario (one per configured gravity mode), then
    write each run's series into ``out`` and print its summary; returns the exit code.

    A run without truth writes estimates.  A replay writes the
    ``*_replay.csv`` series and compares each scored one byte for byte with
    the recorded series.  Nothing is written when a run fails.
    """
    runs = [(scn.gravity_mode, _run_streams(scn, truth, imu, observations))
            for scn in scenarios]
    out.mkdir(parents=True, exist_ok=True)
    status = EXIT_OK
    for mode, result in runs:
        if truth:
            name = _series_name(cfg, mode, replayed=replayed)
            dataio.write_metrics_csv(out / name, result)
            _print_mode_summary(mode, result)
        else:
            name = _series_name(cfg, mode, stem="estimates", replayed=replayed)
            dataio.write_estimates_csv(out / name, result)
            _print_estimate_summary(mode, result)
        print(f"  wrote {out / name}")
        if not (replayed and truth):
            continue
        recorded = out / _series_name(cfg, mode)
        if not recorded.exists():
            print(f"  {recorded.name}: not present, nothing to compare")
        elif recorded.read_bytes() == (out / name).read_bytes():
            print(f"  {recorded.name}: bit-exact match")
        else:
            print(f"error: {recorded.name} does not match the replay: "
                  f"{_first_difference(recorded, out / name)}", file=sys.stderr)
            status = EXIT_RUNTIME
    return status


def _first_difference(recorded: Path, replayed: Path) -> str:
    """The first row and column at which a recorded metrics file departs
    from its replay, with both values."""
    lines = (p.read_text(errors="replace").splitlines() for p in (recorded, replayed))
    for a, b in ((a, b) for a, b in zip(*lines) if a != b):
        a, b = a.split(",") + ["(none)"], b.split(",") + ["(none)"]
        j = next(j for j, (x, y) in enumerate(zip(a, b)) if x != y)
        name = (dataio.METRICS_HEADER.split(",") + ["(extra)"] * len(a))[j]
        return (f"first difference at t_ns={b[0]}, column {name}: "
                f"recorded {a[j]}, replayed {b[j]}")
    return "one file has more rows than the other"


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
        scenarios = dataio.config_scenarios(cfg, lmap)
        truth, imu, observations = build_streams(scenarios[0])
        out = Path(args.out_dir)
        status = _run_modes(cfg, scenarios, truth, imu, observations, out, replayed=False)
        dataio.write_truth_csv(out / "truth.csv", truth)
        dataio.write_imu_csv(out / "imu.csv", imu)
        dataio.write_obs_csv(out / "obs.csv", observations)
        dataio.write_map_csv(out / "map.csv", lmap)
        dataio.write_config(out / "config.txt", cfg)
        print(f"run recorded in {out}")
        return status
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
        truth = dataio.load_truth_csv(truth_path) if truth_path.exists() else None
    except Exception as e:
        return _fail(e, _INPUT_FAILURES)

    try:
        scenarios = dataio.config_scenarios(cfg, lmap)
        if truth is None:
            print("no ground truth recorded; producing estimate-only output")
        return _run_modes(cfg, scenarios, truth, imu, observations, out, replayed=True)
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
    lam = np.linalg.eigvalsh(scatter)
    valid = lam[:, 0] + lam[:, 1] > 1e-9 * lam[:, 2]

    q = rng.normal(size=(n, 4))
    r = quat_to_rot(q / np.linalg.norm(q, axis=1, keepdims=True))

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
    _, _, _, rq = run_scenario(replace(scn_eq, representation=QUATERNION))
    dev = max(float(np.max(np.abs(getattr(rm, name) - getattr(rq, name))))
              for name in ("att", "p_est", "v_est"))
    yield ("quaternion/matrix equivalence", dev < 1e-7,
           f"max series deviation {dev:.3e}")

    hover = hover_scenario(duration=1.0 if quick else 2.0)
    _, _, _, res = run_scenario(hover)
    drift = float(max(res.att.max(), res.pos.max()))
    yield ("stationary fixed point", drift < 1e-10, f"max drift {drift:.3e}")

    scn = default_scenario(duration=6.0 if quick else 10.0)
    if inject:
        with inject_w_omega_sign_fault():
            _, _, _, res = run_scenario(scn)
    else:
        _, _, _, res = run_scenario(scn)
    att, pos, vel = (float(c[-1]) for c in (res.att, res.pos, res.vel))
    converged = att < ATT_CONVERGED and pos < 0.05 and vel < 0.05
    yield ("closed-loop convergence", converged,
           f"final att {att:.3e}, pos {pos:.3e}, vel {vel:.3e}")

    r1 = run_scenario(scn)[3]
    r2 = run_scenario(scn)[3]
    same = all(np.array_equal(getattr(r1, name), getattr(r2, name))
               for name in ("t_ns", "att", "pos", "vel", "grav"))
    yield ("deterministic re-run", same,
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
    command = {"simulate": run_simulate, "replay": run_replay}.get(args.command, run_selftest)
    # a value that leaves the finite range is reported by the finiteness checks
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return command(args)


if __name__ == "__main__":
    sys.exit(main())
