"""The three benchmark workloads: ``battery``, ``streaming``, ``record-replay``.

Each workload is built from the workload seed alone and exposes:

- ``setup(rep)``: build the inputs and run one untimed warm-up op.  The
  warm-up op runs the workload's own path on a fixed reference input that
  does not depend on the seed; its terminal error is the deterministic
  ``terminal_ms`` accuracy figure, so accuracy lost for speed shows as a
  changed number on every seed.
- ``op(i)``: run operation ``i`` and time it.  Correctness is checked
  outside the timed region; a failed check marks the op, never aborts.
- ``trace_ops``: the fixed op indices a traced run repeats, so call and
  byte counts are the same on every run with the same seed.
- ``trace_op(i)``: what a traced run times for op ``i``; ``op(i)`` unless
  the workload also traces the input construction of its set-up.

All calls into ``se23nav`` go through module attributes looked up at call
time (``nav.predict``, ``cli.main``), so the outside-in tracer sees them.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean

import numpy as np

import se23nav as nav
from se23nav import cli
from se23nav.simulator import ATT_CONVERGED, NS_PER_S

KNOWN, ADAPTIVE = nav.KNOWN_GRAVITY, nav.ADAPTIVE_GRAVITY

# Noise seed of the fixed reference input behind ``terminal_ms``.
REFERENCE_SEED = 0

# Reference noise levels of the recorded experiment (rate, specific force,
# landmark reading), the battery's levels plus landmark-reading noise.
NOISE_OMEGA, NOISE_ACCEL, NOISE_OBS = 0.12, 0.11, 0.02

# The record-replay warm-up pair is the CLI's --quick length: a full 40 s
# pair would make each of the three set-ups cost five seconds.
REFERENCE_PAIR_DURATION = 10.0

STREAM_LANDMARKS = 32
STREAM_IMU_RATE, STREAM_OBS_RATE = 200.0, 50.0


def derived_seed(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for stream ``tags`` of workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def terminal_sq(att: float, pos: float, vel: float) -> float:
    return att * att + pos * pos + vel * vel


def same_bits(a: nav.ObserverState, b: nav.ObserverState) -> bool:
    """Bit-for-bit equality of two observer states."""
    pairs = ((a.nav.r, b.nav.r), (a.nav.p, b.nav.p), (a.nav.v, b.nav.v),
             (a.sigma_hat, b.sigma_hat), (a.g_hat, b.g_hat))
    return (a.gravity_mode == b.gravity_mode and a.steps == b.steps
            and all(x.dtype == y.dtype and x.shape == y.shape
                    and x.tobytes() == y.tobytes() for x, y in pairs))


@dataclass
class Op:
    """One timed operation: wall time, its named parts, per-cycle latencies
    (nanoseconds) when the benchmark drives the cycles itself, the check
    outcome and the output the check looked at."""

    wall: float
    ok: bool
    parts: dict = field(default_factory=dict)
    cycles_ns: np.ndarray | None = None
    output: object = None


class Workload:
    samples_per_op = 0
    trace_ops: tuple = (0,)

    def __init__(self):
        self.problems: list[str] = []
        self._terminal: dict = {}

    def record_terminal(self, key, value: float) -> None:
        """Keep the reference terminal error; a warm-up that disagrees with
        an earlier one is a determinism failure."""
        if key in self._terminal and self._terminal[key] != value:
            self.problems.append(f"reference run {key!r} is not deterministic")
        self._terminal.setdefault(key, value)

    def terminal_ms(self) -> float:
        return mean(self._terminal.values())

    def trace_op(self, i: int) -> Op:
        return self.op(i)

    def expected_calls(self) -> dict:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------

class Battery(Workload):
    """Monte-Carlo battery in small: ``run_scenario`` on the reference noisy
    scenario, one seed per op (derived from the workload seed), gravity mode
    alternating known / adaptive."""

    trace_ops = (0, 1)

    def __init__(self, seed: int, duration: float = 40.0):
        super().__init__()
        self.seed = seed
        self.duration = duration
        probe = nav.default_scenario(duration=duration)
        self.samples_per_op = round(duration * probe.imu_rate) + 1
        self.epochs_per_op = round(duration * probe.obs_rate) + 1

    def scenario(self, i: int) -> nav.Scenario:
        return nav.default_scenario(gravity_mode=(KNOWN, ADAPTIVE)[i % 2],
                                    noisy=True, seed=derived_seed(self.seed, 0, i),
                                    duration=self.duration)

    def setup(self, rep: int) -> None:
        mode = (KNOWN, ADAPTIVE)[rep % 2]
        scn = nav.default_scenario(gravity_mode=mode, noisy=True,
                                   seed=REFERENCE_SEED, duration=self.duration)
        last = nav.run_scenario(scn)[3].final
        self.record_terminal(mode, terminal_sq(last.att, last.pos, last.vel))

    def op(self, i: int) -> Op:
        scn = self.scenario(i)
        t0 = time.perf_counter()
        result = nav.run_scenario(scn)[3]
        wall = time.perf_counter() - t0
        fs, last = result.final_state, result.final
        finite = all(np.all(np.isfinite(a)) for a in
                     (fs.nav.r, fs.nav.p, fs.nav.v, fs.sigma_hat, fs.g_hat))
        ok = finite and last.att < ATT_CONVERGED
        return Op(wall=wall, ok=ok, output=result)

    def expected_calls(self) -> dict:
        n = len(self.trace_ops)
        return {"observer.predict": n * (self.samples_per_op - 1),
                "measurement.aggregate": n * self.epochs_per_op}


# ---------------------------------------------------------------------------

def streaming_scenario(seed: int, duration: float) -> nav.Scenario:
    """Adaptive-gravity run over a 32-landmark survey drawn from ``seed``,
    200 Hz inertial samples, 50 Hz epochs with reading noise, and the
    reference 170-degree initial error."""
    ref = nav.default_scenario()
    rng = np.random.default_rng([seed, 1])
    while True:
        pts = rng.uniform(0.0, 10.0, size=(STREAM_LANDMARKS, 3))
        d = pts - pts.mean(axis=0)
        # unit mean scatter eigenvalue, as in the reference survey
        w = np.full(STREAM_LANDMARKS, 3.0 / float(np.sum(d * d)))
        lmap = nav.LandmarkMap(ids=np.arange(STREAM_LANDMARKS), positions=pts,
                               weights=w)
        if nav.check_configuration(lmap).ok:
            break
    return nav.Scenario(trajectory=ref.trajectory, lmap=lmap, gains=ref.gains,
                        init_error=ref.init_error, duration=duration,
                        imu_rate=STREAM_IMU_RATE, obs_rate=STREAM_OBS_RATE,
                        gravity_mode=ADAPTIVE,
                        noise=nav.NoiseSpec(std_obs=NOISE_OBS,
                                            seed=derived_seed(seed, 2)))


@dataclass
class Streams:
    scenario: nav.Scenario
    truth: list
    imu: list
    observations: list
    init: nav.NavState
    cycles: list  # (t_ns, omega, accel, observation or None) per inertial instant


def build_streams(scn: nav.Scenario) -> Streams:
    truth, imu, observations = nav.build_streams(scn)
    epochs = {int(t): o for t, o in observations}
    cycles = [(s.t_ns, s.omega, s.accel, epochs.pop(s.t_ns, None)) for s in imu]
    if epochs:
        raise ValueError("every landmark epoch must fall on an inertial instant")
    init = nav.apply_init_error(truth[0].nav(), scn.init_error)
    return Streams(scn, truth, imu, observations, init, cycles)


class Streaming(Workload):
    """External-stream use: the benchmark itself calls
    ``ObserverState.create``, ``predict`` on every inertial sample and
    ``correct`` on every epoch, with ``run_closed_loop``'s epoch semantics.
    One op is one pass over the streams; one cycle is one inertial instant
    (the predict from the previous sample plus the correct when an epoch is
    due)."""

    def __init__(self, seed: int, duration: float = 40.0):
        super().__init__()
        self.seed = seed
        self.duration = duration
        self.samples_per_op = round(duration * STREAM_IMU_RATE) + 1
        self.streams: Streams | None = None
        self.reference_final: nav.ObserverState | None = None

    def setup(self, rep: int) -> None:
        self.streams = build_streams(streaming_scenario(self.seed, self.duration))
        self.reference_final = None
        probe = build_streams(streaming_scenario(REFERENCE_SEED, self.duration))
        final, _ = self.run_pass(probe)
        met = nav.error_metrics(probe.truth[-1].nav(), final,
                                np.asarray(probe.scenario.g_ref, dtype=float))
        self.record_terminal("adaptive", terminal_sq(met.att, met.pos, met.vel))

    @staticmethod
    def run_pass(st: Streams):
        predict, correct = nav.predict, nav.correct
        scn = st.scenario
        lmap, gains = scn.lmap, scn.gains
        nominal_dt, cap = 1.0 / scn.obs_rate, scn.max_correction_dt
        lat = np.empty(len(st.cycles), dtype=np.int64)
        clock = time.perf_counter_ns
        state = nav.ObserverState.create(st.init, gravity_mode=scn.gravity_mode,
                                         g_ref=np.asarray(scn.g_ref, dtype=float))
        prev = None
        last_corr = None
        for k, cyc in enumerate(st.cycles):
            c0 = clock()
            t_ns, _, _, obs = cyc
            if prev is not None:
                state = predict(state, prev[1], prev[2], (t_ns - prev[0]) / NS_PER_S)
            if obs is not None:
                dt_c = nominal_dt if last_corr is None else (t_ns - last_corr) / NS_PER_S
                state = correct(state, lmap, obs, gains, min(dt_c, cap))
                last_corr = t_ns
            lat[k] = clock() - c0
            prev = cyc
        return state, lat

    def _reference(self) -> nav.ObserverState:
        """``run_closed_loop`` on the same streams, computed once per set-up
        and outside every timed region."""
        if self.reference_final is None:
            st = self.streams
            scn = st.scenario
            self.reference_final = nav.run_closed_loop(
                st.truth, st.imu, st.observations, scn.lmap, scn.gains, st.init,
                gravity_mode=scn.gravity_mode,
                g_ref=np.asarray(scn.g_ref, dtype=float),
                obs_nominal_dt=1.0 / scn.obs_rate,
                max_correction_dt=scn.max_correction_dt).final_state
        return self.reference_final

    def trace_op(self, i: int) -> Op:
        """Rebuild the streams, as set-up does, then pass over them.  The
        rebuilt streams are checked against the reference of the first
        build, so a build that is not deterministic fails the op."""
        t0 = time.perf_counter()
        self.streams = build_streams(streaming_scenario(self.seed, self.duration))
        build = time.perf_counter() - t0
        op = self.op(i)
        op.wall += build
        return op

    def op(self, i: int) -> Op:
        t0 = time.perf_counter()
        final, lat = self.run_pass(self.streams)
        wall = time.perf_counter() - t0
        return Op(wall=wall, ok=same_bits(final, self._reference()),
                  cycles_ns=lat, output=final)


# ---------------------------------------------------------------------------

class RecordReplay(Workload):
    """``cli.main(["simulate", ...])`` then ``cli.main(["replay", ...])``
    in-process, into a scratch directory inside the checkout.  Noisy
    reference experiment, known gravity, quaternion attitude."""

    def __init__(self, seed: int, workdir: Path, duration: float = 40.0):
        super().__init__()
        self.seed = seed
        self.duration = duration
        self.workdir = Path(workdir)
        imu_rate = nav.default_scenario().imu_rate  # the configuration's default
        self.samples_per_op = 2 * (round(duration * imu_rate) + 1)
        self.keep_outputs = False

    def _write_config(self, name: str, seed: int, duration: float) -> Path:
        path = self.workdir / name
        path.write_text(
            f"duration={duration!r}\n"
            f"noise_std_omega={NOISE_OMEGA!r}\n"
            f"noise_std_accel={NOISE_ACCEL!r}\n"
            f"noise_std_obs={NOISE_OBS!r}\n"
            f"seed={seed}\n"
            "gravity_mode=known\n"
            "representation=quaternion\n")
        return path

    def setup(self, rep: int) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = self._write_config("run.conf", self.seed, self.duration)
        reference = self._write_config("reference.conf", REFERENCE_SEED,
                                       min(self.duration, REFERENCE_PAIR_DURATION))
        out = self.workdir / "reference"
        rc_sim, rc_rep, _, _ = self._pair(reference, out)
        if rc_sim != 0 or rc_rep != 0:
            self.problems.append(f"reference pair exited {rc_sim}/{rc_rep}")
        else:
            last = (out / "metrics.csv").read_text().splitlines()[-1].split(",")
            self.record_terminal("known", terminal_sq(*map(float, last[1:4])))
        shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _quiet_main(argv) -> int:
        """``cli.main`` with its report captured; shown only on failure."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = cli.main(argv)
        if rc != 0:
            sys.stderr.write(sink.getvalue())
        return rc

    def _pair(self, config: Path, out: Path):
        t0 = time.perf_counter()
        rc_sim = self._quiet_main(["simulate", "--config", str(config),
                                   "--out-dir", str(out)])
        t1 = time.perf_counter()
        rc_rep = self._quiet_main(["replay", "--out-dir", str(out)])
        t2 = time.perf_counter()
        return rc_sim, rc_rep, t1 - t0, t2 - t1

    def op(self, i: int) -> Op:
        out = self.workdir / f"pair{i}"
        try:
            rc_sim, rc_rep, t_sim, t_rep = self._pair(self.config, out)
            ok = (rc_sim == 0 and rc_rep == 0
                  and (out / "metrics.csv").read_bytes()
                  == (out / "metrics_replay.csv").read_bytes())
            output = ({p.name: p.read_bytes() for p in sorted(out.iterdir())}
                      if self.keep_outputs else None)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return Op(wall=t_sim + t_rep, ok=ok,
                  parts={"simulate": t_sim, "replay": t_rep}, output=output)

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def make(name: str, seed: int, workdir: Path, duration: float = 40.0) -> Workload:
    if name == "battery":
        return Battery(seed, duration)
    if name == "streaming":
        return Streaming(seed, duration)
    if name == "record-replay":
        return RecordReplay(seed, workdir, duration)
    raise ValueError(f"unknown workload {name!r}")
