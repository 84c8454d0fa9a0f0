"""File formats for recorded runs.

All tabular data is comma-separated text with one exact header line.
Timestamps are integer nanoseconds; every floating-point value is written
with ``repr``, which is the shortest string that parses back to the same
binary double.  Together with an integer time base this makes a recorded
run a complete, bit-exact description: replaying the files reproduces the
original metrics byte for byte.

Streams:

- inertial      ``t_ns,wx,wy,wz,ax,ay,az``            (strictly increasing time)
- ground truth  ``t_ns,qw,qx,qy,qz,px,py,pz,vx,vy,vz``  (strictly increasing time)
- landmark map  ``id,px,py,pz,s``
- observations  ``t_ns,id,yx,yy,yz``  (nondecreasing time; equal-time rows
  form one epoch)
- metrics       four error norms, then the estimated state and adapted
  quantities (header in :data:`METRICS_HEADER`)
- estimates     the metrics layout minus the error columns, for runs scored
  without ground truth (header in :data:`ESTIMATES_HEADER`)

The run configuration is a flat ``key=value`` text file; ``#`` starts a
comment, blank lines are ignored, unknown or repeated keys are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .measurement import (InsufficientLandmarks, LandmarkMap,
                          LandmarkObservation, check_configuration)
from .observer import (ADAPTIVE_GRAVITY, KNOWN_GRAVITY, MATRIX,
                       REPRESENTATIONS, Gains)
from .simulator import (DEFAULT_MAX_CORRECTION_DT, EstimateSnapshot,
                        ImuSample, InitError, MetricsRow, NoiseSpec, Scenario,
                        TrajectorySpec, TruthSample, merge_events)

IMU_HEADER = "t_ns,wx,wy,wz,ax,ay,az"
TRUTH_HEADER = "t_ns,qw,qx,qy,qz,px,py,pz,vx,vy,vz"
MAP_HEADER = "id,px,py,pz,s"
OBS_HEADER = "t_ns,id,yx,yy,yz"
_STATE_COLS = "qw,qx,qy,qz,px,py,pz,vx,vy,vz,sig_x,sig_y,sig_z,ghat_x,ghat_y,ghat_z"
METRICS_HEADER = "t_ns,att_err,pos_err,vel_err,grav_err," + _STATE_COLS
ESTIMATES_HEADER = "t_ns," + _STATE_COLS

BOTH_GRAVITY = "both"


class ParseError(ValueError):
    """A file violated its format; carries the path and 1-based line number."""

    def __init__(self, path, line: int, message: str):
        self.path = str(path)
        self.line = line
        super().__init__(f"{self.path}:{line}: {message}")


class NonMonotonicTime(ParseError):
    """Timestamps went backwards (or repeated where forbidden)."""


class EmptyStream(ValueError):
    """A stream file contained a header but no records."""


class ValidationError(ValueError):
    """A configuration parsed cleanly but is semantically invalid."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_row(t_ns: int, values) -> str:
    return ",".join([str(int(t_ns))] + [_fmt(v) for v in values])


def _read_lines(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise OSError(f"cannot read {path}: {e}") from e
    return text.splitlines()


def _check_header(path, lines, expected: str):
    if not lines:
        raise ParseError(path, 1, "file is empty, expected header "
                         f"{expected!r}")
    if lines[0] != expected:
        raise ParseError(path, 1, f"bad header {lines[0]!r}, expected {expected!r}")


def _split_fields(path, lineno: int, line: str, n: int) -> list[str]:
    parts = line.split(",")
    if len(parts) != n:
        raise ParseError(path, lineno, f"expected {n} fields, got {len(parts)}")
    return parts


def _parse_int(path, lineno: int, s: str) -> int:
    try:
        return int(s)
    except ValueError:
        raise ParseError(path, lineno, f"bad integer {s!r}") from None


def _parse_float(path, lineno: int, s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ParseError(path, lineno, f"bad number {s!r}") from None
    if math.isnan(v) or math.isinf(v):
        raise ParseError(path, lineno, f"non-finite number {s!r}")
    return v


# ---------------------------------------------------------------------------
# stream writers

def write_imu_csv(path, samples) -> None:
    lines = [IMU_HEADER]
    for s in samples:
        lines.append(_fmt_row(s.t_ns, list(s.omega) + list(s.accel)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_truth_csv(path, samples) -> None:
    lines = [TRUTH_HEADER]
    for s in samples:
        lines.append(_fmt_row(s.t_ns, list(s.quat) + list(s.pos) + list(s.vel)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_map_csv(path, lmap: LandmarkMap) -> None:
    lines = [MAP_HEADER]
    for i in range(len(lmap)):
        p = lmap.positions[i]
        lines.append(",".join([str(int(lmap.ids[i])), _fmt(p[0]), _fmt(p[1]),
                               _fmt(p[2]), _fmt(lmap.weights[i])]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_obs_csv(path, observations) -> None:
    """``observations`` is a sequence of (t_ns, LandmarkObservation)."""
    lines = [OBS_HEADER]
    for t_ns, obs in observations:
        for j in range(obs.ids.size):
            y = obs.points[j]
            lines.append(",".join([str(int(t_ns)), str(int(obs.ids[j])),
                                   _fmt(y[0]), _fmt(y[1]), _fmt(y[2])]))
    Path(path).write_text("\n".join(lines) + "\n")


def write_metrics_csv(path, rows) -> None:
    lines = [METRICS_HEADER]
    for r in rows:
        vals = ([r.att, r.pos, r.vel, r.grav] + list(r.quat) + list(r.p_est)
                + list(r.v_est) + list(r.sigma) + list(r.g_hat))
        lines.append(_fmt_row(r.t_ns, vals))
    Path(path).write_text("\n".join(lines) + "\n")


def write_estimates_csv(path, snapshots) -> None:
    """Estimate-only series, used when a run has no ground truth to score."""
    lines = [ESTIMATES_HEADER]
    for s in snapshots:
        vals = (list(s.quat) + list(s.pos) + list(s.vel) + list(s.sigma)
                + list(s.g_hat))
        lines.append(_fmt_row(s.t_ns, vals))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# stream readers

def load_imu_csv(path) -> list[ImuSample]:
    lines = _read_lines(path)
    _check_header(path, lines, IMU_HEADER)
    out: list[ImuSample] = []
    prev = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        f = _split_fields(path, lineno, line, 7)
        t = _parse_int(path, lineno, f[0])
        if prev is not None and t <= prev:
            raise NonMonotonicTime(path, lineno,
                                   f"time {t} does not increase past {prev}")
        prev = t
        vals = [_parse_float(path, lineno, s) for s in f[1:]]
        out.append(ImuSample(t, np.array(vals[0:3]), np.array(vals[3:6])))
    if not out:
        raise EmptyStream(f"{path}: no inertial records")
    return out


def load_truth_csv(path) -> list[TruthSample]:
    lines = _read_lines(path)
    _check_header(path, lines, TRUTH_HEADER)
    out: list[TruthSample] = []
    prev = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        f = _split_fields(path, lineno, line, 11)
        t = _parse_int(path, lineno, f[0])
        if prev is not None and t <= prev:
            raise NonMonotonicTime(path, lineno,
                                   f"time {t} does not increase past {prev}")
        prev = t
        vals = [_parse_float(path, lineno, s) for s in f[1:]]
        out.append(TruthSample(t, np.array(vals[0:4]), np.array(vals[4:7]),
                               np.array(vals[7:10])))
    if not out:
        raise EmptyStream(f"{path}: no ground-truth records")
    return out


def load_map_csv(path) -> LandmarkMap:
    lines = _read_lines(path)
    _check_header(path, lines, MAP_HEADER)
    ids, pts, wts = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        f = _split_fields(path, lineno, line, 5)
        ids.append(_parse_int(path, lineno, f[0]))
        pts.append([_parse_float(path, lineno, s) for s in f[1:4]])
        w = _parse_float(path, lineno, f[4])
        if w <= 0.0:
            raise ParseError(path, lineno, f"weight must be positive, got {w!r}")
        wts.append(w)
    if not ids:
        raise EmptyStream(f"{path}: no landmarks")
    if len(set(ids)) != len(ids):
        raise ParseError(path, len(lines), "duplicate landmark ids")
    return LandmarkMap(ids=np.array(ids), positions=np.array(pts),
                       weights=np.array(wts))


def load_obs_csv(path) -> list[tuple[int, LandmarkObservation]]:
    """Epochs from the long observation format; equal-time rows group."""
    lines = _read_lines(path)
    _check_header(path, lines, OBS_HEADER)
    out: list[tuple[int, LandmarkObservation]] = []
    cur_t = None
    cur_ids: list[int] = []
    cur_pts: list[list[float]] = []

    def flush():
        if cur_t is not None:
            out.append((cur_t, LandmarkObservation(
                t=cur_t / 1e9, ids=np.array(cur_ids),
                points=np.array(cur_pts))))

    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        f = _split_fields(path, lineno, line, 5)
        t = _parse_int(path, lineno, f[0])
        if cur_t is not None and t < cur_t:
            raise NonMonotonicTime(path, lineno,
                                   f"time {t} goes back past {cur_t}")
        if t != cur_t:
            flush()
            cur_t, cur_ids, cur_pts = t, [], []
        cur_ids.append(_parse_int(path, lineno, f[1]))
        cur_pts.append([_parse_float(path, lineno, s) for s in f[2:5]])
    flush()
    if not out:
        raise EmptyStream(f"{path}: no observation records")
    return out


def load_metrics_csv(path) -> list[MetricsRow]:
    lines = _read_lines(path)
    _check_header(path, lines, METRICS_HEADER)
    out: list[MetricsRow] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        f = _split_fields(path, lineno, line, 21)
        t = _parse_int(path, lineno, f[0])
        v = [_parse_float(path, lineno, s) for s in f[1:]]
        out.append(MetricsRow(t_ns=t, att=v[0], pos=v[1], vel=v[2], grav=v[3],
                              quat=np.array(v[4:8]), p_est=np.array(v[8:11]),
                              v_est=np.array(v[11:14]),
                              sigma=np.array(v[14:17]),
                              g_hat=np.array(v[17:20])))
    if not out:
        raise EmptyStream(f"{path}: no metrics records")
    return out


def load_estimates_csv(path) -> list[EstimateSnapshot]:
    lines = _read_lines(path)
    _check_header(path, lines, ESTIMATES_HEADER)
    out: list[EstimateSnapshot] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        f = _split_fields(path, lineno, line, 17)
        t = _parse_int(path, lineno, f[0])
        v = [_parse_float(path, lineno, s) for s in f[1:]]
        out.append(EstimateSnapshot(t_ns=t, quat=np.array(v[0:4]),
                                    pos=np.array(v[4:7]), vel=np.array(v[7:10]),
                                    sigma=np.array(v[10:13]),
                                    g_hat=np.array(v[13:16])))
    if not out:
        raise EmptyStream(f"{path}: no estimate records")
    return out


def align(imu, observations, truth=None):
    """Merge the streams into the engine's time-ordered event list (see
    :func:`~se23nav.simulator.merge_events`).

    Ground truth is optional (a replay can be scored estimate-only);
    inertial data and at least one landmark epoch are not, since the closed
    loop cannot correct without them.  Each event is a ``(t_ns, kind,
    payload)`` triple with kinds 0 truth, 1 inertial, 2 epoch.
    """
    if not imu:
        raise EmptyStream("inertial stream is empty")
    if not observations:
        raise EmptyStream("observation stream is empty; the estimator "
                          "cannot correct without landmark epochs")
    return merge_events(truth or (), imu, observations)


def load_landmarks(map_path, obs_path):
    """Load and cross-validate the landmark map and observation stream.

    Returns the map with its configuration report embedded, plus the epoch
    list.  Raises :class:`~se23nav.measurement.UnknownLandmarkId` when an
    observation references an id missing from the map and
    :class:`~se23nav.measurement.InsufficientLandmarks` when any epoch holds
    fewer than three readings.
    """
    lmap = load_map_csv(map_path)
    observations = load_obs_csv(obs_path)
    for t_ns, obs in observations:
        lmap.index_of(obs.ids)
        if obs.ids.size < 3:
            raise InsufficientLandmarks(
                f"epoch at {t_ns} ns has {obs.ids.size} reading(s); "
                "at least 3 are required")
    lmap = replace(lmap, report=check_configuration(lmap))
    return lmap, observations


# ---------------------------------------------------------------------------
# run configuration

_DEFAULT_TRAJ = TrajectorySpec()
_DEFAULT_INIT = InitError(angle=2.9670597283903604, axis=(1.0, 1.0, 1.0),
                          pos=(3.0, -2.0, 1.0))
_DEFAULT_GAINS = Gains()

GRAVITY_MODES = (KNOWN_GRAVITY, ADAPTIVE_GRAVITY, BOTH_GRAVITY)


@dataclass(frozen=True)
class RunConfig:
    """Flat run description; defaults reproduce the reference experiment."""

    duration: float = 40.0
    imu_rate: float = 200.0
    obs_rate: float = 20.0
    gravity_mode: str = KNOWN_GRAVITY
    representation: str = MATRIX
    seed: int = 0
    max_correction_dt: float = DEFAULT_MAX_CORRECTION_DT
    noise_std_omega: float = 0.0
    noise_std_accel: float = 0.0
    noise_std_obs: float = 0.0
    k_w: float = _DEFAULT_GAINS.k_w
    k_v: float = _DEFAULT_GAINS.k_v
    k_a: float = _DEFAULT_GAINS.k_a
    gamma_sigma: float = _DEFAULT_GAINS.gamma_sigma
    k_sigma: float = _DEFAULT_GAINS.k_sigma
    gamma_g: float = _DEFAULT_GAINS.gamma_g
    mu: float = _DEFAULT_GAINS.mu
    g_ref: tuple = (0.0, 0.0, -9.81)
    init_angle: float = _DEFAULT_INIT.angle
    init_axis: tuple = _DEFAULT_INIT.axis
    init_pos: tuple = _DEFAULT_INIT.pos
    init_vel: tuple = _DEFAULT_INIT.vel
    trajectory: str = _DEFAULT_TRAJ.kind
    center: tuple = _DEFAULT_TRAJ.center
    amplitude: tuple = _DEFAULT_TRAJ.amplitude
    freq: tuple = _DEFAULT_TRAJ.freq
    phase: tuple = _DEFAULT_TRAJ.phase
    radius: float = _DEFAULT_TRAJ.radius
    yaw_amp: float = _DEFAULT_TRAJ.yaw_amp
    yaw_freq: float = _DEFAULT_TRAJ.yaw_freq
    pitch_amp: float = _DEFAULT_TRAJ.pitch_amp
    pitch_freq: float = _DEFAULT_TRAJ.pitch_freq
    pitch_phase: float = _DEFAULT_TRAJ.pitch_phase
    waypoint_times: tuple = ()
    waypoint_points: tuple = ()
    map_file: str = ""

    def modes(self) -> tuple:
        if self.gravity_mode == BOTH_GRAVITY:
            return (KNOWN_GRAVITY, ADAPTIVE_GRAVITY)
        return (self.gravity_mode,)


_FLOAT_KEYS = {"duration", "imu_rate", "obs_rate", "max_correction_dt",
               "noise_std_omega", "noise_std_accel", "noise_std_obs",
               "k_w", "k_v", "k_a", "gamma_sigma", "k_sigma", "gamma_g", "mu",
               "init_angle", "radius", "yaw_amp", "yaw_freq", "pitch_amp",
               "pitch_freq", "pitch_phase"}
_INT_KEYS = {"seed"}
_TRIPLE_KEYS = {"g_ref", "init_axis", "init_pos", "init_vel", "center",
                "amplitude", "freq", "phase"}
_STR_KEYS = {"gravity_mode", "representation", "trajectory", "map_file"}
_LIST_KEYS = {"waypoint_times"}
_POINTS_KEYS = {"waypoint_points"}

_ALL_KEYS = (_FLOAT_KEYS | _INT_KEYS | _TRIPLE_KEYS | _STR_KEYS
             | _LIST_KEYS | _POINTS_KEYS)
assert _ALL_KEYS == {f.name for f in fields(RunConfig)}

# written configs list the keys in field order, which keeps them diffable
_KEY_ORDER = tuple(f.name for f in fields(RunConfig))


def _parse_triple(path, lineno, value: str) -> tuple:
    parts = value.split(",")
    if len(parts) != 3:
        raise ParseError(path, lineno, f"expected three comma-separated "
                         f"numbers, got {value!r}")
    return tuple(_parse_float(path, lineno, p) for p in parts)


def parse_config(path) -> RunConfig:
    """Read a ``key=value`` configuration file.

    Raises :class:`ParseError` for format problems (including unknown and
    repeated keys) and :class:`ValidationError` when the parsed values do
    not describe a runnable experiment.
    """
    lines = _read_lines(path)
    seen: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(path, lineno, f"expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ParseError(path, lineno, f"unknown configuration key {key!r}")
        if key in seen:
            raise ParseError(path, lineno, f"repeated configuration key {key!r}")
        if key in _FLOAT_KEYS:
            seen[key] = _parse_float(path, lineno, value)
        elif key in _INT_KEYS:
            seen[key] = _parse_int(path, lineno, value)
        elif key in _TRIPLE_KEYS:
            seen[key] = _parse_triple(path, lineno, value)
        elif key in _LIST_KEYS:
            seen[key] = tuple(_parse_float(path, lineno, p)
                              for p in value.split(",")) if value else ()
        elif key in _POINTS_KEYS:
            seen[key] = tuple(_parse_triple(path, lineno, p)
                              for p in value.split(";")) if value else ()
        else:
            seen[key] = value
    cfg = RunConfig(**seen)
    validate_config(cfg)
    return cfg


def _trajectory_spec(cfg: RunConfig) -> TrajectorySpec:
    """The configured trajectory: key ``trajectory`` is the kind, every other
    trajectory field has the key of its own name."""
    return TrajectorySpec(kind=cfg.trajectory, **{
        f.name: getattr(cfg, f.name) for f in fields(TrajectorySpec)
        if f.name != "kind"})


def validate_config(cfg: RunConfig) -> None:
    def bad(msg):
        raise ValidationError(msg)

    if cfg.duration <= 0.0:
        bad("duration must be positive")
    if cfg.imu_rate <= 0.0 or cfg.obs_rate <= 0.0:
        bad("sample rates must be positive")
    if cfg.obs_rate > cfg.imu_rate:
        bad("landmark epochs cannot outpace inertial samples")
    ratio = cfg.imu_rate / cfg.obs_rate
    if abs(ratio - round(ratio)) > 1e-9:
        bad("the landmark epoch rate must divide the inertial rate")
    if round(cfg.duration * cfg.imu_rate) < 1:
        bad("duration is shorter than one inertial sample")
    if cfg.gravity_mode not in GRAVITY_MODES:
        bad(f"gravity_mode must be one of {GRAVITY_MODES}, got {cfg.gravity_mode!r}")
    if cfg.representation not in REPRESENTATIONS:
        bad(f"representation must be one of {REPRESENTATIONS}, got {cfg.representation!r}")
    if cfg.max_correction_dt <= 0.0:
        bad("max_correction_dt must be positive")
    for k in ("noise_std_omega", "noise_std_accel", "noise_std_obs"):
        if getattr(cfg, k) < 0.0:
            bad(f"{k} must be nonnegative")
    for k in (f.name for f in fields(Gains)):
        if getattr(cfg, k) <= 0.0:
            bad(f"gain {k} must be strictly positive")
    if np.linalg.norm(np.asarray(cfg.init_axis, dtype=float)) == 0.0:
        bad("init_axis must be nonzero")
    try:
        _trajectory_spec(cfg)
    except ValueError as e:
        bad(str(e))


def _fmt_value(key: str, value) -> str:
    if key in _FLOAT_KEYS:
        return _fmt(value)
    if key in _INT_KEYS:
        return str(int(value))
    if key in _TRIPLE_KEYS:
        return ",".join(_fmt(v) for v in value)
    if key in _LIST_KEYS:
        return ",".join(_fmt(v) for v in value)
    if key in _POINTS_KEYS:
        return ";".join(",".join(_fmt(c) for c in p) for p in value)
    return str(value)


def write_config(path, cfg: RunConfig) -> None:
    lines = ["# closed-loop run configuration"]
    for key in _KEY_ORDER:
        lines.append(f"{key}={_fmt_value(key, getattr(cfg, key))}")
    Path(path).write_text("\n".join(lines) + "\n")


def config_to_scenario(cfg: RunConfig, lmap: LandmarkMap,
                       gravity_mode: str | None = None) -> Scenario:
    """Build a runnable scenario from a configuration and a landmark map.

    ``gravity_mode`` selects the mode for this run; required when the
    configuration says ``both``.
    """
    mode = gravity_mode if gravity_mode is not None else cfg.gravity_mode
    if mode == BOTH_GRAVITY:
        raise ValidationError("a single run needs a concrete gravity mode")
    gains = Gains(**{f.name: getattr(cfg, f.name) for f in fields(Gains)})
    init = InitError(angle=cfg.init_angle, axis=cfg.init_axis,
                     pos=cfg.init_pos, vel=cfg.init_vel)
    noise = NoiseSpec(std_omega=cfg.noise_std_omega,
                      std_accel=cfg.noise_std_accel,
                      std_obs=cfg.noise_std_obs, seed=cfg.seed)
    return Scenario(trajectory=_trajectory_spec(cfg), lmap=lmap, gains=gains,
                    init_error=init, duration=cfg.duration,
                    imu_rate=cfg.imu_rate, obs_rate=cfg.obs_rate,
                    gravity_mode=mode, g_ref=cfg.g_ref, noise=noise,
                    max_correction_dt=cfg.max_correction_dt)


def config_override(cfg: RunConfig, **kwargs) -> RunConfig:
    """Copy with fields replaced, then re-validated."""
    out = replace(cfg, **kwargs)
    validate_config(out)
    return out
