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
  quantities (header in :data:`METRICS_HEADER`; strictly increasing time)
- estimates     the metrics layout minus the error columns, for runs
  without ground truth (header in :data:`ESTIMATES_HEADER`; strictly
  increasing time)

The run configuration is a flat ``key=value`` text file; ``#`` starts a
comment, blank lines are ignored, unknown or repeated keys are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .measurement import InsufficientLandmarks, LandmarkMap, LandmarkObservation
from .observer import (ADAPTIVE_GRAVITY, KNOWN_GRAVITY, MATRIX,
                       REPRESENTATIONS, Gains)
from .simulator import (DEFAULT_MAX_CORRECTION_DT, ImuSample, InitError,
                        MetricsRow, NoiseSpec, Scenario, TrajectorySpec,
                        TruthSample, merge_events)

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


def _fmt_seq(values) -> str:
    return ",".join(_fmt(v) for v in values)


def _fmt_row(key: int, values) -> str:
    return f"{int(key)},{_fmt_seq(values)}"


def _write_csv(path, header: str, lines) -> None:
    Path(path).write_text("\n".join([header, *lines]) + "\n")


def _read_lines(path):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise OSError(f"cannot read {path}: {e}") from e
    return text.splitlines()


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


def _records(path, header: str):
    """Yield ``(lineno, fields)`` for every non-blank line after the exact
    ``header``; each record has as many fields as the header."""
    lines = _read_lines(path)
    if not lines:
        raise ParseError(path, 1, f"file is empty, expected header {header!r}")
    if lines[0] != header:
        raise ParseError(path, 1, f"bad header {lines[0]!r}, expected {header!r}")
    n = header.count(",") + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != n:
            raise ParseError(path, lineno, f"expected {n} fields, got {len(parts)}")
        yield lineno, parts


def _timed_records(path, header: str, what: str):
    """Yield ``(t_ns, values)`` for a time-stamped stream: integer time that
    strictly increases, then finite numbers.  Raises :class:`EmptyStream`
    when there are no records."""
    prev = None
    for lineno, f in _records(path, header):
        t = _parse_int(path, lineno, f[0])
        if prev is not None and t <= prev:
            raise NonMonotonicTime(path, lineno,
                                   f"time {t} does not increase past {prev}")
        prev = t
        yield t, [_parse_float(path, lineno, s) for s in f[1:]]
    if prev is None:
        raise EmptyStream(f"{path}: no {what} records")


# ---------------------------------------------------------------------------
# stream writers

def write_imu_csv(path, samples) -> None:
    _write_csv(path, IMU_HEADER, (_fmt_row(s.t_ns, [*s.omega, *s.accel])
                                  for s in samples))


def write_truth_csv(path, samples) -> None:
    _write_csv(path, TRUTH_HEADER, (_fmt_row(s.t_ns, [*s.quat, *s.pos, *s.vel])
                                    for s in samples))


def write_map_csv(path, lmap: LandmarkMap) -> None:
    _write_csv(path, MAP_HEADER, (_fmt_row(i, [*p, w]) for i, p, w in
                                  zip(lmap.ids, lmap.positions, lmap.weights)))


def write_obs_csv(path, observations) -> None:
    """``observations`` is a sequence of (t_ns, LandmarkObservation)."""
    _write_csv(path, OBS_HEADER, (f"{int(t_ns)},{_fmt_row(i, y)}"
                                  for t_ns, obs in observations
                                  for i, y in zip(obs.ids, obs.points)))


def _state_values(r: MetricsRow) -> list:
    """The values of a row's :data:`_STATE_COLS`."""
    return [*r.quat, *r.p_est, *r.v_est, *r.sigma, *r.g_hat]


def write_metrics_csv(path, rows) -> None:
    _write_csv(path, METRICS_HEADER, (
        _fmt_row(r.t_ns, [r.att, r.pos, r.vel, r.grav, *_state_values(r)])
        for r in rows))


def write_estimates_csv(path, rows) -> None:
    """Estimate-only series, used when a run has no ground truth to score."""
    _write_csv(path, ESTIMATES_HEADER, (_fmt_row(r.t_ns, _state_values(r))
                                        for r in rows))


# ---------------------------------------------------------------------------
# stream readers

def load_imu_csv(path) -> list[ImuSample]:
    return [ImuSample(t, np.array(v[0:3]), np.array(v[3:6]))
            for t, v in _timed_records(path, IMU_HEADER, "inertial")]


def load_truth_csv(path) -> list[TruthSample]:
    return [TruthSample(t, np.array(v[0:4]), np.array(v[4:7]), np.array(v[7:10]))
            for t, v in _timed_records(path, TRUTH_HEADER, "ground-truth")]


def load_map_csv(path) -> LandmarkMap:
    ids, pts, wts, seen = [], [], [], set()
    for lineno, f in _records(path, MAP_HEADER):
        i = _parse_int(path, lineno, f[0])
        pts.append([_parse_float(path, lineno, s) for s in f[1:4]])
        w = _parse_float(path, lineno, f[4])
        if w <= 0.0:
            raise ParseError(path, lineno, f"weight must be positive, got {w!r}")
        if i in seen:
            raise ParseError(path, lineno, "duplicate landmark ids")
        seen.add(i)
        ids.append(i)
        wts.append(w)
    if not ids:
        raise EmptyStream(f"{path}: no landmarks")
    return LandmarkMap(ids=np.array(ids), positions=np.array(pts),
                       weights=np.array(wts))


def load_obs_csv(path) -> list[tuple[int, LandmarkObservation]]:
    """Epochs from the long observation format; equal-time rows group."""
    epochs: list[tuple[int, list, list]] = []
    for lineno, f in _records(path, OBS_HEADER):
        t = _parse_int(path, lineno, f[0])
        if epochs and t < epochs[-1][0]:
            raise NonMonotonicTime(path, lineno,
                                   f"time {t} goes back past {epochs[-1][0]}")
        if not epochs or t != epochs[-1][0]:
            ids, pts = [], []
            epochs.append((t, ids, pts))
        i = _parse_int(path, lineno, f[1])
        if i in ids:
            raise ParseError(path, lineno, f"landmark id {i} repeated within "
                             f"the epoch at {t} ns")
        ids.append(i)
        pts.append([_parse_float(path, lineno, s) for s in f[2:5]])
    if not epochs:
        raise EmptyStream(f"{path}: no observation records")
    return [(t, LandmarkObservation(t=t / 1e9, ids=np.array(ids),
                                    points=np.array(pts)))
            for t, ids, pts in epochs]


def _state_row(t_ns: int, errors, v) -> MetricsRow:
    """A row from its four error norms and the values of :data:`_STATE_COLS`."""
    return MetricsRow(t_ns, *errors, quat=np.array(v[0:4]),
                      p_est=np.array(v[4:7]), v_est=np.array(v[7:10]),
                      sigma=np.array(v[10:13]), g_hat=np.array(v[13:16]))


def load_metrics_csv(path) -> list[MetricsRow]:
    return [_state_row(t, v[:4], v[4:])
            for t, v in _timed_records(path, METRICS_HEADER, "metrics")]


def load_estimates_csv(path) -> list[MetricsRow]:
    """Rows without error norms (``None``)."""
    return [_state_row(t, (None,) * 4, v)
            for t, v in _timed_records(path, ESTIMATES_HEADER, "estimate")]


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

    Returns the map and the epoch list.  Raises
    :class:`~se23nav.measurement.UnknownLandmarkId` when an observation
    references an id missing from the map and
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


def _parse_triple(path, lineno, value: str) -> tuple:
    parts = value.split(",")
    if len(parts) != 3:
        raise ParseError(path, lineno, f"expected three comma-separated "
                         f"numbers, got {value!r}")
    return tuple(_parse_float(path, lineno, p) for p in parts)


def _parse_seq(item, sep: str):
    """Parser for a ``sep``-separated, possibly empty list of ``item``s."""
    def parse(path, lineno, value: str) -> tuple:
        return tuple(item(path, lineno, p) for p in value.split(sep)) if value else ()
    return parse


# (parse, format) of each value shape; a field's shape is that of its default
_SCALAR_CODECS = {float: (_parse_float, _fmt),
                  int: (_parse_int, lambda v: str(int(v))),
                  str: (lambda path, lineno, value: value, str)}
_TRIPLE_CODEC = (_parse_triple, _fmt_seq)
_NAMED_CODECS = {
    "waypoint_times": (_parse_seq(_parse_float, ","), _fmt_seq),
    "waypoint_points": (_parse_seq(_parse_triple, ";"),
                        lambda points: ";".join(_fmt_seq(p) for p in points)),
}


def _config_codec(f) -> tuple:
    if f.name in _NAMED_CODECS:
        return _NAMED_CODECS[f.name]
    default = f.default
    if type(default) is tuple and len(default) == 3:
        return _TRIPLE_CODEC
    if type(default) in _SCALAR_CODECS:
        return _SCALAR_CODECS[type(default)]
    raise TypeError(f"RunConfig.{f.name}: no file shape for a default of "
                    f"type {type(default).__name__}")


# every configuration key, in the order written configs list them
_CONFIG_CODECS = {f.name: _config_codec(f) for f in fields(RunConfig)}


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
        if key not in _CONFIG_CODECS:
            raise ParseError(path, lineno, f"unknown configuration key {key!r}")
        if key in seen:
            raise ParseError(path, lineno, f"repeated configuration key {key!r}")
        seen[key] = _CONFIG_CODECS[key][0](path, lineno, value.strip())
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


def write_config(path, cfg: RunConfig) -> None:
    """Raises :class:`ValidationError` for a string value that would not read
    back unchanged: one holding ``#`` or a line break, or padded with
    whitespace."""
    for key, value in vars(cfg).items():
        if isinstance(value, str) and ("#" in value or value != value.strip()
                                       or len(value.splitlines()) > 1):
            raise ValidationError(f"{key}={value!r} would not read back unchanged")
    _write_csv(path, "# closed-loop run configuration",
               (f"{key}={fmt(getattr(cfg, key))}"
                for key, (_, fmt) in _CONFIG_CODECS.items()))


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
