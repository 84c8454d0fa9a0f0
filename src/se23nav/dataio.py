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

A malformed file raises for its first faulty line; FORMATS.md orders the rules.

The run configuration is a flat ``key=value`` text file; ``#`` starts a
comment, blank lines are ignored, unknown or repeated keys are errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import chain
from pathlib import Path

import numpy as np

from .measurement import (InsufficientLandmarks, LandmarkMap, LandmarkObservation,
                          check_configuration)
from .observer import ADAPTIVE_GRAVITY, KNOWN_GRAVITY, REPRESENTATIONS
from .simulator import (NS_PER_S, ImuStream, RunResult, RunSpec, Scenario,
                        TruthStream, merge_events)

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


def _parse_int64(path, lineno: int, s: str) -> int:
    """A time stamp or landmark id: an integer in the signed 64-bit range."""
    v = _parse_int(path, lineno, s)
    if not -2 ** 63 <= v < 2 ** 63:
        raise ParseError(path, lineno, f"integer {s!r} is outside the signed 64-bit range")
    return v


def _parse_float(path, lineno: int, s: str) -> float:
    try:
        v = float(s)
    except ValueError:
        raise ParseError(path, lineno, f"bad number {s!r}") from None
    if math.isnan(v) or math.isinf(v):
        raise ParseError(path, lineno, f"non-finite number {s!r}")
    return v


def _or(parse, s: str, default):
    """``parse(s)``, or ``default`` where that raises ``ValueError``."""
    try:
        return parse(s)
    except ValueError:
        return default


class _Table:
    """The records after a file's exact ``header`` line as whole columns, and
    the check of its record rules: ``keys`` holds the first ``ints`` fields of
    each non-blank line through ``int``, one int64 row per field, ``values``
    the others through ``float``, one row per record.  A file that does not
    convert column by column, streamed, is converted field by field, a bad
    integer flagged in ``bad_keys`` and a bad number read as NaN.  A rule is a
    mask over records, true where one breaks it, and ``word(lineno, i, fields)``,
    which raises its error.  Raises :class:`EmptyStream` with ``empty`` when
    there are no records."""

    def __init__(self, path, header: str, ints: int, empty: str):
        lines = _read_lines(path)
        if not lines:
            raise ParseError(path, 1, f"file is empty, expected header {header!r}")
        if lines[0] != header:
            raise ParseError(path, 1, f"bad header {lines[0]!r}, expected {header!r}")
        body = [line for line in lines[1:] if line]
        if not body:
            raise EmptyStream(f"{path}: {empty}")
        self.path, self.lines, n = path, lines, header.count(",") + 1
        miscount = np.array([line.count(",") != n - 1 for line in body])
        try:
            if miscount.any():
                raise ValueError("a record has another number of fields than the header")
            keys = chain.from_iterable(line.split(",", ints)[:ints] for line in body)
            keys = np.fromiter(map(int, keys), np.int64, len(body) * ints)
            values = chain.from_iterable(line.split(",")[ints:] for line in body)
            values = np.fromiter(map(float, values), float, len(body) * (n - ints))
            self.keys = keys.reshape(-1, ints).T.copy()
            self.bad_keys = np.zeros(self.keys.shape, bool)
            self.values = values.reshape(len(body), -1)
        except (ValueError, OverflowError):
            def rows():  # streamed again for each column: a list of rows costs 6x the text
                return ([""] * n if m else line.split(",") for line, m in zip(body, miscount))
            keys = [[_or(lambda s: _parse_int64(path, 0, s), f[j], None) for f in rows()]
                    for j in range(ints)]
            self.keys = np.array([[k or 0 for k in col] for col in keys], np.int64)
            self.bad_keys = np.array([[k is None for k in col] for col in keys])
            values = (_or(float, s, math.nan) for f in rows() for s in f[ints:])
            self.values = np.fromiter(values, float, len(body) * (n - ints)).reshape(len(body), -1)
        self.count = self.rule(miscount, ParseError,
                               lambda i, f: f"expected {n} fields, got {len(f)}")
        self.finite = (~np.isfinite(self.values).all(axis=1), lambda lineno, i, f: [
            _parse_float(path, lineno, s) for s in f[ints:]])  # raises at the first bad one

    def key(self, j: int):
        """Rule: integer field ``j`` is in the signed 64-bit range."""
        path = self.path
        return self.bad_keys[j], lambda lineno, i, f: _parse_int64(path, lineno, f[j])

    def rule(self, mask, error, message):
        """Rule: ``mask``, worded as ``error`` with ``message(i, fields)``."""
        path = self.path  # a word holding self would keep the file's lines in a cycle

        def word(lineno, i, f):
            raise error(path, lineno, message(i, f))
        return mask, word

    def check(self, *rules) -> None:
        """Raise for the first record in file order that breaks a rule,
        through the first of ``rules`` it breaks."""
        bad = np.logical_or.reduce([mask for mask, _ in rules])
        if bad.any():
            i = int(bad.argmax())
            lineno = [k for k, line in enumerate(self.lines[1:], 2) if line][i]
            f = self.lines[lineno - 1].split(",")
            for mask, word in rules:
                if mask[i]:
                    word(lineno, i, f)


def _repeats(*keys) -> np.ndarray:
    """True at each record whose ``keys`` an earlier record has."""
    order = np.lexsort(keys[::-1])  # stable: equal keys keep file order
    same = np.logical_and.reduce([k[order][1:] == k[order][:-1] for k in keys])
    out = np.zeros(order.size, bool)
    out[order[1:][same]] = True
    return out


def _timed_records(path, header: str, what: str):
    """The times (an int64 array) and the numbers (an ``(n, k)`` array) of a
    time-stamped stream: int64 time that strictly increases, then finite
    numbers.  Raises :class:`EmptyStream` when there are no records."""
    tab = _Table(path, header, 1, f"no {what} records")
    t = tab.keys[0]
    order = tab.rule(np.r_[False, t[1:] <= t[:-1]], NonMonotonicTime,
                     lambda i, f: f"time {t[i]} does not increase past {t[i - 1]}")
    tab.check(tab.count, tab.key(0), order, tab.finite)
    return t, tab.values


# ---------------------------------------------------------------------------
# stream writers

def _write_table(path, header: str, keys, table: np.ndarray) -> None:
    """One line per key: the key, then its row of ``table``.  Rows convert
    one at a time: the whole table as floats would cost more than the text."""
    _write_csv(path, header, (f"{k},{','.join(map(repr, row.tolist()))}"
                              for k, row in zip(keys, table)))


def write_imu_csv(path, imu: ImuStream) -> None:
    _write_table(path, IMU_HEADER, imu.t_ns.tolist(), np.hstack([imu.omega, imu.accel]))


def write_truth_csv(path, truth: TruthStream) -> None:
    _write_table(path, TRUTH_HEADER, truth.t_ns.tolist(),
                 np.hstack([truth.quat, truth.pos, truth.vel]))


def write_map_csv(path, lmap: LandmarkMap) -> None:
    _write_table(path, MAP_HEADER, lmap.ids.tolist(),
                 np.column_stack([lmap.positions, lmap.weights]))


def write_obs_csv(path, observations) -> None:
    """``observations`` is a sequence of (t_ns, LandmarkObservation)."""
    keys = [f"{int(t_ns)},{i}" for t_ns, obs in observations for i in obs.ids.tolist()]
    points = [y for _, obs in observations for y in obs.points]
    _write_table(path, OBS_HEADER, keys, np.array(points).reshape(-1, 3))


def _state_table(run: RunResult) -> np.ndarray:
    """The :data:`_STATE_COLS` of a run record, one row per instant."""
    return np.hstack([run.quat, run.p_est, run.v_est, run.sigma, run.g_hat])


def write_metrics_csv(path, run: RunResult) -> None:
    _write_table(path, METRICS_HEADER, run.t_ns.tolist(), np.column_stack(
        [run.att, run.pos, run.vel, run.grav, _state_table(run)]))


def write_estimates_csv(path, run: RunResult) -> None:
    """Estimate-only series, used when a run has no ground truth to score."""
    _write_table(path, ESTIMATES_HEADER, run.t_ns.tolist(), _state_table(run))


# ---------------------------------------------------------------------------
# stream readers

def load_imu_csv(path) -> ImuStream:
    t, v = _timed_records(path, IMU_HEADER, "inertial")
    return ImuStream(t, v[:, 0:3], v[:, 3:6])


def load_truth_csv(path) -> TruthStream:
    t, v = _timed_records(path, TRUTH_HEADER, "ground-truth")
    return TruthStream(t, v[:, 0:4], v[:, 4:7], v[:, 7:10])


def load_map_csv(path) -> LandmarkMap:
    tab = _Table(path, MAP_HEADER, 1, "no landmarks")
    (ids,), v = tab.keys, tab.values
    weight = tab.rule(v[:, 3] <= 0.0, ParseError,
                      lambda i, f: f"weight must be positive, got {float(v[i, 3])!r}")
    repeat = tab.rule(_repeats(ids), ParseError, lambda i, f: "duplicate landmark ids")
    tab.check(tab.count, tab.key(0), tab.finite, weight, repeat)
    return LandmarkMap(ids=ids, positions=v[:, :3].copy(), weights=v[:, 3].copy())


def load_obs_csv(path) -> list[tuple[int, LandmarkObservation]]:
    """Epochs from the long observation format; equal-time rows group."""
    tab = _Table(path, OBS_HEADER, 2, "no observation records")
    (t, ids), points = tab.keys, tab.values
    order = tab.rule(np.r_[False, t[1:] < t[:-1]], NonMonotonicTime,
                     lambda i, f: f"time {t[i]} goes back past {t[i - 1]}")
    repeat = tab.rule(_repeats(t, ids), ParseError, lambda i, f:
                      f"landmark id {ids[i]} repeated within the epoch at {t[i]} ns")
    tab.check(tab.count, tab.key(0), order, tab.key(1), repeat, tab.finite)
    starts = np.flatnonzero(t[1:] != t[:-1]) + 1
    return [(t0, LandmarkObservation(ids=i, points=y.copy())) for t0, i, y in zip(
        t[np.r_[0, starts]].tolist(), np.split(ids, starts), np.split(points, starts))]


def _record(t_ns, errors, v: np.ndarray) -> RunResult:
    """A run record from its four error columns and the :data:`_STATE_COLS`."""
    return RunResult(t_ns, *errors, quat=v[:, 0:4], p_est=v[:, 4:7],
                     v_est=v[:, 7:10], sigma=v[:, 10:13], g_hat=v[:, 13:16])


def load_metrics_csv(path) -> RunResult:
    t, v = _timed_records(path, METRICS_HEADER, "metrics")
    return _record(t, v[:, :4].T, v[:, 4:])


def load_estimates_csv(path) -> RunResult:
    """A record without error norms (``None``)."""
    t, v = _timed_records(path, ESTIMATES_HEADER, "estimate")
    return _record(t, (None,) * 4, v)


def align(imu, observations, truth=None):
    """The engine's schedule of the streams (see
    :func:`~se23nav.simulator.merge_events`).  Ground truth is optional;
    inertial data and at least one landmark epoch are not, since the closed
    loop cannot correct without them."""
    if not imu:
        raise EmptyStream("inertial stream is empty")
    if not observations:
        raise EmptyStream("observation stream is empty; the estimator "
                          "cannot correct without landmark epochs")
    return merge_events(truth, imu, observations)


def load_landmarks(map_path, obs_path):
    """Load and cross-validate the landmark map and observation stream.

    Returns the map and the epoch list.  Raises
    :class:`~se23nav.measurement.UnknownLandmarkId` when an observation
    references an id missing from the map and
    :class:`~se23nav.measurement.InsufficientLandmarks` when an epoch holds
    fewer than three readings or observes a subset of the map that
    :func:`~se23nav.measurement.check_configuration` rejects (collinear
    landmarks), checked once per distinct set of observed ids.
    """
    lmap = load_map_csv(map_path)
    observations = load_obs_csv(obs_path)
    usable = set()
    for t_ns, obs in observations:
        idx = lmap.index_of(obs.ids)
        if obs.ids.size < 3:
            raise InsufficientLandmarks(
                f"epoch at {t_ns} ns has {obs.ids.size} reading(s); "
                "at least 3 are required")
        key = np.sort(obs.ids).tobytes()
        if key in usable:
            continue
        report = check_configuration(LandmarkMap(ids=obs.ids, positions=lmap.positions[idx],
                                                 weights=lmap.weights[idx]))
        if not report.ok:
            raise InsufficientLandmarks(
                f"epoch at {t_ns} ns observes landmarks {obs.ids.tolist()}: {report.reason}")
        usable.add(key)
    return lmap, observations


# ---------------------------------------------------------------------------
# run configuration

GRAVITY_MODES = (KNOWN_GRAVITY, ADAPTIVE_GRAVITY, BOTH_GRAVITY)


@dataclass(frozen=True, kw_only=True)
class RunConfig(RunSpec):
    """A run as its configuration file states it: the run-level values, whose
    gravity mode may also be ``both``, and the landmark map's file (empty for
    the reference map)."""

    map_file: str = ""


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
    raise TypeError(f"field {f.name}: no file shape for a default of "
                    f"type {type(default).__name__}")


# The key of a spec field is its name behind the spec's prefix, or a rename.
_SPEC_KEYS = {"noise": ("noise_", {"seed": "seed"}), "gains": ("", {}),
              "init_error": ("init_", {}), "trajectory": ("", {"kind": "trajectory"})}


def _key_table() -> dict:
    """Every configuration key, in the order written configs list them, with
    its RunConfig field, spec field (``None`` for a plain field) and codec."""
    table = {}
    for f in fields(RunConfig):
        if f.name not in _SPEC_KEYS:
            table[f.name] = (f.name, None, _config_codec(f))
            continue
        prefix, renames = _SPEC_KEYS[f.name]
        for g in fields(f.default):
            table[renames.get(g.name, prefix + g.name)] = (f.name, g.name,
                                                          _config_codec(g))
    return table


_CONFIG_KEYS = _key_table()


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
        if key not in _CONFIG_KEYS:
            raise ParseError(path, lineno, f"unknown configuration key {key!r}")
        if key in seen:
            raise ParseError(path, lineno, f"repeated configuration key {key!r}")
        seen[key] = _CONFIG_KEYS[key][2][0](path, lineno, value.strip())
    return config_override(RunConfig(), **seen)


_MAX_SAMPLES = 1_000_000  # a run holds about 2 KB per inertial sample


def validate_config(cfg: RunConfig) -> None:
    """Check the run-level rules; each spec checks its own fields."""
    def bad(msg):
        raise ValidationError(msg)

    if cfg.duration <= 0.0:
        bad("duration must be positive")
    if cfg.imu_rate <= 0.0 or cfg.obs_rate <= 0.0:
        bad("sample rates must be positive")
    if cfg.obs_rate > cfg.imu_rate:
        bad("landmark epochs cannot outpace inertial samples")
    ratio = cfg.imu_rate / cfg.obs_rate
    if not math.isfinite(ratio):
        bad("imu_rate, obs_rate: the rate ratio is not finite")
    if abs(ratio - round(ratio)) > 1e-9:
        bad("the landmark epoch rate must divide the inertial rate")
    samples = cfg.duration * cfg.imu_rate  # the grid holds round(samples) + 1
    if samples >= _MAX_SAMPLES - 0.5:
        bad(f"duration, imu_rate: more than {_MAX_SAMPLES:,} inertial samples")
    if round(samples) < 1:
        bad("duration is shorter than one inertial sample")
    step_ns = NS_PER_S / cfg.imu_rate
    if step_ns <= 0.5:
        bad("imu_rate: the inertial step rounds to 0 ns")
    if step_ns * round(samples) >= 2.0 ** 63:
        bad("duration: the run ends past the int64 nanosecond clock")
    if cfg.gravity_mode not in GRAVITY_MODES:
        bad(f"gravity_mode must be one of {GRAVITY_MODES}, got {cfg.gravity_mode!r}")
    if cfg.representation not in REPRESENTATIONS:
        bad(f"representation must be one of {REPRESENTATIONS}, got {cfg.representation!r}")
    if cfg.max_correction_dt <= 0.0:
        bad("max_correction_dt must be positive")


def write_config(path, cfg: RunConfig) -> None:
    """Raises :class:`ValidationError` for a string value that would not read
    back unchanged: one holding ``#`` or a line break, or padded with
    whitespace."""
    lines = []
    for key, (name, sub, (_, fmt)) in _CONFIG_KEYS.items():
        value = getattr(cfg, name) if sub is None else getattr(getattr(cfg, name), sub)
        if isinstance(value, str) and ("#" in value or value != value.strip()
                                       or len(value.splitlines()) > 1):
            raise ValidationError(f"{key}={value!r} would not read back unchanged")
        lines.append(f"{key}={fmt(value)}")
    _write_csv(path, "# closed-loop run configuration", lines)


def config_scenarios(cfg: RunConfig, lmap: LandmarkMap) -> list[Scenario]:
    """The runs a configuration asks for over a landmark map: one scenario per
    gravity mode, known then adaptive when the configuration says ``both``.

    Raises :class:`~se23nav.measurement.InsufficientLandmarks` when
    :func:`~se23nav.measurement.check_configuration` rejects the map.
    """
    report = check_configuration(lmap)
    if not report.ok:
        raise InsufficientLandmarks(f"landmark configuration is unusable: {report.reason}")
    modes = ((KNOWN_GRAVITY, ADAPTIVE_GRAVITY) if cfg.gravity_mode == BOTH_GRAVITY
             else (cfg.gravity_mode,))
    spec = {f.name: getattr(cfg, f.name) for f in fields(RunSpec)}
    return [Scenario(**spec | {"gravity_mode": mode}, lmap=lmap) for mode in modes]


def config_override(cfg: RunConfig, **values) -> RunConfig:
    """Copy with the given configuration keys (the file's names) set, then
    re-validated.  A spec that rejects its values raises
    :class:`ValidationError` naming the keys set on it."""
    changes: dict = {}
    for key, value in values.items():
        name, sub, _ = _CONFIG_KEYS[key]
        changes[name] = value if sub is None else {**changes.get(name, {}), sub: value}
    for name in changes:
        if name not in _SPEC_KEYS:
            continue
        try:
            changes[name] = replace(getattr(cfg, name), **changes[name])
        except ValueError as e:
            keys = ", ".join(k for k in values if _CONFIG_KEYS[k][0] == name)
            raise ValidationError(f"{keys}: {e}") from None
    out = replace(cfg, **changes)
    validate_config(out)
    return out
