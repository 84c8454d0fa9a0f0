"""File formats: byte-exact roundtrips, located parse errors, configuration
validation."""

from __future__ import annotations

import dataclasses
import gc
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from se23nav import (Gains, InitError, InsufficientLandmarks,
                     LandmarkObservation, NoiseSpec, TrajectorySpec,
                     UnknownLandmarkId, check_configuration, dataio)
from se23nav.dataio import (BOTH_GRAVITY, ESTIMATES_HEADER, IMU_HEADER, MAP_HEADER,
                            METRICS_HEADER, OBS_HEADER, TRUTH_HEADER,
                            EmptyStream, NonMonotonicTime, ParseError,
                            RunConfig, ValidationError, align,
                            config_override, config_to_scenario,
                            load_estimates_csv, load_imu_csv, load_landmarks,
                            load_map_csv, load_metrics_csv, load_obs_csv,
                            load_truth_csv, parse_config, write_config,
                            write_estimates_csv, write_imu_csv, write_map_csv,
                            write_metrics_csv, write_obs_csv, write_truth_csv)
from se23nav.simulator import (ImuStream, RunResult, TruthStream,
                               default_landmark_map, default_scenario)

AWKWARD = [math.pi, 1.0 / 3.0, -2.5e-7, 9.81, -1.0, 0.0]


def _imu_stream():
    k = np.arange(7)
    return ImuStream(5_000_000 * k,
                     np.column_stack([np.sin(k), 1.0 / (k + 3), -k * 0.1]),
                     np.column_stack([k * 0.01, np.sqrt(k + 1), np.resize(AWKWARD, 7)]))


def test_imu_roundtrip_is_byte_exact(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    stream = _imu_stream()
    write_imu_csv(a, stream)
    loaded = load_imu_csv(a)
    write_imu_csv(b, loaded)
    assert a.read_bytes() == b.read_bytes()
    assert loaded.t_ns.dtype == np.int64
    for name in ("t_ns", "omega", "accel"):
        assert np.array_equal(getattr(stream, name), getattr(loaded, name))


def test_truth_roundtrip_is_byte_exact(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    k = np.arange(5)
    stream = TruthStream(10_000_000 * k,
                         np.column_stack([np.ones(5), np.zeros(5), np.sin(k * 0.1),
                                          np.full(5, 0.25)]),
                         np.column_stack([k * 0.5, -k, np.full(5, 2.0)]),
                         np.column_stack([np.full(5, 0.1), AWKWARD[:5], np.full(5, -0.3)]))
    write_truth_csv(a, stream)
    loaded = load_truth_csv(a)
    write_truth_csv(b, loaded)
    assert a.read_bytes() == b.read_bytes()
    for name in ("t_ns", "quat", "pos", "vel"):
        assert np.array_equal(getattr(stream, name), getattr(loaded, name))


def test_map_roundtrip_and_validation(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_map_csv(a, default_landmark_map())
    lmap = load_map_csv(a)
    write_map_csv(b, lmap)
    assert a.read_bytes() == b.read_bytes()

    dup = tmp_path / "dup.csv"
    dup.write_text("id,px,py,pz,s\n1,0,0,0,1.0\n1,1,0,0,1.0\n")
    with pytest.raises(ParseError) as ei:
        load_map_csv(dup)
    assert "duplicate landmark ids" in str(ei.value)

    # the error names the line of the first repeated id, not the last line
    dup.write_text("id,px,py,pz,s\n1,0,0,0,1\n1,1,0,0,1\n2,0,1,0,1\n3,0,0,1,1\n")
    with pytest.raises(ParseError) as ei:
        load_map_csv(dup)
    assert str(ei.value).startswith(f"{dup}:3: duplicate landmark ids")

    badw = tmp_path / "badw.csv"
    badw.write_text("id,px,py,pz,s\n1,0,0,0,0.0\n")
    with pytest.raises(ParseError) as ei:
        load_map_csv(badw)
    assert str(ei.value).startswith(f"{badw}:2:")
    assert "weight must be positive" in str(ei.value)


def test_obs_roundtrip_groups_equal_times(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    epochs = []
    for k in range(4):
        t_ns = 50_000_000 * k
        epochs.append((t_ns, LandmarkObservation(
            ids=np.arange(3 + k % 2),
            points=np.arange((3 + k % 2) * 3, dtype=float).reshape(-1, 3) * 0.1
            + k)))
    write_obs_csv(a, epochs)
    loaded = load_obs_csv(a)
    write_obs_csv(b, loaded)
    assert a.read_bytes() == b.read_bytes()
    assert [t for t, _ in loaded] == [t for t, _ in epochs]
    for (_, o1), (_, o2) in zip(epochs, loaded):
        assert np.array_equal(o1.ids, o2.ids)
        assert np.array_equal(o1.points, o2.points)

    back = tmp_path / "back.csv"
    back.write_text("t_ns,id,yx,yy,yz\n100,1,0,0,0\n50,2,0,0,0\n")
    with pytest.raises(NonMonotonicTime):
        load_obs_csv(back)


def test_metrics_and_estimates_roundtrip(tmp_path):
    k = np.arange(4)
    rows = RunResult(t_ns=5_000_000 * k, att=0.1 * k, pos=k + 0.5,
                     vel=1.0 / (k + 2), grav=np.zeros(4),
                     quat=np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)),
                     p_est=np.repeat(k[:, None] * math.pi, 3, axis=1),
                     v_est=np.tile([0.1, 0.2, 0.3], (4, 1)),
                     sigma=np.zeros((4, 3)),
                     g_hat=np.tile([0.0, 0.0, -9.81], (4, 1)))
    a, b = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_metrics_csv(a, rows)
    loaded = load_metrics_csv(a)
    write_metrics_csv(b, loaded)
    assert a.read_bytes() == b.read_bytes()
    assert loaded[2].pos == rows[2].pos
    assert [r.t_ns for r in loaded.rows] == [0, 5_000_000, 10_000_000, 15_000_000]
    assert loaded.final.vel == 1.0 / 5

    # estimate-only rows carry no error norms; the estimates file drops them
    k = np.arange(3)
    unscored = RunResult(t_ns=5_000_000 * k, att=None, pos=None, vel=None,
                         grav=None, quat=np.tile([0.5, 0.5, 0.5, 0.5], (3, 1)),
                         p_est=k[:, None] * np.array([1.0, 2.0, 3.0]),
                         v_est=np.zeros((3, 3)), sigma=np.full((3, 3), 0.25),
                         g_hat=np.zeros((3, 3)))
    c, d = tmp_path / "e1.csv", tmp_path / "e2.csv"
    write_estimates_csv(c, unscored)
    eloaded = load_estimates_csv(c)
    write_estimates_csv(d, eloaded)
    assert c.read_bytes() == d.read_bytes()
    assert all(r.att is None and r.pos is None and r.vel is None
               and r.grav is None for r in eloaded)
    assert np.array_equal(eloaded[2].p_est, unscored[2].p_est)
    # a scored row writes the same estimate columns
    e = tmp_path / "e3.csv"
    write_estimates_csv(e, loaded)
    from_scored = load_estimates_csv(e)
    assert [r.t_ns for r in from_scored] == [r.t_ns for r in rows]
    assert np.array_equal(from_scored[1].p_est, rows[1].p_est)


def test_parse_errors_carry_path_and_line(tmp_path):
    p = tmp_path / "f.csv"

    p.write_text("")
    with pytest.raises(ParseError) as ei:
        load_imu_csv(p)
    assert str(ei.value).startswith(f"{p}:1:")
    assert "file is empty" in str(ei.value)

    p.write_text("wrong,header\n")
    with pytest.raises(ParseError) as ei:
        load_imu_csv(p)
    assert "bad header" in str(ei.value)

    p.write_text("t_ns,wx,wy,wz,ax,ay,az\n0,1,2,3\n")
    with pytest.raises(ParseError) as ei:
        load_imu_csv(p)
    assert str(ei.value).startswith(f"{p}:2:")
    assert "expected 7 fields, got 4" in str(ei.value)

    p.write_text("t_ns,wx,wy,wz,ax,ay,az\n0,1,2,three,4,5,6\n")
    with pytest.raises(ParseError) as ei:
        load_imu_csv(p)
    assert "bad number 'three'" in str(ei.value)

    p.write_text("t_ns,wx,wy,wz,ax,ay,az\n0,1,2,nan,4,5,6\n")
    with pytest.raises(ParseError) as ei:
        load_imu_csv(p)
    assert "non-finite" in str(ei.value)

    p.write_text("t_ns,wx,wy,wz,ax,ay,az\nx,1,2,3,4,5,6\n")
    with pytest.raises(ParseError) as ei:
        load_imu_csv(p)
    assert "bad integer 'x'" in str(ei.value)

    p.write_text("t_ns,wx,wy,wz,ax,ay,az\n5,1,2,3,4,5,6\n5,1,2,3,4,5,6\n")
    with pytest.raises(NonMonotonicTime) as ei:
        load_imu_csv(p)
    assert str(ei.value).startswith(f"{p}:3:")

    p.write_text("t_ns,wx,wy,wz,ax,ay,az\n")
    with pytest.raises(EmptyStream):
        load_imu_csv(p)

    # time stamps and landmark ids are signed 64-bit integers
    row = "1,2,3,4,5,6"
    for text, load, line in (
            (f"t_ns,wx,wy,wz,ax,ay,az\n0,{row}\n{2 ** 70},{row}\n", load_imu_csv, 3),
            (f"t_ns,wx,wy,wz,ax,ay,az\n{2 ** 63},{row}\n", load_imu_csv, 2),
            (f"t_ns,wx,wy,wz,ax,ay,az\n{-2 ** 63 - 1},{row}\n", load_imu_csv, 2),
            (f"{TRUTH_HEADER}\n{2 ** 63},1,0,0,0,0,0,0,0,0,0\n", load_truth_csv, 2),
            (f"id,px,py,pz,s\n0,0,0,0,1\n{2 ** 70},0,0,0,1\n", load_map_csv, 3),
            (f"t_ns,id,yx,yy,yz\n0,{2 ** 70},0,0,0\n", load_obs_csv, 2),
            (f"t_ns,id,yx,yy,yz\n{2 ** 63},0,0,0,0\n", load_obs_csv, 2)):
        p.write_text(text)
        with pytest.raises(ParseError) as ei:
            load(p)
        assert str(ei.value).startswith(f"{p}:{line}: integer ")
        assert "outside the signed 64-bit range" in str(ei.value)
    p.write_text(f"t_ns,wx,wy,wz,ax,ay,az\n{-2 ** 63},{row}\n{2 ** 63 - 1},{row}\n")
    assert load_imu_csv(p).t_ns.tolist() == [-2 ** 63, 2 ** 63 - 1]

    # one epoch reads each landmark at most once
    p.write_text("t_ns,id,yx,yy,yz\n0,0,0,0,0\n0,1,0,0,0\n0,0,0,0,0\n"
                 "0,2,0,0,0\n")
    with pytest.raises(ParseError) as ei:
        load_obs_csv(p)
    assert str(ei.value).startswith(f"{p}:4:")
    assert "landmark id 0 repeated" in str(ei.value)

    # scored and estimate-only outputs need strictly increasing time too
    for header, load in ((METRICS_HEADER, load_metrics_csv),
                         (ESTIMATES_HEADER, load_estimates_csv)):
        row = ",".join(["0.0"] * header.count(","))
        p.write_text(f"{header}\n7,{row}\n8,{row}\n8,{row}\n")
        with pytest.raises(NonMonotonicTime) as ei:
            load(p)
        assert str(ei.value).startswith(f"{p}:4:")

    # the first bad line in file order is reported, whatever its fault
    def two_bad(header, bad3, bad5):
        row = ",".join(["0.5"] * header.count(","))
        lines = [header] + [f"{t},{row}" for t in range(4)]
        for lineno, field in ((3, bad3), (5, bad5)):
            lines[lineno - 1] = lines[lineno - 1].rsplit(",", 1)[0] + "," + field
        p.write_text("\n".join(lines) + "\n")

    for header, load in ((TRUTH_HEADER, load_truth_csv),
                         (METRICS_HEADER, load_metrics_csv)):
        two_bad(header, "nan", "oops")
        with pytest.raises(ParseError) as ei:
            load(p)
        assert str(ei.value) == f"{p}:3: non-finite number 'nan'"
        two_bad(header, "oops", "nan")
        with pytest.raises(ParseError) as ei:
            load(p)
        assert str(ei.value) == f"{p}:3: bad number 'oops'"
        two_bad(header, "inf", "0.5,0.5")
        with pytest.raises(ParseError) as ei:
            load(p)
        assert str(ei.value) == f"{p}:3: non-finite number 'inf'"
        two_bad(header, "0.5,0.5", "nan")
        with pytest.raises(ParseError) as ei:
            load(p)
        n = header.count(",") + 1
        assert str(ei.value) == f"{p}:3: expected {n} fields, got {n + 1}"

    # within a line: count, key, its order, then numbers for the time-stamped
    # streams; count, id, numbers, weight, uniqueness for the map; count,
    # time, its order, id, its repeat, numbers for the observations
    for text, load, error, message in (
            (f"{OBS_HEADER}\n5,0,0,0,0\n4,x,0,0,0\n", load_obs_csv, NonMonotonicTime,
             "3: time 4 goes back past 5"),
            (f"{OBS_HEADER}\n5,0,0,0,0\n5,0,nan,0,0\n", load_obs_csv, ParseError,
             "3: landmark id 0 repeated within the epoch at 5 ns"),
            (f"{OBS_HEADER}\n5,0,0,0,0\n4,1,0,0\n", load_obs_csv, ParseError,
             "3: expected 5 fields, got 4"),
            (f"{MAP_HEADER}\n1,0,0,0,1\n1,0,0,0,0\n", load_map_csv, ParseError,
             "3: weight must be positive, got 0.0"),
            (f"{MAP_HEADER}\n1,0,0,0,1\n1,inf,0,0,1\n", load_map_csv, ParseError,
             "3: non-finite number 'inf'"),
            (f"{IMU_HEADER}\n{2 ** 70},oops,0,0,0,0,0\n", load_imu_csv, ParseError,
             f"2: integer '{2 ** 70}' is outside the signed 64-bit range")):
        p.write_text(text)
        with pytest.raises(error) as ei:
            load(p)
        assert type(ei.value) is error and str(ei.value) == f"{p}:{message}"

    with pytest.raises(OSError) as ei:
        load_imu_csv(tmp_path / "missing.csv")
    assert "cannot read" in str(ei.value)


def test_loaders_leave_no_reference_cycle(tmp_path):
    # a cycle would keep each file's text alive until the next collection
    # and raise the peak memory of a replay
    p = tmp_path / "f.csv"
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for header, load in ((IMU_HEADER, load_imu_csv), (TRUTH_HEADER, load_truth_csv),
                             (MAP_HEADER, load_map_csv), (OBS_HEADER, load_obs_csv),
                             (METRICS_HEADER, load_metrics_csv),
                             (ESTIMATES_HEADER, load_estimates_csv)):
            row = ",".join(["1"] * header.count(","))
            p.write_text(f"{header}\n0,{row}\n1,{row}\n")
            load(p)  # a first call may import lazily
            gc.collect()
            load(p)
            assert gc.collect() == 0, load.__name__
    finally:
        if enabled:
            gc.enable()


def test_align_event_ordering():
    imu = _imu_stream()
    truth = TruthStream(imu.t_ns[1:4] + 1, np.tile([1.0, 0, 0, 0], (3, 1)),
                        np.zeros((3, 3)), np.zeros((3, 3)))
    o = LandmarkObservation(np.arange(3), np.zeros((3, 3)))
    obs = [(0, o), (7_500_000, o)]
    instants, held, epochs = align(imu, obs, truth)
    # the distinct instants of all three streams, in time order
    assert instants.dtype == np.int64
    assert instants.tolist() == sorted({*imu.t_ns.tolist(), *truth.t_ns.tolist(), 0,
                                        7_500_000})
    # the inertial sample held at each instant is the last at or before it
    assert held.tolist() == [np.flatnonzero(imu.t_ns <= t)[-1] for t in instants]
    assert epochs == {0: o, 7_500_000: o}
    # truth is optional
    assert len(align(imu, obs)[0]) == len(imu) + 1
    with pytest.raises(EmptyStream) as ei:
        align(ImuStream(imu.t_ns[:0], imu.omega[:0], imu.accel[:0]), obs)
    assert "inertial stream is empty" in str(ei.value)
    with pytest.raises(EmptyStream) as ei:
        align(imu, [])
    assert "cannot correct" in str(ei.value)
    # epochs are looked up by time, so their times strictly increase
    with pytest.raises(ValueError):
        align(imu, [(0, o), (0, o)])


def test_load_landmarks_cross_validation(tmp_path):
    mp, op = tmp_path / "map.csv", tmp_path / "obs.csv"
    write_map_csv(mp, default_landmark_map())

    op.write_text("t_ns,id,yx,yy,yz\n"
                  "0,0,0,0,0\n0,1,0,0,0\n0,2,0,0,0\n")
    lmap, obs = load_landmarks(mp, op)
    assert check_configuration(lmap).ok
    assert len(obs) == 1

    op.write_text("t_ns,id,yx,yy,yz\n0,0,0,0,0\n0,99,0,0,0\n0,2,0,0,0\n")
    with pytest.raises(UnknownLandmarkId):
        load_landmarks(mp, op)

    op.write_text("t_ns,id,yx,yy,yz\n"
                  "0,0,0,0,0\n0,1,0,0,0\n0,2,0,0,0\n"
                  "50000000,3,0,0,0\n50000000,4,0,0,0\n")
    with pytest.raises(InsufficientLandmarks) as ei:
        load_landmarks(mp, op)
    assert "epoch at 50000000 ns has 2 reading(s)" in str(ei.value)


# landmarks 0, 1 and 2 lie on one line; landmark 3 lifts every set it is in off it
LINE_AND_APEX = ("id,px,py,pz,s\n0,0.0,0.0,0.0,1.0\n1,1.0,1.0,0.0,1.0\n"
                 "2,2.0,2.0,0.0,1.0\n3,0.0,1.0,5.0,1.0\n")


def test_load_landmarks_rejects_an_epoch_of_collinear_landmarks(tmp_path, monkeypatch):
    mp, op = tmp_path / "map.csv", tmp_path / "obs.csv"
    mp.write_text(LINE_AND_APEX)
    checked = []
    monkeypatch.setattr(dataio, "check_configuration",
                        lambda lmap: checked.append(lmap.ids.tolist())
                        or check_configuration(lmap))
    # the sets {0, 1, 3}, {0, 1, 2, 3} and {0, 1, 3} again: usable, two checks
    usable = ("t_ns,id,yx,yy,yz\n"
              "0,0,0,0,0\n0,1,0,0,0\n0,3,0,0,0\n"
              "50000000,0,0,0,0\n50000000,1,0,0,0\n50000000,2,0,0,0\n50000000,3,0,0,0\n"
              "100000000,3,0,0,0\n100000000,1,0,0,0\n100000000,0,0,0,0\n")
    op.write_text(usable)
    lmap, obs = load_landmarks(mp, op)
    assert check_configuration(lmap).ok
    assert [t for t, _ in obs] == [0, 50_000_000, 100_000_000]
    assert checked == [[0, 1, 3], [0, 1, 2, 3]]
    # then an epoch that sees only the three on the line
    op.write_text(usable + "150000000,2,0,0,0\n150000000,0,0,0,0\n150000000,1,0,0,0\n")
    with pytest.raises(InsufficientLandmarks) as ei:
        load_landmarks(mp, op)
    assert str(ei.value) == ("epoch at 150000000 ns observes landmarks [2, 0, 1]: "
                             "landmarks are collinear within tolerance")


def test_config_roundtrip_default_and_waypoints(tmp_path):
    p = tmp_path / "run.conf"
    cfg = RunConfig()
    write_config(p, cfg)
    assert parse_config(p) == cfg

    wp = RunConfig(trajectory=TrajectorySpec(
                       kind="waypoints", waypoint_times=(0.0, 1.5, 3.0),
                       waypoint_points=((0.0, 0.0, 0.0), (1.0, 2.0, 0.5),
                                        (3.0, 1.0, 1.0))),
                   gravity_mode=BOTH_GRAVITY,
                   noise=NoiseSpec(std_omega=0.12, std_accel=0.11, seed=17))
    write_config(p, wp)
    back = parse_config(p)
    assert back == wp
    assert back.modes() == ("known", "adaptive")
    assert RunConfig().modes() == ("known",)

    # every key away from its default, so each key's value shape round-trips
    every = config_override(
        RunConfig(), duration=3.5, imu_rate=100.0, obs_rate=25.0, gravity_mode="adaptive",
        representation="quaternion", seed=9, max_correction_dt=0.2,
        noise_std_omega=0.01, noise_std_accel=0.02, noise_std_obs=1.0 / 3.0,
        k_w=2.5, k_v=7.0, k_a=8.0, gamma_sigma=1.5, k_sigma=0.3, gamma_g=1.25,
        mu=0.5, g_ref=(0.1, -0.2, -9.8), init_angle=math.pi / 7.0,
        init_axis=(0.0, 1.0, 2.0), init_pos=(1.0, 2.0, -3.0),
        init_vel=(0.5, -0.25, 0.125), trajectory="waypoints",
        center=(1.0, 2.0, 3.0), amplitude=(0.5, 0.25, 0.1),
        freq=(0.3, 0.2, 0.1), phase=(0.1, 0.2, 0.3), radius=3.0,
        yaw_amp=0.9, yaw_freq=0.45, pitch_amp=0.3, pitch_freq=0.35,
        pitch_phase=0.6, waypoint_times=(0.0, 2.0, 3.5),
        waypoint_points=((5.0, 5.0, 5.0), (6.0, 4.5, 5.5), (5.5, 6.0, 4.0)),
        map_file="survey.csv")
    q = tmp_path / "default.conf"
    write_config(p, every)
    write_config(q, RunConfig())
    lines, defaults = p.read_text().splitlines(), q.read_text().splitlines()
    assert len(lines) == 37
    assert all(a != b for a, b in zip(lines[1:], defaults[1:]))
    assert parse_config(p) == every

    # a string value the reader would cut or strip is refused, not written
    for bad in ("maps/site#2.csv", " lead.csv", "trail.csv ", "two\nlines.csv",
                "two\rlines.csv"):
        q = tmp_path / "refused.conf"
        with pytest.raises(ValidationError) as ei:
            write_config(q, dataclasses.replace(every, map_file=bad))
        assert "map_file" in str(ei.value)
        assert not q.exists()


CONFIG_KEYS = [
    "duration", "imu_rate", "obs_rate", "gravity_mode", "representation",
    "max_correction_dt", "noise_std_omega", "noise_std_accel", "noise_std_obs",
    "seed", "k_w", "k_v", "k_a", "gamma_sigma", "k_sigma", "gamma_g", "mu",
    "g_ref", "init_angle", "init_axis", "init_pos", "init_vel", "trajectory",
    "center", "amplitude", "freq", "phase", "radius", "yaw_amp", "yaw_freq",
    "pitch_amp", "pitch_freq", "pitch_phase", "waypoint_times",
    "waypoint_points", "map_file",
]


def test_config_schema_is_pinned(tmp_path):
    p = tmp_path / "config.txt"
    cfg = config_override(RunConfig(), seed=17, noise_std_obs=0.02)
    write_config(p, cfg)
    lines = p.read_text().splitlines()[1:]
    assert [line.split("=", 1)[0] for line in lines] == CONFIG_KEYS

    # each RunConfig field, and each field of the four specs, owns one key
    specs = {"noise": NoiseSpec, "gains": Gains, "init_error": InitError,
             "trajectory": TrajectorySpec}
    owners = [(f.name, None) for f in dataclasses.fields(RunConfig)
              if f.name not in specs]
    owners += [(name, f.name) for name, spec in specs.items()
               for f in dataclasses.fields(spec)]
    table = [(name, sub) for name, sub, _ in dataio._CONFIG_KEYS.values()]
    assert len(set(table)) == len(table) == len(CONFIG_KEYS)
    assert sorted(table, key=str) == sorted(owners, key=str)

    # key order does not matter to the reader: seed back after representation
    seed = lines.index("seed=17")
    moved = lines[:seed] + lines[seed + 1:]
    moved.insert(CONFIG_KEYS.index("representation") + 1, "seed=17")
    assert moved != lines
    p.write_text("\n".join(moved) + "\n")
    assert parse_config(p) == cfg


def test_config_parse_tolerates_spacing_and_comments(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("# leading comment\n"
                 "\n"
                 "k_w = 5.0   # inline comment\n"
                 "duration=2.0\n"
                 "seed =  3\n")
    cfg = parse_config(p)
    assert cfg.gains.k_w == 5.0 and cfg.duration == 2.0 and cfg.noise.seed == 3
    # untouched keys keep their defaults
    assert cfg.imu_rate == 200.0


def test_config_parse_errors(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("speed=3\n")
    with pytest.raises(ParseError) as ei:
        parse_config(p)
    assert "unknown configuration key 'speed'" in str(ei.value)

    p.write_text("k_w=1\nk_w=2\n")
    with pytest.raises(ParseError) as ei:
        parse_config(p)
    assert "repeated configuration key" in str(ei.value)
    assert str(ei.value).startswith(f"{p}:2:")

    p.write_text("just a line\n")
    with pytest.raises(ParseError) as ei:
        parse_config(p)
    assert "expected key=value" in str(ei.value)

    p.write_text("k_w=fast\n")
    with pytest.raises(ParseError):
        parse_config(p)

    p.write_text("g_ref=1,2\n")
    with pytest.raises(ParseError) as ei:
        parse_config(p)
    assert "three comma-separated" in str(ei.value)


def test_config_validation_rules(tmp_path):
    p = tmp_path / "run.conf"
    cases = [
        ("duration=0.0", "duration must be positive"),
        ("obs_rate=400.0", "cannot outpace"),
        ("obs_rate=30.0", "must divide"),
        ("gravity_mode=sideways", "gravity_mode"),
        ("representation=euler", "representation"),
        ("max_correction_dt=0.0", "max_correction_dt"),
        ("noise_std_obs=-0.1", "nonnegative"),
        ("k_sigma=0.0", "strictly positive"),
        ("init_axis=0.0,0.0,0.0", "init_axis"),
        ("init_axis=1e200,1e200,0", "init_axis: init error axis must have a finite"),
        ("obs_rate=5e-324", "imu_rate, obs_rate"),
        ("trajectory=spiral", "unknown trajectory"),
        ("seed=-1", "seed"),
        ("duration=1e12", "duration, imu_rate"),
        ("imu_rate=2e9", "imu_rate"),
        ("duration=2e-9\nimu_rate=2e9\nobs_rate=1e9", "imu_rate: the inertial step"),
        ("duration=9.5e9\nimu_rate=1e-4\nobs_rate=1e-4", "int64"),
    ]
    for line, needle in cases:
        p.write_text(line + "\n")
        with pytest.raises(ValidationError) as ei:
            parse_config(p)
        assert needle in str(ei.value), line


def test_config_to_scenario_and_override():
    cfg = RunConfig(duration=2.0, gains=Gains(k_w=4.0),
                    noise=NoiseSpec(std_omega=0.12, std_accel=0.11, seed=5))
    lmap = default_landmark_map()
    scn = config_to_scenario(cfg, lmap)
    assert scn.duration == 2.0
    assert scn.gains.k_w == 4.0
    assert scn.noise.seed == 5
    assert scn.noise.std_omega == 0.12
    assert scn.gravity_mode == "known"
    assert_allclose(scn.init_error.pos, (3.0, -2.0, 1.0), atol=0)
    # the default configuration is the reference experiment
    got = config_to_scenario(RunConfig(), lmap)
    ref = default_scenario()
    for name in ("trajectory", "gains", "init_error", "duration", "imu_rate",
                 "obs_rate", "gravity_mode", "g_ref", "noise",
                 "max_correction_dt"):
        assert getattr(got, name) == getattr(ref, name), name

    both = dataclasses.replace(cfg, gravity_mode=BOTH_GRAVITY)
    with pytest.raises(ValidationError):
        config_to_scenario(both, lmap)
    assert config_to_scenario(both, lmap, gravity_mode="adaptive").gravity_mode \
        == "adaptive"

    with pytest.raises(ValidationError):
        config_override(cfg, duration=-1.0)
    assert config_override(cfg, duration=5.0).duration == 5.0
    # the original is untouched
    assert cfg.duration == 2.0
    # overrides take the file's keys and keep a spec's other fields
    assert config_override(cfg, seed=9, noise_std_obs=0.02).noise == NoiseSpec(
        std_omega=0.12, std_accel=0.11, std_obs=0.02, seed=9)
    with pytest.raises(ValidationError) as ei:
        config_override(cfg, k_w=0.0)
    assert "k_w" in str(ei.value)


def test_config_shape_lookup_rejects_unknown_default():
    @dataclasses.dataclass
    class WithFlag:
        verbose: bool = False

    with pytest.raises(TypeError) as ei:
        dataio._config_codec(dataclasses.fields(WithFlag)[0])
    assert "verbose" in str(ei.value)
