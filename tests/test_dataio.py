"""File formats: byte-exact roundtrips, located parse errors, configuration
validation."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from se23nav import (InsufficientLandmarks, LandmarkMap, LandmarkObservation,
                     UnknownLandmarkId, check_configuration, dataio)
from se23nav.dataio import (BOTH_GRAVITY, ESTIMATES_HEADER, METRICS_HEADER,
                            EmptyStream, NonMonotonicTime, ParseError,
                            RunConfig, ValidationError, align,
                            config_override, config_to_scenario,
                            load_estimates_csv, load_imu_csv, load_landmarks,
                            load_map_csv, load_metrics_csv, load_obs_csv,
                            load_truth_csv, parse_config, write_config,
                            write_estimates_csv, write_imu_csv, write_map_csv,
                            write_metrics_csv, write_obs_csv, write_truth_csv)
from se23nav.simulator import (ImuSample, MetricsRow, TruthSample,
                               default_landmark_map)

AWKWARD = [math.pi, 1.0 / 3.0, -2.5e-7, 9.81, -1.0, 0.0]


def _imu_stream():
    return [ImuSample(5_000_000 * k,
                      np.array([math.sin(k), 1.0 / (k + 3), -k * 0.1]),
                      np.array([k * 0.01, math.sqrt(k + 1), AWKWARD[k % 6]]))
            for k in range(7)]


def test_imu_roundtrip_is_byte_exact(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    stream = _imu_stream()
    write_imu_csv(a, stream)
    loaded = load_imu_csv(a)
    write_imu_csv(b, loaded)
    assert a.read_bytes() == b.read_bytes()
    for s, l in zip(stream, loaded):
        assert s.t_ns == l.t_ns
        assert np.array_equal(s.omega, l.omega)
        assert np.array_equal(s.accel, l.accel)


def test_truth_roundtrip_is_byte_exact(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    stream = [TruthSample(10_000_000 * k,
                          np.array([1.0, 0.0, math.sin(k * 0.1), 0.25]),
                          np.array([k * 0.5, -k, 2.0]),
                          np.array([0.1, AWKWARD[k % 6], -0.3]))
              for k in range(5)]
    write_truth_csv(a, stream)
    loaded = load_truth_csv(a)
    write_truth_csv(b, loaded)
    assert a.read_bytes() == b.read_bytes()
    assert all(np.array_equal(s.quat, l.quat) for s, l in zip(stream, loaded))


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
            t=t_ns / 1e9, ids=np.arange(3 + k % 2),
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
    rows = [MetricsRow(t_ns=5_000_000 * k, att=0.1 * k, pos=k + 0.5,
                       vel=1.0 / (k + 2), grav=0.0,
                       quat=np.array([1.0, 0.0, 0.0, 0.0]),
                       p_est=np.full(3, k * math.pi),
                       v_est=np.array([0.1, 0.2, 0.3]),
                       sigma=np.zeros(3),
                       g_hat=np.array([0.0, 0.0, -9.81]))
            for k in range(4)]
    a, b = tmp_path / "m1.csv", tmp_path / "m2.csv"
    write_metrics_csv(a, rows)
    loaded = load_metrics_csv(a)
    write_metrics_csv(b, loaded)
    assert a.read_bytes() == b.read_bytes()
    assert loaded[2].pos == rows[2].pos

    # estimate-only rows carry no error norms; the estimates file drops them
    unscored = [MetricsRow(t_ns=5_000_000 * k, att=None, pos=None, vel=None,
                           grav=None, quat=np.array([0.5, 0.5, 0.5, 0.5]),
                           p_est=np.array([1.0, 2.0, 3.0]) * k,
                           v_est=np.zeros(3), sigma=np.full(3, 0.25),
                           g_hat=np.zeros(3))
                for k in range(3)]
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

    with pytest.raises(OSError) as ei:
        load_imu_csv(tmp_path / "missing.csv")
    assert "cannot read" in str(ei.value)


def test_align_event_ordering():
    imu = _imu_stream()[:3]
    truth = [TruthSample(s.t_ns, np.array([1.0, 0, 0, 0]), np.zeros(3),
                         np.zeros(3)) for s in imu]
    obs = [(0, LandmarkObservation(0.0, np.arange(3), np.zeros((3, 3))))]
    events = align(imu, obs, truth)
    at_zero = [kind for t, kind, _ in events if t == 0]
    assert at_zero == [0, 1, 2]
    assert [t for t, _, _ in events] == sorted(t for t, _, _ in events)
    # truth is optional
    assert len(align(imu, obs)) == len(imu) + 1
    with pytest.raises(EmptyStream) as ei:
        align([], obs)
    assert "inertial stream is empty" in str(ei.value)
    with pytest.raises(EmptyStream) as ei:
        align(imu, [])
    assert "cannot correct" in str(ei.value)


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


def test_config_roundtrip_default_and_waypoints(tmp_path):
    p = tmp_path / "run.conf"
    cfg = RunConfig()
    write_config(p, cfg)
    assert parse_config(p) == cfg

    wp = RunConfig(trajectory="waypoints",
                   waypoint_times=(0.0, 1.5, 3.0),
                   waypoint_points=((0.0, 0.0, 0.0), (1.0, 2.0, 0.5),
                                    (3.0, 1.0, 1.0)),
                   gravity_mode=BOTH_GRAVITY, seed=17,
                   noise_std_omega=0.12, noise_std_accel=0.11)
    write_config(p, wp)
    back = parse_config(p)
    assert back == wp
    assert back.modes() == ("known", "adaptive")
    assert RunConfig().modes() == ("known",)

    # every key away from its default, so each key's value shape round-trips
    every = RunConfig(
        duration=3.5, imu_rate=100.0, obs_rate=25.0, gravity_mode="adaptive",
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
    default = RunConfig()
    assert all(getattr(every, f.name) != getattr(default, f.name)
               for f in dataclasses.fields(RunConfig))
    write_config(p, every)
    assert parse_config(p) == every

    # a string value the reader would cut or strip is refused, not written
    for bad in ("maps/site#2.csv", " lead.csv", "trail.csv ", "two\nlines.csv",
                "two\rlines.csv"):
        q = tmp_path / "refused.conf"
        with pytest.raises(ValidationError) as ei:
            write_config(q, dataclasses.replace(every, map_file=bad))
        assert "map_file" in str(ei.value)
        assert not q.exists()


def test_config_parse_tolerates_spacing_and_comments(tmp_path):
    p = tmp_path / "run.conf"
    p.write_text("# leading comment\n"
                 "\n"
                 "k_w = 5.0   # inline comment\n"
                 "duration=2.0\n"
                 "seed =  3\n")
    cfg = parse_config(p)
    assert cfg.k_w == 5.0 and cfg.duration == 2.0 and cfg.seed == 3
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
        ("trajectory=spiral", "unknown trajectory"),
    ]
    for line, needle in cases:
        p.write_text(line + "\n")
        with pytest.raises(ValidationError) as ei:
            parse_config(p)
        assert needle in str(ei.value), line


def test_config_to_scenario_and_override():
    cfg = RunConfig(duration=2.0, seed=5, noise_std_omega=0.12,
                    noise_std_accel=0.11, k_w=4.0)
    lmap = default_landmark_map()
    scn = config_to_scenario(cfg, lmap)
    assert scn.duration == 2.0
    assert scn.gains.k_w == 4.0
    assert scn.noise.seed == 5
    assert scn.noise.std_omega == 0.12
    assert scn.gravity_mode == "known"
    assert_allclose(scn.init_error.pos, (3.0, -2.0, 1.0), atol=0)

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


def test_config_shape_lookup_rejects_unknown_default():
    @dataclasses.dataclass
    class WithFlag:
        verbose: bool = False

    with pytest.raises(TypeError) as ei:
        dataio._config_codec(dataclasses.fields(WithFlag)[0])
    assert "verbose" in str(ei.value)
