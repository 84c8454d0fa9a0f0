"""Command-line harness: exit codes, recorded run layout, replay closure."""

from __future__ import annotations

import contextlib
import io
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from se23nav.cli import main
from se23nav.dataio import (_CONFIG_KEYS, load_estimates_csv, load_metrics_csv,
                            parse_config)

TWO_LANDMARKS = "id,px,py,pz,s\n1,0.0,0.0,0.0,1.0\n2,1.0,0.0,0.0,1.0\n"
COLLINEAR = ("id,px,py,pz,s\n"
             "1,0.0,0.0,0.0,1.0\n"
             "2,1.0,1.0,-0.5,1.0\n"
             "3,2.0,2.0,-1.0,1.0\n"
             "4,3.5,3.5,-1.75,1.0\n")


def write_conf(path, **overrides):
    base = {"duration": "2.0", "imu_rate": "50.0", "obs_rate": "10.0"}
    base.update(overrides)
    path.write_text("".join(f"{k}={v}\n" for k, v in base.items()))
    return path


def test_selftest_quick_passes(capsys):
    assert main(["selftest", "--quick"]) == 0
    out = capsys.readouterr().out
    assert "[  ok  ]" in out
    assert "selftest passed" in out
    assert "FAIL" not in out


def test_selftest_fault_injection_fails(capsys):
    assert main(["selftest", "--quick", "--inject-fault"]) == 1
    out = capsys.readouterr().out
    assert "[ FAIL ]" in out
    assert "fault injection active" in out
    assert "selftest failed" in out


def test_simulate_records_run_directory(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    for name in ("truth.csv", "imu.csv", "obs.csv", "map.csv", "config.txt",
                 "metrics.csv"):
        assert (out / name).exists(), name
    text = capsys.readouterr().out
    assert "mode known" in text
    assert "run recorded" in text
    assert parse_config(out / "config.txt").duration == 2.0


def test_replay_is_bit_exact(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf", noise_std_omega="0.12",
                      noise_std_accel="0.11", seed="6")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "bit-exact match" in text
    assert (out / "metrics_replay.csv").read_bytes() == \
        (out / "metrics.csv").read_bytes()


def test_replay_detects_tampering(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    recorded = out / "metrics.csv"
    lines = recorded.read_text().splitlines()
    parts = lines[-1].split(",")
    replayed_att = parts[1]
    parts[1] = "0.5"
    lines[-1] = ",".join(parts)
    recorded.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "does not match" in err
    # the message names the first differing row and column, with both values
    assert (f"t_ns={parts[0]}, column att_err: recorded 0.5, "
            f"replayed {replayed_att}") in err


def test_replay_without_recorded_metrics(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    (out / "metrics.csv").unlink()
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


_TRAJECTORY_KEYS = {
    "lissajous": {},
    "circle": {"trajectory": "circle"},
    "hover": {"trajectory": "hover"},
    "waypoints": {"trajectory": "waypoints", "waypoint_times": "0.0,1.0,2.5",
                  "waypoint_points": "5.0,5.0,5.0;6.0,5.5,5.2;7.0,4.0,5.4"},
}


@pytest.mark.parametrize("kind", sorted(_TRAJECTORY_KEYS))
def test_replay_without_truth_writes_estimates(tmp_path, capsys, kind):
    conf = write_conf(tmp_path / "run.conf", **_TRAJECTORY_KEYS[kind])
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    recorded = load_metrics_csv(out / "metrics.csv")
    (out / "truth.csv").unlink()
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert "no ground truth recorded" in text
    assert "final position" in text
    unscored = load_estimates_csv(out / "estimates_replay.csv")
    assert len(unscored) == len(recorded)
    # the estimate-only replay walks the identical state trajectory
    for row, est in zip(recorded, unscored):
        assert row.t_ns == est.t_ns
        assert est.att is None and est.pos is None
        assert np.array_equal(row.quat, est.quat)
        assert np.array_equal(row.p_est, est.p_est)
        assert np.array_equal(row.v_est, est.v_est)
        assert np.array_equal(row.sigma, est.sigma)
        assert np.array_equal(row.g_hat, est.g_hat)


def test_bad_configuration_exits_2(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf", gravity_mode="sideways")
    assert main(["simulate", "--config", str(conf),
                 "--out-dir", str(tmp_path / "run")]) == 2
    assert "error:" in capsys.readouterr().err

    conf2 = tmp_path / "broken.conf"
    conf2.write_text("no equals sign here\n")
    assert main(["simulate", "--config", str(conf2),
                 "--out-dir", str(tmp_path / "run2")]) == 2
    assert "expected key=value" in capsys.readouterr().err

    # the rate ratio overflows although both rates are positive and finite
    conf3 = write_conf(tmp_path / "ratio.conf", imu_rate="20.0", obs_rate="5e-324")
    assert main(["simulate", "--config", str(conf3),
                 "--out-dir", str(tmp_path / "run3")]) == 2
    assert "imu_rate, obs_rate" in capsys.readouterr().err


def test_corrupt_and_missing_inputs_exit_4(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0

    imu = out / "imu.csv"
    lines = imu.read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",not-a-number"
    imu.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 4
    err = capsys.readouterr().err
    assert "imu.csv:4:" in err

    (out / "obs.csv").unlink()
    assert main(["replay", "--out-dir", str(out)]) == 4
    assert "cannot read" in capsys.readouterr().err

    assert main(["replay", "--out-dir", str(tmp_path / "nowhere")]) == 4

    # a time stamp past the int64 clock is malformed data, not a longer run
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    lines = imu.read_text().splitlines()
    lines[-1] = str(2 ** 70) + lines[-1][lines[-1].index(","):]
    imu.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 4
    assert f"imu.csv:{len(lines)}: integer '{2 ** 70}'" in capsys.readouterr().err


def test_degenerate_maps_exit_3(tmp_path, capsys):
    (tmp_path / "map2.csv").write_text(TWO_LANDMARKS)
    conf = write_conf(tmp_path / "two.conf", map_file="map2.csv")
    assert main(["simulate", "--config", str(conf),
                 "--out-dir", str(tmp_path / "r2")]) == 3
    err = capsys.readouterr().err
    assert "unusable" in err and "at least 3 are required" in err

    (tmp_path / "map3.csv").write_text(COLLINEAR)
    conf = write_conf(tmp_path / "line.conf", map_file="map3.csv")
    assert main(["simulate", "--config", str(conf),
                 "--out-dir", str(tmp_path / "r3")]) == 3
    assert "collinear" in capsys.readouterr().err


def test_replay_rejects_unknown_landmark_id(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    obs = out / "obs.csv"
    lines = obs.read_text().splitlines()
    parts = lines[1].split(",")
    parts[1] = "99"
    lines[1] = ",".join(parts)
    obs.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 3
    assert "unknown landmark id" in capsys.readouterr().err


def test_replay_of_an_epoch_of_collinear_landmarks_exits_3(tmp_path, capsys):
    # the map is usable as a whole: the fourth landmark lies off the line
    (tmp_path / "map.csv").write_text(COLLINEAR.replace("4,3.5,3.5,-1.75", "4,0.0,3.0,2.0"))
    conf = write_conf(tmp_path / "run.conf", map_file="map.csv")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    obs = out / "obs.csv"
    lines = obs.read_text().splitlines()
    # the fourth landmark's reading of the second epoch goes missing
    t, i = lines[8].split(",")[:2]
    assert (t, i) == ("100000000", "4")
    obs.write_text("\n".join(lines[:8] + lines[9:]) + "\n")
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "error: epoch at 100000000 ns observes landmarks [1, 2, 3]" in err
    assert "collinear" in err


def test_both_modes_record_and_replay(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf", noise_std_omega="0.12",
                      noise_std_accel="0.11", seed="3")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out),
                 "--mode", "both"]) == 0
    assert (out / "metrics_known.csv").exists()
    assert (out / "metrics_adaptive.csv").exists()
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 0
    text = capsys.readouterr().out
    assert text.count("bit-exact match") == 2
    assert (out / "metrics_known_replay.csv").exists()
    assert (out / "metrics_adaptive_replay.csv").exists()


@pytest.mark.parametrize("mode", ["known", "adaptive"])
def test_mode_flag_takes_config_vocabulary(tmp_path, capsys, mode):
    conf = write_conf(tmp_path / "run.conf", gravity_mode="both")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out),
                 "--mode", mode]) == 0
    assert parse_config(out / "config.txt").gravity_mode == mode
    assert (out / "metrics.csv").exists()
    assert f"mode {mode}:" in capsys.readouterr().out


def test_seed_flag_is_recorded(tmp_path):
    conf = write_conf(tmp_path / "run.conf", noise_std_omega="0.05")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out),
                 "--seed", "42"]) == 0
    assert parse_config(out / "config.txt").noise.seed == 42


def test_negative_seed_flag_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--quick", "--seed", "-1",
                 "--out-dir", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_oversized_time_grid_is_a_config_error(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf", duration="1e12")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 2
    assert "duration, imu_rate" in capsys.readouterr().err
    assert not out.exists()


def _main_without_runtime_warnings(argv) -> int:
    """``main(argv)``, requiring that it let numpy print no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code


def test_kernel_overflow_exits_3(tmp_path, capsys):
    for key, value in (("amplitude", "1e160,1.5,0.8"), ("center", "1e308,0,0"),
                       ("noise_std_obs", "1e308")):
        conf = write_conf(tmp_path / f"{key}.conf", **{key: value})
        out = tmp_path / key
        argv = ["simulate", "--config", str(conf), "--out-dir", str(out)]
        assert _main_without_runtime_warnings(argv) == 3, key
        assert "error: observer state left the finite range" in capsys.readouterr().err
        # the engine runs before anything is written, so a failed run records nothing
        assert list(out.glob("*")) == []


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    """A recorded 0.2 s run with reading noise: every input file is present."""
    base = tmp_path_factory.mktemp("recorded")
    conf = write_conf(base / "run.conf", duration="0.2", noise_std_obs="0.02", seed="2")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["simulate", "--config", str(conf), "--out-dir", str(base / "run")]) == 0
    return base / "run"


def test_overflowing_truth_replay_exits_3(recorded_run, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(recorded_run, out)
    lines = (out / "truth.csv").read_text().splitlines()
    fields = lines[3].split(",")
    fields[5] = "1e300"  # px: the position error squares past the float range
    lines[3] = ",".join(fields)
    (out / "truth.csv").write_text("\n".join(lines) + "\n")
    assert _main_without_runtime_warnings(["replay", "--out-dir", str(out)]) == 3
    assert "error: an error norm against truth is not finite" in capsys.readouterr().err


_HOSTILE = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e308", "-1e308", "", " ", "x",
                     "1.5.2", "0x10", "-0.0", "1e-320", str(2 ** 63 - 1), str(-2 ** 63),
                     str(2 ** 63), str(-2 ** 63 - 1), str(2 ** 64), str(2 ** 70)]),
    st.floats().map(repr),
    st.integers(-2 ** 64, 2 ** 64).map(str))


@pytest.mark.parametrize("name", ["imu.csv", "truth.csv", "obs.csv", "map.csv"])
@given(truncate=st.none() | st.floats(0.0, 1.0),
       edits=st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 20), _HOSTILE),
                      min_size=1, max_size=3))
def test_replay_of_hostile_csv_never_raises(recorded_run, name, truncate, edits):
    """Edits 1-3 fields of one recorded file, or truncates it."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run"
        shutil.copytree(recorded_run, out)
        path = out / name
        text = path.read_text()
        if truncate is not None:
            text = text[:round(truncate * len(text))]
        else:
            lines = [line.split(",") for line in text.splitlines()]
            for line, field, value in edits:  # the header stays: it would mask the rest
                fields = lines[1 + line % (len(lines) - 1)]
                fields[field % len(fields)] = value
            text = "\n".join(",".join(f) for f in lines) + "\n"
        path.write_text(text)
        sink = io.StringIO()
        with (contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink),
              warnings.catch_warnings(), np.errstate(all="ignore")):
            warnings.simplefilter("ignore")
            code = main(["replay", "--out-dir", str(out)])
    assert code in (0, 2, 3, 4), sink.getvalue()


# Sizes come only from these values: the sample cap, the one-sample floor and
# the int64 clock then reject every grid too large to build.
_EXTREMES = ["0", "-0.0", "5e-324", "-5e-324", "1e-308", "-1e-308", "1e308", "-1e308",
             "1e200", "1e-200"]
_CONFIG_VALUE = st.one_of(
    st.sampled_from(_EXTREMES),
    st.lists(st.sampled_from(_EXTREMES), min_size=3, max_size=3).map(",".join),
    st.integers(2 ** 31, 2 ** 256).map(str),
    st.sampled_from(["", "x", "1,2", "1;2;3", "0x10", "1e", "--1", "known", "both",
                     "quaternion", "waypoints", "hover", "0,1", "0,0,0;1,1,1"]))
_CONFIG_EDIT = st.sampled_from(list(_CONFIG_KEYS)).flatmap(lambda key: st.tuples(
    st.just(key),
    st.sampled_from(_EXTREMES) if key in ("duration", "imu_rate", "obs_rate")
    else _CONFIG_VALUE))


@given(edits=st.lists(_CONFIG_EDIT, min_size=1, max_size=3, unique_by=lambda e: e[0]))
def test_simulate_of_hostile_config_never_raises(edits):
    """Sets 1-3 keys of a 0.2 s, 20 Hz / 10 Hz configuration."""
    with tempfile.TemporaryDirectory() as tmp:
        base = {"duration": "0.2", "imu_rate": "20.0", "obs_rate": "10.0"}
        conf = write_conf(Path(tmp) / "run.conf", **(base | dict(edits)))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = _main_without_runtime_warnings(
                ["simulate", "--config", str(conf), "--out-dir", str(Path(tmp) / "run")])
    assert code in (0, 2, 3, 4), sink.getvalue()


def test_console_entry_point_smoke():
    script = shutil.which("se23nav")
    cmd = [script] if script else [sys.executable, "-m", "se23nav.cli"]
    proc = subprocess.run(cmd + ["selftest", "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
