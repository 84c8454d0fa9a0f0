"""Command-line harness: exit codes, recorded run layout, replay closure."""

from __future__ import annotations

import shutil
import subprocess
import sys

import numpy as np
import pytest

from se23nav.cli import main
from se23nav.dataio import (load_estimates_csv, load_metrics_csv, parse_config)

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
    parts[1] = "0.5"
    lines[-1] = ",".join(parts)
    recorded.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 3
    err = capsys.readouterr().err
    assert "does not match" in err


def test_replay_without_recorded_metrics(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf")
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(conf), "--out-dir", str(out)]) == 0
    (out / "metrics.csv").unlink()
    capsys.readouterr()
    assert main(["replay", "--out-dir", str(out)]) == 0
    assert "nothing to compare" in capsys.readouterr().out


def test_replay_without_truth_writes_estimates(tmp_path, capsys):
    conf = write_conf(tmp_path / "run.conf")
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
    assert parse_config(out / "config.txt").seed == 42


def test_console_entry_point_smoke():
    script = shutil.which("se23nav")
    cmd = [script] if script else [sys.executable, "-m", "se23nav.cli"]
    proc = subprocess.run(cmd + ["selftest", "--quick"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest passed" in proc.stdout
