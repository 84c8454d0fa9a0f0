"""What the benchmark relies on still exists.

``bench/run.py --trace 1`` wraps every ``(module, function)`` of
``bench/tracer.py``'s ``TARGETS``; a function removed from the package would
break that run, which the benchmark's own tests (outside this suite) would
be the first to notice.  ``bench/workloads.py`` also reads the synthesized
streams row by row and passes them to ``run_closed_loop`` as they come.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import se23nav as nav
from se23nav import dataio

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("se23nav_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_tracer_targets_resolve_to_package_functions():
    targets = _tracer_targets()
    assert targets
    for module, name, _ in targets:
        obj = getattr(importlib.import_module(f"se23nav.{module}"), name, None)
        assert callable(obj), f"se23nav.{module}.{name} is not a function"


def _check_stream_views(truth, imu, observations, scn):
    """What ``bench/workloads.py`` reads from the streams, read the same way."""
    n = round(scn.duration * scn.imu_rate) + 1
    assert len(imu) == len(truth) == n
    rows = [(s.t_ns, s.omega, s.accel) for s in imu]
    assert len(rows) == n
    for t_ns, omega, accel in rows:
        assert type(t_ns) is int
        assert np.shape(omega) == np.shape(accel) == (3,)
    epochs = {int(t): o for t, o in observations}
    for t_ns, _, _ in rows:
        epochs.pop(t_ns, None)
    assert not epochs  # every epoch falls on an inertial instant
    first, last = truth[0].nav(), truth[-1].nav()
    assert np.array_equal(last.p, truth.pos[-1]) and first.r.shape == (3, 3)
    init = nav.apply_init_error(first, scn.init_error)
    result = nav.run_closed_loop(
        truth, imu, observations, scn.lmap, scn.gains, init,
        gravity_mode=scn.gravity_mode, g_ref=np.asarray(scn.g_ref, dtype=float),
        obs_nominal_dt=1.0 / scn.obs_rate, max_correction_dt=scn.max_correction_dt)
    assert len(result) == n and result.final_state is not None


def test_streams_read_as_the_benchmark_reads_them(tmp_path):
    scn = dataclasses.replace(nav.default_scenario(noisy=True, seed=1), duration=0.5)
    truth, imu, observations = nav.build_streams(scn)
    _check_stream_views(truth, imu, observations, scn)
    dataio.write_truth_csv(tmp_path / "truth.csv", truth)
    dataio.write_imu_csv(tmp_path / "imu.csv", imu)
    dataio.write_obs_csv(tmp_path / "obs.csv", observations)
    _check_stream_views(dataio.load_truth_csv(tmp_path / "truth.csv"),
                        dataio.load_imu_csv(tmp_path / "imu.csv"),
                        dataio.load_obs_csv(tmp_path / "obs.csv"), scn)


def test_stream_contract_rejects_malformed_columns():
    t = np.arange(3, dtype=np.int64)
    cols = np.zeros((3, 3))
    nav.ImuStream(t, cols, cols)
    for bad_t, omega in ((np.array([0, 1, 1]), cols),  # a repeated time
                         (np.array([2, 1, 3]), cols),  # time going back
                         (t.astype(float), cols),  # not int64
                         (t.astype(np.int32), cols),
                         ([0, 1, 2], cols),  # not an array
                         (t[:, None], cols),  # not 1-D
                         (t, cols[:2])):  # columns of unequal length
        with pytest.raises(ValueError):
            nav.ImuStream(bad_t, omega, cols)
    with pytest.raises(ValueError):
        nav.TruthStream(t, np.zeros((2, 4)), cols, cols)


def test_scenario_as_the_benchmark_builds_it():
    """``bench/workloads.py::streaming_scenario`` passes exactly these keywords
    and takes the rest from the defaults."""
    ref = nav.default_scenario()
    scn = nav.Scenario(trajectory=ref.trajectory, lmap=ref.lmap, gains=ref.gains,
                       init_error=ref.init_error, duration=1.0, imu_rate=200.0,
                       obs_rate=50.0, gravity_mode=nav.ADAPTIVE_GRAVITY,
                       noise=nav.NoiseSpec(std_obs=0.02, seed=3))
    assert scn.g_ref == tuple(nav.GRAVITY_ENU.tolist())
    assert scn.max_correction_dt == 0.1
    assert scn.representation == nav.MATRIX
    # the defaults are the reference experiment's, field for field
    bare = nav.Scenario(lmap=nav.default_landmark_map())
    for f in dataclasses.fields(nav.Scenario):
        a, b = getattr(bare, f.name), getattr(ref, f.name)
        if f.name == "lmap":
            assert all(np.array_equal(getattr(a, k), getattr(b, k))
                       for k in ("ids", "positions", "weights"))
        else:
            assert a == b, f.name
    with pytest.raises(TypeError):  # a positional call cannot bind to a moved field
        nav.Scenario(ref.trajectory, ref.lmap)
