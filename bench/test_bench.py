"""Self-tests of the benchmark: tracing must not change what a workload
computes, must leave every se23nav binding as it found it, and its counts
must repeat exactly.

    python3 -m pytest bench -q
"""

import io
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import se23nav as nav  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads as wls  # noqa: E402

# Long enough for the 170-degree initial error to converge, short enough
# for a quick test.
DURATION = 6.0


def fingerprint(output) -> bytes:
    if isinstance(output, nav.RunResult):
        return np.array([[r.t_ns, r.att, r.pos, r.vel, r.grav, *r.quat, *r.p_est,
                          *r.v_est, *r.sigma, *r.g_hat] for r in output.rows]).tobytes()
    if isinstance(output, nav.ObserverState):
        return b"".join(a.tobytes() for a in (output.nav.r, output.nav.p, output.nav.v,
                                              output.sigma_hat, output.g_hat))
    return b"".join(name.encode() + data for name, data in sorted(output.items()))


def workload(name, tmp_path):
    wl = wls.make(name, 3, tmp_path / "work", duration=DURATION)
    wl.keep_outputs = True
    wl.setup(0)
    return wl


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_tracing_changes_no_output_and_restores_bindings(name, tmp_path):
    wl = workload(name, tmp_path)
    before = tr.snapshot_bindings()
    plain = [wl.trace_op(i) for i in wl.trace_ops]
    tracer = tr.Tracer()
    with tracer:
        assert nav.predict is not before[("se23nav", "predict")]
        traced = [wl.trace_op(i) for i in wl.trace_ops]
    after = tr.snapshot_bindings()
    wl.close()

    assert after.keys() == before.keys()
    moved = [k for k in before if after[k] is not before[k]]
    assert not moved, f"bindings not restored: {moved}"
    assert all(op.ok for op in plain + traced)
    assert [fingerprint(op.output) for op in traced] == \
        [fingerprint(op.output) for op in plain]
    assert sum(tracer.calls.values()) > 0


def test_every_imported_name_is_rebound():
    import se23nav.observer as observer
    import se23nav.simulator as simulator
    original = nav.predict
    with tr.Tracer():
        assert simulator.predict is observer.predict is nav.predict
        assert nav.predict is not original and nav.predict.__wrapped__ is original
        assert observer.so3_gammas is sys.modules["se23nav.liegroup"].so3_gammas
        assert observer.aggregate is sys.modules["se23nav.measurement"].aggregate


def test_bindings_restored_after_an_exception():
    before = tr.snapshot_bindings()
    with pytest.raises(RuntimeError):
        with tr.Tracer():
            raise RuntimeError("boom")
    after = tr.snapshot_bindings()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat_exactly(name, tmp_path):
    wl = workload(name, tmp_path)
    try:
        metrics, counts, attempted, failed, problems = run.trace_phase(
            wl, 0.0, io.StringIO())
    finally:
        wl.close()
    assert counts["rounds"] >= 2
    assert failed == 0 and not problems
    assert all(value > 0 for value, _ in metrics.values())
    if name != "battery":
        assert run.SHARED_LAYERS <= metrics.keys()
    if name == "battery":
        assert metrics["observer.predict.calls"][0] == 2 * round(DURATION * 200)
        assert metrics["measurement.aggregate.calls"][0] == 2 * (round(DURATION * 20) + 1)
    if name == "record-replay":
        assert metrics["dataio.bytes_written"][0] > metrics["dataio.bytes_read"][0] > 0


def test_count_self_check_has_teeth(tmp_path):
    wl = workload("battery", tmp_path)
    wl.expected_calls = lambda: {"observer.predict": 1}
    _, _, _, _, problems = run.trace_phase(wl, 0.0, io.StringIO())
    assert problems and "observer.predict" in problems[0]


def test_per_layer_list_is_the_shared_layers():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in bench["per_layer"]} == run.SHARED_LAYERS
