"""The benchmark's per-layer tracer names only functions that exist.

``bench/run.py --trace 1`` wraps every ``(module, function)`` of
``bench/tracer.py``'s ``TARGETS``; a function removed from the package would
break that run, which the benchmark's own tests (outside this suite) would
be the first to notice.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

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
