"""Outside-in per-layer tracer for the se23nav benchmark.

The tracer wraps public functions of the ``se23nav`` modules from outside
the package: nothing under ``src/`` knows it exists.  Modules import each
other's functions by name (``simulator`` holds its own reference to
``observer.predict``, ``observer`` to ``liegroup.so3_gammas``, and so on),
so patching only the defining module would miss most calls.  Installing the
tracer therefore rebinds *every* name, in every loaded ``se23nav`` module
namespace, that refers to a traced function object, and restoring puts the
same original objects back.

Spans are kept in memory: a stack holds, for each open span, the time its
traced children took.  When a span closes its self time (duration minus
child time) and call count are added to per-function totals, and its full
duration is charged to the parent as child time.  Byte counts of the CSV
layer are computed from the size of the file a reader or writer was given,
not measured at the device.
"""

from __future__ import annotations

import functools
import os
import sys
import time

# (module, function, io) for every traced layer boundary; io is "w" for a
# writer and "r" for a reader whose first argument is the file path.
TARGETS = (
    ("liegroup", "so3_gammas", None),
    ("liegroup", "nav_error", None),
    ("liegroup", "so3_distance", None),
    ("quaternion", "rot_to_quat", None),
    ("quaternion", "quat_to_rot", None),
    ("quaternion", "quat_product", None),
    ("quaternion", "quat_from_rotvec", None),
    ("measurement", "aggregate", None),
    ("measurement", "synthesize_observation", None),
    ("measurement", "check_configuration", None),
    ("observer", "predict", None),
    ("observer", "correct", None),
    ("observer", "compute_corrections", None),
    ("observer", "error_metrics", None),
    ("observer", "predict_quaternion", None),
    ("observer", "correct_quaternion", None),
    ("simulator", "build_streams", None),
    ("simulator", "run_closed_loop", None),
    ("simulator", "run_scenario", None),
    ("dataio", "write_imu_csv", "w"),
    ("dataio", "write_truth_csv", "w"),
    ("dataio", "write_obs_csv", "w"),
    ("dataio", "write_metrics_csv", "w"),
    ("dataio", "write_map_csv", "w"),
    ("dataio", "write_config", "w"),
    ("dataio", "load_imu_csv", "r"),
    ("dataio", "load_truth_csv", "r"),
    ("dataio", "load_obs_csv", "r"),
    ("dataio", "load_map_csv", "r"),
    ("dataio", "parse_config", "r"),
    ("dataio", "load_landmarks", None),
    ("dataio", "align", None),
    ("cli", "main", None),
    ("cli", "run_simulate", None),
    ("cli", "run_replay", None),
)

MODULES = tuple(dict.fromkeys(m for m, _, _ in TARGETS))

PACKAGE = "se23nav"


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager that traces :data:`TARGETS` while it is active.

    ``calls`` and ``self_s`` map ``"<module>.<function>"`` to totals that
    accumulate over every activation of this tracer.
    """

    def __init__(self):
        self.calls = {f"{m}.{f}": 0 for m, f, _ in TARGETS}
        self.self_s = {f"{m}.{f}": 0.0 for m, f, _ in TARGETS}
        self.bytes_written = 0
        self.bytes_read = 0
        self._stack: list[float] = []
        self._patched: list = []

    def _wrap(self, key: str, fn, io):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                tracer.calls[key] += 1
                tracer.self_s[key] += dur - child
                if stack:
                    stack[-1] += dur
            if io == "w":
                tracer.bytes_written += os.path.getsize(args[0])
            elif io == "r":
                tracer.bytes_read += os.path.getsize(args[0])
            return result

        return traced

    def __enter__(self):
        modules = _package_modules()
        try:
            for mod_name, fn_name, io in TARGETS:
                home = sys.modules[f"{PACKAGE}.{mod_name}"]
                original = getattr(home, fn_name)
                wrapped = self._wrap(f"{mod_name}.{fn_name}", original, io)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, name, wrapped)
                            self._patched.append((mod, name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            mod, name, original = self._patched.pop()
            setattr(mod, name, original)
        self._stack.clear()

    def module_self_s(self) -> dict:
        out = {m: 0.0 for m in MODULES}
        for key, s in self.self_s.items():
            out[key.split(".", 1)[0]] += s
        return out


def snapshot_bindings() -> dict:
    """Every callable bound in a loaded se23nav namespace, for checking that
    a tracer left nothing behind (compare the values with ``is``)."""
    return {(mod.__name__, name): value
            for mod in _package_modules()
            for name, value in vars(mod).items() if callable(value)}
