"""Per-layer call counts and inclusive times for the traced benchmark run.

The tracer wraps public functions of rigidkit from the outside: no file of
the package changes.  Modules import several targets by name (``relations``
binds ``h_rot``, ``w_matrix``, ``x_elem`` and ``_x_matrix``, ``words`` binds
``x_elem``), so every module attribute that *is* a target is replaced, and
every replacement is undone when the ``with`` block ends.  A target that no
longer exists after a refactor is listed in ``absent`` instead of failing.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (metric prefix, defining module, attribute).  numpy.inv is counted through
# the alias the relation suites call, relations.INV.
TARGETS = (
    ("relations.run_suite", "rigidkit.relations", "run_suite"),
    ("relations.commutator_decompose", "rigidkit.relations", "commutator_decompose"),
    ("relations.rng_for", "rigidkit.relations", "rng_for"),
    ("generators.h_rot", "rigidkit.generators", "h_rot"),
    ("generators.w_matrix", "rigidkit.generators", "w_matrix"),
    ("generators.x_elem", "rigidkit.generators", "x_elem"),
    ("generators._x_matrix", "rigidkit.generators", "_x_matrix"),
    ("matrixcore.nilpotent_log", "rigidkit.matrixcore", "nilpotent_log"),
    ("rootsystem.is_root", "rigidkit.rootsystem", "is_root"),
    ("rootsystem.roots", "rigidkit.rootsystem", "roots"),
    ("words.staircase_decompose", "rigidkit.words", "staircase_decompose"),
    ("words.reconstruct", "rigidkit.words", "reconstruct"),
    ("lyapunov.stable_cycle_feasible", "rigidkit.lyapunov", "stable_cycle_feasible"),
    ("lyapunov.splitting", "rigidkit.lyapunov", "splitting"),
    ("numpy.inv", "rigidkit.relations", "INV"),
)

# The registry suites at the time the benchmark was written; a suite that
# disappears reads 0 s.
SUITES = ("additivity", "commutator", "h-mult-so", "h-mult-su", "center-so", "center-su",
          "rot-so", "rot-su", "conj-so", "conj-su", "symbol-R", "symbol-C", "symbol-S1",
          "braid", "trace-pairing")

WRAPPED_MARK = "__perfbench_wrapped__"


def metric_names() -> list:
    """Every metric the tracer reports, as (name, unit, better)."""
    return [(name, "count" if name.endswith(".calls") else "ratio" if name.endswith("_ratio")
             else "s", "higher" if name.endswith("_ratio") else "lower")
            for name in Tracer().metrics()]


class Tracer:
    """Context manager that counts and times calls into the TARGETS."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.suite_seconds = defaultdict(float)
        self.nonempty = 0
        self.absent = []
        self._patched = []   # (module, attribute, original)

    def __enter__(self):
        loaded = [importlib.import_module(mod) for _, mod, _ in TARGETS]
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rigidkit" or name.startswith("rigidkit."))]
        try:
            for (prefix, _, attr), home in zip(TARGETS, loaded):
                orig = getattr(home, attr, None)
                if orig is None:
                    self.absent.append(prefix)
                    continue
                wrapper = self._wrap(prefix, orig)
                for mod in package:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, name, wrapper)
                            self._patched.append((mod, name, orig))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            mod, name, orig = self._patched.pop()
            setattr(mod, name, orig)

    def _wrap(self, prefix, fn):
        depth = [0]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            self.calls[prefix] += 1
            if depth[0]:   # time only the outermost call of a recursion
                return fn(*args, **kwargs)
            depth[0] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                self.seconds[prefix] += dt
            if prefix == "relations.run_suite":
                self.suite_seconds[kwargs.get("suite_id", args[1] if len(args) > 1 else "")] += dt
            elif prefix == "relations.commutator_decompose":
                self.nonempty += bool(out.terms)
            return out

        setattr(wrapper, WRAPPED_MARK, prefix)
        return wrapper

    def metrics(self) -> dict:
        """Metric values by name; metrics of absent targets are left out."""
        out = {}
        for prefix, _, _ in TARGETS:
            if prefix in self.absent:
                continue
            out[f"{prefix}.calls"] = self.calls[prefix]
            if prefix != "numpy.inv":
                out[f"{prefix}.s"] = self.seconds[prefix]
        if "relations.run_suite" not in self.absent:
            out.update({f"relations.run_suite.s.{sid}": self.suite_seconds[sid] for sid in SUITES})
        if "relations.commutator_decompose" not in self.absent:
            calls = self.calls["relations.commutator_decompose"]
            out["relations.commutator_decompose.nonempty_ratio"] = (
                self.nonempty / calls if calls else 0.0)
        return out


def leftover_wrappers() -> list:
    """Module attributes of rigidkit that are still tracer wrappers."""
    return [f"{name}.{attr}" for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "rigidkit" or name.startswith("rigidkit."))
            for attr, value in vars(mod).items() if hasattr(value, WRAPPED_MARK)]
