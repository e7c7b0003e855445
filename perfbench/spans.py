"""Span tracer that wraps magtun's public functions from outside the package.

Each wrapped function records a span (start, end, parent) per call.  Spans
are aggregated in memory as `<module>.<function>.{calls,total_s,self_s,
errors}`, where self time is the span's duration minus the time its direct
child spans cover.  Work counts are read from return values.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute) under magtun; classes are traced through __init__.
TRACED = (
    ("agmon", "AgmonProfile"),
    ("spectral", "ground_state"), ("spectral", "solve_fiber"),
    ("wkb", "calibrate_outer"), ("wkb", "WkbAmplitude"),
    ("hopping", "hopping_direct"), ("hopping", "hopping_bessel"),
    ("hopping", "hopping_wkb_envelope"),
    ("asymptotics", "w_chain"), ("asymptotics", "sharp_action"),
    ("asymptotics", "psi_global_min"),
    ("numerics", "log_integral_exp"), ("numerics", "log_bessel_i0"),
    ("numerics", "symm_tridiag_lowest"), ("numerics", "integrate"),
    ("splitting2d", "assemble"), ("splitting2d", "lowest_two"),
    ("splitting2d", "landau_level_2d"), ("splitting2d", "eigsh"),
    ("verify", "run_battery"),
)
SPAN_FIELDS = ("calls", "total_s", "self_s", "errors")
COUNTS = ("spectral.solve_fiber.nodes", "spectral.solve_fiber.doublings",
          "splitting2d.assemble.nodes", "splitting2d.assemble.nnz",
          "verify.checks.pass", "verify.checks.skip", "verify.checks.fail")


class Tracer:
    """In-memory span aggregation; one instance per traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats = defaultdict(lambda: dict.fromkeys(SPAN_FIELDS, 0))
        self.counts = Counter()
        self.top_level_s = 0.0
        self._stack = []           # [name, child_s] per open span

    def wrap(self, name, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0.0]
            self._stack.append(frame)
            t0 = self.clock()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                dur = self.clock() - t0
                self._stack.pop()
                st = self.stats[name]
                st["calls"] += 1
                st["total_s"] += dur
                st["self_s"] += dur - frame[1]
                st["errors"] += not ok
                if self._stack:
                    self._stack[-1][1] += dur
                else:
                    self.top_level_s += dur
            if on_result is not None:
                on_result(self.counts, args, kwargs, result)
            return result
        return traced

    def metrics(self):
        out = {}
        for module, attr in TRACED:
            name = f"{module}.{attr}"
            st = self.stats.get(name, dict.fromkeys(SPAN_FIELDS, 0))
            for field in SPAN_FIELDS:
                out[f"{name}.{field}"] = st[field]
        for name in COUNTS:
            out[name] = self.counts[name]
        return out


def _fiber_counts(counts, args, kwargs, sol):
    problem = args[0] if args else kwargs["problem"]
    counts["spectral.solve_fiber.nodes"] += sol.n
    # the first comparison already solves on 2n; each further one doubles
    counts["spectral.solve_fiber.doublings"] += \
        round(math.log2(sol.n / problem.n)) - 1


def _lattice_counts(counts, args, kwargs, lattice):
    counts["splitting2d.assemble.nodes"] += lattice.n_nodes
    counts["splitting2d.assemble.nnz"] += lattice.matrix.nnz


def _battery_counts(counts, args, kwargs, results):
    for r in results:
        counts[f"verify.checks.{r.status}"] += 1


ON_RESULT = {
    "spectral.solve_fiber": _fiber_counts,
    "splitting2d.assemble": _lattice_counts,
    "verify.run_battery": _battery_counts,
}


def instrument(tracer):
    """Wrap every TRACED function in each magtun module that holds it.

    Modules bind numerics helpers at import (`from .numerics import ...`),
    so the wrapper replaces the object in every consumer namespace, not
    only where it is defined.  Classes get a wrapped __init__.
    """
    owners = {m: importlib.import_module(f"magtun.{m}") for m, _ in TRACED}
    modules = [m for k, m in sys.modules.items()
               if (k == "magtun" or k.startswith("magtun.")) and m is not None]
    for module, attr in TRACED:
        name = f"{module}.{attr}"
        original = getattr(owners[module], attr)
        if isinstance(original, type):
            original.__init__ = tracer.wrap(name, original.__init__)
            continue
        wrapped = tracer.wrap(name, original, ON_RESULT.get(name))
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
