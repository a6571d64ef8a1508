"""Per-layer tracing from outside the library.

A Tracer replaces each public function named in WRAPPED with a timing
wrapper, in every loopforge module that holds a reference to it.  Modules
bind names at import time (``sbs`` does ``from .isotopy import
autotopism_group``), so patching only the defining module would miss those
calls, so entering a Tracer rebinds the name in every loaded loopforge
module whose attribute is the original function object.

Each call adds its wall time to the function's total and its self time
(total minus the time spent in wrapped callees) to the function's self
total.  Generators returned by a wrapped function are timed on every
``next`` under the same name, so lazy work lands on the layer that does it.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import types
from collections import Counter
from time import perf_counter

# (module, function) pairs.  special_witnesses runs ~110k times per
# catalog6_cli pass; its wrapper cost is part of the overhead the traced
# run reports.
WRAPPED = (
    ("loop_core", "validate_table"),
    ("loop_core", "subgroups"),
    ("loop_core", "middle_nucleus"),
    ("isotopy", "principal_isotope"),
    ("isotopy", "autotopism_group"),
    ("isotopy", "isomorphisms"),
    ("sbs", "verify_theorems"),
    ("sbs", "bs_group"),
    ("sbs", "sbs_group"),
    ("sbs", "ssym"),
    ("sbs", "special_witnesses"),
    ("sbs", "check_perm_group"),
    ("sbs", "omega"),
    ("sbs", "theta_set"),
    ("sbs", "sa_group"),
    ("catalog", "generate_loops"),
    ("catalog", "content_id"),
    ("catalog", "write_catalog"),
    ("catalog", "read_table"),
)


class LayerStat:
    """Aggregates for one wrapped function."""

    __slots__ = ("calls", "total_s", "self_s", "durations", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.durations = []
        self.counters = Counter()


def _count_work(name: str, counters: Counter, args: tuple, result) -> None:
    """Work counters derived from a call's arguments and result.

    closure_products is not counted inside the library: it is computed as
    |AUT|^2, the size of the closure self-check autotopism_group runs.
    """
    if name == "isotopy.autotopism_group":
        counters["aut_size"] += len(result)
        counters["closure_products"] += len(result) ** 2
    elif name == "sbs.bs_group":
        counters["perms_scanned"] += math.factorial(args[0].n)
        counters["members"] += len(result)
    elif name == "isotopy.isomorphisms":
        counters["nonempty"] += bool(result)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Tracer:
    """Context manager that wraps WRAPPED for the duration of a block."""

    def __init__(self):
        self.stats = {f"{mod}.{fn}": LayerStat() for mod, fn in WRAPPED}
        self._open = []  # time spent in wrapped callees, one slot per open call
        self._patches = []

    def _close(self, stat: LayerStat, t0: float) -> float:
        dt = perf_counter() - t0
        stat.total_s += dt
        stat.self_s += dt - self._open.pop()
        if self._open:
            self._open[-1] += dt
        return dt

    def _timed_iter(self, stat: LayerStat, it):
        while True:
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._close(stat, t0)
            yield item

    def _wrap(self, name: str, fn):
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            self._open.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                stat.durations.append(self._close(stat, t0))
            _count_work(name, stat.counters, args, result)
            if isinstance(result, types.GeneratorType):
                return self._timed_iter(stat, result)
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for mod, _ in WRAPPED:
            importlib.import_module(f"loopforge.{mod}")
        modules = [
            m
            for key, m in sys.modules.items()
            if key == "loopforge" or key.startswith("loopforge.")
        ]
        # Keyed by id: the originals stay referenced, so ids cannot be reused.
        wrappers = {}
        for mod, fn in WRAPPED:
            orig = getattr(sys.modules[f"loopforge.{mod}"], fn)
            wrappers[id(orig)] = self._wrap(f"{mod}.{fn}", orig)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def metrics(self, passes: int) -> dict:
        """Per-layer metrics, averaged over ``passes`` traced passes.

        Returns name -> (value, unit).  Functions never called report 0.
        """
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = (st.calls / passes, "count")
            out[f"{name}.self_s"] = (st.self_s / passes, "s")
            out[f"{name}.total_s"] = (st.total_s / passes, "s")
        aut = self.stats["isotopy.autotopism_group"].counters
        out["isotopy.autotopism_group.aut_size"] = (aut["aut_size"] / passes, "count")
        out["isotopy.autotopism_group.closure_products"] = (
            aut["closure_products"] / passes,
            "count",
        )
        bs = self.stats["sbs.bs_group"].counters
        out["sbs.bs_group.perms_scanned"] = (bs["perms_scanned"] / passes, "count")
        out["sbs.bs_group.hit_ratio"] = (_ratio(bs["members"], bs["perms_scanned"]), "ratio")
        iso = self.stats["isotopy.isomorphisms"]
        out["isotopy.isomorphisms.hit_ratio"] = (
            _ratio(iso.counters["nonempty"], iso.calls),
            "ratio",
        )
        ver = self.stats["sbs.verify_theorems"].durations
        p50 = p90 = 0.0
        if len(ver) >= 2:
            deciles = statistics.quantiles(ver, n=10, method="inclusive")
            p50, p90 = deciles[4], deciles[8]
        elif ver:
            p50 = p90 = ver[0]
        out["sbs.verify_theorems.p50_ms"] = (p50 * 1e3, "ms")
        out["sbs.verify_theorems.p90_ms"] = (p90 * 1e3, "ms")
        return out
