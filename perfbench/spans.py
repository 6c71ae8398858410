"""Outside-in per-layer timing and counters for the ``repro`` package.

Nothing under ``src/`` is edited.  :func:`install` replaces each public
entry point of a layer with a timing wrapper, in its defining module
and in every loaded ``repro`` module that imported it by name, so calls
made from inside the package are timed too.  Each call records a span;
a layer's ``self_s`` is its span time minus the spans it called.  Time
no span covers is what the benchmark reports as unattributed.

The counters the program already exposes are read through one adapter:
``run_batch(stats=)``, ``try_run_straightline(stats=)``,
``ParallelRunner.stats``, ``lowering_cache_counters()`` and
``OptimizeResult.telemetry``.  An entry point, parameter or attribute
that is missing yields a missing metric, never a failed run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from pathlib import Path

#: stable fallback codes of the straightline tiers (anything else is
#: counted under ``other``).
FALLBACK_REASONS = (
    "divergent_control",
    "p2p_unclassifiable",
    "p2p_self_send",
    "p2p_zero_byte",
    "no_compression",
    "no_groups",
    "dvs_in_flight",
    "out_of_order_channel",
    "deadlock",
    "wait_order",
    "no_plan",
    "compile_error",
    "unsupported",
)

_BATCH_KEYS = ("quotient_points", "per_rank_points", "scalar_points", "splits")


class Recorder:
    """Spans and counters of one pass (set-up, cold or warm job)."""

    def __init__(self) -> None:
        #: open spans, innermost last: ``[name, time spent in children]``
        self.stack: list[list] = []
        #: labels of the entry points :func:`install` wrapped
        self.installed: set[str] = set()
        self.clear()

    def clear(self) -> None:
        #: span name -> ``[calls, total_s, self_s]``
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        #: time covered by outermost spans
        self.root_s = 0.0
        self._written: list[Path] = []
        self._lowering0 = _lowering()

    def add(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def take(self) -> dict:
        """This pass's spans and counters; starts the next pass."""
        counts = dict(self.counts)
        counts["store.bytes_written"] = sum(
            p.stat().st_size for p in self._written if p.exists()
        )
        low0, low1 = self._lowering0, _lowering()
        if low0 is not None and low1 is not None:
            counts["straightline.lowering.reused"] = low1[0] - low0[0]
            counts["straightline.lowering.lowered"] = low1[1] - low0[1]
        out = {"spans": self.spans, "counts": counts, "root_s": self.root_s,
               "installed": sorted(self.installed)}
        self.clear()
        return out

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` timed as span ``name``.

        ``before(args, kwargs)`` may return replacement arguments;
        ``after(args, kwargs, result, seconds)`` reads counters.  Both
        run outside the span.
        """
        rec = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            frame = [name, 0.0]
            rec.stack.append(frame)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                rec.stack.pop()
                entry = rec.spans.setdefault(name, [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                if rec.stack:
                    rec.stack[-1][1] += dt
                else:
                    rec.root_s += dt
                if after is not None:
                    after(args, kwargs, result, dt)

        timed.__wrapped_by_bench__ = True
        return timed


def _lowering():
    mod = sys.modules.get("repro.sim.straightline")
    counters = getattr(mod, "lowering_cache_counters", None)
    return counters() if counters is not None else None


def _replace(owner, attr: str, wrapper) -> None:
    """Point ``owner.attr`` and every ``repro`` alias of it at ``wrapper``."""
    original = getattr(owner, attr)
    setattr(owner, attr, wrapper)
    if inspect.isclass(owner):
        return
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


def _accepts(fn, param: str) -> bool:
    try:
        return param in inspect.signature(fn).parameters
    except (TypeError, ValueError):
        return False


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points; idempotent per process."""
    import importlib

    mods = {}
    for name in (
        "repro.workloads.compile",
        "repro.sim.straightline",
        "repro.sim.engine",
        "repro.experiments.store",
        "repro.experiments.parallel",
        "repro.core.framework",
        "repro.optimize.search",
        "repro.trace.stats",
        # importers of the above by name, loaded before patching
        "repro.experiments.campaign",
        "repro.experiments.figures",
        "repro.experiments.tables",
        "repro.optimize",
        "repro.trace",
    ):
        try:
            mods[name] = importlib.import_module(name)
        except ImportError:
            pass

    def patch(module_name, owner_path, label, before=None, after=None):
        module = mods.get(module_name)
        if module is None:
            return
        owner, attr = module, owner_path
        if "." in owner_path:
            cls, attr = owner_path.split(".")
            owner = getattr(module, cls, None)
        fn = getattr(owner, attr, None) if owner is not None else None
        if fn is None or getattr(fn, "__wrapped_by_bench__", False):
            return
        _replace(owner, attr, rec.wrap(label, fn, before, after))
        rec.installed.add(label)

    def in_batch() -> bool:
        return bool(rec.stack) and rec.stack[-1][0] == "straightline.run_batch"

    # -- compile ---------------------------------------------------------
    patch("repro.workloads.compile", "compile_workload", "compile.compile_workload")
    patch("repro.workloads.compile", "classify_channels", "compile.classify_channels")

    # -- straightline: scalar, controller and batch tiers -----------------
    def scalar_before(args, kwargs):
        if in_batch():
            rec.add("straightline.batch.reruns")
        return args, kwargs

    patch("repro.sim.straightline", "run_straightline",
          "straightline.run_straightline", before=scalar_before)

    sl = mods.get("repro.sim.straightline")

    def reason(code, n=1):
        key = code if code in FALLBACK_REASONS else "other"
        rec.add(f"straightline.fallback.{key}", n)

    def lend_stats(fn_name):
        """(before, delta) hooks lending ``fn_name`` a ``stats`` dict.

        ``delta(kwargs)`` gives the integer counters and the fallback
        histogram the call added.  Both are None when the entry point
        takes no ``stats``.
        """
        fn = getattr(sl, fn_name, None)
        if fn is None or not _accepts(fn, "stats"):
            return None, None
        snap: dict = {}

        def before(args, kwargs):
            if kwargs.get("stats") is None:
                kwargs = dict(kwargs, stats={})
            stats = kwargs["stats"]
            snap.clear()
            snap.update((k, v) for k, v in stats.items() if isinstance(v, int))
            snap["fallback_reasons"] = dict(stats.get("fallback_reasons", {}))
            return args, kwargs

        def delta(kwargs):
            stats = kwargs["stats"]
            ints = {k: v - snap.get(k, 0) for k, v in stats.items()
                    if isinstance(v, int)}
            hist0 = snap["fallback_reasons"]
            hist = {k: n - hist0.get(k, 0)
                    for k, n in stats.get("fallback_reasons", {}).items()}
            return ints, hist

        return before, delta

    lend_batch, batch_delta = lend_stats("run_batch")

    def batch_before(args, kwargs):
        points = list(kwargs["points"] if "points" in kwargs else args[1])
        if "points" in kwargs:
            kwargs = dict(kwargs, points=points)
        else:
            args = (args[0], points) + tuple(args[2:])
        rec.add("straightline.run_batch.points", len(points))
        return lend_batch(args, kwargs) if lend_batch else (args, kwargs)

    def batch_after(args, kwargs, result, dt):
        if batch_delta is None:
            return
        ints, hist = batch_delta(kwargs)
        for key in _BATCH_KEYS:
            rec.add(f"straightline.batch.{key}", ints.get(key, 0))
        for code, n in hist.items():
            if n:
                reason(code, n)

    patch("repro.sim.straightline", "run_batch", "straightline.run_batch",
          before=batch_before, after=batch_after)

    lend_try, _ = lend_stats("try_run_straightline")

    def try_after(args, kwargs, result, dt):
        if result is None and lend_try is not None:
            reason(kwargs["stats"].get("fallback_reason", "unsupported"))

    patch("repro.sim.straightline", "try_run_straightline",
          "straightline.try_run_straightline", before=lend_try, after=try_after)

    # -- event engine ----------------------------------------------------
    patch("repro.sim.engine", "Environment.run", "engine.run")

    # -- measurement store -----------------------------------------------
    patch("repro.experiments.store", "cache_key", "store.cache_key")

    def get_after(args, kwargs, result, dt):
        if result is not None:
            rec.add("store.hits")

    def put_after(args, kwargs, result, dt):
        if isinstance(result, Path):
            rec._written.append(result)

    patch("repro.experiments.store", "MeasurementCache.get", "store.get",
          after=get_after)
    patch("repro.experiments.store", "MeasurementCache.put", "store.put",
          after=put_after)

    # -- runner and framework --------------------------------------------
    patch("repro.experiments.parallel", "ParallelRunner.map", "parallel.map")
    patch("repro.experiments.parallel", "ParallelRunner.map_sweep",
          "parallel.map_sweep")

    def close_after(args, kwargs, result, dt):
        runs = getattr(getattr(args[0], "stats", None), "controller_runs", None)
        if runs is not None:
            rec.add("straightline.controller_runs", runs)

    patch("repro.experiments.parallel", "ParallelRunner.close",
          "parallel.close", after=close_after)
    patch("repro.core.framework", "run_workload", "framework.run_workload")

    # -- optimizer and trace analysis --------------------------------------
    def optimize_after(args, kwargs, result, dt):
        telemetry = getattr(result, "telemetry", None)
        for key, field in (("candidates", "candidates_evaluated"),
                           ("batches", "batches"), ("rounds", "rounds")):
            value = getattr(telemetry, field, None)
            if value is not None:
                rec.add(f"optimize.{key}", value)
        plans = getattr(telemetry, "candidates_evaluated", None)
        tag = getattr(kwargs.get("workload", args[0] if args else None),
                      "tag", "")
        if plans is not None and tag:
            rec.add(f"optimize.{tag.split('.')[0]}.plans_per_s", plans / dt)

    patch("repro.optimize.search", "optimize_gear_plan",
          "optimize.optimize_gear_plan", after=optimize_after)
    patch("repro.trace.stats", "analyze", "trace.analyze")
