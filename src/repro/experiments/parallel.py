"""Parallel experiment engine.

Every paper artifact is a grid of *independent* full-cluster
simulations (code × frequency × seed × strategy).
:meth:`ParallelRunner.map` is the one way a grid is measured: it
memoizes each point through the content-addressed
:class:`~repro.experiments.store.MeasurementCache`, sends each
(workload, configuration) group of gear-plan misses to one
:func:`repro.sim.straightline.run_batch` call and every other miss to
``run_workload``, inline or over a
:class:`concurrent.futures.ProcessPoolExecutor`, while guaranteeing
results that are bit-for-bit identical to per-point serial runs:

* each task carries its own seed and builds a fresh cluster inside the
  worker, so no state is shared between runs in any order;
* results are collected *by submission index*, never by completion
  order;
* only runs whose outputs the cache entry captures in full (summary
  fields, plus the trace of a traced run; no measurement-channel
  report, no externally supplied cluster or hooks) are ever cached.

The experiment surface (``frequency_sweep``, ``tables.table2``,
``figures.*``, ablations, sensitivity, the campaign) routes every
simulation through the *current runner*: a module-level
:class:`ParallelRunner` installed with :func:`use`.  The default runner
is serial, uncached and memo-free — exactly the old behavior.

Usage::

    from repro.experiments.parallel import ParallelRunner, use

    with ParallelRunner(jobs=4, cache_dir=".repro-cache") as runner:
        with use(runner):
            rows = tables.table2()  # 8 gear-plan batches + 8 daemon runs
    print(runner.stats.render())
"""

from __future__ import annotations

import contextlib
import traceback
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional, Sequence, Union

from repro.core.framework import Measurement, run_workload
from repro.core.strategies.base import NoDvsStrategy, Strategy
from repro.faults.spec import FaultSpec
from repro.workloads.base import Workload

__all__ = [
    "RunTask",
    "ParallelRunner",
    "TaskFailedError",
    "current_runner",
    "use",
]


@dataclass
class RunTask:
    """One ``run_workload`` invocation, picklable for the worker pool."""

    workload: Workload
    strategy: Optional[Strategy] = None
    seed: int = 0
    #: extra ``run_workload`` keyword arguments (power, opoints, ...).
    kwargs: dict[str, Any] = field(default_factory=dict)

    def cacheable(self) -> bool:
        """Whether the cache entry captures the result in full.

        A traced run is cacheable: its entry stores the
        :class:`~repro.trace.events.TraceLog` as CSV text (about
        0.73 MB for CG.C.8), and its ``trace=True`` kwarg keeps its key
        apart from the untraced run's.  The runner's memo then hands
        every caller of one traced key the *same* ``TraceLog`` object,
        which callers must not mutate.  Measurement-channel runs and
        runs on a caller supplied cluster or with extra hooks carry
        live objects the cache (and the JSON round-trip) cannot
        reproduce.  A ``faults`` kwarg is cacheable only as a
        value-typed :class:`FaultSpec` — a live injector instance
        carries consumed RNG state no content key could capture.
        """
        kw = self.kwargs
        faults = kw.get("faults")
        return not (
            kw.get("measurement_channels")
            or kw.get("cluster") is not None
            or kw.get("extra_hooks") is not None
            or (faults is not None and not isinstance(faults, FaultSpec))
        )


class TaskFailedError(RuntimeError):
    """A task exhausted its retries; carries the failing spec + trace."""

    def __init__(self, task: RunTask, attempts: int, detail: str) -> None:
        self.task = task
        self.attempts = attempts
        strategy = task.strategy.describe() if task.strategy is not None else "no-dvs"
        spec = (
            f"workload={task.workload.tag!r} strategy={strategy!r} "
            f"seed={task.seed}"
        )
        if task.kwargs:
            spec += f" kwargs={sorted(task.kwargs)}"
        super().__init__(
            f"run failed after {attempts} attempt(s): {spec}\n{detail}"
        )


class _WorkerError(Exception):
    """Worker-side failure: args are (formatted traceback, position of
    the failing task in its chunk).

    A plain-args Exception subclass so it pickles back to the parent
    intact (arbitrary exceptions raised inside a worker lose their
    traceback at the process boundary).
    """


def _execute(task: RunTask) -> Measurement:
    """Measure one task on its own through ``run_workload``."""
    return run_workload(task.workload, task.strategy, seed=task.seed, **task.kwargs)


#: ``run_workload`` kwargs :func:`repro.sim.straightline.run_batch`
#: understands (``engine``/``faults`` are dispatch-only and dropped).
_BATCH_KWARGS = frozenset(
    {"network_params", "power", "opoints", "transition_latency_s",
     "engine", "faults"}
)

#: Most non-batchable misses one pool task carries.
_MAX_CHUNK = 32

#: How long a recycle waits for the old pool's manager thread to exit.
_RECYCLE_JOIN_S = 10.0


def _batch_group(task: RunTask) -> Optional[tuple]:
    """The (workload, configuration) identity a gear-plan miss batches
    under, or None when the task must run by itself.

    A task batches when its kwargs are all straightline-tier
    parameters, no live fault environment applies (``faults=None`` or a
    zero-rate spec), the engine is ``"auto"``, and the strategy lowers
    to a static gear plan.  Identity is by object, so a group shares
    one workload and one set of configuration objects.
    """
    kw = task.kwargs
    faults = kw.get("faults")
    # A zero-rate spec injects nothing (bit-for-bit a clean run), so it
    # doesn't force the event path; its cache key is unaffected —
    # engine selection only.
    inert = faults is None or (isinstance(faults, FaultSpec) and faults.is_noop())
    strategy = task.strategy if task.strategy is not None else NoDvsStrategy()
    if not (
        set(kw) <= _BATCH_KWARGS
        and kw.get("engine", "auto") == "auto"
        and inert
        and strategy.gear_plan(task.workload) is not None
    ):
        return None
    return (
        id(task.workload),
        tuple(sorted(
            (k, id(v)) for k, v in kw.items() if k not in ("engine", "faults")
        )),
    )


def _partition(tasks: Sequence[RunTask]) -> tuple[list[list[int]], list[int]]:
    """Positions of ``tasks`` per batch group, and those that run alone."""
    groups: dict[tuple, list[int]] = {}
    alone: list[int] = []
    for j, task in enumerate(tasks):
        group = _batch_group(task)
        if group is None:
            alone.append(j)
        else:
            groups.setdefault(group, []).append(j)
    return list(groups.values()), alone


def _execute_chunk(
    chunk: Sequence[RunTask], in_pool: bool = False
) -> tuple[list[Measurement], dict]:
    """Measure a chunk of tasks; returns (measurements, counters).

    Gear-plan tasks of one :func:`_batch_group` go to one
    :func:`repro.sim.straightline.run_batch` call, which compiles the
    workload once and runs each distinct gear plan once; points its
    tiers decline finish on the event engine there.  Every other task
    runs by itself through ``run_workload``, before the batches.
    Results come back in chunk order, bit-for-bit what per-point
    ``run_workload`` gives.
    The counters are ``run_batch``'s ``event_points`` and
    ``fallback_reasons`` plus the gear-plan lowering cache's hit/miss
    deltas over the call.

    In a pool worker (``in_pool``) any failure becomes a picklable
    :class:`_WorkerError` naming the failing task's chunk position, so
    the parent sees the worker's traceback instead of an opaque
    ``BrokenProcessPool``; inline, the original exception propagates.
    """
    from repro.sim.straightline import lowering_cache_counters, run_batch

    lower_h0, lower_m0 = lowering_cache_counters()
    measured: list[Optional[Measurement]] = [None] * len(chunk)
    counters: dict = {"event_points": 0, "fallback_reasons": {}}
    position = 0
    try:
        groups, alone = _partition(chunk)
        # Lone tasks first: run after the batches, each daemon point's
        # transient state would sit on top of every batched workload's
        # compiled program and memo tables (Table 2's peak RSS grew 5%).
        for position in alone:
            measured[position] = _execute(chunk[position])
        for positions in groups:
            position = positions[0]
            first = chunk[position]
            run_kwargs = {
                k: v for k, v in first.kwargs.items()
                if k not in ("engine", "faults")
            }
            points = [(chunk[j].strategy, chunk[j].seed) for j in positions]
            info: dict = {}
            batch = run_batch(first.workload, points, stats=info, **run_kwargs)
            counters["event_points"] += info.get("event_points", 0)
            for reason, n in info.get("fallback_reasons", {}).items():
                reasons = counters["fallback_reasons"]
                reasons[reason] = reasons.get(reason, 0) + n
            for j, m in zip(positions, batch):
                measured[j] = m
    except Exception:
        if not in_pool:
            raise
        raise _WorkerError(traceback.format_exc(), position) from None
    lower_h1, lower_m1 = lowering_cache_counters()
    counters["lowering_hits"] = lower_h1 - lower_h0
    counters["lowering_misses"] = lower_m1 - lower_m0
    return measured, counters  # type: ignore[return-value]


class ParallelRunner:
    """Runs measurement grids, optionally in parallel and memoized.

    Parameters
    ----------
    jobs:
        Worker process count.  ``1`` (default) runs inline with zero
        pool overhead; ``None`` also means serial.
    cache_dir:
        Enable the on-disk measurement cache rooted here (shared
        between runs and between the parallel workers' parent).
    memo:
        Keep an in-process memo of every cacheable result for this
        runner's lifetime, so e.g. a campaign simulates each workload's
        no-DVS baseline exactly once even with the disk cache disabled.
    faults:
        Default :class:`~repro.faults.spec.FaultSpec` merged into
        every task that does not set ``faults`` itself — this is how
        ``--faults`` puts a whole campaign (every table and figure)
        under one fault environment.  Part of each task's cache key,
        so faulty and clean runs never alias.
    task_retries:
        How many times one failing/timed-out pool task is re-run
        before :class:`TaskFailedError` (default 1; simulations are
        deterministic, so this mainly absorbs killed workers).
    task_timeout_s:
        Per-task wall-clock ceiling in the pool; on expiry the worker
        pool is recycled and the task counts a failed attempt.  None
        (default) disables the timeout.
    """

    def __init__(
        self,
        jobs: Optional[int] = 1,
        cache_dir: Union[str, Path, None] = None,
        memo: bool = True,
        faults: Optional[FaultSpec] = None,
        task_retries: int = 1,
        task_timeout_s: Optional[float] = None,
    ) -> None:
        from repro.experiments.store import CacheStats, MeasurementCache

        if task_retries < 0:
            raise ValueError("task_retries must be >= 0")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError("task_timeout_s must be positive")
        self.jobs = max(1, int(jobs or 1))
        self.cache = MeasurementCache(cache_dir) if cache_dir is not None else None
        self.faults = faults
        self.task_retries = task_retries
        self.task_timeout_s = task_timeout_s
        self._memo: Optional[dict[str, Measurement]] = {} if memo else None
        self._pool: Optional[ProcessPoolExecutor] = None
        self.stats = CacheStats()

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.jobs)
        return self._pool

    # -- execution -----------------------------------------------------
    def run(
        self,
        workload: Workload,
        strategy: Optional[Strategy] = None,
        seed: int = 0,
        **kwargs: Any,
    ) -> Measurement:
        """Memoized single run (the drop-in for ``run_workload``)."""
        return self.map([RunTask(workload, strategy, seed, kwargs)])[0]

    def map(self, tasks: Sequence[RunTask]) -> list[Measurement]:
        """Run every task, returning results in task order.

        Cache/memo hits are filled in first; the remaining misses are
        measured by :func:`_execute_chunk` (gear-plan misses batched
        through ``run_batch``, every other miss by itself) and stored
        back as one cache pack, so a re-run hits per point.
        """
        tasks = self._merge_faults(tasks)
        results, pending, duplicates = self._probe(tasks)
        if pending:
            measured = self._measure([t for _, t, _ in pending])
            self._store(results, pending, duplicates, measured)
        return self._tally(results)

    #: The same method, under the name ``perfbench/sample.py`` calls.
    map_sweep = map

    def _measure(self, tasks: Sequence[RunTask]) -> list[Measurement]:
        """Measure ``tasks``, folding the tier counters into ``stats``.

        Serial, or a single task: one inline :func:`_execute_chunk`.
        Otherwise every miss runs in the pool: each gear-plan batch
        group is one pool task, and the other misses go in about four
        chunks per worker (at most ``_MAX_CHUNK`` tasks each), so
        stragglers still balance.  Retries, the timeout and
        :class:`TaskFailedError` cover every miss.
        """
        if self.jobs == 1 or len(tasks) == 1:
            layout = [list(range(len(tasks)))]
            outputs = [_execute_chunk(tasks)]
        else:
            groups, alone = _partition(tasks)
            size = max(1, min(_MAX_CHUNK, -(-len(alone) // (self.jobs * 4))))
            layout = groups + [
                alone[i : i + size] for i in range(0, len(alone), size)
            ]
            outputs = self._map_pool([[tasks[j] for j in c] for c in layout])
        measured: list[Optional[Measurement]] = [None] * len(tasks)
        for positions, (chunk_measured, counters) in zip(layout, outputs):
            for j, m in zip(positions, chunk_measured):
                measured[j] = m
            self.stats.straightline_fallbacks += counters["event_points"]
            for reason, n in counters["fallback_reasons"].items():
                self.stats.count_fallback(reason, n)
            self.stats.lowering_hits += counters["lowering_hits"]
            self.stats.lowering_misses += counters["lowering_misses"]
        return measured  # type: ignore[return-value]

    # -- map's prologue + epilogue ----------------------------------------
    def _merge_faults(self, tasks: Sequence[RunTask]) -> Sequence[RunTask]:
        if self.faults is None:
            return tasks
        # Runner-level fault environment: merged into every task
        # that doesn't choose its own (an explicit faults=None in
        # task kwargs opts that task out).
        return [
            t if "faults" in t.kwargs else RunTask(
                t.workload, t.strategy, t.seed,
                {**t.kwargs, "faults": self.faults},
            )
            for t in tasks
        ]

    def _probe(
        self, tasks: Sequence[RunTask]
    ) -> tuple[
        list[Optional[Measurement]],
        list[tuple[int, RunTask, Optional[str]]],
        list[tuple[int, int]],
    ]:
        """Fill cache/memo hits; return (results, pending misses, dupes).

        Every cacheable task is keyed by one ``cache_key`` call (looked
        up when ``_probe`` runs) that shares this call's ``spec_memo``,
        so each distinct workload, strategy and keyword value object is
        canonicalised once per ``map``.  The memo dies with the call:
        the objects it names may change before the next ``map``.
        """
        from repro.experiments.store import UncacheableSpecError, cache_key

        spec_memo: dict = {}
        # A None strategy runs as no-DVS; share its cache slot.
        no_dvs = NoDvsStrategy()
        results: list[Optional[Measurement]] = [None] * len(tasks)
        pending: list[tuple[int, RunTask, Optional[str]]] = []
        pending_by_key: dict[str, int] = {}
        #: (result index, position in ``pending``) for duplicate tasks
        #: within this batch — executed once, filled in everywhere.
        duplicates: list[tuple[int, int]] = []
        if self.cache is not None:
            self.cache.refresh()  # see packs other runners wrote since
        for index, task in enumerate(tasks):
            key: Optional[str] = None
            if (self._memo is not None or self.cache is not None) and task.cacheable():
                try:
                    key = cache_key(
                        task.workload,
                        task.strategy if task.strategy is not None else no_dvs,
                        task.seed,
                        task.kwargs,
                        spec_memo,
                    )
                except UncacheableSpecError:
                    pending.append((index, task, None))
                    continue
                if self._memo is not None and key in self._memo:
                    results[index] = self._memo[key]
                    self.stats.hits += 1
                    continue
                if self.cache is not None:
                    evicted = self.cache.evicted_corrupt
                    cached = self.cache.get(key)
                    self.stats.evicted_corrupt += (
                        self.cache.evicted_corrupt - evicted
                    )
                    if cached is not None:
                        results[index] = cached
                        if self._memo is not None:
                            self._memo[key] = cached
                        self.stats.hits += 1
                        continue
                if key in pending_by_key:
                    duplicates.append((index, pending_by_key[key]))
                    self.stats.hits += 1
                    continue
                self.stats.misses += 1
                pending_by_key[key] = len(pending)
            pending.append((index, task, key))
        return results, pending, duplicates

    def _store(
        self,
        results: list[Optional[Measurement]],
        pending: Sequence[tuple[int, RunTask, Optional[str]]],
        duplicates: Sequence[tuple[int, int]],
        measured: Sequence[Measurement],
    ) -> None:
        """Place fresh measurements into ``results`` and the caches.

        Every measurement to cache goes into one pack: one disk write
        per ``map`` call.
        """
        fresh: list[tuple[str, Measurement]] = []
        for (index, _, key), measurement in zip(pending, measured):
            results[index] = measurement
            if key is not None:
                if self._memo is not None:
                    self._memo[key] = measurement
                fresh.append((key, measurement))
        if self.cache is not None and fresh:
            self.cache.put(fresh)
            self.stats.stores += len(fresh)
        for index, position in duplicates:
            results[index] = measured[position]

    def _tally(self, results: list[Optional[Measurement]]) -> list[Measurement]:
        for m in results:
            self.stats.runs += 1
            if m is not None and m.extras.get("faults"):
                self.stats.degraded_runs += 1
        return results  # type: ignore[return-value]

    # -- pool execution with retry / timeout / failure surfacing -------
    def _map_pool(self, chunks: Sequence[Sequence[RunTask]]) -> list:
        """Measure ``chunks`` of tasks in the worker pool, in order.

        Each chunk is one pool task (:func:`_execute_chunk`), returning
        its measurements and counters.  Worker-side exceptions surface
        as :class:`TaskFailedError` (task spec + worker traceback)
        instead of raw pool errors; a timed-out or pool-killing task
        gets the pool recycled and is retried up to ``task_retries``
        times.  Collateral tasks of a broken pool are re-run without
        spending one of their attempts.
        """
        results: list = [None] * len(chunks)
        attempts = [0] * len(chunks)
        remaining = list(range(len(chunks)))
        while remaining:
            pool = self._ensure_pool()
            futures = {
                i: pool.submit(_execute_chunk, chunks[i], True)
                for i in remaining
            }
            retry: list[int] = []
            broken = False

            def _failed(i: int, detail: str, position: int = 0) -> None:
                attempts[i] += 1
                if attempts[i] > self.task_retries:
                    # Leave no half-broken pool behind the exception.
                    self._recycle_pool()
                    chunk = chunks[i]
                    if len(chunk) > 1:
                        detail = f"(chunk of {len(chunk)} tasks) {detail}"
                    raise TaskFailedError(chunk[position], attempts[i], detail)
                retry.append(i)

            for i in remaining:
                future = futures[i]
                if broken:
                    # The pool died under an earlier task this round.
                    # Harvest results that finished before the crash;
                    # everything else retries for free.
                    if future.done() and not future.cancelled():
                        try:
                            results[i] = future.result()
                            continue
                        except _WorkerError as exc:
                            _failed(i, *exc.args)
                            continue
                        except Exception:
                            pass
                    retry.append(i)
                    continue
                try:
                    results[i] = future.result(timeout=self.task_timeout_s)
                except _WorkerError as exc:
                    _failed(i, *exc.args)
                except FuturesTimeout:
                    broken = True
                    _failed(
                        i,
                        f"no result within task_timeout_s={self.task_timeout_s}; "
                        "hung worker killed and pool recycled",
                    )
                except BrokenExecutor as exc:
                    broken = True
                    _failed(
                        i,
                        f"worker pool broke under this task ({exc!r}): the "
                        "worker died without a Python traceback (killed / "
                        "out-of-memory / interpreter crash)",
                    )
            if broken:
                self._recycle_pool()
            remaining = retry
        return results  # type: ignore[return-value]

    def _recycle_pool(self) -> None:
        """Tear down a broken/hung pool without waiting on its workers.

        The workers are terminated, not drained.  The old pool's
        manager thread is then joined (for at most ``_RECYCLE_JOIN_S``):
        the next pool forks its workers from this process, and a fork
        taken while that thread still runs can copy a lock it holds
        into a worker, which then blocks on it for ever.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        manager = getattr(pool, "_executor_manager_thread", None)
        for proc in getattr(pool, "_processes", None) or {}:
            try:
                pool._processes[proc].terminate()
            except Exception:  # pragma: no cover - best effort
                pass
        pool.shutdown(wait=False, cancel_futures=True)
        if manager is not None:
            manager.join(_RECYCLE_JOIN_S)


#: The runner the experiment surface routes through by default: serial,
#: uncached, memo-free — byte-identical to calling run_workload directly.
_DEFAULT = ParallelRunner(jobs=1, cache_dir=None, memo=False)
_current: ParallelRunner = _DEFAULT


def current_runner() -> ParallelRunner:
    """The runner all grid helpers currently route through."""
    return _current


@contextlib.contextmanager
def use(runner: ParallelRunner) -> Iterator[ParallelRunner]:
    """Install ``runner`` as the current runner within the block."""
    global _current
    previous = _current
    _current = runner
    try:
        yield runner
    finally:
        _current = previous

