"""Parallel experiment engine.

Every paper artifact is a grid of *independent* full-cluster
simulations (code × frequency × seed × strategy).  This module fans
those runs out over a :class:`concurrent.futures.ProcessPoolExecutor`
and memoizes each sweep point through the content-addressed
:class:`~repro.experiments.store.MeasurementCache`, while guaranteeing
results that are bit-for-bit identical to the serial path:

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
            rows = tables.table2()          # 48 runs, 4 at a time
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
    """Worker-side failure, carrying the formatted traceback as args[0].

    A plain-args Exception subclass so it pickles back to the parent
    intact (arbitrary exceptions raised inside a worker lose their
    traceback at the process boundary).
    """


def _execute(task: RunTask) -> Measurement:
    """Worker entry point — must stay a module-level function."""
    return run_workload(task.workload, task.strategy, seed=task.seed, **task.kwargs)


def _execute_chunk_traced(chunk: Sequence[RunTask]) -> list[Measurement]:
    """Pool entry point: measure a chunk of consecutive tasks.

    :meth:`ParallelRunner.map` submits chunks of one; ``map_sweep``
    ships longer runs of sweep points, amortizing process dispatch and
    task pickling over many (microsecond-scale) simulations.  Any
    failure becomes a picklable :class:`_WorkerError`, so the parent
    sees the worker's traceback instead of an opaque
    ``BrokenProcessPool``.
    """
    try:
        return [_execute(t) for t in chunk]
    except Exception:
        raise _WorkerError(traceback.format_exc()) from None


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

        Cache/memo hits are filled in first; the remaining misses run
        in the worker pool (or inline when serial / a single miss) and
        are stored back.
        """
        tasks = self._merge_faults(tasks)
        results, pending, duplicates = self._probe(tasks)
        if pending:
            measured = self._measure([t for _, t, _ in pending])
            self._store(results, pending, duplicates, measured)
        return self._tally(results)

    def map_sweep(
        self, tasks: Sequence[RunTask], chunk_size: Optional[int] = None
    ) -> list[Measurement]:
        """Like :meth:`map`, but ships *chunks* of consecutive misses
        to each worker as one pool task.

        A frequency sweep over the straightline tier spends more time
        pickling tasks and dispatching futures than simulating; batching
        amortizes that overhead.  Every guarantee of :meth:`map` holds:
        results come back in submission-index order, and each point is
        cached/memoized individually, so a re-run hits per point.  The
        default ``chunk_size`` splits the misses into about four chunks
        per worker (bounded to 32 points) so stragglers still balance.

        Gear-plan misses are additionally *batched*: same-workload
        same-configuration points run together through
        :func:`repro.sim.straightline.run_batch`, inline in this
        process: one call compiles the workload once and runs each
        distinct gear plan once, on its quotient program.  Results are
        still bit-for-bit identical to per-point runs; points
        the fast tiers decline finish on the event engine inside that
        call.  Every other miss (controller daemons, other dynamic
        strategies, live faults, ``engine="event"``, non-tier kwargs)
        takes :meth:`map`'s per-point path, chunked for the pool; such
        a point records no decline reason in :attr:`stats`, even when
        the sampled tier declines it (the telemetry-record item in
        ROADMAP.md).
        """
        if chunk_size is not None and chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        tasks = self._merge_faults(tasks)
        results, pending, duplicates = self._probe(tasks)
        if pending:
            measured: list[Optional[Measurement]] = [None] * len(pending)
            leftover = self._run_batches(pending, measured)
            if leftover:
                if chunk_size is None:
                    per_worker = -(-len(leftover) // (self.jobs * 4))
                    chunk_size = max(1, min(32, per_worker))
                fresh = self._measure(
                    [pending[j][1] for j in leftover], chunk_size
                )
                for j, m in zip(leftover, fresh):
                    measured[j] = m
            self._store(results, pending, duplicates, measured)
        return self._tally(results)

    def _measure(
        self, tasks: Sequence[RunTask], chunk_size: int = 1
    ) -> list[Measurement]:
        """Per-point path: inline when serial or a single task, else
        ``chunk_size`` consecutive tasks per pool task."""
        if self.jobs > 1 and len(tasks) > 1:
            chunks = [
                tasks[i : i + chunk_size]
                for i in range(0, len(tasks), chunk_size)
            ]
            return [m for chunk in self._map_pool(chunks) for m in chunk]
        return [_execute(t) for t in tasks]

    #: ``run_workload`` kwargs :func:`repro.sim.straightline.run_batch`
    #: understands (``engine``/``faults`` are dispatch-only and dropped).
    _BATCH_KWARGS = frozenset(
        {"network_params", "power", "opoints", "transition_latency_s",
         "engine", "faults"}
    )

    def _run_batches(
        self,
        pending: list[tuple[int, RunTask, Optional[str]]],
        measured: list[Optional[Measurement]],
    ) -> list[int]:
        """Fill gear-plan misses into ``measured`` (by pending
        position); returns the positions the per-point path must run.

        A miss goes to :func:`repro.sim.straightline.run_batch` when
        its kwargs are all straightline-tier parameters, no live fault
        environment applies (``faults=None`` or a zero-rate spec), the
        engine is ``"auto"``, and the strategy lowers to a static gear
        plan.  Misses group by workload and configuration identity,
        whatever the group size.  ``run_batch`` measures every point it
        is given — points its tiers decline run on the event engine
        there and count in ``stats.straightline_fallbacks`` — so
        nothing it was handed comes back here.
        """
        from repro.sim.straightline import lowering_cache_counters, run_batch

        lower_h0, lower_m0 = lowering_cache_counters()
        groups: dict[tuple, list[int]] = {}
        leftover: list[int] = []
        for j, (_index, task, _key) in enumerate(pending):
            kw = task.kwargs
            faults = kw.get("faults")
            # A zero-rate spec injects nothing (bit-for-bit a clean
            # run), so it doesn't force the event path; its cache key
            # is unaffected — engine selection only.
            inert = faults is None or (
                isinstance(faults, FaultSpec) and faults.is_noop()
            )
            strategy = task.strategy if task.strategy is not None else NoDvsStrategy()
            if not (
                set(kw) <= self._BATCH_KWARGS
                and kw.get("engine", "auto") == "auto"
                and inert
                and strategy.gear_plan(task.workload) is not None
            ):
                leftover.append(j)
                continue
            group = (
                id(task.workload),
                tuple(
                    sorted(
                        (k, id(v))
                        for k, v in kw.items()
                        if k not in ("engine", "faults")
                    )
                ),
            )
            groups.setdefault(group, []).append(j)
        for positions in groups.values():
            first = pending[positions[0]][1]
            run_kwargs = {
                k: v
                for k, v in first.kwargs.items()
                if k not in ("engine", "faults")
            }
            points = [
                (pending[j][1].strategy, pending[j][1].seed) for j in positions
            ]
            info: dict = {}
            batch = run_batch(first.workload, points, stats=info, **run_kwargs)
            self.stats.straightline_fallbacks += info.get("event_points", 0)
            for reason, n in info.get("fallback_reasons", {}).items():
                self.stats.count_fallback(reason, n)
            for j, m in zip(positions, batch):
                measured[j] = m
        # Gear-plan lowering reuse over this call (process-wide counter
        # deltas: run_batch is the only lowerer here).
        lower_h1, lower_m1 = lowering_cache_counters()
        self.stats.lowering_hits += lower_h1 - lower_h0
        self.stats.lowering_misses += lower_m1 - lower_m0
        return leftover

    # -- map/map_sweep shared prologue + epilogue ----------------------
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
        """Fill cache/memo hits; return (results, pending misses, dupes)."""
        from repro.experiments.store import UncacheableSpecError, cache_key

        results: list[Optional[Measurement]] = [None] * len(tasks)
        pending: list[tuple[int, RunTask, Optional[str]]] = []
        pending_by_key: dict[str, int] = {}
        #: (result index, position in ``pending``) for duplicate tasks
        #: within this batch — executed once, filled in everywhere.
        duplicates: list[tuple[int, int]] = []
        for index, task in enumerate(tasks):
            key: Optional[str] = None
            if (self._memo is not None or self.cache is not None) and task.cacheable():
                try:
                    # A None strategy runs as no-DVS; share its cache slot.
                    key = cache_key(
                        task.workload,
                        task.strategy if task.strategy is not None else NoDvsStrategy(),
                        task.seed,
                        task.kwargs,
                    )
                except UncacheableSpecError:
                    pending.append((index, task, None))
                    continue
                if self._memo is not None and key in self._memo:
                    results[index] = self._memo[key]
                    self.stats.hits += 1
                    continue
                if self.cache is not None:
                    cached = self.cache.get(key)
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
        """Place fresh measurements into ``results`` and the caches."""
        for (index, _, key), measurement in zip(pending, measured):
            results[index] = measurement
            if key is not None:
                if self._memo is not None:
                    self._memo[key] = measurement
                if self.cache is not None:
                    self.cache.put(key, measurement)
                    self.stats.stores += 1
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

        Each chunk is one pool task (:func:`_execute_chunk_traced`),
        returning its list of measurements.  Worker-side exceptions surface
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
                i: pool.submit(_execute_chunk_traced, chunks[i])
                for i in remaining
            }
            retry: list[int] = []
            broken = False

            def _failed(i: int, detail: str) -> None:
                attempts[i] += 1
                if attempts[i] > self.task_retries:
                    # Leave no half-broken pool behind the exception.
                    self._recycle_pool()
                    chunk = chunks[i]
                    if len(chunk) > 1:
                        detail = f"(chunk of {len(chunk)} tasks) {detail}"
                    raise TaskFailedError(chunk[0], attempts[i], detail)
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
                            _failed(i, exc.args[0])
                            continue
                        except Exception:
                            pass
                    retry.append(i)
                    continue
                try:
                    results[i] = future.result(timeout=self.task_timeout_s)
                except _WorkerError as exc:
                    _failed(i, exc.args[0])
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
        """Tear down a broken/hung pool without waiting on its workers."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        for proc in getattr(pool, "_processes", None) or {}:
            try:
                pool._processes[proc].terminate()
            except Exception:  # pragma: no cover - best effort
                pass
        pool.shutdown(wait=False, cancel_futures=True)


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

