"""Fault specs in the parallel engine: cache keys, failure surfacing.

Covers the regression the cache must never see (a faulty run aliasing
a clean run's slot), the runner-level fault environment, and the new
failure story: a dying pool task surfaces its *spec and worker-side
traceback* as :class:`TaskFailedError` instead of an opaque
``BrokenProcessPool``, with per-task retry and timeout.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Generator

import pytest

from repro.core.strategies import ExternalStrategy
from repro.experiments.parallel import ParallelRunner, RunTask, TaskFailedError
from repro.experiments.store import cache_key
from repro.faults import FaultSpec, NullInjector, SeededFaultInjector
from repro.workloads import get_workload
from repro.workloads.base import NO_HOOKS, PhaseHooks, Workload
from repro.workloads.microbench import CpuBound


def _ft():
    return get_workload("FT", klass="T", nprocs=8)


# ----------------------------------------------------------------------
# cache keys
# ----------------------------------------------------------------------
class TestFaultCacheKeys:
    def test_key_differs_when_only_the_fault_spec_differs(self):
        w = _ft()
        clean = cache_key(w, None, 0, {})
        faulty = cache_key(w, None, 0, {"faults": FaultSpec(seed=1,
                                                            message_drop_rate=0.1)})
        assert clean != faulty

    def test_key_differs_between_fault_seeds(self):
        w = _ft()
        spec = FaultSpec(transition_fail_rate=0.5)
        a = cache_key(w, None, 0, {"faults": spec})
        b = cache_key(w, None, 0, {"faults": spec.with_(seed=1)})
        assert a != b

    def test_key_differs_between_rates(self):
        w = _ft()
        a = cache_key(w, None, 0, {"faults": FaultSpec(message_drop_rate=0.1)})
        b = cache_key(w, None, 0, {"faults": FaultSpec(message_drop_rate=0.2)})
        assert a != b

    def test_explicit_faults_none_shares_the_clean_slot(self):
        """`faults=None` is the documented no-fault value — same key."""
        w = _ft()
        assert cache_key(w, None, 0, {}) == cache_key(w, None, 0, {"faults": None})

    def test_live_injector_tasks_are_uncacheable(self):
        task = RunTask(_ft(), kwargs={"faults": SeededFaultInjector(FaultSpec())})
        assert not task.cacheable()
        assert not RunTask(_ft(), kwargs={"faults": NullInjector()}).cacheable()
        assert RunTask(_ft(), kwargs={"faults": FaultSpec()}).cacheable()
        assert RunTask(_ft(), kwargs={"faults": None}).cacheable()

    def test_no_aliasing_through_a_real_cache(self, tmp_path):
        """The regression proper: run clean, run faulty, re-run both —
        each must come back from its own slot, values intact."""
        spec = FaultSpec(seed=5, node_slowdown_rate=1.0, node_slowdown_factor=2.0)
        with ParallelRunner(jobs=1, cache_dir=tmp_path, memo=False) as r:
            clean1 = r.run(_ft())
            faulty1 = r.run(_ft(), faults=spec)
            assert r.stats.misses == 2 and r.stats.hits == 0
            clean2 = r.run(_ft())
            faulty2 = r.run(_ft(), faults=spec)
            assert r.stats.hits == 2
        assert clean1 == clean2
        assert faulty1 == faulty2
        assert clean1 != faulty1
        assert faulty1.extras["faults"]["nodes_slowed"] == 8
        assert clean1.extras == {}


class TestRunnerFaultEnvironment:
    def test_runner_faults_reach_every_task(self):
        spec = FaultSpec(seed=5, node_slowdown_rate=1.0, node_slowdown_factor=2.0)
        with ParallelRunner(jobs=1, faults=spec) as r:
            m = r.run(_ft())
        assert m.extras["faults"]["nodes_slowed"] == 8
        assert r.stats.degraded_runs == 1 and r.stats.runs == 1

    def test_task_level_faults_none_opts_out(self):
        spec = FaultSpec(seed=5, node_slowdown_rate=1.0, node_slowdown_factor=2.0)
        with ParallelRunner(jobs=1, faults=spec) as r:
            m = r.run(_ft(), faults=None)
        assert m.extras == {}
        assert r.stats.degraded_runs == 0

    def test_degraded_stats_render(self):
        spec = FaultSpec(seed=5, node_slowdown_rate=1.0, node_slowdown_factor=2.0)
        with ParallelRunner(jobs=1, faults=spec) as r:
            r.run(_ft())
        assert "1/1 runs degraded by injected faults" in r.stats.render()


# ----------------------------------------------------------------------
# pool failure surfacing
# ----------------------------------------------------------------------
class ExplodingWorkload(CpuBound):
    """Raises inside the worker process (module-level: must pickle)."""

    name = "UB-BOOM"

    def make_program(
        self, hooks: PhaseHooks = NO_HOOKS
    ) -> Callable[..., Generator]:
        raise RuntimeError("boom: injected test failure")


class FlakyOnceWorkload(CpuBound):
    """Fails on first execution, succeeds after (cross-process via file)."""

    name = "UB-FLAKY"

    def __init__(self, marker: str, **kwargs) -> None:
        super().__init__(**kwargs)
        self.marker = marker

    def make_program(
        self, hooks: PhaseHooks = NO_HOOKS
    ) -> Callable[..., Generator]:
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as fh:
                fh.write("tried")
            raise RuntimeError("flaky: first attempt fails")
        return super().make_program(hooks)


class SleepyWorkload(CpuBound):
    """Blocks the worker in real time (for the task timeout)."""

    name = "UB-SLEEP"

    def make_program(
        self, hooks: PhaseHooks = NO_HOOKS
    ) -> Callable[..., Generator]:
        time.sleep(60.0)
        return super().make_program(hooks)  # pragma: no cover


class TestPoolFailureSurfacing:
    def test_worker_failure_surfaces_spec_and_traceback(self):
        tasks = [
            RunTask(CpuBound(seconds=0.01)),
            RunTask(ExplodingWorkload(seconds=0.01),
                    strategy=ExternalStrategy(mhz=800), seed=3),
        ]
        with ParallelRunner(jobs=2, memo=False, task_retries=0) as r:
            with pytest.raises(TaskFailedError) as err:
                r.map(tasks)
        message = str(err.value)
        # the failing task's spec ...
        assert "workload='UB-BOOM.U.1'" in message
        assert "external(800MHz)" in message or "seed=3" in message
        # ... and the worker-side traceback, not a BrokenProcessPool
        assert "boom: injected test failure" in message
        assert "Traceback" in message
        assert err.value.task.seed == 3
        assert err.value.attempts == 1

    def test_gear_plan_failure_surfaces_through_the_pool(self):
        """A batched gear-plan miss runs inside the pool too, so its
        failure names the task like any other pool failure."""
        tasks = [
            RunTask(CpuBound(seconds=0.01)),
            RunTask(ExplodingWorkload(seconds=0.01),
                    strategy=ExternalStrategy(mhz=800), seed=3),
        ]
        with ParallelRunner(jobs=2, memo=False, task_retries=0) as r:
            with pytest.raises(TaskFailedError) as err:
                r.map_sweep(tasks)
        assert err.value.task.seed == 3
        assert "seed=3" in str(err.value)
        assert "boom: injected test failure" in str(err.value)

    def test_serial_path_raises_the_original_exception(self):
        """Inline (jobs=1) execution keeps the plain exception."""
        with ParallelRunner(jobs=1, memo=False) as r:
            with pytest.raises(RuntimeError, match="boom"):
                r.run(ExplodingWorkload(seconds=0.01))

    def test_task_retry_recovers_transient_failures(self, tmp_path):
        marker = str(tmp_path / "flaky.marker")
        tasks = [
            RunTask(CpuBound(seconds=0.01)),
            RunTask(FlakyOnceWorkload(marker, seconds=0.01)),
        ]
        with ParallelRunner(jobs=2, memo=False, task_retries=1) as r:
            results = r.map(tasks)
        assert len(results) == 2
        assert all(m.elapsed_s > 0 for m in results)
        assert os.path.exists(marker)

    def test_retries_exhausted_reports_attempt_count(self, tmp_path):
        with ParallelRunner(jobs=2, memo=False, task_retries=1) as r:
            with pytest.raises(TaskFailedError) as err:
                r.map([RunTask(ExplodingWorkload(seconds=0.01)),
                       RunTask(CpuBound(seconds=0.01))])
        assert "after 2 attempt(s)" in str(err.value)

    @pytest.mark.slow
    def test_task_timeout_recycles_the_pool(self):
        tasks = [RunTask(SleepyWorkload(seconds=0.01)),
                 RunTask(CpuBound(seconds=0.01))]
        with ParallelRunner(jobs=2, memo=False, task_retries=0,
                            task_timeout_s=1.0) as r:
            with pytest.raises(TaskFailedError) as err:
                r.map(tasks)
            # the pool was recycled: the runner still works afterwards
            m = r.run(CpuBound(seconds=0.01))
        assert "task_timeout_s" in str(err.value)
        assert m.elapsed_s > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ParallelRunner(task_retries=-1)
        with pytest.raises(ValueError):
            ParallelRunner(task_timeout_s=0.0)
