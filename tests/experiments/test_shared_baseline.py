"""Figure 5 normalizes against Table 2's full-speed runs.

The paper normalizes Table 2 and Figure 5 to the same run: every node
at 1400 MHz, no DVS.  EXTERNAL at the fastest point is that run: the
fresh CPU already sits there, so EXTERNAL's setup speed call returns
before any fault draw.  A campaign therefore simulates it once, as
Table 2's 1400 MHz column, and Figure 5 reuses it.
"""

import pytest

from repro.core import framework
from repro.core.framework import run_workload
from repro.core.strategies import (
    CpuspeedDaemonStrategy,
    ExternalStrategy,
    NoDvsStrategy,
)
from repro.experiments import figures, parallel
from repro.experiments.campaign import run_campaign
from repro.experiments.parallel import ParallelRunner, use
from repro.experiments.tables import NPB_CODES, table2
from repro.faults import FAULT_PRESETS
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.sim import straightline
from repro.workloads import get_workload
from repro.workloads.compile import compile_workload


def _hex(x):
    return None if x is None else float.hex(x)


def _summary(m):
    """Every summary field but ``strategy``, floats as ``float.hex``."""
    return (
        m.workload,
        _hex(m.elapsed_s),
        _hex(m.energy_j),
        [(node, _hex(e)) for node, e in m.per_node_energy_j.items()],
        [(_hex(mhz), _hex(s)) for mhz, s in m.time_at_mhz.items()],
        m.dvs_transitions,
        _hex(m.acpi_energy_j),
        _hex(m.baytech_energy_j),
        repr(m.extras),
        m.trace,
        m.report,
    )


def _hex_points(points):
    return {code: tuple(map(_hex, p)) for code, p in points.items()}


@pytest.mark.parametrize("faults", [None, "mild", "harsh"])
@pytest.mark.parametrize("engine", ["event", "auto"])
@pytest.mark.parametrize("code", sorted(NPB_CODES))
def test_fastest_external_equals_no_dvs(code, engine, faults):
    w = get_workload(code, klass="T", nprocs=NPB_CODES[code])
    kwargs = dict(engine=engine, faults=FAULT_PRESETS[faults] if faults else None)
    fastest = PENTIUM_M_TABLE.fastest.frequency_mhz
    external = run_workload(w, ExternalStrategy(mhz=fastest), **kwargs)
    baseline = run_workload(w, NoDvsStrategy(), **kwargs)
    assert external.strategy != baseline.strategy
    assert _summary(external) == _summary(baseline)


def _record_simulated_points(monkeypatch) -> list:
    """Key every untraced point the simulators run, in run order.

    A point counts on the tier that measures it: a straightline run
    that declines to the event engine counts once, on the event engine.
    A gear-plan point (straightline ``_run_plan`` or the event engine)
    keys by its workload tag plus the lowered plan's ``start()`` and
    rows, so the same run under two strategy names collides.  A daemon
    point (sampled-control tier or event engine) keys by its workload
    tag, strategy and seed.
    """
    keys: list = []
    current: list = []

    def plan_key(workload, lowered):
        return ("plan", workload.tag, tuple(lowered.start()), tuple(lowered))

    def point_key(workload, strategy, seed):
        plan = strategy.gear_plan(workload)
        if plan is None:
            return ("daemon", workload.tag, strategy.describe(), seed)
        compiled = compile_workload(
            workload, PENTIUM_M_TABLE.fastest.frequency_hz
        )
        lowered = straightline._lower_gear_actions(
            compiled, plan, PENTIUM_M_TABLE
        )
        return plan_key(workload, lowered)

    real_run_workload = framework.run_workload

    def run_workload_spy(workload, strategy=None, seed=0, trace=False, **kw):
        current.append((workload, strategy or NoDvsStrategy(), seed, trace))
        try:
            return real_run_workload(workload, strategy, seed=seed,
                                     trace=trace, **kw)
        finally:
            current.pop()

    def note_run():
        if current and not current[-1][3]:
            keys.append(point_key(*current[-1][:3]))

    real_run_plan = straightline._run_plan

    def run_plan_spy(workload, strategy, compiled, lowered, *args, trace=None,
                     **kwargs):
        result = real_run_plan(workload, strategy, compiled, lowered, *args,
                               trace=trace, **kwargs)
        if trace is None:
            keys.append(plan_key(workload, lowered))
        return result

    def spy_on(owner, name):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            note_run()
            return result

        monkeypatch.setattr(owner, name, spy)

    monkeypatch.setattr(framework, "run_workload", run_workload_spy)
    monkeypatch.setattr(parallel, "run_workload", run_workload_spy)
    monkeypatch.setattr(straightline, "_run_plan", run_plan_spy)
    spy_on(framework, "launch")  # the event engine
    spy_on(straightline._SampledExecutor, "run")  # the daemon tier
    return keys


def test_cold_campaign_simulates_each_point_once(monkeypatch):
    keys = _record_simulated_points(monkeypatch)
    run_campaign(klass="T")
    # Table 2 alone runs 8 codes x 5 frequencies through _run_plan.
    assert len(keys) >= 40
    repeated = {key for key in keys if keys.count(key) > 1}
    assert not repeated


def _figure5_with_table2_sweeps(monkeypatch, codes, swept):
    """Figure 5 given Table 2 sweeps of ``swept``, and the tasks it
    submitted to the runner."""
    submitted: list = []
    with ParallelRunner(jobs=1) as runner, use(runner):
        sweeps = {c: r.sweep for c, r in table2(codes=swept, klass="T").items()}
        real_map = runner.map

        def map_spy(tasks, *args, **kwargs):
            submitted.extend(tasks)
            return real_map(tasks, *args, **kwargs)

        monkeypatch.setattr(runner, "map", map_spy)
        shared = figures.figure5_cpuspeed(codes=codes, klass="T", sweeps=sweeps)
    return shared, submitted


def test_figure5_reuses_sweep_baselines(monkeypatch):
    shared, submitted = _figure5_with_table2_sweeps(monkeypatch, None, None)
    standalone = figures.figure5_cpuspeed(klass="T")
    assert len(submitted) == len(NPB_CODES)
    assert all(isinstance(t.strategy, CpuspeedDaemonStrategy) for t in submitted)
    assert _hex_points(shared.points) == _hex_points(standalone.points)
    assert {c: _summary(m) for c, m in shared.measurements.items()} == {
        c: _summary(m) for c, m in standalone.measurements.items()
    }


def test_figure5_runs_its_own_baseline_for_codes_without_a_sweep(monkeypatch):
    shared, submitted = _figure5_with_table2_sweeps(
        monkeypatch, ["EP", "FT"], ["EP"]
    )
    baselines = [t for t in submitted if t.strategy is None]
    assert [t.workload.name for t in baselines] == ["FT"]
    standalone = figures.figure5_cpuspeed(codes=["EP", "FT"], klass="T")
    assert _hex_points(shared.points) == _hex_points(standalone.points)
