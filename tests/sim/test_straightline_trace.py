"""Differential tests: a traced straightline run ≡ a traced event run.

A traced run whose gear plan is static (no-DVS, EXTERNAL) runs on the
straightline tier's identity partition, every rank recording its own
events.  Per rank, the ``TraceLog`` must equal the event engine's event
for event — all six fields, floats compared with ``==`` — and so must
everything read off it (``analyze``, ``render_timeline``) and the
``Measurement`` itself.  How events of different ranks interleave in
the log is not part of the contract (see ``TraceLog``).
"""

from __future__ import annotations

import pytest

from repro.core.framework import run_workload
from repro.core.strategies.base import NoDvsStrategy
from repro.core.strategies.external import ExternalStrategy
from repro.sim.straightline import StraightlineUnsupported, run_straightline
from repro.trace.jumpshot import render_timeline
from repro.trace.stats import analyze
from repro.workloads import get_workload
from repro.workloads.npb import ALL_CODES

#: the codes an identity run of a static plan may decline with
TYPED_DECLINES = {"out_of_order_channel", "deadlock", "wait_order"}


def _valid_n(code: str) -> list[int]:
    out = []
    for n in (4, 8, 9, 16):
        try:
            get_workload(code, klass="T", nprocs=n)
        except ValueError:
            continue
        out.append(n)
    return out


CASES = [(code, n) for code in sorted(ALL_CODES) for n in _valid_n(code)]
STRATEGIES = {
    "nodvs": NoDvsStrategy,
    "external800": lambda: ExternalStrategy(mhz=800.0),
}


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("code,n", CASES)
def test_traced_run_matches_event_engine(code, n, strategy, monkeypatch) -> None:
    import repro.sim.straightline as sl

    served = []
    real = sl.try_run_straightline

    def spy(*args, **kw):
        stats = kw.setdefault("stats", {})
        m = real(*args, **kw)
        served.append(stats.get("fallback_reason") if m is None else "fast")
        return m

    monkeypatch.setattr(sl, "try_run_straightline", spy)
    w = get_workload(code, klass="T", nprocs=n)
    auto = run_workload(w, STRATEGIES[strategy](), trace=True)
    ref = run_workload(w, STRATEGIES[strategy](), trace=True, engine="event")

    assert len(served) == 1
    assert served[0] == "fast" or served[0] in TYPED_DECLINES
    for r in range(n):
        assert auto.trace.for_rank(r) == ref.trace.for_rank(r)
    assert len(auto.trace) == len(ref.trace)
    assert analyze(auto.trace) == analyze(ref.trace)
    assert render_timeline(auto.trace, width=96) == render_timeline(
        ref.trace, width=96
    )
    for field in ("workload", "strategy", "elapsed_s", "energy_j",
                  "per_node_energy_j", "dvs_transitions", "time_at_mhz",
                  "acpi_energy_j", "baytech_energy_j", "extras"):
        assert getattr(auto, field) == getattr(ref, field), field


def test_campaign_traces_stay_on_fast_tier() -> None:
    # Figures 9 and 12 trace FT.C.8 and CG.C.8 without DVS.
    for code in ("FT", "CG"):
        m = run_straightline(get_workload(code, klass="C", nprocs=8),
                             trace=True)
        assert m.trace is not None and len(m.trace) > 0


def test_blocking_and_nonblocking_waits_keep_their_labels() -> None:
    # send()/recv() and isend()/irecv() + wait() lower to the same ops;
    # the trace still tells them apart, exactly as the engine logs them.
    from repro.workloads.microbench import CommBound

    class Mixed(CommBound):
        def make_program(self, hooks=None):
            def program(ctx):
                peer = 1 - ctx.rank
                if ctx.rank == 0:
                    yield from ctx.send(peer, 64)
                    req = ctx.irecv(peer, 0)
                    yield from ctx.wait(req)
                else:
                    yield from ctx.recv(peer, 0)
                    req = ctx.isend(peer, 1 << 20)
                    yield from ctx.wait(req)

            return program

    w = Mixed(nprocs=2)
    fast = run_straightline(w, trace=True)
    ref = run_workload(w, trace=True, engine="event")
    ops = [[e.op for e in fast.trace.for_rank(r)] for r in range(2)]
    assert ops == [["send", "wait_recv"], ["recv", "wait_send"]]
    for r in range(2):
        assert fast.trace.for_rank(r) == ref.trace.for_rank(r)


def test_unknown_wait_label_is_not_compiled() -> None:
    # A wait logged under a label of the program's choosing has no
    # compiled form: the run is traced by the event engine, verbatim.
    from repro.workloads.compile import CompileError, compile_workload
    from repro.workloads.microbench import CommBound

    class Labelled(CommBound):
        def make_program(self, hooks=None):
            def program(ctx):
                peer = 1 - ctx.rank
                req = ctx.isend(peer, 64) if ctx.rank == 0 else ctx.irecv(peer, 0)
                yield from ctx.wait(req, _op="halo")

            return program

    w = Labelled(nprocs=2)
    with pytest.raises(CompileError, match="trace label"):
        compile_workload(w, 1.4e9)
    m = run_workload(w, trace=True)
    assert [e.op for e in m.trace] and {e.op for e in m.trace} == {"halo"}


def test_traced_dvs_plan_declines_with_code() -> None:
    from repro.core.strategies.internal import InternalStrategy, RankPolicy

    strategy = InternalStrategy(RankPolicy.split(2, 1400.0, 800.0))
    with pytest.raises(StraightlineUnsupported) as info:
        run_straightline(get_workload("CG", klass="T", nprocs=4), strategy,
                         trace=True)
    assert info.value.reason == "trace_unsupported"
