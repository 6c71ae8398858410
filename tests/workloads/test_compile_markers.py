"""Hook-site markers on compiled programs (the piecewise-static IR).

``compile_workload`` records every phase-hook call site as an
``(op position, kind, phase)`` marker so the straightline tier can
lower a strategy's :class:`GearPlan` onto the exact spots where the
event engine would issue ``set_cpuspeed`` calls.
"""

from __future__ import annotations

import pytest

from repro.core.strategies.base import GearPlan
from repro.core.strategies.internal import InternalStrategy, PhasePolicy
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.sim.straightline import _lower_gear_actions
from repro.workloads.compile import CompileError, compile_workload
from repro.workloads.npb.ft import FT


@pytest.fixture(scope="module")
def compiled():
    workload = FT(klass="T", nprocs=4)
    return compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)


def test_markers_cover_every_rank(compiled) -> None:
    assert len(compiled.markers) == compiled.nprocs
    for rank_markers in compiled.markers:
        assert rank_markers, "every rank announces phases"


def test_marker_positions_are_monotonic_and_bounded(compiled) -> None:
    for rank, rank_markers in enumerate(compiled.markers):
        n_ops = len(compiled.ops[rank])
        last = 0
        for pos, kind, phase in rank_markers:
            assert 0 <= pos <= n_ops
            assert pos >= last  # call order == program order
            last = pos
            assert kind in ("init", "begin", "end")
            assert (phase == "") == (kind == "init")


def test_markers_announce_declared_phases(compiled) -> None:
    workload = FT(klass="T", nprocs=4)
    for rank_markers in compiled.markers:
        kinds = [kind for _, kind, _ in rank_markers]
        assert kinds[0] == "init"
        phases = {phase for _, kind, phase in rank_markers if kind == "begin"}
        assert phases <= set(workload.phases)
        assert "alltoall" in phases
        # begin/end pair up per phase
        ends = [phase for _, kind, phase in rank_markers if kind == "end"]
        begins = [phase for _, kind, phase in rank_markers if kind == "begin"]
        assert sorted(begins) == sorted(ends)


def test_gear_plan_lowering_places_actions_at_markers(compiled) -> None:
    workload = FT(klass="T", nprocs=4)
    plan = InternalStrategy(PhasePolicy({"alltoall"}, 600, 1400)).gear_plan(workload)
    actions = _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    assert len(actions) == compiled.nprocs
    high = PENTIUM_M_TABLE.index_of(PENTIUM_M_TABLE.by_mhz(1400.0))
    low = PENTIUM_M_TABLE.index_of(PENTIUM_M_TABLE.by_mhz(600.0))
    for rank, acts in enumerate(actions):
        marker_positions = {pos for pos, _, _ in compiled.markers[rank]}
        assert acts[0][1] == high  # on_init: high gear
        targets = [target for _, target in acts]
        assert low in targets  # the alltoall begin drops the gear
        assert all(pos in marker_positions for pos, _ in acts)


def test_unknown_frequency_raises_compile_error(compiled) -> None:
    plan = GearPlan(init_calls=((1234.5,),) * compiled.nprocs)
    with pytest.raises(CompileError, match="gear plan not executable"):
        _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)


def test_static_plan_lowers_to_no_actions(compiled) -> None:
    actions = _lower_gear_actions(compiled, GearPlan(), PENTIUM_M_TABLE)
    assert all(acts == () for acts in actions)
