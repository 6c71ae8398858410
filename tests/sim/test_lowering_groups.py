"""Group-level gear-plan lowering equals the rank-by-rank walk.

:func:`repro.sim.straightline._lower_gear_actions` lowers each distinct
(body group, per-rank call data) key once and shares the row across
the ranks holding it.  These properties pin it against a test-local
copy of the rank-by-rank loop it replaced, on generated plans: per-rank
``init_calls``, homogeneous and per-rank phase tables (short ones
included), per-rank setup speeds and inexact or unknown MHz values, on
EP (one body group), CG (two) and MG (several, no quotient
compression).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.strategies.base import GearPlan
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.sim.straightline import (
    _ACTIONS_CACHE,
    StraightlineUnsupported,
    _lower_gear_actions,
    _vector_partition,
    lowering_cache_counters,
)
from repro.workloads.compile import CompileError, compile_workload
from repro.workloads.npb import CG, EP, MG

PROGRAMS = {
    name: (workload, compile_workload(workload, 1.4e9))
    for name, workload in (
        ("EP", EP(klass="T", nprocs=4)),
        ("CG", CG(klass="T", nprocs=8)),
        ("MG", MG(klass="T", nprocs=8)),
    )
}
TABLE_MHZ = [op.frequency_mhz for op in PENTIUM_M_TABLE]


def reference_start(plan, opoints, nprocs: int) -> list[int]:
    """Post-setup operating-point index per rank, the oracle's way."""
    if plan.start_mhz_per_rank is not None:
        if len(plan.start_mhz_per_rank) != nprocs:
            raise StraightlineUnsupported("per-node plan length mismatch")
        return [
            opoints.index_of(opoints.by_mhz(m)) for m in plan.start_mhz_per_rank
        ]
    if plan.start_mhz is not None:
        return [opoints.index_of(opoints.by_mhz(plan.start_mhz))] * nprocs
    return [opoints.max_index] * nprocs


def reference_lowering(compiled, plan, opoints) -> list[list[tuple]]:
    """The rank-by-rank lowering loop, kept verbatim as the oracle."""
    exact = {p.frequency_mhz: i for i, p in enumerate(opoints)}
    per_rank: list[list[tuple]] = []
    try:
        for rank in range(compiled.nprocs):
            acts: list[tuple] = []
            for pos, kind, phase in compiled.markers[rank]:
                for mhz in plan.calls_at(kind, phase, rank):
                    idx = exact.get(mhz)
                    if idx is None:  # inexact MHz: by_mhz's tolerant scan
                        idx = opoints.index_of(opoints.by_mhz(mhz))
                    acts.append((pos, idx))
            per_rank.append(acts)
    except (KeyError, IndexError, ValueError) as exc:
        raise CompileError(f"gear plan not executable: {exc!r}") from exc
    return per_rank


def mhz_values(choices):
    """Exact MHz from ``choices``, or the same within by_mhz's tolerance."""
    return st.tuples(st.sampled_from(choices), st.booleans()).map(
        lambda t: t[0] + 1e-10 if t[1] else t[0]
    )


#: occasionally a frequency the table does not carry
any_calls = st.lists(mhz_values(TABLE_MHZ + [1234.5]), max_size=2).map(tuple)
valid_calls = st.lists(mhz_values(TABLE_MHZ), max_size=2).map(tuple)
#: table MHz only, for the per-rank rows, so most plans lower
known_calls = st.lists(st.sampled_from(TABLE_MHZ), max_size=2).map(tuple)


@st.composite
def rank_rows(draw, n: int):
    """A per-rank table drawn from a few distinct rows, so ranks share
    rows; now and then one or two rows short of ``n``."""
    pool = draw(st.lists(known_calls, min_size=1, max_size=3))
    length = n - draw(st.sampled_from([0, 0, 0, 0, 1, 2]))
    return tuple(draw(st.sampled_from(pool)) for _ in range(length))


@st.composite
def plans(draw, workload, calls):
    n = workload.nprocs
    phases = list(workload.phases) + ["absent"]
    init = draw(st.one_of(st.just(()), rank_rows(n)))
    if init and draw(st.booleans()):
        init = init[:-1] + (draw(calls),)
    begin = tuple(
        (p, draw(calls)) for p in draw(st.lists(st.sampled_from(phases),
                                                max_size=2, unique=True))
    )
    end = tuple(
        (p, draw(calls)) for p in draw(st.lists(st.sampled_from(phases),
                                                max_size=2, unique=True))
    )
    rank_begin = tuple(
        (p, draw(rank_rows(n))) for p in draw(st.lists(
            st.sampled_from(phases), max_size=2, unique=True))
    )
    rank_end = tuple(
        (p, draw(rank_rows(n))) for p in draw(st.lists(
            st.sampled_from(phases), max_size=1, unique=True))
    )
    start = draw(st.one_of(
        st.none(),
        st.lists(st.sampled_from(TABLE_MHZ), min_size=n, max_size=n).map(tuple),
    ))
    return GearPlan(
        start_mhz_per_rank=start,
        init_calls=init,
        begin_calls=begin,
        end_calls=end,
        rank_begin_calls=rank_begin,
        rank_end_calls=rank_end,
    )


@st.composite
def cases(draw, calls=any_calls):
    name = draw(st.sampled_from(sorted(PROGRAMS)))
    workload, compiled = PROGRAMS[name]
    return compiled, draw(plans(workload, calls))


def forget(compiled, plan) -> None:
    _ACTIONS_CACHE.get(compiled, {}).pop((plan, PENTIUM_M_TABLE), None)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_group_lowering_matches_rank_walk(case) -> None:
    compiled, plan = case
    try:
        expected = reference_lowering(compiled, plan, PENTIUM_M_TABLE)
    except CompileError as exc:
        forget(compiled, plan)
        with pytest.raises(CompileError) as got:
            _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
        assert str(got.value) == str(exc)  # the same first failing rank
        return
    forget(compiled, plan)
    h0, m0 = lowering_cache_counters()
    lowered = _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    assert lowering_cache_counters() == (h0, m0 + 1)  # one miss per plan
    assert [list(row) for row in lowered] == expected
    assert all(isinstance(row, tuple) for row in lowered)
    # equal rows are one object: identity stands for content
    for a in range(len(lowered)):
        for b in range(a):
            assert (lowered[a] is lowered[b]) == (lowered[a] == lowered[b])
    # the batch-grouping signature is equal iff every rank's hook
    # positions are
    positions = tuple(tuple(pos for pos, _t in row) for row in expected)
    shapes, idx = lowered.shape
    assert tuple(shapes[i] for i in idx) == positions

    try:
        start = reference_start(plan, PENTIUM_M_TABLE, compiled.nprocs)
    except StraightlineUnsupported:
        with pytest.raises(StraightlineUnsupported):
            lowered.start()
        return
    assert lowered.start() == start
    old_keys = [(start[r], tuple(expected[r])) for r in range(compiled.nprocs)]
    assert (_vector_partition(compiled, lowered.labels())
            == _vector_partition(compiled, old_keys))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(cases(valid_calls), min_size=2, max_size=4))
def test_multi_plan_partition_key_matches_rank_tuples(batch) -> None:
    """``run_batch``'s key over distinct plans (row identities) gives
    the partition of the per-rank tuples over every point."""
    compiled = batch[0][0]
    plans_ = [plan for c, plan in batch if c is compiled]
    plans_ += plans_[:1]  # a repeated point
    try:
        expected = [reference_lowering(compiled, p, PENTIUM_M_TABLE)
                    for p in plans_]
        starts = [reference_start(p, PENTIUM_M_TABLE, compiled.nprocs)
                  for p in plans_]
    except (CompileError, StraightlineUnsupported):
        return
    lowered = [_lower_gear_actions(compiled, p, PENTIUM_M_TABLE)
               for p in plans_]
    distinct = list({id(low): low for low in lowered}.values())
    keys = list(zip(*(low.labels() for low in distinct)))
    old_keys = [
        (tuple(s[r] for s in starts), tuple(tuple(e[r]) for e in expected))
        for r in range(compiled.nprocs)
    ]
    assert (_vector_partition(compiled, keys)
            == _vector_partition(compiled, old_keys))


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_uniform_plan_shares_one_row_per_group(name) -> None:
    _workload, compiled = PROGRAMS[name]
    phase = compiled.markers[0][1][2]
    plan = GearPlan(init_calls=((1400.0,),) * compiled.nprocs,
                    begin_calls=((phase, (600.0,)),),
                    end_calls=((phase, (1400.0,)),))
    forget(compiled, plan)
    lowered = _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    assert [list(r) for r in lowered] == reference_lowering(
        compiled, plan, PENTIUM_M_TABLE)
    for members in compiled.group_members:
        rep = lowered[int(members[0])]
        assert all(lowered[int(r)] is rep for r in members)
    assert len({id(row) for row in lowered}) <= compiled.n_groups


def test_short_table_raises_only_where_markers_use_it() -> None:
    _workload, compiled = PROGRAMS["CG"]
    n = compiled.nprocs
    short = ((600.0,),) * (n - 1)
    # a phase no marker announces: the short row is never read
    unused = GearPlan(rank_begin_calls=(("absent", short),))
    assert all(row == () for row in
               _lower_gear_actions(compiled, unused, PENTIUM_M_TABLE))
    used = GearPlan(rank_begin_calls=(("matvec", short),))
    with pytest.raises(CompileError, match="IndexError"):
        _lower_gear_actions(compiled, used, PENTIUM_M_TABLE)
    with pytest.raises(CompileError, match="IndexError"):
        _lower_gear_actions(compiled, GearPlan(init_calls=short),
                            PENTIUM_M_TABLE)
