"""The quotient (group-representative) tier at scale, bit for bit.

The node-major vectorized path simulates one interpreter rank per
execution group instead of one per rank, so a thousand-node symmetric
sweep costs group-count work.  Its contract is the tier's usual one —
*exact* reproduction of the event engine's arithmetic, ``==`` on raw
floats, no tolerances — plus pins on everything the speedup must not
change: cache keys, :data:`MODEL_VERSION`, and honest fallback on
point-to-point workloads.

Satellite coverage for the gear-plan lowering cache (LRU bound +
process-wide reuse counters surfaced through ``CacheStats``) and the
LRU bound of the per-partition classify/quotient memo tables lives
here too: the quotient tier re-lowers per grid point, so the cache is
what keeps eligibility probing and batched sweeps O(distinct plans).
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.framework import run_workload
from repro.core.strategies.base import GearPlan
from repro.core.strategies.external import ExternalStrategy
from repro.core.strategies.internal import InternalStrategy, PhasePolicy
from repro.experiments.parallel import ParallelRunner, RunTask
from repro.experiments.store import MODEL_VERSION, cache_key
from repro.hardware.network import NetworkParameters
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.hardware.power import NEMO_POWER
from repro.sim.straightline import (
    _ACTIONS_CACHE,
    _ACTIONS_CACHE_CAP,
    _QUOTIENT_CACHE,
    _lower_gear_actions,
    _measurement,
    _quotient_program,
    _run_grouped,
    _vector_partition,
    lowering_cache_counters,
    run_batch,
    run_straightline,
)
from repro.workloads.compile import (
    _CLASSIFY_CACHE,
    classify_channels,
    compile_workload,
)
from repro.workloads.npb import CG, EP, FT, MG

WORKLOADS = {"EP": EP, "FT": FT, "CG": CG, "MG": MG}
#: no p2p at all: one execution group.
SYMMETRIC = ("EP", "FT")
#: p2p that classifies into exact group-level channel classes: the
#: quotient runs CG on its two rank-halves.
CLASSIFIED = ("CG",)
#: p2p the classifier must decline (MG's xor-neighbor pairing crosses
#: its sin-profile body groups): the identity partition, G = N.
DECLINED = ("MG",)

# Event-engine references get expensive with node count: two seeds
# where the engine is cheap, one at the N=256 corner.
MATRIX = [(16, (0, 1)), (64, (0, 1)), (256, (0,))]


def strategies(workload):
    return {
        "external": ExternalStrategy(mhz=800.0),
        "internal": InternalStrategy(
            PhasePolicy({workload.phases[0]}, 600, 1400)
        ),
    }


def make(code: str, nprocs: int):
    return WORKLOADS[code](klass="T", nprocs=nprocs)


# ----------------------------------------------------------------------
# the differential matrix: vector tier ≡ event engine at N ∈ {16,64,256}
# ----------------------------------------------------------------------
@pytest.mark.parametrize("code", sorted(WORKLOADS))
@pytest.mark.parametrize("nprocs,seeds", MATRIX)
@pytest.mark.parametrize("kind", ["external", "internal"])
def test_vector_matches_event(code, nprocs, seeds, kind) -> None:
    for seed in seeds:
        ref = run_workload(
            make(code, nprocs), strategies(make(code, nprocs))[kind],
            seed=seed, engine="event",
        )
        info: dict = {}
        fast = run_straightline(
            make(code, nprocs), strategies(make(code, nprocs))[kind],
            seed=seed, stats=info,
        )
        assert fast == ref
        if code in SYMMETRIC:
            assert info["fallback_reason"] is None
            assert info["groups"] == 1
        elif code in CLASSIFIED:
            assert info["fallback_reason"] is None
            assert info["groups"] == 2  # heavy / light rank halves
        else:
            assert info["fallback_reason"] == "p2p_unclassifiable"
            assert info["groups"] == nprocs


def identity_run(workload, strategy):
    """``strategy`` on the identity partition: one rank per group."""
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    actions = _lower_gear_actions(
        compiled, strategy.gear_plan(workload), PENTIUM_M_TABLE
    )
    n = workload.nprocs
    t_end, e_nodes, time_at, transitions = _run_grouped(
        compiled, (list(range(n)), [[r] for r in range(n)]),
        workload.cost_model(), NetworkParameters(), NEMO_POWER,
        PENTIUM_M_TABLE, actions, 20e-6,
    )
    return _measurement(workload, strategy, t_end, e_nodes, time_at,
                        transitions)


@pytest.mark.parametrize("code", sorted(WORKLOADS))
@pytest.mark.parametrize("kind", ["external", "internal"])
def test_vector_matches_per_rank_scalar(code, kind) -> None:
    # The compressed quotient must be indistinguishable from the same
    # run interpreting every rank (they share the accumulator).
    workload = make(code, 64)
    strategy = strategies(workload)[kind]
    fast = run_straightline(make(code, 64), strategy, seed=0)
    assert fast == identity_run(make(code, 64), strategy)


#: batches that fall to the identity partition, by decline code.
IDENTITY_CASES = {
    # MG's channels do not classify over its body groups.
    "p2p_unclassifiable": (
        lambda: make("MG", 16),
        [(InternalStrategy(PhasePolicy({"norm"}, 600, 1400)), 0),
         (InternalStrategy(PhasePolicy({"norm"}, 800, 1400)), 0)],
    ),
    # Per-rank start gears split FT's one body group into singletons.
    "no_compression": (
        lambda: make("FT", 4),
        [(ExternalStrategy(per_node_mhz=[600.0, 800.0, 1000.0, 1400.0]), 0),
         (ExternalStrategy(per_node_mhz=[600.0, 800.0, 1000.0, 1200.0]), 0)],
    ),
}


@pytest.mark.parametrize("reason", sorted(IDENTITY_CASES))
def test_identity_partition_runs_declined_plans(reason) -> None:
    make_workload, points = IDENTITY_CASES[reason]
    n = make_workload().nprocs
    scalar = []
    for strategy, seed in points:
        info: dict = {}
        m = run_straightline(make_workload(), strategy, seed=seed, stats=info)
        assert info["fallback_reason"] == reason
        assert info["groups"] == n
        assert m == run_workload(make_workload(), strategy, seed=seed,
                                 engine="event")
        scalar.append(m)
    stats: dict = {}
    batch = run_batch(make_workload(), points, stats=stats)
    assert batch == scalar
    assert stats["quotient_points"] == len(points)
    assert "event_points" not in stats
    assert stats["fallback_reasons"] == {reason: len(points)}


def test_diverged_identity_batch_records_one_decline_code() -> None:
    # MG at two speeds, whose schedules diverge: each plan runs once on
    # the identity partition and records its partition code once.
    points = [(ExternalStrategy(mhz=800.0), 0), (ExternalStrategy(mhz=1200.0), 0)]
    stats: dict = {}
    batch = run_batch(make("MG", 16), points, stats=stats)
    assert stats["fallback_reasons"] == {"p2p_unclassifiable": 2}
    assert stats["quotient_points"] == 2
    assert "event_points" not in stats
    for (strategy, seed), measured in zip(points, batch):
        assert measured == run_straightline(make("MG", 16), strategy, seed=seed)


# ----------------------------------------------------------------------
# run_batch: each plan's quotient run returns per-point bits
# ----------------------------------------------------------------------
def grid(workload):
    points = [
        (ExternalStrategy(mhz=mhz), seed)
        for mhz in (600.0, 1000.0, 1400.0)
        for seed in (0, 1)
    ]
    points.append(
        (InternalStrategy(PhasePolicy({workload.phases[0]}, 600, 1400)), 0)
    )
    return points


@pytest.mark.parametrize("code", sorted(WORKLOADS))
@pytest.mark.parametrize("nprocs", [16, 64, 256])
def test_batch_vector_matches_per_rank_batch(code, nprocs) -> None:
    # Every point of the batch equals its own single-point run.
    workload = make(code, nprocs)
    points = grid(workload)
    batch = run_batch(make(code, nprocs), points)
    for (strategy, seed), measured in zip(points, batch):
        assert measured == run_straightline(
            make(code, nprocs), strategy, seed=seed
        )


@pytest.mark.parametrize("code", sorted(WORKLOADS))
def test_batch_vector_matches_scalar(code) -> None:
    # The batch against the event engine itself, at N=64.
    workload = make(code, 64)
    points = grid(workload)
    batch = run_batch(workload, points)
    for (strategy, seed), measured in zip(points, batch):
        ref = run_workload(make(code, 64), strategy, seed=seed,
                           engine="event")
        assert measured == ref


def test_batch_heterogeneous_start_points_refine_groups() -> None:
    # Per-node start gears split the single body group into per-gear
    # execution groups; the refined quotient must still match.
    workload = make("FT", 16)
    per_node = [600.0, 1400.0] * 8
    points = [
        (ExternalStrategy(per_node_mhz=per_node), 0),
        (ExternalStrategy(mhz=800.0), 0),
    ]
    vec = run_batch(make("FT", 16), points)
    for (strategy, seed), measured in zip(points, vec):
        assert measured == run_workload(make("FT", 16), strategy, seed=seed,
                                        engine="event")
    info: dict = {}
    m = run_straightline(
        make("FT", 16), ExternalStrategy(per_node_mhz=per_node), stats=info
    )
    assert m == vec[0]
    assert info["fallback_reason"] is None
    assert info["groups"] == 2


# ----------------------------------------------------------------------
# class C sweep grid: the partition each point would run on
# ----------------------------------------------------------------------
def sweep_grid(workload):
    """10 EXTERNAL points (every gear × seeds 0, 1) and 4 INTERNAL
    points that slow the first phase to each non-top gear."""
    mhzs = PENTIUM_M_TABLE.frequencies_mhz()
    points = [
        (ExternalStrategy(mhz=mhz), seed) for mhz in mhzs for seed in (0, 1)
    ]
    points += [
        (InternalStrategy(PhasePolicy({workload.phases[0]}, mhz, mhzs[-1])), 0)
        for mhz in mhzs[:-1]
    ]
    return points


def probe_partitions(workload, points):
    """(fewest execution groups, decline-code histogram) over ``points``.

    The tier's own partition decision (lowered actions refine the body
    groups, then the channel classifier) without simulating a point.
    """
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    groups = workload.nprocs
    reasons: dict[str, int] = {}
    for strategy, _seed in points:
        actions = _lower_gear_actions(
            compiled, strategy.gear_plan(workload), PENTIUM_M_TABLE
        )
        part, reason = _vector_partition(compiled, actions.labels())
        if reason is not None:
            reasons[reason] = reasons.get(reason, 0) + 1
        groups = min(groups, len(part[1]))
    return groups, reasons


@pytest.mark.parametrize("code", sorted(WORKLOADS))
@pytest.mark.parametrize("nprocs", [16, 64])
def test_class_c_grid_partitions(code, nprocs) -> None:
    workload = WORKLOADS[code](klass="C", nprocs=nprocs)
    groups, reasons = probe_partitions(workload, sweep_grid(workload))
    if code in SYMMETRIC:
        assert reasons == {}
        assert groups < nprocs
    elif code in CLASSIFIED:
        assert reasons == {}
        assert groups == 2
    else:
        assert set(reasons) == {"p2p_unclassifiable"}


@pytest.mark.parametrize("nprocs", [16, 64])
def test_class_c_cg_batch_keeps_channel_classes(nprocs) -> None:
    workload = CG(klass="C", nprocs=nprocs)
    stats: dict = {}
    run_batch(workload, sweep_grid(workload), stats=stats)
    reasons = stats.get("fallback_reasons", {})
    assert not any(k.startswith("p2p_") for k in reasons), reasons


# ----------------------------------------------------------------------
# pins: the speedup must be invisible to caching
# ----------------------------------------------------------------------
def test_model_version_unchanged() -> None:
    assert MODEL_VERSION == 1


def test_cache_key_still_filters_engine() -> None:
    workload = make("EP", 16)
    strategy = ExternalStrategy(mhz=800.0)
    keys = {
        cache_key(workload, strategy, 0, {"engine": engine})
        for engine in ("auto", "event", None)
    }
    keys.add(cache_key(workload, strategy, 0, {}))
    assert len(keys) == 1


# ----------------------------------------------------------------------
# gear-plan lowering cache: counters + LRU bound
# ----------------------------------------------------------------------
def test_lowering_counters_track_hits_and_misses() -> None:
    compiled = compile_workload(make("FT", 4), 1.4e9)
    plan = ExternalStrategy(mhz=800.0).gear_plan(make("FT", 4))
    h0, m0 = lowering_cache_counters()
    first = _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    h1, m1 = lowering_cache_counters()
    assert (h1, m1) == (h0, m0 + 1)  # fresh program: a miss
    again = _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    h2, m2 = lowering_cache_counters()
    assert (h2, m2) == (h0 + 1, m0 + 1)  # same plan: a hit
    assert again is first


def test_lowering_cache_is_lru_bounded() -> None:
    compiled = compile_workload(make("FT", 4), 1.4e9)
    mhzs = [op.frequency_mhz for op in PENTIUM_M_TABLE]
    plans = [
        GearPlan(init_calls=tuple((mhz,) for mhz in combo))
        for combo in itertools.product(mhzs, repeat=4)
    ][: _ACTIONS_CACHE_CAP + 6]
    for plan in plans:
        _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
    per_prog = _ACTIONS_CACHE[compiled]
    assert len(per_prog) == _ACTIONS_CACHE_CAP
    # the oldest plans were evicted: re-lowering them is a miss...
    _, m0 = lowering_cache_counters()
    _lower_gear_actions(compiled, plans[0], PENTIUM_M_TABLE)
    _, m1 = lowering_cache_counters()
    assert m1 == m0 + 1
    # ...while the newest survived: re-lowering is a hit
    h0, _ = lowering_cache_counters()
    _lower_gear_actions(compiled, plans[-1], PENTIUM_M_TABLE)
    h1, _ = lowering_cache_counters()
    assert h1 == h0 + 1


def _partition(keys):
    """``(exec_of, members)`` of per-rank keys, ids in first-rank order."""
    ids: dict = {}
    exec_of, members = [], []
    for r, k in enumerate(keys):
        e = ids.setdefault(k, len(ids))
        if e == len(members):
            members.append([])
        exec_of.append(e)
        members[e].append(r)
    return exec_of, members


def _same_program(a, b) -> bool:
    for field in dataclasses.fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, (list, tuple)) and x and isinstance(x[0], np.ndarray):
            if len(x) != len(y) or not all(map(np.array_equal, x, y)):
                return False
        elif isinstance(x, np.ndarray):
            if not np.array_equal(x, y):
                return False
        elif x != y:
            return False
    return True


def test_partition_memo_tables_are_lru_bounded() -> None:
    # One partition per candidate batch: each isolates a different pair
    # of ranks from its body group.  Both memo tables keep the newest
    # cap partitions; an evicted one re-derives identical results.
    compiled = compile_workload(make("CG", 16), 1.4e9)
    gof = compiled.group_of.tolist()
    parts = [
        _partition([(g, r if r in pair else -1) for r, g in enumerate(gof)])
        for pair in itertools.combinations(range(16), 2)
    ][: _ACTIONS_CACHE_CAP + 6]
    first_cls = classify_channels(compiled, *parts[0])
    first_q = _quotient_program(compiled, *parts[0])
    for exec_of, members in parts[1:]:
        classify_channels(compiled, exec_of, members)
        _quotient_program(compiled, exec_of, members)
    assert len(_CLASSIFY_CACHE[compiled]) == _ACTIONS_CACHE_CAP
    assert len(_QUOTIENT_CACHE[compiled]) == _ACTIONS_CACHE_CAP
    assert tuple(parts[0][0]) not in _CLASSIFY_CACHE[compiled]
    assert tuple(parts[0][0]) not in _QUOTIENT_CACHE[compiled]
    again_cls = classify_channels(compiled, *parts[0])
    again_q = _quotient_program(compiled, *parts[0])
    assert again_cls is not first_cls and again_cls == first_cls
    assert again_q is not first_q and _same_program(again_q, first_q)
    assert len(_CLASSIFY_CACHE[compiled]) == _ACTIONS_CACHE_CAP
    assert len(_QUOTIENT_CACHE[compiled]) == _ACTIONS_CACHE_CAP


def test_runner_stats_surface_lowering_reuse() -> None:
    workload = make("FT", 8)
    tasks = [
        RunTask(workload, ExternalStrategy(mhz=mhz), seed)
        for mhz in (600.0, 800.0)
        for seed in (0, 1, 2)
    ]
    with ParallelRunner(jobs=1, memo=False) as runner:
        runner.map_sweep(list(tasks), chunk_size=len(tasks))
        assert runner.stats.lowering_misses >= 1
        rendered = runner.stats.render()
    assert "lowering" in rendered
    assert "reused" in rendered
