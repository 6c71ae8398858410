"""Candidate-throughput benchmark for the offline gear-plan optimizer.

Two questions, per workload shape:

* **Throughput** — how many candidate plans per second does the
  optimizer's scoring path evaluate?  The same deterministic candidate
  set is timed through one batched ``run_batch`` call (the quotient
  batch tier, how the search actually scores) and through a per-plan
  scalar ``run_straightline`` loop (the scalar quotient, one point at
  a time).  ``speedup_batch_vs_scalar`` is the ratio.
* **Quality** — does the computed plan beat the hand-picked schedules?
  Per row, the optimizer runs at delta=0.05 and its winner's energy is
  compared against every feasible shipped candidate (the EXTERNAL
  frequency family plus the paper's Figure 11/14 INTERNAL policies):
  ``optimal_beats_heuristics`` must be true.

Runs standalone and emits machine-readable JSON::

    PYTHONPATH=src python benchmarks/bench_optimal.py --json optimal.json
    PYTHONPATH=src python benchmarks/bench_optimal.py --quick
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import time
from typing import Optional

from repro.core.framework import run_workload
from repro.core.strategies.external import ExternalStrategy
from repro.core.strategies.internal import InternalStrategy, PhasePolicy, RankPolicy
from repro.experiments.store import CacheStats
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.optimize import OptimalPlanStrategy, optimize_gear_plan
from repro.sim.straightline import run_batch, run_straightline
from repro.workloads.npb import CG, FT

DELTA = 0.05


def make_candidates(workload, groups, n_groups, limit: int):
    """A deterministic sample of candidate plans for throughput timing."""
    mhzs = PENTIUM_M_TABLE.frequencies_mhz()
    P = len(workload.phases)
    plans = []
    for combo in itertools.product(range(len(mhzs)), repeat=n_groups * P):
        table = [
            [mhzs[combo[g * P + p]] for p in range(P)] for g in range(n_groups)
        ]
        plans.append(OptimalPlanStrategy(groups, workload.phases, table))
        if len(plans) >= limit:
            break
    return plans


def shipped_candidates(code: str):
    shipped = [ExternalStrategy(mhz=m) for m in PENTIUM_M_TABLE.frequencies_mhz()]
    if code == "FT":
        shipped.append(
            InternalStrategy(PhasePolicy({"alltoall"}, low_mhz=600.0,
                                         high_mhz=1400.0))
        )
    elif code == "CG":
        shipped.append(
            InternalStrategy(RankPolicy.split(2, high_mhz=1200.0, low_mhz=800.0))
        )
        shipped.append(
            InternalStrategy(RankPolicy.split(2, high_mhz=1000.0, low_mhz=800.0))
        )
    return shipped


def rank_groups(workload):
    from repro.workloads.compile import classify_channels, compile_workload

    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    groups = tuple(int(g) for g in compiled.group_of)
    batchable = compiled.n_requests == 0 or classify_channels(compiled).exact
    return groups, compiled.n_groups, batchable


def bench_row(make_workload, code: str, *, sample: int, repeats: int) -> dict:
    workload = make_workload()
    groups, n_groups, batchable = rank_groups(workload)
    plans = make_candidates(workload, groups, n_groups, sample)
    points = [(p, 0) for p in plans]

    # Warm compile + lowering caches so both paths time pure evaluation.
    run_batch(make_workload(), points[:2])

    best_batch = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_batch(make_workload(), points)
        best_batch = min(best_batch, time.perf_counter() - t0)
    batch_pps = len(points) / best_batch

    best_scalar = float("inf")
    t0 = time.perf_counter()
    for plan, seed in points:
        run_straightline(make_workload(), plan, seed=seed)
    best_scalar = min(best_scalar, time.perf_counter() - t0)
    scalar_pps = len(points) / best_scalar

    # Quality: the optimizer's winner vs every feasible shipped schedule.
    stats = CacheStats()
    t0 = time.perf_counter()
    res = optimize_gear_plan(make_workload(), delta=DELTA, stats=stats)
    search_s = time.perf_counter() - t0
    cap = (1 + DELTA) * res.baseline.elapsed_s
    heuristics = {}
    for s in shipped_candidates(code):
        m = run_workload(make_workload(), s)
        if m.elapsed_s <= cap * (1 + 1e-9):
            heuristics[s.describe()] = m.energy_j
    best_heuristic = min(heuristics.values()) if heuristics else None

    t = res.telemetry
    return {
        "workload": workload.tag,
        # which tier the optimizer scores this shape on; non-batchable
        # shapes keep the (sub-1x) batch column as the justification.
        "scoring_path": "quotient-batch" if batchable else "scalar",
        "sample_plans": len(points),
        "batch_plans_per_sec": round(batch_pps, 2),
        "scalar_plans_per_sec": round(scalar_pps, 2),
        "speedup_batch_vs_scalar": round(batch_pps / scalar_pps, 2),
        "search": {
            "delta": DELTA,
            "seconds": round(search_s, 3),
            "plans_per_sec": round(t.candidates_evaluated / search_s, 2),
            "space_size": t.space_size,
            "candidates_evaluated": t.candidates_evaluated,
            "candidates_pruned": t.candidates_pruned,
            "batches": t.batches,
            "max_batch": t.max_batch,
            "rounds": t.rounds,
            "exhaustive": t.exhaustive,
            "frontier_size": len(res.frontier),
        },
        "optimal_energy_j": res.best.energy_j,
        "optimal_norm_delay": round(res.best.norm_delay, 4),
        "optimal_norm_energy": round(res.best.norm_energy, 4),
        "best_heuristic_energy_j": best_heuristic,
        "feasible_heuristics": len(heuristics),
        "optimal_beats_heuristics": (
            best_heuristic is None or res.best.energy_j <= best_heuristic
        ),
    }


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nprocs", type=int, default=None,
                        help="rank count for both shapes (default: 64 for "
                             "FT where the quotient advantage lives, 16 for "
                             "CG, whose halo-exchange channel classes now "
                             "quotient to its two rank-halves)")
    parser.add_argument("--sample", type=int, default=128,
                        help="candidate plans in the throughput sample")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", dest="json_out", default=None, metavar="PATH")
    parser.add_argument("--quick", action="store_true",
                        help="4 ranks, 48-plan sample, one repeat (CI smoke)")
    args = parser.parse_args(argv)

    sample, repeats = args.sample, args.repeats
    ft_nprocs = args.nprocs or 64
    cg_nprocs = args.nprocs or 16
    if args.quick:
        ft_nprocs, cg_nprocs, sample, repeats = 4, 4, 48, 1

    payload = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python_version": platform.python_version(),
            "platform": platform.platform(),
        },
        "rows": [],
    }
    shapes = [
        ("FT", lambda: FT(klass="T", nprocs=ft_nprocs)),
        ("CG", lambda: CG(klass="T", nprocs=cg_nprocs)),
    ]
    for code, make_workload in shapes:
        row = bench_row(make_workload, code, sample=sample, repeats=repeats)
        payload["rows"].append(row)
        s = row["search"]
        print(
            f"{row['workload']:>8s} [{row['scoring_path']}]  "
            f"batch {row['batch_plans_per_sec']:>9,.1f} "
            f"plans/s ({row['speedup_batch_vs_scalar']:.1f}x vs scalar "
            f"{row['scalar_plans_per_sec']:,.1f})  search "
            f"{s['candidates_evaluated']}/{s['space_size']} plans in "
            f"{s['seconds']}s, frontier {s['frontier_size']}, "
            f"optimal<=heuristics: {row['optimal_beats_heuristics']}"
        )

    quotient_rows = [
        r for r in payload["rows"] if r["scoring_path"] == "quotient-batch"
    ] or payload["rows"]
    payload["summary"] = {
        # over quotient-scored rows only: non-batchable shapes are
        # deliberately sub-1x on the batch tier (see scoring_path).
        "min_speedup_batch_vs_scalar": min(
            r["speedup_batch_vs_scalar"] for r in quotient_rows
        ),
        "max_plans_per_sec": max(
            r["batch_plans_per_sec"] for r in payload["rows"]
        ),
        "all_optimal_beats_heuristics": all(
            r["optimal_beats_heuristics"] for r in payload["rows"]
        ),
        "total_frontier_size": sum(
            r["search"]["frontier_size"] for r in payload["rows"]
        ),
    }
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"[written to {args.json_out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
