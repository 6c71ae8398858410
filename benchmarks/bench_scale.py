"""Node-count scaling benchmark for the vectorized straightline tier.

Sweeps synthetic-cluster grids at N ∈ {16, 64, 256, 1024} ranks over
the NPB shapes that bracket the tier's eligibility spectrum:

* **EP** — embarrassingly parallel, collective-only: every rank shares
  one program body, the whole cluster collapses to one execution group;
* **FT** — symmetric alltoall/allreduce: same collapse, heavier
  collectives;
* **CG** — asymmetric halves with sendrecv point-to-point traffic:
  the channel classifier proves the halo exchange quotients onto the
  two rank-halves, so the whole grid runs on two interpreter lanes;
* **MG** — xor-neighbor exchanges that cross the sin-profile body
  groups: the classifier declines honestly (``p2p_unclassifiable``)
  and every point runs on the identity partition (one interpreter
  rank per rank) — the decline row keeps the comparison honest.

Per (workload, N) row the benchmark measures **uncached points/s** of
``run_batch`` and the compile-side sharing stats: execution groups vs
ranks and shared vs dense program-body bytes.

``fallbacks`` counts grid points whose partition probe declines to
the identity (from the compiled program, mirroring the tier's own
test) — zero on the symmetric and classified workloads, the full grid
on MG — and ``fallback_reasons`` histograms the typed decline codes.
The ``batch`` block reports what ``run_batch`` actually did (quotient
/ scalar point counts, splits, and its own reason histogram).

Runs standalone and emits machine-readable JSON::

    PYTHONPATH=src python benchmarks/bench_scale.py --json scale.json
    PYTHONPATH=src python benchmarks/bench_scale.py --quick

The full run is the reference for the "groups/ranks compression
< 0.25 on symmetric workloads" claim in ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from typing import Optional

import numpy as np

from repro.core.strategies.external import ExternalStrategy
from repro.core.strategies.internal import InternalStrategy, PhasePolicy
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.sim.straightline import (
    _lower_gear_actions,
    _vector_partition,
    run_batch,
)
from repro.workloads.compile import compile_workload
from repro.workloads.npb import CG, EP, FT, MG

WORKLOADS = {"EP": EP, "FT": FT, "CG": CG, "MG": MG}
SYMMETRIC = ("EP", "FT")
CLASSIFIED = ("CG",)
#: All-decline rows above this node count are not timed: every point
#: runs at G = N, whose cost grows superlinearly with N — timing MG at
#: N=1024 would burn many minutes to restate what the smaller
#: all-decline rows already show.
TIMING_MAX_DECLINE_NPROCS = 256


def make_grid(workload) -> list[tuple]:
    """A representative uncached sweep: EXTERNAL + INTERNAL points.

    Seeds are part of the point signature (they cannot influence a
    straightline-eligible run, but real sweeps carry them), so the grid
    shape matches what ``ParallelRunner.map_sweep`` batches.
    """
    mhzs = [op.frequency_mhz for op in PENTIUM_M_TABLE]
    low_phase = workload.phases[0]
    points: list[tuple] = []
    for mhz in mhzs:
        for seed in (0, 1):
            points.append((ExternalStrategy(mhz=mhz), seed))
    for mhz in mhzs[:-1]:
        points.append(
            (InternalStrategy(PhasePolicy({low_phase}, mhz, mhzs[-1])), 0)
        )
    return points


def compile_stats(workload) -> dict:
    """Group compression + shared-vs-dense body memory of one program."""
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    dense = 0
    shared_ids: dict[int, int] = {}
    for arrays in (compiled.ops, compiled.iargs, compiled.fargs):
        for a in arrays:
            dense += a.nbytes
            shared_ids[id(a)] = a.nbytes
    shared = sum(shared_ids.values())
    return {
        "rank_groups": compiled.n_groups,
        "ranks": compiled.nprocs,
        "group_compression": compiled.n_groups / compiled.nprocs,
        "body_bytes_shared": shared,
        "body_bytes_dense": dense,
        "body_bytes_ratio": shared / dense if dense else 1.0,
    }


def vector_telemetry(workload, points) -> tuple[int, int, dict]:
    """(fallbacks, execution groups, reason histogram) for a grid.

    Mirrors the tier's own partition decision — body groups refined
    by each point's start index and lowered actions, then the channel
    classifier's lane proof — without paying for a simulation per
    point, so the probe is O(compile), not O(run).  ``groups`` is the
    smallest execution-group count any point achieves (= nprocs when
    every point declines to the identity); the histogram counts the
    typed decline codes (``p2p_unclassifiable``, ``p2p_zero_byte``,
    ...) per declining point.
    """
    compiled = compile_workload(workload, PENTIUM_M_TABLE.fastest.frequency_hz)
    fallbacks = 0
    groups = workload.nprocs
    reasons: dict[str, int] = {}
    for strategy, _seed in points:
        plan = strategy.gear_plan(workload)
        actions = _lower_gear_actions(compiled, plan, PENTIUM_M_TABLE)
        part, reason = _vector_partition(compiled, actions.labels())
        if reason is not None:
            fallbacks += 1
            reasons[reason] = reasons.get(reason, 0) + 1
        groups = min(groups, len(part[1]))
    return fallbacks, groups, reasons


def bench_row(name: str, nprocs: int, *, repeats: int) -> dict:
    workload = WORKLOADS[name](nprocs=nprocs)
    points = make_grid(workload)
    fallbacks, groups, reasons = vector_telemetry(workload, points)

    # Keep an untimed all-decline row for its telemetry (fallbacks,
    # reasons, groups, compile stats), and say so.
    timing_skipped = (
        fallbacks == len(points) and nprocs > TIMING_MAX_DECLINE_NPROCS
    )
    if timing_skipped:
        print(f"[{workload.tag}: all-decline row above "
              f"N={TIMING_MAX_DECLINE_NPROCS} — timing skipped]")

    pps: Optional[float] = None
    batch_info: dict = {}
    if not timing_skipped:
        # Warm the program compilation + lowering caches so the
        # timings measure simulation throughput, not one-time compile
        # cost (which the compile stats report separately).
        run_batch(workload, points[:2])
        best = float("inf")
        for i in range(repeats):
            t0 = time.perf_counter()
            run_batch(workload, points, stats=batch_info if i == 0 else None)
            dt = time.perf_counter() - t0
            best = min(best, dt)
            if dt > 5.0:
                break  # slow row: one measurement is representative
        pps = len(points) / best

    row = {
        "workload": workload.tag,
        "nprocs": nprocs,
        "points": len(points),
        "points_per_sec": round(pps, 2) if pps is not None else None,
        "groups": groups,
        "ranks": nprocs,
        "compression": round(groups / nprocs, 4),
        "fallbacks": fallbacks,
        "fallback_reasons": reasons,
        "batch": {
            "quotient_points": batch_info.get("quotient_points", 0),
            "scalar_points": batch_info.get("scalar_points", 0),
            "splits": batch_info.get("splits", 0),
            "fallback_reasons": batch_info.get("fallback_reasons", {}),
        } if batch_info else None,
        "timing_skipped": timing_skipped,
        "compile": compile_stats(workload),
    }
    return row


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nprocs", type=int, nargs="*", default=None,
                        help="node counts to sweep (default 16 64 256 1024)")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--json", dest="json_out", default=None, metavar="PATH")
    parser.add_argument("--quick", action="store_true",
                        help="N in {16, 64}, one repeat (CI smoke)")
    args = parser.parse_args(argv)

    counts = args.nprocs or [16, 64, 256, 1024]
    repeats = args.repeats
    if args.quick:
        counts = [16, 64]
        repeats = 1

    payload = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
            "platform": platform.platform(),
        },
        "rows": [],
    }
    for name in WORKLOADS:
        for nprocs in counts:
            row = bench_row(name, nprocs, repeats=repeats)
            payload["rows"].append(row)
            pps = row["points_per_sec"]
            rate = (f"{pps:>9,.1f} pts/s" if pps is not None
                    else "   (not timed)")
            reason_txt = (
                "  reasons[" + ", ".join(
                    f"{k} x{v}"
                    for k, v in sorted(row["fallback_reasons"].items())
                ) + "]"
                if row["fallback_reasons"] else ""
            )
            print(
                f"{row['workload']:>10s} N={nprocs:<5d} {rate}"
                f"  groups={row['groups']}/{nprocs}"
                f"  fallbacks={row['fallbacks']}/{row['points']}"
                + reason_txt
            )

    sym = [
        r for r in payload["rows"]
        if r["workload"].split(".")[0] in SYMMETRIC
    ]
    classified = [
        r for r in payload["rows"]
        if r["workload"].split(".")[0] in CLASSIFIED
    ]
    payload["summary"] = {
        "max_symmetric_compression": max(r["compression"] for r in sym),
        "symmetric_fallbacks": sum(r["fallbacks"] for r in sym),
        "classified_fallbacks": sum(r["fallbacks"] for r in classified),
    }
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"[written to {args.json_out}]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
