"""``repro-experiments`` — regenerate any paper table or figure.

Examples::

    repro-experiments table1
    repro-experiments table2 --codes FT CG --class C
    repro-experiments fig6 fig7 fig8        # shares one sweep set
    repro-experiments all -j 4              # every section, 4 workers
    repro-experiments report --out REPORT.md

Each target prints its section(s) of the reproduction report
(:data:`repro.experiments.campaign.SECTIONS`) exactly as ``report``
writes them.  Every simulation routes through one parallel experiment
engine: the on-disk measurement cache is on by default (``--no-cache``
to disable, ``--cache-dir`` to relocate, ``--clear-cache`` to wipe it
first) and ``--jobs/-j`` fans independent runs over worker processes.
Results are bit-for-bit identical to a serial, uncached run.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path
from typing import Optional, Sequence

from repro.experiments import ablations
from repro.experiments.campaign import (
    SECTIONS,
    Context,
    Section,
    frontier_sections,
    render_report,
)
from repro.experiments.parallel import ParallelRunner, use
from repro.experiments.report import render_table

__all__ = ["main"]

#: ``all`` runs these, in report order
PAPER = tuple(dict.fromkeys(section.target for section in SECTIONS))
KNOWN = (*PAPER, "ablations", "advise", "optimize", "report", "all")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the simulator.",
    )
    parser.add_argument(
        "targets",
        nargs="+",
        choices=KNOWN,
        help="which tables/figures to regenerate",
    )
    parser.add_argument(
        "--codes", nargs="*", default=None, help="restrict to these NPB codes"
    )
    parser.add_argument(
        "--class",
        dest="klass",
        default="C",
        help="NPB problem class (default C; T is a fast tiny class)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=1,
        help="worker processes for independent simulation runs (default 1)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="measurement cache root (default $REPRO_CACHE_DIR or .repro-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk measurement cache for this invocation",
    )
    parser.add_argument(
        "--clear-cache",
        action="store_true",
        help="wipe the measurement cache before running",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "inject deterministic faults into every run: a preset "
            "(none/mild/harsh) and/or comma-separated key=value overrides, "
            "e.g. 'mild,seed=3' or 'fail=0.2,dropout=0.1' (see docs/faults.md)"
        ),
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        default=None,
        metavar="PATH",
        help="also archive the raw sweep measurements to a JSON file",
    )
    parser.add_argument(
        "--out",
        default="REPORT.md",
        metavar="PATH",
        help="where 'report' writes the markdown report (default REPORT.md)",
    )
    optimize = parser.add_argument_group(
        "optimize", "options for the offline gear-plan optimizer (docs/optimizer.md)"
    )
    optimize.add_argument(
        "--delta",
        type=float,
        default=0.05,
        help=(
            "performance constraint for 'optimize': allowed slowdown over "
            "the no-DVS baseline (default 0.05 = 5%%)"
        ),
    )
    optimize.add_argument(
        "--optimal",
        action="store_true",
        help=(
            "also enter the computed optimal plan as an 'advise' candidate, "
            "and append the computed FT/CG frontiers to 'report'"
        ),
    )
    return parser


def _ablation(study, label: str, ctx: Context) -> str:
    rows = [
        (f"{p.setting:g}", f"{p.norm_delay:.3f}", f"{p.norm_energy:.3f}")
        for p in study(klass=ctx.klass)
    ]
    return render_table([label, "Norm delay", "Norm energy"], rows)


ABLATIONS = tuple(
    Section("ablations", heading, partial(_ablation, study, label))
    for heading, study, label in (
        ("Ablation: CPUSPEED polling interval (FT)",
         ablations.daemon_interval_study, "interval (s)"),
        ("Ablation: CPUSPEED usage threshold (MG)",
         ablations.daemon_threshold_study, "threshold (%)"),
        ("Ablation: DVS transition latency vs INTERNAL FT",
         ablations.transition_latency_study, "latency (s)"),
        ("Ablation: fabric bandwidth vs INTERNAL FT",
         ablations.network_speed_study, "bandwidth x"),
        ("Ablation: node count vs INTERNAL FT",
         ablations.scaling_study, "nodes"),
    )
)


def _advice(code: str, optimal: bool, ctx: Context) -> str:
    from repro.core import ScheduleAdvisor
    from repro.workloads import get_workload
    from repro.experiments.tables import NPB_CODES

    advisor = ScheduleAdvisor(
        include_optimal=optimal,
        max_delay_increase=ctx.delta if optimal else None,
    )
    workload = get_workload(code, klass=ctx.klass, nprocs=NPB_CODES.get(code, 8))
    return advisor.advise(workload).render()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    targets = PAPER if "all" in args.targets else args.targets
    ctx = Context(args.klass, args.seed, args.codes, args.delta)
    sections = (
        SECTIONS
        + ABLATIONS
        + tuple(
            Section("advise", f"Schedule advice — {code}",
                    partial(_advice, code, args.optimal))
            for code in (c.upper() for c in args.codes or ("FT", "CG", "EP"))
        )
        + frontier_sections(args.codes or ("FT", "CG"))
    )

    from repro.experiments.store import default_cache_dir

    cache_dir = None if args.no_cache else (args.cache_dir or default_cache_dir())
    if args.clear_cache and cache_dir is not None:
        from repro.experiments.store import MeasurementCache

        removed = MeasurementCache(cache_dir).clear()
        print(f"[cleared {removed} cached measurements from {cache_dir}]")

    faults = None
    if args.faults:
        from repro.faults import parse_fault_spec

        faults = parse_fault_spec(args.faults)
        if faults.active:
            print(f"[injecting faults: {faults.describe()}]")

    out = []
    with ParallelRunner(
        jobs=args.jobs, cache_dir=cache_dir, faults=faults
    ) as runner, use(runner):
        for target in targets:
            if target == "report":
                path = Path(args.out)
                path.write_text(render_report(runner, ctx, args.optimal))
                out.append(f"[full reproduction report written to {path}]")
            else:
                out.extend(s.render(ctx) for s in sections if s.target == target)

        print("\n".join(out).rstrip("\n"))
        if runner.cache is not None or runner.stats.lookups:
            print(f"\n[{runner.stats.render()}]")

    if args.json_out and ctx.rows is not None:
        from repro.experiments.store import save_json, sweep_to_dict

        payload = {code: sweep_to_dict(row.sweep) for code, row in ctx.rows.items()}
        path = save_json(args.json_out, payload)
        print(f"\n[raw sweep measurements written to {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
