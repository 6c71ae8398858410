"""``repro-experiments`` — regenerate any paper table or figure.

Examples::

    repro-experiments table1
    repro-experiments table2 --codes FT CG --class C
    repro-experiments fig2
    repro-experiments fig5
    repro-experiments fig6 fig7 fig8        # shares one sweep set
    repro-experiments fig9 fig11 fig12 fig14
    repro-experiments all -j 4              # fan runs over 4 workers

Every simulation routes through the parallel experiment engine: the
on-disk measurement cache is on by default (``--no-cache`` to disable,
``--cache-dir`` to relocate, ``--clear-cache`` to wipe it first) and
``--jobs/-j`` fans independent runs over worker processes.  Results
are bit-for-bit identical to a serial, uncached run.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.experiments import figures, report, tables
from repro.experiments.parallel import ParallelRunner, use

__all__ = ["main"]

KNOWN = (
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig11",
    "fig12",
    "fig14",
    "ablations",
    "advise",
    "optimize",
    "report",
    "all",
)


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
        help="also enter the computed optimal plan as an 'advise' candidate",
    )
    return parser


def _run_ablations(args) -> str:
    from repro.experiments import ablations
    from repro.experiments.report import render_table

    def table(points, label):
        rows = [
            (f"{p.setting:g}", f"{p.norm_delay:.3f}", f"{p.norm_energy:.3f}")
            for p in points
        ]
        return render_table([label, "Norm delay", "Norm energy"], rows)

    sections = [
        ("Ablation: CPUSPEED polling interval (FT)",
         table(ablations.daemon_interval_study(klass=args.klass), "interval (s)")),
        ("Ablation: CPUSPEED usage threshold (MG)",
         table(ablations.daemon_threshold_study(klass=args.klass), "threshold (%)")),
        ("Ablation: DVS transition latency vs INTERNAL FT",
         table(ablations.transition_latency_study(klass=args.klass), "latency (s)")),
        ("Ablation: fabric bandwidth vs INTERNAL FT",
         table(ablations.network_speed_study(klass=args.klass), "bandwidth x")),
        ("Ablation: node count vs INTERNAL FT",
         table(ablations.scaling_study(klass=args.klass), "nodes")),
    ]
    return "\n\n".join(f"{title}\n{body}" for title, body in sections)


def _run_advisor(args) -> str:
    from repro.core import ScheduleAdvisor
    from repro.workloads import get_workload
    from repro.experiments.tables import NPB_CODES

    advisor = ScheduleAdvisor(
        include_optimal=args.optimal,
        max_delay_increase=args.delta if args.optimal else None,
    )
    out = []
    for code in args.codes or ("FT", "CG", "EP"):
        code = code.upper()
        workload = get_workload(code, klass=args.klass, nprocs=NPB_CODES.get(code, 8))
        out.append(advisor.advise(workload).render())
    return "\n\n".join(out)


def _run_optimize(args) -> str:
    from repro.experiments.figures import figure_optimal_frontier
    from repro.experiments.report import render_optimal

    out = []
    for code in args.codes or ("FT", "CG"):
        out.append(
            render_optimal(
                figure_optimal_frontier(
                    code, klass=args.klass, seed=args.seed, delta=args.delta
                )
            )
        )
    return "\n\n".join(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    targets = list(args.targets)
    if "all" in targets:
        targets = [
            t for t in KNOWN
            if t not in ("all", "ablations", "advise", "optimize", "report")
        ]

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

    with ParallelRunner(
        jobs=args.jobs, cache_dir=cache_dir, faults=faults
    ) as runner, use(runner):
        return _dispatch(args, targets, runner)


def _dispatch(args, targets, runner) -> int:
    out = []
    sweeps = None
    table2_rows = None

    def ensure_sweeps():
        nonlocal sweeps, table2_rows
        if sweeps is None:
            table2_rows = tables.table2(
                codes=args.codes, klass=args.klass, seed=args.seed
            )
            sweeps = {c: r.sweep for c, r in table2_rows.items()}
        return sweeps

    for target in targets:
        if target == "table1":
            out.append(report.render_table1(tables.table1()))
        elif target == "table2":
            ensure_sweeps()
            out.append(report.render_table2(table2_rows))
        elif target == "fig1":
            out.append(report.render_breakdown(figures.figure1_power_breakdown()))
        elif target == "fig2":
            out.append(
                report.render_sweep(
                    figures.figure2_swim_crescendo(seed=args.seed),
                    "Figure 2: swim energy-delay crescendo",
                )
            )
        elif target == "fig5":
            out.append(
                report.render_comparison(
                    figures.figure5_cpuspeed(
                        codes=args.codes, klass=args.klass, seed=args.seed,
                        sweeps=sweeps,
                    ),
                    "Figure 5: CPUSPEED daemon (v1.2.1)",
                )
            )
        elif target == "fig6":
            out.append(
                report.render_selection(
                    figures.figure6_external_ed3p(
                        codes=args.codes, klass=args.klass, seed=args.seed,
                        sweeps=ensure_sweeps(),
                    )
                )
            )
        elif target == "fig7":
            out.append(
                report.render_selection(
                    figures.figure7_external_ed2p(
                        codes=args.codes, klass=args.klass, seed=args.seed,
                        sweeps=ensure_sweeps(),
                    )
                )
            )
        elif target == "fig8":
            out.append(
                report.render_crescendos(
                    figures.figure8_crescendos(
                        codes=args.codes, klass=args.klass, seed=args.seed,
                        sweeps=ensure_sweeps(),
                    )
                )
            )
        elif target == "fig9":
            out.append(
                report.render_trace_observations(
                    figures.figure9_ft_trace(klass=args.klass, seed=args.seed)
                )
            )
        elif target == "fig11":
            out.append(
                report.render_internal(
                    figures.figure11_ft_internal(klass=args.klass, seed=args.seed)
                )
            )
        elif target == "fig12":
            out.append(
                report.render_trace_observations(
                    figures.figure12_cg_trace(klass=args.klass, seed=args.seed)
                )
            )
        elif target == "fig14":
            out.append(
                report.render_internal(
                    figures.figure14_cg_internal(klass=args.klass, seed=args.seed)
                )
            )
        elif target == "ablations":
            out.append(_run_ablations(args))
        elif target == "advise":
            out.append(_run_advisor(args))
        elif target == "optimize":
            out.append(_run_optimize(args))
        elif target == "report":
            from repro.experiments.campaign import write_report

            path = write_report(
                "REPORT.md", klass=args.klass, seed=args.seed, codes=args.codes,
                jobs=args.jobs,
                cache_dir=runner.cache.root if runner.cache is not None else None,
                with_optimal=args.optimal,
            )
            out.append(f"[full reproduction report written to {path}]")

    print("\n\n".join(out))
    if runner.cache is not None or runner.stats.lookups:
        print(f"\n[{runner.stats.render()}]")

    if args.json_out and table2_rows is not None:
        from repro.experiments.store import save_json, sweep_to_dict

        payload = {
            code: sweep_to_dict(row.sweep) for code, row in table2_rows.items()
        }
        path = save_json(args.json_out, payload)
        print(f"\n[raw sweep measurements written to {path}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
