"""Full reproduction campaign — everything, one artifact.

Runs every table and figure (plus fidelity scoring and, optionally, the
extension benches) and writes a single markdown report.  This is the
"rebuild the paper" button:

    repro-experiments report            # writes REPORT.md
    python -m repro.experiments.campaign --out REPORT.md -j 4

The whole campaign runs through one
:class:`~repro.experiments.parallel.ParallelRunner`, so sweep points
shared between figures (and each workload's no-DVS baseline) simulate
exactly once, ``--jobs`` fans independent runs over worker processes,
and ``--cache-dir`` persists every point across campaigns.
"""

from __future__ import annotations

import argparse
import time
from pathlib import Path
from typing import Optional, Sequence, Union

from repro.experiments import figures, report, tables
from repro.experiments.parallel import ParallelRunner, use
from repro.faults import FaultSpec, parse_fault_spec
from repro.experiments.plotting import crescendo_chart
from repro.experiments.validation import score_table2

__all__ = ["run_campaign", "main"]


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def run_campaign(
    klass: str = "C",
    seed: int = 0,
    codes: Optional[Sequence[str]] = None,
    with_charts: bool = True,
    with_optimal: bool = False,
    jobs: int = 1,
    cache_dir: Union[str, Path, None] = None,
    faults: Optional["FaultSpec"] = None,
) -> str:
    """Regenerate every table/figure; return the markdown report.

    ``jobs`` > 1 fans the simulation grid over worker processes;
    ``cache_dir`` enables the on-disk measurement cache.  Results are
    identical to a serial, uncached campaign in either case.  A
    ``faults`` spec reruns the whole campaign inside that deterministic
    fault environment and appends a degradation section to the report.
    ``with_optimal`` appends the offline gear-plan optimizer's computed
    frontiers for FT and CG (docs/optimizer.md) — extra simulation work
    beyond the paper's own figures, so off by default.
    """
    with ParallelRunner(
        jobs=jobs, cache_dir=cache_dir, faults=faults
    ) as runner, use(runner):
        return _run_campaign_body(
            runner, klass, seed, codes, with_charts, faults, with_optimal
        )


def _run_campaign_body(
    runner: ParallelRunner,
    klass: str,
    seed: int,
    codes: Optional[Sequence[str]],
    with_charts: bool,
    faults: Optional["FaultSpec"] = None,
    with_optimal: bool = False,
) -> str:
    t_start = time.perf_counter()
    parts: list[str] = []
    parts.append(
        "# Reproduction report\n\n"
        "*Performance-constrained Distributed DVS Scheduling for "
        "Scientific Applications on Power-aware Clusters* (SC'05) — "
        f"regenerated on the simulated NEMO cluster (class {klass}, "
        f"seed {seed}).\n"
    )

    # Tables ------------------------------------------------------------
    parts.append(_section("Table 1 — operating points",
                          report.render_table1(tables.table1())))
    rows = tables.table2(codes=codes, klass=klass, seed=seed)
    sweeps = {c: r.sweep for c, r in rows.items()}
    parts.append(_section("Table 2 — energy-performance profiles",
                          report.render_table2(rows)))
    fidelity = score_table2(rows)
    parts.append(_section("Fidelity vs the published Table 2",
                          fidelity.render()))

    # Figures -----------------------------------------------------------
    parts.append(_section(
        "Figure 1 — node power breakdown",
        report.render_breakdown(figures.figure1_power_breakdown()),
    ))
    swim = figures.figure2_swim_crescendo(seed=seed)
    body = report.render_sweep(swim, "swim, one node")
    if with_charts:
        body += "\n\n" + crescendo_chart(swim.normalized, title="swim crescendo")
    parts.append(_section("Figure 2 — swim energy-delay crescendo", body))

    parts.append(_section(
        "Figure 5 — CPUSPEED daemon",
        report.render_comparison(
            figures.figure5_cpuspeed(codes=codes, klass=klass, seed=seed,
                                     sweeps=sweeps)
        ),
    ))
    parts.append(_section(
        "Figure 6 — EXTERNAL with ED3P",
        report.render_selection(
            figures.figure6_external_ed3p(codes=codes, klass=klass, seed=seed,
                                          sweeps=sweeps)
        ),
    ))
    parts.append(_section(
        "Figure 7 — EXTERNAL with ED2P",
        report.render_selection(
            figures.figure7_external_ed2p(codes=codes, klass=klass, seed=seed,
                                          sweeps=sweeps)
        ),
    ))
    fig8 = figures.figure8_crescendos(codes=codes, klass=klass, seed=seed,
                                      sweeps=sweeps)
    body = report.render_crescendos(fig8)
    if with_charts:
        for code in sorted(fig8.crescendos):
            body += "\n\n" + crescendo_chart(
                dict(fig8.crescendos[code].points),
                title=f"{code} (Type {fig8.types[code].value})",
                height=10,
            )
    parts.append(_section("Figure 8 — crescendos and taxonomy", body))

    ft_trace = figures.figure9_ft_trace(klass=klass, seed=seed)
    parts.append(_section(
        "Figure 9 — FT trace",
        report.render_trace_observations(ft_trace)
        + "\n\n" + ft_trace.timeline(width=96),
    ))
    parts.append(_section(
        "Figure 11 — FT INTERNAL case study",
        report.render_internal(
            figures.figure11_ft_internal(klass=klass, seed=seed,
                                         sweep=sweeps.get("FT"))
        ),
    ))
    parts.append(_section(
        "Figure 12 — CG trace",
        report.render_trace_observations(
            figures.figure12_cg_trace(klass=klass, seed=seed)
        ),
    ))
    parts.append(_section(
        "Figure 14 — CG INTERNAL case study",
        report.render_internal(
            figures.figure14_cg_internal(klass=klass, seed=seed,
                                         sweep=sweeps.get("CG"))
        ),
    ))

    if with_optimal:
        for code in ("FT", "CG"):
            parts.append(_section(
                f"Computed frontier — {code} (beyond the paper)",
                report.render_optimal(
                    figures.figure_optimal_frontier(code, klass=klass, seed=seed)
                ),
            ))

    if faults is not None:
        parts.append(_section(
            "Fault injection",
            report.render_fault_summary(faults, runner.stats),
        ))

    elapsed = time.perf_counter() - t_start
    parts.append(
        f"---\n\n*Campaign wall time: {elapsed:.1f}s "
        f"({runner.jobs} worker{'s' if runner.jobs != 1 else ''}, "
        f"{runner.stats.render()}); "
        f"mean Table 2 errors: delay {fidelity.mean_delay_error:.3f}, "
        f"energy {fidelity.mean_energy_error:.3f}.*\n"
    )
    return "\n".join(parts)


def write_report(
    path: Union[str, Path],
    klass: str = "C",
    seed: int = 0,
    codes: Optional[Sequence[str]] = None,
    jobs: int = 1,
    cache_dir: Union[str, Path, None] = None,
    faults: Optional["FaultSpec"] = None,
    with_optimal: bool = False,
) -> Path:
    path = Path(path)
    path.write_text(run_campaign(klass=klass, seed=seed, codes=codes,
                                 jobs=jobs, cache_dir=cache_dir,
                                 faults=faults, with_optimal=with_optimal))
    return path


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate the full reproduction report."
    )
    parser.add_argument("--out", default="REPORT.md")
    parser.add_argument("--class", dest="klass", default="C")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--codes", nargs="*", default=None)
    parser.add_argument("--jobs", "-j", type=int, default=1,
                        help="worker processes for independent runs")
    parser.add_argument("--cache-dir", default=None,
                        help="enable the on-disk measurement cache here")
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="deterministic fault spec, e.g. 'mild,seed=3' "
                             "(see docs/faults.md)")
    parser.add_argument("--optimal", action="store_true",
                        help="append the computed FT/CG gear-plan frontiers "
                             "(docs/optimizer.md)")
    args = parser.parse_args(argv)
    faults = parse_fault_spec(args.faults) if args.faults else None
    path = write_report(args.out, klass=args.klass, seed=args.seed,
                        codes=args.codes, jobs=args.jobs,
                        cache_dir=args.cache_dir, faults=faults,
                        with_optimal=args.optimal)
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
