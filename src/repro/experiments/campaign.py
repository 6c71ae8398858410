"""Full reproduction campaign — everything, one artifact.

Every table and figure of the paper is one entry of :data:`SECTIONS`:
the ``repro-experiments`` target that prints it, its report heading and
the builder that renders its body.  The report and the CLI targets
render from that one table, so a section reads the same in both:

    repro-experiments report --out REPORT.md -j 4   # the whole report
    repro-experiments fig6 fig8                    # two of its sections

The whole campaign runs through one
:class:`~repro.experiments.parallel.ParallelRunner`, so sweep points
shared between figures (and each workload's no-DVS baseline) simulate
exactly once, ``--jobs`` fans independent runs over worker processes,
and ``--cache-dir`` persists every point across campaigns.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Sequence, Union

from repro.experiments import figures, report, tables
from repro.experiments.parallel import ParallelRunner, use
from repro.faults import FaultSpec
from repro.experiments.plotting import crescendo_chart
from repro.experiments.validation import score_table2

__all__ = [
    "Context",
    "SECTIONS",
    "Section",
    "frontier_sections",
    "render_report",
    "run_campaign",
]


@dataclass
class Context:
    """What a section builder needs: the problem, and Table 2 once built.

    Table 2's rows are built on first use through the current runner;
    figures that can share its sweeps take them from here.
    """

    klass: str = "C"
    seed: int = 0
    codes: Optional[Sequence[str]] = None
    delta: float = 0.05
    rows: Optional[dict] = None

    def table2(self) -> dict:
        if self.rows is None:
            self.rows = tables.table2(
                codes=self.codes, klass=self.klass, seed=self.seed
            )
        return self.rows

    def sweeps(self, build: bool = True) -> Optional[dict]:
        """Table 2's sweeps by code; ``None`` if unbuilt and not ``build``."""
        if self.rows is None and not build:
            return None
        return {c: r.sweep for c, r in self.table2().items()}

    @property
    def npb(self) -> dict:
        return {"codes": self.codes, "klass": self.klass, "seed": self.seed}


def _section(heading: str, body: str) -> str:
    return f"## {heading}\n\n```\n{body}\n```\n"


class Section(NamedTuple):
    """One report section and the CLI target that prints it."""

    target: str
    heading: str
    build: Callable[[Context], str]

    def render(self, ctx: Context) -> str:
        return _section(self.heading, self.build(ctx))


def _figure2(ctx: Context) -> str:
    swim = figures.figure2_swim_crescendo(seed=ctx.seed)
    return (report.render_sweep(swim, "swim, one node") + "\n\n"
            + crescendo_chart(swim.normalized, title="swim crescendo"))


def _figure8(ctx: Context) -> str:
    fig8 = figures.figure8_crescendos(**ctx.npb, sweeps=ctx.sweeps())
    charts = [
        crescendo_chart(
            dict(fig8.crescendos[code].points),
            title=f"{code} (Type {fig8.types[code].value})",
            height=10,
        )
        for code in sorted(fig8.crescendos)
    ]
    return "\n\n".join([report.render_crescendos(fig8), *charts])


def _figure9(ctx: Context) -> str:
    ft_trace = figures.figure9_ft_trace(klass=ctx.klass, seed=ctx.seed)
    return (report.render_trace_observations(ft_trace) + "\n\n"
            + ft_trace.timeline(width=96))


def _shared_sweep(ctx: Context, code: str):
    """``code``'s Table 2 sweep if an earlier section built Table 2."""
    return (ctx.sweeps(build=False) or {}).get(code)


#: The paper's evaluation, in report order.
SECTIONS = (
    Section("table1", "Table 1 — operating points",
            lambda ctx: report.render_table1(tables.table1())),
    Section("table2", "Table 2 — energy-performance profiles",
            lambda ctx: report.render_table2(ctx.table2())),
    Section("table2", "Fidelity vs the published Table 2",
            lambda ctx: score_table2(ctx.table2()).render()),
    Section("fig1", "Figure 1 — node power breakdown",
            lambda ctx: report.render_breakdown(
                figures.figure1_power_breakdown())),
    Section("fig2", "Figure 2 — swim energy-delay crescendo", _figure2),
    Section("fig5", "Figure 5 — CPUSPEED daemon",
            lambda ctx: report.render_comparison(figures.figure5_cpuspeed(
                **ctx.npb, sweeps=ctx.sweeps(build=False)))),
    Section("fig6", "Figure 6 — EXTERNAL with ED3P",
            lambda ctx: report.render_selection(figures.figure6_external_ed3p(
                **ctx.npb, sweeps=ctx.sweeps()))),
    Section("fig7", "Figure 7 — EXTERNAL with ED2P",
            lambda ctx: report.render_selection(figures.figure7_external_ed2p(
                **ctx.npb, sweeps=ctx.sweeps()))),
    Section("fig8", "Figure 8 — crescendos and taxonomy", _figure8),
    Section("fig9", "Figure 9 — FT trace", _figure9),
    Section("fig11", "Figure 11 — FT INTERNAL case study",
            lambda ctx: report.render_internal(figures.figure11_ft_internal(
                klass=ctx.klass, seed=ctx.seed,
                sweep=_shared_sweep(ctx, "FT")))),
    Section("fig12", "Figure 12 — CG trace",
            lambda ctx: report.render_trace_observations(
                figures.figure12_cg_trace(klass=ctx.klass, seed=ctx.seed))),
    Section("fig14", "Figure 14 — CG INTERNAL case study",
            lambda ctx: report.render_internal(figures.figure14_cg_internal(
                klass=ctx.klass, seed=ctx.seed,
                sweep=_shared_sweep(ctx, "CG")))),
)


def _frontier(code: str, ctx: Context) -> str:
    return report.render_optimal(figures.figure_optimal_frontier(
        code, klass=ctx.klass, seed=ctx.seed, delta=ctx.delta))


def frontier_sections(codes: Sequence[str] = ("FT", "CG")) -> tuple:
    """The offline optimizer's computed frontiers (docs/optimizer.md),
    one section per code."""
    return tuple(
        Section("optimize", f"Computed frontier — {code} (beyond the paper)",
                partial(_frontier, code))
        for code in codes
    )


def render_report(
    runner: ParallelRunner, ctx: Context, with_optimal: bool = False
) -> str:
    """Every section of the report, rendered through ``runner``.

    ``with_optimal`` appends the computed FT and CG frontiers — extra
    simulation work beyond the paper's own figures.  A runner with a
    fault spec gets a degradation section.
    """
    t_start = time.perf_counter()
    sections = SECTIONS + (frontier_sections() if with_optimal else ())
    parts = [
        "# Reproduction report\n\n"
        "*Performance-constrained Distributed DVS Scheduling for "
        "Scientific Applications on Power-aware Clusters* (SC'05) — "
        f"regenerated on the simulated NEMO cluster (class {ctx.klass}, "
        f"seed {ctx.seed}).\n",
        *(section.render(ctx) for section in sections),
    ]
    if runner.faults is not None:
        parts.append(_section(
            "Fault injection",
            report.render_fault_summary(runner.faults, runner.stats),
        ))

    fidelity = score_table2(ctx.table2())
    elapsed = time.perf_counter() - t_start
    parts.append(
        f"---\n\n*Campaign wall time: {elapsed:.1f}s "
        f"({runner.jobs} worker{'s' if runner.jobs != 1 else ''}, "
        f"{runner.stats.render()}); "
        f"mean Table 2 errors: delay {fidelity.mean_delay_error:.3f}, "
        f"energy {fidelity.mean_energy_error:.3f}.*\n"
    )
    return "\n".join(parts)


def run_campaign(
    klass: str = "C",
    seed: int = 0,
    codes: Optional[Sequence[str]] = None,
    with_optimal: bool = False,
    jobs: int = 1,
    cache_dir: Union[str, Path, None] = None,
    faults: Optional[FaultSpec] = None,
) -> str:
    """Regenerate every table/figure; return the markdown report.

    ``jobs`` > 1 fans the simulation grid over worker processes;
    ``cache_dir`` enables the on-disk measurement cache.  Results are
    identical to a serial, uncached campaign in either case.  A
    ``faults`` spec reruns the whole campaign inside that deterministic
    fault environment and appends a degradation section to the report.
    """
    with ParallelRunner(
        jobs=jobs, cache_dir=cache_dir, faults=faults
    ) as runner, use(runner):
        return render_report(
            runner, Context(klass, seed, codes), with_optimal=with_optimal
        )
