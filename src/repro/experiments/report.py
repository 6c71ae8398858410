"""Plain-text rendering of reproduced tables and figures."""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.store import CacheStats
    from repro.faults.spec import FaultSpec

from repro.experiments.calibration import PAPER_TABLE2
from repro.experiments.figures import (
    CrescendoFigure,
    InternalComparison,
    MetricSelectionResult,
    OptimalFrontierFigure,
    PowerBreakdownResult,
    StrategyComparison,
    TraceFigure,
)
from repro.experiments.runner import SweepResult
from repro.experiments.tables import Table2Row

__all__ = [
    "render_table",
    "render_table1",
    "render_table2",
    "render_sweep",
    "render_comparison",
    "render_selection",
    "render_crescendos",
    "render_trace_observations",
    "render_internal",
    "render_optimal",
    "render_breakdown",
    "render_fault_summary",
    "render_runner_stats",
]


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Fixed-width ASCII table."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt.format(*headers))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(fmt.format(*row))
    return "\n".join(lines)


def render_table1(points: Sequence[tuple[float, float]]) -> str:
    rows = [(f"{ghz:.1f}GHz", f"{volts:.3f}V") for ghz, volts in points]
    return render_table(
        ["Frequency", "Supply voltage"], rows, "Table 1: operating points"
    )


def _cell(point: Optional[tuple[float, float]]) -> str:
    if point is None:
        return "   -  "
    d, e = point
    return f"{d:.2f}/{e:.2f}"


def render_table2(rows: Mapping[str, Table2Row], with_paper: bool = True) -> str:
    columns = ["auto", "600", "800", "1000", "1200", "1400"]
    headers = ["Code"] + [f"{c} (D/E)" for c in columns]
    body = []
    for code, row in sorted(rows.items()):
        body.append([row.tag] + [_cell(row.columns.get(c)) for c in columns])
        if with_paper and code in PAPER_TABLE2:
            paper = PAPER_TABLE2[code]
            body.append(
                ["  (paper)"]
                + [
                    _cell(paper.get(c)) if paper.get(c) and paper[c][1] is not None
                    else (f"{paper[c][0]:.2f}/  - " if paper.get(c) else "   -  ")
                    for c in columns
                ]
            )
    return render_table(headers, body, "Table 2: energy-performance profiles")


def render_sweep(sweep: SweepResult, title: str = "") -> str:
    rows = [
        (f"{mhz:.0f} MHz", f"{d:.3f}", f"{e:.3f}")
        for mhz, (d, e) in sorted(sweep.normalized.items())
    ]
    return render_table(
        ["Frequency", "Norm delay", "Norm energy"],
        rows,
        title or f"Frequency sweep: {sweep.workload}",
    )


def render_comparison(comp: StrategyComparison) -> str:
    rows = [
        (code, f"{d:.3f}", f"{e:.3f}")
        for code, d, e in comp.sorted_by_delay()
    ]
    return render_table(
        ["Code", "Norm delay", "Norm energy"],
        rows,
        f"Strategy: {comp.strategy} (sorted by delay)",
    )


def render_selection(sel: MetricSelectionResult) -> str:
    rows = [
        (code, f"{sel.selected_mhz[code]:.0f} MHz", f"{d:.3f}", f"{e:.3f}")
        for code, d, e in sel.sorted_by_delay()
    ]
    return render_table(
        ["Code", "Selected", "Norm delay", "Norm energy"],
        rows,
        f"EXTERNAL with {sel.metric} (sorted by delay)",
    )


def render_crescendos(fig: CrescendoFigure) -> str:
    rows = []
    for code, cres in sorted(fig.crescendos.items()):
        for mhz in cres.frequencies:
            d, e = cres.points[mhz]
            rows.append(
                (code, f"{mhz:.0f}", f"{d:.3f}", f"{e:.3f}", fig.types[code].value)
            )
    table = render_table(
        ["Code", "MHz", "Norm delay", "Norm energy", "Type"],
        rows,
        "Figure 8: energy-delay crescendos",
    )
    groups = ", ".join(
        f"Type {label}: {' '.join(codes)}" for label, codes in fig.groups().items()
    )
    return table + "\n" + groups


def render_trace_observations(fig: TraceFigure) -> str:
    lines = [f"Trace observations for {fig.code}:"]
    lines.append(
        f"  whole-job comm-to-comp ratio: {fig.comm_to_comp_ratio:.2f}"
    )
    lines.append(f"  rank asymmetry (max/min ratio): {fig.stats.imbalance:.2f}")
    dominant = ", ".join(f"{op} {secs:.1f}s" for op, secs in fig.stats.dominant_ops())
    lines.append(f"  dominant operations: {dominant}")
    for prof in fig.stats.ranks:
        lines.append(
            f"  rank {prof.rank}: compute {prof.compute_s:.1f}s, "
            f"comm {prof.comm_s:.1f}s, wait {prof.wait_s:.1f}s "
            f"(ratio {prof.comm_to_comp_ratio:.2f})"
        )
    return "\n".join(lines)


def render_internal(fig: InternalComparison) -> str:
    rows = []
    for label, (d, e) in fig.internal.items():
        rows.append((label, f"{d:.3f}", f"{e:.3f}"))
    for mhz, (d, e) in sorted(fig.external.items()):
        rows.append((f"external {mhz:.0f}", f"{d:.3f}", f"{e:.3f}"))
    rows.append(("auto (cpuspeed)", f"{fig.auto[0]:.3f}", f"{fig.auto[1]:.3f}"))
    return render_table(
        ["Schedule", "Norm delay", "Norm energy"],
        rows,
        f"INTERNAL vs EXTERNAL vs CPUSPEED: {fig.code}",
    )


def render_optimal(fig: OptimalFrontierFigure) -> str:
    """The shipped Figure 11/14 candidates against the computed frontier."""
    res = fig.result
    cap = 1.0 + fig.delta

    def status(delay: float) -> str:
        return "ok" if delay <= cap + 1e-9 else "exceeds cap"

    rows = []
    for label, (d, e) in fig.comparison.internal.items():
        rows.append((label, f"{d:.3f}", f"{e:.3f}", status(d)))
    for mhz, (d, e) in sorted(fig.comparison.external.items()):
        rows.append((f"external {mhz:.0f}", f"{d:.3f}", f"{e:.3f}", status(d)))
    d, e = fig.comparison.auto
    rows.append(("auto (cpuspeed)", f"{d:.3f}", f"{e:.3f}", status(d)))
    for c in res.frontier:
        tag = "frontier"
        if c.assignment == res.best.assignment:
            tag = "frontier <- optimal"
        gears = "  ".join(
            f"{g}:" + "/".join(f"{m:g}" for m in row)
            for g, row in enumerate(c.strategy.table)
        )
        rows.append(
            (f"computed [{gears}]", f"{c.norm_delay:.3f}",
             f"{c.norm_energy:.3f}", tag)
        )
    t = res.telemetry
    table = render_table(
        ["Schedule", "Norm delay", "Norm energy", "Status"],
        rows,
        f"Computed frontier vs shipped schedules: {fig.code} "
        f"(delay cap {cap:.3f})",
    )
    return table + (
        f"\nsearch: {t.space_size} plans over {res.n_groups} group(s) x "
        f"{len(res.phases)} phase(s); evaluated {t.candidates_evaluated} "
        f"({t.candidates_pruned} pruned) in {t.batches} batches"
        + (" [exhaustive]" if t.exhaustive else f" [{t.rounds} rounds]")
    )


def render_breakdown(fig: PowerBreakdownResult) -> str:
    rows = [
        (
            comp,
            f"{fig.load_fractions[comp] * 100:.1f}%",
            f"{fig.idle_fractions[comp] * 100:.1f}%",
        )
        for comp in ("cpu", "memory", "nic", "disk", "board")
    ]
    return render_table(
        ["Component", "Share (load)", "Share (idle)"],
        rows,
        "Figure 1: node power breakdown",
    )


def render_fault_summary(faults: "FaultSpec", stats: "CacheStats") -> str:
    """Degradation section for a campaign run under injected faults.

    Shows the fault environment (non-default spec fields) and how many
    of the delivered runs were actually perturbed — a run whose fault
    opportunities all drew "no fault" is indistinguishable from clean.
    """
    lines = [f"fault spec: {faults.describe()}"]
    if stats.runs:
        lines.append(
            f"degraded runs: {stats.degraded_runs}/{stats.runs} "
            f"({stats.degraded_runs / stats.runs:.0%})"
        )
    else:
        lines.append("degraded runs: none delivered through the runner")
    if not faults.active:
        lines.append("(spec is inactive: all rates zero — results are "
                     "bit-for-bit identical to a fault-free campaign)")
    return "\n".join(lines)


def render_runner_stats(runner) -> str:
    """One-line sweep-engine summary for a :class:`ParallelRunner`.

    The runner's own counters (hits/misses and the ``map_sweep`` tier
    telemetry: event-engine fallbacks, their reasons, gear-plan
    lowering-cache reuse) plus the disk cache's health counter, which
    lives on the cache's separate stats object (corrupt entries
    evicted).
    """
    line = runner.stats.render()
    cache = getattr(runner, "cache", None)
    if cache is not None and cache.stats.evicted_corrupt:
        line += f"\n  disk {cache.stats.render()}"
    return line
