"""Offline gear-plan optimizer: batched frontier search.

The paper's EXTERNAL/INTERNAL schedules are hand-picked; this module
*computes* the schedule from the same simulation the figures run on.
The search space is the quotient of the per-rank, per-phase plan space
by rank equivalence: a candidate assigns one operating-point index to
every ``(rank group, phase)`` cell, so a symmetric N-rank workload
searches ``G x P`` dimensions with ``G << N`` (FT collapses to one
group; CG to its two asymmetric halves).

Candidates are scored in one :func:`repro.sim.straightline.run_batch`
call per round — each distinct plan runs once on its quotient program,
one interpreter rank per rank group — and kept only when they satisfy
the paper's hard performance constraint (``time <= (1 + delta) x
no-DVS baseline``) and are not energy-delay dominated by an
already-known plan.  The constraint reads elapsed time alone, so a plan
that ends past it is scored by that time only: ``run_batch`` gets the
cap as its deadline and never integrates the plan's energy.  The
search refines the surviving frontier with coordinate-descent/beam
steps (every single-cell variant of every frontier plan) until a round
discovers nothing new; spaces small enough to enumerate are searched
exhaustively instead, which doubles as the brute-force-verified
fallback.

The winner is an :class:`~repro.optimize.plan.OptimalPlanStrategy` — a
plain ``gear_plan()`` strategy that runs on the existing
piecewise-static/quotient tiers (and the event engine) unchanged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.framework import Measurement
from repro.optimize.plan import OptimalPlanStrategy
from repro.workloads.base import Workload

__all__ = [
    "PlanCandidate",
    "SearchTelemetry",
    "OptimizeResult",
    "optimize_gear_plan",
]

#: relative slack on the hard constraint, absorbing float summation
#: noise only — never a real schedule change.
_EPS = 1e-9

#: spaces up to this many plans are enumerated outright (the verified
#: fallback); larger spaces run the frontier search.
EXHAUSTIVE_LIMIT = 4096
#: frontier plans (lowest energy first) seeding each coordinate-descent
#: round.
BEAM_WIDTH = 8
#: frontier rounds before the search stops unconverged.
MAX_ROUNDS = 32
#: when ``gears ** groups`` is at most this, every per-group uniform
#: plan (the whole EXTERNAL + split-INTERNAL family) is seeded outright,
#: guaranteeing the winner is at least as good as any such hand-picked
#: schedule.
GROUP_SEED_LIMIT = 128


@dataclass
class PlanCandidate:
    """One evaluated plan: its assignment, strategy and measurement."""

    #: gear index per ``(group, phase)`` cell, row-major by group.
    assignment: tuple[int, ...]
    strategy: OptimalPlanStrategy
    measurement: Measurement
    norm_delay: float
    norm_energy: float
    feasible: bool

    @property
    def elapsed_s(self) -> float:
        return self.measurement.elapsed_s

    @property
    def energy_j(self) -> float:
        return self.measurement.energy_j


@dataclass
class SearchTelemetry:
    """How the search ran — surfaced through ``CacheStats`` and reports."""

    candidates_evaluated: int = 0
    #: evaluated plans that ended infeasible or energy-delay dominated
    #: (everything not on the final frontier).
    candidates_pruned: int = 0
    #: ``run_batch`` calls issued and the largest single call.
    batches: int = 0
    max_batch: int = 0
    rounds: int = 0
    exhaustive: bool = False
    space_size: int = 0
    #: candidates ``run_batch`` declined onto the event engine (its
    #: ``event_points``; none on any NPB shape).
    scalar_fallbacks: int = 0
    #: candidates scored by elapsed time alone: their straightline run
    #: ended past the delay cap, so no energy was integrated.
    over_cap: int = 0


@dataclass
class OptimizeResult:
    """The optimizer's output: winner, frontier and provenance."""

    workload: str
    delta: float
    baseline: Measurement
    best: PlanCandidate
    #: feasible, non-dominated plans sorted by normalized delay — the
    #: computed energy-delay frontier under the constraint.
    frontier: list[PlanCandidate] = field(default_factory=list)
    phases: tuple[str, ...] = ()
    n_groups: int = 0
    telemetry: SearchTelemetry = field(default_factory=SearchTelemetry)

    @property
    def strategy(self) -> OptimalPlanStrategy:
        return self.best.strategy

    def render(self) -> str:
        t = self.telemetry
        lines = [
            f"Optimal gear plan for {self.workload} "
            f"(delta={self.delta:g}: delay cap {1 + self.delta:.3f})",
            f"  search space: {t.space_size} plans over {self.n_groups} "
            f"group(s) x {len(self.phases)} phase(s)"
            + (" [exhaustive]" if t.exhaustive else
               f" [{t.rounds} frontier rounds]"),
            f"  evaluated {t.candidates_evaluated} candidates "
            f"({t.candidates_pruned} pruned, {t.over_cap} over the cap) "
            f"in {t.batches} batches (largest {t.max_batch})",
            f"  winner: {self.best.strategy.describe()} -> "
            f"delay {self.best.norm_delay:.3f}, "
            f"energy {self.best.norm_energy:.3f}",
            f"  frontier ({len(self.frontier)} plans):",
        ]
        for c in self.frontier:
            gears = ", ".join(
                f"{g}:" + "/".join(f"{m:g}" for m in row)
                for g, row in enumerate(c.strategy.table)
            )
            lines.append(
                f"    delay {c.norm_delay:.3f} energy {c.norm_energy:.3f}  "
                f"[{gears}]"
            )
        return "\n".join(lines)


def _prune(candidates: Sequence[PlanCandidate]) -> list[PlanCandidate]:
    """Feasible, energy-delay non-dominated subset, sorted by delay.

    A plan is dominated when another feasible plan has lower-or-equal
    elapsed time *and* energy (strictly better in at least one) — the
    same rule as :func:`repro.core.metrics.pareto_front`.
    """
    feasible = sorted(
        (c for c in candidates if c.feasible),
        key=lambda c: (c.elapsed_s, c.energy_j),
    )
    front: list[PlanCandidate] = []
    best_energy = float("inf")
    for c in feasible:
        if c.energy_j < best_energy:
            front.append(c)
            best_energy = c.energy_j
    return front


def optimize_gear_plan(
    workload: Workload,
    delta: float = 0.05,
    *,
    seed: int = 0,
    opoints=None,
    network_params=None,
    power=None,
    transition_latency_s: float = 20e-6,
    stats=None,
) -> OptimizeResult:
    """Search per-group, per-phase gear plans under the delta constraint.

    Parameters
    ----------
    delta:
        The paper's performance constraint: only plans with
        ``elapsed <= (1 + delta) x baseline`` are eligible (baseline =
        the all-fastest plan, i.e. no-DVS).  The winner minimizes
        energy among eligible plans (ties break toward lower delay).
    stats:
        A :class:`~repro.experiments.store.CacheStats` to receive the
        ``opt_*`` telemetry; defaults to the current runner's.
    """
    from repro.hardware.opoints import PENTIUM_M_TABLE
    from repro.hardware.power import NEMO_POWER

    if delta < 0:
        raise ValueError("delta must be non-negative")
    if not workload.phases:
        raise ValueError(
            f"{workload.tag} announces no phases; the optimizer schedules "
            "phase programs (use an EXTERNAL frequency sweep instead)"
        )
    opoints = PENTIUM_M_TABLE if opoints is None else opoints
    power = NEMO_POWER if power is None else power
    mhzs = opoints.frequencies_mhz()  # slow -> fast
    K = len(mhzs)
    phases = tuple(workload.phases)
    P = len(phases)

    group_of, G = _rank_groups(workload, opoints)
    n_cells = G * P
    space_size = K**n_cells

    if stats is None:
        from repro.experiments.parallel import current_runner

        stats = current_runner().stats

    from repro.sim.straightline import run_batch

    telemetry = SearchTelemetry(space_size=space_size)
    run_kwargs = dict(
        network_params=network_params,
        power=power,
        opoints=opoints,
        transition_latency_s=transition_latency_s,
    )

    #: assignment -> its measurement, or ``None`` for a plan that ran
    #: past the cap (scored by elapsed time alone).
    memo: dict[tuple[int, ...], Optional[Measurement]] = {}

    def make_strategy(assignment: tuple[int, ...]) -> OptimalPlanStrategy:
        table = [
            [mhzs[assignment[g * P + p]] for p in range(P)] for g in range(G)
        ]
        return OptimalPlanStrategy(group_of, phases, table)

    def evaluate(
        assignments: Sequence[tuple[int, ...]],
        deadline_s: Optional[float] = None,
    ) -> None:
        """Measure every unseen assignment into ``memo``.

        One ``run_batch`` call per round: it compiles the workload
        once, runs each plan once on its quotient program (the
        execution partition of a group-uniform candidate is the body
        partition, or the identity where the channel classifier
        declines) and finishes any point the fast tier declines on the
        event engine.  A plan that runs past ``deadline_s`` is stored
        as ``None``.
        """
        fresh = [a for a in dict.fromkeys(assignments) if a not in memo]
        if not fresh:
            return
        info: dict = {}
        measured = run_batch(
            workload,
            [(make_strategy(a), seed) for a in fresh],
            stats=info,
            deadline_s=deadline_s,
            **run_kwargs,
        )
        telemetry.batches += 1
        telemetry.max_batch = max(telemetry.max_batch, len(fresh))
        telemetry.scalar_fallbacks += info.get("event_points", 0)
        for a, m in zip(fresh, measured):
            memo[a] = m
        telemetry.candidates_evaluated += len(fresh)
        telemetry.over_cap += measured.count(None)

    baseline_assignment = (K - 1,) * n_cells
    evaluate([baseline_assignment])
    baseline = memo[baseline_assignment]
    cap = (1.0 + delta) * baseline.elapsed_s
    # A run is infeasible iff it ends past this: the exact negation of
    # the ``feasible`` test below (``elapsed_s`` is ``float(t_end)``).
    deadline = cap * (1.0 + _EPS)

    def candidates(assignments) -> list[PlanCandidate]:
        """The scored plans among ``assignments``; over-cap ones drop."""
        out = []
        for a in assignments:
            m = memo[a]
            if m is not None:
                d, e = m.normalized_against(baseline)
                out.append(PlanCandidate(a, make_strategy(a), m, d, e,
                                         m.elapsed_s <= deadline))
        return out

    if space_size <= EXHAUSTIVE_LIMIT:
        telemetry.exhaustive = True
        everything = [
            tuple(a) for a in itertools.product(range(K), repeat=n_cells)
        ]
        evaluate(everything, deadline)
        frontier = _prune(candidates(everything))
    else:
        evaluate(_seed_assignments(G, P, K, GROUP_SEED_LIMIT), deadline)
        frontier = _prune(candidates(memo))
        while telemetry.rounds < MAX_ROUNDS:
            telemetry.rounds += 1
            seeds = sorted(frontier, key=lambda c: c.energy_j)[:BEAM_WIDTH]
            neighbors = [
                n
                for c in seeds
                for n in _neighbors(c.assignment, K)
                if n not in memo
            ]
            if not neighbors:
                break
            evaluate(neighbors, deadline)
            before = {c.assignment for c in frontier}
            frontier = _prune(frontier + candidates(dict.fromkeys(neighbors)))
            if {c.assignment for c in frontier} == before:
                break  # converged: the round changed nothing

    telemetry.candidates_pruned = telemetry.candidates_evaluated - len(frontier)
    best = min(frontier, key=lambda c: (c.energy_j, c.elapsed_s))
    stats.opt_candidates += telemetry.candidates_evaluated
    stats.opt_pruned += telemetry.candidates_pruned
    stats.opt_batches += telemetry.batches
    stats.opt_max_batch = max(stats.opt_max_batch, telemetry.max_batch)

    frontier.sort(key=lambda c: c.norm_delay)
    return OptimizeResult(
        workload=workload.tag,
        delta=delta,
        baseline=baseline,
        best=best,
        frontier=frontier,
        phases=phases,
        n_groups=G,
        telemetry=telemetry,
    )


def _rank_groups(workload: Workload, opoints) -> tuple[tuple[int, ...], int]:
    """Rank → group mapping and group count, from the compiler.

    Falls back to one group per rank when the workload does not
    compile (the search then runs per rank — correct, just without the
    quotient reduction).
    """
    from repro.workloads.compile import CompileError, compile_workload

    try:
        compiled = compile_workload(workload, opoints.fastest.frequency_hz)
    except CompileError:
        return tuple(range(workload.nprocs)), workload.nprocs
    return tuple(int(g) for g in compiled.group_of), compiled.n_groups


def _seed_assignments(
    G: int, P: int, K: int, group_seed_limit: int
) -> list[tuple[int, ...]]:
    """Starting points for the frontier search.

    Always the K uniform plans (the EXTERNAL family).  When the
    per-group uniform space is small (``K ** G`` plans), all of it —
    every split-speed INTERNAL shape is then a seed, so the search can
    only improve on hand-picked candidates.  Otherwise, one-group
    deviations from fastest approximate the same coverage.
    """
    seeds = [(k,) * (G * P) for k in range(K)]
    if K**G <= group_seed_limit:
        for combo in itertools.product(range(K), repeat=G):
            seeds.append(
                tuple(combo[g] for g in range(G) for _ in range(P))
            )
    else:
        fastest = K - 1
        for g in range(G):
            for k in range(K - 1):
                a = [fastest] * (G * P)
                a[g * P : (g + 1) * P] = [k] * P
                seeds.append(tuple(a))
    return list(dict.fromkeys(seeds))


def _neighbors(assignment: tuple[int, ...], K: int) -> list[tuple[int, ...]]:
    """Every single-cell variant of one assignment (coordinate moves)."""
    out = []
    for cell, current in enumerate(assignment):
        for k in range(K):
            if k != current:
                a = list(assignment)
                a[cell] = k
                out.append(tuple(a))
    return out
