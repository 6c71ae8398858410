"""Strategy interface shared by the three scheduling approaches."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from repro.hardware.cluster import Cluster
from repro.sim.events import Interrupt
from repro.workloads.base import NO_HOOKS, PhaseHooks, Workload

__all__ = ["GearPlan", "SampledController", "Strategy", "NoDvsStrategy"]


@dataclass(frozen=True)
class GearPlan:
    """A strategy's DVS behaviour, lowered to static data.

    A gear plan states — as a deterministic, data-independent function
    of (rank, phase) — every operating point the strategy will ever set:
    the per-rank speed applied during :meth:`Strategy.setup` and the
    exact ``set_cpuspeed`` calls its hooks would issue at each hook
    site.  Strategies that can produce one (no-DVS, EXTERNAL, both
    INTERNAL policy shapes) qualify for the piecewise-static
    straightline tier (:mod:`repro.sim.straightline`); strategies whose
    speed choices depend on simulation state (daemons, predictive
    schedulers) cannot, and return ``None`` from
    :meth:`Strategy.gear_plan`.

    Attributes
    ----------
    start_mhz:
        Homogeneous frequency set at setup time (``None`` = leave every
        node at the cluster default, the fastest point).
    start_mhz_per_rank:
        Heterogeneous setup frequencies, one per participating rank
        (mutually exclusive with ``start_mhz``).
    init_calls:
        Per-rank tuple of ``set_cpuspeed`` MHz arguments issued from the
        ``on_init`` hook (empty = the strategy has no init hook call).
    begin_calls / end_calls:
        ``(phase, (mhz, ...))`` pairs: the ``set_cpuspeed`` calls issued
        when the named phase begins / ends on any rank.
    rank_begin_calls / rank_end_calls:
        ``(phase, ((mhz, ...) per rank))`` pairs: heterogeneous phase
        calls — the calls a *specific rank* issues when the named phase
        begins / ends on it.  This is the shape the optimizer's
        per-rank-group, per-phase plans lower to; ranks the table
        covers take precedence over the homogeneous
        ``begin_calls``/``end_calls`` entry for the same phase.
    """

    start_mhz: Optional[float] = None
    start_mhz_per_rank: Optional[tuple[float, ...]] = None
    init_calls: tuple[tuple[float, ...], ...] = ()
    begin_calls: tuple[tuple[str, tuple[float, ...]], ...] = ()
    end_calls: tuple[tuple[str, tuple[float, ...]], ...] = ()
    rank_begin_calls: tuple[
        tuple[str, tuple[tuple[float, ...], ...]], ...
    ] = ()
    rank_end_calls: tuple[
        tuple[str, tuple[tuple[float, ...], ...]], ...
    ] = ()

    @property
    def static(self) -> bool:
        """Whether the plan performs no in-run DVS calls at all."""
        return not (
            any(self.init_calls)
            or any(calls for _, calls in self.begin_calls)
            or any(calls for _, calls in self.end_calls)
            or any(
                any(per_rank)
                for _, per_rank in self.rank_begin_calls + self.rank_end_calls
            )
        )

    def calls_at(self, kind: str, phase: str, rank: int) -> tuple[float, ...]:
        """The ``set_cpuspeed`` MHz calls at one hook site."""
        if kind == "init":
            return self.init_calls[rank] if self.init_calls else ()
        rank_table = (
            self.rank_begin_calls if kind == "begin" else self.rank_end_calls
        )
        for name, per_rank in rank_table:
            if name == phase:
                return per_rank[rank]
        table = self.begin_calls if kind == "begin" else self.end_calls
        for name, calls in table:
            if name == phase:
                return calls
        return ()


@dataclass(frozen=True)
class SampledController:
    """A daemon strategy as a poll-driven controller: the daemon itself.

    Daemons (CPUSPEED, the predictive scheduler, the β daemon, the
    power-cap coordinator) cannot publish a :class:`GearPlan` — their
    speed choices depend on observed state — but their *control
    structure* is static: wake every ``interval_s`` seconds, read one
    per-node window observation, update explicit carried state, and
    issue zero or more ``set_speed_index`` calls.  The controller holds
    only the decision; a runtime owns the loop.  Two runtimes drive
    the same controller objects: :func:`drive` on the event engine
    (one process per node, or one for a global reduction), and the
    stateful-controller straightline tier (:mod:`repro.sim.straightline`),
    which replays the engine counters between polls without an event
    heap.

    ``observes`` names the per-node window observation read at each
    poll:

    * ``"busy"`` — ``CpuCore.busy_seconds()`` (an accounting touch on
      every node);
    * ``"cycles"`` — ``CpuCore.cycles_retired_now()`` (no touch: a
      hardware counter read is not an accounting boundary);
    * ``"power"`` — ``Node.power_w()`` plus the activity key it was
      computed from, as ``(power_w, dyn, mem, nic)`` (no touch).

    **Per-node form** — ``make()`` builds one fresh controller per
    node, carrying that node's state across windows.  A controller
    exposes::

        step(now, sample, index, max_index) -> tuple[int, ...]

    returning, in call order, the operating-point indices to pass to
    ``CpuCore.set_speed_index`` at this poll (an index equal to the
    current one is the engine's no-op).  An optional ``bind(opoints,
    power_params)`` hook is called once before the run for
    controllers whose arithmetic reads the operating-point table.

    **Global-reduction form** — ``make_global()`` builds one
    cluster-wide controller for coordinator daemons (the power-cap
    budget redistribution).  Each poll the runtime gathers every
    node's sample in node order, then applies the setpoints the
    reduction emits::

        decide(now, samples, indices) -> iterable[(node, target)]

    where ``samples``/``indices`` are node-ordered lists and the
    setpoints are applied in iteration order.  After each call the
    runtime writes the node's resulting index back into ``indices``,
    so a ``decide`` that yields setpoints one at a time sees whether
    each one landed (an injected transition failure leaves it
    unchanged).  Optional hooks: ``bind(opoints, power_params,
    nprocs)`` before the run, and when both forms are present, the
    per-node controllers act as *summarizers* — their ``carry(now,
    sample, index, max_index)`` return value replaces the raw sample
    handed to ``decide``.

    ``start_index`` optionally states setup-time speed calls (the
    power-cap pre-shed): called as ``start_index(opoints,
    power_params, nprocs)``, it returns the uniform operating-point
    index every node is set to before the job starts (default: the
    fastest point, untouched).
    """

    interval_s: float
    make: Optional[Callable[[], object]] = None
    observes: str = "busy"
    make_global: Optional[Callable[[], object]] = None
    start_index: Optional[Callable[..., int]] = None


#: The event-engine read behind each ``SampledController.observes``.
_OBSERVE = {
    "busy": lambda node: node.cpu.busy_seconds(),
    "cycles": lambda node: node.cpu.cycles_retired_now(),
    "power": lambda node: (
        node.power_w(),
        node.cpu.dyn_activity,
        node.cpu.mem_activity,
        node.cpu.nic_activity,
    ),
}


def make_controllers(spec: SampledController, opoints, power_params,
                     nprocs: int) -> tuple[Optional[list], Optional[object]]:
    """Build and bind a controller's parts for one run of ``nprocs``
    nodes: the per-node controllers (node order) and the global
    reduction, either ``None`` when ``spec`` lacks that form."""
    if spec.observes not in _OBSERVE:
        raise ValueError(f"unknown controller observation {spec.observes!r}")
    if spec.make is None and spec.make_global is None:
        raise ValueError("controller has neither per-node nor global form")
    ctrls = gctrl = None
    if spec.make is not None:
        ctrls = [spec.make() for _ in range(nprocs)]
        for ctrl in ctrls:
            if hasattr(ctrl, "bind"):
                ctrl.bind(opoints, power_params)
    if spec.make_global is not None:
        gctrl = spec.make_global()
        if hasattr(gctrl, "bind"):
            gctrl.bind(opoints, power_params, nprocs)
    return ctrls, gctrl


def drive(strategy: "Strategy", spec: SampledController, nodes: list,
          ctrls: Optional[list], gctrl: Optional[object]):
    """Run a sampled controller as a daemon process on the event engine.

    ``nodes`` is the one node a per-node controller (``ctrls[0]``)
    runs on, or every node of a global reduction ``gctrl`` (with
    optional per-node summarizers ``ctrls``).  Every ``interval_s`` the
    process reads each node's observation, asks the controller for
    setpoints and issues each through ``set_speed_index``; a failed
    transition hands over to :meth:`Strategy.retry_transition`.  The
    process runs until :meth:`Strategy.teardown` interrupts it.
    """
    env = nodes[0].env
    observe = _OBSERVE[spec.observes]
    max_index = nodes[0].cpu.opoints.max_index
    try:
        while True:
            yield env.timeout(spec.interval_s)
            now = env.now
            samples = [observe(node) for node in nodes]
            indices = [node.cpu.index for node in nodes]
            if gctrl is None:
                setpoints = [
                    (0, target)
                    for target in ctrls[0].step(now, samples[0], indices[0],
                                                max_index)
                ]
            else:
                if ctrls is not None:
                    samples = [
                        c.carry(now, s, i, max_index)
                        for c, s, i in zip(ctrls, samples, indices)
                    ]
                setpoints = gctrl.decide(now, samples, indices)
            for n, target in setpoints:
                cpu = nodes[n].cpu
                if not cpu.set_speed_index(target):
                    yield from strategy.retry_transition(cpu, target)
                indices[n] = cpu.index
    except Interrupt:
        return


class Strategy(abc.ABC):
    """A distributed DVS scheduling strategy.

    The framework drives a strategy through three touch points:

    * :meth:`hooks` — instrumentation handed to the workload program
      (only the INTERNAL strategy uses this; it is how ``set_cpuspeed``
      calls are "inserted into the source", Figure 3).
    * :meth:`setup` — before the job starts: set static frequencies
      (EXTERNAL) or start the :meth:`controller`'s daemon processes
      (CPUSPEED and the other daemons).
    * :meth:`teardown` — after the job: stop daemons.
    """

    #: short display name, e.g. ``"cpuspeed"``.
    name: str = "?"
    #: the daemon processes :meth:`setup` started.
    _daemons: Sequence = ()

    def hooks(self, workload: Workload) -> PhaseHooks:
        """Source-level instrumentation (default: none)."""
        return NO_HOOKS

    def gear_plan(self, workload: Optional[Workload] = None) -> Optional[GearPlan]:
        """Lower this strategy's DVS behaviour to a :class:`GearPlan`.

        ``workload`` is required to lower hook calls (the plan names the
        workload's phases); plans with no hook calls (no-DVS, EXTERNAL)
        ignore it.  Returns ``None`` when the strategy's speed choices
        depend on simulation state — daemons, predictive schedulers —
        which keeps such runs on the event engine.  The default is
        conservative: ``None``.
        """
        return None

    def controller(self) -> Optional[SampledController]:
        """This strategy's daemon, as a :class:`SampledController`.

        Returns ``None`` (the default) when the strategy runs no
        daemon.  A daemon strategy's controller *is* its daemon: the
        default :meth:`setup` runs it on the event engine through
        :func:`drive`, and the straightline tier's stateful-controller
        executor steps the same controller objects — per-node
        (CPUSPEED, predictive, β) or through the global-reduction form
        (power-cap).
        """
        return None

    def retry_transition(self, cpu, target: int):
        """The daemon's response to a failed (injected) transition.

        :func:`drive` runs the returned iterable with ``yield from``
        right after ``cpu.set_speed_index(target)`` returned False, so
        a daemon may wait and re-issue the call.  The default gives up
        until the next poll.
        """
        return ()

    def is_static(self) -> bool:
        """Whether this strategy leaves operating points fixed after setup.

        Delegates to :meth:`gear_plan`: a strategy is static exactly
        when it has a workload-independent gear plan with no in-run
        ``set_cpuspeed`` calls — so this predicate can never diverge
        from the plan the straightline tier executes.
        """
        plan = self.gear_plan(None)
        return plan is not None and plan.static

    def setup(self, cluster: Cluster, node_ids: Sequence[int]) -> None:
        """Prepare the participating nodes before launch.

        The default starts the strategy's daemon, if it has one: set
        every node to the controller's ``start_index`` (in node
        order), then start :func:`drive` — one process per node named
        ``"<name>@<node id>"``, or one named ``"<name>"`` for a global
        reduction.  A controller's carried state starts at t = 0 with
        zero counters — what every node of a fresh cluster reads — so
        a daemon cannot start later.  Controllers are bound to the
        first node's power model and the cluster's operating points:
        every node shares both, as
        :func:`~repro.hardware.cluster.nemo_cluster` builds them.
        """
        spec = self.controller()
        if spec is None:
            return
        if cluster.env.now != 0.0:
            raise ValueError("a daemon starts with the cluster, at t = 0")
        env = cluster.env
        nodes = [cluster[nid] for nid in node_ids]
        opoints = cluster.opoints
        power = nodes[0].power_params
        if spec.start_index is not None:
            start = spec.start_index(opoints, power, len(nodes))
            for node in nodes:
                node.cpu.set_speed_index(start)
        ctrls, gctrl = make_controllers(spec, opoints, power, len(nodes))
        if gctrl is None:
            self._daemons = [
                env.process(drive(self, spec, [node], [ctrl], None),
                            name=f"{self.name}@{nid}")
                for nid, node, ctrl in zip(node_ids, nodes, ctrls)
            ]
        else:
            self._daemons = [
                env.process(drive(self, spec, nodes, ctrls, gctrl),
                            name=self.name)
            ]

    def teardown(self, cluster: Cluster) -> None:
        """Undo :meth:`setup` after the job completes (stop the daemon)."""
        for proc in self._daemons:
            if proc.is_alive:
                proc.interrupt("stop")
        self._daemons = ()

    def describe(self) -> str:
        """One-line human description for reports."""
        return self.name

    def __repr__(self) -> str:
        return f"<Strategy {self.describe()}>"


class NoDvsStrategy(Strategy):
    """Baseline: every node pinned at the highest operating point.

    This is the paper's normalization reference ("energy and delay
    values without any DVS activity").
    """

    name = "no-dvs"

    def gear_plan(self, workload: Optional[Workload] = None) -> Optional[GearPlan]:
        return GearPlan()

    def setup(self, cluster: Cluster, node_ids: Sequence[int]) -> None:
        for nid in node_ids:
            cluster[nid].cpu.set_speed_index(cluster.opoints.max_index)
