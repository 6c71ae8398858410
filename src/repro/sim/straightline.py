"""Straightline executor: static-gear runs without an event heap.

For a fault-free run whose operating points never change (no-DVS
baseline, the EXTERNAL strategy), every quantity the event engine
produces is a closed-form chain of float operations: segment end
times are chained sums, per-node energy is a piecewise-constant
integral over state-change breakpoints, and collectives complete a
fixed duration after the last arrival.  This module evaluates a
:class:`~repro.workloads.compile.CompiledProgram` by direct
accumulation — no heap, no generators — replicating the event engine's
arithmetic *in the same order*, so every :class:`Measurement` summary
field is bit-for-bit identical to the event engine's.

The replication contract (pinned by
``tests/sim/test_straightline_equivalence.py``):

* segments start at ``max(enqueue time, CPU free time)`` and last
  ``max(0, stall_until - start) + cycles / f + offchip`` — the exact
  expression ``CpuCore._duration`` evaluates;
* energy accumulates one ``energy += power * dt`` term per state-change
  breakpoint with ``dt > 0`` plus a final ``power * (T_end - t_last)``
  term — the exact sequence ``EnergyMeter`` produces, using
  ``NodePowerParameters.node_power_w`` itself for every power value;
* network channel grants are FIFO per node: ``grant = max(request,
  channel_free)``, serialization from the rx grant, releases at
  serialization end, delivery one latency later — matching
  ``Network._transfer`` over the engine's synchronous-grant
  :class:`Resource`;
* collectives complete at ``max(arrival times) + collective_seconds``.

A traced run of such a plan interprets every rank (the identity
partition) and records what ``RankContext._trace`` would: per rank, the
same events in the same order as the event engine's ``TraceLog``.
Plans with in-run DVS calls and sampled daemons are traced by the
event engine only.

Anything whose timing the executor cannot order deterministically (a
channel request arriving before one already granted, a rank-dependency
cycle) raises :class:`StraightlineUnsupported`; ``run_workload`` and
:func:`run_batch` fall back to the event engine, which also reproduces
genuine program errors (deadlocks, mismatched collectives).
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Optional
from weakref import WeakKeyDictionary

from repro.workloads.compile import (
    classify_channels,
    OP_COLLECTIVE,
    OP_COMPUTE,
    OP_IDLE,
    OP_IRECV,
    OP_ISEND,
    OP_WAIT,
    REQ_RECV,
    MEMO_CAP,
    CompiledProgram,
    CompileError,
    compile_workload,
    lru_get,
    lru_put,
)

__all__ = [
    "StraightlineUnsupported",
    "run_straightline",
    "try_run_straightline",
    "run_batch",
]


class StraightlineUnsupported(RuntimeError):
    """The run cannot be evaluated on the straightline tier.

    Raised when the configuration is ineligible (dynamic strategy, a
    traced run with in-run DVS calls) or when execution hits an
    ordering the direct accumulator cannot reproduce deterministically.
    Callers fall back to the event engine: :func:`run_batch` runs the
    point once on it.

    ``reason`` is a stable telemetry code suitable for per-reason
    fallback counters; the message stays the human-readable diagnosis:

    * ``dvs_in_flight`` — a lowered DVS call while a segment is queued;
    * ``out_of_order_channel`` — a network channel demand earlier than
      one already granted;
    * ``deadlock`` — no rank can run;
    * ``wait_order`` — a wait resolved before its block point;
    * ``no_plan`` — the strategy has neither gear plan nor controller;
    * ``plan_mismatch`` — a per-node start table of the wrong length;
    * ``trace_unsupported`` — a traced run whose plan is not static;
    * ``bad_controller`` — a sampled controller this tier cannot drive
      (poll interval, observation kind, missing hooks, start index);
    * ``poll_tick_collision`` — a sampled run's segment, activity or
      rank event lands exactly on a poll tick;
    * ``unsupported`` — the generic default.

    A :class:`~repro.workloads.compile.CompileError` counts as
    ``compile_error``.
    """

    def __init__(self, message: str, reason: str = "unsupported") -> None:
        super().__init__(message)
        self.reason = reason


#: what a straightline tier raises when it declines a point.
_DECLINES = (StraightlineUnsupported, CompileError)


def _decline_reason(exc: Exception) -> str:
    """The telemetry code of a decline in :data:`_DECLINES`."""
    if isinstance(exc, CompileError):
        return "compile_error"
    return getattr(exc, "reason", "unsupported")


# Event kinds in the per-node breakpoint list.
_EV_START = 0  # a segment becomes active: payload (act, busy, mem, nic)
_EV_END = 1  # the active segment completes
_EV_PUSH = 2  # push a wait-state token: payload (act, busy, mem, nic)
_EV_POP = 3  # pop the topmost matching wait-state token
_EV_TOUCH = 4  # accounting boundary only (DVS call overhead stall)
_EV_GEAR = 5  # operating-point change: payload (new opoint, new mhz)

#: trace label of a WAIT, by request kind (REQ_SEND, REQ_RECV) and by
#: its blocking flag: ``isend``/``irecv`` + ``wait`` or ``send``/``recv``.
_WAIT_OPS = (("wait_send", "send"), ("wait_recv", "recv"))


_LISTS_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _program_lists(compiled: CompiledProgram) -> tuple:
    """Python-list view of a compiled program, memoized per program.

    Grouped ranks share body array objects (see ``CompiledProgram``);
    each distinct array converts once and its list object is shared —
    consumers only read them, so the view's memory scales with rank
    groups, not ranks.
    """
    lists = _LISTS_CACHE.get(compiled)
    if lists is None:
        def shared(arrays):
            memo: dict[int, list] = {}
            out = []
            for a in arrays:
                v = memo.get(id(a))
                if v is None:
                    v = memo[id(a)] = a.tolist()
                out.append(v)
            return out

        rb = compiled.req_base
        lists = (
            shared(compiled.ops),
            shared(compiled.iargs),
            shared(compiled.fargs),
            compiled.req_kind.tolist(),
            compiled.req_owner.tolist(),
            compiled.req_peer.tolist(),
            compiled.req_nbytes.tolist(),
            compiled.req_eager.tolist(),
            compiled.req_match.tolist(),
            rb.tolist() if rb is not None else [0] * compiled.nprocs,
        )
        _LISTS_CACHE[compiled] = lists
    return lists


#: compiled program -> {(plan, opoints): _LoweredPlan}.  GearPlan is a
#: frozen dataclass and tables hash by content, so sweeps that revisit a
#: plan (e.g. the same gear pair across seeds) lower it once.  Each
#: per-program dict is LRU-bounded at ``_ACTIONS_CACHE_CAP`` entries:
#: grids with many one-shot plans (the optimizer's candidate search)
#: would otherwise grow it without limit.
_ACTIONS_CACHE: "WeakKeyDictionary" = WeakKeyDictionary()
_ACTIONS_CACHE_CAP = MEMO_CAP

#: process-wide gear-plan lowering counters (runner telemetry: sweeps
#: snapshot deltas into ``CacheStats.lowering_hits``/``lowering_misses``).
_LOWERING_STATS = {"hits": 0, "misses": 0}


def lowering_cache_counters() -> tuple[int, int]:
    """``(hits, misses)`` of the gear-plan lowering cache, process-wide."""
    return _LOWERING_STATS["hits"], _LOWERING_STATS["misses"]


#: stands in for a per-rank call row a plan's table does not reach
_MISSING = object()


class _LoweredPlan(tuple):
    """A gear plan lowered onto a compiled program: one row per rank.

    Rows are shared tuples, one per distinct content, so row identity
    is row equality.  :meth:`start` and :meth:`labels` fill on first
    use: a bad setup table raises there.
    """

    def __new__(cls, rows, plan, opoints):
        self = super().__new__(cls, rows)
        self._plan, self._opoints = plan, opoints
        self._start = self._labels = None
        return self

    def start(self) -> list[int]:
        """Post-setup operating-point index per rank."""
        if self._start is None:
            plan, opoints, n = self._plan, self._opoints, len(self)
            if plan.start_mhz_per_rank is not None:
                if len(plan.start_mhz_per_rank) != n:
                    # The scalar path's strategy.setup raises the real error.
                    raise StraightlineUnsupported("per-node plan length mismatch",
                                                  reason="plan_mismatch")
                self._start = [opoints.index_of(opoints.by_mhz(m))
                               for m in plan.start_mhz_per_rank]
            elif plan.start_mhz is not None:
                self._start = [opoints.index_of(opoints.by_mhz(plan.start_mhz))] * n
            else:
                self._start = [opoints.max_index] * n
        return self._start

    def labels(self) -> list[int]:
        """Per-rank id of the rank's distinct ``(start, row)`` pair: two
        ranks agree iff they hold identical gear state all run long."""
        if self._labels is None:
            ids: dict = {}
            self._labels = [
                ids.setdefault((s, id(row)), len(ids))
                for s, row in zip(self.start(), self)
            ]
        return self._labels


def _lower_gear_actions(compiled: CompiledProgram, plan, opoints) -> _LoweredPlan:
    """Lower a :class:`GearPlan` onto a compiled program's hook markers.

    Returns, per rank, ``(op position, target opoint index)`` pairs in
    program order — one per ``set_cpuspeed`` call the plan issues at
    that marker.  Ranks of one body group share markers, so a row
    depends only on the rank's group and its rows of the plan's
    per-rank tables: each distinct such key is lowered once, at its
    first rank.  A frequency the table doesn't carry, or a plan that
    doesn't cover a rank whose markers need it, raises
    :class:`CompileError`; the caller falls back and the event engine
    surfaces the genuine error.
    """
    per_prog = _ACTIONS_CACHE.setdefault(compiled, {})
    key = (plan, opoints)
    cached = lru_get(per_prog, key)
    if cached is not None:
        _LOWERING_STATS["hits"] += 1
        return cached
    n = compiled.nprocs
    exact = {p.frequency_mhz: i for i, p in enumerate(opoints)}
    tables = [plan.init_calls]
    tables += [t for _, t in plan.rank_begin_calls + plan.rank_end_calls]
    gof = compiled.group_of.tolist() if compiled.group_of is not None else range(n)
    rank_keys = zip(gof, *(
        list(t[:n]) + [_MISSING] * (n - len(t)) for t in tables
    ))
    row_of: dict = {}  # rank key -> row
    rows_by_content: dict = {}
    rows = []
    try:
        for rank, rkey in enumerate(rank_keys):
            row = row_of.get(rkey)
            if row is None:
                # One plan query per hook site, at the site's first
                # marker: a failing site raises where a per-marker walk
                # would, and later markers of a site reuse its targets.
                targets_at: dict = {}  # (kind, phase) -> target indices
                row = []
                for pos, kind, phase in compiled.markers[rank]:
                    targets = targets_at.get((kind, phase))
                    if targets is None:
                        targets = targets_at[kind, phase] = tuple(
                            # inexact MHz: by_mhz's tolerant scan
                            exact[mhz] if mhz in exact
                            else opoints.index_of(opoints.by_mhz(mhz))
                            for mhz in plan.calls_at(kind, phase, rank)
                        )
                    for target in targets:
                        row.append((pos, target))
                row = tuple(row)
                row = row_of[rkey] = rows_by_content.setdefault(row, row)
            rows.append(row)
    except (KeyError, IndexError, ValueError) as exc:
        raise CompileError(f"gear plan not executable: {exc!r}") from exc
    _LOWERING_STATS["misses"] += 1
    lowered = _LoweredPlan(rows, plan, opoints)
    lru_put(per_prog, key, lowered)
    return lowered


class _Node:
    """Per-node gear state + the breakpoint event list.

    ``freq_hz``/``mhz``/``opoint``/``index`` track the *current* gear
    (mutated by :meth:`_Executor._apply_gear`); ``start_opoint`` and
    ``start_mhz`` keep the post-setup state :meth:`_Executor.finalize`
    integrates from.  ``gears`` counts the node's in-run transitions,
    which a quotient run weights by group size.
    """

    __slots__ = ("freq_hz", "mhz", "opoint", "index", "start_opoint",
                 "start_mhz", "stall_until", "cpu_free", "events", "gears")

    def __init__(self, freq_hz: float, mhz: float, opoint, stall_until: float,
                 index: int = -1) -> None:
        self.freq_hz = freq_hz
        self.mhz = mhz
        self.opoint = opoint
        self.index = index
        self.start_opoint = opoint
        self.start_mhz = mhz
        self.stall_until = stall_until
        self.cpu_free = 0.0
        self.events: list[tuple] = []  # (t, seq, kind, payload)
        self.gears = 0


class _Chan:
    """One simplex network channel (a capacity-1 FIFO resource)."""

    __slots__ = ("free", "max_req")

    def __init__(self) -> None:
        self.free = 0.0
        self.max_req = 0.0


class _Slot:
    """One collective call site (mirrors ``_CollectiveSlot``)."""

    __slots__ = ("arrivals", "wires", "done_t")

    def __init__(self) -> None:
        self.arrivals: dict[int, float] = {}
        self.wires: dict[int, float] = {}
        self.done_t: Optional[float] = None


#: ``_Rank.next_act`` of a rank with no action left: past every op.
_NO_ACTION = sys.maxsize


class _Rank:
    __slots__ = ("rank", "pc", "t", "phase", "wait_req", "coll_seq", "spawn",
                 "finish", "ops", "iargs", "fargs", "node", "acts", "act_i",
                 "next_act", "rbase")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.rbase = 0  # global id of this rank's first request
        self.pc = 0
        self.t = 0.0
        self.phase = "op"  # op | wait | coll | done
        self.wait_req = -1
        self.coll_seq = -1
        self.spawn: list[int] = []
        self.finish = 0.0
        # Filled by the executor: this rank's program + its node, so the
        # dispatch loop avoids a per-op double index.
        self.ops: list[int] = []
        self.iargs: list[int] = []
        self.fargs: list = []
        self.node: Optional[_Node] = None
        # Gear actions: (op position, target index) pairs in program
        # order; act_i is the cursor of the next unapplied action and
        # next_act its op position (_NO_ACTION once none is left).
        self.acts: list[tuple] = []
        self.act_i = 0
        self.next_act = _NO_ACTION


class _Executor:
    """Direct-accumulation interpreter for one compiled run."""

    def __init__(self, compiled: CompiledProgram, cost, net_params, power_params,
                 nodes: list[_Node], opoints=None,
                 gear_actions: Optional[list[list[tuple]]] = None,
                 transition_latency_s: float = 20e-6,
                 coll_n: Optional[int] = None, trace=None) -> None:
        self.c = compiled
        self.cost = cost
        self.net = net_params
        self.power = power_params
        self.nodes = nodes
        self.n = compiled.nprocs
        # Collective durations scale with the communicator size.  A
        # quotient (group-representative) run interprets G rank groups
        # but models an N-rank job, so the two counts differ there.
        self.coll_n = coll_n if coll_n is not None else compiled.nprocs
        self.fastest_hz = compiled.fastest_hz
        self.opoints = opoints
        self.transition_latency_s = transition_latency_s
        self.dvs_overhead_s = cost.dvs_call_overhead_s
        self.transitions = 0
        self._has_gears = bool(gear_actions) and any(gear_actions)
        # Engine: Communicator._max_freq_ratio() over the (static) ranks.
        # With in-run gear changes the ratio is re-read per collective
        # (see _start_collective); this cached value covers static runs.
        self.freq_ratio = (
            max(nd.freq_hz for nd in nodes) / compiled.fastest_hz
        )
        # Python lists of Python floats/ints: the accumulation must use
        # the same scalar arithmetic as the event engine, not numpy's.
        # The conversion is pure and the program immutable, so it is
        # shared across every point of a sweep.
        (self.ops, self.iargs, self.fargs, self.req_kind, self.req_owner,
         self.req_peer, self.req_nbytes, self.req_eager,
         self.req_match, self.req_base) = _program_lists(compiled)
        nreq = compiled.n_requests
        self.done_t: list[Optional[float]] = [None] * nreq
        self.posted_t: list[Optional[float]] = [None] * nreq
        self.delivered_t: list[Optional[float]] = [None] * nreq
        self.rts_t: list[Optional[float]] = [None] * nreq
        self.wire: list[float] = [0.0] * nreq
        self.tx = [_Chan() for _ in range(self.n)]
        self.rx = [_Chan() for _ in range(self.n)]
        self.slots = [_Slot() for _ in compiled.coll_kinds]
        self.ranks = [_Rank(r) for r in range(self.n)]
        for r in self.ranks:
            r.ops = self.ops[r.rank]
            r.iargs = self.iargs[r.rank]
            r.fargs = self.fargs[r.rank]
            r.rbase = self.req_base[r.rank]
            r.node = nodes[r.rank]
            if gear_actions:
                r.acts = gear_actions[r.rank]
                if r.acts:
                    r.next_act = r.acts[0][0]
        self._seq = 0
        self._seq_late = 1 << 62
        self._dirty = False
        #: Poll times (sampled tier only; static runs leave it empty).
        #: Every node's daemon reads busy_seconds() at each poll — a
        #: time-accounting touch on all nodes at once — so finalize
        #: merges this one shared list instead of per-node events.
        self._ticks: list[float] = []
        self.comm_sig = cost.comm_progress.as_tuple()
        self.wait_sig = cost.blocked_wait.as_tuple()
        # Bound-method caches for the interpreter's hottest calls.
        self._send_cycles = cost.send_cycles
        self._recv_cycles = cost.recv_cycles
        self._p2p_wire_bytes = cost.p2p_wire_bytes
        if trace is not None:
            # Chosen once per executor: an untraced run keeps the bare
            # _step, with no per-op test for tracing.
            self._record = trace.record
            self._issued = [0.0] * self.n
            self._step_untraced = self._step
            self._step = self._traced_step

    # ------------------------------------------------------------------
    # breakpoint emission + the CPU FIFO
    # ------------------------------------------------------------------
    def _emit(self, node: _Node, t: float, kind: int, payload=None) -> None:
        self._seq += 1
        node.events.append((t, self._seq, kind, payload))

    def _emit_late(self, node: _Node, t: float, kind: int, payload=None) -> None:
        """Emit an event that sorts *after* same-time rank events.

        The engine resumes a rendezvous send proc via an event inserted
        at the CTS timestamp itself, so its pushes/pops always fire
        after every continuation of events scheduled earlier — e.g. the
        receiver's own wait-state push at the same instant.  The
        straightline worklist may discover the CTS while other ranks
        still trail it, so these breakpoints draw from a high counter:
        plain tuple sort then lands them last within their timestamp.
        Only the relative order of *pushes with different signatures*
        is observable (pops remove a matching token wherever it sits),
        and that is exactly the order this preserves.
        """
        self._seq_late += 1
        node.events.append((t, self._seq_late, kind, payload))

    def _run_seg(self, node: _Node, t_req: float, cycles: float, offchip: float,
                 act: float, busy: float, mem: float, nic: float) -> float:
        """Enqueue one work segment; returns its completion time.

        Start and duration reproduce ``CpuCore``: the segment starts
        when the FIFO drains (or immediately), consumes any pending
        transition stall, then runs ``cycles`` at the static clock.
        """
        start = t_req if t_req > node.cpu_free else node.cpu_free
        stall = node.stall_until - start
        if stall < 0.0:
            stall = 0.0
        planned = stall + cycles / node.freq_hz + offchip
        end = start + planned
        seq = self._seq
        events = node.events
        events.append((start, seq + 1, _EV_START, (act, busy, mem, nic)))
        events.append((end, seq + 2, _EV_END, None))
        self._seq = seq + 2
        node.cpu_free = end
        return end

    # ------------------------------------------------------------------
    # piecewise-static gear changes (lowered set_cpuspeed hook calls)
    # ------------------------------------------------------------------
    def _apply_actions(self, r: _Rank, pc: int) -> None:
        acts = r.acts
        i = r.act_i
        n = len(acts)
        while i < n and acts[i][0] <= pc:
            self._apply_gear(r, acts[i][1])
            i += 1
        r.act_i = i
        r.next_act = acts[i][0] if i < n else _NO_ACTION

    def _apply_gear(self, r: _Rank, target: int) -> None:
        """One lowered ``set_cpuspeed`` call at the rank's current time.

        Replicates ``RankContext.set_cpuspeed`` → ``_actuate`` →
        ``CpuCore`` with no injector: the call-overhead stall (a time
        boundary, no meter update), then — only when the operating
        point actually changes — the transition-latency stall and the
        gear breakpoint where ``set_speed_index`` notifies the meter.

        The overhead's TOUCH breakpoint is emitted only for a call that
        keeps the gear.  A gear change's GEAR breakpoint lands at the
        same instant with the next ``seq``, so a TOUCH there would sit
        inside the GEAR's same-time group in :meth:`finalize` and change
        nothing; a no-op call's lone TOUCH is a real histogram boundary.
        """
        node = r.node
        t = r.t
        if node.cpu_free > t:
            # The engine would retime the queued/active segment around
            # the transition; the straightline FIFO cannot.
            raise StraightlineUnsupported("DVS call while a segment is in flight",
                                    reason="dvs_in_flight")
        change = target != node.index
        overhead = self.dvs_overhead_s
        if overhead != 0.0:
            base = node.stall_until if node.stall_until > t else t
            node.stall_until = base + overhead
            if not change:
                self._emit(node, t, _EV_TOUCH, None)
        if change:
            op = self.opoints[target]
            base = node.stall_until if node.stall_until > t else t
            node.stall_until = base + self.transition_latency_s
            node.index = target
            node.freq_hz = op.frequency_hz
            node.mhz = op.frequency_mhz
            node.opoint = op
            self.transitions += 1
            node.gears += 1
            self._emit(node, t, _EV_GEAR, (op, op.frequency_mhz))

    # ------------------------------------------------------------------
    # network channels (Resource with synchronous FIFO grants)
    # ------------------------------------------------------------------
    def _grant(self, chan: _Chan, t_req: float) -> float:
        if t_req < chan.max_req and t_req < chan.free:
            # A request earlier than one already granted while the
            # channel is busy: the engine would have granted this one
            # first.  The straightline order is wrong — bail out.
            raise StraightlineUnsupported("out-of-order network channel demand",
                                          reason="out_of_order_channel")
        if t_req > chan.max_req:
            chan.max_req = t_req
        return t_req if t_req > chan.free else chan.free

    def _transfer(self, src: int, dst: int, nbytes: float, t0: float) -> float:
        """Wire a message; returns its delivery time (``Network._transfer``)."""
        if src == dst:
            return t0 + nbytes / (400e6)
        tx, rx = self.tx[src], self.rx[dst]
        g1 = self._grant(tx, t0)
        g2 = self._grant(rx, g1)
        ser_end = g2 + self.net.serialization_s(nbytes)
        tx.free = ser_end
        rx.free = ser_end
        return ser_end + self.net.latency_s

    # ------------------------------------------------------------------
    # send-proc chains
    # ------------------------------------------------------------------
    def _flush(self, rank: _Rank) -> None:
        """Run the rank's pending send procs (they start at its yields)."""
        if not rank.spawn:
            return
        pending, rank.spawn = rank.spawn, []
        for req_id in pending:
            self._run_send_chain(req_id, rank.t)

    def _run_send_chain(self, s_id: int, ft: float) -> None:
        self._dirty = True  # may resolve the peer's recv request
        src = self.req_owner[s_id]
        nbytes = self.req_nbytes[s_id]
        node = self.nodes[src]
        ratio = node.freq_hz / self.fastest_hz
        self.wire[s_id] = self._p2p_wire_bytes(nbytes, ratio)
        sw_end = self._run_seg(
            node, ft, self._send_cycles(nbytes), 0.0, 1.0, 1.0, 0.0, 0.4
        )
        self._finish_send(s_id, sw_end)

    def _finish_send(self, s_id: int, sw_end: float) -> None:
        """Transfer/RTS tail of a send chain, from the send-work end."""
        self._dirty = True
        src = self.req_owner[s_id]
        dst = self.req_peer[s_id]
        r_id = self.req_match[s_id]
        if self.req_eager[s_id]:
            # MPI_Send may return once the buffer is copied out.
            self.done_t[s_id] = sw_end
            delivered = self._transfer(src, dst, self.wire[s_id], sw_end)
            self.delivered_t[s_id] = delivered
            pt = self.posted_t[r_id]
            if pt is not None:
                self.done_t[r_id] = pt if pt > delivered else delivered
        else:
            # Rendezvous: RTS rides one latency; transfer starts at CTS.
            self.rts_t[s_id] = sw_end + self.net.latency_s
            if self.posted_t[r_id] is not None:
                self._complete_rndv(s_id)

    def _complete_rndv(self, s_id: int) -> None:
        self._dirty = True  # resolves requests on both sides
        r_id = self.req_match[s_id]
        rts = self.rts_t[s_id]
        pt = self.posted_t[r_id]
        cts = pt if pt > rts else rts  # CTS fires when both sides met
        src = self.req_owner[s_id]
        dst = self.req_peer[s_id]
        src_node, dst_node = self.nodes[src], self.nodes[dst]
        # Both CPUs progress the message for the whole transfer.  These
        # ride the late counter: the engine's send proc resumes via an
        # event inserted at CTS time, after same-instant rank events.
        self._emit_late(src_node, cts, _EV_PUSH, self.comm_sig)
        self._emit_late(dst_node, cts, _EV_PUSH, self.comm_sig)
        delivered = self._transfer(src, dst, self.wire[s_id], cts)
        self._emit_late(src_node, delivered, _EV_POP, self.comm_sig)
        self._emit_late(dst_node, delivered, _EV_POP, self.comm_sig)
        self.delivered_t[s_id] = delivered
        self.done_t[s_id] = delivered
        self.done_t[r_id] = delivered

    # ------------------------------------------------------------------
    # the worklist
    # ------------------------------------------------------------------
    def run(self) -> float:
        """Execute every rank; returns the makespan T_end."""
        ranks = self.ranks
        done_t = self.done_t
        slots = self.slots
        step = self._step
        while True:
            best = None
            best_nt = 0.0
            second = None
            second_nt = 0.0
            all_done = True
            for r in ranks:
                phase = r.phase
                if phase == "done":
                    continue
                all_done = False
                if phase == "op":
                    nt = r.t
                elif phase == "wait":
                    nt = done_t[r.wait_req]
                else:  # coll
                    nt = slots[r.coll_seq].done_t
                if nt is None:
                    continue
                # Ranks are scanned in id order, so strict < keeps the
                # lowest-rank winner on ties — same as the tuple key.
                if best is None or nt < best_nt:
                    best, best_nt, second, second_nt = r, nt, best, best_nt
                elif second is None or nt < second_nt:
                    second, second_nt = r, nt
            if all_done:
                break
            if best is None:
                # Every live rank blocked on an unresolved dependency:
                # the program would deadlock (or needs an ordering this
                # tier cannot establish).  Let the event engine decide.
                raise StraightlineUnsupported("no runnable rank (program deadlock?)",
                                              reason="deadlock")
            # Burst: keep stepping the chosen rank without rescanning
            # while the order is provably unchanged.  Exactness: no
            # other rank's next-time can move unless a step resolves a
            # request or collective (the _dirty flag), and the chosen
            # rank's own time only grows, so comparing against the
            # stale runner-up under the same (time, rank) tie-break
            # reproduces the full scan's choice.
            while True:
                self._dirty = False
                step(best)
                if self._dirty or best.phase != "op":
                    break
                if second is None:
                    continue  # only resolvable rank; nobody to overtake
                nt = best.t
                if nt < second_nt or (nt == second_nt and best.rank < second.rank):
                    continue
                break
        return max(r.finish for r in ranks)

    def _step(self, r: _Rank) -> None:
        phase = r.phase
        if phase == "wait":
            self._resume_wait(r)
            return
        if phase == "coll":
            r.t = self.slots[r.coll_seq].done_t
            r.phase = "op"
            r.pc += 1
            return
        ops = r.ops
        pc = r.pc
        if pc >= r.next_act:
            # Lowered hook calls fire before the op recorded after them
            # (the hook runs synchronously before the program's next
            # yield in the engine).
            self._apply_actions(r, pc)
        if pc >= len(ops):
            if r.spawn:
                self._flush(r)
            r.finish = r.t
            r.phase = "done"
            return
        code = ops[pc]
        if code == OP_COMPUTE:
            cyc, off, act, busy, mem, nic = r.fargs[pc]
            end = self._run_seg(r.node, r.t, cyc, off, act, busy, mem, nic)
            if r.spawn:
                self._flush(r)
            r.t = end
            r.pc = pc + 1
        elif code == OP_IDLE:
            if r.spawn:
                self._flush(r)
            r.t = r.t + r.fargs[pc][0]
            r.pc = pc + 1
        elif code == OP_ISEND:
            r.spawn.append(r.rbase + r.iargs[pc])
            r.pc = pc + 1
        elif code == OP_IRECV:
            self._post_recv(r, r.rbase + r.iargs[pc])
            r.pc = pc + 1
        elif code == OP_WAIT:
            self._start_wait(r, r.rbase + r.iargs[pc])
        else:  # OP_COLLECTIVE
            self._start_collective(r)

    def _traced_step(self, r: _Rank) -> None:
        """:meth:`_step`, then the engine tracer's record of the op it
        completed (``RankContext._trace``): ``compute``, ``idle``, a
        wait under its label and a collective under its kind, each from
        the time the rank issued it.  ISEND/IRECV record nothing."""
        pc = r.pc
        if r.phase == "op":
            self._issued[r.rank] = r.t
        self._step_untraced(r)
        if r.pc == pc:
            return
        code = r.ops[pc]
        if code == OP_ISEND or code == OP_IRECV:
            return
        t0 = self._issued[r.rank]
        if code == OP_COMPUTE:
            self._record(r.rank, "compute", t0, r.t)
        elif code == OP_IDLE:
            self._record(r.rank, "idle", t0, r.t)
        elif code == OP_WAIT:
            req_id = r.rbase + r.iargs[pc]
            kind = self.req_kind[req_id]
            msg_id = self.req_match[req_id] if kind == REQ_RECV else req_id
            self._record(r.rank, _WAIT_OPS[kind][r.fargs[pc][0] != 0.0], t0,
                         r.t, self.req_nbytes[msg_id], self.req_peer[req_id])
        else:  # OP_COLLECTIVE
            self._record(r.rank, self.c.coll_kinds[r.iargs[pc]], t0, r.t,
                         r.fargs[pc][0])

    def _post_recv(self, r: _Rank, req_id: int) -> None:
        self.posted_t[req_id] = r.t
        s_id = self.req_match[req_id]
        if self.req_eager[s_id]:
            dv = self.delivered_t[s_id]
            if dv is not None:
                # Delivered-then-posted matches in the mailbox at post
                # time; posted-then-delivered matches at delivery.
                self.done_t[req_id] = r.t if r.t > dv else dv
        elif self.rts_t[s_id] is not None and self.done_t[s_id] is None:
            self._complete_rndv(s_id)

    def _start_wait(self, r: _Rank, req_id: int) -> None:
        d = self.done_t[req_id]
        node = r.node
        if d is not None and d <= r.t:
            # Already triggered: wait() performs no blocking yield.
            if self.req_kind[req_id] == REQ_RECV:
                end = self._unpack(node, r.t, req_id)
                if r.spawn:
                    self._flush(r)  # the unpack run_work is the first yield
                r.t = end
            r.pc += 1
            return
        # Untriggered: push the blocked signature, then yield (which
        # starts any send procs spawned in this burst).
        self._emit(node, r.t, _EV_PUSH, self.wait_sig)
        if r.spawn:
            self._flush(r)
        d = self.done_t[req_id]  # flushing may complete our own send
        if d is None:
            r.wait_req = req_id
            r.phase = "wait"
            return
        self._complete_wait(r, req_id, d)

    def _resume_wait(self, r: _Rank) -> None:
        d = self.done_t[r.wait_req]
        self._complete_wait(r, r.wait_req, d)
        r.phase = "op"

    def _complete_wait(self, r: _Rank, req_id: int, d: float) -> None:
        if d < r.t:
            # The request completed before we decided to block — the
            # engine would not have pushed the wait state.  Our
            # worklist order diverged; refuse rather than guess.
            raise StraightlineUnsupported("wait resolved before block point",
                                          reason="wait_order")
        node = r.node
        self._emit(node, d, _EV_POP, self.wait_sig)
        r.t = d
        if self.req_kind[req_id] == REQ_RECV:
            r.t = self._unpack(node, d, req_id)
        r.pc += 1

    def _unpack(self, node: _Node, t: float, req_id: int) -> float:
        nbytes = self.req_nbytes[self.req_match[req_id]]
        return self._run_seg(
            node, t, self._recv_cycles(nbytes), 0.0, 1.0, 1.0, 0.4, 0.3
        )

    def _start_collective(self, r: _Rank) -> None:
        seq = r.iargs[r.pc]
        f = r.fargs[r.pc]
        wire = f[0]
        copy = f[1]
        node = r.node
        pack_end = self._run_seg(
            node, r.t,
            self.cost.collective_overhead_cycles
            + self.cost.pack_cycles_per_byte * copy,
            0.0, 1.0, 1.0, 0.4, 0.0,
        )
        if r.spawn:
            self._flush(r)
        self._emit(node, pack_end, _EV_PUSH, self.comm_sig)
        slot = self.slots[seq]
        slot.arrivals[r.rank] = pack_end
        slot.wires[r.rank] = wire
        r.t = pack_end
        r.coll_seq = seq
        r.phase = "coll"
        if len(slot.arrivals) == self.n:
            self._dirty = True  # unblocks every parked rank
            all_at = max(slot.arrivals.values())
            # The engine's completing rank reads every rank's *current*
            # frequency; at completion each rank is parked inside this
            # collective, so the ratio is exact here too.  Static runs
            # use the cached constant (same expression, same value).
            ratio = self.freq_ratio
            if self._has_gears:
                ratio = max(nd.freq_hz for nd in self.nodes) / self.fastest_hz
            duration = self.cost.collective_seconds(
                self.c.coll_kinds[seq],
                self.coll_n,
                max(slot.wires.values()),
                self.net,
                freq_ratio=ratio,
                jitter_s=0.0,
            )
            slot.done_t = all_at + duration
            for rr in range(self.n):
                self._emit(self.nodes[rr], slot.done_t, _EV_POP, self.comm_sig)

    # ------------------------------------------------------------------
    # energy + time accounting
    # ------------------------------------------------------------------
    def finalize(self, t_end: float) -> tuple[list[float], list[dict[float, float]]]:
        """Integrate each node's breakpoints; returns (energy, time) lists.

        Replicates the meter exactly: one ``energy += p * dt`` per
        *meter* breakpoint with ``dt > 0``, power refreshed after every
        meter breakpoint, plus the final ``p * (T_end - t_last)`` read.
        The engine has two distinct boundary sets — ``EnergyMeter``
        updates only at notify points (segment start/end, push/pop,
        gear change), while the CPU's time accounting (``_touch``) also
        fires at overhead-only stalls — so energy and the per-MHz time
        histogram advance from separate ``t_last`` cursors.  The
        histogram accrues one ``hist[mhz] += dt`` per touch boundary at
        the *pre-boundary* frequency, in chronological order, exactly
        as ``CpuStats.time_at_mhz`` accumulates.

        Sampled runs add one more accounting-boundary set: the daemons'
        poll times, shared by every node (``_ticks``).  They are merged
        chronologically into each node's walk rather than stored as
        per-node TOUCH events.  A tick that coincides with an event
        time contributes no boundary of its own — the event's boundary
        at the same instant already advances the cursor, exactly as the
        engine's same-time touch produces ``dt == 0``.
        """
        idle = self.power.cpu_idle_activity
        power_w = self.power.node_power_w
        idle_key = (idle, 0.0, 0.0)
        ticks = self._ticks
        n_tk = len(ticks)
        energies: list[float] = []
        hists: list[dict[float, float]] = []
        for node in self.nodes:
            # (t, seq) is globally unique, so plain tuple sort never
            # reaches the payload — identical order, no key function.
            events = sorted(node.events)
            opoint = node.start_opoint
            mhz = node.start_mhz
            # One power cache per operating point visited (gear runs
            # revisit points; each (activity, mem, nic) key maps to a
            # different wattage at each point).
            caches: dict[float, dict[tuple, float]] = {}
            cache = caches.setdefault(mhz, {})
            p_idle = power_w(opoint, idle, 0.0, 0.0)
            cache[idle_key] = p_idle
            cache_get = cache.get

            active = None
            stack: list[tuple] = []
            p_cur = p_idle
            t_last_e = 0.0  # meter boundary (notify events only)
            t_last_t = 0.0  # accounting boundary (every event)
            energy = 0.0
            hist: dict[float, float] = {}
            hist_get = hist.get
            i = 0
            k = 0  # cursor into the shared poll-time list
            n_ev = len(events)
            while i < n_ev:
                ev = events[i]
                t = ev[0]
                if t > t_end:
                    break  # the engine stops at the job's completion
                while k < n_tk:
                    tk = ticks[k]
                    if tk > t:
                        break
                    k += 1
                    if tk < t:
                        dt = tk - t_last_t
                        if dt > 0:
                            hist[mhz] = hist_get(mhz, 0.0) + dt
                            t_last_t = tk
                    # tk == t: the event boundary below covers it
                dt = t - t_last_t
                if dt > 0:
                    hist[mhz] = hist_get(mhz, 0.0) + dt
                    t_last_t = t
                if ev[2] == _EV_TOUCH:
                    i1 = i + 1
                    if i1 >= n_ev or events[i1][0] != t:
                        # Lone touch (a poll or overhead-only stall):
                        # accounting boundary only, no meter update.
                        i = i1
                        continue
                notify = False
                gear = False
                while True:
                    kind = ev[2]
                    if kind != _EV_TOUCH:
                        if not notify:
                            notify = True
                            dte = t - t_last_e
                            if dte > 0:
                                energy += p_cur * dte
                                t_last_e = t
                        if kind == _EV_START:
                            active = ev[3]
                        elif kind == _EV_END:
                            active = None
                        elif kind == _EV_PUSH:
                            stack.append(ev[3])
                        elif kind == _EV_POP:
                            payload = ev[3]
                            for j in range(len(stack) - 1, -1, -1):
                                if stack[j] == payload:
                                    del stack[j]
                                    break
                        else:  # _EV_GEAR
                            opoint, mhz = ev[3]
                            gear = True
                    i += 1
                    if i >= n_ev:
                        break
                    ev = events[i]
                    if ev[0] != t:
                        break
                if not notify:
                    continue  # overhead-only stall: no meter update
                if gear:
                    cache = caches.setdefault(mhz, {})
                    cache_get = cache.get
                if active is not None:
                    key = (active[0], active[2], active[3])
                elif stack:
                    top = stack[-1]
                    dyn = top[0] if top[0] > idle else idle
                    key = (dyn, top[2], top[3])
                else:
                    key = idle_key
                p_cur = cache_get(key)
                if p_cur is None:
                    p_cur = power_w(opoint, key[0], key[1], key[2])
                    cache[key] = p_cur
            # Polls after the node's last event (it finished early or
            # sat idle): still accounting boundaries, up to T_end.
            while k < n_tk:
                tk = ticks[k]
                if tk > t_end:
                    break
                k += 1
                dt = tk - t_last_t
                if dt > 0:
                    hist[mhz] = hist_get(mhz, 0.0) + dt
                    t_last_t = tk
            # EnergyMeter.energy_j(): one final read at T_end.
            energies.append(energy + p_cur * (t_end - t_last_e))
            dt = t_end - t_last_t
            if dt > 0:
                hist[mhz] = hist_get(mhz, 0.0) + dt
            hists.append(hist)
        return energies, hists


# ----------------------------------------------------------------------
# sampled control: daemon strategies without the event heap
# ----------------------------------------------------------------------
class _SegRec:
    """One scheduled CPU segment, kept retimable until its end is final.

    The static executor forgets a segment the moment it computes its
    end; under a polling daemon a gear change can land *inside* a
    segment, so the sampled executor keeps, per node, the live tail of
    its segment FIFO with exactly the fields ``CpuCore`` retimes:
    ``scheduled_at``/``planned`` (progress fraction), the remaining
    work, and the indices of the segment's breakpoint events so a
    retime can patch their times in place.
    """

    __slots__ = ("t_req", "start", "end", "scheduled_at", "planned",
                 "cycles_left", "offchip_left", "ev_start", "ev_end",
                 "attached")

    def __init__(self, t_req, start, end, planned, cycles, offchip,
                 ev_start, ev_end) -> None:
        self.t_req = t_req
        self.start = start
        self.end = end
        self.scheduled_at = start
        self.planned = planned
        self.cycles_left = cycles
        self.offchip_left = offchip
        self.ev_start = ev_start
        self.ev_end = ev_end
        #: indices of extra events pinned to this segment's end (the
        #: collective arrival push) — retimed together with it.
        self.attached: list[int] = []


class _SNode(_Node):
    """A :class:`_Node` plus sampled-control bookkeeping.

    ``segs``/``seg_lo`` is the retimable segment tail; the remaining
    fields are the incremental busy-time replay the poll's utilization
    sample reads: ``carry`` holds indices of this node's events not yet
    integrated (indices stay valid through retime patching), and
    ``b_active``/``b_stack`` mirror the engine CPU's active-segment /
    wait-stack state at the replay cursor ``busy_t``.

    ``cyc_acc``/``cyc_lo`` are the lazy retired-cycle counter for
    ``observes="cycles"`` controllers: ``cyc_acc`` is the engine's
    ``CpuStats.cycles_retired`` (boundary commits only, in the same
    chronological addition order), ``cyc_lo`` the first segment whose
    completion is not yet committed.
    """

    __slots__ = ("segs", "seg_lo", "scan", "carry", "busy_acc", "busy_t",
                 "busy_level", "b_active", "b_stack", "cyc_acc", "cyc_lo")

    def __init__(self, freq_hz, mhz, opoint, stall_until, index=-1) -> None:
        super().__init__(freq_hz, mhz, opoint, stall_until, index)
        self.segs: list[_SegRec] = []
        self.seg_lo = 0
        self.scan = 0
        self.carry: list[int] = []
        self.busy_acc = 0.0
        self.busy_t = 0.0
        self.busy_level = 0.0
        self.b_active: Optional[tuple] = None
        self.b_stack: list[tuple] = []
        self.cyc_acc = 0.0
        self.cyc_lo = 0


class _SampledExecutor(_Executor):
    """Straightline interpreter for interval-polling daemon strategies.

    Between poll ticks the run is gear-static, so the parent worklist
    advances ranks exactly as the static tier — but only while their
    next event falls *before* the next unapplied tick (the horizon).
    When nothing can move below the horizon, the barrier first
    finalizes deferred timings that became final, then applies the
    tick: per node (daemon creation order = node order), produce the
    controller's observation — the engine's exact ``busy_seconds``
    accumulation, ``cycles_retired_now()`` counter, or instantaneous
    ``power_w()`` — hand it to the strategy's stateful controller
    (per-node ``step``, or gather→``decide``→scatter when the
    controller carries a global reduction), and apply each emitted
    ``set_speed_index`` — no-op when the gear already matches, else a
    transition stall plus the engine's mid-segment retime cascaded
    down the node's segment FIFO.

    Two timings cannot be computed eagerly once segments are
    retimable, and are deferred until their inputs are final (strictly
    below the horizon, hence beyond further retiming):

    * a send chain's post-serialization steps (eager transfer / RTS),
      which read the send segment's end;
    * a collective's completion, which reads ``max(arrivals)`` and the
      ranks' *current* frequencies at that instant — gear state is
      constant between ticks, and every pending deferral's time is
      provably past the last applied tick, so processing them before
      the next tick reads exactly the engine's gear state.

    Exact collisions the engine resolves by event-id order (a poll
    landing on a segment boundary or a rank resume time) raise
    :class:`StraightlineUnsupported`; callers fall back.
    """

    def __init__(self, compiled: CompiledProgram, cost, net_params,
                 power_params, nodes: list[_SNode], opoints,
                 controller, transition_latency_s: float = 20e-6) -> None:
        super().__init__(compiled, cost, net_params, power_params, nodes,
                         opoints=opoints, gear_actions=None,
                         transition_latency_s=transition_latency_s)
        interval = controller.interval_s
        if interval <= 0:
            raise StraightlineUnsupported("non-positive poll interval",
                                          reason="bad_controller")
        self.interval = interval
        # The event engine's daemon runtime builds its controllers the
        # same way (imported here: strategies sit above this tier).
        from repro.core.strategies.base import make_controllers

        try:
            self.ctrls, self.gctrl = make_controllers(
                controller, opoints, power_params, self.n
            )
        except ValueError as exc:
            raise StraightlineUnsupported(
                str(exc), reason="bad_controller"
            ) from exc
        observes = self.observes = controller.observes
        #: bound per-node hooks, hoisted out of the per-poll hot loop:
        #: ``step`` scatters setpoints directly; under a global
        #: reduction the per-node controllers are summarizers instead,
        #: their ``carry`` feeding the reduction's ``decide``.
        self._ctrl_steps = None
        self._ctrl_carries = None
        if self.ctrls is not None:
            try:
                if self.gctrl is None:
                    self._ctrl_steps = [c.step for c in self.ctrls]
                else:
                    self._ctrl_carries = [c.carry for c in self.ctrls]
            except AttributeError as exc:
                raise StraightlineUnsupported(
                    f"controller misses a required hook: {exc}",
                    reason="bad_controller",
                ) from exc
        #: Only a busy_seconds() read is a time-accounting touch on the
        #: engine CPU; cycle-counter and power reads are not, so their
        #: polls must *not* become histogram boundaries.
        self._tick_touch = observes == "busy"
        self._track_cycles = observes == "cycles"
        #: memoized node_power_w per (opoint index, activity key) for
        #: ``observes="power"`` sampling.
        self._pow_memo: dict[tuple, float] = {}
        #: applied poll/reduction ticks (``stats`` telemetry).
        self.reduction_ticks = 0
        self.horizon = interval
        self.max_index = opoints.max_index
        #: (send request id, its segment record) awaiting a final end.
        self._defer_sends: list[tuple[int, _SegRec]] = []
        #: collective slot sequence numbers awaiting final arrivals.
        self._defer_colls: list[int] = []
        self._last_rec: Optional[_SegRec] = None

    # -- segment records -----------------------------------------------
    def _run_seg(self, node: _SNode, t_req: float, cycles: float,
                 offchip: float, act: float, busy: float, mem: float,
                 nic: float) -> float:
        start = t_req if t_req > node.cpu_free else node.cpu_free
        stall = node.stall_until - start
        if stall < 0.0:
            stall = 0.0
        planned = stall + cycles / node.freq_hz + offchip
        end = start + planned
        seq = self._seq
        events = node.events
        ev_i = len(events)
        events.append((start, seq + 1, _EV_START, (act, busy, mem, nic)))
        events.append((end, seq + 2, _EV_END, None))
        self._seq = seq + 2
        node.cpu_free = end
        rec = _SegRec(t_req, start, end, planned, cycles, offchip,
                      ev_i, ev_i + 1)
        node.segs.append(rec)
        self._last_rec = rec
        return end

    # -- deferrable send chains ----------------------------------------
    def _run_send_chain(self, s_id: int, ft: float) -> None:
        self._dirty = True
        src = self.req_owner[s_id]
        nbytes = self.req_nbytes[s_id]
        node = self.nodes[src]
        # ft is strictly below the horizon (ranks only step there), so
        # the gear this ratio reads is the engine's at the same instant.
        ratio = node.freq_hz / self.fastest_hz
        self.wire[s_id] = self._p2p_wire_bytes(nbytes, ratio)
        sw_end = self._run_seg(
            node, ft, self._send_cycles(nbytes), 0.0, 1.0, 1.0, 0.0, 0.4
        )
        if sw_end >= self.horizon:
            # A tick may still retime this segment; the transfer/RTS
            # timings read its end, so they wait for finality.
            self._defer_sends.append((s_id, self._last_rec))
            return
        self._finish_send(s_id, sw_end)

    # (the transfer/RTS tail is the inherited ``_Executor._finish_send``)

    # -- deferrable collectives ----------------------------------------
    def _start_collective(self, r: _Rank) -> None:
        seq = r.iargs[r.pc]
        f = r.fargs[r.pc]
        wire = f[0]
        copy = f[1]
        node = r.node
        pack_end = self._run_seg(
            node, r.t,
            self.cost.collective_overhead_cycles
            + self.cost.pack_cycles_per_byte * copy,
            0.0, 1.0, 1.0, 0.4, 0.0,
        )
        rec = self._last_rec
        if r.spawn:
            self._flush(r)
        self._emit(node, pack_end, _EV_PUSH, self.comm_sig)
        rec.attached.append(len(node.events) - 1)
        slot = self.slots[seq]
        slot.arrivals[r.rank] = pack_end
        slot.wires[r.rank] = wire
        r.t = pack_end
        r.coll_seq = seq
        r.phase = "coll"
        if len(slot.arrivals) == self.n:
            if not self._finish_coll(seq, defer=True):
                self._defer_colls.append(seq)

    def _finish_coll(self, seq: int, defer: bool) -> bool:
        slot = self.slots[seq]
        all_at = max(slot.arrivals.values())
        if defer and all_at >= self.horizon:
            return False
        self._dirty = True
        # The engine's completing rank reads every rank's *current*
        # frequency at all_at; gear state is constant between ticks and
        # all_at lies past the last applied tick, so this read matches.
        ratio = max(nd.freq_hz for nd in self.nodes) / self.fastest_hz
        duration = self.cost.collective_seconds(
            self.c.coll_kinds[seq],
            self.coll_n,
            max(slot.wires.values()),
            self.net,
            freq_ratio=ratio,
            jitter_s=0.0,
        )
        slot.done_t = all_at + duration
        for rr in range(self.n):
            self._emit(self.nodes[rr], slot.done_t, _EV_POP, self.comm_sig)
        return True

    # -- the tick: observation + controller + retime -------------------
    def _apply_tick(self, t: float) -> None:
        """One poll: every node's daemon fires, in node (= rank) order.

        Per node, three fused stages (this loop is the tier's hot path
        — a sub-second-interval daemon spends most of the run here):

        1. *observation* — advance the node's sample to ``t``.  For
           ``"busy"`` samples (and the activity state ``"power"``
           samples read) this replays breakpoint events strictly
           before ``t`` in (time, seq) order, accumulating one
           ``busy += level * dt`` term per boundary with ``dt > 0`` —
           the grouping ``CpuCore._touch`` produces, whose touch
           points are exactly these events plus (for busy reads) the
           poll times themselves.  Due events are split off as tuples
           (nothing can patch them between here and consumption) while
           kept entries stay *indices* — those can still be retimed in
           place.  Plain tuple sort is (time, seq) order: seqs are
           unique, so comparison never reaches the payload.
           ``"cycles"`` samples need no replay at all — the counter is
           the lazy segment-commit sum (:meth:`_cycles_at`).
        2. the controller's transitions: a per-node ``step`` applies
           its setpoints immediately; under a global reduction the
           samples are gathered instead (through the summarizers'
           ``carry`` when present) and ``decide``'s setpoints are
           scattered after every node observed — both in node order,
           exactly the engine's daemon/coordinator callback order.
        3. ``scan`` skips past any GEARs this poll appended: they sit
           exactly at ``t`` with the busy cursor already there —
           zero-dt boundaries that move no wait-state, mattering only
           to finalize's meter cursor.  (Retimes patch in place, never
           append, so nothing else landed since stage 1.)

        Only a ``busy_seconds()`` poll is an accounting boundary for
        the time-at-MHz histogram (never a meter update) on *every*
        node at once — recorded once in the shared ``_ticks`` list
        rather than as per-node TOUCH events.  Cycle-counter and power
        reads touch nothing on the engine CPU, so their ticks stay out
        of the list and the histogram's float grouping matches.
        """
        nodes = self.nodes
        steps = self._ctrl_steps
        carries = self._ctrl_carries
        gctrl = self.gctrl
        max_index = self.max_index
        observes = self.observes
        samples: list = []
        for n_idx in range(self.n):
            node = nodes[n_idx]
            if observes == "cycles":
                sample = self._cycles_at(node, t)
            else:
                events = node.events
                n_ev = len(events)
                carry = node.carry
                if node.scan < n_ev:
                    carry.extend(range(node.scan, n_ev))
                    node.scan = n_ev
                t_last = node.busy_t
                level = node.busy_level
                acc = node.busy_acc
                if carry:
                    # Lazy split: most polls find nothing due (the
                    # crossing segment's end is the only pending
                    # entry), so probe before paying for the due/keep
                    # list build.
                    due = None
                    for i in carry:
                        if events[i][0] < t:
                            due = []
                            keep = []
                            for i2 in carry:
                                ev = events[i2]
                                if ev[0] < t:
                                    due.append(ev)
                                else:
                                    keep.append(i2)
                            break
                    if due:
                        node.carry = keep
                        due.sort()
                        active = node.b_active
                        stack = node.b_stack
                        for ev in due:
                            dt = ev[0] - t_last
                            if dt > 0:
                                acc += level * dt
                                t_last = ev[0]
                            kind = ev[2]
                            if kind == _EV_START:
                                active = ev[3]
                            elif kind == _EV_END:
                                active = None
                            elif kind == _EV_PUSH:
                                stack.append(ev[3])
                            elif kind == _EV_POP:
                                payload = ev[3]
                                for j in range(len(stack) - 1, -1, -1):
                                    if stack[j] == payload:
                                        del stack[j]
                                        break
                            # TOUCH/GEAR: accounting boundary only
                            if active is not None:
                                level = active[1]
                            elif stack:
                                level = stack[-1][1]
                            else:
                                level = 0.0
                        node.b_active = active
                        node.busy_level = level
                dt = t - t_last
                if dt > 0:
                    acc += level * dt
                    node.busy_acc = acc
                node.busy_t = t
                sample = acc if observes == "busy" else self._power_at(node, t)
            if gctrl is not None:
                if carries is not None:
                    sample = carries[n_idx](t, sample, node.index, max_index)
                samples.append(sample)
                continue
            for target in steps[n_idx](t, sample, node.index, max_index):
                if target == node.index:
                    continue  # set_speed_index no-op: no stall, no event
                self._set_speed_at_tick(n_idx, t, target)
                node.scan = len(node.events)
        if gctrl is not None:
            indices = [nd.index for nd in nodes]
            for n_idx, target in gctrl.decide(t, samples, indices):
                node = nodes[n_idx]
                if target == node.index:
                    continue  # set_speed_index no-op: no stall, no event
                self._set_speed_at_tick(n_idx, t, target)
                node.scan = len(node.events)
                indices[n_idx] = target  # every transition lands here
        if self._tick_touch:
            self._ticks.append(t)
        self.reduction_ticks += 1

    def _cycles_at(self, node: _SNode, t: float) -> float:
        """``CpuCore.cycles_retired_now()`` at the tick, lazily.

        ``stats.cycles_retired`` advances one boundary commit per
        completed segment; reproducing its float value means replaying
        those commits as the same chronological additions.  Completions
        strictly before the tick commit here (their ``cycles_left`` is
        final: retimes only move boundaries past the last applied
        tick); mid-segment retime commits interleave at the tick itself
        (:meth:`_retime_node`).  The crossing segment then contributes
        its in-flight share — elapsed over the stall-inclusive plan,
        exactly the live counter read.  A segment boundary exactly at
        the tick is an engine event-id tie (and a retimed plan's
        recomputed fraction need not be exactly 1.0), so it raises.
        """
        segs = node.segs
        k = node.cyc_lo
        n_segs = len(segs)
        acc = node.cyc_acc
        while k < n_segs:
            rec = segs[k]
            if rec.end >= t:
                break
            acc += rec.cycles_left
            k += 1
        node.cyc_lo = k
        node.cyc_acc = acc
        if k == n_segs:
            return acc
        rec = segs[k]
        if rec.end == t:
            raise StraightlineUnsupported(
                "segment boundary collides with poll tick",
                reason="poll_tick_collision",
            )
        if rec.start <= t and rec.planned > 0:
            elapsed = t - rec.scheduled_at
            frac = min(1.0, max(0.0, elapsed / rec.planned))
            acc = acc + rec.cycles_left * frac
        return acc

    def _power_at(self, node: _SNode, t: float) -> tuple:
        """``Node.power_w()`` at the tick, plus the activity key it
        used, as ``(power_w, dyn, mem, nic)``.

        The key derivation is finalize's meter formula over the busy
        replay's wait-state (the engine CPU's activity properties at
        the poll); the wattage is memoized per (operating point,
        activity key) — ``node_power_w`` is pure, so the cached float
        is the engine's fresh evaluation bit-for-bit.  Any breakpoint
        exactly at the tick leaves the activity state event-id-order
        ambiguous, so it raises (callers fall back).
        """
        events = node.events
        for i in node.carry:
            if events[i][0] == t:
                raise StraightlineUnsupported(
                    "activity boundary collides with poll tick",
                    reason="poll_tick_collision",
                )
        idle = self.power.cpu_idle_activity
        active = node.b_active
        if active is not None:
            key = (active[0], active[2], active[3])
        else:
            stack = node.b_stack
            if stack:
                top = stack[-1]
                dyn = top[0] if top[0] > idle else idle
                key = (dyn, top[2], top[3])
            else:
                key = (idle, 0.0, 0.0)
        memo_key = (node.index, key)
        p = self._pow_memo.get(memo_key)
        if p is None:
            p = self.power.node_power_w(node.opoint, key[0], key[1], key[2])
            self._pow_memo[memo_key] = p
        return (p, key[0], key[1], key[2])

    def _set_speed_at_tick(self, n_idx: int, t: float, target: int) -> None:
        """``CpuCore.set_speed_index`` for an actual change at a poll.

        The engine's order: account progress of the active segment,
        switch the gear, queue the transition stall, reschedule at the
        new frequency.  The progress fraction uses the segment's stale
        ``scheduled_at``/``planned``, so updating node state first is
        equivalent — the retime below reads only record fields.
        """
        node = self.nodes[n_idx]
        op = self.opoints[target]
        base = node.stall_until if node.stall_until > t else t
        node.stall_until = base + self.transition_latency_s
        node.index = target
        node.freq_hz = op.frequency_hz
        node.mhz = op.frequency_mhz
        node.opoint = op
        self.transitions += 1
        self._retime_node(n_idx, t)
        self._emit(node, t, _EV_GEAR, (op, op.frequency_mhz))

    def _retime_node(self, n_idx: int, t: float) -> None:
        node = self.nodes[n_idx]
        segs = node.segs
        k = node.seg_lo
        n_segs = len(segs)
        while k < n_segs and segs[k].end <= t:
            if segs[k].end == t:
                # The engine orders the completion vs. the poll by
                # event id; this tier cannot reproduce that tie.
                raise StraightlineUnsupported(
                    "segment boundary collides with poll tick",
                    reason="poll_tick_collision",
                )
            k += 1
        node.seg_lo = k
        if k == n_segs:
            return  # only the stall moved; future segments read it
        first = segs[k]
        if first.start == t:
            raise StraightlineUnsupported(
                "segment boundary collides with poll tick",
                reason="poll_tick_collision",
            )
        events = node.events
        r = self.ranks[n_idx]
        freq_hz = node.freq_hz
        stall_until = node.stall_until
        if first.start > t:
            # No crossing segment: the node's CPU is idle at the tick
            # (the rank is blocked — its next segment was pre-created
            # at a resolution time past the tick).  The engine creates
            # that work *after* the poll, pricing it with the new gear
            # and the poll's transition stall; the queued-segment
            # cascade below computes exactly that, so start it here.
            prev_end = t
        else:
            # The crossing segment: CpuCore._progress_active (shrink by
            # the elapsed fraction of the stale plan) +
            # _reschedule_active (new stall + remaining work at the new
            # clock).
            elapsed = t - first.scheduled_at
            if first.planned > 0:
                frac = elapsed / first.planned
                if frac > 1.0:
                    frac = 1.0
                elif frac < 0.0:
                    frac = 0.0
            else:
                frac = 1.0
            keep = 1.0 - frac
            if self._track_cycles:
                # CpuCore._progress_active commits the executed share
                # to the retired counter before shrinking.  Completions
                # before the tick were committed by this tick's
                # observation, so this addition lands in the engine's
                # chronological order.
                node.cyc_acc += first.cycles_left * frac
            first.cycles_left *= keep
            first.offchip_left *= keep
            stall = stall_until - t
            if stall < 0.0:
                stall = 0.0
            planned = stall + first.cycles_left / freq_hz + first.offchip_left
            first.scheduled_at = t
            first.planned = planned
            prev_end = t + planned
            self._move_end(node, r, first, prev_end, events)
            k += 1
        # Queued segments restart back-to-back at the new frequency —
        # each begins when its predecessor completes, or at its own
        # enqueue time if that lies later (a pre-created future
        # segment), exactly as the engine's completion->_start chain.
        for i in range(k, n_segs):
            q = segs[i]
            start = q.t_req if q.t_req > prev_end else prev_end
            stall = stall_until - start
            if stall < 0.0:
                stall = 0.0
            planned = stall + q.cycles_left / freq_hz + q.offchip_left
            ev = events[q.ev_start]
            events[q.ev_start] = (start, ev[1], ev[2], ev[3])
            q.start = start
            q.scheduled_at = start
            q.planned = planned
            prev_end = start + planned
            self._move_end(node, r, q, prev_end, events)
        node.cpu_free = prev_end

    def _move_end(self, node: _SNode, r: _Rank, rec: _SegRec,
                  new_end: float, events: list) -> None:
        """Rebind everything carrying a segment's old end time.

        Timestamps flow by assignment: the rank's resume time, a
        collective arrival, and pinned events all hold the *same float
        object* the segment's end produced, so identity comparison
        finds exactly the bindings to move — no value ambiguity.
        """
        old = rec.end
        rec.end = new_end
        ev = events[rec.ev_end]
        events[rec.ev_end] = (new_end, ev[1], ev[2], ev[3])
        for i in rec.attached:
            ev = events[i]
            events[i] = (new_end, ev[1], ev[2], ev[3])
        if r.t is old:
            r.t = new_end
        if r.phase == "coll":
            slot = self.slots[r.coll_seq]
            if slot.arrivals.get(r.rank) is old:
                slot.arrivals[r.rank] = new_end

    # -- the barrier-aware worklist ------------------------------------
    def _process_due(self) -> bool:
        """Finalize deferred timings whose inputs became final."""
        horizon = self.horizon
        due: list[tuple[float, int, int]] = []
        if self._defer_sends:
            keep = []
            for item in self._defer_sends:
                end = item[1].end
                if end < horizon:
                    due.append((end, 0, item[0]))
                else:
                    keep.append(item)
            self._defer_sends = keep
        if self._defer_colls:
            keep_c = []
            for seq in self._defer_colls:
                all_at = max(self.slots[seq].arrivals.values())
                if all_at < horizon:
                    due.append((all_at, 1, seq))
                else:
                    keep_c.append(seq)
            self._defer_colls = keep_c
        if not due:
            return False
        # Chronological finalization keeps channel grants FIFO.
        due.sort()
        for end, kind, ident in due:
            if kind == 0:
                self._finish_send(ident, end)
            else:
                self._finish_coll(ident, defer=False)
        return True

    def run(self) -> float:
        ranks = self.ranks
        done_t = self.done_t
        slots = self.slots
        step = self._step
        while True:
            best = None
            best_nt = 0.0
            second = None
            second_nt = 0.0
            all_done = True
            any_resolvable = False
            for r in ranks:
                phase = r.phase
                if phase == "done":
                    continue
                all_done = False
                if phase == "op":
                    nt = r.t
                elif phase == "wait":
                    nt = done_t[r.wait_req]
                else:  # coll
                    nt = slots[r.coll_seq].done_t
                if nt is None:
                    continue
                any_resolvable = True
                if best is None or nt < best_nt:
                    best, best_nt, second, second_nt = r, nt, best, best_nt
                elif second is None or nt < second_nt:
                    second, second_nt = r, nt
            if all_done:
                break
            horizon = self.horizon
            if best is not None and best_nt < horizon:
                # Burst below both the runner-up and the horizon: the
                # parent's exactness argument, with the tick as one
                # more stale bound that only this rank's step can't
                # move.
                while True:
                    self._dirty = False
                    step(best)
                    if self._dirty or best.phase != "op":
                        break
                    nt = best.t
                    if nt >= horizon:
                        break
                    if second is None:
                        continue
                    if nt < second_nt or (
                        nt == second_nt and best.rank < second.rank
                    ):
                        continue
                    break
                continue
            if best is not None and best_nt == horizon:
                # Engine event-id order decides poll-vs-resume; bail.
                raise StraightlineUnsupported(
                    "rank event collides with poll tick",
                    reason="poll_tick_collision",
                )
            if self._process_due():
                continue
            if not (any_resolvable or self._defer_sends or self._defer_colls):
                raise StraightlineUnsupported(
                    "no runnable rank (program deadlock?)", reason="deadlock"
                )
            snap = self.transitions
            self._apply_tick(horizon)
            horizon += self.interval
            self.horizon = horizon
            # Steady-state burst: a tick that issued no transition
            # leaves every rank bound and deferred record untouched, so
            # the rescan above would reproduce this snapshot verbatim —
            # keep polling while the next tick stays strictly below the
            # earliest pending rank.  Exit on a transition (retimes make
            # ``best_nt`` stale), on ``horizon >= best_nt`` (the rescan
            # then bursts the rank or raises on the exact tie), or when
            # deferral records exist (their dues interleave with ticks).
            if (best is not None and self.transitions == snap
                    and not self._defer_sends and not self._defer_colls):
                interval = self.interval
                while horizon < best_nt:
                    self._apply_tick(horizon)
                    horizon += interval
                    self.horizon = horizon
                    if self.transitions != snap:
                        break
        t_end = max(r.finish for r in ranks)
        # Ticks strictly before t_end were all applied (every finish is
        # set below the then-current horizon, and ticks only fire below
        # a blocked rank's pending time).  Deferred send chains the job
        # outlived still finalize — the engine runs their truncated
        # procs up to t_end; anything they place later is dropped by
        # finalize, like the engine's unprocessed heap tail.
        if self._defer_sends:
            self._defer_sends.sort(key=lambda item: item[1].end)
            for s_id, rec in self._defer_sends:
                self._finish_send(s_id, rec.end)
            self._defer_sends = []
        return t_end


# ----------------------------------------------------------------------
# the public runners
# ----------------------------------------------------------------------
def run_straightline(
    workload,
    strategy=None,
    seed: int = 0,
    network_params=None,
    power=None,
    opoints=None,
    transition_latency_s: float = 20e-6,
    stats=None,
    trace: bool = False,
):
    """Measure a static- or piecewise-static-gear run on this tier.

    No cluster is built: the post-setup node state the event engine
    would reach is derived directly from the strategy's
    :meth:`~repro.core.strategies.base.Strategy.gear_plan` (the fresh
    CPU parks at the fastest point; a t=0 speed call to a different
    point leaves one transition stall behind), then the plan's
    remaining calls are lowered onto the program's hook markers and
    evaluated directly.  Raises
    :class:`~repro.workloads.compile.CompileError` or
    :class:`StraightlineUnsupported` when the run needs the event
    engine; :func:`try_run_straightline` converts those into ``None``.

    Gear-plan runs execute on the quotient program — one interpreter
    rank per execution group (see :func:`_vector_partition`) — so
    interpretation cost scales with distinct rank groups, not ranks.
    When nothing compresses or the channel classifier declines, the
    partition is the identity (one rank per group), which is exact by
    construction.

    ``trace=True`` attaches the :class:`~repro.trace.events.TraceLog`
    the event engine would record (see its docstring for the order
    contract).  Only a static plan (:attr:`GearPlan.static`: no in-run
    DVS call) traces here, always on the identity partition so each
    rank records its own events; any other traced run raises with
    ``reason="trace_unsupported"``.

    ``stats``, when a dict, receives tier telemetry:
    ``reduction_ticks`` (poll/reduction ticks of a stateful-controller
    run); for gear-plan runs ``fallback_reason`` (the code for why the
    run fell to the identity partition, else ``None``; ``None`` on a
    traced run) and ``groups`` (execution group count; = nprocs on the
    identity).
    """
    import numpy as np

    from repro.core.strategies.base import NoDvsStrategy
    from repro.hardware.network import NetworkParameters
    from repro.hardware.opoints import PENTIUM_M_TABLE
    from repro.hardware.power import NEMO_POWER

    strategy = strategy or NoDvsStrategy()
    plan = strategy.gear_plan(workload)
    controller = None
    if plan is None:
        controller = strategy.controller()
        if controller is None:
            raise StraightlineUnsupported(
                "strategy has no static gear plan (dynamic DVS)",
                reason="no_plan",
            )
    if trace and (controller is not None or not plan.static):
        raise StraightlineUnsupported(
            "traced run with in-run DVS calls or a daemon",
            reason="trace_unsupported",
        )
    power = NEMO_POWER if power is None else power
    opoints = PENTIUM_M_TABLE if opoints is None else opoints
    net = network_params if network_params is not None else NetworkParameters()

    compiled = compile_workload(workload, opoints.fastest.frequency_hz)
    max_idx = opoints.max_index
    if controller is not None:
        # Most daemon strategies perform no setup-time speed calls:
        # every node starts at the cluster default (the fastest point)
        # and the first poll lands one interval in.  A controller with
        # a ``start_index`` hook (the power-cap pre-shed) starts every
        # node at that index, as ``Strategy.setup`` does: same state as
        # the gear-plan path's t=0 speed call — one pending transition
        # stall, setup transitions excluded from the count, finalize
        # integrating from the shed point.
        start_idx = max_idx
        if controller.start_index is not None:
            start_idx = controller.start_index(opoints, power, workload.nprocs)
            if not 0 <= start_idx <= max_idx:
                raise StraightlineUnsupported(
                    f"controller start index {start_idx} out of range",
                    reason="bad_controller",
                )
        op = opoints[start_idx]
        stall = transition_latency_s if start_idx != max_idx else 0.0
        snodes = [
            _SNode(op.frequency_hz, op.frequency_mhz, op, stall, start_idx)
            for _ in range(workload.nprocs)
        ]
        ex = _SampledExecutor(
            compiled, workload.cost_model(), net, power, snodes,
            opoints=opoints, controller=controller,
            transition_latency_s=transition_latency_s,
        )
        t_end = ex.run()
        energies, hists = ex.finalize(t_end)
        if stats is not None:
            stats["reduction_ticks"] = ex.reduction_ticks
        return _measurement(
            workload, strategy, t_end, np.array(energies), _fold_hists(hists),
            ex.transitions,
        )

    lowered = _lower_gear_actions(compiled, plan, opoints)
    log = None
    if trace:
        from repro.trace.events import TraceLog

        log = TraceLog()
    measurement, fallback_reason, groups = _run_plan(
        workload, strategy, compiled, lowered, net, power, opoints,
        transition_latency_s, trace=log,
    )
    if stats is not None:
        stats["fallback_reason"] = fallback_reason
        stats["groups"] = groups
    return measurement


def _fold_hists(hists) -> dict:
    """Merge per-node histograms in node-id order: one addition per
    (node, mhz) pair, same as summing CpuStats.time_at_mhz over nodes."""
    time_at: dict[float, float] = {}
    for hist in hists:
        for mhz, secs in hist.items():
            time_at[mhz] = time_at.get(mhz, 0.0) + secs
    return time_at


def _start_nodes(opoints, start_idx, transition_latency_s) -> list[_Node]:
    """Post-setup node states: a setup speed call away from the fastest
    point leaves one transition stall pending."""
    nodes = []
    for idx in start_idx:
        op = opoints[idx]
        stall = transition_latency_s if idx != opoints.max_index else 0.0
        nodes.append(_Node(op.frequency_hz, op.frequency_mhz, op, stall, idx))
    return nodes


def _measurement(workload, strategy, elapsed_s, energies, time_at,
                 transitions, trace=None):
    """The tier's :class:`Measurement` of one run.

    ``energies`` is the (N,) per-node energy column; ``energy_j`` sums
    its values in node-id order, the chain the event engine's
    ``sum(per_node.values())`` evaluates.
    """
    from repro.core.framework import Measurement

    per_node = dict(enumerate(energies.tolist()))
    return Measurement(
        workload=workload.tag,
        strategy=strategy.describe(),
        elapsed_s=float(elapsed_s),
        energy_j=sum(per_node.values()),
        per_node_energy_j=per_node,
        dvs_transitions=int(transitions),
        time_at_mhz=time_at,
        acpi_energy_j=None,
        baytech_energy_j=None,
        trace=trace,
        report=None,
        extras={},
    )


def try_run_straightline(
    workload,
    strategy=None,
    seed: int = 0,
    network_params=None,
    power=None,
    opoints=None,
    transition_latency_s: float = 20e-6,
    stats=None,
    trace: bool = False,
):
    """Like :func:`run_straightline` but returns ``None`` on fallback.

    On a decline, ``stats`` (when given) records the telemetry code
    under ``"fallback_reason"`` — the exception's ``reason`` for
    :class:`StraightlineUnsupported`, ``"compile_error"`` for programs
    the compiler rejects.
    """
    try:
        return run_straightline(
            workload,
            strategy,
            seed=seed,
            network_params=network_params,
            power=power,
            opoints=opoints,
            transition_latency_s=transition_latency_s,
            stats=stats,
            trace=trace,
        )
    except _DECLINES as exc:
        if stats is not None:
            stats["fallback_reason"] = _decline_reason(exc)
        return None


# ----------------------------------------------------------------------
# quotient execution: one interpreter rank per execution group
# ----------------------------------------------------------------------
#: compiled program -> {execution partition: quotient CompiledProgram},
#: LRU-bounded at ``MEMO_CAP`` per program.  A quotient program holds
#: one representative rank per execution group and shares every body
#: array with the original: a handful of small objects per partition.
_QUOTIENT_CACHE: WeakKeyDictionary = WeakKeyDictionary()


def _vector_partition(compiled: CompiledProgram, rank_keys):
    """Execution groups: body groups refined by per-rank gear state.

    Two ranks may share one interpreter rank only when they share a
    program body *and* identical gear state at every instant of the run
    — ``rank_keys[rank]`` must capture the post-setup operating point
    and the lowered gear actions (:meth:`_LoweredPlan.labels`).
    Returns ``((exec_of, members), reason)`` with group ids in
    first-rank order.  ``reason`` is ``None`` when the partition
    compresses and is exact; otherwise the partition is the identity
    (one rank per group, exact by construction) and ``reason`` says
    why: the refinement left nothing to share (``no_compression``), or
    the program's point-to-point traffic does not classify into exact
    group-level channel classes (the classifier's ``p2p_*`` code — see
    :func:`repro.workloads.compile.classify_channels`).
    """
    sig_to_exec: dict = {}
    exec_of: list[int] = []
    members: list[list[int]] = []
    for r, sig in enumerate(zip(compiled.group_of.tolist(), rank_keys)):
        e = sig_to_exec.get(sig)
        if e is None:
            e = sig_to_exec[sig] = len(members)
            members.append([])
        exec_of.append(e)
        members[e].append(r)
    if len(members) == compiled.nprocs:
        return (exec_of, members), "no_compression"  # already the identity
    if compiled.n_requests:
        verdict = classify_channels(compiled, exec_of, members)
        if not verdict.exact:
            n = compiled.nprocs
            return (list(range(n)), [[r] for r in range(n)]), verdict.reason
    return (exec_of, members), None


def _quotient_program(compiled: CompiledProgram, exec_of: list[int],
                      members: list[list[int]]) -> CompiledProgram:
    """A ``CompiledProgram`` over one representative rank per group.

    Shares the representatives' body arrays by reference; only the tiny
    per-rank index vectors are new.  Collective call-site seqs are
    global already, so every representative arrives at the same slots
    the full program would.

    When the program carries point-to-point traffic (admitted only
    after :func:`repro.workloads.compile.classify_channels` certified
    the partition), the request table is *remapped*: the quotient keeps
    each representative's request rows, re-bases them contiguously, and
    rewrites peers to the peer's execution group — sound because every
    lane holds one member per group, so "the peer's group's rank" in
    the quotient plays exactly the peer's role in the representative's
    lane, and matched requests sit at the same rank-local index in
    every lane.

    The identity partition (one rank per group) returns ``compiled``
    itself: the remap would rebuild identical tables.
    """
    import numpy as np

    if len(members) == compiled.nprocs:
        return compiled
    per_prog = _QUOTIENT_CACHE.setdefault(compiled, {})
    key = tuple(exec_of)
    q = lru_get(per_prog, key)
    if q is None:
        reps = [m[0] for m in members]
        G = len(reps)
        if compiled.n_requests:
            base = compiled.req_base
            counts = np.diff(base, append=compiled.n_requests)
            rep_counts = counts[reps]
            new_base = np.zeros(G, dtype=np.int64)
            np.cumsum(rep_counts[:-1], out=new_base[1:])
            sel = (
                np.concatenate(
                    [
                        np.arange(base[r], base[r] + counts[r])
                        for r in reps
                    ]
                )
                if int(rep_counts.sum())
                else np.zeros(0, dtype=np.int64)
            )
            eo = np.asarray(exec_of, dtype=np.int64)
            peers = compiled.req_peer[sel]
            req_rows = dict(
                req_kind=compiled.req_kind[sel],
                req_owner=np.repeat(np.arange(G, dtype=np.int64),
                                    rep_counts),
                req_peer=eo[peers],
                req_tag=compiled.req_tag[sel],
                req_nbytes=compiled.req_nbytes[sel],
                req_eager=compiled.req_eager[sel],
                req_match=(
                    new_base[eo[peers]]
                    + (compiled.req_match[sel] - base[peers])
                ),
            )
        else:
            new_base = np.zeros(G, dtype=np.int64)
            req_rows = dict(
                req_kind=compiled.req_kind,
                req_owner=compiled.req_owner,
                req_peer=compiled.req_peer,
                req_tag=compiled.req_tag,
                req_nbytes=compiled.req_nbytes,
                req_eager=compiled.req_eager,
                req_match=compiled.req_match,
            )
        q = CompiledProgram(
            nprocs=G,
            fastest_hz=compiled.fastest_hz,
            ops=[compiled.ops[r] for r in reps],
            iargs=[compiled.iargs[r] for r in reps],
            fargs=[compiled.fargs[r] for r in reps],
            coll_kinds=compiled.coll_kinds,
            markers=tuple(compiled.markers[r] for r in reps),
            req_base=new_base,
            group_of=np.arange(G, dtype=np.int64),
            group_members=tuple(
                np.array([g], dtype=np.int64) for g in range(G)
            ),
            **req_rows,
        )
        lru_put(per_prog, key, q)
    return q


def _merge_hists_nodewise(nprocs: int, members: list[list[int]],
                          hists_g: list[dict]) -> dict:
    """Node-order merge of per-group histograms into one ``time_at``.

    Replicates the scalar tail's fold — ``time_at[mhz] += hists[nid]
    [mhz]`` for ``nid`` in id order — as one ``np.cumsum`` over an
    (N,) node-order vector per distinct MHz key.  Exact: ``cumsum`` is
    the same left-to-right sequential addition chain, and the zeros
    standing in for nodes without the key add exactly ``+0.0`` (every
    recorded duration is positive, so no ``-0.0`` can flip sign).
    """
    import numpy as np

    keys: list = []
    seen: set = set()
    for h in hists_g:
        for m in h:
            if m not in seen:
                seen.add(m)
                keys.append(m)
    time_at: dict = {}
    for m in keys:
        v = np.zeros(nprocs)
        for g, mem in enumerate(members):
            s = hists_g[g].get(m)
            if s is not None:
                v[mem] = s
        time_at[m] = float(np.cumsum(v)[-1])
    return time_at


def _run_grouped(compiled: CompiledProgram, part: tuple, cost, net, power,
                 opoints, actions: _LoweredPlan, transition_latency_s: float,
                 trace=None, deadline_s: Optional[float] = None):
    """Evaluate a static/piecewise-static run on the quotient program.

    ``part`` is the ``(exec_of, members)`` execution partition.
    Interprets one representative rank per execution group (``coll_n``
    keeps collective durations modelling the full N-rank communicator)
    and broadcasts the per-group results over the member nodes with
    numpy fancy indexing.  Exactness: ranks in one execution group
    compute identical float chains — the only cross-rank couplings are
    collective completions and classified channel lanes, and ``max``
    over the distinct per-group values equals ``max`` over the full
    rank set bit-for-bit (the result is always an operand).

    ``trace``, a :class:`~repro.trace.events.TraceLog`, records every
    interpreted rank's events; pass it only with the identity partition.

    Returns ``(t_end, e_nodes, time_at, transitions)`` with ``e_nodes``
    an (N,) array of per-node energies, or ``None`` when the run ends
    past ``deadline_s``: nothing is integrated then.
    """
    import numpy as np

    exec_of, members = part
    reps = [m[0] for m in members]
    start_idx = actions.start()
    nodes = _start_nodes(opoints, [start_idx[r] for r in reps],
                         transition_latency_s)
    ex = _Executor(
        _quotient_program(compiled, exec_of, members), cost, net, power,
        nodes, opoints=opoints, gear_actions=[actions[r] for r in reps],
        transition_latency_s=transition_latency_s, coll_n=compiled.nprocs,
        trace=trace,
    )
    t_end = ex.run()
    if deadline_s is not None and t_end > deadline_s:
        return None
    energies_g, hists_g = ex.finalize(t_end)
    # Each group's transitions count once per member node.
    transitions = sum(len(m) * nd.gears for m, nd in zip(members, ex.nodes))
    e_nodes = np.array(energies_g)[exec_of]
    time_at = _merge_hists_nodewise(compiled.nprocs, members, hists_g)
    return t_end, e_nodes, time_at, transitions


def _run_plan(workload, strategy, compiled: CompiledProgram,
              lowered: _LoweredPlan, net, power, opoints,
              transition_latency_s: float, trace=None,
              deadline_s: Optional[float] = None):
    """Measure one lowered gear plan on its quotient program.

    The one per-plan path of :func:`run_straightline` and
    :func:`run_batch`.  Returns ``(measurement, reason, groups)``:
    ``reason`` is the partition's decline code (``None`` when it
    compresses exactly, else why the run fell to the identity) and
    ``groups`` the execution group count (= nprocs on the identity).
    ``measurement`` is ``None`` when the run ends past ``deadline_s``.
    A traced run (``trace`` a :class:`~repro.trace.events.TraceLog`)
    skips the partition and runs on the identity with ``reason``
    ``None``: every rank then records its own events.  Raises
    :class:`StraightlineUnsupported` when the interpreter hits an
    ordering it cannot reproduce.
    """
    if trace is None:
        part, reason = _vector_partition(compiled, lowered.labels())
    else:
        n = compiled.nprocs
        part, reason = (list(range(n)), [[r] for r in range(n)]), None
    run = _run_grouped(
        compiled, part, workload.cost_model(), net, power, opoints, lowered,
        transition_latency_s, trace=trace, deadline_s=deadline_s,
    )
    if run is None:
        return None, reason, len(part[1])
    t_end, e_nodes, time_at, transitions = run
    measurement = _measurement(workload, strategy, t_end, e_nodes, time_at,
                               transitions, trace=trace)
    return measurement, reason, len(part[1])


def run_batch(
    workload,
    points,
    *,
    network_params=None,
    power=None,
    opoints=None,
    transition_latency_s: float = 20e-6,
    stats: Optional[dict] = None,
    deadline_s: Optional[float] = None,
):
    """Measure many ``(strategy, seed)`` points of one workload at once.

    Returns one :class:`Measurement` per point, in input order, each
    bit-for-bit equal to what the event engine produces for that point.
    The workload compiles once per call.  The seed cannot influence a
    straightline-eligible run (no fault injection, no jitter — nothing
    draws randomness), so points with equal gear plans are simulated
    once: only the first point with a given plan is lowered and run,
    and every later one gets its own copy of that result (its own
    dicts, its own ``strategy.describe()``).

    Each distinct plan runs once on its quotient program — one
    interpreter rank per execution group (see :func:`_vector_partition`)
    — through the same per-plan path as :func:`run_straightline`, using
    the plan this call already lowered.  When the partition does not
    compress or the classifier declines its point-to-point traffic (see
    :func:`repro.workloads.compile.classify_channels`), the partition
    is the identity (G = N), exact by construction.

    This is the one place a straightline decline is handled.  A point
    is declined when compiling the workload, lowering its plan, a
    missing plan (dynamic strategy) or its run raises
    :class:`StraightlineUnsupported` or
    :class:`~repro.workloads.compile.CompileError`; it then runs once
    on ``run_workload(..., engine="event")`` with this call's
    configuration and its own seed — a point sharing the declined
    point's plan too, since event-engine results may depend on the
    seed.  A decline never raises; a genuine error of the event engine
    does.

    ``deadline_s``, when given, is a cap on elapsed time for the
    callers that only rank plans within it: a plan whose straightline
    run ends past it (``t_end > deadline_s``) comes back as ``None`` for
    every point holding it, and its energy is never integrated.  A
    declined point still runs on the event engine and is measured in
    full.  The deadline changes no other result and no ``stats`` count.

    ``stats``, when given, accumulates tier telemetry: points measured
    per tier (``quotient_points`` / ``event_points``; a duplicate
    counts under the tier that served its plan's first point, so they
    sum to ``len(points)``), and a ``fallback_reasons`` histogram with
    one code per declined point and per distinct plan that ran on the
    identity partition.
    """
    from repro.core.strategies.base import NoDvsStrategy
    from repro.hardware.network import NetworkParameters
    from repro.hardware.opoints import PENTIUM_M_TABLE
    from repro.hardware.power import NEMO_POWER

    power = NEMO_POWER if power is None else power
    opoints = PENTIUM_M_TABLE if opoints is None else opoints
    net = network_params if network_params is not None else NetworkParameters()
    points = [(s or NoDvsStrategy(), seed) for s, seed in points]
    results: list = [None] * len(points)

    def _note(key: str) -> None:
        if stats is not None:
            stats[key] = stats.get(key, 0) + 1

    def _note_reason(reason: Optional[str]) -> None:
        if stats is not None and reason:
            hist = stats.setdefault("fallback_reasons", {})
            hist[reason] = hist.get(reason, 0) + 1

    def decline(i: int, exc: Exception) -> None:
        from repro.core.framework import run_workload

        _note("event_points")
        _note_reason(_decline_reason(exc))
        strat, seed = points[i]
        results[i] = run_workload(
            workload, strat, seed=seed, network_params=network_params,
            power=power, opoints=opoints,
            transition_latency_s=transition_latency_s, engine="event",
        )

    if not points:
        return results
    try:
        compiled = compile_workload(workload, opoints.fastest.frequency_hz)
    except CompileError as exc:
        for i in range(len(points)):
            decline(i, exc)
        return results

    # Per plan: its points in input order, and the first one's result
    # or decline.
    same_plan: dict = {}
    outcome: dict = {}
    for i, (strat, _seed) in enumerate(points):
        try:
            plan = strat.gear_plan(workload)
            if plan is None:
                raise StraightlineUnsupported(
                    "strategy has no static gear plan (dynamic DVS)",
                    reason="no_plan",
                )
        except _DECLINES as exc:
            decline(i, exc)
            continue
        holders = same_plan.setdefault(plan, [])
        holders.append(i)
        if len(holders) > 1:
            continue
        try:
            lowered = _lower_gear_actions(compiled, plan, opoints)
            m, reason, _groups = _run_plan(
                workload, strat, compiled, lowered, net, power, opoints,
                transition_latency_s, deadline_s=deadline_s,
            )
        except _DECLINES as exc:
            outcome[plan] = exc
            decline(i, exc)
            continue
        outcome[plan] = results[i] = m
        _note("quotient_points")
        _note_reason(reason)

    for plan, (_first, *later) in same_plan.items():
        m = outcome[plan]
        for i in later:
            if isinstance(m, Exception):
                decline(i, m)
                continue
            if m is not None:  # None: the plan ran past the deadline
                results[i] = dataclasses.replace(
                    m, strategy=points[i][0].describe(),
                    per_node_energy_j=dict(m.per_node_energy_j),
                    time_at_mhz=dict(m.time_at_mhz), extras=dict(m.extras),
                )
            _note("quotient_points")
    return results
