"""Phase-program compiler: lower rank programs to flat numpy arrays.

The straightline executor (:mod:`repro.sim.straightline`) evaluates
static-gear runs without an event heap.  To do that it needs each
rank's program as *data* rather than as a generator: a flat list of
operations (compute segments, message sends/receives, waits,
collectives) with every byte count and cycle count resolved.

:func:`compile_workload` produces that form by running the workload's
rank programs against a :class:`_RecordingContext` — an object with the
same surface as :class:`repro.mpi.communicator.RankContext` that records
operations instead of simulating them.  Because rank programs are
deterministic functions of ``(rank, size)`` (anything else — reading
``ctx.env``, wildcard receives, DVS calls — raises
:class:`CompileError`), the recording is exact.

Compilation also performs the matching the event engine does at run
time, statically:

* point-to-point messages are matched FIFO per ``(src, dst, tag)``
  channel (the engine's mailbox preserves per-channel order because
  both the CPU's segment queue and the per-node network channels are
  FIFO);
* collective call sites are checked for identical kind and count on
  every rank (a mismatch would deadlock or raise in the engine, so the
  compiler refuses and the caller falls back).

Anything the recorder cannot prove static raises :class:`CompileError`;
``run_workload`` then falls back to the event engine, which remains the
arbiter of genuinely invalid programs.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Generator, Optional, Sequence

import numpy as np

from repro.mpi.communicator import ANY_SOURCE, ANY_TAG
from repro.mpi.costmodel import CostModel
from repro.workloads.base import PhaseHooks, Workload

__all__ = [
    "ChannelClass",
    "ChannelClassification",
    "classify_channels",
    "CompileError",
    "CompiledProgram",
    "compile_workload",
    "OP_COMPUTE",
    "OP_IDLE",
    "OP_ISEND",
    "OP_IRECV",
    "OP_WAIT",
    "OP_COLLECTIVE",
]


class CompileError(RuntimeError):
    """The program cannot be lowered to straightline form.

    Raised for constructs whose behaviour depends on simulation state
    (DVS calls, ``waitany``, wildcard receives) or for programs whose
    static matching fails (unmatched sends, mismatched collectives).
    The caller is expected to fall back to the event engine.
    """


# Operation codes (one row per op in the per-rank arrays).
OP_COMPUTE = 0  #: f = (cycles, offchip_s, activity, busy, mem, nic)
OP_IDLE = 1  #: f0 = seconds
OP_ISEND = 2  #: i0 = request id
OP_IRECV = 3  #: i0 = request id
OP_WAIT = 4  #: i0 = request id; f0 = 1.0 for a blocking send()/recv()
OP_COLLECTIVE = 5  #: i0 = call-site seq; f0 = wire bytes, f1 = copy bytes

#: request-kind codes in the request table.
REQ_SEND = 0
REQ_RECV = 1


class _RecordedMessage:
    """Static stand-in for :class:`repro.mpi.communicator.Message`."""

    __slots__ = ("src", "dst", "tag", "nbytes", "eager")

    def __init__(self, src: int, dst: int, tag: int, nbytes: float, eager: bool) -> None:
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.eager = eager


class _RecordedRequest:
    """Static stand-in for :class:`repro.mpi.communicator.Request`.

    Only :meth:`_RecordingContext.isend`/``irecv`` create these (user
    programs hold and wait on them); the request table itself is the
    recorder's columns.  ``local`` is the rank-local request index.
    """

    __slots__ = ("owner", "local", "kind", "peer", "tag", "nbytes", "message")

    def __init__(self, owner: int, local: int, kind: str, peer: int, tag: int,
                 nbytes: float, message: Optional[_RecordedMessage] = None) -> None:
        self.owner = owner
        self.local = local
        self.kind = kind
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.message = message


class _RecordingContext:
    """RankContext look-alike that records operations.

    Mirrors every argument validation and byte/cycle formula of the
    real context so that a program which would raise there raises here
    (wrapped as :class:`CompileError` by the compiler, which falls back
    to the event engine to surface the genuine error).
    """

    def __init__(
        self,
        recorder: "_Recorder",
        rank: int,
        size: int,
        cost: CostModel,
        fastest_hz: float,
    ) -> None:
        self._recorder = recorder
        self.rank = rank
        self.size = size
        self._cost = cost
        self._fastest_hz = fastest_hz
        self._ops: list[tuple] = []
        #: hook sites ``(op position, kind, phase)``, see :class:`_MarkerHooks`
        self._markers: list[tuple[int, str, str]] = []
        #: collective kinds in call-site order (the op stores the seq)
        self._coll_kinds: list[str] = []
        # Ranks record sequentially, so this rank's requests occupy the
        # contiguous global id block starting here.  The ops stream
        # stores *rank-local* request indices (global = base + local):
        # symmetric ranks then record byte-identical op streams and can
        # share one packed program body.
        self._req_base = len(recorder.req_kind)
        # The real context exposes these counters; static programs may
        # read (never usefully write) them.
        self.dvs_calls = 0
        self.dvs_retries = 0

    # -- simulation-state accessors are not static -----------------------
    @property
    def env(self):
        raise CompileError("program reads ctx.env (simulation state)")

    @property
    def cpu(self):
        raise CompileError("program reads ctx.cpu (simulation state)")

    @property
    def node(self):
        raise CompileError("program reads ctx.node (simulation state)")

    @property
    def comm(self):
        raise CompileError("program reads ctx.comm (simulation state)")

    # ------------------------------------------------------------------
    # compute / idle
    # ------------------------------------------------------------------
    def compute(
        self,
        seconds: Optional[float] = None,
        cycles: Optional[float] = None,
        offchip_seconds: float = 0.0,
        mem_activity: float = 0.3,
        activity: float = 1.0,
        busy: float = 1.0,
    ) -> Generator:
        if (seconds is None) == (cycles is None):
            raise ValueError("specify exactly one of seconds= or cycles=")
        if cycles is None:
            cycles = seconds * self._fastest_hz
        if cycles < 0 or offchip_seconds < 0:
            raise ValueError("work amounts must be non-negative")
        self._ops.append(
            (OP_COMPUTE, 0,
             (float(cycles), float(offchip_seconds), float(activity),
              float(busy), float(mem_activity), 0.0))
        )
        return
        yield  # pragma: no cover - makes this a generator

    def idle(self, seconds: float) -> Generator:
        if seconds < 0:
            raise ValueError("cannot idle for a negative duration")
        self._ops.append((OP_IDLE, 0, (float(seconds), 0.0, 0.0, 0.0, 0.0, 0.0)))
        return
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # DVS control — inherently dynamic
    # ------------------------------------------------------------------
    def set_cpuspeed(self, mhz: float) -> None:
        raise CompileError("program performs DVS actuation (set_cpuspeed)")

    def set_cpuspeed_index(self, index: int) -> None:
        raise CompileError("program performs DVS actuation (set_cpuspeed_index)")

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def _check_send(self, dst: int, nbytes: float) -> None:
        if not 0 <= dst < self.size:
            raise ValueError(f"destination rank {dst} out of range")
        if nbytes < 0:
            raise ValueError("message size must be non-negative")

    def _check_recv(self, src: int, tag: int) -> None:
        if src == ANY_SOURCE:
            raise CompileError("wildcard receive (ANY_SOURCE) is not static")
        if tag == ANY_TAG:
            raise CompileError("wildcard receive (ANY_TAG) is not static")
        if not 0 <= src < self.size:
            raise ValueError(f"source rank {src} out of range")

    def isend(self, dst: int, nbytes: float, tag: int = 0) -> _RecordedRequest:
        self._check_send(dst, nbytes)
        eager = self._cost.is_eager(nbytes)
        nbytes = float(nbytes)
        local = self._recorder.add(REQ_SEND, self.rank, dst, tag, nbytes, eager) - self._req_base
        self._ops.append((OP_ISEND, local, _NO_F))
        return _RecordedRequest(self.rank, local, "send", dst, tag, nbytes,
                                _RecordedMessage(self.rank, dst, tag, nbytes, eager))

    def irecv(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG, nbytes_hint: float = 0.0
    ) -> _RecordedRequest:
        self._check_recv(src, tag)
        nbytes = float(nbytes_hint)
        local = self._recorder.add(REQ_RECV, self.rank, src, tag, nbytes, False) - self._req_base
        self._ops.append((OP_IRECV, local, _NO_F))
        return _RecordedRequest(self.rank, local, "recv", src, tag, nbytes)

    def wait(self, request: _RecordedRequest, _op: Optional[str] = None) -> Generator:
        if not isinstance(request, _RecordedRequest):
            raise CompileError("wait() on a foreign request object")
        if request.owner != self.rank:
            # A rank-local index cannot address another rank's request;
            # the event engine surfaces the genuine misuse.
            raise CompileError("wait() on another rank's request")
        # The engine traces a blocking send()/recv() under the op's own
        # name and any other wait as wait_<kind>; the flag keeps the two
        # apart after both lower to ISEND/IRECV + WAIT.
        if _op is None or _op == f"wait_{request.kind}":
            f = _NO_F
        elif _op == request.kind:
            f = _BLOCKING_F
        else:
            raise CompileError(f"wait() trace label {_op!r} is not recordable")
        self._ops.append((OP_WAIT, request.local, f))
        return request.message
        yield  # pragma: no cover

    def waitall(self, requests: Sequence[_RecordedRequest]) -> Generator:
        results = []
        for req in requests:
            msg = yield from self.wait(req)
            results.append(msg)
        return results

    def waitany(self, requests: Sequence[_RecordedRequest]) -> Generator:
        raise CompileError("waitany() completion order is not static")

    def send(self, dst: int, nbytes: float, tag: int = 0) -> Generator:
        req = self.isend(dst, nbytes, tag)
        yield from self.wait(req, _op="send")
        return req.message

    def recv(self, src: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        req = self.irecv(src, tag)
        msg = yield from self.wait(req, _op="recv")
        return msg

    def sendrecv(
        self, dst: int, nbytes: float, src: int = ANY_SOURCE, tag: int = 0
    ) -> Generator:
        # isend + recv + wait(send) in one call: the validation order of
        # isend() then irecv(), both request rows, and the four ops
        # ISEND, IRECV, blocking WAIT(recv), WAIT(send).
        self._check_send(dst, nbytes)
        self._check_recv(src, tag)
        s = self._recorder.add_pair(
            self.rank, dst, src, tag, float(nbytes), self._cost.is_eager(nbytes)
        ) - self._req_base
        self._ops.extend((
            (OP_ISEND, s, _NO_F),
            (OP_IRECV, s + 1, _NO_F),
            (OP_WAIT, s + 1, _BLOCKING_F),
            (OP_WAIT, s, _NO_F),
        ))
        return  # the recorded receive carries no message, as in recv()
        yield  # pragma: no cover

    # ------------------------------------------------------------------
    # collectives (wire/copy formulas mirror RankContext exactly)
    # ------------------------------------------------------------------
    def _collective(self, kind: str, wire_bytes: float, copy_bytes: float) -> Generator:
        seq = len(self._coll_kinds)
        self._coll_kinds.append(kind)
        self._ops.append(
            (OP_COLLECTIVE, seq, (float(wire_bytes), float(copy_bytes), 0.0, 0.0, 0.0, 0.0))
        )
        return
        yield  # pragma: no cover

    def barrier(self) -> Generator:
        yield from self._collective("barrier", 0.0, 0.0)

    def bcast(self, nbytes: float, root: int = 0) -> Generator:
        yield from self._collective("bcast", nbytes, nbytes if self.rank == root else 0.0)

    def reduce(self, nbytes: float, root: int = 0) -> Generator:
        yield from self._collective("reduce", nbytes, nbytes)

    def allreduce(self, nbytes: float) -> Generator:
        yield from self._collective("allreduce", nbytes, nbytes)

    def scatter(self, nbytes: float, root: int = 0) -> Generator:
        copy = nbytes * (self.size - 1) if self.rank == root else nbytes
        yield from self._collective("scatter", nbytes, copy)

    def gather(self, nbytes: float, root: int = 0) -> Generator:
        copy = nbytes * (self.size - 1) if self.rank == root else nbytes
        yield from self._collective("gather", nbytes, copy)

    def allgather(self, nbytes: float) -> Generator:
        wire = nbytes * (self.size - 1)
        yield from self._collective("allgather", wire, nbytes)

    def alltoall(self, bytes_per_pair: float) -> Generator:
        wire = self._cost.alltoall_bytes(self.size, bytes_per_pair)
        yield from self._collective("alltoall", wire, wire)

    def alltoallv(self, total_send_bytes: float) -> Generator:
        yield from self._collective("alltoallv", total_send_bytes, total_send_bytes)


_NO_F = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
_BLOCKING_F = (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)


class _MarkerHooks(PhaseHooks):
    """Hooks that record their call sites instead of acting.

    Programs are compiled against these so the resulting op arrays are
    identical to an uninstrumented (``NO_HOOKS``) recording — a marker
    performs no context operation — while every hook site lands in the
    compiled form as ``(op position, kind, phase)``.  The straightline
    tier later lowers a strategy's :class:`GearPlan` onto these markers
    to find exactly where the event engine would issue ``set_cpuspeed``
    calls.
    """

    def on_init(self, ctx: "_RecordingContext") -> None:
        ctx._markers.append((len(ctx._ops), "init", ""))

    def phase_begin(self, ctx: "_RecordingContext", phase: str) -> None:
        ctx._markers.append((len(ctx._ops), "begin", phase))

    def phase_end(self, ctx: "_RecordingContext", phase: str) -> None:
        ctx._markers.append((len(ctx._ops), "end", phase))


class _Recorder:
    """Cross-rank recording state.

    The request table is six flat columns (one row per isend/irecv, in
    global request-id order).  Rank bodies are deduplicated as each
    rank drains (:meth:`close_rank`): only the distinct op streams stay
    alive, so recording memory follows distinct bodies, not ranks.
    """

    def __init__(self) -> None:
        self.req_kind: list[int] = []
        self.req_owner: list[int] = []
        self.req_peer: list[int] = []
        self.req_tag: list[int] = []
        self.req_nbytes: list[float] = []
        self.req_eager: list[bool] = []
        self.req_base: list[int] = []
        #: distinct (op stream, hook markers) -> group id
        self._groups: dict[tuple, int] = {}
        self.bodies: list[tuple] = []  # op stream per group
        self.body_markers: list[tuple] = []  # hook markers per group
        self.group_of: list[int] = []
        self.members: list[list[int]] = []
        #: distinct per-rank collective-kind tuples, in first-rank order
        self.coll_lists: dict[tuple[str, ...], None] = {}

    def add(self, kind: int, owner: int, peer: int, tag: int, nbytes: float,
            eager: bool) -> int:
        """Append one request row; return its global id."""
        req_id = len(self.req_kind)
        self.req_kind.append(kind)
        self.req_owner.append(owner)
        self.req_peer.append(peer)
        self.req_tag.append(tag)
        self.req_nbytes.append(nbytes)
        self.req_eager.append(eager)
        return req_id

    def add_pair(self, owner: int, dst: int, src: int, tag: int, nbytes: float,
                 eager: bool) -> int:
        """Append a sendrecv's send row then its receive row; return the
        send's global id."""
        req_id = len(self.req_kind)
        self.req_kind.extend((REQ_SEND, REQ_RECV))
        self.req_owner.extend((owner, owner))
        self.req_peer.extend((dst, src))
        self.req_tag.extend((tag, tag))
        self.req_nbytes.extend((nbytes, 0.0))
        self.req_eager.extend((eager, False))
        return req_id

    def close_rank(self, ctx: _RecordingContext) -> None:
        """File a drained rank: keep its body only if no earlier rank
        recorded the same one."""
        self.req_base.append(ctx._req_base)
        self.coll_lists[tuple(ctx._coll_kinds)] = None
        sig = (tuple(ctx._ops), tuple(ctx._markers))
        g = self._groups.get(sig)
        if g is None:
            g = self._groups[sig] = len(self.bodies)
            self.bodies.append(sig[0])
            self.body_markers.append(sig[1])
            self.members.append([])
        self.group_of.append(g)
        self.members[g].append(ctx.rank)


@dataclass(eq=False)  # identity semantics: programs are memoized, never compared
class CompiledProgram:
    """A workload's rank programs, lowered to flat arrays.

    The per-rank arrays are parallel: ``ops[r][k]`` is the op code of
    rank ``r``'s ``k``-th operation, ``iargs[r][k]`` its integer operand
    (*rank-local* request index / collective seq) and ``fargs[r][k]``
    its six float operands (see the ``OP_*`` constants for the layout).

    Ranks whose recorded bodies are identical — same op codes, same
    local operands, same float operands, same hook markers — share one
    packed body: their entries in ``ops``/``iargs``/``fargs``/``markers``
    are the *same objects*, so the packed op arrays (and the recorder's
    op streams while compiling) scale with the number of distinct rank
    groups, not ranks.  ``group_of[r]`` is rank ``r``'s group id (group
    ids in first-rank order) and ``group_members[g]`` the sorted ranks
    of group ``g``.

    The request table stores one row per isend/irecv across all ranks,
    so it stays O(requests) whatever the grouping; a rank's ``k``-th
    request has global id ``req_base[rank] + local`` and
    ``req_match[i]`` is the request id of the statically matched
    opposite side (FIFO per ``(src, dst, tag)`` channel).
    """

    nprocs: int
    fastest_hz: float
    ops: list[np.ndarray]
    iargs: list[np.ndarray]
    fargs: list[np.ndarray]
    req_kind: np.ndarray  # REQ_SEND / REQ_RECV
    req_owner: np.ndarray
    req_peer: np.ndarray
    req_tag: np.ndarray
    req_nbytes: np.ndarray
    req_eager: np.ndarray
    req_match: np.ndarray
    coll_kinds: tuple[str, ...]  # kind per call-site seq
    #: rank-equivalence classes: group id per rank / ranks per group.
    group_of: np.ndarray
    group_members: tuple[np.ndarray, ...]
    #: per-rank hook sites: ``(op position, "init"|"begin"|"end", phase)``
    #: in call order — op position is the index of the first op recorded
    #: *after* the hook fired (== the op count at the hook site).
    markers: tuple[tuple[tuple[int, str, str], ...], ...] = ()
    #: first global request id per rank (rank-local index offsets).
    req_base: Optional[np.ndarray] = None

    @property
    def n_requests(self) -> int:
        return len(self.req_kind)

    @property
    def n_collectives(self) -> int:
        return len(self.coll_kinds)

    @property
    def n_groups(self) -> int:
        return len(self.group_members) if self.group_members else self.nprocs

    @property
    def group_reps(self) -> list[int]:
        """First (lowest) rank of each group, in group-id order."""
        return [int(m[0]) for m in self.group_members]


def _check_collectives(distinct: list[tuple[str, ...]]) -> tuple[str, ...]:
    """Every rank must run rank 0's collective call-site list.

    ``distinct`` holds each distinct per-rank kind list once, rank 0's
    first; the mismatch message names the lowest differing call site
    and every kind any rank issues there.
    """
    if not distinct:
        return ()
    if len({len(kinds) for kinds in distinct}) > 1:
        raise CompileError("ranks disagree on collective count (would deadlock)")
    ref = distinct[0]
    if len(distinct) > 1:
        seq = min(
            next(i for i, (a, b) in enumerate(zip(ref, other)) if a != b)
            for other in distinct[1:]
        )
        raise CompileError(
            f"collective mismatch at call site {seq}: "
            f"{sorted({kinds[seq] for kinds in distinct})}"
        )
    return ref


def _match_fifo(kind: np.ndarray, owner: np.ndarray, peer: np.ndarray,
                tag: np.ndarray, eager: np.ndarray) -> np.ndarray:
    """FIFO-match every send to a receive per ``(src, dst, tag)`` channel.

    One stable sort groups the requests by channel, in request-id
    order within each channel.  When every channel holds as many sends
    as receives, the k-th send overall then pairs with the k-th receive
    overall.  Unmatched and mixed eager/rendezvous channels raise
    :class:`CompileError` naming the lowest such channel.
    """
    n = len(kind)
    match = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return match
    is_send = kind == REQ_SEND
    src = np.where(is_send, owner, peer)
    dst = np.where(is_send, peer, owner)
    order = np.lexsort((tag, dst, src))  # stable: ids ascend per channel
    src, dst, tag, is_send = src[order], dst[order], tag[order], is_send[order]
    new = np.ones(n, dtype=bool)
    new[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1]) | (tag[1:] != tag[:-1])
    starts = np.flatnonzero(new)
    n_send = np.add.reduceat(is_send.astype(np.int64), starts)
    n_recv = np.diff(starts, append=n) - n_send
    n_eager = np.add.reduceat((is_send & eager[order]).astype(np.int64), starts)
    unmatched = n_send != n_recv
    mixed = (n_eager != 0) & (n_eager != n_send)
    bad = np.flatnonzero(unmatched | mixed)
    if bad.size:
        c = int(bad[0])
        i = starts[c]
        channel = (int(src[i]), int(dst[i]), int(tag[i]))
        if unmatched[c]:
            raise CompileError(
                f"unmatched point-to-point traffic on channel {channel}: "
                f"{int(n_send[c])} sends vs {int(n_recv[c])} recvs"
            )
        raise CompileError(
            f"mixed eager/rendezvous messages on channel {channel} "
            "(delivery order not statically known)"
        )
    sends = order[is_send]
    recvs = order[~is_send]
    match[sends] = recvs
    match[recvs] = sends
    return match


def _pack(ops: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One body's op tuples as ``(ops, iargs, fargs)`` arrays."""
    if not ops:
        return (np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int64),
                np.empty((0, 6), dtype=np.float64))
    codes, iargs, fargs = zip(*ops)
    return (np.array(codes, dtype=np.int8), np.array(iargs, dtype=np.int64),
            np.array(fargs, dtype=np.float64))


def _lower(recorder: _Recorder, fastest_hz: float, nprocs: int) -> CompiledProgram:
    """Match + validate the recording, then pack it into arrays."""
    coll_kinds = _check_collectives(list(recorder.coll_lists))
    req_kind = np.array(recorder.req_kind, dtype=np.int8)
    req_owner = np.array(recorder.req_owner, dtype=np.int64)
    req_peer = np.array(recorder.req_peer, dtype=np.int64)
    req_tag = np.array(recorder.req_tag, dtype=np.int64)
    req_eager = np.array(recorder.req_eager, dtype=bool)
    match = _match_fifo(req_kind, req_owner, req_peer, req_tag, req_eager)

    # Each distinct body is packed once; grouped ranks share the
    # resulting array objects (and their representative's markers).
    bodies = [_pack(ops) for ops in recorder.bodies]
    gof = recorder.group_of
    return CompiledProgram(
        nprocs=nprocs,
        fastest_hz=fastest_hz,
        ops=[bodies[g][0] for g in gof],
        iargs=[bodies[g][1] for g in gof],
        fargs=[bodies[g][2] for g in gof],
        req_kind=req_kind,
        req_owner=req_owner,
        req_peer=req_peer,
        req_tag=req_tag,
        req_nbytes=np.array(recorder.req_nbytes, dtype=np.float64),
        req_eager=req_eager,
        req_match=match,
        coll_kinds=coll_kinds,
        markers=tuple(recorder.body_markers[g] for g in gof),
        req_base=np.array(recorder.req_base, dtype=np.int64),
        group_of=np.array(gof, dtype=np.int64),
        group_members=tuple(
            np.array(m, dtype=np.int64) for m in recorder.members
        ),
    )


#: workload -> {fastest_hz: CompiledProgram}.  Weak keys: compiled forms
#: die with the workload object, and a workload is treated as immutable
#: after first compilation (true of every registered workload).
_CACHE: "weakref.WeakKeyDictionary[Workload, dict[float, CompiledProgram]]" = (
    weakref.WeakKeyDictionary()
)


def compile_workload(workload: Workload, fastest_hz: float) -> CompiledProgram:
    """Lower ``workload``'s rank programs to straightline form.

    ``fastest_hz`` is the fastest operating-point frequency of the
    cluster the program will run on (it resolves ``seconds=`` compute
    shorthand into cycles, exactly as the live context does).

    Raises :class:`CompileError` when the program is not static.
    Results are memoized per (workload object, fastest_hz).
    """
    try:
        per_hz = _CACHE.setdefault(workload, {})
    except TypeError:  # unhashable/unweakrefable workload: skip the memo
        per_hz = {}
    cached = per_hz.get(fastest_hz)
    if cached is not None:
        return cached

    cost = workload.cost_model()
    # Compiled against marker hooks: op-wise identical to NO_HOOKS (the
    # markers perform no context operation), but every hook site lands
    # in ``CompiledProgram.markers`` for gear-plan lowering.
    program = workload.make_program(_MarkerHooks())
    recorder = _Recorder()
    try:
        for rank in range(workload.nprocs):
            ctx = _RecordingContext(recorder, rank, workload.nprocs, cost, fastest_hz)
            # Drain the generator; a static program never yields
            # anything the recording context did not itself produce.
            for _ in program(ctx):  # pragma: no cover - recording ops never yield
                raise CompileError("program yields a raw simulation event")
            # Dedup as soon as the rank drains: a body that duplicates
            # an earlier rank's is dropped with the context.
            recorder.close_rank(ctx)
        compiled = _lower(recorder, fastest_hz, workload.nprocs)
    except CompileError:
        raise
    except Exception as exc:
        # Anything else (a validation error, an exotic program) is "not
        # compilable" — the event engine reproduces the genuine error.
        raise CompileError(f"program not statically recordable: {exc!r}") from exc
    per_hz[fastest_hz] = compiled
    return compiled


# ---------------------------------------------------------------------------
# group-level channel classes (the quotient tier's p2p eligibility proof)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelClass:
    """One group-level point-to-point channel equivalence class.

    Every lane (see :func:`classify_channels`) carries ``count``
    messages of ``nbytes`` bytes from its ``src_group`` member to its
    ``dst_group`` member on tag ``tag``; ``eager`` is the protocol the
    cost model selected.  ``lanes`` is how many rank-level channels the
    class stands for.
    """

    src_group: int
    dst_group: int
    tag: int
    nbytes: float
    eager: bool
    count: int
    lanes: int


@dataclass(frozen=True)
class ChannelClassification:
    """Verdict of :func:`classify_channels`.

    ``exact`` means the program's request stream decomposes into
    disjoint *lanes* — one member of every participating group each,
    pairwise isomorphic — so running one representative lane reproduces
    every lane's times bit-for-bit.  When it is ``False``, ``reason``
    is a stable fallback code (``p2p_self_send``, ``p2p_zero_byte`` or
    ``p2p_unclassifiable``) naming the first disqualifier found.
    """

    exact: bool
    reason: Optional[str] = None
    classes: tuple[ChannelClass, ...] = ()
    n_lanes: int = 0


def _decline(reason: str) -> ChannelClassification:
    return ChannelClassification(exact=False, reason=reason)


#: Entry bound of every per-program memo dict keyed by plan or
#: partition (here and in :mod:`repro.sim.straightline`): the optimizer
#: makes a new plan, and often a new partition, per candidate batch.
MEMO_CAP = 64


def lru_get(memo: dict, key):
    """``memo[key]`` (or ``None``), refreshed as most recently used."""
    value = memo.pop(key, None)
    if value is not None:
        memo[key] = value
    return value


def lru_put(memo: dict, key, value) -> None:
    """Store ``memo[key] = value``, evicting least-recently used entries
    beyond :data:`MEMO_CAP`."""
    memo[key] = value
    while len(memo) > MEMO_CAP:
        memo.pop(next(iter(memo)))


#: compiled program -> {tuple(exec_of): ChannelClassification}, each
#: inner dict LRU-bounded at :data:`MEMO_CAP`.
_CLASSIFY_CACHE: "weakref.WeakKeyDictionary[CompiledProgram, dict]" = (
    weakref.WeakKeyDictionary()
)


def classify_channels(
    compiled: CompiledProgram,
    exec_of: Optional[Sequence[int]] = None,
    members: Optional[Sequence[Sequence[int]]] = None,
) -> ChannelClassification:
    """Classify a program's p2p requests into group-level channel classes.

    ``exec_of``/``members`` describe an execution partition of the
    ranks (a refinement of the compiler's body groups — e.g. the
    quotient tier's per-point partition); they default to the body
    partition itself.  The classification is *exact* when:

    * every member of a group issues, slot for slot, requests with the
      same tag/byte-count/protocol (bodies already pin kind and order);
    * each slot's peers stay inside one fixed other group of the same
      size, hitting every member of it exactly once — so the slot is a
      bijection between the two groups;
    * the statically matched opposite request sits at the same
      rank-local index for every member (FIFO order is the same
      channel subsequence in every lane);
    * the per-slot bijections knit the ranks into disjoint *lanes*
      containing at most one member per group, and within every lane
      the members' rank order agrees with the group representatives'
      rank order (the interpreter breaks same-time channel ties by
      rank id, so the quotient's tie order must be every lane's).

    Self-sends, intra-group channels and zero-byte payloads decline
    (their timing/ordering does not quotient); so does anything the
    proof above cannot certify.  Results are memoized per
    ``(compiled, tuple(exec_of))``.
    """
    if compiled.n_requests == 0:
        return ChannelClassification(exact=True, classes=(), n_lanes=0)
    if exec_of is None:
        exec_of = [int(g) for g in compiled.group_of]
        members = [list(map(int, m)) for m in compiled.group_members]
    assert members is not None
    key = tuple(exec_of)
    try:
        per_part = _CLASSIFY_CACHE.setdefault(compiled, {})
    except TypeError:  # pragma: no cover - exotic compiled object
        per_part = {}
    result = lru_get(per_part, key)
    if result is None:
        result = _classify(compiled, list(key), [list(m) for m in members])
        lru_put(per_part, key, result)
    return result


def _classify(
    compiled: CompiledProgram,
    exec_of: list[int],
    members: list[list[int]],
) -> ChannelClassification:
    if compiled.req_base is None:
        return _decline("p2p_unclassifiable")
    base = compiled.req_base
    counts = np.diff(base, append=compiled.n_requests)
    eo = np.asarray(exec_of, dtype=np.int64)
    sizes = np.array([len(m) for m in members], dtype=np.int64)
    member_arrs = [np.asarray(m, dtype=np.int64) for m in members]

    classes: dict[tuple, list[int]] = {}
    for g, mem in enumerate(member_arrs):
        c = int(counts[mem[0]])
        if c == 0:
            continue
        if bool(np.any(counts[mem] != c)):
            # Shared bodies make this impossible; guard anyway.
            return _decline("p2p_unclassifiable")
        idx = base[mem][:, None] + np.arange(c)[None, :]  # (S, c)
        peers = compiled.req_peer[idx]
        if bool(np.any(peers == mem[:, None])):
            return _decline("p2p_self_send")
        tags = compiled.req_tag[idx]
        kinds = compiled.req_kind[idx]
        nbytes = compiled.req_nbytes[idx]
        eager = compiled.req_eager[idx]
        if (
            bool(np.any(tags != tags[0]))
            or bool(np.any(kinds != kinds[0]))
            or bool(np.any(nbytes != nbytes[0]))
            or bool(np.any(eager != eager[0]))
        ):
            return _decline("p2p_unclassifiable")
        send_slots = kinds[0] == REQ_SEND
        if bool(np.any(nbytes[0][send_slots] <= 0.0)):
            return _decline("p2p_zero_byte")
        pg = eo[peers]
        if bool(np.any(pg != pg[0])):
            return _decline("p2p_unclassifiable")
        slot_groups = pg[0]
        if bool(np.any(slot_groups == g)):
            # An intra-group channel folds two lane nodes onto one
            # quotient rank (a self-send there) — decline.
            return _decline("p2p_unclassifiable")
        if bool(np.any(sizes[slot_groups] != len(mem))):
            return _decline("p2p_unclassifiable")
        # Each slot must hit every member of its peer group once.
        expected = np.stack(
            [member_arrs[h] for h in slot_groups.tolist()], axis=1
        )
        if bool(np.any(np.sort(peers, axis=0) != expected)):
            return _decline("p2p_unclassifiable")
        local_match = compiled.req_match[idx] - base[peers]
        if bool(np.any(local_match != local_match[0])):
            return _decline("p2p_unclassifiable")
        for j in np.flatnonzero(send_slots).tolist():
            ck = (g, int(slot_groups[j]), int(tags[0][j]),
                  float(nbytes[0][j]), bool(eager[0][j]))
            classes.setdefault(ck, [0, len(mem)])[0] += 1

    # -- lane decomposition: union-find over the (owner, peer) graph --
    touched = np.flatnonzero(counts > 0)
    pair_codes = np.unique(
        compiled.req_owner * np.int64(compiled.nprocs) + compiled.req_peer
    )
    parent = list(range(compiled.nprocs))

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for code in pair_codes.tolist():
        a, b = find(code // compiled.nprocs), find(code % compiled.nprocs)
        if a != b:
            parent[b] = a

    lanes: dict[int, list[int]] = {}
    for r in touched.tolist():  # ascending rank order
        lanes.setdefault(find(r), []).append(r)
    seen_groups: set[tuple[int, int]] = set()
    for rs in lanes.values():
        rep_order = []
        for r in rs:
            lane_key = (find(r), exec_of[r])
            if lane_key in seen_groups:
                # Two members of one group inside one lane: the lane
                # is not one-rank-per-group, so no quotient rank can
                # stand for it.
                return _decline("p2p_unclassifiable")
            seen_groups.add(lane_key)
            rep_order.append(members[exec_of[r]][0])
        if rep_order != sorted(rep_order):
            # Same-time channel ties break by rank id; a lane ordered
            # unlike the representatives would tie-break differently.
            return _decline("p2p_unclassifiable")

    out = tuple(
        ChannelClass(src_group=k[0], dst_group=k[1], tag=k[2],
                     nbytes=k[3], eager=k[4], count=v[0], lanes=v[1])
        for k, v in sorted(classes.items())
    )
    return ChannelClassification(exact=True, classes=out, n_lanes=len(lanes))
