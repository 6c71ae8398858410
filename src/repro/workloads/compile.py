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
    """Static stand-in for :class:`repro.mpi.communicator.Request`."""

    __slots__ = ("req_id", "kind", "peer", "tag", "nbytes", "message")

    def __init__(self, req_id: int, kind: str, peer: int, tag: int, nbytes: float) -> None:
        self.req_id = req_id
        self.kind = kind
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.message: Optional[_RecordedMessage] = None


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
        self._coll_seq = 0
        self._ops: list[tuple] = []
        # Ranks record sequentially, so this rank's requests occupy the
        # contiguous global id block starting here.  The ops stream
        # stores *rank-local* request indices (global = base + local):
        # symmetric ranks then record byte-identical op streams and can
        # share one packed program body.
        self._req_base = len(recorder.requests)
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
    def isend(self, dst: int, nbytes: float, tag: int = 0) -> _RecordedRequest:
        if not 0 <= dst < self.size:
            raise ValueError(f"destination rank {dst} out of range")
        if nbytes < 0:
            raise ValueError("message size must be non-negative")
        eager = self._cost.is_eager(nbytes)
        req = self._recorder.new_request("send", self.rank, dst, tag, float(nbytes))
        req.message = _RecordedMessage(self.rank, dst, tag, float(nbytes), eager)
        self._ops.append((OP_ISEND, req.req_id - self._req_base, _NO_F))
        return req

    def irecv(
        self, src: int = ANY_SOURCE, tag: int = ANY_TAG, nbytes_hint: float = 0.0
    ) -> _RecordedRequest:
        if src == ANY_SOURCE:
            raise CompileError("wildcard receive (ANY_SOURCE) is not static")
        if tag == ANY_TAG:
            raise CompileError("wildcard receive (ANY_TAG) is not static")
        if not 0 <= src < self.size:
            raise ValueError(f"source rank {src} out of range")
        req = self._recorder.new_request("recv", self.rank, src, tag, float(nbytes_hint))
        self._ops.append((OP_IRECV, req.req_id - self._req_base, _NO_F))
        return req

    def wait(self, request: _RecordedRequest, _op: Optional[str] = None) -> Generator:
        if not isinstance(request, _RecordedRequest):
            raise CompileError("wait() on a foreign request object")
        if self._recorder.req_owner[request.req_id] != self.rank:
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
        self._ops.append((OP_WAIT, request.req_id - self._req_base, f))
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
        sreq = self.isend(dst, nbytes, tag)
        msg = yield from self.recv(src, tag)
        yield from self.wait(sreq)
        return msg

    # ------------------------------------------------------------------
    # collectives (wire/copy formulas mirror RankContext exactly)
    # ------------------------------------------------------------------
    def _collective(self, kind: str, wire_bytes: float, copy_bytes: float) -> Generator:
        seq = self._coll_seq
        self._coll_seq += 1
        self._recorder.record_collective(self.rank, seq, kind)
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

    def __init__(self) -> None:
        self.sites: dict[int, list[tuple[int, str, str]]] = {}

    def _record(self, ctx: "_RecordingContext", kind: str, phase: str) -> None:
        self.sites.setdefault(ctx.rank, []).append((len(ctx._ops), kind, phase))

    def on_init(self, ctx) -> None:
        self._record(ctx, "init", "")

    def phase_begin(self, ctx, phase: str) -> None:
        self._record(ctx, "begin", phase)

    def phase_end(self, ctx, phase: str) -> None:
        self._record(ctx, "end", phase)


class _Recorder:
    """Global (cross-rank) recording state: requests + collectives."""

    def __init__(self) -> None:
        self.requests: list[_RecordedRequest] = []
        self.req_owner: list[int] = []
        # per-rank collective kinds in call-site order
        self.collectives: dict[int, list[str]] = {}

    def new_request(
        self, kind: str, owner: int, peer: int, tag: int, nbytes: float
    ) -> _RecordedRequest:
        req = _RecordedRequest(len(self.requests), kind, peer, tag, nbytes)
        self.requests.append(req)
        self.req_owner.append(owner)
        return req

    def record_collective(self, rank: int, seq: int, kind: str) -> None:
        kinds = self.collectives.setdefault(rank, [])
        if seq != len(kinds):  # pragma: no cover - defensive
            raise CompileError("collective call-site sequence out of order")
        kinds.append(kind)


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
    are the *same objects*, so compile time and memory scale with the
    number of distinct rank groups, not ranks.  ``group_of[r]`` is rank
    ``r``'s group id (group ids in first-rank order) and
    ``group_members[g]`` the sorted ranks of group ``g``.

    The request table stores one row per isend/irecv across all ranks;
    a rank's ``k``-th request has global id ``req_base[rank] + local``
    and ``req_match[i]`` is the request id of the statically matched
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


def _lower(recorder: _Recorder, contexts: list[_RecordingContext], fastest_hz: float,
           nprocs: int, markers: "_MarkerHooks") -> CompiledProgram:
    """Match + validate the recording, then pack it into arrays."""
    # -- collectives: every rank must run the same call-site list ------
    counts = {len(recorder.collectives.get(r, [])) for r in range(nprocs)}
    if len(counts) > 1:
        raise CompileError("ranks disagree on collective count (would deadlock)")
    n_coll = counts.pop() if counts else 0
    coll_kinds: list[str] = []
    for seq in range(n_coll):
        kinds = {recorder.collectives[r][seq] for r in range(nprocs)}
        if len(kinds) != 1:
            raise CompileError(
                f"collective mismatch at call site {seq}: {sorted(kinds)}"
            )
        coll_kinds.append(kinds.pop())

    # -- point-to-point: FIFO matching per (src, dst, tag) channel -----
    sends: dict[tuple[int, int, int], list[int]] = {}
    recvs: dict[tuple[int, int, int], list[int]] = {}
    for req in recorder.requests:
        owner = recorder.req_owner[req.req_id]
        if req.kind == "send":
            sends.setdefault((owner, req.peer, req.tag), []).append(req.req_id)
        else:
            recvs.setdefault((req.peer, owner, req.tag), []).append(req.req_id)
    match = np.full(len(recorder.requests), -1, dtype=np.int64)
    for channel in set(sends) | set(recvs):
        s_ids = sends.get(channel, [])
        r_ids = recvs.get(channel, [])
        if len(s_ids) != len(r_ids):
            raise CompileError(
                f"unmatched point-to-point traffic on channel {channel}: "
                f"{len(s_ids)} sends vs {len(r_ids)} recvs"
            )
        eager_flags = {recorder.requests[i].message.eager for i in s_ids}
        if len(eager_flags) > 1:
            raise CompileError(
                f"mixed eager/rendezvous messages on channel {channel} "
                "(delivery order not statically known)"
            )
        for s_id, r_id in zip(s_ids, r_ids):
            match[s_id] = r_id
            match[r_id] = s_id

    # -- rank-group deduplication: pack one body per equivalence class -
    # The ops stream carries rank-local request indices and per-rank
    # collective seqs, so two ranks with identical recorded programs
    # (and identical hook sites) produce identical tuples here even
    # though their request-table rows differ.  Each distinct body is
    # packed once; grouped ranks share the resulting array objects.
    marker_tuples = [tuple(markers.sites.get(r, ())) for r in range(nprocs)]
    sig_to_group: dict = {}
    group_of = np.empty(nprocs, dtype=np.int64)
    group_members: list[list[int]] = []
    bodies: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    for rank, ctx in enumerate(contexts):
        sig = (tuple(ctx._ops), marker_tuples[rank])
        g = sig_to_group.get(sig)
        if g is None:
            g = sig_to_group[sig] = len(bodies)
            n = len(ctx._ops)
            ops = np.empty(n, dtype=np.int8)
            iargs = np.empty(n, dtype=np.int64)
            fargs = np.empty((n, 6), dtype=np.float64)
            for k, (code, iarg, f) in enumerate(ctx._ops):
                ops[k] = code
                iargs[k] = iarg
                fargs[k] = f
            bodies.append((ops, iargs, fargs))
            group_members.append([])
        group_of[rank] = g
        group_members[g].append(rank)
    gof = group_of.tolist()

    reqs = recorder.requests
    return CompiledProgram(
        nprocs=nprocs,
        fastest_hz=fastest_hz,
        ops=[bodies[g][0] for g in gof],
        iargs=[bodies[g][1] for g in gof],
        fargs=[bodies[g][2] for g in gof],
        req_kind=np.array(
            [REQ_SEND if r.kind == "send" else REQ_RECV for r in reqs], dtype=np.int8
        ),
        req_owner=np.array(recorder.req_owner, dtype=np.int64),
        req_peer=np.array([r.peer for r in reqs], dtype=np.int64),
        req_tag=np.array([r.tag for r in reqs], dtype=np.int64),
        req_nbytes=np.array([r.nbytes for r in reqs], dtype=np.float64),
        req_eager=np.array(
            [r.message.eager if r.message is not None else False for r in reqs],
            dtype=bool,
        ),
        req_match=match,
        coll_kinds=tuple(coll_kinds),
        markers=tuple(marker_tuples),
        req_base=np.array([ctx._req_base for ctx in contexts], dtype=np.int64),
        group_of=group_of,
        group_members=tuple(
            np.array(m, dtype=np.int64) for m in group_members
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
    markers = _MarkerHooks()
    program = workload.make_program(markers)
    recorder = _Recorder()
    contexts = []
    try:
        for rank in range(workload.nprocs):
            ctx = _RecordingContext(recorder, rank, workload.nprocs, cost, fastest_hz)
            contexts.append(ctx)
            gen = program(ctx)
            # Drain the generator; a static program never yields
            # anything the recording context did not itself produce.
            for _ in gen:  # pragma: no cover - recording ops never yield
                raise CompileError("program yields a raw simulation event")
        compiled = _lower(recorder, contexts, fastest_hz, workload.nprocs, markers)
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
