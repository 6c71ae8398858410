"""The recorder's request table, FIFO matcher and memory footprint.

``compile_workload`` matches point-to-point traffic with one stable
sort over the request table.  These tests hold it to the dict-based
per-channel FIFO matcher it replaced (copied below as the reference),
pin the one-call ``sendrecv`` to its isend + recv + wait meaning, and
bound the recording's memory so it keeps following distinct rank
bodies rather than ranks.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mpi.communicator import ANY_TAG
from repro.mpi.costmodel import CostModel
from repro.workloads.base import NO_HOOKS, Workload
from repro.workloads.compile import CompileError, compile_workload
from repro.workloads.npb import CG

FASTEST_HZ = 1.4e9
EAGER = 16.0
RENDEZVOUS = 4_000_000.0
assert CostModel().is_eager(EAGER) and not CostModel().is_eager(RENDEZVOUS)


class _Synthetic(Workload):
    name = "SYN"
    klass = "T"

    def __init__(self, body, nprocs: int):
        self.nprocs = nprocs
        self._body = body

    def make_program(self, hooks=NO_HOOKS):
        body = self._body

        def program(ctx):
            yield from body(ctx)

        return program


def _compile(body, nprocs: int = 2):
    return compile_workload(_Synthetic(body, nprocs), FASTEST_HZ)


def _reference_match(rows):
    """The dict-based matcher, channels visited lowest first.

    ``rows`` are ``(kind, owner, peer, tag, eager)`` in request-id order.
    """
    sends: dict = {}
    recvs: dict = {}
    for req_id, (kind, owner, peer, tag, _) in enumerate(rows):
        if kind == "send":
            sends.setdefault((owner, peer, tag), []).append(req_id)
        else:
            recvs.setdefault((peer, owner, tag), []).append(req_id)
    match = np.full(len(rows), -1, dtype=np.int64)
    for channel in sorted(set(sends) | set(recvs)):
        s_ids = sends.get(channel, [])
        r_ids = recvs.get(channel, [])
        if len(s_ids) != len(r_ids):
            raise CompileError(
                f"unmatched point-to-point traffic on channel {channel}: "
                f"{len(s_ids)} sends vs {len(r_ids)} recvs"
            )
        if len({rows[i][4] for i in s_ids}) > 1:
            raise CompileError(
                f"mixed eager/rendezvous messages on channel {channel} "
                "(delivery order not statically known)"
            )
        for s_id, r_id in zip(s_ids, r_ids):
            match[s_id] = r_id
            match[r_id] = s_id
    return match


@st.composite
def _streams(draw):
    """Per-rank request streams: messages posted on both ends in a
    random per-rank order, sometimes with one request dropped."""
    nprocs = draw(st.integers(1, 4))
    rank = st.integers(0, nprocs - 1)
    messages = draw(st.lists(
        st.tuples(rank, rank, st.integers(0, 2), st.sampled_from((EAGER, RENDEZVOUS))),
        max_size=12,
    ))
    streams: list[list] = [[] for _ in range(nprocs)]
    for src, dst, tag, nbytes in messages:
        streams[src].append(("send", dst, tag, nbytes))
        streams[dst].append(("recv", src, tag, 0.0))
    streams = [draw(st.permutations(s)) for s in streams]
    if draw(st.booleans()):
        owners = [r for r, s in enumerate(streams) if s]
        if owners:
            r = draw(st.sampled_from(owners))
            del streams[r][draw(st.integers(0, len(streams[r]) - 1))]
    return streams


@settings(max_examples=300, deadline=None)
@given(_streams())
def test_matcher_agrees_with_dict_reference(streams) -> None:
    def body(ctx):
        reqs = [
            ctx.isend(peer, nbytes, tag) if kind == "send" else ctx.irecv(src=peer, tag=tag)
            for kind, peer, tag, nbytes in streams[ctx.rank]
        ]
        yield from ctx.waitall(reqs)

    rows = [
        (kind, owner, peer, tag, kind == "send" and CostModel().is_eager(nbytes))
        for owner, stream in enumerate(streams)
        for kind, peer, tag, nbytes in stream
    ]
    try:
        expected = _reference_match(rows)
    except CompileError as exc:
        with pytest.raises(CompileError) as got:
            _compile(body, len(streams))
        assert str(got.value) == str(exc)
        return
    compiled = _compile(body, len(streams))
    np.testing.assert_array_equal(compiled.req_match, expected)
    assert compiled.req_match.dtype == np.int64


def test_mismatch_names_lowest_channel() -> None:
    def body(ctx):
        if ctx.rank == 1:
            yield from ctx.wait(ctx.isend(0, 64.0, tag=5))
            yield from ctx.wait(ctx.isend(0, 64.0, tag=3))
        else:
            yield from ctx.idle(0.0)

    with pytest.raises(CompileError, match=r"channel \(1, 0, 3\): 1 sends vs 0 recvs"):
        _compile(body)


# ----------------------------------------------------------------------
# sendrecv: one call, same validation order and record as its parts
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"dst": 9, "nbytes": 64.0}, "destination rank 9 out of range"),
        ({"dst": 1, "nbytes": -1.0}, "message size must be non-negative"),
        ({"dst": 1, "nbytes": 64.0}, r"wildcard receive \(ANY_SOURCE\)"),
        ({"dst": 1, "nbytes": 64.0, "src": 0, "tag": ANY_TAG}, r"wildcard receive \(ANY_TAG\)"),
        ({"dst": 1, "nbytes": 64.0, "src": 7}, "source rank 7 out of range"),
    ],
    ids=["bad-dst-before-wildcard", "bad-bytes-before-wildcard", "any-source",
         "any-tag", "bad-src"],
)
def test_sendrecv_validation_order(kwargs, message) -> None:
    def body(ctx):
        yield from ctx.sendrecv(**kwargs)

    with pytest.raises(CompileError, match=message):
        _compile(body)


def test_sendrecv_records_isend_recv_wait() -> None:
    def one_call(ctx):
        peer = ctx.size - 1 - ctx.rank
        got = yield from ctx.sendrecv(peer, 64.0 * (ctx.rank + 1), src=peer, tag=4)
        assert got is None
        yield from ctx.sendrecv(peer, RENDEZVOUS, src=peer, tag=min(ctx.rank, peer))

    def parts(ctx):
        peer = ctx.size - 1 - ctx.rank
        for nbytes, tag in ((64.0 * (ctx.rank + 1), 4), (RENDEZVOUS, min(ctx.rank, peer))):
            sreq = ctx.isend(peer, nbytes, tag)
            yield from ctx.recv(peer, tag)
            yield from ctx.wait(sreq)

    a, b = _compile(one_call, 4), _compile(parts, 4)
    for field in ("ops", "iargs", "fargs"):
        for x, y in zip(getattr(a, field), getattr(b, field)):
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)
    for field in ("req_kind", "req_owner", "req_peer", "req_tag", "req_nbytes",
                  "req_eager", "req_match", "req_base", "group_of"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype, field
        np.testing.assert_array_equal(x, y, err_msg=field)


def test_wait_on_another_ranks_request_rejected() -> None:
    held = []

    def body(ctx):
        if ctx.rank == 0:
            held.append(ctx.irecv(src=1, tag=0))
            yield from ctx.idle(0.0)
        else:
            yield from ctx.wait(held[0])

    with pytest.raises(CompileError, match="another rank's request"):
        _compile(body)


# ----------------------------------------------------------------------
# memory: recording follows distinct bodies, not ranks
# ----------------------------------------------------------------------
#: tracemalloc peak of compiling CG.T.256 (2 distinct bodies, 20,480
#: requests) is ~2.9 MB; keeping every rank's op list until lowering
#: peaked at ~13 MB.
CG_T_256_PEAK_BOUND = 6_000_000


def test_compile_memory_follows_distinct_bodies() -> None:
    workload = CG(klass="T", nprocs=256)
    gc.collect()
    tracemalloc.start()
    try:
        compiled = compile_workload(workload, FASTEST_HZ)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert compiled.n_groups == 2 and compiled.n_requests == 20_480
    assert peak < CG_T_256_PEAK_BOUND, peak
