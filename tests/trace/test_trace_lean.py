"""The lean trace layer against reference copies of its former code.

``TraceEvent`` is a named tuple, ``trace_from_csv`` builds events with
no Python call per field, and ``analyze`` makes one pass over the log.
Each must agree with the straightforward version kept here: every
float bit, every dict key order, every event.
"""

from __future__ import annotations

import csv
import io
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import run_workload
from repro.trace.events import OP_CATEGORIES, TraceEvent, TraceLog
from repro.trace.slog import trace_from_csv, trace_to_csv
from repro.trace.stats import RankProfile, TraceStats, analyze
from repro.workloads import get_workload


# ----------------------------------------------------------------------
# reference implementations (attribute access, one event at a time)
# ----------------------------------------------------------------------
def _ref_analyze(log: TraceLog) -> TraceStats:
    profiles: dict[int, RankProfile] = {}
    for event in log:
        prof = profiles.setdefault(event.rank, RankProfile(event.rank))
        _ref_accumulate(prof, event)
    ranks = [profiles[r] for r in sorted(profiles)]
    return TraceStats(ranks=ranks, duration_s=log.t_max - log.t_min)


def _ref_accumulate(prof: RankProfile, event: TraceEvent) -> None:
    d = event.duration
    cat = event.category
    if cat == "compute":
        prof.compute_s += d
    elif cat == "wait":
        prof.wait_s += d
    elif cat == "idle":
        prof.idle_s += d
    elif cat == "comm":
        prof.comm_s += d
    prof.op_seconds[event.op] = prof.op_seconds.get(event.op, 0.0) + d
    prof.op_counts[event.op] = prof.op_counts.get(event.op, 0) + 1


def _ref_trace_from_csv(text: str) -> list[tuple]:
    reader = csv.reader(io.StringIO(text))
    assert tuple(next(reader)) == (
        "rank", "op", "t_begin", "t_end", "nbytes", "peer")
    return [
        (int(rank), op, float(t0), float(t1), float(nbytes), int(peer))
        for rank, op, t0, t1, nbytes, peer in (row for row in reader if row)
    ]


# ----------------------------------------------------------------------
# generated logs
# ----------------------------------------------------------------------
_TIMES = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
        1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308,
    ]),
)
_OPS = st.one_of(
    st.sampled_from(sorted(OP_CATEGORIES)),
    st.sampled_from(["exotic_op", "wait", "", "COMPUTE"]),  # unknown: comm
)


@st.composite
def _events(draw):
    """One event; a third of them zero-length ``set_cpuspeed`` calls."""
    rank = draw(st.integers(0, 4))
    if draw(st.integers(0, 2)) == 0:
        t = draw(_TIMES)
        return (rank, "set_cpuspeed", t, t, 0.0, -1)
    t0, t1 = sorted(draw(st.lists(_TIMES, min_size=2, max_size=2)))
    return (rank, draw(_OPS), t0, t1, draw(_TIMES), draw(st.integers(-1, 4)))


@st.composite
def _logs(draw):
    log = TraceLog()
    for fields in draw(st.lists(_events(), max_size=40)):
        log.record(*fields)
    return log


def _hex_profile(p: RankProfile) -> tuple:
    return (
        p.rank,
        [float.hex(x) for x in (p.compute_s, p.comm_s, p.wait_s, p.idle_s)],
        [(op, float.hex(s)) for op, s in p.op_seconds.items()],
        list(p.op_counts.items()),
    )


@settings(max_examples=300, deadline=None)
@given(_logs())
def test_analyze_matches_reference_bit_for_bit(log):
    got, want = analyze(log), _ref_analyze(log)
    assert [_hex_profile(p) for p in got.ranks] == [
        _hex_profile(p) for p in want.ranks]
    assert float.hex(got.duration_s) == float.hex(want.duration_s)
    assert got.dominant_ops(5) == want.dominant_ops(5)


def test_analyze_keeps_first_seen_op_order_for_ties():
    log = TraceLog()
    log.record(0, "send", 0.0, 1.0)
    log.record(0, "recv", 1.0, 2.0)
    log.record(0, "send", 2.0, 2.0)
    log.record(1, "recv", 0.0, 1.0)
    log.record(1, "send", 1.0, 2.0)
    r0, r1 = analyze(log).ranks
    assert list(r0.op_seconds) == list(r0.op_counts) == ["send", "recv"]
    assert list(r1.op_seconds) == ["recv", "send"]
    assert r0.op_counts == {"send": 2, "recv": 1}
    assert r0.dominant_ops(1) == [("send", 1.0)]
    assert r1.dominant_ops(1) == [("recv", 1.0)]


def test_analyze_of_empty_log():
    stats = analyze(TraceLog())
    assert stats.ranks == [] and stats.duration_s == 0.0


def test_analyze_real_trace_matches_reference():
    log = run_workload(get_workload("CG", klass="T", nprocs=8), trace=True).trace
    got, want = analyze(log), _ref_analyze(log)
    assert [_hex_profile(p) for p in got.ranks] == [
        _hex_profile(p) for p in want.ranks]
    assert float.hex(got.duration_s) == float.hex(want.duration_s)


@settings(max_examples=200, deadline=None)
@given(_logs())
def test_decoder_matches_reference_event_for_event(log):
    text = trace_to_csv(log)
    got = trace_from_csv(text).events
    want = _ref_trace_from_csv(text)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is TraceEvent
        assert tuple(a) == b
        assert [float.hex(x) for x in a[2:5]] == [float.hex(x) for x in b[2:5]]


# ----------------------------------------------------------------------
# TraceEvent's contract
# ----------------------------------------------------------------------
def test_trace_event_defaults_and_keywords():
    e = TraceEvent(0, "compute", 0.5, 1.5)
    assert (e.nbytes, e.peer) == (0.0, -1)
    k = TraceEvent(rank=0, op="compute", t_begin=0.5, t_end=1.5)
    assert k == e
    assert e.duration == 1.0 and e.category == "compute"
    assert TraceEvent(1, "wait_recv", 0.0, 1.0, peer=3).category == "wait"


def test_trace_event_is_immutable():
    e = TraceEvent(0, "compute", 0.0, 1.0)
    with pytest.raises(AttributeError):
        e.rank = 1
    with pytest.raises(AttributeError):
        e.extra = 1


def test_trace_event_equality_and_hash():
    a = TraceEvent(0, "send", 0.0, 1.0, 8.0, 1)
    b = TraceEvent(0, "send", 0.0, 1.0, 8.0, 1)
    assert a == b and hash(a) == hash(b)
    assert a != TraceEvent(0, "send", 0.0, 1.0, 8.0, 2)
    assert len({a, b}) == 1
    # New with the named tuple: an event equals its plain field tuple.
    assert a == (0, "send", 0.0, 1.0, 8.0, 1)


def test_trace_event_repr():
    assert repr(TraceEvent(0, "compute", 0.0, 1.0)) == (
        "TraceEvent(rank=0, op='compute', t_begin=0.0, t_end=1.0, "
        "nbytes=0.0, peer=-1)"
    )


def test_trace_event_pickles():
    e = TraceEvent(3, "alltoall", 0.25, 1.75, 1e6, -1)
    back = pickle.loads(pickle.dumps(e))
    assert back == e and type(back) is TraceEvent


def test_recorded_and_decoded_events_are_trace_events():
    log = TraceLog()
    log.record(0, "compute", 0.0, 1.0)
    back = trace_from_csv(trace_to_csv(log))
    for e in log.events + back.events:
        assert type(e) is TraceEvent
        assert e == TraceEvent(0, "compute", 0.0, 1.0)
