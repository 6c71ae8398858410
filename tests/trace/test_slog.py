"""Trace persistence (SLOG analogue)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import run_workload
from repro.trace.events import TraceLog
from repro.trace.slog import load_trace, save_trace, trace_from_csv, trace_to_csv
from repro.trace.stats import analyze
from repro.workloads import get_workload


def sample_log():
    log = TraceLog()
    log.record(0, "compute", 0.0, 1.5, nbytes=0.0)
    log.record(1, "alltoall", 1.5, 3.25, nbytes=1e6, peer=-1)
    log.record(0, "recv", 3.25, 3.5, nbytes=512.0, peer=1)
    return log


def test_csv_roundtrip_exact():
    log = sample_log()
    back = trace_from_csv(trace_to_csv(log))
    assert back.events == log.events


def test_file_roundtrip(tmp_path):
    log = sample_log()
    path = save_trace(log, tmp_path / "runs" / "trace.csv")
    assert path.exists()
    back = load_trace(path)
    assert back.events == log.events


def test_roundtrip_preserves_float_precision():
    log = TraceLog()
    log.record(0, "compute", 0.1 + 0.2, 1 / 3, nbytes=1e-9)
    back = trace_from_csv(trace_to_csv(log))
    e = back.events[0]
    assert e.t_begin == 0.1 + 0.2  # repr() round-trips doubles exactly
    assert e.t_end == 1 / 3
    assert e.nbytes == 1e-9


def test_bad_header_rejected():
    with pytest.raises(ValueError, match="not a trace CSV"):
        trace_from_csv("a,b,c\n1,2,3\n")


def test_malformed_row_rejected():
    text = trace_to_csv(sample_log()) + "0,compute\n"
    with pytest.raises(ValueError, match="malformed"):
        trace_from_csv(text)


def test_backwards_event_rejected():
    # TraceLog.record refuses it, so the loader must too.
    text = trace_to_csv(TraceLog()) + "0,compute,2.0,1.0,0.0,-1\r\n"
    with pytest.raises(ValueError, match="ends before it begins"):
        trace_from_csv(text)


def test_stray_carriage_return_is_a_value_error():
    # The CSV reader's own error (csv.Error) is not a ValueError; the
    # measurement cache only evicts entries whose decode raises one.
    text = trace_to_csv(TraceLog()) + "0,comp\rute,0.0,1.0,0.0,-1\r\n"
    with pytest.raises(ValueError, match="not a trace CSV"):
        trace_from_csv(text)


def test_non_numeric_field_rejected():
    text = trace_to_csv(TraceLog()) + "0,compute,0.0,soon,0.0,-1\r\n"
    with pytest.raises(ValueError, match="malformed trace row at line 2"):
        trace_from_csv(text)


_FLOATS = st.one_of(
    st.floats(allow_nan=False),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
         float("inf"), float("-inf")]
    ),
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@st.composite
def _logs(draw):
    log = TraceLog()
    for _ in range(draw(st.integers(0, 12))):
        t0, t1 = sorted(draw(st.lists(_FLOATS, min_size=2, max_size=2)))
        log.record(
            draw(st.integers(0, 3)),  # several ranks, interleaved
            draw(st.one_of(
                st.sampled_from(["compute", "a,b", 'say "hi"', "x\ny", "\r",
                                 "\r\n", ""]),
                st.text(),
            )),
            t0,
            t1,
            nbytes=draw(_FLOATS),
            peer=draw(st.integers(-1, 3)),
        )
    return log


@settings(max_examples=200, deadline=None)
@given(_logs())
def test_roundtrip_keeps_order_and_float_bits(log):
    back = trace_from_csv(trace_to_csv(log))
    assert back.events == log.events  # log order, every field
    for a, b in zip(back.events, log.events):
        assert type(a) is type(b)
        assert hash(a) == hash(b)
        for field in ("t_begin", "t_end", "nbytes"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field))


def test_real_workload_trace_survives_roundtrip(tmp_path):
    m = run_workload(get_workload("FT", klass="T"), trace=True)
    path = save_trace(m.trace, tmp_path / "ft.csv")
    back = load_trace(path)
    assert len(back) == len(m.trace)
    # analysis of the loaded trace gives identical statistics
    a, b = analyze(m.trace), analyze(back)
    assert a.comm_to_comp_ratio == b.comm_to_comp_ratio
    assert [r.compute_s for r in a.ranks] == [r.compute_s for r in b.ranks]
