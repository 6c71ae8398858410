"""Trace log, stats and the ASCII Jumpshot renderer."""

import pytest

from repro.trace.events import TraceEvent, TraceLog, categorize_op
from repro.trace.jumpshot import render_timeline
from repro.trace.stats import analyze


def make_log():
    log = TraceLog()
    # rank 0: compute 0-4, alltoall 4-10
    log.record(0, "compute", 0.0, 4.0)
    log.record(0, "alltoall", 4.0, 10.0, nbytes=1e6)
    # rank 1: compute 0-2, wait 2-4, alltoall 4-10
    log.record(1, "compute", 0.0, 2.0)
    log.record(1, "wait_recv", 2.0, 4.0)
    log.record(1, "alltoall", 4.0, 10.0, nbytes=1e6)
    return log


def test_event_categorization():
    assert categorize_op("compute") == "compute"
    assert categorize_op("alltoall") == "comm"
    assert categorize_op("wait_recv") == "wait"
    assert categorize_op("set_cpuspeed") == "dvs"
    assert categorize_op("idle") == "idle"
    assert categorize_op("exotic_op") == "comm"  # safe default


def test_event_validation():
    log = TraceLog()
    with pytest.raises(ValueError):
        log.record(0, "compute", 5.0, 1.0)


def test_log_accessors():
    log = make_log()
    assert len(log) == 5
    assert log.ranks == [0, 1]
    assert log.t_min == 0.0
    assert log.t_max == 10.0
    assert len(log.for_rank(1)) == 3


def test_filtering():
    log = make_log()
    assert len(log.filter(op="compute")) == 2
    assert len(log.filter(category="comm")) == 2
    assert len(log.filter(ranks=[0])) == 2
    assert len(log.filter(op="compute", ranks=[1])) == 1


def test_stats_per_rank_breakdown():
    stats = analyze(make_log())
    r0, r1 = stats.ranks
    assert r0.compute_s == 4.0
    assert r0.comm_s == 6.0
    assert r0.wait_s == 0.0
    assert r1.compute_s == 2.0
    assert r1.wait_s == 2.0
    assert r1.comm_total_s == 8.0


def test_stats_ratios_and_imbalance():
    stats = analyze(make_log())
    assert stats.ranks[0].comm_to_comp_ratio == pytest.approx(1.5)
    assert stats.ranks[1].comm_to_comp_ratio == pytest.approx(4.0)
    assert stats.imbalance == pytest.approx(4.0 / 1.5)
    assert stats.comm_to_comp_ratio == pytest.approx(14.0 / 6.0)


def test_dominant_ops():
    stats = analyze(make_log())
    ops = stats.dominant_ops(1)
    assert ops[0][0] == "alltoall"
    assert ops[0][1] == pytest.approx(12.0)


def test_mean_event_duration():
    stats = analyze(make_log())
    assert stats.mean_event_duration("alltoall") == pytest.approx(6.0)
    assert stats.mean_event_duration("bogus") == 0.0


def test_rank_with_no_compute_has_infinite_ratio():
    log = TraceLog()
    log.record(0, "alltoall", 0.0, 1.0)
    stats = analyze(log)
    assert stats.ranks[0].comm_to_comp_ratio == float("inf")


def test_timeline_renders_rows_and_legend():
    text = render_timeline(make_log(), width=20)
    lines = text.splitlines()
    assert lines[0].startswith("rank   0 |")
    assert lines[1].startswith("rank   1 |")
    assert "#" in lines[0] and "=" in lines[0]
    assert "." in lines[1]  # rank 1's wait band
    assert "compute" in text  # legend


def test_timeline_bucket_dominance():
    text = render_timeline(make_log(), width=10)
    row0 = text.splitlines()[0]
    glyphs = row0.split("|")[1]
    # 40% compute then 60% comm
    assert glyphs == "####======"


def test_timeline_empty_log():
    assert render_timeline(TraceLog()) == "(empty trace)"


def test_timeline_validation():
    with pytest.raises(ValueError):
        render_timeline(make_log(), width=0)
    with pytest.raises(ValueError):
        render_timeline(make_log(), t_begin=5.0, t_end=5.0)
    # A positive window whose per-column width underflows to 0.0.
    tiny = TraceLog()
    tiny.record(0, "compute", 0.0, 5e-324)
    with pytest.raises(ValueError):
        render_timeline(tiny, width=2)


def test_timeline_window_clipping():
    text = render_timeline(make_log(), width=10, t_begin=4.0, t_end=10.0)
    glyphs = text.splitlines()[0].split("|")[1]
    assert set(glyphs) == {"="}
