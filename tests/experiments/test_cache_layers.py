"""MeasurementCache robustness: corrupt-entry eviction and telemetry.

The disk cache must heal itself when an entry is corrupt (unlink it,
count it, re-simulate), visibly in ``CacheStats`` and the runner's
rendered telemetry.  The on-disk layout is pinned, so existing caches
stay valid.
"""

from __future__ import annotations

import json

import pytest

from repro.core.framework import Measurement
from repro.experiments.report import render_runner_stats
from repro.experiments.store import CacheStats, MeasurementCache


def _measurement(tag: str = "FT.T.4") -> Measurement:
    return Measurement(
        workload=tag,
        strategy="test",
        elapsed_s=1.25,
        energy_j=100.0,
        per_node_energy_j={0: 50.0, 1: 50.0},
        dvs_transitions=3,
        time_at_mhz={1400.0: 2.5},
        acpi_energy_j=None,
        baytech_energy_j=None,
        trace=None,
        report=None,
        extras={},
    )


KEY = "ab" + "0" * 62


# ----------------------------------------------------------------------
# corrupt-entry eviction
# ----------------------------------------------------------------------
_ENTRY = {
    "workload": "FT.T.4",
    "strategy": "test",
    "elapsed_s": 1.25,
    "energy_j": 100.0,
    "per_node_energy_runs": [[0, 2, 50.0]],
    "dvs_transitions": 3,
    "time_at_mhz": {"1400.0": 2.5},
    "acpi_energy_j": None,
    "baytech_energy_j": None,
}


def _entry(drop: str = "", **fields) -> str:
    """A well-formed entry with ``fields`` replaced and ``drop`` removed."""
    measurement = {**_ENTRY, **fields}
    measurement.pop(drop, None)
    return json.dumps({"key": KEY, "measurement": measurement})


def _legacy(per_node) -> str:
    return _entry(drop="per_node_energy_runs", per_node_energy_j=per_node)


_TRACE_HEADER = "rank,op,t_begin,t_end,nbytes,peer\r\n"

_GARBAGE = {
    "bad-json": "{truncated",
    "missing-field": '{"key": "x"}',
    "wrong-type": '{"measurement": "not a dict"}',
    "empty": "",
    "measurement-list": '{"measurement": []}',
    # a field of the wrong JSON type
    "legacy-per-node-list": _legacy([50.0, 50.0]),
    "legacy-value-list": _legacy({"0": [50.0], "1": 50.0}),
    "runs-dict": _entry(per_node_energy_runs={"0": 50.0}),
    "workload-int": _entry(workload=4),
    "elapsed-str": _entry(elapsed_s="1.25"),
    "transitions-float": _entry(dvs_transitions=3.0),
    "time-at-mhz-list": _entry(time_at_mhz=[[1400.0, 2.5]]),
    "acpi-str": _entry(acpi_energy_j="12"),
    "extras-list": _entry(extras=[1]),
    "joules-str": _entry(per_node_energy_runs=[[0, 2, "50.0"]]),
    # a run with the wrong arity (or not a list at all)
    "run-short": _entry(per_node_energy_runs=[[0, 2]]),
    "run-long": _entry(per_node_energy_runs=[[0, 2, 50.0, 1]]),
    "run-str": _entry(per_node_energy_runs=["abc"]),
    # non-int node id or count
    "node-float": _entry(per_node_energy_runs=[[0.0, 2, 50.0]]),
    "count-str": _entry(per_node_energy_runs=[[0, "2", 50.0]]),
    "count-bool": _entry(per_node_energy_runs=[[0, True, 50.0]]),
    # count < 1
    "count-zero": _entry(per_node_energy_runs=[[0, 0, 50.0]]),
    "count-negative": _entry(per_node_energy_runs=[[0, -1, 50.0]]),
    # a node id repeated across runs
    "node-repeated": _entry(per_node_energy_runs=[[0, 2, 50.0], [1, 1, 50.0]]),
    # a traced entry whose trace does not decode
    "trace-int": _entry(trace=12),
    "trace-list": _entry(trace=["rank,op,t_begin,t_end,nbytes,peer"]),
    "trace-bad-header": _entry(trace="rank,op\r\n0,compute\r\n"),
    "trace-short-row": _entry(trace=_TRACE_HEADER + "0,compute,0.0,1.0\r\n"),
    "trace-backwards": _entry(
        trace=_TRACE_HEADER + "0,compute,2.0,1.0,0.0,-1\r\n"
    ),
    "trace-stray-cr": _entry(
        trace=_TRACE_HEADER + "0,comp\rute,0.0,1.0,0.0,-1\r\n"
    ),
}


@pytest.mark.parametrize("garbage", list(_GARBAGE.values()), ids=list(_GARBAGE))
def test_corrupt_entry_is_evicted(tmp_path, garbage: str) -> None:
    cache = MeasurementCache(tmp_path)
    path = cache.put(KEY, _measurement())
    path.write_text(garbage)
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert fresh.stats.evicted_corrupt == 1
    assert fresh.stats.misses == 1
    assert not path.exists()  # the slot healed: next put re-creates it
    fresh.put(KEY, _measurement())
    assert MeasurementCache(tmp_path).get(KEY) is not None


def test_missing_entry_is_a_plain_miss(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    assert cache.get(KEY) is None
    assert cache.stats.misses == 1
    assert cache.stats.evicted_corrupt == 0


def test_clear_removes_every_entry(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    cache.put(KEY, _measurement())
    assert cache.clear() == 1
    assert cache.get(KEY) is None


# ----------------------------------------------------------------------
# on-disk layout
# ----------------------------------------------------------------------
def test_default_layout_is_the_historical_one(tmp_path) -> None:
    # The store must keep writing ``ab/<key>.json`` — changing it would
    # strand every existing cache.
    path = MeasurementCache(tmp_path).put(KEY, _measurement())
    assert path == tmp_path / KEY[:2] / f"{KEY}.json"


def test_put_into_a_fresh_root_creates_it(tmp_path) -> None:
    root = tmp_path / "not" / "yet"
    path = MeasurementCache(root).put(KEY, _measurement())
    assert path == root / KEY[:2] / f"{KEY}.json"
    assert MeasurementCache(root).get(KEY) == _measurement()
    assert [p.name for p in path.parent.iterdir()] == [path.name]  # no .tmp


def test_put_into_an_existing_fan_out_dir(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    cache.put(KEY, _measurement())
    other = KEY[:2] + "1" * 62
    path = cache.put(other, _measurement("CG.T.4"))
    cache.put(KEY, _measurement("EP.T.4"))  # overwrite in place
    assert sorted(p.name for p in path.parent.iterdir()) == [
        f"{KEY}.json", f"{other}.json"]
    assert cache.get(other).workload == "CG.T.4"
    assert cache.get(KEY).workload == "EP.T.4"


# ----------------------------------------------------------------------
# telemetry rendering
# ----------------------------------------------------------------------
def test_stats_render_mentions_new_counters() -> None:
    stats = CacheStats(
        hits=5,
        misses=2,
        stores=2,
        evicted_corrupt=1,
        straightline_fallbacks=2,
    )
    text = stats.render()
    assert "1 corrupt entries evicted" in text
    assert "2 event-engine fallbacks" in text


def test_stats_render_lists_fallback_reasons() -> None:
    stats = CacheStats(straightline_fallbacks=3)
    stats.count_fallback("p2p_unclassifiable", 2)
    stats.count_fallback("divergent_control")
    stats.count_fallback(None)  # successes carry no reason: ignored
    stats.count_fallback("")  # defensive: empty codes are ignored too
    assert stats.fallback_reasons == {
        "p2p_unclassifiable": 2,
        "divergent_control": 1,
    }
    text = stats.render()
    assert "fallback reasons" in text
    assert "p2p_unclassifiable x2" in text
    assert "divergent_control x1" in text


def test_stats_render_silent_without_fallback_reasons() -> None:
    assert "fallback reasons" not in CacheStats(hits=1).render()


def test_render_runner_stats_includes_disk_line(tmp_path) -> None:
    class FakeRunner:
        def __init__(self, cache):
            self.stats = CacheStats(hits=1, misses=0)
            self.cache = cache

    cache = MeasurementCache(tmp_path)
    quiet = render_runner_stats(FakeRunner(cache))
    assert "disk" not in quiet
    cache.stats.evicted_corrupt = 2
    cache.stats.misses = 2
    loud = render_runner_stats(FakeRunner(cache))
    assert "disk" in loud and "2 corrupt entries evicted" in loud
