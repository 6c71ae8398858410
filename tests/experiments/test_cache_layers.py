"""MeasurementCache robustness: corrupt-record eviction and telemetry.

The disk cache must heal itself when a record is corrupt (cut it out
of its pack or unlink its file, count it, re-simulate), visibly in
``CacheStats`` and the runner's rendered telemetry.  Caches in the
per-file layout of earlier versions stay readable, and several
processes may write one root.
"""

from __future__ import annotations

import json
import multiprocessing

from pathlib import Path

import pytest

from repro.core.framework import Measurement
from repro.experiments.cli import main
from repro.experiments.parallel import ParallelRunner
from repro.experiments.store import PACK_SUFFIX, CacheStats, MeasurementCache
from repro.workloads import get_workload


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
    path = cache.put([(KEY, _measurement())])
    path.write_text(garbage)
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert fresh.stats.evicted_corrupt == 1
    assert fresh.stats.misses == 1
    assert not path.exists()  # nothing valid was left in the pack
    fresh.put([(KEY, _measurement())])
    assert MeasurementCache(tmp_path).get(KEY) is not None


SIBLINGS = ["12" + "3" * 62, "ef" + "4" * 62]


def _pack_with(tmp_path, line: str):
    """A three-record pack whose middle record (``KEY``'s) is ``line``."""
    path = MeasurementCache(tmp_path).put([
        (SIBLINGS[0], _measurement("CG.T.4")),
        (KEY, _measurement()),
        (SIBLINGS[1], _measurement("EP.T.4")),
    ])
    lines = path.read_text().split("\n")
    assert len(lines) == 4 and lines[3] == ""
    lines[1] = line
    path.write_text("\n".join(lines))
    return path


@pytest.mark.parametrize("garbage", list(_GARBAGE.values()), ids=list(_GARBAGE))
def test_corrupt_record_in_a_pack_is_evicted_alone(tmp_path, garbage) -> None:
    path = _pack_with(tmp_path, garbage)
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert fresh.stats.evicted_corrupt == 1
    assert fresh.stats.misses == 1
    # The sibling records still hit, from this reader and a fresh one.
    for reader in (fresh, MeasurementCache(tmp_path)):
        assert reader.get(SIBLINGS[0]) == _measurement("CG.T.4")
        assert reader.get(SIBLINGS[1]) == _measurement("EP.T.4")
    assert path.exists()
    # The record was cut out of the pack: a fresh reader plainly misses.
    again = MeasurementCache(tmp_path)
    assert again.get(KEY) is None
    assert (again.stats.evicted_corrupt, again.stats.misses) == (0, 1)
    assert sorted(json.loads(line)["key"]
                  for line in path.read_text().splitlines()) == SIBLINGS
    # The next put heals the slot.
    fresh.put([(KEY, _measurement())])
    assert fresh.get(KEY) == _measurement()
    assert MeasurementCache(tmp_path).get(KEY) == _measurement()


def test_every_corrupt_record_of_a_pack_is_evicted(tmp_path) -> None:
    path = MeasurementCache(tmp_path).put(
        [(KEY, _measurement()), (SIBLINGS[0], _measurement())])
    path.write_text(path.read_text().replace('"energy_j": 100.0', '"energy_j": "x"'))
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert path.exists()  # SIBLINGS[0] is still live
    assert fresh.get(SIBLINGS[0]) is None
    assert fresh.stats.evicted_corrupt == 2
    assert not path.exists()  # nothing valid left


def test_undecodable_record_is_evicted(tmp_path) -> None:
    path = MeasurementCache(tmp_path).put(
        [(KEY, _measurement()), (SIBLINGS[0], _measurement())])
    path.write_bytes(path.read_bytes().replace(b"FT.T.4", b"FT.T.\xff", 1))
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert (fresh.stats.evicted_corrupt, fresh.stats.misses) == (1, 1)
    assert fresh.get(SIBLINGS[0]) == _measurement()
    old = _write_file(tmp_path / "old", KEY, "")
    old.write_bytes(_entry().encode().replace(b"FT.T.4", b"FT.T.\xff"))
    cache = MeasurementCache(tmp_path / "old")
    assert cache.get(KEY) is None and cache.stats.evicted_corrupt == 1
    assert not old.exists()


def test_pack_cut_mid_record_keeps_its_whole_records(tmp_path) -> None:
    path = MeasurementCache(tmp_path).put(
        [(SIBLINGS[0], _measurement("CG.T.4")), (KEY, _measurement())])
    text = path.read_text()
    path.write_text(text[: len(text) - 40])  # the writer died mid-record
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(SIBLINGS[0]) == _measurement("CG.T.4")
    assert fresh.get(KEY) is None
    assert (fresh.stats.evicted_corrupt, fresh.stats.misses) == (1, 1)
    assert path.read_text() == text.split("\n")[0] + "\n"


def test_later_put_of_a_key_wins(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    cache.put([(KEY, _measurement("CG.T.4"))])
    cache.put([(KEY, _measurement("EP.T.4"))])
    assert cache.get(KEY).workload == "EP.T.4"
    assert MeasurementCache(tmp_path).get(KEY).workload == "EP.T.4"
    assert len(MeasurementCache(tmp_path)) == 1


def test_failed_put_leaves_no_file(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    bad = _measurement()
    bad.extras["x"] = object()  # not JSON: encoding the record fails
    with pytest.raises(TypeError):
        cache.put([(SIBLINGS[0], _measurement()), (KEY, bad)])
    assert list(tmp_path.iterdir()) == []
    assert cache.get(SIBLINGS[0]) is None


def test_put_needs_a_measurement(tmp_path) -> None:
    with pytest.raises(ValueError):
        MeasurementCache(tmp_path).put([])
    assert list(tmp_path.iterdir()) == []


def test_missing_entry_is_a_plain_miss(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    assert cache.get(KEY) is None
    assert cache.stats.misses == 1
    assert cache.stats.evicted_corrupt == 0


def test_clear_removes_every_entry(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    cache.put([(KEY, _measurement())])
    assert cache.clear() == 1
    assert cache.get(KEY) is None


def _write_file(root, key: str, text: str):
    """An entry in the per-file layout (``ab/<key>.json``)."""
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_counts_are_measurements_across_both_layouts(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    cache.put([(KEY, _measurement()), (SIBLINGS[0], _measurement())])
    cache.put([(SIBLINGS[0], _measurement("CG.T.4"))])  # a newer record
    _write_file(tmp_path, SIBLINGS[0], _entry())  # shadowed by the packs
    _write_file(tmp_path, SIBLINGS[1], _entry())
    assert len(cache) == 3
    records = cache.records()
    assert sorted(records) == sorted([KEY, *SIBLINGS])
    assert json.loads(records[SIBLINGS[0]])["measurement"]["workload"] == "CG.T.4"
    assert records[SIBLINGS[1]] == _entry().encode()
    assert cache.clear() == 3
    assert len(cache) == 0 and list(tmp_path.iterdir()) == []
    assert cache.get(KEY) is None and cache.get(SIBLINGS[1]) is None
    assert MeasurementCache(tmp_path / "none").clear() == 0  # no root yet


# ----------------------------------------------------------------------
# on-disk layout
# ----------------------------------------------------------------------
def test_default_layout_is_the_historical_one(tmp_path) -> None:
    # Caches written one ``ab/<key>.json`` file per point stay valid:
    # such an entry, byte for byte as that layout stored it, is a hit.
    path = _write_file(tmp_path, KEY, _entry())
    cache = MeasurementCache(tmp_path)
    assert cache.get(KEY) == _measurement()
    assert (cache.stats.hits, cache.stats.misses) == (1, 0)
    assert path.exists()
    # A record is exactly the text of such an entry.
    pack = MeasurementCache(tmp_path / "new").put([(KEY, _measurement())])
    assert pack.read_bytes() == path.read_bytes() + b"\n"


@pytest.mark.parametrize("garbage", ["{truncated", _entry(workload=4)])
def test_corrupt_per_file_entry_is_unlinked(tmp_path, garbage) -> None:
    path = _write_file(tmp_path, KEY, garbage)
    cache = MeasurementCache(tmp_path)
    assert cache.get(KEY) is None
    assert (cache.stats.evicted_corrupt, cache.stats.misses) == (1, 1)
    assert not path.exists()


def test_put_into_a_fresh_root_creates_it(tmp_path) -> None:
    root = tmp_path / "not" / "yet"
    path = MeasurementCache(root).put([(KEY, _measurement())])
    assert path.parent == root and path.name.endswith(PACK_SUFFIX)
    assert MeasurementCache(root).get(KEY) == _measurement()
    assert [p.name for p in root.iterdir()] == [path.name]  # no .tmp


def test_put_into_an_existing_fan_out_dir(tmp_path) -> None:
    # A root that already holds per-file entries takes packs beside
    # them; both layouts serve, and a newer pack record wins.
    old = _write_file(tmp_path, KEY, _entry())
    other = KEY[:2] + "1" * 62
    cache = MeasurementCache(tmp_path)
    path = cache.put([(other, _measurement("CG.T.4"))])
    assert path.parent == tmp_path
    assert sorted(p.name for p in old.parent.iterdir()) == [f"{KEY}.json"]
    assert cache.get(other).workload == "CG.T.4"
    assert cache.get(KEY).workload == "FT.T.4"  # the per-file entry
    cache.put([(KEY, _measurement("EP.T.4"))])
    assert cache.get(KEY).workload == "EP.T.4"
    assert MeasurementCache(tmp_path).get(KEY).workload == "EP.T.4"


def test_cold_lookup_in_a_pack_only_root_reads_no_file(tmp_path, monkeypatch):
    cache = MeasurementCache(tmp_path)
    cache.put([(SIBLINGS[0], _measurement())])
    opened = []
    real = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes",
                        lambda self: opened.append(self) or real(self))
    assert cache.get(KEY) is None and opened == []
    # A fan-out directory turns per-file lookups on at the next listing.
    (tmp_path / SIBLINGS[1][:2]).mkdir()
    cache.refresh()
    assert cache.get(KEY) is None
    assert opened == [tmp_path / KEY[:2] / f"{KEY}.json"]
    assert cache.get(SIBLINGS[0]) == _measurement()


# ----------------------------------------------------------------------
# several processes, one root
# ----------------------------------------------------------------------
SHARED = "5a" + "6" * 62


def _writer(root: str, workload: str) -> None:
    """Store one private key and ``SHARED``, as a second process."""
    MeasurementCache(root).put([
        (_writer_key(workload), _measurement(workload)),
        (SHARED, _measurement(workload)),
    ])


def _writer_key(workload: str) -> str:
    return workload[:2].lower().ljust(64, "7")


def test_two_processes_share_one_root(tmp_path) -> None:
    reader = MeasurementCache(tmp_path)
    assert reader.get(SHARED) is None  # its index predates both packs
    ctx = multiprocessing.get_context("spawn")
    for workload in ("CG.T.4", "EP.T.4"):
        proc = ctx.Process(target=_writer, args=(str(tmp_path), workload))
        proc.start()
        proc.join(60)
        assert proc.exitcode == 0
    fresh = MeasurementCache(tmp_path)
    for workload in ("CG.T.4", "EP.T.4"):
        assert fresh.get(_writer_key(workload)) == _measurement(workload)
    assert fresh.get(SHARED) == _measurement("EP.T.4")  # the later pack
    assert fresh.stats.hits == 3
    # The older reader sees the other writers' packs only once told a
    # new map call started; then it hits them too.
    assert reader.get(_writer_key("CG.T.4")) is None
    reader.refresh()
    assert reader.get(_writer_key("CG.T.4")) == _measurement("CG.T.4")
    assert reader.get(SHARED) == _measurement("EP.T.4")


def test_runner_picks_up_another_writers_pack_on_its_next_map(tmp_path):
    w = get_workload("EP", klass="T", nprocs=4)
    other = get_workload("FT", klass="T", nprocs=4)
    with ParallelRunner(jobs=1, cache_dir=tmp_path, memo=False) as runner:
        runner.run(w)  # the runner's index now predates the next pack
        with ParallelRunner(jobs=1, cache_dir=tmp_path) as writer:
            fresh = writer.run(other)
        assert runner.run(other) == fresh
        assert (runner.stats.hits, runner.stats.misses) == (1, 1)


def test_a_record_cut_out_by_another_reader_is_found_again(tmp_path) -> None:
    path = _pack_with(tmp_path, _entry(workload=4))
    early = MeasurementCache(tmp_path)
    assert early.get(SIBLINGS[0]) is not None  # indexed before the cut
    late = MeasurementCache(tmp_path)
    assert late.get(KEY) is None  # cuts KEY's record out of the pack
    assert early.get(SIBLINGS[1]) == _measurement("EP.T.4")  # moved
    assert early.get(KEY) is None
    assert early.stats.evicted_corrupt == 0 and path.exists()
    path.unlink()  # cleared under both readers
    assert early.get(SIBLINGS[0]) is None


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


def test_runner_stats_count_corrupt_evictions(tmp_path) -> None:
    w = get_workload("EP", klass="T", nprocs=4)
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.run(w)
    assert "corrupt" not in runner.stats.render()
    [path] = MeasurementCache(tmp_path).packs()
    path.write_text(path.read_text()[:40])  # truncated mid-write
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.run(w)
    assert runner.stats.evicted_corrupt == 1
    assert (runner.stats.misses, runner.stats.stores) == (1, 1)
    assert "1 corrupt entries evicted" in runner.stats.render()


def test_cli_reports_corrupt_evictions(tmp_path, capsys) -> None:
    argv = ["table2", "--class", "T", "--codes", "EP",
            "--cache-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "corrupt entries evicted" not in capsys.readouterr().out
    path = MeasurementCache(tmp_path).packs()[0]
    path.write_text(path.read_text()[:40])
    assert main(argv) == 0
    assert "1 corrupt entries evicted" in capsys.readouterr().out
