"""MeasurementCache robustness: corrupt-record eviction and telemetry.

The disk cache must heal itself when a record is corrupt (drop it from
the index, count it, re-simulate, let the new pack supersede it),
visibly in the runner's ``CacheStats`` and rendered telemetry.  A pack
is never rewritten once stored: readers only unlink dead packs.  The
per-file layout of earlier versions (``ab/<key>.json``) is ignored,
and several processes may write one root.
"""

from __future__ import annotations

import builtins
import io
import json
import multiprocessing
import os

from pathlib import Path

import pytest

from repro.core.framework import Measurement
from repro.experiments import store
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


def _keyless(line: str) -> bool:
    """Whether ``line`` does not start like a record, so no key names it."""
    data = line.encode()
    return store._record_key(data, 0, len(data)) is None


@pytest.mark.parametrize("garbage", list(_GARBAGE.values()), ids=list(_GARBAGE))
def test_corrupt_entry_is_evicted(tmp_path, garbage: str) -> None:
    cache = MeasurementCache(tmp_path)
    path = cache.put([(KEY, _measurement())])
    path.write_text(garbage)
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert fresh.evicted_corrupt == 1
    if _keyless(garbage):
        # Indexing found no record in the pack: the dead-pack rule
        # unlinked it in the same listing.
        assert not path.exists()
    else:
        assert path.read_text() == garbage  # evicted in memory only
    healed = fresh.put([(KEY, _measurement())])
    assert fresh.get(KEY) == _measurement()
    assert MeasurementCache(tmp_path).get(KEY) == _measurement()
    # That fresh reader indexed both packs; the corrupt one holds no
    # live record, so its listing unlinked it.
    assert MeasurementCache(tmp_path).packs() == [healed]


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
    before = path.read_bytes()
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert fresh.evicted_corrupt == 1
    # The sibling records still hit, from this reader and a fresh one.
    for reader in (fresh, MeasurementCache(tmp_path)):
        assert reader.get(SIBLINGS[0]) == _measurement("CG.T.4")
        assert reader.get(SIBLINGS[1]) == _measurement("EP.T.4")
    # The pack was not rewritten: a fresh reader evicts the record too.
    assert path.read_bytes() == before
    again = MeasurementCache(tmp_path)
    assert again.get(KEY) is None
    assert again.evicted_corrupt == 1
    # The next put heals the slot.
    healed = fresh.put([(KEY, _measurement())])
    assert fresh.get(KEY) == _measurement()
    assert MeasurementCache(tmp_path).get(KEY) == _measurement()
    # The siblings keep the old pack live, so no listing unlinks it.
    assert MeasurementCache(tmp_path).packs() == [path, healed]
    assert path.read_bytes() == before


def test_every_corrupt_record_of_a_pack_is_evicted(tmp_path) -> None:
    path = MeasurementCache(tmp_path).put(
        [(KEY, _measurement()), (SIBLINGS[0], _measurement())])
    path.write_text(path.read_text().replace('"energy_j": 100.0', '"energy_j": "x"'))
    before = path.read_bytes()
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert fresh.get(SIBLINGS[0]) is None
    assert fresh.evicted_corrupt == 2
    assert path.read_bytes() == before  # evicted in memory only
    healed = fresh.put([(KEY, _measurement()), (SIBLINGS[0], _measurement())])
    assert fresh.get(KEY) == fresh.get(SIBLINGS[0]) == _measurement()
    # A fresh reader's listing finds both records superseded.
    reader = MeasurementCache(tmp_path)
    assert reader.get(KEY) == _measurement() and reader.evicted_corrupt == 0
    assert reader.packs() == [healed]


def test_undecodable_record_is_evicted(tmp_path) -> None:
    path = MeasurementCache(tmp_path).put(
        [(KEY, _measurement()), (SIBLINGS[0], _measurement())])
    path.write_bytes(path.read_bytes().replace(b"FT.T.4", b"FT.T.\xff", 1))
    before = path.read_bytes()
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None
    assert fresh.evicted_corrupt == 1
    assert fresh.get(SIBLINGS[0]) == _measurement()
    assert path.read_bytes() == before
    # A per-file entry is never read, so never evicted nor unlinked.
    old = _write_file(tmp_path / "old", KEY, "")
    old.write_bytes(_entry().encode().replace(b"FT.T.4", b"FT.T.\xff"))
    cache = MeasurementCache(tmp_path / "old")
    assert cache.get(KEY) is None and cache.evicted_corrupt == 0
    assert old.read_bytes() == _entry().encode().replace(b"FT.T.4", b"FT.T.\xff")


def test_pack_cut_mid_record_keeps_its_whole_records(tmp_path) -> None:
    path = MeasurementCache(tmp_path).put(
        [(SIBLINGS[0], _measurement("CG.T.4")), (KEY, _measurement())])
    text = path.read_text()
    path.write_text(text[: len(text) - 40])  # the writer died mid-record
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(SIBLINGS[0]) == _measurement("CG.T.4")
    assert fresh.get(KEY) is None
    assert fresh.evicted_corrupt == 1
    assert path.read_text() == text[: len(text) - 40]  # left as it was


def test_later_put_of_a_key_wins(tmp_path) -> None:
    cache = MeasurementCache(tmp_path)
    cache.put([(KEY, _measurement("CG.T.4"))])
    cache.put([(KEY, _measurement("EP.T.4"))])
    assert cache.get(KEY).workload == "EP.T.4"
    assert len(cache.packs()) == 2  # no new pack listed: none unlinked
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY).workload == "EP.T.4"
    # The fresh reader indexed both packs; the first holds no live
    # record any more, so it is gone.
    (pack,) = cache.packs()
    assert pack.read_bytes().count(b"EP.T.4") == 1
    assert len(MeasurementCache(tmp_path)) == 1
    assert cache.get(KEY).workload == "EP.T.4"


def _unreadable(monkeypatch, *packs: Path) -> None:
    """Make reading ``packs`` fail as another user's pack in a shared
    cache would (``EACCES``); every other file reads as usual."""
    names = {pack.name for pack in packs}
    read_bytes, real_open = Path.read_bytes, open

    def denied(path) -> None:
        if Path(path).name in names:
            raise PermissionError(13, "Permission denied", str(path))

    def guarded_read_bytes(self):
        denied(self)
        return read_bytes(self)

    def guarded_open(file, *args, **kwargs):
        denied(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(Path, "read_bytes", guarded_read_bytes)
    monkeypatch.setattr(store, "open", guarded_open, raising=False)


def test_an_unreadable_new_pack_is_not_unlinked(tmp_path, monkeypatch) -> None:
    writer = MeasurementCache(tmp_path)
    old = writer.put([(KEY, _measurement("CG.T.4"))])
    new = writer.put([(KEY, _measurement("EP.T.4"))])
    reader = MeasurementCache(tmp_path)
    with monkeypatch.context() as patched:
        _unreadable(patched, new)
        assert reader.get(KEY).workload == "CG.T.4"
    # Not read, so not indexed: neither pack counts as dead.
    assert writer.packs() == [old, new]
    reader.refresh()  # the next listing retries the pack
    assert reader.get(KEY).workload == "EP.T.4"
    assert writer.packs() == [new]


def test_a_pack_that_cannot_be_reread_keeps_its_slots(
    tmp_path, monkeypatch
) -> None:
    cache = MeasurementCache(tmp_path)
    pack = cache.put([(KEY, _measurement())])
    with monkeypatch.context() as patched:
        _unreadable(patched, pack)
        assert cache.get(KEY) is None  # a miss, not an eviction
    assert cache.evicted_corrupt == 0
    # A listing that indexes another process's pack leaves it be.
    MeasurementCache(tmp_path).put([(SIBLINGS[0], _measurement())])
    cache.refresh()
    assert cache.get(SIBLINGS[0]) is not None
    assert pack.exists()
    assert cache.get(KEY) is not None


def test_a_slot_whose_bytes_moved_is_a_plain_miss(tmp_path) -> None:
    # Bytes at an indexed offset that no longer start with the key's
    # record head (a cleared root whose pack name came back, or an
    # older version of this cache that cut records out of packs): a
    # miss, not an eviction, and the slot stays.
    path = _pack_with(tmp_path, _entry())
    data = path.read_bytes()
    reader = MeasurementCache(tmp_path)
    assert reader.get(SIBLINGS[0]) == _measurement("CG.T.4")
    path.write_bytes(data.split(b"\n", 1)[1])  # the first record cut out
    assert reader.get(KEY) is None and reader.evicted_corrupt == 0
    path.write_bytes(data)
    assert reader.get(KEY) == _measurement()


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
    assert cache.evicted_corrupt == 0


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
    # Per-file entries are neither counted, listed nor cleared.
    files = [_write_file(tmp_path, SIBLINGS[0], _entry()),
             _write_file(tmp_path, SIBLINGS[1], _entry())]
    assert len(cache) == 2
    records = cache.records()
    assert sorted(records) == sorted([KEY, SIBLINGS[0]])
    assert json.loads(records[SIBLINGS[0]])["measurement"]["workload"] == "CG.T.4"
    assert cache.clear() == 2
    assert len(cache) == 0 and cache.packs() == []
    assert all(path.read_text() == _entry() for path in files)
    assert cache.get(KEY) is None and cache.get(SIBLINGS[1]) is None
    assert MeasurementCache(tmp_path / "none").clear() == 0  # no root yet


def test_len_counts_keys_one_pack_at_a_time(tmp_path, monkeypatch) -> None:
    # A superseded pack, and a pack with a corrupt record and a keyless
    # line: a key counts once, corrupt or not; the keyless line never.
    MeasurementCache(tmp_path).put([(SIBLINGS[0], _measurement("CG.T.4"))])
    mixed = _pack_with(tmp_path, _entry(workload=4))
    mixed.write_text(mixed.read_text() + "{truncated\n")
    cache = MeasurementCache(tmp_path)
    assert len(cache.packs()) == 2
    count = len(cache.records())
    assert count == 3

    def refuse(self):
        raise AssertionError("len() read every record")

    monkeypatch.setattr(MeasurementCache, "records", refuse)
    assert len(cache) == count
    assert cache.clear() == count
    assert cache.packs() == []


# ----------------------------------------------------------------------
# on-disk layout
# ----------------------------------------------------------------------
def test_default_layout_is_the_historical_one(tmp_path) -> None:
    # Caches written one ``ab/<key>.json`` file per point are ignored:
    # such an entry, byte for byte as that layout stored it, is a miss
    # and stays where it is.
    path = _write_file(tmp_path, KEY, _entry())
    cache = MeasurementCache(tmp_path)
    assert cache.get(KEY) is None
    assert len(cache) == 0 and cache.evicted_corrupt == 0
    assert path.read_text() == _entry()
    # A record is still exactly the text of such an entry.
    pack = MeasurementCache(tmp_path / "new").put([(KEY, _measurement())])
    assert pack.read_bytes() == path.read_bytes() + b"\n"


@pytest.mark.parametrize("garbage", ["{truncated", _entry(workload=4)])
def test_corrupt_per_file_entry_is_unlinked(tmp_path, garbage) -> None:
    # Not read, so neither evicted nor unlinked: a plain miss.
    path = _write_file(tmp_path, KEY, garbage)
    cache = MeasurementCache(tmp_path)
    assert cache.get(KEY) is None
    assert cache.evicted_corrupt == 0
    assert path.read_text() == garbage


def test_put_into_a_fresh_root_creates_it(tmp_path) -> None:
    root = tmp_path / "not" / "yet"
    path = MeasurementCache(root).put([(KEY, _measurement())])
    assert path.parent == root and path.name.endswith(PACK_SUFFIX)
    assert MeasurementCache(root).get(KEY) == _measurement()
    assert [p.name for p in root.iterdir()] == [path.name]  # no .tmp


def test_put_into_an_existing_fan_out_dir(tmp_path) -> None:
    # A root that already holds per-file entries takes packs beside
    # them; only packs serve, and the per-file entry is left alone.
    old = _write_file(tmp_path, KEY, _entry())
    other = KEY[:2] + "1" * 62
    cache = MeasurementCache(tmp_path)
    path = cache.put([(other, _measurement("CG.T.4"))])
    assert path.parent == tmp_path
    assert sorted(p.name for p in old.parent.iterdir()) == [f"{KEY}.json"]
    assert cache.get(other).workload == "CG.T.4"
    assert cache.get(KEY) is None  # the per-file entry is not read
    cache.put([(KEY, _measurement("EP.T.4"))])
    assert cache.get(KEY).workload == "EP.T.4"
    assert MeasurementCache(tmp_path).get(KEY).workload == "EP.T.4"
    assert old.read_text() == _entry()


def test_cold_lookup_in_a_pack_only_root_reads_no_file(tmp_path, monkeypatch):
    cache = MeasurementCache(tmp_path)
    cache.put([(SIBLINGS[0], _measurement())])
    opened = []
    real = Path.read_bytes
    monkeypatch.setattr(Path, "read_bytes",
                        lambda self: opened.append(self) or real(self))
    assert cache.get(KEY) is None and opened == []
    # Nor does a root with a fan-out directory and a per-file entry.
    _write_file(tmp_path, KEY, _entry())
    cache.refresh()
    assert cache.get(KEY) is None
    assert opened == []
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
    before = path.read_bytes()
    early = MeasurementCache(tmp_path)
    assert early.get(SIBLINGS[0]) is not None  # indexed before the eviction
    late = MeasurementCache(tmp_path)
    assert late.get(KEY) is None  # evicts KEY's record from its index
    assert late.evicted_corrupt == 1
    assert path.read_bytes() == before  # ... and only there
    # The early reader's slots still point at the same bytes.
    assert early.get(SIBLINGS[1]) == _measurement("EP.T.4")
    assert early.evicted_corrupt == 0
    assert early.get(KEY) is None
    assert early.evicted_corrupt == 1
    path.unlink()  # cleared under both readers
    assert early.get(SIBLINGS[0]) is None


def _snapshot(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in root.iterdir() if p.is_file()}


def test_readers_never_write(tmp_path, monkeypatch) -> None:
    # A root holding a superseded pack, a pack with a corrupt record
    # and a keyless line, and a pack this reader cannot read at first.
    superseded = MeasurementCache(tmp_path).put(
        [(SIBLINGS[0], _measurement("CG.T.4"))])
    mixed = _pack_with(tmp_path, _entry(workload=4))
    mixed.write_text(mixed.read_text() + "{truncated\n")
    hidden = MeasurementCache(tmp_path).put([(SHARED, _measurement())])
    before = _snapshot(tmp_path)

    def refuse(*args, **kwargs):
        raise AssertionError(f"a reader wrote: {args!r}")

    def guard(real):
        def guarded(file, mode="r", *args, **kwargs):
            if set(mode) & set("wax+"):
                refuse(file, mode)
            return real(file, mode, *args, **kwargs)
        return guarded

    writes = os.O_WRONLY | os.O_RDWR | os.O_CREAT | os.O_TRUNC | os.O_APPEND
    real_os_open, real_unlink = os.open, Path.unlink

    def os_open(path, flags, *args, **kwargs):
        if flags & writes:
            refuse(path, flags)
        return real_os_open(path, flags, *args, **kwargs)

    unlinked = []

    def unlink(self, *args, **kwargs):
        unlinked.append(self.name)
        return real_unlink(self, *args, **kwargs)

    monkeypatch.setattr(store, "_replacing", refuse)
    monkeypatch.setattr(builtins, "open", guard(builtins.open))
    monkeypatch.setattr(io, "open", guard(io.open))
    monkeypatch.setattr(os, "open", os_open)
    for name in ("replace", "rename", "write_bytes", "write_text", "touch"):
        monkeypatch.setattr(Path, name, refuse)
    monkeypatch.setattr(os, "replace", refuse)
    monkeypatch.setattr(os, "rename", refuse)
    monkeypatch.setattr(Path, "unlink", unlink)

    reader = MeasurementCache(tmp_path)
    with monkeypatch.context() as patched:
        _unreadable(patched, hidden)
        assert reader.get(KEY) is None
        assert reader.evicted_corrupt == 2  # the keyless line and KEY's
        assert reader.get(SIBLINGS[0]) == _measurement("CG.T.4")
        assert reader.get(SIBLINGS[1]) == _measurement("EP.T.4")
        assert reader.get(SHARED) is None  # not indexed
    reader.refresh()
    assert reader.get(SHARED) == _measurement()
    assert reader.get(KEY) is None and reader.evicted_corrupt == 2
    fresh = MeasurementCache(tmp_path)
    assert fresh.get(KEY) is None and fresh.evicted_corrupt == 2
    assert len(fresh) == 4
    assert sorted(fresh.records()) == sorted([KEY, SHARED, *SIBLINGS])
    monkeypatch.undo()

    # The one change the readers made: the dead-pack unlink.
    assert unlinked == [superseded.name]
    del before[superseded.name]
    assert _snapshot(tmp_path) == before


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
