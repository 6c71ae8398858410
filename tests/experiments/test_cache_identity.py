"""Cache packs against the per-file layout they replaced.

Every pack record is, byte for byte, the text the pre-pack per-file
layout stored in ``ab/<key>.json`` for its key, and reads back
bit-identical to the fresh measurement it was stored from.  The pinned
digests were taken over the per-file entries of the same grids, sorted
by key, so they also pin the record bytes against any later change.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.strategies.external import ExternalStrategy
from repro.core.strategies.internal import InternalStrategy, PhasePolicy
from repro.experiments.campaign import run_campaign
from repro.experiments.parallel import ParallelRunner, RunTask
from repro.experiments.store import MeasurementCache
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.workloads.npb import ALL_CODES
from tests.experiments.test_campaign import REPORT_T_SHA256, _body

#: (entries, sha256 of their texts joined by newlines in key order) of
#: a cold ``run_campaign(klass="T")``.
CAMPAIGN_T = (
    58, "0cb5577a28195dcb3bd51fa8c8b9de79039c92b7571beb8f4afc9da3c8a95469")
#: the same for :func:`_sweep_tasks`.
SWEEP_N16 = (
    78, "f00fd695a3c238d9c8c7475fd631609be0b50a68da65889d6edcf2c6f45da981")


def _sweep_tasks() -> list[RunTask]:
    """EP, FT and CG at class T, N=16, seeds 0 and 1: every EXTERNAL
    gear, and for EP and FT every single-phase INTERNAL policy."""
    mhzs = PENTIUM_M_TABLE.frequencies_mhz()
    fastest = max(mhzs)
    tasks = []
    for code in ("EP", "FT", "CG"):
        w = ALL_CODES[code](klass="T", nprocs=16)
        strategies = [ExternalStrategy(mhz=m) for m in mhzs]
        if code != "CG":
            strategies += [
                InternalStrategy(PhasePolicy({phase}, m, fastest))
                for phase in w.phases
                for m in mhzs
                if m != fastest
            ]
        tasks += [RunTask(w, s, seed) for s in strategies for seed in (0, 1)]
    return tasks


def _hex(x):
    return None if x is None else float.hex(x)


def _fields(m) -> list:
    """Every field of a ``Measurement``, floats as ``float.hex``."""
    return [
        m.workload, m.strategy, _hex(m.elapsed_s), _hex(m.energy_j),
        [(node, _hex(j)) for node, j in m.per_node_energy_j.items()],
        m.dvs_transitions,
        [(_hex(mhz), _hex(s)) for mhz, s in m.time_at_mhz.items()],
        _hex(m.acpi_energy_j), _hex(m.baytech_energy_j), m.report, m.extras,
        None if m.trace is None else [
            (e.rank, e.op, _hex(e.t_begin), _hex(e.t_end), _hex(e.nbytes),
             e.peer)
            for e in m.trace.events
        ],
    ]


@pytest.fixture
def stored(monkeypatch) -> dict:
    """Every ``(key, measurement)`` handed to ``MeasurementCache.put``."""
    items: dict = {}
    real = MeasurementCache.put

    def put(self, batch):
        items.update(batch)
        return real(self, batch)

    monkeypatch.setattr(MeasurementCache, "put", put)
    return items


def _check(root, stored: dict, pinned: tuple) -> None:
    cache = MeasurementCache(root)
    records = cache.records()
    assert sorted(records) == sorted(stored)
    # Each record is one pack line, exactly the per-file entry's text.
    lines = b"".join(p.read_bytes() for p in cache.packs()).splitlines()
    assert sorted(lines) == sorted(records.values())
    blob = b"\n".join(records[key] for key in sorted(records))
    assert (len(records), hashlib.sha256(blob).hexdigest()) == pinned
    fresh = MeasurementCache(root)
    for key, measurement in stored.items():
        assert _fields(fresh.get(key)) == _fields(measurement), key


def test_campaign_packs_hold_the_per_file_bytes(tmp_path, stored) -> None:
    report = run_campaign(klass="T", cache_dir=tmp_path)
    assert hashlib.sha256(_body(report).encode()).hexdigest() == REPORT_T_SHA256
    assert any(m.trace is not None for m in stored.values())
    _check(tmp_path, stored, CAMPAIGN_T)


def test_sweep_packs_hold_the_per_file_bytes(tmp_path, stored) -> None:
    tasks = _sweep_tasks()
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.map(tasks)
    assert len(MeasurementCache(tmp_path).packs()) == 1  # one map call
    _check(tmp_path, stored, SWEEP_N16)
