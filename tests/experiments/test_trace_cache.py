"""Traced runs in the measurement cache.

A traced point's cache entry carries its trace as ``trace_to_csv``
text, so a second runner on the same cache directory serves it
without simulating: every trace event comes back in log order, and
everything the figures read off the log (``analyze``,
``render_timeline``) is unchanged.  A warm campaign therefore replays
Figures 9 and 12 from disk too.
"""

from __future__ import annotations

import json

import pytest

import repro.experiments.parallel as parallel
import repro.sim.straightline as straightline
from repro.experiments.campaign import run_campaign
from repro.experiments.parallel import ParallelRunner
from repro.experiments.store import MeasurementCache
from repro.trace.jumpshot import render_timeline
from repro.trace.stats import analyze
from repro.workloads import get_workload
from repro.workloads.npb import ALL_CODES

_SUMMARY = ("workload", "strategy", "elapsed_s", "energy_j",
            "per_node_energy_j", "dvs_transitions", "time_at_mhz",
            "acpi_energy_j", "baytech_energy_j", "extras")


#: every NPB code runs at N = 4 (BT/SP need a square, MG an even count)
CASES = [(code, "T", 4) for code in sorted(ALL_CODES)] + [
    ("FT", "C", 8), ("CG", "C", 8)
]


@pytest.fixture
def spies(monkeypatch) -> dict:
    """Calls into the per-point path and the batch tier, by name."""
    calls: dict = {"_execute": [], "run_batch": []}
    for module, name in ((parallel, "_execute"), (straightline, "run_batch")):
        real = getattr(module, name)

        def spy(*args, _real=real, _name=name, **kwargs):
            calls[_name].append(args)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
    return calls


@pytest.mark.parametrize("code,klass,n", CASES)
def test_traced_run_round_trips_through_cache(tmp_path, spies, code, klass, n):
    w = get_workload(code, klass=klass, nprocs=n)
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        fresh = runner.run(w, trace=True)
    assert runner.stats.stores == 1
    assert len(spies["_execute"]) == 1

    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        cached = runner.run(w, trace=True)
    assert (runner.stats.hits, runner.stats.misses) == (1, 0)
    assert len(spies["_execute"]) == 1  # the second runner ran nothing
    assert not spies["run_batch"]

    assert cached.trace is not fresh.trace
    assert cached.trace.events == fresh.trace.events  # log order kept
    for r in range(n):
        assert cached.trace.for_rank(r) == fresh.trace.for_rank(r)
    assert analyze(cached.trace) == analyze(fresh.trace)
    assert render_timeline(cached.trace, width=96) == render_timeline(
        fresh.trace, width=96
    )
    for field in _SUMMARY:
        assert getattr(cached, field) == getattr(fresh, field), field


def test_traced_and_untraced_points_keep_separate_entries(tmp_path):
    w = get_workload("CG", klass="T", nprocs=4)
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        plain = runner.run(w)
        traced = runner.run(w, trace=True)
    assert plain.trace is None and traced.trace is not None
    entries = [
        json.loads(text)["measurement"]
        for text in MeasurementCache(tmp_path).records().values()
    ]
    assert sorted("trace" in e for e in entries) == [False, True]

    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        assert runner.run(w).trace is None
        assert runner.run(w, trace=True).trace.events == traced.trace.events
    assert runner.stats.hits == 2


def test_warm_campaign_simulates_nothing(tmp_path, monkeypatch, spies):
    # Figure 1 drives the event engine directly (no runner), so it is
    # the one figure a warm campaign still simulates.
    cold = run_campaign(klass="T", cache_dir=tmp_path)
    assert spies["_execute"] and spies["run_batch"]
    spies["_execute"].clear()
    spies["run_batch"].clear()

    served = []
    real_get = MeasurementCache.get

    def get(self, key):
        m = real_get(self, key)
        served.append(m)
        return m

    monkeypatch.setattr(MeasurementCache, "get", get)
    warm = run_campaign(klass="T", cache_dir=tmp_path)

    assert spies == {"_execute": [], "run_batch": []}
    assert served and None not in served
    traced = sorted(m.workload for m in served if m.trace is not None)
    assert traced == ["CG.T.8", "FT.T.8"]  # Figures 12 and 9
    assert "0 misses" in warm
    strip = lambda text: text.rsplit("---", 1)[0]
    assert strip(warm) == strip(cold)
