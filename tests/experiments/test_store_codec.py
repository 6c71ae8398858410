"""The cache entry codec: per-node energies as node runs.

A cache entry stores per-node energies as ``per_node_energy_runs``
(``[first_node, count, joules]`` over the dict's iteration order), so
an SPMD program at a thousand nodes writes a handful of runs instead
of a thousand-key dict.  The invariants:

* ``put``/``get`` round-trips every per-node value bit for bit (±0.0,
  ±inf, NaN, subnormals, ints) and the dict's iteration order;
* entries written before the runs form (a ``{"<node>": joules}`` dict,
  its keys sorted as strings) are still hits, decoded in node order;
* a cache hit iterates its nodes exactly like a fresh run, so summing
  the per-node energies gives ``energy_j`` bit for bit.
"""

from __future__ import annotations

import json
import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.framework import Measurement
from repro.core.strategies import ExternalStrategy, NoDvsStrategy
from repro.experiments.parallel import ParallelRunner, RunTask
from repro.experiments.store import MeasurementCache
from repro.workloads import get_workload

KEY = "ef" + "0" * 62


def _measurement(per_node, time_at_mhz=None, extras=None) -> Measurement:
    return Measurement(
        workload="CG.T.4",
        strategy="test",
        elapsed_s=1.25,
        energy_j=100.0,
        per_node_energy_j=per_node,
        dvs_transitions=3,
        time_at_mhz={1400.0: 2.5} if time_at_mhz is None else time_at_mhz,
        extras={} if extras is None else extras,
    )


def _round_trip(tmp_path, measurement: Measurement) -> Measurement:
    MeasurementCache(tmp_path).put([(KEY, measurement)])
    fresh = MeasurementCache(tmp_path)  # a disk read, not the hot layer
    got = fresh.get(KEY)
    assert got is not None
    assert fresh.stats.hits == 1 and fresh.stats.evicted_corrupt == 0
    return got


def _entry(tmp_path) -> dict:
    (text,) = MeasurementCache(tmp_path).records().values()
    return json.loads(text)["measurement"]


def _assert_same_energies(got: dict, want: dict) -> None:
    assert list(got) == list(want)
    for node, joules in want.items():
        value = got[node]
        assert type(value) is float
        if math.isnan(joules):
            assert math.isnan(value)
        else:
            assert value.hex() == float(joules).hex(), node


# ----------------------------------------------------------------------
# round trip
# ----------------------------------------------------------------------
_SPECIAL = st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
     2.2250738585072014e-308 / 3]
)
_JOULES = st.one_of(
    st.floats(), _SPECIAL, st.integers(-(2**63), 2**63)
)


@st.composite
def _runs_dict(draw) -> dict:
    """Long equal runs of consecutive nodes, in any order."""
    out: dict = {}
    for first, count, joules in draw(
        st.lists(
            st.tuples(st.integers(-300, 300), st.integers(1, 300), _JOULES),
            max_size=6,
        )
    ):
        for node in range(first, first + count):
            out.setdefault(node, joules)
    return out


_PER_NODE = st.one_of(
    # non-contiguous, unsorted, negative ids; possibly empty
    st.dictionaries(st.integers(-(2**40), 2**40), _JOULES, max_size=40),
    _runs_dict(),
)
_TIME_AT_MHZ = st.dictionaries(
    st.floats(allow_nan=False), st.floats(allow_nan=False), max_size=4
)
_EXTRAS = st.dictionaries(
    st.text(max_size=6),
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(max_size=6),
        st.floats(allow_nan=False),
        st.lists(st.integers(), max_size=3),
    ),
    max_size=4,
)


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(per_node=_PER_NODE, time_at_mhz=_TIME_AT_MHZ, extras=_EXTRAS)
def test_put_get_round_trips_bit_for_bit(tmp_path, per_node, time_at_mhz, extras):
    MeasurementCache(tmp_path).clear()
    got = _round_trip(tmp_path, _measurement(per_node, time_at_mhz, extras))
    _assert_same_energies(got.per_node_energy_j, per_node)
    assert got.time_at_mhz == time_at_mhz
    assert got.extras == extras


def test_negative_zero_never_joins_a_zero_run(tmp_path):
    per_node = {0: 0.0, 1: 0.0, 2: -0.0, 3: -0.0, 4: 0.0, 5: math.nan, 6: math.nan}
    got = _round_trip(tmp_path, _measurement(per_node))
    _assert_same_energies(got.per_node_energy_j, per_node)
    runs = _entry(tmp_path)["per_node_energy_runs"]
    assert [run[:2] for run in runs] == [[0, 2], [2, 2], [4, 1], [5, 1], [6, 1]]


def test_spmd_entry_is_one_run(tmp_path):
    per_node = dict.fromkeys(range(1024), 123.456)
    got = _round_trip(tmp_path, _measurement(per_node))
    _assert_same_energies(got.per_node_energy_j, per_node)
    entry = _entry(tmp_path)
    # A reader that only knows the dict form finds no such field and
    # evicts the entry (KeyError) rather than misreading it.
    assert "per_node_energy_j" not in entry
    assert entry["per_node_energy_runs"] == [[0, 1024, 123.456]]


# ----------------------------------------------------------------------
# entries written before the runs form
# ----------------------------------------------------------------------
#: An entry exactly as a dict-form writer stored it: per-node keys as
#: strings, sorted as strings, so node 10 precedes node 2.
LEGACY_KEY = "cd" + "1" * 62
LEGACY_ENTRY = (
    '{"key": "' + LEGACY_KEY + '", "measurement": {"acpi_energy_j": null, '
    '"baytech_energy_j": 321.5, "dvs_transitions": 0, "elapsed_s": 2.5, '
    '"energy_j": 485.25, "per_node_energy_j": {"0": 40.0, "1": 40.125, '
    '"10": 40.75, "11": 40.875, "2": 40.25, "3": 40.375, "4": 40.0, '
    '"5": 40.125, "6": 40.75, "7": 40.875, "8": 40.5, "9": 40.625}, '
    '"strategy": "external(800)", "time_at_mhz": {"1400.0": 0.25, '
    '"800.0": 2.5}, "workload": "CG.T.12"}}'
)
LEGACY_ENERGIES = {
    node: 40.0 + 0.125 * (node % 4) + (0.5 if node >= 6 else 0.0)
    for node in range(12)
}


def _write_legacy(tmp_path):
    path = tmp_path / LEGACY_KEY[:2] / f"{LEGACY_KEY}.json"
    path.parent.mkdir(parents=True)
    path.write_text(LEGACY_ENTRY)
    return path


def _assert_legacy(m: Measurement) -> None:
    assert m == Measurement(
        workload="CG.T.12",
        strategy="external(800)",
        elapsed_s=2.5,
        energy_j=485.25,
        per_node_energy_j=LEGACY_ENERGIES,
        dvs_transitions=0,
        time_at_mhz={800.0: 2.5, 1400.0: 0.25},
        acpi_energy_j=None,
        baytech_energy_j=321.5,
    )
    assert list(m.per_node_energy_j) == list(range(12))
    assert sum(m.per_node_energy_j.values()) == m.energy_j


def test_legacy_entry_is_a_hit_in_node_order(tmp_path):
    path = _write_legacy(tmp_path)
    cache = MeasurementCache(tmp_path)
    m = cache.get(LEGACY_KEY)
    assert cache.stats.hits == 1 and cache.stats.misses == 0
    assert cache.stats.evicted_corrupt == 0
    assert path.exists()
    _assert_legacy(m)


# ----------------------------------------------------------------------
# cache hits vs fresh runs
# ----------------------------------------------------------------------
def test_cache_hits_iterate_nodes_like_a_fresh_run(tmp_path):
    workload = get_workload("CG", klass="W", nprocs=16)
    tasks = [RunTask(workload, NoDvsStrategy())] + [
        RunTask(workload, ExternalStrategy(mhz=mhz)) for mhz in (600, 800, 1400)
    ]
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.map(tasks)  # cold: every point simulated and stored
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        hits = runner.map(tasks)
        assert runner.stats.hits == len(tasks) and runner.stats.misses == 0
    with ParallelRunner(jobs=1) as runner:
        fresh = runner.map(tasks)
    for hit, ref in zip(hits, fresh):
        assert list(hit.per_node_energy_j) == list(ref.per_node_energy_j)
        assert hit.per_node_energy_j == ref.per_node_energy_j
        assert sum(hit.per_node_energy_j.values()) == hit.energy_j
        assert hit.energy_j == ref.energy_j
