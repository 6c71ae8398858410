"""The cache entry codec: per-node energies as node runs.

A cache entry stores per-node energies as ``per_node_energy_runs``
(``[first_node, count, joules]`` over the dict's iteration order), so
an SPMD program at a thousand nodes writes a handful of runs instead
of a thousand-key dict.  The invariants:

* ``put``/``get`` round-trips every per-node value bit for bit (±0.0,
  ±inf, NaN, subnormals, ints) and the dict's iteration order;
* the archive form (a ``{"<node>": joules}`` dict, its keys sorted as
  strings) decodes in node order, while the same text left under a
  cache root in the pre-pack per-file layout is a miss;
* a cache hit iterates its nodes exactly like a fresh run, so summing
  the per-node energies gives ``energy_j`` bit for bit;
* the encoder's one-run shortcut and the decoder's one-run dict match
  a per-node reference loop kept here: runs, value types, exceptions;
* the cache keys ``ParallelRunner`` computes through a per-call memo
  equal memo-free keys and the reference ``json.dumps`` blob, and
  each distinct configuration object is canonicalised once per call.
"""

from __future__ import annotations

import hashlib
import json
import math
from math import copysign

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.framework import Measurement
from repro.core.strategies import ExternalStrategy, NoDvsStrategy
from repro.experiments import store
from repro.experiments.campaign import run_campaign
from repro.experiments.parallel import ParallelRunner, RunTask
from repro.experiments.store import (
    MODEL_VERSION,
    MeasurementCache,
    _energies_from_runs,
    _energy_runs,
    canonical_spec,
)
from repro.faults import FaultSpec
from repro.hardware.opoints import PENTIUM_M_TABLE
from repro.workloads import get_workload
from tests.experiments.test_cache_identity import _sweep_tasks

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
    assert fresh.evicted_corrupt == 0
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
# the archive dict form
# ----------------------------------------------------------------------
#: An entry exactly as a dict-form writer stored it (``save_json``, and
#: the per-file cache layout before the runs form): per-node keys as
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
    _assert_legacy(
        store.measurement_from_dict(json.loads(LEGACY_ENTRY)["measurement"]))
    # The same text as a pre-pack ``ab/<key>.json`` entry is not read.
    path = _write_legacy(tmp_path)
    cache = MeasurementCache(tmp_path)
    assert cache.get(LEGACY_KEY) is None
    assert cache.evicted_corrupt == 0
    assert path.read_text() == LEGACY_ENTRY


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


# ----------------------------------------------------------------------
# the one-run shortcuts against a per-node reference loop
# ----------------------------------------------------------------------
def _reference_runs(per_node) -> list:
    """The encoder as a plain per-node loop."""
    runs: list = []
    run = next_node = value = None
    for node, joules in per_node.items():
        if (
            node == next_node
            and joules == value
            and (joules or copysign(1.0, joules) == copysign(1.0, value))
        ):
            run[1] += 1
        else:
            run = [int(node), 1, float(joules)]
            runs.append(run)
            value = joules
        next_node = node + 1
    return runs


def _reference_energies(runs) -> dict:
    """The decoder as a plain per-run loop that copies every run."""
    out: dict = {}
    total = 0
    for run in store._check(runs, list):
        first, count, joules = store._check(run, list)
        if type(first) is not int or type(count) is not int:
            raise TypeError("run node ids and counts must be ints")
        if count < 1:
            raise ValueError(f"run count must be >= 1, got {count}")
        out.update(dict.fromkeys(range(first, first + count), store._number(joules)))
        total += count
    if len(out) != total:
        raise ValueError("a node id is repeated across runs")
    return out


def _typed(x):
    """``x`` with every scalar as (type, repr): ±0.0, NaN and int vs
    float stay apart."""
    if isinstance(x, list):
        return [_typed(item) for item in x]
    if isinstance(x, dict):
        return [(_typed(k), _typed(v)) for k, v in x.items()]
    return (type(x), repr(x))


def _outcome(fn, arg):
    try:
        return _typed(fn(arg))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc), str(exc))


#: one NaN object, repeated: ``list.count`` matches it by identity
_NAN = math.nan

_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.5, -2.25, 0, 3, True, math.inf, _NAN, None, "1.5"]),
    st.floats(),
    st.integers(-3, 3),
    st.floats(-4, 4).map(np.float64),
)
_EXACT = 2**53


@st.composite
def _per_node_dicts(draw) -> dict:
    """1–2,048 nodes of one value over consecutive ids, then a few
    edits: other values, gaps, float or swapped ids, a shuffle."""
    n = draw(st.integers(1, 2048))
    first = draw(st.one_of(
        st.integers(-3, 3),
        st.integers(-(2**62), 2**62),
        st.integers(_EXACT - 2100, _EXACT + 2),
        st.integers(-_EXACT - 2, -_EXACT + 2),
    ))
    ids = list(range(first, first + n))
    values = [draw(_VALUES)] * n
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, n - 1))
        edit = draw(st.sampled_from(["value", "gap", "float_id", "swap", "shuffle"]))
        if edit == "value":
            values[i] = draw(_VALUES)
        elif edit == "gap":
            shift = draw(st.integers(1, 3))
            ids[i:] = [node + shift for node in ids[i:]]
        elif edit == "float_id":
            ids[i] = float(ids[i])
        elif edit == "swap":
            j = draw(st.integers(0, n - 1))
            ids[i], ids[j] = ids[j], ids[i]
        else:
            draw(st.randoms(use_true_random=False)).shuffle(ids)
    if draw(st.booleans()):  # every id a float
        ids = [float(node) for node in ids]
    return dict(zip(ids, values))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(per_node=_per_node_dicts())
def test_energy_runs_match_the_per_node_loop(per_node):
    assert _outcome(_energy_runs, per_node) == _outcome(_reference_runs, per_node)


def test_energy_runs_shortcut_cases():
    spmd = dict.fromkeys(range(2048), 7.5)
    assert _typed(_energy_runs(spmd)) == _typed([[0, 2048, 7.5]])
    for per_node in (
        dict.fromkeys(range(4), _NAN),  # NaN never extends a run
        {0: 0.0, 1: -0.0, 2: 0.0},  # zeros keep their signs apart
        {0: 2.0, 1: 2, 2: np.float64(2.0)},  # equal values join
        {0: 1.0, 1: True, 2: 1},
        {1.0: 2.5, 2.0: 2.5, 3: 2.5},  # float ids do not raise
        {0: 2.5, 2: 2.5, 1: 2.5},  # out of order
        {_EXACT - 1: 1.5, float(_EXACT): 1.5, _EXACT + 1: 1.5},  # inexact + 1
        {0: 1.5, 1: 1.5, 2: None},
    ):
        assert _outcome(_energy_runs, per_node) == _outcome(_reference_runs, per_node)


def _encodable(per_node) -> bool:
    try:
        _reference_runs(per_node)
    except (TypeError, ValueError, OverflowError):
        return False
    return True


_JOULES_JSON = st.one_of(
    st.floats(), st.integers(-3, 3), st.booleans(), st.none(), st.just("1.0")
)
_RUN = st.one_of(
    st.tuples(st.integers(-40, 40), st.integers(-1, 2048), _JOULES_JSON).map(list),
    st.tuples(st.integers(-40, 40), st.integers(1, 3), st.floats()).map(list),
    st.lists(st.integers(0, 3), max_size=4),  # the wrong arity
    st.tuples(st.floats(0, 3), st.integers(1, 3), st.floats()).map(list),
    st.tuples(st.booleans(), st.integers(1, 3), st.floats()).map(list),
    st.tuples(st.integers(0, 3), st.integers(1, 3), st.floats()),  # a tuple
)
_RUNS = st.one_of(
    st.lists(_RUN, max_size=3),
    _per_node_dicts().filter(_encodable).map(_reference_runs),
    st.just((0, 1, 1.0)),
    st.none(),
)


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(runs=_RUNS)
def test_energies_from_runs_match_the_per_run_loop(runs):
    assert _outcome(_energies_from_runs, runs) == _outcome(
        _reference_energies, runs
    )


# ----------------------------------------------------------------------
# cache keys through the runner's per-call memo
# ----------------------------------------------------------------------
#: (count, sha256 of the keys sorted and joined by newlines) of a cold
#: ``run_campaign(klass="T")``, taken from the whole-spec ``json.dumps``
#: blob before keys were joined from memoised parts.
CAMPAIGN_T_KEYS = (
    58, "767945d42515e7a43cdecf5f84e875f56bd3163a395c7bb54a895c1651704244")


def _reference_key(workload, strategy, seed, run_kwargs=None) -> str:
    """The key from the ``json.dumps`` of its whole spec dict."""
    spec = {
        "model_version": MODEL_VERSION,
        "workload": canonical_spec(workload),
        "workload_tag": getattr(workload, "tag", None),
        "strategy": canonical_spec(strategy),
        "seed": seed,
        "kwargs": canonical_spec({
            k: v for k, v in (run_kwargs or {}).items()
            if v is not None and k != "engine"
        }),
    }
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.fixture
def keyed(monkeypatch) -> list:
    """``(runner key, memo-free key, reference key)`` of every
    ``store.cache_key`` call; each call must pass a memo."""
    calls = []
    real = store.cache_key

    def cache_key(workload, strategy, seed, run_kwargs=None, memo=None):
        assert memo is not None
        key = real(workload, strategy, seed, run_kwargs, memo)
        calls.append((
            key,
            real(workload, strategy, seed, run_kwargs),
            _reference_key(workload, strategy, seed, run_kwargs),
        ))
        return key

    monkeypatch.setattr(store, "cache_key", cache_key)
    return calls


def _assert_same_keys(keyed: list) -> None:
    assert keyed
    for key, memo_free, reference in keyed:
        assert key == memo_free == reference


def test_campaign_keys_equal_memo_free_keys(keyed):
    run_campaign(klass="T")
    assert len(keyed) >= CAMPAIGN_T_KEYS[0]
    _assert_same_keys(keyed)


def test_sweep_and_odd_task_keys_equal_memo_free_keys(keyed):
    workload = get_workload("CG", klass="T", nprocs=4)
    faults = FaultSpec(seed=5, transition_fail_rate=0.5)
    odd = [
        RunTask(workload, None),
        RunTask(workload, None, 1),
        RunTask(workload, NoDvsStrategy(), 1),
        RunTask(workload, ExternalStrategy(mhz=800), 0, {"trace": True}),
        RunTask(workload, ExternalStrategy(mhz=800), 0, {"faults": faults}),
        RunTask(workload, ExternalStrategy(mhz=800), 0, {
            "faults": None, "engine": "event", "opoints": PENTIUM_M_TABLE,
            "transition_latency_s": 1e-5,
        }),
    ]
    with ParallelRunner(jobs=1) as runner:
        runner.map(_sweep_tasks() + odd)
    with ParallelRunner(jobs=1, faults=faults) as runner:
        runner.map(odd)  # the runner's faults join every task's kwargs
    assert len(keyed) == len(_sweep_tasks()) + 2 * len(odd)
    _assert_same_keys(keyed)
    # The two None-strategy tasks differ by seed only.
    assert keyed[-len(odd)][0] != keyed[-len(odd) + 1][0]


def test_probe_memo_lives_for_one_call(keyed):
    workload = get_workload("EP", klass="T", nprocs=4)
    strategy = ExternalStrategy(mhz=800)
    with ParallelRunner(jobs=1) as runner:
        runner.map([RunTask(workload, strategy)])
        strategy.mhz = 1400  # a new configuration in the same object
        runner.map([RunTask(workload, strategy)])
    (first, *_), (second, *_) = keyed
    assert first != second
    _assert_same_keys(keyed)


def test_campaign_t_keys_are_pinned(tmp_path):
    run_campaign(klass="T", cache_dir=tmp_path)
    keys = sorted(MeasurementCache(tmp_path).records())
    digest = hashlib.sha256("\n".join(keys).encode()).hexdigest()
    assert (len(keys), digest) == CAMPAIGN_T_KEYS


def test_warm_sweep_canonicalises_each_object_once(tmp_path, monkeypatch):
    tasks = _sweep_tasks()
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.map(tasks)
    objects = {id(o): o for t in tasks for o in (t.workload, t.strategy)}
    counts = dict.fromkeys(objects, 0)
    real = store.canonical_spec

    def canonical_spec(obj):
        if id(obj) in counts:
            counts[id(obj)] += 1
        return real(obj)

    monkeypatch.setattr(store, "canonical_spec", canonical_spec)
    with ParallelRunner(jobs=1, cache_dir=tmp_path) as runner:
        runner.map(tasks)
        assert runner.stats.hits == len(tasks)
    assert len(objects) < len(tasks)  # objects repeat across tasks
    assert set(counts.values()) == {1}
