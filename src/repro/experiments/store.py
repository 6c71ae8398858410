"""Persisting experiment results + the measurement memoization cache.

Results are plain dataclasses over floats, so a JSON round-trip covers
archiving, diffing between calibrations, and feeding external plotting
tools.  The archive form holds measurement *summaries* only, matching
what the paper's data-collection software keeps per run.

The second half of this module is the content-addressed
:class:`MeasurementCache`: every simulated sweep point is keyed by a
stable hash of (workload spec, strategy config, seed, cluster/run
parameters, model version), so a campaign never re-simulates a point
another figure already produced.  A traced point's record also carries
its :class:`~repro.trace.events.TraceLog` as
:func:`~repro.trace.slog.trace_to_csv` text, so a warm campaign
replays the performance-trace figures from disk too.  Records are
written one **pack** (a JSONL file) per ``ParallelRunner.map`` call and
found through an in-memory index of pack positions; once renamed into
place, a pack is never rewritten.  See ``docs/performance.md`` for the
key schema, the pack layout and the invalidation rules.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import inspect
import json
import os
import time
from collections.abc import Mapping as AbcMapping
from collections.abc import Sequence as AbcSequence
from collections.abc import Set as AbcSet
from math import copysign
from pathlib import Path
from typing import Any, BinaryIO, Iterator, Mapping, Optional, Union

from typing import TYPE_CHECKING

from repro.core.framework import Measurement
from repro.trace.slog import trace_from_csv, trace_to_csv

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.runner import SweepResult

__all__ = [
    "MODEL_VERSION",
    "CacheStats",
    "MeasurementCache",
    "UncacheableSpecError",
    "cache_key",
    "canonical_spec",
    "default_cache_dir",
    "measurement_to_dict",
    "measurement_from_dict",
    "sweep_to_dict",
    "sweep_from_dict",
    "save_json",
    "load_json",
]

#: Version of the simulation model the cache keys embed.  Bump this
#: whenever a change anywhere in the simulator alters the *outputs* of
#: ``run_workload`` for an unchanged configuration — every cached
#: measurement is invalidated at once.
MODEL_VERSION = 1


def _summary_payload(
    m: Measurement, per_node_field: str, per_node: Any
) -> dict[str, Any]:
    """The summary fields of ``m``, with ``per_node`` under ``per_node_field``."""
    payload = {
        "workload": m.workload,
        "strategy": m.strategy,
        "elapsed_s": m.elapsed_s,
        "energy_j": m.energy_j,
        per_node_field: per_node,
        "dvs_transitions": m.dvs_transitions,
        "time_at_mhz": {str(k): v for k, v in m.time_at_mhz.items()},
        "acpi_energy_j": m.acpi_energy_j,
        "baytech_energy_j": m.baytech_energy_j,
    }
    if m.extras:
        payload["extras"] = m.extras
    return payload


def measurement_to_dict(m: Measurement) -> dict[str, Any]:
    """Serializable summary of one measurement (drops trace/report).

    This is the archive format (``save_json``, CLI ``--json``
    results): per-node energies as a ``{"<node>": joules}`` dict.
    ``extras`` (JSON-safe by contract — e.g. the fault-degradation
    counters) round-trips, so a cached faulty run keeps its report.
    """
    return _summary_payload(
        m,
        "per_node_energy_j",
        {str(k): v for k, v in m.per_node_energy_j.items()},
    )


#: Below this magnitude a float node id ``+ 1`` is exact, so a float
#: id equal to ``first + i`` continues a run just as the int would.
_EXACT = 2**53


def _energy_runs(per_node: Mapping[int, float]) -> list[list]:
    """``per_node`` as ``[first_node, count, joules]`` runs.

    A run extends while node ids are consecutive and the values are
    bit-equal, in the dict's iteration order (so decoding restores
    it).  ``-0.0`` never joins a ``0.0`` run and NaN never extends one.
    """
    if per_node:
        # The SPMD case, one run, without a per-node loop: every value
        # equal to a non-zero, non-NaN float first one (``list.count``
        # matches by identity or ``==``, as the loop's test does for
        # such a value), over ascending int ids whose ``+ 1`` is exact.
        first, value = next(iter(per_node.items()))
        n = len(per_node)
        if (
            type(value) is float
            and value
            and value == value
            and type(first) is int
            and -_EXACT < first
            and first + n < _EXACT
            and list(per_node.values()).count(value) == n
            and list(per_node) == list(range(first, first + n))
        ):
            return [[first, n, value]]
    runs: list[list] = []
    run: Optional[list] = None
    next_node = value = None
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


def _number(x: Any) -> float:
    """A JSON number as a float; anything else is a ``TypeError``."""
    if type(x) is float:
        return x
    if type(x) is int:
        return float(x)
    raise TypeError(f"expected a number, got {type(x).__name__}")


def _optional_number(x: Any) -> Optional[float]:
    return None if x is None else _number(x)


def _check(x: Any, kind: type) -> Any:
    if not isinstance(x, kind) or isinstance(x, bool):
        raise TypeError(f"expected {kind.__name__}, got {type(x).__name__}")
    return x


def _energies_from_runs(runs: Any) -> dict[int, float]:
    """Decode :func:`_energy_runs` output, in run order."""
    out: dict[int, float] = {}
    total = 0
    for run in _check(runs, list):
        first, count, joules = _check(run, list)
        if type(first) is not int or type(count) is not int:
            raise TypeError("run node ids and counts must be ints")
        if count < 1:
            raise ValueError(f"run count must be >= 1, got {count}")
        block = dict.fromkeys(range(first, first + count), _number(joules))
        if out:
            out.update(block)
        else:  # the first run's dict is the result: no copy
            out = block
        total += count
    if len(out) != total:
        raise ValueError("a node id is repeated across runs")
    return out


def _energies_from_dict(per_node: Any) -> dict[int, float]:
    """Decode the archive ``{"<node>": joules}`` form, in node order.

    This is the form :func:`save_json` results hold and
    :func:`sweep_from_dict` reads back.  JSON writers sort these keys
    as strings (``"0", "1", "10", …``); every engine produces ascending
    node ids, so that order is restored.
    """
    return dict(
        sorted(
            (int(k), _number(v)) for k, v in _check(per_node, dict).items()
        )
    )


def measurement_from_dict(data: Mapping[str, Any]) -> Measurement:
    """Inverse of :func:`measurement_to_dict` and of the cache entry form.

    Per-node energies may come as ``per_node_energy_runs`` (cache
    records) or as the ``per_node_energy_j`` dict (the archive form of
    :func:`measurement_to_dict`).  A traced cache
    entry's ``trace`` field (:func:`~repro.trace.slog.trace_to_csv`
    text) is restored with :func:`~repro.trace.slog.trace_from_csv`.
    Every structural defect raises ``KeyError``, ``ValueError`` or
    ``TypeError``, which the cache treats as a corrupt entry.
    """
    if "per_node_energy_runs" in data:
        per_node = _energies_from_runs(data["per_node_energy_runs"])
    else:
        per_node = _energies_from_dict(data["per_node_energy_j"])
    extras = data.get("extras")
    trace = data.get("trace")
    return Measurement(
        workload=_check(data["workload"], str),
        strategy=_check(data["strategy"], str),
        elapsed_s=_number(data["elapsed_s"]),
        energy_j=_number(data["energy_j"]),
        per_node_energy_j=per_node,
        dvs_transitions=_check(data["dvs_transitions"], int),
        time_at_mhz={
            float(k): _number(v)
            for k, v in _check(data["time_at_mhz"], dict).items()
        },
        acpi_energy_j=_optional_number(data.get("acpi_energy_j")),
        baytech_energy_j=_optional_number(data.get("baytech_energy_j")),
        trace=None if trace is None else trace_from_csv(_check(trace, str)),
        extras={} if extras is None else dict(_check(extras, dict)),
    )


def sweep_to_dict(sweep: SweepResult) -> dict[str, Any]:
    return {
        "workload": sweep.workload,
        "baseline_mhz": sweep.baseline_mhz,
        "raw": {str(mhz): measurement_to_dict(m) for mhz, m in sweep.raw.items()},
    }


def sweep_from_dict(data: Mapping[str, Any]) -> "SweepResult":
    from repro.experiments.runner import SweepResult

    return SweepResult(
        workload=data["workload"],
        raw={float(mhz): measurement_from_dict(m) for mhz, m in data["raw"].items()},
        baseline_mhz=float(data["baseline_mhz"]),
    )


def save_json(path: Union[str, Path], payload: Mapping[str, Any]) -> Path:
    """Write a results payload (already dict-ified) to ``path``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))
    return path


def load_json(path: Union[str, Path]) -> dict[str, Any]:
    return json.loads(Path(path).read_text())


# ----------------------------------------------------------------------
# measurement memoization cache
# ----------------------------------------------------------------------
class UncacheableSpecError(ValueError):
    """A run spec contains state a content key cannot capture.

    Raised for local functions and lambdas: two different lambdas share
    the qualname ``...<locals>.<lambda>``, so keying them by name would
    silently alias distinct configurations.  Runs carrying one simply
    execute uncached.
    """


def canonical_spec(obj: Any) -> Any:
    """Reduce ``obj`` to a JSON-serializable, deterministic structure.

    Configuration objects (workloads, strategies, hardware parameter
    dataclasses) are flattened to ``[class name, sorted public attrs]``;
    private (``_``-prefixed) attributes are runtime state and excluded,
    *except* for sequence-like objects (e.g. an operating-point table)
    whose elements are part of the configuration and are canonicalised
    as a list.  Floats go through ``repr`` so the key is exact, not
    rounded.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return repr(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return [
            type(obj).__qualname__,
            [[f.name, canonical_spec(getattr(obj, f.name))]
             for f in dataclasses.fields(obj)],
        ]
    if isinstance(obj, AbcMapping):
        return [
            "__map__",
            sorted(
                ([canonical_spec(k), canonical_spec(v)] for k, v in obj.items()),
                key=repr,
            ),
        ]
    if isinstance(obj, (AbcSet, frozenset)):
        return ["__set__", sorted((canonical_spec(x) for x in obj), key=repr)]
    if isinstance(obj, (list, tuple)):
        return [canonical_spec(x) for x in obj]
    if isinstance(obj, AbcSequence):  # sequence-like config (opoint tables)
        return [type(obj).__qualname__, [canonical_spec(x) for x in obj]]
    # Functions/methods before the generic-object branch: they carry a
    # __dict__ too, and would otherwise all collide as ["function", []].
    if isinstance(obj, type) or inspect.isroutine(obj):
        qualname = getattr(obj, "__qualname__", None) or repr(obj)
        if "<lambda>" in qualname or "<locals>" in qualname:
            raise UncacheableSpecError(
                f"cannot build a content key for local callable {qualname!r}"
            )
        return ["__callable__", f"{getattr(obj, '__module__', '?')}.{qualname}"]
    if hasattr(obj, "__dict__") or hasattr(obj, "__slots__"):
        attrs: dict[str, Any] = {}
        if hasattr(obj, "__dict__"):
            attrs.update(vars(obj))
        for klass in type(obj).__mro__:
            for name in getattr(klass, "__slots__", ()):
                if hasattr(obj, name):
                    attrs.setdefault(name, getattr(obj, name))
        return [
            type(obj).__qualname__,
            sorted(
                [[k, canonical_spec(v)] for k, v in attrs.items()
                 if not k.startswith("_")],
            ),
        ]
    if callable(obj):
        return getattr(obj, "__qualname__", repr(obj))
    return repr(obj)


#: ``json.dumps(obj, sort_keys=True, separators=(",", ":"))``, without
#: building an encoder per call.
_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _spec_json(obj: Any, memo: dict[int, tuple[Any, str]]) -> str:
    """``_json(canonical_spec(obj))``, computed once per object in ``memo``.

    ``memo`` maps ``id(obj)`` to ``(obj, text)``: holding ``obj`` keeps
    its id from being reused by another object while ``memo`` lives.
    """
    hit = memo.get(id(obj))
    if hit is None:
        hit = memo[id(obj)] = (obj, _json(canonical_spec(obj)))
    return hit[1]


def _kwargs_json(
    run_kwargs: Optional[Mapping[str, Any]], memo: dict[int, tuple[Any, str]]
) -> str:
    """The key's canonical ``kwargs`` part (keyword name -> value) as
    JSON text.

    ``None``-valued keywords are dropped: every ``run_workload`` keyword
    uses ``None`` to mean "the default".  ``engine`` selects an
    execution tier, never an output: the straightline accumulator is
    bit-identical to the event engine, so both tiers share one slot.
    """
    items = [
        (k, v) for k, v in (run_kwargs or {}).items()
        if v is not None and k != "engine"
    ]
    # ``canonical_spec`` sorts a mapping's ``[key, value]`` pairs by
    # ``repr``; for distinct ``str`` keys (keywords) neither repr is a
    # prefix of the other, so the key's repr alone decides the order.
    items.sort(key=lambda item: repr(item[0]))
    pairs = ",".join(f"[{_json(k)},{_spec_json(v, memo)}]" for k, v in items)
    return f'["__map__",[{pairs}]]'


def cache_key(
    workload: Any,
    strategy: Any,
    seed: int,
    run_kwargs: Optional[Mapping[str, Any]] = None,
    memo: Optional[dict[int, tuple[Any, str]]] = None,
) -> str:
    """Content hash identifying one simulated sweep point.

    The key covers the workload spec, the strategy class + its public
    configuration, the seed, every ``run_workload`` keyword that shapes
    the cluster (power model, operating points, network parameters,
    transition latency, ...) and :data:`MODEL_VERSION`.  ``None``-valued
    keywords are dropped first: an explicit ``faults=None`` (or
    ``network_params=None``) must share the unspecified key's slot.

    The hashed blob is ``json.dumps(spec, sort_keys=True,
    separators=(",", ":"))`` of ``spec = {"kwargs", "model_version",
    "seed", "strategy", "workload", "workload_tag"}``, joined here from
    the JSON text of each part.  Callers keying many tasks pass one
    ``memo`` dict for all of them (``ParallelRunner._probe`` does, per
    ``map`` call), so each distinct workload, strategy and keyword
    value object is canonicalised once.  ``memo`` identifies objects by
    ``id``: it must not outlive the objects' configuration, so keep it
    for one batch of keys only.
    """
    if memo is None:
        memo = {}
    blob = (
        f'{{"kwargs":{_kwargs_json(run_kwargs, memo)},'
        f'"model_version":{_json(MODEL_VERSION)},'
        f'"seed":{_json(seed)},'
        f'"strategy":{_spec_json(strategy, memo)},'
        f'"workload":{_spec_json(workload, memo)},'
        f'"workload_tag":{_json(getattr(workload, "tag", None))}}}'
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one runner's lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: results delivered (fresh or cached) and, of those, how many
    #: were degraded by injected faults (``extras["faults"]`` present).
    runs: int = 0
    degraded_runs: int = 0
    #: corrupt/truncated records the cache's lookups evicted from its
    #: index (each also counts as a miss — the point re-simulates and
    #: its new pack supersedes the record).  A runner counts the
    #: evictions its own lookups caused.
    evicted_corrupt: int = 0
    #: gear-plan points the straightline tiers declined at run time
    #: (``run_batch`` finished them on the event engine).
    straightline_fallbacks: int = 0
    #: gear-plan lowering cache reuse over the runner's ``run_batch``
    #: calls, summed over its worker processes: hits return a
    #: previously lowered (plan, opoints) action table; misses lower
    #: fresh (and may evict, the per-program table is LRU-bounded).
    lowering_hits: int = 0
    lowering_misses: int = 0
    #: gear-plan optimizer telemetry (:mod:`repro.optimize.search`):
    #: candidate plans measured, how many the dominance/constraint
    #: pruning discarded, and the ``run_batch`` calls that scored them.
    opt_candidates: int = 0
    opt_pruned: int = 0
    opt_batches: int = 0
    opt_max_batch: int = 0
    #: why gear-plan points paid event-engine or identity-partition
    #: cost: stable reason code (``p2p_unclassifiable``,
    #: ``no_compression``, ``dvs_in_flight``, …) → occurrence count,
    #: from ``run_batch``'s ``fallback_reasons`` only.  A declined
    #: controller (daemon) point runs by itself through
    #: ``run_workload`` and is counted nowhere.
    fallback_reasons: dict = dataclasses.field(default_factory=dict)

    def count_fallback(self, reason, n: int = 1) -> None:
        """Bump the per-reason fallback counter (``None`` is ignored)."""
        if reason:
            self.fallback_reasons[reason] = (
                self.fallback_reasons.get(reason, 0) + n
            )

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def render(self) -> str:
        if not self.lookups:
            base = "cache: unused"
        else:
            rate = self.hits / self.lookups
            base = (
                f"cache: {self.hits} hits / {self.misses} misses "
                f"({rate:.0%} hit rate, {self.stores} stored)"
            )
        if self.evicted_corrupt:
            base += f"; {self.evicted_corrupt} corrupt entries evicted"
        if self.straightline_fallbacks:
            base += (
                f"; tiers: {self.straightline_fallbacks} event-engine "
                "fallbacks"
            )
        if self.fallback_reasons:
            detail = ", ".join(
                f"{reason} x{count}"
                for reason, count in sorted(self.fallback_reasons.items())
            )
            base += f"; fallback reasons: {detail}"
        if self.lowering_hits or self.lowering_misses:
            base += (
                f"; lowering: {self.lowering_hits} reused / "
                f"{self.lowering_misses} lowered"
            )
        if self.opt_candidates:
            base += (
                f"; optimizer: {self.opt_candidates} candidates "
                f"({self.opt_pruned} pruned) in {self.opt_batches} "
                f"batches (largest {self.opt_max_batch})"
            )
        if self.degraded_runs:
            base += (
                f"; {self.degraded_runs}/{self.runs} runs degraded "
                "by injected faults"
            )
        return base


#: A pack's file name ends with this; see :class:`MeasurementCache`.
PACK_SUFFIX = ".jsonl"

#: Every record starts ``{"key": "<key>", "measurement": `` —
#: ``json.dumps`` keeps the payload's insertion order.
_HEAD = b'{"key": "'
_AFTER_KEY = b'", "measurement": '


def _record_key(data: bytes, start: int, end: int) -> Optional[str]:
    """The key of the record on line ``data[start:end]``, or None when
    the line does not start like a record."""
    if not data.startswith(_HEAD, start, end):
        return None
    quote = data.find(b'"', start + len(_HEAD), end)
    if quote < 0 or not data.startswith(_AFTER_KEY, quote, end):
        return None
    return data[start + len(_HEAD) : quote].decode("ascii", "replace")


def _index_pack(
    index: dict[str, tuple[str, int, int]], name: str, data: bytes
) -> int:
    """Point ``index`` at the records of pack ``name`` (its bytes
    ``data``) that are the latest for their key.

    A record wins over one in the same pack or an earlier one (pack
    names sort in write order).  Returns how many lines do not start
    like a record (an empty pack is one).
    """
    if not data:  # put never writes an empty pack: this one was cut
        return 1
    bad = 0
    start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        if end < 0:  # the last line of a pack cut mid-record
            end = len(data)
        key = _record_key(data, start, end)
        if key is None:
            bad += 1
        else:
            slot = index.get(key)
            if slot is None or slot[0] <= name:
                index[key] = (name, start, end - start)
        start = end + 1
    return bad


def _text(data: bytes) -> str:
    """A record's bytes as text; undecodable bytes give ``""``, which
    no record is.  Callers decode where they read, so the bytes are
    freed before the JSON decode instead of adding a third copy of a
    traced record (~0.7 MB) to its peak."""
    try:
        return data.decode()
    except UnicodeDecodeError:
        return ""


def _decode(text: str) -> Optional[Measurement]:
    """The measurement of one record, or None when it is corrupt."""
    try:
        return measurement_from_dict(json.loads(text)["measurement"])
    except (ValueError, KeyError, TypeError):
        return None


class MeasurementCache:
    """Content-addressed on-disk memoization of :class:`Measurement`.

    Each record is one line of JSON, ``{"key": <cache_key>,
    "measurement": {...}}``.  The measurement holds the summary fields
    and, for a traced run, its trace as a ``trace`` field of
    :func:`~repro.trace.slog.trace_to_csv` text (exact through
    ``repr``, in log order; about 0.73 MB for CG.C.8).  Energy reports
    are never stored.  A cached hit is bit-for-bit identical to a
    fresh uncached run for every summary field and, traced, for every
    trace event in log order.

    :meth:`put` writes every record it is given as one **pack**
    directly under the root: an append-only JSONL file named
    ``<write time in ns, 20 digits>-<pid>.jsonl``, written to a temp
    file and renamed into place.  ``ParallelRunner.map`` calls it once
    per call, with every measurement the call produced.  Names sort
    in write order, and a later record of a key wins, so a fresh
    reader sees what the last writer stored.

    :meth:`get` looks keys up in an in-memory index of key → (pack,
    offset, length), built on the first lookup; it holds positions,
    never record text.  After :meth:`refresh` (once per ``map`` call),
    the next lookup lists the root once and indexes the packs written
    since, by this process or another.

    Once :meth:`put` renames a pack into place, nothing rewrites it.
    A corrupt record (a writer killed mid-``replace`` on a non-atomic
    filesystem, a bad disk block) is evicted on first contact: it is
    dropped from the in-memory index and counted in
    :attr:`evicted_corrupt`, and :meth:`get` misses.  The runner then
    re-simulates the point, and that ``map`` call's new pack
    supersedes the record (the later record wins).  A line that does
    not even start like a record (so no key names it) is counted when
    its pack is indexed.  Disk space comes back through the dead-pack
    rule: a listing that indexes new packs unlinks every pack it has
    read that the index no longer points into.  The cache keeps no
    in-process copies: a runner's ``memo`` answers repeated keys
    before :meth:`get` is reached.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        #: corrupt records and keyless lines this cache's lookups met
        self.evicted_corrupt = 0
        #: key -> (pack name, offset, length) of its latest record
        self._index: dict[str, tuple[str, int, int]] = {}
        #: names of the packs already indexed
        self._packs: set[str] = set()
        self._listed = False
        self._last_ns = 0

    # -- lookup --------------------------------------------------------
    def refresh(self) -> None:
        """Let the next :meth:`get` pick up packs written since the last
        listing of the root."""
        self._listed = False

    def get(self, key: str) -> Optional[Measurement]:
        """The cached measurement for ``key``, or None on a miss."""
        if not self._listed:
            self._list()
        slot = self._index.get(key)
        if slot is None:
            return None
        text = self._read(key, slot)
        if text is None:
            # The pack is gone (the cache was cleared) or cannot be
            # read now: a plain miss that keeps its slot.
            return None
        measurement = _decode(text)
        if measurement is None:
            del self._index[key]
            self.evicted_corrupt += 1
        return measurement

    def _list(self) -> None:
        """List the root once: index every pack not indexed yet, in
        write order."""
        self._listed = True
        try:
            with os.scandir(self.root) as listing:
                new = [
                    entry.name
                    for entry in listing
                    if entry.name.endswith(PACK_SUFFIX)
                    and entry.name not in self._packs
                ]
        except OSError:  # no root yet: nothing stored
            return
        for name in sorted(new):
            try:
                data = (self.root / name).read_bytes()
            except OSError:
                # Gone since, or unreadable now: a later listing retries
                # it, and a pack not indexed is never unlinked as dead.
                continue
            self._packs.add(name)
            self.evicted_corrupt += _index_pack(self._index, name, data)
        if new:
            # A pack read and indexed that the index no longer points
            # into (every record superseded, corrupt or keyless) is
            # dead bytes to every fresh reader: unlink it.
            live = {slot[0] for slot in self._index.values()}
            for name in self._packs - live:
                with contextlib.suppress(OSError):
                    (self.root / name).unlink()
            self._packs &= live

    def _read(self, key: str, slot: tuple[str, int, int]) -> Optional[str]:
        """The record at ``slot``, or None unless it is still ``key``'s."""
        name, start, length = slot
        try:
            with open(self.root / name, "rb") as pack:
                pack.seek(start)
                data = pack.read(length)
        except OSError:
            return None
        head = _HEAD + key.encode() + _AFTER_KEY
        if len(data) != length or not data.startswith(head):
            return None
        return _text(data)

    # -- storing -------------------------------------------------------
    def put(self, items: AbcSequence[tuple[str, Measurement]]) -> Path:
        """Store every ``(key, measurement)`` of ``items`` (summary
        fields + trace) as one new pack; returns the pack's path."""
        if not items:
            raise ValueError("put() needs at least one measurement")
        ns = self._last_ns = max(time.time_ns(), self._last_ns + 1)
        name = f"{ns:020d}-{os.getpid()}{PACK_SUFFIX}"
        path = self.root / name
        self.root.mkdir(parents=True, exist_ok=True)
        slots = []
        start = 0
        with _replacing(path) as pack:
            # One record encoded at a time: a traced one is ~0.7 MB.
            for key, measurement in items:
                record = _record(key, measurement)
                pack.write(record)
                pack.write(b"\n")
                slots.append((key, start, len(record)))
                start += len(record) + 1
        self._packs.add(name)
        for key, start, length in slots:
            slot = self._index.get(key)
            if slot is None or slot[0] <= name:
                self._index[key] = (name, start, length)
        return path

    # -- inventory -----------------------------------------------------
    def packs(self) -> list[Path]:
        """Every pack under the root, in write order."""
        return sorted(self.root.glob(f"*{PACK_SUFFIX}"))

    def records(self) -> dict[str, bytes]:
        """Every stored measurement's record text by key, as a fresh
        reader would serve it: a key's latest pack record."""
        index: dict[str, tuple[str, int, int]] = {}
        data = {}
        for path in self.packs():
            data[path.name] = path.read_bytes()
            _index_pack(index, path.name, data[path.name])
        return {
            key: data[name][start : start + length]
            for key, (name, start, length) in index.items()
        }

    def clear(self) -> int:
        """Delete every pack; returns how many measurements they held."""
        removed = len(self)
        for path in self.packs():
            path.unlink(missing_ok=True)
        self._index.clear()
        self._packs.clear()
        self._listed = False
        return removed

    def __len__(self) -> int:
        """How many measurements are stored (distinct keys).

        Counts the keys of a fresh index, built one pack at a time, so
        only one pack's bytes are held at once.
        """
        index: dict[str, tuple[str, int, int]] = {}
        for path in self.packs():
            _index_pack(index, path.name, path.read_bytes())
        return len(index)


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[BinaryIO]:
    """A temp file to write ``path``'s content into; it is renamed to
    ``path`` when the block ends without an error, so readers see the
    whole file or none of it."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as file:
            yield file
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    tmp.replace(path)


def _record(key: str, measurement: Measurement) -> bytes:
    """The one-line JSON record of ``measurement`` under ``key``.

    Its bytes are those of a per-file ``ab/<key>.json`` entry.
    """
    entry = _summary_payload(
        measurement,
        "per_node_energy_runs",
        _energy_runs(measurement.per_node_energy_j),
    )
    if measurement.trace is not None:
        entry["trace"] = trace_to_csv(measurement.trace)
    return json.dumps({"key": key, "measurement": entry}).encode()
