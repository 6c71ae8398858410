"""Persisting experiment results + the measurement memoization cache.

Results are plain dataclasses over floats, so a JSON round-trip covers
archiving, diffing between calibrations, and feeding external plotting
tools.  The archive form holds measurement *summaries* only, matching
what the paper's data-collection software keeps per run.

The second half of this module is the content-addressed
:class:`MeasurementCache`: every simulated sweep point is keyed by a
stable hash of (workload spec, strategy config, seed, cluster/run
parameters, model version), so a campaign never re-simulates a point
another figure already produced.  A traced point's entry also carries
its :class:`~repro.trace.events.TraceLog` as
:func:`~repro.trace.slog.trace_to_csv` text, so a warm campaign
replays the performance-trace figures from disk too.  See
``docs/performance.md`` for the key schema and the invalidation rules.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import os
from collections.abc import Mapping as AbcMapping
from collections.abc import Sequence as AbcSequence
from collections.abc import Set as AbcSet
from math import copysign
from pathlib import Path
from typing import Any, Iterator, Mapping, Optional, Union

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


def _energy_runs(per_node: Mapping[int, float]) -> list[list]:
    """``per_node`` as ``[first_node, count, joules]`` runs.

    A run extends while node ids are consecutive and the values are
    bit-equal, in the dict's iteration order (so decoding restores
    it).  ``-0.0`` never joins a ``0.0`` run and NaN never extends one.
    """
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
        out.update(dict.fromkeys(range(first, first + count), _number(joules)))
        total += count
    if len(out) != total:
        raise ValueError("a node id is repeated across runs")
    return out


def _energies_from_dict(per_node: Any) -> dict[int, float]:
    """Decode the legacy ``{"<node>": joules}`` form, in node order.

    JSON writers sort these keys as strings (``"0", "1", "10", …``);
    every engine produces ascending node ids, so that order is restored.
    """
    return dict(
        sorted(
            (int(k), _number(v)) for k, v in _check(per_node, dict).items()
        )
    )


def measurement_from_dict(data: Mapping[str, Any]) -> Measurement:
    """Inverse of :func:`measurement_to_dict` and of the cache entry form.

    Per-node energies may come as ``per_node_energy_runs`` (cache
    entries) or as the ``per_node_energy_j`` dict (archives and
    cache entries written before the runs form).  A traced cache
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


def cache_key(
    workload: Any,
    strategy: Any,
    seed: int,
    run_kwargs: Optional[Mapping[str, Any]] = None,
) -> str:
    """Content hash identifying one simulated sweep point.

    The key covers the workload spec, the strategy class + its public
    configuration, the seed, every ``run_workload`` keyword that shapes
    the cluster (power model, operating points, network parameters,
    transition latency, ...) and :data:`MODEL_VERSION`.  ``None``-valued
    keywords are dropped first: every ``run_workload`` keyword uses
    ``None`` to mean "the default", so an explicit ``faults=None`` (or
    ``network_params=None``) must share the unspecified key's slot.
    """
    spec = {
        "model_version": MODEL_VERSION,
        "workload": canonical_spec(workload),
        "workload_tag": getattr(workload, "tag", None),
        "strategy": canonical_spec(strategy),
        "seed": seed,
        "kwargs": canonical_spec(
            # ``engine`` selects an execution tier, never an output: the
            # straightline accumulator is bit-identical to the event
            # engine, so both tiers share one cache slot.
            {
                k: v
                for k, v in (run_kwargs or {}).items()
                if v is not None and k != "engine"
            }
        ),
    }
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def default_cache_dir() -> Path:
    """``$REPRO_CACHE_DIR`` if set, else ``.repro-cache`` in the cwd."""
    return Path(os.environ.get("REPRO_CACHE_DIR", ".repro-cache"))


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one runner/cache lifetime."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: results delivered (fresh or cached) and, of those, how many
    #: were degraded by injected faults (``extras["faults"]`` present).
    runs: int = 0
    degraded_runs: int = 0
    #: corrupt/truncated on-disk entries unlinked during ``get`` (each
    #: also counts as a miss — the point re-simulates and re-stores).
    #: A runner counts the evictions its own lookups caused.
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


class MeasurementCache:
    """Content-addressed on-disk memoization of :class:`Measurement`.

    One JSON file per sweep point, named by its :func:`cache_key`, in
    fan-out directories by the first key byte (``ab/<key>.json``).
    An entry holds the measurement's summary fields and, for a traced
    run, its trace as a ``trace`` field of
    :func:`~repro.trace.slog.trace_to_csv` text (exact through
    ``repr``, in log order; about 0.73 MB for CG.C.8).  Energy reports
    are never stored.  A cached hit is bit-for-bit identical to a
    fresh uncached run for every summary field and, traced, for every
    trace event in log order.

    A corrupt or truncated entry (a writer killed mid-``replace`` on a
    non-atomic filesystem, a bad disk block) is *unlinked* on first
    contact and counted in ``stats.evicted_corrupt``, so the slot
    re-simulates and re-stores once instead of re-failing every run.
    The cache keeps no in-process copies: a runner's ``memo`` answers
    repeated keys before :meth:`get` is reached.
    """

    def __init__(self, root: Union[str, Path, None] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.stats = CacheStats()

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[Measurement]:
        """The cached measurement for ``key``, or None (counted)."""
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.stats.misses += 1
            return None
        try:
            measurement = measurement_from_dict(
                json.loads(text)["measurement"]
            )
        except (ValueError, KeyError, TypeError):
            # Corrupt/truncated entry: evict it so the slot heals with
            # the next store instead of re-failing on every lookup.
            try:
                path.unlink()
            except OSError:  # pragma: no cover - concurrent eviction
                pass
            self.stats.evicted_corrupt += 1
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return measurement

    def put(self, key: str, measurement: Measurement) -> Path:
        """Store ``measurement`` under ``key`` (summary fields + trace)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        entry = _summary_payload(
            measurement,
            "per_node_energy_runs",
            _energy_runs(measurement.per_node_energy_j),
        )
        if measurement.trace is not None:
            entry["trace"] = trace_to_csv(measurement.trace)
        payload = {"key": key, "measurement": entry}
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload))
        tmp.replace(path)  # atomic vs concurrent writers of the same key
        self.stats.stores += 1
        return path

    def entries(self) -> Iterator[Path]:
        """Every on-disk entry."""
        if self.root.exists():
            yield from self.root.glob("*/*.json")

    def clear(self) -> int:
        """Delete every cached entry; returns how many were removed."""
        removed = 0
        for path in self.entries():
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())
