"""Fault-injection configuration.

A :class:`FaultSpec` is the *complete*, value-typed description of a
fault environment: which fault classes are enabled, at what rates, and
the seed that makes every injected schedule reproducible.  It is a
frozen dataclass so it pickles into parallel workers unchanged and
canonicalises into measurement-cache keys (a faulty run can never
alias a clean run's cache slot).

Rates are probabilities per *opportunity* (per DVS transition, per
message, per battery poll, per node), not per unit time; magnitudes
(slowdown factor, jitter mean, sensor noise) are separate knobs so a
spec can express "rare but large" as well as "frequent but small"
perturbations.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

__all__ = ["FaultSpec", "parse_fault_spec", "FAULT_PRESETS"]


@dataclass(frozen=True)
class FaultSpec:
    """Declarative description of one fault environment.

    All rates default to zero: ``FaultSpec()`` is the *noop* spec, and
    a run under it is bit-for-bit identical to a run with no injector
    at all (enforced by ``tests/faults/test_determinism.py``).
    """

    #: Root seed of every fault schedule.  Independent from the run
    #: seed on purpose: the same fault schedule can be replayed against
    #: different measurement-jitter seeds and vice versa.
    seed: int = 0

    # -- DVS transitions (hardware/cpu.py) -----------------------------
    #: Probability that one SpeedStep mode transition fails: the stall
    #: is charged (the driver blocked either way) but the operating
    #: point does not change.
    transition_fail_rate: float = 0.0

    # -- per-node degradation (hardware/node.py) -----------------------
    #: Probability that a node is a straggler for the whole run.
    node_slowdown_rate: float = 0.0
    #: Duration multiplier (>= 1) applied to the straggler's on-chip
    #: work (thermal throttling / background daemon interference).
    node_slowdown_factor: float = 1.5
    #: Probability that a node freezes once during the run.
    node_crash_rate: float = 0.0
    #: The freeze happens uniformly within the first this-many seconds.
    node_crash_window_s: float = 60.0
    #: How long the frozen node stalls before resuming (reboot +
    #: checkpoint restart, treated as a pure delay).
    node_reboot_s: float = 10.0

    # -- messages (mpi/communicator.py, mpi/costmodel.py) --------------
    #: Probability that a point-to-point message sees extra latency.
    message_jitter_rate: float = 0.0
    #: Mean of the (exponential) extra latency, seconds.
    message_jitter_s: float = 1e-3
    #: Probability that one payload transfer is lost and retransmitted.
    message_drop_rate: float = 0.0
    #: Retransmission timeout per lost transfer (TCP RTO ballpark).
    message_retransmit_s: float = 0.2
    #: Probability that a collective sees OS-noise jitter (same
    #: exponential mean as message jitter).
    collective_jitter_rate: float = 0.0

    # -- sensors (powerpack/acpi.py, powerpack/collector.py) -----------
    #: Probability that one ACPI battery poll returns nothing.
    sensor_dropout_rate: float = 0.0
    #: Std-dev of extra gaussian noise on each battery reading, mWh.
    sensor_noise_mwh: float = 0.0

    def __post_init__(self) -> None:
        for f in fields(self):
            if f.name.endswith("_rate"):
                rate = getattr(self, f.name)
                if not 0.0 <= rate <= 1.0:
                    raise ValueError(f"{f.name} must be in [0, 1], got {rate!r}")
        if self.node_slowdown_factor < 1.0:
            raise ValueError("node_slowdown_factor must be >= 1")
        if self.node_crash_window_s < 0 or self.node_reboot_s < 0:
            raise ValueError("crash window / reboot time must be non-negative")
        if self.message_jitter_s < 0 or self.sensor_noise_mwh < 0:
            raise ValueError("jitter mean / sensor noise must be non-negative")
        if self.message_retransmit_s <= 0:
            raise ValueError("retransmission timeout must be positive")

    @property
    def active(self) -> bool:
        """Whether any fault class can actually fire."""
        return any(
            getattr(self, f.name) > 0.0
            for f in fields(self)
            if f.name.endswith("_rate")
        ) or self.sensor_noise_mwh > 0.0

    def is_noop(self) -> bool:
        """Whether this spec provably injects nothing.

        Every rate is zero and the sensor noise is zero: no draw is
        ever taken, so a run under it is bit-for-bit a clean run.
        Engine selection (``run_workload``, ``ParallelRunner.map``)
        treats such a spec as ``faults=None`` — it does not pin the run
        to the event engine — while cache keys are unaffected either
        way.
        """
        return not self.active

    def with_(self, **changes) -> "FaultSpec":
        """Return a copy with fields replaced (convenience)."""
        return replace(self, **changes)

    def describe(self) -> str:
        """Compact non-default-fields summary for reports/CLI echoes."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                parts.append(f"{f.name}={value:g}" if isinstance(value, float)
                             else f"{f.name}={value}")
        return "faults(" + (", ".join(parts) if parts else "none") + ")"


#: Named fault environments for the CLI (``--faults mild`` etc.).
FAULT_PRESETS: dict[str, FaultSpec] = {
    "none": FaultSpec(),
    #: Occasional glitches a healthy production cluster still shows.
    "mild": FaultSpec(
        transition_fail_rate=0.02,
        message_jitter_rate=0.05,
        message_jitter_s=5e-4,
        sensor_dropout_rate=0.05,
    ),
    #: A visibly sick cluster: stragglers, lossy fabric, flaky sensors.
    "harsh": FaultSpec(
        transition_fail_rate=0.2,
        node_slowdown_rate=0.25,
        node_slowdown_factor=1.3,
        message_jitter_rate=0.2,
        message_jitter_s=2e-3,
        message_drop_rate=0.05,
        collective_jitter_rate=0.1,
        sensor_dropout_rate=0.3,
        sensor_noise_mwh=2.0,
    ),
}

#: CLI shorthand -> field name.
_ALIASES = {
    "fail": "transition_fail_rate",
    "slowdown": "node_slowdown_rate",
    "crash": "node_crash_rate",
    "jitter": "message_jitter_rate",
    "drop": "message_drop_rate",
    "dropout": "sensor_dropout_rate",
    "noise": "sensor_noise_mwh",
}


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a ``--faults`` argument into a :class:`FaultSpec`.

    Accepts a preset name (``mild``, ``harsh``), ``key=value`` pairs
    separated by commas, or a preset followed by overrides::

        --faults mild
        --faults "fail=0.1,seed=7"
        --faults "harsh,drop=0.0"

    Keys are full field names or the shorthands in ``_ALIASES``.
    """
    spec = FaultSpec()
    valid = {f.name for f in fields(FaultSpec)}
    for part in filter(None, (p.strip() for p in text.split(","))):
        if "=" not in part:
            try:
                spec = FAULT_PRESETS[part]
            except KeyError:
                raise ValueError(
                    f"unknown fault preset {part!r} "
                    f"(have {sorted(FAULT_PRESETS)})"
                ) from None
            continue
        key, _, value = part.partition("=")
        key = key.strip().replace("-", "_")
        key = _ALIASES.get(key, key)
        if key not in valid:
            raise ValueError(f"unknown fault field {key!r}")
        spec = spec.with_(**{key: int(value) if key == "seed" else float(value)})
    return spec
