"""Communication cost model (MPICH 1.2.5 over Fast Ethernet).

All constants live here so experiments can swap models.  Two groups:

* **Timing** — software overheads (cycles, so they scale with the
  clock), protocol thresholds, collective-duration formulas (LogGP-ish,
  parameterized by the network's latency/bandwidth), and the congestion
  term behind the paper's IS/SP anomaly (above a frequency threshold a
  saturated fabric sees extra collisions/retransmissions, so *higher*
  CPU speed can mean *longer* communication — paper Section 5.2).

* **Power/utilization signatures** — what the CPU does while inside each
  kind of blocking call: dynamic-activity factor (for the power model)
  and busy fraction (what /proc — and hence the CPUSPEED daemon — sees).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.hardware.network import NetworkParameters

__all__ = ["CostModel", "WaitSignature"]


@dataclass(frozen=True)
class WaitSignature:
    """CPU state while blocked in a library call."""

    activity: float
    busy: float
    mem_activity: float = 0.0
    nic_activity: float = 0.0

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.activity, self.busy, self.mem_activity, self.nic_activity)


@dataclass(frozen=True)
class CostModel:
    """Tunable constants of the virtual MPI implementation."""

    # -- protocol ------------------------------------------------------
    #: eager/rendezvous switch (MPICH 1.2.5 ch_p4 default ballpark).
    eager_threshold_bytes: int = 128 * 1024
    #: fixed software cost per send/recv, in CPU cycles (scales with f).
    send_overhead_cycles: float = 9_000.0
    recv_overhead_cycles: float = 8_000.0
    #: copy cost per byte on each side, in cycles.
    pack_cycles_per_byte: float = 0.35
    unpack_cycles_per_byte: float = 0.35

    # -- collective shapes ---------------------------------------------
    #: link-utilisation derating for dense exchange patterns.
    alltoall_efficiency: float = 0.75
    #: extra per-collective software cost (cycles).
    collective_overhead_cycles: float = 25_000.0
    #: software cost of one application-level set_cpuspeed call
    #: (syscall + CPUFreq driver path) — charged even when the target
    #: point equals the current one.  The paper's reason fine-grained
    #: phase scheduling "can not be ignored" for short CG cycles.
    dvs_call_overhead_s: float = 2e-4

    # -- congestion / collision term (IS & SP anomaly) ------------------
    #: fractional slowdown of saturating collectives at full clock.
    collision_coeff: float = 0.0
    #: frequency ratio (f/f_max) above which collisions kick in.
    collision_onset: float = 0.72
    #: whether the collision term also stretches point-to-point
    #: transfers (codes whose p2p pattern saturates the fabric, e.g. SP).
    collision_applies_p2p: bool = False

    # -- CPU signatures -------------------------------------------------
    #: active message progress (collectives, rendezvous transfers).
    comm_progress: WaitSignature = WaitSignature(
        activity=0.85, busy=0.45, mem_activity=0.25, nic_activity=1.0
    )
    #: select()-blocked receive / CTS wait.
    blocked_wait: WaitSignature = WaitSignature(
        activity=0.25, busy=0.05, mem_activity=0.05, nic_activity=0.2
    )

    def with_(self, **changes) -> "CostModel":
        """Return a copy with fields replaced (convenience)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    # timing helpers
    # ------------------------------------------------------------------
    def is_eager(self, nbytes: float) -> bool:
        return nbytes <= self.eager_threshold_bytes

    def send_cycles(self, nbytes: float) -> float:
        """Sender-side CPU cycles to initiate a message (pack + syscall)."""
        copied = min(nbytes, self.eager_threshold_bytes)
        return self.send_overhead_cycles + self.pack_cycles_per_byte * copied

    def recv_cycles(self, nbytes: float) -> float:
        """Receiver-side CPU cycles to complete a message (unpack)."""
        return self.recv_overhead_cycles + self.unpack_cycles_per_byte * nbytes

    def collision_factor(self, freq_ratio: float) -> float:
        """Multiplicative slowdown of saturating exchanges at high clock.

        ``freq_ratio`` is the fastest participant's ``f / f_max``.  The
        factor is 1 below :attr:`collision_onset` and ramps linearly to
        ``1 + collision_coeff`` at full speed.
        """
        if self.collision_coeff <= 0.0:
            return 1.0
        ramp = (freq_ratio - self.collision_onset) / (1.0 - self.collision_onset)
        return 1.0 + self.collision_coeff * min(1.0, max(0.0, ramp))

    def p2p_wire_bytes(self, nbytes: float, freq_ratio: float) -> float:
        """Effective wire bytes of one point-to-point message.

        Codes whose p2p pattern saturates the fabric
        (:attr:`collision_applies_p2p`) pay the collision factor as
        inflated wire bytes; everyone else ships ``nbytes`` unchanged.
        """
        if not self.collision_applies_p2p:
            return nbytes
        return nbytes * self.collision_factor(freq_ratio)

    # ------------------------------------------------------------------
    # collective durations (seconds), excluding the software cycles
    # ------------------------------------------------------------------
    def collective_seconds(
        self,
        kind: str,
        nprocs: int,
        max_bytes: float,
        net: NetworkParameters,
        freq_ratio: float = 1.0,
        jitter_s: float = 0.0,
    ) -> float:
        """Wire time of one collective once all ranks have arrived.

        ``max_bytes`` is the largest per-rank payload (per-pair bytes for
        alltoall are already multiplied by ``nprocs - 1`` by the caller).
        ``jitter_s`` is additive OS-noise from fault injection; a noisy
        collective still pays its full fault-free wire time.
        """
        if nprocs < 1:
            raise ValueError("nprocs must be >= 1")
        if nprocs == 1:
            return 0.0
        lat = net.latency_s
        ser = max_bytes / net.bandwidth_Bps
        rounds = math.ceil(math.log2(nprocs))
        if kind == "barrier":
            wire = 2 * rounds * lat
        elif kind in ("bcast", "reduce", "scatter", "gather"):
            wire = rounds * lat + ser
        elif kind == "allreduce":
            wire = 2 * (rounds * lat + ser)
        elif kind == "allgather":
            wire = (nprocs - 1) * lat + ser
        elif kind in ("alltoall", "alltoallv"):
            base = (nprocs - 1) * lat + ser / self.alltoall_efficiency
            wire = base * self.collision_factor(freq_ratio)
        else:
            raise ValueError(f"unknown collective kind {kind!r}")
        # Guarded add keeps the clean path's result byte-identical.
        return wire + jitter_s if jitter_s > 0.0 else wire

    @staticmethod
    def alltoall_bytes(nprocs: int, bytes_per_pair: float) -> float:
        """Per-rank wire bytes of an alltoall with ``bytes_per_pair``."""
        return (nprocs - 1) * bytes_per_pair
