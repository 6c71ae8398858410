"""Strategy #2 — EXTERNAL command-line scheduling (paper Section 3.2).

User-driven, external control: set every participating node to one
static operating point before launch (``psetcpuspeed 600`` in the
paper's Figure 3) — or, metric-driven, select that point from a
previously measured profile using a fused energy-performance metric
(how Figures 6/7 are produced).

A heterogeneous variant (different static speed per node) is also
provided; the paper notes it is straightforward but needs the profiling
that the INTERNAL approach performs.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from repro.core.metrics import ED3P, FusedMetric, select_operating_point
from repro.core.strategies.base import GearPlan, Strategy
from repro.workloads.base import Workload

__all__ = ["ExternalStrategy"]


class ExternalStrategy(Strategy):
    """Static cluster-wide (or per-node) frequency setting.

    Exactly one of the configuration styles must be used:

    * ``mhz=...`` — explicit homogeneous setting;
    * ``per_node_mhz=[...]`` — explicit heterogeneous settings;
    * ``profile={mhz: (norm_delay, norm_energy)}, metric=ED3P`` —
      metric-driven selection from a measured profile.
    """

    name = "external"

    def __init__(
        self,
        mhz: Optional[float] = None,
        per_node_mhz: Optional[Sequence[float]] = None,
        profile: Optional[Mapping[float, Tuple[float, float]]] = None,
        metric: FusedMetric = ED3P,
    ) -> None:
        styles = sum(x is not None for x in (mhz, per_node_mhz, profile))
        if styles != 1:
            raise ValueError(
                "configure exactly one of mhz=, per_node_mhz= or profile="
            )
        self.metric = metric
        self.per_node_mhz = list(per_node_mhz) if per_node_mhz is not None else None
        if profile is not None:
            mhz = select_operating_point(profile, metric)
            self.selected_from_profile = True
        else:
            self.selected_from_profile = False
        self.mhz = mhz

    def gear_plan(self, workload: Optional[Workload] = None) -> Optional[GearPlan]:
        if self.per_node_mhz is not None:
            return GearPlan(
                start_mhz_per_rank=tuple(float(m) for m in self.per_node_mhz)
            )
        assert self.mhz is not None
        return GearPlan(start_mhz=float(self.mhz))

    def describe(self) -> str:
        if self.per_node_mhz is not None:
            return f"external(per-node {self.per_node_mhz})"
        if self.selected_from_profile:
            return f"external({self.metric.name}->{self.mhz:g}MHz)"
        return f"external({self.mhz:g}MHz)"
