"""Pin every static schedule's event-engine output to one digest.

A static schedule (no-DVS, EXTERNAL, the INTERNAL rank and phase
policies, an optimizer plan) is a :class:`~repro.core.strategies.base.GearPlan`:
speeds pinned at setup plus fixed ``set_cpuspeed`` calls at rank and
phase sites.  The event engine is the referee the straightline tiers
are checked against, so this test hashes its
:class:`~repro.core.framework.Measurement` for every static shape ×
fault environment × NPB code at class T, plus a traced run of every
shape and code.  Any change to how the engine actuates a static
schedule — which calls, in what order, on which rank, with which fault
draws — shows up as a digest change, including on faulty runs the
straightline tiers never see.
"""

from __future__ import annotations

import hashlib
import json

from repro.core.framework import run_workload
from repro.core.strategies import (
    ExternalStrategy,
    InternalStrategy,
    NoDvsStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.faults.spec import FAULT_PRESETS, FaultSpec
from repro.optimize import OptimalPlanStrategy
from repro.workloads import get_workload
from repro.workloads.npb import ALL_CODES

GEARS = (1400.0, 800.0, 600.0, 1000.0)


def _halves(n: int) -> tuple[int, ...]:
    return (0,) * (n // 2) + (1,) * (n - n // 2)


#: shape name -> strategy factory for one workload.
SHAPES = {
    "nodvs": lambda w: NoDvsStrategy(),
    "external": lambda w: ExternalStrategy(mhz=800.0),
    "external_per_node": lambda w: ExternalStrategy(
        per_node_mhz=[GEARS[r % len(GEARS)] for r in range(w.nprocs)]
    ),
    "rank": lambda w: InternalStrategy(
        RankPolicy.split(w.nprocs // 2, high_mhz=1200.0, low_mhz=800.0)
    ),
    "phase": lambda w: InternalStrategy(
        PhasePolicy({w.phases[1]}, low_mhz=600.0, high_mhz=1400.0)
    ),
    # group 0's row varies across phases, group 1's row is uniform
    "optimal": lambda w: OptimalPlanStrategy(
        _halves(w.nprocs),
        w.phases,
        [
            [GEARS[p % len(GEARS)] for p in range(len(w.phases))],
            [1000.0] * len(w.phases),
        ],
    ),
    # every row uniform: a per-rank EXTERNAL setting in plan form
    "optimal_uniform": lambda w: OptimalPlanStrategy(
        _halves(w.nprocs), w.phases, [[800.0] * len(w.phases),
                                      [1200.0] * len(w.phases)]
    ),
}

FAULTS = {
    "none": None,
    "mild": FAULT_PRESETS["mild"],
    "fail50": FaultSpec(transition_fail_rate=0.5, seed=3),
}

#: sha256 of the whole matrix's canonical JSON (see ``_record``).
MATRIX_DIGEST = (
    "0eda426c7650dbaefca1692ad10aeb1301827e8a9b5ac660fcb8f55aaddb9328"
)


def _record(m) -> dict:
    """The hashed fields of one measurement, floats as ``float.hex``."""
    record = {
        "elapsed_s": m.elapsed_s.hex(),
        "energy_j": m.energy_j.hex(),
        "per_node_energy_j": {
            str(nid): e.hex() for nid, e in sorted(m.per_node_energy_j.items())
        },
        "dvs_transitions": m.dvs_transitions,
        "time_at_mhz": {
            mhz.hex(): s.hex() for mhz, s in sorted(m.time_at_mhz.items())
        },
        "extras": m.extras,
    }
    if m.trace is not None:
        record["trace"] = [
            [e.rank, e.op, e.t_begin.hex(), e.t_end.hex(),
             float(e.nbytes).hex(), e.peer]
            for e in m.trace.events
        ]
    return record


def test_static_matrix_digest() -> None:
    records = {}
    failed = 0
    for shape, make in SHAPES.items():
        for code in ALL_CODES:
            for fault_name, spec in FAULTS.items():
                w = get_workload(code, klass="T")
                m = run_workload(w, make(w), faults=spec, engine="event")
                records[f"{shape}/{fault_name}/{code}"] = _record(m)
                failed += m.extras.get("faults", {}).get(
                    "transitions_failed", 0
                )
            w = get_workload(code, klass="T")
            m = run_workload(w, make(w), trace=True, engine="event")
            records[f"{shape}/traced/{code}"] = _record(m)
    # The matrix exercises the fault paths it is meant to pin.
    assert failed > 0
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == MATRIX_DIGEST
