"""Pin every daemon's event-engine output to one digest.

Each daemon's control logic runs on the event engine (the referee the
straightline tiers are checked against).  This test hashes the
event-engine :class:`~repro.core.framework.Measurement` of every daemon
× fault environment × NPB code at class T, so any change to how the
engine drives a daemon — poll timing, call order, retry behaviour,
fault draws — shows up as a digest change, including on faulty runs
the straightline tiers never see.

Poll intervals are short on purpose: at the shipped intervals the
class-T runs barely transition (CPUSPEED v1.1 makes none at all).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.core.framework import run_workload
from repro.core.strategies import (
    BetaConfig,
    BetaDaemonStrategy,
    CpuspeedConfig,
    CpuspeedDaemonStrategy,
    PowerCapConfig,
    PowerCapStrategy,
    PredictiveConfig,
    PredictiveDaemonStrategy,
)
from repro.faults.spec import FAULT_PRESETS, FaultSpec
from repro.hardware.cpu import CpuCore
from repro.workloads import get_workload
from repro.workloads.npb import ALL_CODES

DAEMONS = {
    "cpuspeed": lambda: CpuspeedDaemonStrategy(CpuspeedConfig(interval_s=0.02)),
    "predictive": lambda: PredictiveDaemonStrategy(
        PredictiveConfig(interval_s=0.01)
    ),
    "beta": lambda: BetaDaemonStrategy(BetaConfig(interval_s=0.02)),
    "powercap200": lambda: PowerCapStrategy(
        PowerCapConfig(cap_w=200.0, interval_s=0.02)
    ),
    "powercap250": lambda: PowerCapStrategy(
        PowerCapConfig(cap_w=250.0, interval_s=0.02)
    ),
}

FAULTS = {
    "none": None,
    "mild": FAULT_PRESETS["mild"],
    "harsh": FAULT_PRESETS["harsh"],
    "fail50": FaultSpec(transition_fail_rate=0.5, seed=3),
}

#: sha256 of the whole matrix's canonical JSON (see ``_record``).
MATRIX_DIGEST = (
    "928a630e14ccd6e72f145c69d9004f8859a15450d630e6a056c3d3c69fcf3994"
)


def _record(m) -> dict:
    """The hashed fields of one measurement, floats as ``float.hex``."""
    return {
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


@pytest.fixture
def failed_sheds(monkeypatch) -> list:
    """Record every in-run failed step-down (a power-cap shed)."""
    failed: list = []
    original = CpuCore.set_speed_index

    def recording(cpu, index):
        before = cpu.index
        ok = original(cpu, index)
        if not ok and index < before and cpu.env.now > 0:
            failed.append((cpu.node_id, cpu.env.now))
        return ok

    monkeypatch.setattr(CpuCore, "set_speed_index", recording)
    return failed


def test_daemon_matrix_digest(failed_sheds) -> None:
    records = {}
    retries = 0
    powercap_failed_sheds = 0
    for daemon, make in DAEMONS.items():
        for fault_name, spec in FAULTS.items():
            for code in ALL_CODES:
                n_before = len(failed_sheds)
                m = run_workload(
                    get_workload(code, klass="T"), make(), faults=spec,
                    engine="event",
                )
                records[f"{daemon}/{fault_name}/{code}"] = _record(m)
                retries += m.extras.get("faults", {}).get("dvs_retries", 0)
                if daemon.startswith("powercap"):
                    powercap_failed_sheds += len(failed_sheds) - n_before
    # The matrix exercises the fault paths it is meant to pin.
    assert retries > 0
    assert powercap_failed_sheds > 0
    blob = json.dumps(records, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == MATRIX_DIGEST
