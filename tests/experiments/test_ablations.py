"""Ablation study shapes: each study on a small subset (mostly class T)
and at its default settings (class B), as ``repro-experiments
ablations`` runs it."""

import pytest

from repro.experiments.ablations import (
    daemon_interval_study,
    daemon_threshold_study,
    network_speed_study,
    scaling_study,
    transition_latency_study,
)


def test_interval_study_points():
    points = daemon_interval_study(code="FT", klass="T", intervals_s=(0.5, 2.0))
    assert [p.setting for p in points] == [0.5, 2.0]
    for p in points:
        assert p.norm_delay > 0 and p.norm_energy > 0
    assert len(daemon_interval_study()) == 6


def test_threshold_regime_flip():
    # Class B: tiny runs end before the daemon's 2 s interval fires.
    points = daemon_threshold_study(
        code="MG", klass="B", usage_thresholds=(60.0, 90.0)
    )
    low, high = points
    # Below the flip the daemon stays fast (no saving); above it slides
    # down (saving, delay).
    assert low.energy_saving < high.energy_saving
    points = daemon_threshold_study()
    assert points[0].norm_energy > points[-1].norm_energy


def test_transition_latency_erodes_internal_gains():
    points = transition_latency_study(
        code="FT", klass="T", latencies_s=(10e-6, 200e-3)
    )
    cheap, expensive = points
    assert expensive.norm_delay > cheap.norm_delay
    assert cheap.energy_saving > 0.1
    # stable at SpeedStep-scale latencies, eroded at pathological ones
    # (the granularity condition of the paper's Section 2)
    points = transition_latency_study()
    assert abs(points[0].norm_energy - points[1].norm_energy) < 0.01
    assert points[-1].norm_delay > points[0].norm_delay + 0.02


def test_network_speed_reduces_slack():
    points = network_speed_study(code="FT", klass="T", bandwidth_scales=(1.0, 8.0))
    slow_net, fast_net = points
    assert slow_net.energy_saving > fast_net.energy_saving
    savings = [p.energy_saving for p in network_speed_study()]
    assert savings == sorted(savings, reverse=True)


def test_scaling_study_runs_at_multiple_sizes():
    points = scaling_study(code="FT", klass="T", node_counts=(2, 8))
    assert [p.setting for p in points] == [2.0, 8.0]
    for p in points:
        assert p.energy_saving > 0.05
        assert p.norm_delay < 1.05
    # strong scaling pushes the comm share (and savings) up with p
    points = scaling_study()
    assert points[-1].energy_saving >= points[0].energy_saving


def test_ablation_point_properties():
    from repro.experiments.ablations import AblationPoint

    p = AblationPoint(1.0, 1.05, 0.8)
    assert p.energy_saving == pytest.approx(0.2)
