"""The three scheduling strategies."""

import pytest

from repro.sim import Environment
from repro.hardware import nemo_cluster
from repro.core.strategies import (
    CpuspeedConfig,
    CpuspeedDaemonStrategy,
    ExternalStrategy,
    InternalStrategy,
    NoDvsStrategy,
    PhasePolicy,
    RankPolicy,
)
from repro.core.framework import run_workload
from repro.workloads import get_workload


class TestCpuspeedAlgorithm:
    """The threshold rule transcribed from the paper's pseudocode."""

    def setup_method(self):
        strategy = CpuspeedDaemonStrategy(
            CpuspeedConfig(
                interval_s=2.0,
                minimum_threshold=50,
                usage_threshold=80,
                maximum_threshold=95,
            )
        )
        self.daemon = strategy.controller().make()

    def next_index(self, current, usage):
        return self.daemon.next_index(current, 4, usage)

    def test_below_minimum_jumps_to_slowest(self):
        assert self.next_index(3, 10.0) == 0

    def test_above_maximum_jumps_to_fastest(self):
        assert self.next_index(0, 99.0) == 4

    def test_below_usage_steps_down(self):
        assert self.next_index(3, 70.0) == 2
        assert self.next_index(0, 70.0) == 0  # clamped

    def test_between_usage_and_max_steps_up(self):
        assert self.next_index(2, 90.0) == 3
        assert self.next_index(4, 90.0) == 4  # clamped

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            CpuspeedConfig(minimum_threshold=90, usage_threshold=50)
        with pytest.raises(ValueError):
            CpuspeedConfig(interval_s=0)

    def test_version_presets(self):
        assert CpuspeedConfig.v1_1().interval_s == 0.1
        assert CpuspeedConfig.v1_2_1().interval_s == 2.0


class TestCpuspeedIntegration:
    def test_daemon_descends_on_idle_cluster(self):
        env = Environment()
        cluster = nemo_cluster(env, 2, with_batteries=False)
        strategy = CpuspeedDaemonStrategy()
        strategy.setup(cluster, [0, 1])
        env.run(until=30.0)
        strategy.teardown(cluster)
        # idle utilization ~0 -> both nodes at the slowest point
        assert all(n.cpu.frequency_mhz == 600 for n in cluster)

    def test_daemon_rides_up_under_load(self):
        env = Environment()
        cluster = nemo_cluster(env, 1, with_batteries=False)
        cluster[0].cpu.set_speed_mhz(600)
        strategy = CpuspeedDaemonStrategy()
        strategy.setup(cluster, [0])
        done = cluster[0].cpu.run_work(cycles=100e9)  # long busy burst
        env.run(until=10.0)
        assert cluster[0].cpu.frequency_mhz == 1400
        strategy.teardown(cluster)

    def test_teardown_stops_daemons(self):
        env = Environment()
        cluster = nemo_cluster(env, 1, with_batteries=False)
        strategy = CpuspeedDaemonStrategy()
        strategy.setup(cluster, [0])
        env.run(until=5.0)
        strategy.teardown(cluster)
        transitions_after_stop = cluster[0].cpu.stats.transitions
        env.run(until=50.0)
        assert cluster[0].cpu.stats.transitions == transitions_after_stop

    def test_v1_1_stays_at_top_speed_on_npb(self):
        """Paper: CPUSPEED 1.1 was 'equivalent to no DVS' for NPB."""
        w = get_workload("MG", klass="T")
        auto = run_workload(
            w, CpuspeedDaemonStrategy(CpuspeedConfig.v1_1())
        )
        base = run_workload(w, NoDvsStrategy())
        d, e = auto.normalized_against(base)
        assert d == pytest.approx(1.0, abs=0.03)
        assert e == pytest.approx(1.0, abs=0.05)


class TestExternal:
    def test_homogeneous_setting(self):
        env = Environment()
        cluster = nemo_cluster(env, 3, with_batteries=False)
        ExternalStrategy(mhz=800).setup(cluster, [0, 1, 2])
        assert all(n.cpu.frequency_mhz == 800 for n in cluster)

    def test_heterogeneous_setting(self):
        env = Environment()
        cluster = nemo_cluster(env, 3, with_batteries=False)
        ExternalStrategy(per_node_mhz=[600, 800, 1000]).setup(cluster, [0, 1, 2])
        assert [n.cpu.frequency_mhz for n in cluster] == [600, 800, 1000]

    def test_heterogeneous_length_mismatch(self):
        env = Environment()
        cluster = nemo_cluster(env, 3, with_batteries=False)
        with pytest.raises(ValueError):
            ExternalStrategy(per_node_mhz=[600]).setup(cluster, [0, 1, 2])

    def test_profile_driven_selection(self):
        from repro.experiments.calibration import table2_profile
        from repro.core.metrics import ED3P

        strat = ExternalStrategy(profile=table2_profile("FT"), metric=ED3P)
        assert strat.mhz == 800.0
        assert "ED3P" in strat.describe()

    def test_exactly_one_style_required(self):
        with pytest.raises(ValueError):
            ExternalStrategy()
        with pytest.raises(ValueError):
            ExternalStrategy(mhz=600, per_node_mhz=[600])


class TestInternal:
    def test_phase_policy_switches_during_phase(self):
        w = get_workload("FT", klass="T")
        policy = PhasePolicy({"alltoall"}, low_mhz=600, high_mhz=1400)
        m = run_workload(w, InternalStrategy(policy))
        # 2 switches per iteration per rank + initial set
        assert m.dvs_transitions >= 2 * w.iters * w.nprocs
        assert 600.0 in m.time_at_mhz and 1400.0 in m.time_at_mhz

    def test_phase_policy_requires_known_phase(self):
        w = get_workload("EP", klass="T")
        policy = PhasePolicy({"alltoall"})
        with pytest.raises(ValueError, match="never announces"):
            InternalStrategy(policy).hooks(w)

    def test_phase_policy_needs_some_phase(self):
        with pytest.raises(ValueError):
            PhasePolicy(set())

    def test_rank_policy_split(self):
        w = get_workload("CG", klass="T")
        policy = RankPolicy.split(4, high_mhz=1200, low_mhz=800)
        m = run_workload(w, InternalStrategy(policy, label="I"))
        # Static per-rank speeds: one transition per rank at init.
        assert m.dvs_transitions == w.nprocs
        assert m.time_at_mhz.get(1200, 0) > 0
        assert m.time_at_mhz.get(800, 0) > 0
        assert "internal[I]" == m.strategy

    def test_rank_policy_mapping(self):
        policy = RankPolicy({0: 600.0, 1: 1400.0})
        assert policy._speed_of(0) == 600.0
        assert policy._speed_of(1) == 1400.0


def test_no_dvs_pins_top_speed():
    env = Environment()
    cluster = nemo_cluster(env, 2, with_batteries=False)
    cluster.set_all_speeds_mhz(600)
    NoDvsStrategy().setup(cluster, [0, 1])
    assert all(n.cpu.frequency_mhz == 1400 for n in cluster)
