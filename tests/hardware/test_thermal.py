"""Thermal/reliability/cost model."""

import math

import pytest

from repro.core.strategies import InternalStrategy, PhasePolicy
from repro.hardware import nemo_cluster
from repro.hardware.thermal import (
    PAPER_USD_PER_MWH,
    ThermalModel,
    ThermalParameters,
    arrhenius_life_factor,
    operating_cost_usd,
)
from repro.mpi import launch
from repro.sim import Environment
from repro.workloads import get_workload


class TestThermalParameters:
    def test_steady_state(self):
        p = ThermalParameters(ambient_c=20.0, r_th_c_per_w=2.0)
        assert p.steady_state_c(10.0) == 40.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ThermalParameters(r_th_c_per_w=0)
        with pytest.raises(ValueError):
            ThermalParameters(tau_s=-1)


class TestThermalModel:
    def test_starts_at_idle_equilibrium(self, env, node):
        model = ThermalModel(node)
        expected = model.params.steady_state_c(node.breakdown().cpu_w)
        assert model.temperature_c() == pytest.approx(expected)

    def test_heats_toward_busy_steady_state(self, env, node):
        model = ThermalModel(node)
        t_idle = model.temperature_c()
        done = node.cpu.run_work(cycles=1.4e9 * 300)  # 5 busy minutes
        env.run(done)
        t_busy = model.temperature_c()
        assert t_busy > t_idle + 5.0
        busy_ss = model.params.steady_state_c(node.breakdown().cpu_w)
        # after many time constants we are essentially at equilibrium
        # (breakdown() now reports idle again, so recompute vs peak)
        assert model.peak_temperature_c() <= busy_ss + 35.0

    def test_rc_relaxation_math(self, env, node):
        """One power step: T(t) must follow the closed-form exponential."""
        params = ThermalParameters(ambient_c=20.0, r_th_c_per_w=1.0, tau_s=10.0)
        power = [10.0]
        model = ThermalModel(node, params, power_fn=lambda: power[0])
        t0 = model.temperature_c()  # 30 C equilibrium
        power[0] = 30.0
        node._on_state_change()  # notify listeners
        env.run(until=env.now + 10.0)  # one time constant
        expected = 50.0 + (t0 - 50.0) * math.exp(-1.0)
        assert model.temperature_c() == pytest.approx(expected, rel=1e-6)

    def test_mean_temperature_between_extremes(self, env, node):
        model = ThermalModel(node)
        done = node.cpu.run_work(cycles=1.4e9 * 60)
        env.run(done)
        env.run(until=env.now + 60.0)
        mean = model.mean_temperature_c()
        assert model.params.ambient_c < mean < model.peak_temperature_c() + 1e-9

    def test_dvs_lowers_cpu_temperature(self, env, cluster):
        """The paper's reliability argument: less power -> cooler parts."""
        hot_node, cool_node = cluster[0], cluster[1]
        cool_node.cpu.set_speed_mhz(600)
        hot = ThermalModel(hot_node)
        cool = ThermalModel(cool_node)
        a = hot_node.cpu.run_work(cycles=1.4e9 * 120)
        b = cool_node.cpu.run_work(cycles=0.6e9 * 120)
        env.run(a)
        env.run(b)
        assert cool.peak_temperature_c() < hot.peak_temperature_c() - 5.0


class TestArrhenius:
    def test_ten_degrees_doubles_life(self):
        assert arrhenius_life_factor(60.0, 70.0) == pytest.approx(2.0)
        assert arrhenius_life_factor(70.0, 60.0) == pytest.approx(0.5)

    def test_same_temperature_is_unity(self):
        assert arrhenius_life_factor(55.0, 55.0) == 1.0


class TestOperatingCost:
    def test_paper_petaflop_anchor(self):
        """100 MW for one hour at $100/MWh = $10,000 (paper intro)."""
        energy_j = 100e6 * 3600.0
        assert operating_cost_usd(energy_j) == pytest.approx(10_000.0)

    def test_rate_scales(self):
        assert operating_cost_usd(3.6e9, usd_per_mwh=50.0) == 50.0

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            operating_cost_usd(-1.0)

    def test_default_rate_is_papers(self):
        assert PAPER_USD_PER_MWH == 100.0


def _ft_with_thermal(policy=None):
    """FT.C.8 with a thermal model per node, under ``policy`` if given:
    (elapsed s, energy J, mean CPU temperature over the cluster)."""
    w = get_workload("FT", klass="C")
    env = Environment()
    cluster = nemo_cluster(env, w.nprocs, with_batteries=False)
    models = [ThermalModel(node) for node in cluster]
    program = (
        w.make_program(InternalStrategy(policy).hooks(w))
        if policy is not None
        else w.make_program()
    )
    handle = launch(cluster, program, nprocs=w.nprocs, cost=w.cost_model())
    env.run(handle.done)
    handle.check()
    mean_t = sum(m.mean_temperature_c() for m in models) / len(models)
    return handle.elapsed(), cluster.total_energy_j(), mean_t


def test_internal_ft_schedule_cools_cpus_at_no_delay():
    """The paper's Section 1 reliability and cost argument on FT: the
    INTERNAL schedule cuts energy by over a quarter at no delay and
    cools the CPUs enough to lengthen their Arrhenius-law life."""
    b_el, b_en, b_mean = _ft_with_thermal()
    s_el, s_en, s_mean = _ft_with_thermal(
        PhasePolicy({"alltoall"}, low_mhz=600, high_mhz=1400)
    )
    assert s_en < b_en * 0.75
    assert s_el < b_el * 1.01
    assert s_mean < b_mean - 2.0
    assert arrhenius_life_factor(s_mean, b_mean) > 1.1
