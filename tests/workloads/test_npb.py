"""NPB workload models: structure, scaling, frequency sensitivity."""

import pytest

from repro.sim import Environment
from repro.hardware import nemo_cluster
from repro.mpi import launch
from repro.workloads import get_workload
from repro.workloads.npb import ALL_CODES
from repro.workloads.npb.params import CLASS_SCALE, scale_for

DEFAULT_NPROCS = {"BT": 9, "SP": 9}


def run_tiny(code, mhz=None, klass="T"):
    w = get_workload(code, klass=klass, nprocs=DEFAULT_NPROCS.get(code, 8))
    env = Environment()
    cluster = nemo_cluster(env, w.nprocs, with_batteries=False)
    if mhz is not None:
        cluster.set_all_speeds_mhz(mhz)
    handle = launch(cluster, w.make_program(), nprocs=w.nprocs, cost=w.cost_model())
    env.run(handle.done)
    handle.check()
    return handle.elapsed(), cluster.total_energy_j()


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_every_code_runs_to_completion(code):
    elapsed, energy = run_tiny(code)
    assert elapsed > 0
    assert energy > 0


@pytest.mark.parametrize("code", sorted(ALL_CODES))
def test_slow_clock_never_speeds_up_compute_bound(code):
    fast, _ = run_tiny(code, mhz=1400)
    slow, _ = run_tiny(code, mhz=600)
    # All codes except IS slow down at 600 MHz; IS can only speed up
    # marginally via the collision effect.
    if code == "IS":
        assert slow >= 0.9 * fast
    else:
        assert slow > fast


# Frequency-sensitive share (w_on) each model is calibrated to, from
# the paper's Table 2 D(600) column: w_on = (D(600) - 1) / (1400/600 - 1).
PAPER_D600 = {
    "BT": 1.52,
    "CG": 1.14,
    "EP": 2.35,
    "FT": 1.13,
    "IS": 1.04,
    "LU": 1.58,
    "MG": 1.39,
    "SP": 1.18,
}


@pytest.mark.parametrize("code", sorted(PAPER_D600))
def test_delay_at_600_matches_paper_within_tolerance(code):
    """Class-B runs (faster than C) must land near the paper's Table 2
    normalized delay — the central calibration of each model."""
    fast, _ = run_tiny(code, mhz=1400, klass="B")
    slow, _ = run_tiny(code, mhz=600, klass="B")
    d600 = slow / fast
    assert d600 == pytest.approx(PAPER_D600[code], abs=0.09)


def test_class_scaling_monotone():
    w_c = get_workload("FT", klass="C")
    w_t = get_workload("FT", klass="T")
    assert w_t.iters < w_c.iters
    assert w_t.on_s < w_c.on_s
    assert w_t.bytes_per_pair < w_c.bytes_per_pair


def test_scale_for_rejects_unknown_class():
    with pytest.raises(KeyError):
        scale_for("Z")


def test_class_table_covers_paper_classes():
    for k in ("S", "W", "A", "B", "C"):
        assert k in CLASS_SCALE


def test_ft_strong_scaling_with_more_ranks():
    w8 = get_workload("FT", klass="T", nprocs=8)
    w16 = get_workload("FT", klass="T", nprocs=16)
    assert w16.on_s < w8.on_s
    assert w16.bytes_per_pair < w8.bytes_per_pair


def test_cg_requires_even_ranks():
    with pytest.raises(ValueError):
        get_workload("CG", nprocs=7)


def test_mg_requires_even_ranks():
    for n in (1, 3, 9):
        with pytest.raises(ValueError, match="even rank count"):
            get_workload("MG", klass="T", nprocs=n)
    mg = get_workload("MG", klass="T", nprocs=10)
    assert all(0 <= mg.neighbor(r) < 10 for r in range(10))


def test_bt_sp_require_square_grids():
    with pytest.raises(ValueError):
        get_workload("BT", nprocs=8)
    with pytest.raises(ValueError):
        get_workload("SP", nprocs=10)
    assert get_workload("BT", nprocs=16).side == 4


def test_cg_groups_and_partner():
    cg = get_workload("CG", nprocs=8)
    assert cg.is_heavy(0) and cg.is_heavy(3)
    assert not cg.is_heavy(4)
    assert cg.partner(0) == 4
    assert cg.partner(7) == 3


def test_bt_neighbors_are_valid_ranks():
    bt = get_workload("BT", nprocs=9)
    for rank in range(9):
        for fwd, bwd in bt.neighbors(rank).values():
            assert 0 <= fwd < 9 and 0 <= bwd < 9
            assert fwd != rank and bwd != rank


def test_is_cost_model_has_collision_term():
    is_ = get_workload("IS")
    cm = is_.cost_model()
    assert cm.collision_coeff > 0


def test_sp_collision_applies_to_p2p():
    sp = get_workload("SP")
    assert sp.cost_model().collision_applies_p2p


def test_ep_is_almost_fully_frequency_sensitive():
    fast, _ = run_tiny("EP", mhz=1400, klass="S")
    slow, _ = run_tiny("EP", mhz=600, klass="S")
    assert slow / fast > 2.2  # near the 2.333 clock ratio
