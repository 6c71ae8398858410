"""Group-level channel classes: the quotient tier's p2p eligibility proof.

``classify_channels`` decides whether a compiled program's send/recv
stream decomposes into disjoint isomorphic *lanes* — one member of
every participating group each — so that simulating one representative
lane reproduces all of them bit-for-bit.  The properties pinned here:

* co-classing is invariant under rank permutation *within* a group
  (which member of the peer group a lane pairs with is irrelevant);
* splitting one channel's traffic across several identical channels
  (or merging it back) never changes the verdict or the measurement;
* zero-byte payloads and self-sends decline with their own reason
  codes rather than misclassifying;
* the interpreter's FIFO "out-of-order network channel demand" decline
  keeps raising, now with the ``out_of_order_channel`` telemetry code.

Every exactness claim is backed by a differential run: the quotient
measurement must equal the event engine's with ``==`` on raw floats.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.framework import run_workload
from repro.core.strategies.external import ExternalStrategy
from repro.sim.straightline import (
    StraightlineUnsupported,
    _Chan,
    _Executor,
    run_straightline,
)
from repro.workloads.base import NO_HOOKS, Workload
from repro.workloads.compile import (
    classify_channels,
    compile_workload,
)
from repro.workloads.npb import CG, MG

FASTEST_HZ = 1.4e9
EAGER_BYTES = 1e3  # far below the 128 KiB threshold
RNDV_BYTES = 2e5  # above it


class HaloWorkload(Workload):
    """2S ranks in two bodies ("left" / "right"), paired for exchange.

    ``pairing[m]`` names the right-side slot lane ``m``'s left rank
    exchanges with — the lane structure is ``{m, S + pairing[m]}``.
    The partner rank only enters the request *side table*, so every
    left rank records one body and every right rank the other, exactly
    like CG's halves.
    """

    name = "HALO"
    klass = "T"
    phases = ("work",)

    def __init__(self, pairing, *, rounds=2, nbytes=EAGER_BYTES,
                 tags=None, left_work=1e-3, right_work=2e-3,
                 zero_byte=False, self_send=False):
        S = len(pairing)
        self.nprocs = 2 * S
        self.S = S
        self.partner = [0] * self.nprocs
        for m, j in enumerate(pairing):
            self.partner[m] = S + j
            self.partner[S + j] = m
        self.rounds = rounds
        self.nbytes = nbytes
        self.tags = tuple(tags) if tags is not None else (7,) * rounds
        assert len(self.tags) == rounds
        self.left_work = left_work
        self.right_work = right_work
        self.zero_byte = zero_byte
        self.self_send = self_send

    def make_program(self, hooks=NO_HOOKS):
        w = self

        def program(ctx):
            hooks.on_init(ctx)
            hooks.phase_begin(ctx, "work")
            secs = w.left_work if ctx.rank < w.S else w.right_work
            yield from ctx.compute(seconds=secs)
            peer = ctx.rank if w.self_send else w.partner[ctx.rank]
            nbytes = 0.0 if w.zero_byte else w.nbytes
            for tag in w.tags:
                yield from ctx.sendrecv(peer, nbytes, src=peer, tag=tag)
            hooks.phase_end(ctx, "work")

        return program


def classify(workload):
    return classify_channels(compile_workload(workload, FASTEST_HZ))


def class_keys(verdict):
    """Classes without the src/dst group ids (permutation-comparable)."""
    return sorted(
        (c.tag, c.nbytes, c.eager, c.count, c.lanes) for c in verdict.classes
    )


def assert_quotient_matches_event(workload, strategy) -> None:
    info: dict = {}
    fast = run_straightline(workload, strategy, stats=info)
    slow = run_workload(workload, strategy, engine="event")
    assert fast == slow
    assert info["fallback_reason"] is None
    assert info["groups"] < workload.nprocs


pairings = st.integers(min_value=2, max_value=4).flatmap(
    lambda s: st.permutations(list(range(s)))
)


# ----------------------------------------------------------------------
# property: co-classing is invariant under within-group permutation
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(pairings, st.sampled_from([EAGER_BYTES, RNDV_BYTES]))
def test_pairing_permutation_is_invisible(pairing, nbytes) -> None:
    identity = HaloWorkload(list(range(len(pairing))), nbytes=nbytes)
    permuted = HaloWorkload(list(pairing), nbytes=nbytes)
    base, twisted = classify(identity), classify(permuted)
    assert base.exact and twisted.exact
    assert class_keys(base) == class_keys(twisted)
    assert base.n_lanes == twisted.n_lanes == len(pairing)


@settings(max_examples=15, deadline=None)
@given(pairings)
def test_permuted_lanes_run_the_quotient_bit_for_bit(pairing) -> None:
    S = len(pairing)
    # Group-uniform but side-asymmetric gears: left slow, right fast.
    strategy = ExternalStrategy(per_node_mhz=[800.0] * S + [1400.0] * S)
    assert_quotient_matches_event(HaloWorkload(list(pairing)), strategy)


# ----------------------------------------------------------------------
# property: split/merge of identical channels is invisible
# ----------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=2, max_value=3),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([EAGER_BYTES, RNDV_BYTES]),
)
def test_channel_split_merge_is_invisible(s, rounds, nbytes) -> None:
    pairing = list(range(s))
    merged = HaloWorkload(pairing, rounds=rounds, nbytes=nbytes)
    split = HaloWorkload(
        pairing, rounds=rounds, nbytes=nbytes,
        tags=[7 + k for k in range(rounds)],
    )
    vm, vs = classify(merged), classify(split)
    assert vm.exact and vs.exact
    # One channel carrying `rounds` messages vs `rounds` channels of one:
    # same per-direction traffic totals, same lanes.
    def totals(v):
        per_dir: dict = {}
        for c in v.classes:
            key = (c.src_group, c.dst_group, c.nbytes, c.eager)
            per_dir[key] = per_dir.get(key, 0) + c.count
        return per_dir

    assert totals(vm) == totals(vs)
    assert vm.n_lanes == vs.n_lanes
    strategy = ExternalStrategy(mhz=800.0)
    m = run_straightline(merged, strategy)
    p = run_straightline(split, strategy)
    assert_quotient_matches_event(merged, strategy)
    assert_quotient_matches_event(split, strategy)
    # Same bytes over the same lanes at the same speeds: same physics.
    assert m.elapsed_s == p.elapsed_s
    assert m.energy_j == p.energy_j


# ----------------------------------------------------------------------
# edge cases decline (never misclassify)
# ----------------------------------------------------------------------
def test_zero_byte_channels_decline() -> None:
    verdict = classify(HaloWorkload([0, 1], zero_byte=True))
    assert not verdict.exact
    assert verdict.reason == "p2p_zero_byte"
    # The run is still honest: the identity partition, same bits.
    w = HaloWorkload([0, 1], zero_byte=True)
    info: dict = {}
    fast = run_straightline(w, ExternalStrategy(mhz=800.0), stats=info)
    assert info["fallback_reason"] == "p2p_zero_byte"
    assert info["groups"] == w.nprocs
    assert fast == run_workload(
        HaloWorkload([0, 1], zero_byte=True),
        ExternalStrategy(mhz=800.0), engine="event",
    )


def test_self_send_channels_decline() -> None:
    verdict = classify(HaloWorkload([0, 1], self_send=True))
    assert not verdict.exact
    assert verdict.reason == "p2p_self_send"


def test_intra_group_channels_decline() -> None:
    # Identical work on both sides: one body group, so every exchange
    # is intra-group and no single representative can carry a lane.
    w = HaloWorkload([0, 1], left_work=1e-3, right_work=1e-3)
    compiled = compile_workload(w, FASTEST_HZ)
    assert compiled.n_groups == 1
    verdict = classify_channels(compiled)
    assert not verdict.exact
    assert verdict.reason == "p2p_unclassifiable"


def test_cross_size_pairing_declines() -> None:
    # Three bodies (distinct work), peers crossing groups of unequal
    # sizes: the per-slot bijection cannot hold.
    class Lopsided(HaloWorkload):
        def __init__(self):
            super().__init__([0, 1])
            # rank 2 gets its own body (third work profile)
            self.right_works = [2e-3, 3e-3]

        def make_program(self, hooks=NO_HOOKS):
            w = self

            def program(ctx):
                hooks.on_init(ctx)
                hooks.phase_begin(ctx, "work")
                if ctx.rank < 2:
                    yield from ctx.compute(seconds=1e-3)
                else:
                    yield from ctx.compute(
                        seconds=w.right_works[ctx.rank - 2]
                    )
                yield from ctx.sendrecv(
                    w.partner[ctx.rank], EAGER_BYTES,
                    src=w.partner[ctx.rank], tag=7,
                )
                hooks.phase_end(ctx, "work")

            return program

    verdict = classify(Lopsided())
    assert not verdict.exact
    assert verdict.reason == "p2p_unclassifiable"


# ----------------------------------------------------------------------
# pinned NPB verdicts
# ----------------------------------------------------------------------
def test_cg_classifies_to_two_half_channels() -> None:
    verdict = classify(CG(klass="T", nprocs=16))
    assert verdict.exact
    assert verdict.n_lanes == 8
    keys = {(c.src_group, c.dst_group) for c in verdict.classes}
    assert keys == {(0, 1), (1, 0)}


def test_mg_declines_honestly() -> None:
    verdict = classify(MG(klass="T", nprocs=16))
    assert not verdict.exact
    assert verdict.reason == "p2p_unclassifiable"


# ----------------------------------------------------------------------
# FIFO-order regression: the out-of-order decline path keeps raising
# ----------------------------------------------------------------------
def test_scalar_grant_out_of_order_raises_with_reason() -> None:
    chan = _Chan()
    chan.max_req = 1.0
    chan.free = 2.0
    with pytest.raises(StraightlineUnsupported) as exc:
        _Executor._grant(None, chan, 0.5)
    assert exc.value.reason == "out_of_order_channel"
    # a later request while the channel is busy is fine (FIFO order)
    assert _Executor._grant(None, chan, 1.5) == 2.0

