"""Rank-group deduplication on compiled programs.

``compile_workload`` buckets ranks into equivalence classes: ranks
whose recorded op stream and hook markers are identical share ONE
program body (the ``ops``/``iargs``/``fargs`` lists hold N pointers to
G distinct arrays), with the partition exposed as ``group_of`` /
``group_members``.  The straightline tier's quotient path simulates
one representative per group, so the invariant under test is that
grouping is a pure function of program *content* — never of rank
order, table aliasing, or how the per-rank phase lists were assembled.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads.base import NO_HOOKS, Workload
from repro.workloads.compile import compile_workload
from repro.workloads.npb import CG, EP, FT

FASTEST_HZ = 1.4e9

# A small pool of distinct phase lists (per-rank compute durations).
# Distinct rows compile to distinct fargs, equal rows to equal bodies.
ROWS = (
    (1.0,),
    (2.0,),
    (1.0, 1.0),
    (0.5, 1.5, 2.5),
)


class TableWorkload(Workload):
    """Synthetic workload whose rank programs come from a lookup table."""

    name = "TBL"
    klass = "T"
    phases = ("work",)

    def __init__(self, table):
        self.nprocs = len(table)
        self.table = [tuple(row) for row in table]

    def make_program(self, hooks=NO_HOOKS):
        table = self.table

        def program(ctx):
            hooks.on_init(ctx)
            hooks.phase_begin(ctx, "work")
            for secs in table[ctx.rank]:
                yield from ctx.compute(seconds=secs)
            hooks.phase_end(ctx, "work")

        return program


def _compile(table):
    return compile_workload(TableWorkload(table), FASTEST_HZ)


tables = st.lists(st.sampled_from(ROWS), min_size=1, max_size=12)


# ----------------------------------------------------------------------
# properties: grouping is content-determined
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(tables)
def test_same_group_iff_same_phase_list(table) -> None:
    compiled = _compile(table)
    gof = compiled.group_of
    for i in range(len(table)):
        for j in range(len(table)):
            assert (gof[i] == gof[j]) == (table[i] == table[j])


@settings(max_examples=50, deadline=None)
@given(tables, st.randoms(use_true_random=False))
def test_permuting_rank_order_preserves_grouping(table, rng) -> None:
    perm = list(range(len(table)))
    rng.shuffle(perm)
    base = _compile(table)
    permuted = _compile([table[p] for p in perm])
    # Rank p of the permuted workload runs what rank perm[p] ran before:
    # co-grouping must follow the content through the permutation.
    for i in range(len(table)):
        for j in range(len(table)):
            assert (permuted.group_of[i] == permuted.group_of[j]) == (
                base.group_of[perm[i]] == base.group_of[perm[j]]
            )
    assert permuted.n_groups == base.n_groups


@settings(max_examples=50, deadline=None)
@given(tables)
def test_group_members_partition_the_ranks(table) -> None:
    compiled = _compile(table)
    seen = np.concatenate(compiled.group_members)
    assert sorted(seen.tolist()) == list(range(len(table)))
    for g, members in enumerate(compiled.group_members):
        assert all(compiled.group_of[r] == g for r in members)
    # representatives are the first (lowest-rank) member of each group
    assert [int(m[0]) for m in compiled.group_members] == list(
        compiled.group_reps
    )


def test_splitting_and_merging_identical_lists_is_invisible() -> None:
    """Aliased rows, equal copies, and interleavings all co-group.

    Three spellings of "ranks 0/2 run A, ranks 1/3 run B": one shared
    row object, fresh equal tuples, and lists rebuilt element-wise.
    The compiler must produce the identical partition for all three.
    """
    a, b = (1.0, 1.0), (2.0,)
    spellings = [
        [a, b, a, b],                                  # aliased objects
        [(1.0, 1.0), (2.0,), (1.0, 1.0), (2.0,)],      # equal copies
        [tuple([1.0] * 2), b, tuple([1.0, 1.0]), (2.0,)],  # rebuilt
    ]
    partitions = [
        tuple(int(g) for g in _compile(t).group_of) for t in spellings
    ]
    assert partitions[0] == partitions[1] == partitions[2]
    assert partitions[0] == (0, 1, 0, 1)


def test_merging_groups_when_rows_become_equal() -> None:
    split = _compile([(1.0,), (2.0,), (1.0,), (3.0,)])
    merged = _compile([(1.0,), (1.0,), (1.0,), (3.0,)])
    assert split.n_groups == 3
    assert merged.n_groups == 2
    assert int(merged.group_of[0]) == int(merged.group_of[1])


# ----------------------------------------------------------------------
# shared bodies: N pointers to G arrays
# ----------------------------------------------------------------------
def test_grouped_ranks_share_body_arrays() -> None:
    compiled = _compile([(1.0,), (2.0,), (1.0,), (2.0,)])
    for arrays in (compiled.ops, compiled.iargs, compiled.fargs):
        assert arrays[0] is arrays[2]
        assert arrays[1] is arrays[3]
        assert arrays[0] is not arrays[1]


def test_distinct_arrays_counted_once() -> None:
    compiled = _compile([(1.0,)] * 6)
    assert compiled.n_groups == 1
    assert len({id(a) for a in compiled.ops}) == 1


# ----------------------------------------------------------------------
# pinned NPB shapes
# ----------------------------------------------------------------------
def test_ft_and_ep_collapse_to_one_group() -> None:
    for cls in (FT, EP):
        compiled = compile_workload(cls(nprocs=16), FASTEST_HZ)
        assert compiled.n_groups == 1
        assert len({id(a) for a in compiled.ops}) == 1


def test_cg_asymmetric_ranks_land_in_distinct_groups() -> None:
    compiled = compile_workload(CG(nprocs=16), FASTEST_HZ)
    assert compiled.n_groups >= 2
    gof = compiled.group_of
    assert len(set(int(g) for g in gof)) == compiled.n_groups


def test_ungrouped_program_defaults() -> None:
    """n_groups degrades to nprocs when grouping metadata is absent."""
    compiled = _compile([(1.0,), (2.0,)])
    object.__setattr__(compiled, "group_members", ())
    assert compiled.n_groups == compiled.nprocs


# ----------------------------------------------------------------------
# the NPB partitions are pinned: a change to what a recorded op stores
# (e.g. WAIT's operands) must not split or merge any rank group
# ----------------------------------------------------------------------
#: code -> [(N, n_groups, sha256(repr(group_of.tolist()))[:12])] at
#: class T, for each N in {4, 8, 9, 16, 64} the code accepts.
NPB_GROUPS = {
    "BT": [(4, 3, "3c4a3050de9c"), (9, 9, "b4fd587ed6b9"), (16, 9, "dc0d3d46d8b0"), (64, 34, "fac3fd295f7c")],
    "CG": [(4, 2, "6471b342ae3c"), (8, 2, "f919733d549a"), (16, 2, "02b88daafff6"), (64, 2, "4f096064c01a")],
    "EP": [(4, 1, "a90d007c2fc5"), (8, 1, "c14bc7d02c76"), (9, 1, "aff24e189140"), (16, 1, "90b44c0fdcab"), (64, 1, "76b25cdd1535")],
    "FT": [(4, 1, "a90d007c2fc5"), (8, 1, "c14bc7d02c76"), (9, 1, "aff24e189140"), (16, 1, "90b44c0fdcab"), (64, 1, "76b25cdd1535")],
    "IS": [(4, 1, "a90d007c2fc5"), (8, 1, "c14bc7d02c76"), (9, 1, "aff24e189140"), (16, 1, "90b44c0fdcab"), (64, 1, "76b25cdd1535")],
    "LU": [(4, 1, "a90d007c2fc5"), (8, 1, "c14bc7d02c76"), (9, 1, "aff24e189140"), (16, 1, "90b44c0fdcab"), (64, 1, "76b25cdd1535")],
    "MG": [(4, 3, "3c4a3050de9c"), (8, 5, "157cd8a8ffb8"), (16, 10, "1ebf9b8f02a0"), (64, 34, "ca125666005f")],
    "SP": [(4, 1, "a90d007c2fc5"), (9, 1, "aff24e189140"), (16, 1, "90b44c0fdcab"), (64, 1, "76b25cdd1535")],
}


def test_npb_rank_groups_pinned() -> None:
    import hashlib

    from repro.workloads import get_workload
    from repro.workloads.compile import CompileError
    from repro.workloads.npb import ALL_CODES

    assert sorted(NPB_GROUPS) == sorted(ALL_CODES)
    for code, pinned in NPB_GROUPS.items():
        seen = []
        for n in (4, 8, 9, 16, 64):
            try:
                compiled = compile_workload(
                    get_workload(code, klass="T", nprocs=n), FASTEST_HZ
                )
            except (ValueError, CompileError):
                continue  # the code does not run at this N
            digest = hashlib.sha256(
                repr(compiled.group_of.tolist()).encode()
            ).hexdigest()[:12]
            seen.append((n, compiled.n_groups, digest))
        assert seen == pinned, code
