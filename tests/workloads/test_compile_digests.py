"""Byte-level pins of every ``CompiledProgram`` field on the NPB codes.

The recorder may change how it gets to a compiled program — how it
stores requests, when it deduplicates rank bodies, how it matches FIFO
channels — but not what it produces.  Each case hashes every field of
the compiled program (arrays with their dtype and shape, tuples by
``repr``) into one sha256 prefix, and checks that grouped ranks share
one ``ops``/``iargs``/``fargs`` array object per group.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.workloads import get_workload
from repro.workloads.compile import CompileError, compile_workload
from repro.workloads.npb import ALL_CODES

FASTEST_HZ = 1.4e9
GRID_N = (4, 8, 9, 16, 64)

#: "CODE.T.N" -> sha256(all fields)[:16], for every code x N in GRID_N
#: the code accepts, plus CG.T.1024.
DIGESTS = {
    "BT.T.4": "f3db0314cf71e78d",
    "BT.T.9": "e50497d170e11be1",
    "BT.T.16": "cd6ed3a56055f90e",
    "BT.T.64": "f8a7e53f6fa9eace",
    "CG.T.4": "6e053b7af0b8b84b",
    "CG.T.8": "8b2ea1fc80aa9f1f",
    "CG.T.16": "614fac9265476db9",
    "CG.T.64": "6c0b2c3d8bd15bff",
    "EP.T.4": "2755136d3c910801",
    "EP.T.8": "f6d844c52eacc86b",
    "EP.T.9": "ee3189da0255802d",
    "EP.T.16": "d7d7dbc0eaaa206f",
    "EP.T.64": "64e1c7e634e6540a",
    "FT.T.4": "5289554fc99b9f7e",
    "FT.T.8": "3b87c03372e8c0d8",
    "FT.T.9": "a3efdb475d8880f5",
    "FT.T.16": "aef511cd24876041",
    "FT.T.64": "3f00c9d303349b9c",
    "IS.T.4": "fb29c1d74bc1d455",
    "IS.T.8": "dec7d01ba5b7c1b9",
    "IS.T.9": "57b5070a35d0b4fc",
    "IS.T.16": "52cbae853b2bc164",
    "IS.T.64": "09029783b1e383e5",
    "LU.T.4": "97667bff620c2e8e",
    "LU.T.8": "75c6f5f8746217dd",
    "LU.T.9": "85b3d309a4e762b1",
    "LU.T.16": "f1cd6520d39b3bc5",
    "LU.T.64": "8a9073d09320f703",
    "MG.T.4": "95a7095cf91d7e0a",
    "MG.T.8": "d287908a22dea5ee",
    "MG.T.16": "d265bffba0408de8",
    "MG.T.64": "c3cdfee598c3fd8d",
    "SP.T.4": "c6085dd3eeb972a9",
    "SP.T.9": "de001d4d1b23f9c7",
    "SP.T.16": "f6c23d6c4772e26d",
    "SP.T.64": "a6d5ae7af26debdd",
    "CG.T.1024": "962d22b5d03ad24e",
}


def _digest(p) -> str:
    h = hashlib.sha256()

    def arr(a: np.ndarray) -> None:
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())

    h.update(repr((p.nprocs, p.fastest_hz)).encode())
    for field in ("ops", "iargs", "fargs"):
        h.update(field.encode())
        for a in getattr(p, field):
            arr(a)
    for field in ("req_kind", "req_owner", "req_peer", "req_tag", "req_nbytes",
                  "req_eager", "req_match", "req_base", "group_of"):
        h.update(field.encode())
        arr(getattr(p, field))
    h.update(b"group_members")
    for m in p.group_members:
        arr(m)
    h.update(repr(p.coll_kinds).encode())
    h.update(repr(p.markers).encode())
    return h.hexdigest()[:16]


def _first_holder(arrays) -> list[int]:
    """For each rank, the lowest rank holding the very same object."""
    first: dict[int, int] = {}
    return [first.setdefault(id(a), r) for r, a in enumerate(arrays)]


def _case(key: str):
    code, klass, n = key.split(".")
    return compile_workload(get_workload(code, klass=klass, nprocs=int(n)), FASTEST_HZ)


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_compiled_program_digest(key) -> None:
    p = _case(key)
    assert _digest(p) == DIGESTS[key]
    # Sharing pattern: every member of a group holds its representative's
    # arrays, and distinct groups hold distinct arrays.
    reps = [int(p.group_members[g][0]) for g in p.group_of.tolist()]
    for field in ("ops", "iargs", "fargs"):
        assert _first_holder(getattr(p, field)) == reps, field


def test_digest_grid_covers_every_runnable_case() -> None:
    """A case missing from the pins must be one the code rejects."""
    for code in sorted(ALL_CODES):
        for n in GRID_N:
            if f"{code}.T.{n}" in DIGESTS:
                continue
            with pytest.raises((ValueError, CompileError)):
                compile_workload(get_workload(code, klass="T", nprocs=n), FASTEST_HZ)
