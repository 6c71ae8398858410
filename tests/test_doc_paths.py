"""Every repository path the docs name in backticks exists.

A doc pointer such as `tests/core/test_strategies.py` or
`tests/experiments/test_reproduction.py::test_cpuspeed_bands` goes
stale silently when the file or test it names is moved or deleted;
this guard fails instead.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DOCS = sorted(
    [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
     *(ROOT / "docs").glob("*.md")]
)

#: a backticked path under one of the repository's top-level code or
#: doc directories, with an optional ``::test`` node suffix
PATH = re.compile(
    r"`((?:src|tests|examples|docs|perfbench|benchmarks)/[^`\s:]*)"
    r"(?:::(\w+))?`"
)


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_backticked_paths_exist(doc: Path) -> None:
    missing = []
    for m in PATH.finditer(doc.read_text()):
        path, name = ROOT / m.group(1), m.group(2)
        if not path.exists():
            missing.append(m.group(1))
        elif name and not re.search(
            rf"^\s*def {name}\b", path.read_text(), re.MULTILINE
        ):
            missing.append(f"{m.group(1)}::{name}")
    assert not missing, f"{doc.name} names missing paths: {missing}"
