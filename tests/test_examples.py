"""The README's example scripts run to completion.

Each script runs in a fresh interpreter with ``src`` on ``PYTHONPATH``
and a scratch working directory, as a reader following the README
would run it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: the scripts README.md tells readers to run, in its order
EXAMPLES = (
    "quickstart",
    "metric_driven_scheduling",
    "internal_ft_walkthrough",
    "heterogeneous_cg",
    "custom_cluster_and_workload",
    "schedule_advisor",
    "future_schedulers",
)


def test_readme_lists_these_examples() -> None:
    readme = (ROOT / "README.md").read_text()
    listed = re.findall(r"^python examples/(\w+)\.py", readme, re.MULTILINE)
    assert tuple(listed) == EXAMPLES


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name: str, tmp_path) -> None:
    src = str(ROOT / "src")
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src + os.pathsep + inherited if inherited else src)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / f"{name}.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
