"""Smoke test: every script in ``demos/`` runs to completion against the
package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    pythonpath = os.pathsep.join(p for p in paths if p)
    proc = subprocess.run(
        [sys.executable, str(demo)],
        env={**os.environ, "PYTHONPATH": pythonpath},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
