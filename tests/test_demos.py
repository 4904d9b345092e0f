"""Smoke test: the quick demos run to completion in a fresh interpreter.

Demo 06 runs the full verification (about 12 s); its path is covered by
the suite and CLI tests, so it is left out here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_demo_list_is_complete():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
