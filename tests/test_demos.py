"""The narrative demos run to completion without writing to stderr.

``anticoncentration.py`` is left out: it takes about a minute.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["exact_counting", "sampler_gallery", "leaf_reconfiguration"])
def test_demo_runs_cleanly(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
