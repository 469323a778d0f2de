"""``repro.simulation`` never loads ``repro.scenarios`` at import time.

The scenario runner imports ``repro.simulation`` (the metric counters,
the policies), while the §7 drivers in ``repro.simulation`` play their
groups through the runner.  The drivers therefore import the runner at
call time; a module-level import would be a cycle.  A fresh interpreter
is the only place ``sys.modules`` shows that edge.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SCRIPT = """
import sys

import repro
import repro.simulation

print(sorted(m for m in sys.modules if m.split(".")[:2] == ["repro", "scenarios"]))
"""


def test_simulation_loads_no_scenario_module():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert proc.stdout.strip() == "[]"
