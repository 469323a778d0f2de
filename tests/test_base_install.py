"""A numpy-only install serves every Euclidean workload.

networkx and scipy are the ``network`` extra (``setup.py``): the road-
network stack loads them when a network space or dataset is built, and
nothing on the Euclidean path may import it.  Two subprocess runs hold
that line:

* **stubbed** — ``networkx`` and ``scipy`` packages whose ``__init__``
  raises ``ImportError`` shadow the real ones on ``PYTHONPATH`` (spawned
  workers inherit it).  Every subpackage CI's packaging job imports must
  load, the ``smoke`` preset must serve through ``MPNService``,
  ``MPNCluster(2)`` and ``ProcessCluster(2)`` with a clean spot-check
  and worker exit codes 0, and importing the road-network space or
  building one must fail loudly with ``ImportError``.  A second leg
  stubs ``scipy`` alone: with networkx importable, the road-network
  stack still refuses to load rather than run without its Dijkstra;
* **plain** — the real packages are importable, the same Euclidean fleet
  runs, and none of the road-network modules may be in ``sys.modules``
  afterwards.  This catches a swallowed ``try: import networkx`` on the
  Euclidean path, which the stubbed run cannot see.

The unmodified preset goes through ``ProcessCluster(2)`` (CI's scenario
smoke; its workers split the tile sessions' cost).  The in-process
backends serve the preset with its tile-bearing wanderer cohort cut to 8
sessions — every cohort kind, both policies and the churn schedule stay,
at a tenth of the time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parents[1]

NETWORK_MODULES = (
    "networkx",
    "scipy",
    "repro.network_ext",
    "repro.index.network",
    "repro.index.oracle",
    "repro.mobility.network",
    "repro.workloads.citygraph",
)

SCRIPT = """
import dataclasses, json, sys

import repro, repro.cluster, repro.service.api, repro.transport
import repro.experiments, repro.scenarios
from repro.cluster.cluster import MPNCluster
from repro.scenarios import CityGraphSpaceSpec, get_preset, run_scenario
from repro.service.service import MPNService
from repro.transport.worker import ProcessCluster

stubbed = sys.argv[1] == "stubbed"
full = get_preset("smoke")
wanderers = full.cohorts[0]
assert wanderers.name == "wanderers" and "tile" in wanderers.policies
light = dataclasses.replace(
    full, cohorts=(dataclasses.replace(wanderers, sessions=8),) + full.cohorts[1:]
)


def clean(spec, backend):
    return run_scenario(spec, backend, spot_check_fraction=0.25).spot_check.clean


out = {
    "service": clean(light, MPNService(light.space())),
    "cluster": clean(light, MPNCluster(2, light.space)),
}
wired = full if stubbed else light
process = ProcessCluster(2, wired.space)
try:
    out["process"] = clean(wired, process)
finally:
    process.close()
out["exitcodes"] = process.worker_exitcodes()
if stubbed:
    try:
        import repro.space.network
        out["network_import"] = "imported"
    except ImportError:
        out["network_import"] = "ImportError"
    try:
        CityGraphSpaceSpec(grid_size=6, n_pois=8)()
        out["network_space"] = "built"
    except ImportError:
        out["network_space"] = "ImportError"
out["modules"] = sorted(sys.modules)
print(json.dumps(out))
"""


def run_fleet(mode: str, *path: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (*path, SRC))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


def assert_served(out: dict) -> None:
    assert out["service"] and out["cluster"] and out["process"]
    assert out["exitcodes"] == [0, 0]


@pytest.mark.parametrize(
    "missing", [("networkx", "scipy"), ("scipy",)], ids=["both", "scipy"]
)
def test_euclidean_fleet_serves_without_network_extra(tmp_path, missing):
    for name in missing:
        package = tmp_path / name
        package.mkdir()
        (package / "__init__.py").write_text(
            f"raise ImportError('{name} is not installed (test stub)')\n"
        )
    out = run_fleet("stubbed", tmp_path)
    assert_served(out)
    assert out["network_import"] == "ImportError"
    assert out["network_space"] == "ImportError"


def test_euclidean_fleet_loads_no_road_network_module():
    out = run_fleet("plain")
    assert_served(out)
    assert not set(NETWORK_MODULES) & set(out["modules"])
