"""Smoke test of the benchmark itself (collected by the tier-1 ``pytest -x -q``).

Runs the suite at ``--scale smoke`` — every declared workload, a real
two-worker ``wire_circle`` among them, timed and traced — plus one traced
``euclid_tile`` run, and holds what is printed to what ``BENCHMARK.json``
declares.  No timing is asserted.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

from bench import ROOT, declaration, declare

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
COMMAND = [sys.executable, "-m", "bench"]


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*COMMAND, *args], cwd=ROOT, capture_output=True, text=True, timeout=170
    )


def _surviving_passes() -> list[str]:
    """Command lines of any ``bench.onepass`` interpreter (or worker) still alive."""
    alive = []
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as fh:
                cmdline = fh.read().replace(b"\0", b" ").decode(errors="replace")
        except OSError:
            continue
        if "bench.onepass" in cmdline:
            alive.append(cmdline)
    return alive


def test_declaration_matches_the_package():
    assert declaration() == declare.build()
    declared = declaration()
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in declared[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert any(
        m == {"name": "setup_s", "unit": "s", "better": "lower", "bound": m["bound"]}
        for m in declared["end_to_end"]
    )


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    done = _bench("--scale", "smoke", "--out", str(out))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "leaked_processes 0" in done.stderr
    with open(out / "results.json") as fh:
        return out, json.load(fh)


def test_suite_reports_exactly_the_declared_names(suite):
    _, results = suite
    declared = declaration()
    workloads = {w["name"] for w in declared["workloads"]}
    assert set(results["end_to_end"]) == workloads == set(results["per_layer"])
    for name in workloads:
        assert set(results["end_to_end"][name]) == {m["name"] for m in declared["end_to_end"]}
        assert set(results["per_layer"][name]) == {m["name"] for m in declared["per_layer"]}
        # Passes of one seeded stream agreed on every count, nothing failed.
        assert results["failed"][name] == 0 and results["attempted"][name] > 0
        for metric, entry in results["end_to_end"][name].items():
            assert entry["median"] > 0, (name, metric)
    wire = results["per_layer"]["wire_circle"]
    assert wire["worker.dispatch.calls"] > 0 and wire["transport.roundtrips"] > 0
    assert wire["trace.unresolved_targets"] == 0
    assert results["per_layer"]["euclid_circle"]["transport.roundtrips"] == 0


def test_suite_leaves_no_process_and_compares_clean(suite):
    out, _ = suite
    assert _surviving_passes() == []
    same = _bench("--compare", str(out / "results.json"), str(out / "results.json"))
    assert same.returncode == 0, same.stdout[-2000:]
    assert "worse" not in same.stdout and "unresolved" not in same.stdout


def test_one_run_prints_the_contract_object_last():
    done = _bench(
        "--workload", "euclid_tile", "--seed", "5", "--seconds", "0",
        "--trace", "1", "--scale", "smoke",
    )
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in declaration()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["metrics"]["core.tile_msr.calls"]["value"] > 0
    assert result["metrics"]["core.gt_verify.calls"]["value"] > 0
    assert "the pinned-count comparison is skipped" in done.stdout
    assert _surviving_passes() == []
