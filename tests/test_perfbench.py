"""Smoke test of the benchmark's runs: a traced name the program no longer
has, a layer counter that reads zero, or a report byte that differs from
its recorded digest fails here and not only when the benchmark runs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
REFERENCES = json.loads((PERFBENCH / "references.json").read_text())
EXPECT_NONZERO = json.loads(
    (PERFBENCH / "layer_map.json").read_text())["expect_nonzero"]


@pytest.mark.parametrize("workload", sorted(EXPECT_NONZERO))
def test_traced_run_matches_its_reference(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), workload, "0",
         str(tmp_path), "trace"],
        capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["ok"] and out["rc"] == 0
    assert out["digest"] == REFERENCES[workload]["0"]
    zero = [name for name in EXPECT_NONZERO[workload]
            if not out["layers"].get(name)]
    assert zero == []


@pytest.mark.parametrize("workload, seed", [
    ("lusin-synth", 13), ("lusin-synth", 31), ("extract-finite", 13)])
def test_plain_run_matches_its_reference(tmp_path, workload, seed):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), workload, str(seed),
         str(tmp_path), "plain"],
        capture_output=True, text=True, timeout=300, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["ok"] and out["rc"] == 0 and out["breaches"] == 0
    assert out["digest"] == REFERENCES[workload][str(seed)]
