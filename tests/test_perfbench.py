"""Smoke test of the benchmark's runs: a traced name the program no longer
has, a layer counter that reads zero, or a report byte that differs from
its recorded digest fails here and not only when the benchmark runs."""

import importlib
import importlib.util
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


def test_every_traced_name_exists():
    """The tracer's names, checked without a traced run, so that a missing
    one is named here and not only by a failing traced subprocess."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    wanted = [(layer, name) for layer, names in tracer.FUNCTIONS.items()
              for name in names]
    wanted += [(layer, name) for layer, name, _prefix in tracer.CLASSES]
    missing = [f"bairekit.{layer}.{name}" for layer, name in wanted
               if not hasattr(importlib.import_module(f"bairekit.{layer}"),
                              name)]
    assert not missing, f"traced names missing: {', '.join(missing)}"


@pytest.mark.parametrize("workload", sorted(EXPECT_NONZERO))
def test_traced_run_matches_its_reference(tmp_path, workload):
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), workload, "0",
         str(tmp_path), "trace"],
        capture_output=True, text=True, timeout=300, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["ok"] and out["rc"] == 0
    assert out["digest"] == REFERENCES[workload]["0"]
    layers = out["layers"]
    zero = [name for name in EXPECT_NONZERO[workload] if not layers.get(name)]
    assert zero == []
    if "lusin.nodes.split" in EXPECT_NONZERO[workload]:
        # only Lusin plans take minimal antichains here, and a Lusin rule
        # runs in the lusin layer: a plan built outside the rule shows as
        # a shortfall, not only as a zero
        assert layers["lusin.nodes.split"] == \
            layers["cylinder.minimal_antichain.calls"]


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
