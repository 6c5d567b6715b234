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

# Every count and ratio metric of the traced seed-0 run of each workload,
# in the order of PINNED_WORKLOADS; the time metrics (``*_s``, ``*.s``)
# stay out.  The counts do not depend on the machine, the Python version or
# the hash seed.  A change that moves one re-pins it here and names it in
# CHANGES.md as old -> new.
PINNED_WORKLOADS = ("lusin-synth", "relabel-vg", "extract-finite")
TRACED_COUNTS = {
    "cylinder.is_empty.calls": (4842, 966, 3717),
    "cylinder.subset.calls": (101, 498, 1817),
    "cylinder.equal.calls": (1, 65406, 1778),
    "cylinder.intersects.calls": (60, 126, 0),
    "cylinder.contains_branch.calls": (0, 3482, 0),
    "cylinder.witness_cylinder.calls": (19, 43, 224),
    "cylinder.minimal_antichain.calls": (4662, 1513, 83),
    "cylinder.is_empty.mentions_p50": (1.0, 2.0, 1.0),
    "cylinder.is_empty.mentions_max": (3, 3, 2),
    "cylinder.mentions.cache_entries": (88, 170, 102),
    "cylinder.mentions.hit_ratio":
        (0.2903225806451613, 0.32806324110671936, 0.5446428571428571),
    "spaces.baire.calls": (9383, 97856, 7468),
    "spaces.finite.calls": (0, 0, 226938),
    "spaces.pi_base_enum.calls": (0, 0, 2176),
    "scheme.node.calls": (18725, 189344, 31453),
    "scheme.node.built": (4682, 18662, 18512),
    "scheme.node.hit_ratio":
        (0.7499599465954606, 0.9014386513435863, 0.411439290369758),
    "lusin.nodes.carved": (19, 42, 0),
    "lusin.nodes.split": (4662, 1513, 0),
    "choquet.reply.calls": (0, 0, 17290),
    "choquet.remove_redundant.calls": (0, 0, 6872),
    "choquet.remove_redundant.pairs_in": (0, 0, 7582),
    "choquet.extract.pairs_built": (0, 0, 12093),
    "choquet.replay_branch.calls": (0, 0, 20),
    "grammar.parse_expr.calls": (8, 0, 0),
}


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
    column = PINNED_WORKLOADS.index(workload)
    assert {name: value for name, value in layers.items()
            if not name.endswith(("_s", ".s"))} == \
        {name: row[column] for name, row in TRACED_COUNTS.items()}
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
