"""Record the reference report digest of every benchmark input.

Usage (from the repository root): python3 perfbench/record_references.py

Runs each workload once per input seed (two commands at a time), requires
every report to pass, and rewrites ``perfbench/references.json``.  Run it
only at a commit whose reports are known to be right: every later
benchmark run must reproduce these digests byte for byte.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

from workloads import INPUT_SEEDS, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def digest(name: str, seed: int) -> str:
    workdir = os.path.join(HERE, ".work", f"record-{name}-{seed}")
    os.makedirs(workdir, exist_ok=True)
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), name, str(seed),
             workdir, "plain"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if out["rc"] != 0 or not out["ok"] or out["breaches"]:
        raise SystemExit(f"{name} seed {seed} does not pass: {out}")
    return out["digest"]


def main() -> int:
    jobs = [(w.name, s) for w in WORKLOADS.values()
            for s in (range(INPUT_SEEDS) if w.seeded else (0,))]
    with ThreadPoolExecutor(max_workers=2) as pool:
        digests = list(pool.map(lambda job: digest(*job), jobs))
    refs: dict = {name: {} for name in WORKLOADS}
    for (name, seed), d in zip(jobs, digests):
        refs[name][str(seed)] = d
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
