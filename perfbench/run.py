"""bairekit benchmark: time-to-verdict, peak memory and set-up time of three
CLI workloads, plus a traced run for per-layer numbers.

Usage (from the repository root):

    python3 perfbench/run.py --workload lusin-synth --seed 1 --seconds 30 --trace 0

Every command runs in a fresh interpreter, one at a time: users pay the
``mentions`` cache fill on every CLI call, so nothing is warmed up.  With
``--trace 0`` the run times commands until ``--seconds`` have passed and
reports medians of the end-to-end metrics; with ``--trace 1`` it runs the
command once plain and twice under the layer tracer, requires the two
traced runs to agree on every count, and reports the per-layer metrics.
Each interpreter is pinned to the CPU that runs a probe loop fastest just
before it starts (``calmest_cpu``).  The last line of output is the JSON
result; the line before it stamps the run with the Python version,
``nproc`` and the load average.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

SETUP_PROBES = 9      # set-up-only interpreters started before timing
DEADLINE_S = 170      # no command is started or left running past this
PROBE_LOOP = 150_000  # iterations of the loop that finds the calmest CPU


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


class Runner:
    def __init__(self, workload, seed: int, reference: str, workdir: str):
        self.workload = workload
        self.seed = seed
        self.reference = reference
        self.workdir = workdir
        self.start = perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: dict = {}   # stamped on the result, not metrics
        self.cpu_use: Counter = Counter()   # interpreters started per CPU

    def spawn(self, mode: str):
        """Run one child interpreter; returns (set-up seconds, its JSON)."""
        remaining = DEADLINE_S - (perf_counter() - self.start)
        if remaining <= 0:
            raise TimeoutError("run deadline passed")
        cpus = os.sched_getaffinity(0)
        cpu = calmest_cpu(cpus)
        self.cpu_use[cpu] += 1
        os.sched_setaffinity(0, {cpu})   # the child inherits the pin
        try:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"),
                 self.workload.name, str(self.seed), self.workdir, mode],
                cwd=ROOT, capture_output=True, text=True, timeout=remaining)
        finally:
            os.sched_setaffinity(0, cpus)
        lines = proc.stdout.strip().splitlines()
        try:
            out = json.loads(lines[-1]) if proc.returncode == 0 else None
        except (IndexError, ValueError):
            out = None
        if out is None:
            return None, {"error": proc.stderr.strip().splitlines()[-1:]}
        return out["ready"] - t0, out

    def command(self, mode: str):
        """One timed CLI call, checked against the known answer."""
        self.attempted += 1
        setup, out = self.spawn(mode)
        problem = None
        if setup is None:
            problem = f"child failed: {out['error']}"
        elif out["rc"] != 0 or not out["ok"] or out["breaches"]:
            problem = f"exit {out['rc']}, ok {out['ok']}, breaches {out['breaches']}"
        elif out["digest"] != self.reference:
            problem = f"report digest {out['digest'][:12]} is not the reference"
        if problem:
            self.failed += 1
            self.failures.append(problem)
            return setup, None
        return setup, out


def calmest_cpu(cpus: set) -> int:
    """The CPU on which a fixed loop runs fastest just now.

    On a shared host, neighbours slow each virtual CPU by a different and
    drifting amount; pinning the command to the calmest one halves the
    spread of ``verdict_s`` between commands on a 2-vCPU machine.  Each
    CPU is probed twice, interleaved, so that a drift during the probe
    does not favour one of them.
    """
    if len(cpus) == 1:
        return next(iter(cpus))
    spent = dict.fromkeys(cpus, 0.0)
    try:
        for _ in range(2):
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                t0 = perf_counter()
                x = 0
                for i in range(PROBE_LOOP):
                    x += i * i
                spent[cpu] += perf_counter() - t0
    finally:
        os.sched_setaffinity(0, cpus)
    return min(spent, key=spent.get)


def timed_run(r: Runner, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_PROBES):
        setup, _ = r.spawn("setup")
        if setup is not None:
            setups.append(setup)
    verdicts, rss = [], []
    t0 = perf_counter()
    last = 0.0
    # start another command while it would end nearer to ``seconds`` than
    # stopping now would, judging by the last command's duration
    while not r.attempted or perf_counter() - t0 + last / 2 < seconds:
        started = perf_counter()
        setup, out = r.command("plain")
        last = perf_counter() - started
        if setup is not None:
            setups.append(setup)
        if out is not None:
            verdicts.append(out["verdict_s"])
            rss.append(out["peak_rss_mb"])
    r.notes["samples"] = len(verdicts)
    r.notes["verdict_s_all"] = verdicts
    return {"verdict_s": _median(verdicts), "peak_rss_mb": _median(rss),
            "setup_s": _median(setups)}


def traced_run(r: Runner, layer_map: dict, times: set) -> dict:
    """Per-layer metrics; ``times`` names the metrics measured in seconds."""
    _, plain = r.command("plain")
    traced = [r.command("trace")[1] for _ in range(2)]
    if plain is None or None in traced:
        return {}
    first, second = (t["layers"] for t in traced)
    metrics = {}
    for name, value in first.items():
        if name in times:
            metrics[name] = (value + second[name]) / 2
        else:
            metrics[name] = value
            if second[name] != value:
                r.failures.append(f"{name} differs between traced runs: "
                                  f"{value} vs {second[name]}")
    for name in layer_map["expect_nonzero"][r.workload.name]:
        if not metrics.get(name):
            r.failures.append(f"expected counter {name} is zero")
    metrics["trace.overhead_s"] = \
        _median([t["verdict_s"] for t in traced]) - plain["verdict_s"]
    return metrics


def _median(xs: list) -> float:
    return statistics.median(xs) if xs else 0.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "bairekit", "cli.py")):
        return fail(f"no bairekit sources under {ROOT}/src")
    # byte-compile as an install would, so that set-up time does not
    # depend on whether the environment lets imports write bytecode
    for package in (os.path.join(ROOT, "src", "bairekit"), HERE):
        if not compileall.compile_dir(package, quiet=1, maxlevels=0):
            return fail(f"cannot byte-compile {package}")
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(WORKLOADS)}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    with open(os.path.join(HERE, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as fh:
        references = json.load(fh)
    workload = WORKLOADS[args.workload]
    seed = workload.input_seed(args.seed)
    reference = references[workload.name].get(str(seed))
    if reference is None:
        return fail(f"no reference digest for {workload.name} input seed {seed}")

    workdir = os.path.join(HERE, ".work", f"{workload.name}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    load_before = os.getloadavg()
    r = Runner(workload, seed, reference, workdir)
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    try:
        if args.trace:
            metrics = traced_run(r, layer_map, {m["name"] for m in wanted
                                                if m["unit"] == "s"})
        else:
            metrics = timed_run(r, args.seconds)
            if workload.name == "lusin-synth" and r.attempted > r.failed:
                spot_check(r, args.seed)
    except (TimeoutError, subprocess.TimeoutExpired) as exc:
        r.failures.append(str(exc))
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        r.failures.append(f"metrics not measured: {', '.join(missing)}")
    stamp = {"workload": workload.name, "seed": args.seed, "input_seed": seed,
             "python": platform.python_version(), "nproc": os.cpu_count(),
             "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
             "attempted": r.attempted, "failed": r.failed,
             "failed_share": r.failed / r.attempted if r.attempted else 1.0,
             "failures": r.failures[:10],
             "interpreters_on_cpu": dict(r.cpu_use), **r.notes}
    print("stamp " + json.dumps(stamp))
    result = {
        "correct": not r.failures and r.failed == 0,
        "attempted": max(r.attempted, 1),
        "failed": r.failed if r.attempted else 1,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


def spot_check(r: Runner, seed: int) -> None:
    """Oracle check of the last report, outside the timed span; a mismatch
    fails every command, since all of them produced the same report."""
    from oracle import spot_check as check
    with open(os.path.join(r.workdir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    checked, mismatches = check(report, seed)
    if mismatches or not checked:
        r.failed = r.attempted
        r.failures.append(f"oracle: {checked} families checked, "
                          f"mismatches {mismatches[:3]}")
    r.notes["spot_checked"] = checked


if __name__ == "__main__":
    sys.exit(main())
