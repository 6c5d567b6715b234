"""One benchmark invocation in a fresh interpreter.

Usage: python3 perfbench/child.py WORKLOAD INPUT_SEED WORKDIR MODE

MODE is ``setup`` (import and input generation only), ``plain`` (time the
command) or ``trace`` (time it with the layer tracer installed).  Prints
one JSON line: ``ready`` is the monotonic clock after ``import bairekit``
and input generation, which the parent subtracts from its spawn time.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, report_path, report_verdict  # noqa: E402


def main() -> int:
    name, seed, workdir, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3], \
        sys.argv[4]
    from bairekit.cli import main as cli_main
    argv = WORKLOADS[name].prepare(seed, workdir)
    ready = perf_counter()
    out: dict = {"ready": ready}
    if mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    captured = io.StringIO()

    def command() -> int:
        return cli_main(argv, stdout=captured)

    t0 = perf_counter()
    rc = command() if tracer is None else tracer.run(command)
    out["verdict_s"] = perf_counter() - t0
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["rc"] = rc
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
    with open(report_path(workdir), "rb") as fh:
        raw = fh.read()
    out["digest"] = hashlib.sha256(raw).hexdigest()
    out["ok"], out["breaches"] = report_verdict(json.loads(raw))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
