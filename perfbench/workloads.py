"""The three benchmark workloads: how each turns a seed into CLI arguments.

Every workload is one ``bairekit`` command line, run through
``bairekit.cli.main`` exactly as a user runs it.  The benchmark seed is
folded onto ``INPUT_SEEDS`` input seeds, so that every input the benchmark
can produce has a report digest recorded in ``references.json``.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Callable, Optional

# Reference digests exist for input seeds 0 .. INPUT_SEEDS - 1.
INPUT_SEEDS = 32

# lusin-synth: window and base-file shape.  Depth 4 reads the targets of
# the odd levels 1 and 3; the remaining lines are parsed but never met.
LUSIN_DEPTH, LUSIN_BREADTH = 4, 8
BASE_LINES = 8


def _atom(seq: tuple[int, ...]) -> str:
    return "S(" + ",".join(map(str, seq)) + ")"


def _word(rng: random.Random, lo: int, hi: int) -> tuple[int, ...]:
    return tuple(rng.randrange(LUSIN_BREADTH) for _ in range(rng.randint(lo, hi)))


def _term(rng: random.Random) -> str:
    stem = _word(rng, 1, 2)
    if rng.random() < 0.5:
        return _atom(stem)
    return f"({_atom(stem)} \\ {_atom(stem + _word(rng, 1, 2))})"


def base_text(input_seed: int) -> str:
    """Target expressions, one per line: unions of 2-4 short cylinders or
    cylinder differences with entries inside the window's breadth, so that
    the targets meet window nodes and both carve and split plans occur."""
    rng = random.Random(input_seed)
    lines = [" | ".join(_term(rng) for _ in range(rng.randint(2, 4)))
             for _ in range(BASE_LINES)]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    # argv for bairekit.cli.main, given the input seed, an input file path
    # and the report path
    argv: Callable[[int, str, str], list[str]]
    # text of the input file the command reads, or None
    input_text: Optional[Callable[[int], str]] = None
    # False when the command's inputs are fixed presets the seed cannot change
    seeded: bool = True

    def input_seed(self, seed: int) -> int:
        """The input seed a benchmark seed maps to; references are keyed by it."""
        return seed % INPUT_SEEDS if self.seeded else 0

    def prepare(self, input_seed: int, workdir: str) -> list[str]:
        """Write the inputs into ``workdir``; return the argv for ``main``."""
        base = os.path.join(workdir, "base.txt")
        if self.input_text is not None:
            with open(base, "w", encoding="utf-8") as fh:
                fh.write(self.input_text(input_seed))
        return self.argv(input_seed, base, report_path(workdir))


def report_path(workdir: str) -> str:
    return os.path.join(workdir, "report.json")


WORKLOADS = {w.name: w for w in (
    Workload("lusin-synth",
             lambda s, base, out: ["build-lusin", "--base", base,
                                   "--depth", str(LUSIN_DEPTH),
                                   "--breadth", str(LUSIN_BREADTH),
                                   "--json", out],
             input_text=base_text),
    Workload("relabel-vg",
             lambda s, base, out: ["verify", "--suite", "schemes-vg",
                                   "--depth", "4", "--breadth", "6",
                                   "--json", out],
             seeded=False),
    Workload("extract-finite",
             lambda s, base, out: ["verify", "--suite", "choquet-extract",
                                   "--depth", "3", "--breadth", "6",
                                   "--seed", str(s), "--json", out]),
)}


def report_verdict(report: dict) -> tuple[bool, int]:
    """(ok, breaches) of a ``verify`` or ``build-lusin`` JSON report."""
    if "conditions" in report:
        cond = report["conditions"]
        return bool(cond["ok"]), int(cond["counts"]["breach"])
    return bool(report["ok"]), int(report["breaches"])
