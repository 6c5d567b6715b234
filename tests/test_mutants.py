"""Mutants of the fast paths in ``bairekit/cylinder.py``.

Each row of ``MUTANTS`` names a fast path, a snippet of the module's
source and a mutation of that snippet.  ``load`` executes the source as a
fresh module and rebinds the real expression classes into it, so the
sweep's expressions flow through the copy.  The seeded sweep compares the
copy's ``family`` and ``uncovered`` with the window oracle
(``trace_window`` of the real module, set algebra over window words).

The real module and an unmutated copy pass the sweep; every mutant must
fail it.  Each snippet must occur exactly once in the module, so an edit
that removes or duplicates one fails here and the table changes with it.
Equivalent mutants, which no sweep can fail, are not listed: for example
``_stem_family``'s ``min(...) <= k`` test only skips work that the prefix
test after it repeats.
"""

import random
import sys
import types
from itertools import product
from pathlib import Path

import pytest

import bairekit.cylinder as cy
from bairekit.cylinder import Atom, Diff, Extensions, Inter, Union, \
    trace_window

SOURCE = Path(cy.__file__).read_text(encoding="utf-8")
# the copy uses the real classes and constants, not its own
SHARED = ("Expr", "Atom", "Union", "Inter", "Diff", "_FullExpr", "_EmptyExpr",
          "FULL", "EMPTY", "Extensions")

MUTANTS = {
    # an Extensions family of an atom node whose stem the family's extends
    "extensions-stem-test": (
        """        if isinstance(node, Atom) and \\
                stem[: len(node.entries)] == node.entries:""",
        """        if isinstance(node, Atom):"""),
    "extensions-covered": (
        "return ([], stem == node.entries and () in tails,",
        "return ([], () in tails,"),
    # an all-atom family decided on its stems
    "stem-family-escaped": (
        ".count(stem) == len(stems):",
        ".count(stem) >= 1:"),
    "stem-family-covered": (
        "any(stem[: len(s)] == s for s in stems)",
        "any(s[:k] == stem for s in stems)"),
    # the early returns of the meeting pairs
    "meeting-one-length": (
        "if len(lengths) <= 1 and len(set(stems)) == len(stems):",
        "if len(lengths) <= 1:"),
    "meeting-neighbours": (
        "if not any(t[: len(s)] == s for s, t in zip(ordered, ordered[1:])):",
        "if not any(s[: len(t)] == t for s, t in zip(ordered, ordered[1:])):"),
    # an open that is one of the cover's own objects
    "uncovered-identity": (
        """    members = {id(c) for c in cover}
    rest = [n for n, o in enumerate(opens) if id(o) not in members]""",
        """    members = {mentions(c) for c in cover}
    rest = [n for n, o in enumerate(opens) if mentions(o) not in members]"""),
}


def load(source: str) -> types.ModuleType:
    """``source`` executed as a fresh module of the package."""
    module = types.ModuleType("bairekit._cylinder_copy")
    module.__package__ = "bairekit"
    # ``dataclass`` looks its class's module up while it builds the class
    sys.modules[module.__name__] = module
    try:
        exec(compile(source, cy.__file__, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    for name in SHARED:
        setattr(module, name, getattr(cy, name))
    return module


# -- the seeded sweep ---------------------------------------------------------

# the oracle window d=3, b=3 holds every stem and tail below
WORDS = [w for k in range(4) for w in product(range(3), repeat=k)]


def _word(rng, longest):
    return rng.choice([w for w in WORDS if len(w) <= longest])


def _expr(rng, atoms):
    exprs = [Atom(rng.choice(atoms)) for _ in range(rng.randint(1, 3))]
    while len(exprs) > 1:
        op = rng.choice((Union, Inter, Diff))
        exprs[:2] = [op(exprs[0], exprs[1])]
    return exprs[0]


def _cases(seed: int, count: int) -> list[tuple]:
    """``(name, args)`` pairs of ``family`` and ``uncovered`` calls:
    atom families with nested, repeated and off-node stems, Extensions
    families whose node is on, above, below or off the stem, and covers
    whose opens are often the cover's own objects or share its mentions."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        node = _word(rng, 2)
        stems = [node + _word(rng, 3 - len(node)) if rng.random() < 0.6
                 else _word(rng, 3) for _ in range(rng.randint(0, 5))]
        if stems and rng.random() < 0.3:
            stems.append(rng.choice(stems))
        out.append(("family", (Atom(node), [Atom(s) for s in stems],
                               rng.random() < 0.7)))

        stem = _word(rng, 2)
        tails = [_word(rng, 3 - len(stem)) for _ in range(rng.randint(0, 4))]
        if rng.random() < 0.3:
            tails.append(())
        top = rng.choice((stem[: rng.randint(0, len(stem))], stem,
                          _word(rng, 3)))
        out.append(("family", (Atom(top), Extensions(stem, tails),
                               rng.random() < 0.7)))

        atoms = [_word(rng, 2) for _ in range(2)]
        cover = [_expr(rng, atoms) for _ in range(rng.randint(0, 2))]
        opens = [_expr(rng, atoms) for _ in range(rng.randint(1, 3))]
        opens += rng.sample(cover, rng.randint(0, len(cover)))
        out.append(("uncovered", (opens, cover)))
    return out


def _traces(exprs) -> list[frozenset]:
    return [trace_window(e, 3, 3) for e in exprs]


def _oracle(name: str, args: tuple):
    if name == "uncovered":
        opens, cover = args
        union = frozenset().union(*_traces(cover))
        return [n for n, t in enumerate(_traces(opens)) if not t <= union]
    node, children, pairs = args
    [top], traces = _traces([node]), _traces(children[:])
    met = [(n, m) for n in range(len(traces))
           for m in range(n + 1, len(traces)) if traces[n] & traces[m]]
    return ([n for n, t in enumerate(traces) if not t <= top],
            top <= frozenset().union(*traces), met if pairs else [])


CASES = [(name, args, _oracle(name, args)) for name, args in _cases(7, 150)]


def sweep(module):
    """The first case on which ``module`` disagrees with the oracle, or
    None."""
    for name, args, want in CASES:
        if getattr(module, name)(*args) != want:
            return name, args, want
    return None


def test_the_module_and_an_unmutated_copy_pass_the_sweep():
    assert sweep(cy) is None
    assert sweep(load(SOURCE)) is None


@pytest.mark.parametrize("original, mutated", MUTANTS.values(),
                         ids=MUTANTS.keys())
def test_the_sweep_kills_the_mutant(original, mutated):
    assert SOURCE.count(original) == 1
    assert sweep(load(SOURCE.replace(original, mutated))) is not None
