"""Mutants of the fast paths in ``bairekit``.

Each row of ``MUTANTS`` names a fast path, the module that holds it, a
snippet of the module's source and a mutation of that snippet.  ``load``
executes a module's source as a fresh module of the package and rebinds
the classes that other code must share (the cylinder expressions), so the
sweep's values flow through the copy.  Each module has one seeded sweep:

- ``cylinder``: ``family``, ``uncovered`` and ``minimal_antichain``
  against the window oracle (``trace_window`` of the real module, set
  algebra over window words);
- ``seq``: ``tuple_at`` against its inverse ``tuple_index``, and a
  branch's ``prefix`` against its stem and word read entry by entry;
- ``lusin``: small Lusin schemes, each family read against its plan's
  ``child(n)`` and its node's trace, and the memo rules of the reads by
  object identity, which is all that a memo mutant changes; each odd
  node's carve and ``refine`` entry against its level's target trace,
  which a wrong plan cannot also fake; no ``violated`` entry in the
  conditions report of any of its bases, which a wrong carve witness
  reports honestly; and one carve witness built per ``refine`` entry of
  that report, on an odd-depth window too;
- ``scheme``: the report keys of ``Window.keyed`` against ``seq_to_text``,
  bare and then with a prefix on the same window, and a report's entries
  after ``Report.extend`` against the records added;
- ``cli``: the JSON text that ``_write_json`` streams for a report against
  ``json.dumps`` of its ``to_json()``.

The real modules and unmutated copies pass the sweeps; every mutant must
fail its module's.  Each snippet must occur exactly once in its module, so
an edit that removes or duplicates one fails here and the table changes
with it.  Equivalent mutants, which no sweep can fail, are not listed: for
example ``_LusinScheme.children``'s ``if not missing: return got`` only
skips a rule call whose family the loop after it would not read.
"""

import importlib
import io
import json
import random
import sys
import types
from itertools import combinations, product
from pathlib import Path
from unittest import mock

import pytest

from bairekit.cylinder import Atom, Diff, Extensions, Inter, Union, \
    trace_window
from bairekit.scheme import BREACH, UNRESOLVED, VERIFIED, VIOLATED, \
    Report, Window
from bairekit.seq import seq_to_text, tuple_index
from conftest import odd_level_fault, records, small_base_faults, \
    window_traces

# a copy uses these real classes and constants, not its own
SHARED = {"cylinder": ("Expr", "Atom", "Union", "Inter", "Diff", "_EmptyExpr",
                       "FULL", "EMPTY", "Extensions")}

# name: (module, original, mutated)
MUTANTS = {
    # an Extensions family of an atom node whose stem the family's extends
    "extensions-stem-test": ("cylinder",
        """        if isinstance(node, Atom) and \\
                stem[: len(node.entries)] == node.entries:""",
        """        if isinstance(node, Atom):"""),
    "extensions-covered": ("cylinder",
        "return ([], stem == node.entries and () in tails,",
        "return ([], () in tails,"),
    # the union of two forms, which family, uncovered and normal_form fold
    # whether or not their members meet
    "family-union-fold": ("cylinder",
        "    return f ^ g ^ _meet(f, g)",
        "    return f ^ g"),
    # an all-atom family decided on its stems
    "stem-family-escaped": ("cylinder",
        "escaped = [n for n, s in enumerate(stems) if s[:k] != stem]",
        "escaped = [n for n, s in enumerate(stems) if s[:k] != stem[:len(s)]]"),
    "stem-family-covered": ("cylinder",
        "any(stem[: len(s)] == s for s in stems)",
        "any(s[:k] == stem for s in stems)"),
    # the early return of the meeting pairs
    "meeting-one-length": ("cylinder",
        "if len(lengths) <= 1 and len(set(stems)) == len(stems):",
        "if len(lengths) <= 1:"),
    # an open that is one of the cover's own objects
    "uncovered-identity": ("cylinder",
        """    members = {id(c) for c in cover}
    rest = [n for n, o in enumerate(opens) if id(o) not in members]""",
        """    members = {mentions(c) for c in cover}
    rest = [n for n, o in enumerate(opens) if mentions(o) not in members]"""),
    # an atom is its own antichain, with no form
    "antichain-atom": ("cylinder",
        """    if isinstance(e, Atom):
        return Antichain((e.entries,), ())""",
        """    if len(mentions(e)) == 1:
        return Antichain(tuple(mentions(e)), ())"""),
    # the unpairing steps of a fixed-length tuple
    "tuple-at": ("seq",
        "n, out[i] = unpair(n)",
        "out[i], n = unpair(n)"),
    # the repeats of a branch's word that cover a prefix
    "branch-prefix-repeats": ("seq",
        "k = (n - len(self.stem)) // len(self.word) + 1",
        "k = (n - len(self.stem)) // len(self.word)"),
    # a one-member split, child by child and as a family of shared tails
    "stem-plan-child": ("lusin",
        "return Atom(self.member + tuple_at(n, self.ext_len))",
        "return Atom(self.member + tuple_at(n + 1, self.ext_len))"),
    "stem-plan-family": ("lusin",
        "return Extensions(self.member, tails(self.ext_len, count))",
        "return Extensions(self.member, tails(self.ext_len + 1, count))"),
    # the memo rules of a Lusin family read
    "lusin-children-unbuilt": ("lusin",
        "if not store and len(missing) == count:",
        "if not store:"),
    "lusin-children-store": ("lusin",
        "got[n] = self._memo.setdefault(keys[n], v) if store else v",
        "got[n] = v"),
    # a carve's witness, taken inside the node's meet with its target, and
    # its positive children, each one slice of the witness
    "carve-witness-in-meet": ("lusin",
        "cy.strict_witness(Inter(va, target))",
        "cy.strict_witness(va)"),
    "carve-child-offset": ("lusin",
        "return Atom(self.witness + (n - 1,))",
        "return Atom(self.witness + (n - 2,))"),
    # a carve plan that an unstored family read built outlives the read
    "carve-plan-kept": ("lusin",
        "if keep or plan.witness is not None:",
        "if keep:"),
    # each odd level's target and its form, read once per base
    "level-target-form": ("lusin",
        "got = self._forms.get(k)",
        "got = self._forms.get(1)"),
    # a node's report key, its parent's key plus one entry
    "key-extension": ("scheme",
        "keys.extend(key + end for key in parents for end in ends)",
        "keys.extend(key + end for end in ends for key in parents)"),
    "key-separator": ("scheme",
        'sep = "." if length > 1 else ""',
        'sep = "."'),
    # each window keeps its own keys, one list per prefix
    "key-cache-prefix": ("scheme",
        "keys = self._keys.get(prefix)",
        'keys = self._keys.get("")'),
    "key-cache-window": ("scheme",
        "default_factory=dict, init=False",
        "default_factory=lambda shared={}: shared, init=False"),
    # a report's three columns, extended together
    "report-extend-column": ("scheme",
        """        self.statuses.extend(other.statuses)
        self.details.extend(other.details)""",
        """        self.statuses.extend(other.statuses)"""),
    # the writer's entries, read off the columns zipped
    "dump-report-zip": ("cli",
        "zip(rep.keys, rep.statuses, rep.details)",
        "zip(rep.keys, rep.details, rep.statuses)"),
}


def load(name: str, source: str) -> types.ModuleType:
    """``source`` executed as a fresh copy of the module ``bairekit.name``."""
    real = importlib.import_module(f"bairekit.{name}")
    module = types.ModuleType(f"bairekit._{name}_copy")
    module.__package__ = "bairekit"
    # ``dataclass`` looks its class's module up while it builds the class
    sys.modules[module.__name__] = module
    try:
        exec(compile(source, real.__file__, "exec"), module.__dict__)
    finally:
        del sys.modules[module.__name__]
    for attr in SHARED.get(name, ()):
        setattr(module, attr, getattr(real, attr))
    return module


# -- the cylinder sweep -------------------------------------------------------

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
    """``(name, args)`` pairs of ``family``, ``uncovered`` and
    ``minimal_antichain`` calls: atom families with nested, repeated and
    off-node stems, Extensions families whose node is on, above, below or
    off the stem, families of expressions that often meet, covers whose
    opens are often the cover's own objects or share its mentions, and
    antichains of expressions with one or two mentions."""
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
        out.append(("family", (_expr(rng, atoms),
                               [_expr(rng, atoms)
                                for _ in range(rng.randint(1, 3))],
                               rng.random() < 0.7)))

        cover = [_expr(rng, atoms) for _ in range(rng.randint(0, 2))]
        opens = [_expr(rng, atoms) for _ in range(rng.randint(1, 3))]
        opens += rng.sample(cover, rng.randint(0, len(cover)))
        out.append(("uncovered", (opens, cover)))

        out.append(("minimal_antichain", (_expr(rng, atoms),)))
    return out


def _traces(exprs) -> list[frozenset]:
    return [trace_window(e, 3, 3) for e in exprs]


# the cylinders that can be antichain members of the sweep's expressions,
# with their traces in the window d=3, b=4: the value 3 is fresh to every
# mention, so it stands for a family's fresh values
MEMBER_TRACES = {w: trace_window(Atom(w), 3, 4)
                 for w in WORDS + [w + (3,) for w in WORDS if len(w) < 3]}


def _minimal_words(e) -> frozenset:
    """The words whose cylinder lies inside ``e`` and whose parent's does
    not; with mentions at most 2 long and entries below 3, these are the
    antichain's members, read in the window."""
    trace = trace_window(e, 3, 4)
    inside = {w for w, t in MEMBER_TRACES.items() if t <= trace}
    return frozenset(w for w in inside if not w or w[:-1] not in inside)


def _antichain_words(chain) -> frozenset:
    """The members of a copy's antichain, read in the window: each family
    stands for its stem extended by every allowed value up to 3."""
    return frozenset(chain.concrete) | frozenset(
        f.stem + (v,) for f in chain.families for v in range(4)
        if v not in f.excluded)


def _oracle(name: str, args: tuple):
    if name == "uncovered":
        opens, cover = args
        union = frozenset().union(*_traces(cover))
        return [n for n, t in enumerate(_traces(opens)) if not t <= union]
    if name == "minimal_antichain":
        return _minimal_words(*args) or "EmptySetError"
    node, children, pairs = args
    [top], traces = _traces([node]), _traces(children[:])
    met = [(n, m) for n in range(len(traces))
           for m in range(n + 1, len(traces)) if traces[n] & traces[m]]
    return ([n for n, t in enumerate(traces) if not t <= top],
            top <= frozenset().union(*traces), met if pairs else [])


CASES = [(name, args, _oracle(name, args)) for name, args in _cases(7, 150)]


def cylinder_sweep(module):
    """The first case on which ``module`` disagrees with the oracle, or
    None."""
    for name, args, want in CASES:
        if name == "minimal_antichain":
            try:
                got = _antichain_words(module.minimal_antichain(*args))
            except ValueError as exc:
                got = type(exc).__name__
        else:
            got = getattr(module, name)(*args)
        if got != want:
            return name, args, want
    return None


# -- the seq sweep ------------------------------------------------------------

TUPLES = [(n, k) for k in range(1, 5) for n in range(60)]
BRANCHES = [(stem, word) for stem in ((), (3,), (1, 0, 4))
            for word in ((2,), (5, 0), (1, 6, 1))]


def seq_sweep(module):
    """The first ``(n, length)`` whose tuple is not the one that
    ``tuple_index`` sends back to ``n``, then the first ``(stem, word, n)``
    whose prefix is not the entrywise reading, or None."""
    for n, k in TUPLES:
        t = module.tuple_at(n, k)
        if len(t) != k or tuple_index(t) != n:
            return n, k
    for stem, word in BRANCHES:
        rule = module.BranchRule(stem, word)
        for n in range(len(stem) + 3 * len(word) + 1):
            if rule.prefix(n) != tuple(
                    stem[i] if i < len(stem)
                    else word[(i - len(stem)) % len(word)] for i in range(n)):
                return stem, word, n
    return None


# -- the Lusin sweep ----------------------------------------------------------

# the standard base and base files of cylinders and differences, so that
# stem, split and carve plans all build window families; the standard base
# again at odd depth, whose last level carves
LUSIN_CASES = [
    (None, Window(2, 3)),
    ("S(0,1)", Window(2, 3)),
    ("S(1) \\ S(1,0) | S(0,2)\nS(0)\nS(2,1) | S(0)", Window(2, 3)),
    ("S(0) | S(1,2)\n(S(2) \\ S(2,2))", Window(3, 2)),
    (None, Window(3, 2)),
]


def _partitions_its_node(node, family) -> bool:
    """Whether each child is a nonempty part of ``node`` and no two meet,
    read in a window that holds every mention."""
    top, *traces = window_traces([node, *family])
    return all(t and t <= top for t in traces) and \
        not any(s & t for s, t in combinations(traces, 2))


def lusin_sweep(module):
    """The first ``(base text, node, check)`` at which a copy's Lusin
    scheme fails, or None.  Each window family is read once stored and
    once, on a second build, not stored; both must be the plan's
    ``child(n)`` and partition their node.  A stored read's children are
    the ones ``node`` then returns, and an unstored read of them hands
    back those very objects; an unstored read of unstored children keeps
    none of them, and one of a family with one child stored hands that
    child back.  On a fresh build, ``check_lusin_conditions`` builds one
    carve witness per ``refine`` entry: a carve plan outlives the unstored
    family read at an odd last level, so its witness is not built
    again."""
    for text, window in LUSIN_CASES:
        base = module.standard_base() if text is None \
            else module.base_from_lines(text)
        sch, fresh = module.build_lusin(base), module.build_lusin(base)
        plan = sch.meta["plan"]
        for a in window.nodes():
            want = [plan(a).child(n) for n in range(window.breadth)]
            kept = sch.children(a, window.breadth)
            if list(kept) != want:
                return text, a, "stored family"
            if not _partitions_its_node(sch.node(a), want):
                return text, a, "partition"
            if any(sch.node(a + (n,)) is not c for n, c in enumerate(kept)):
                return text, a, "stored identity"
            again = sch.children(a, window.breadth, store=False)
            if any(x is not c for x, c in zip(again, kept)):
                return text, a, "unstored read of stored children"
            before = set(fresh._memo)
            if list(fresh.children(a, window.breadth, store=False)) != want:
                return text, a, "unstored family"
            added = set(fresh._memo) - before
            if not added <= {a[:i] for i in range(len(a) + 1)}:
                return text, a, "unstored read kept a child"
            last = fresh.node(a + (window.breadth - 1,))
            if fresh.children(a, window.breadth, store=False)[-1] is not last:
                return text, a, "unstored read of a stored child"
        fault = odd_level_fault(module, base, window)
        if fault is not None:
            return (text,) + fault
        sch = module.build_lusin(base)
        with mock.patch.object(module.cy, "strict_witness",
                               wraps=module.cy.strict_witness) as witness:
            rep = module.check_lusin_conditions(sch, base, window)
        if witness.call_count != sum(k.startswith("refine:")
                                     for k in rep.keys):
            return text, window, "carve witness built again"
    return None


# -- the scheme sweep ---------------------------------------------------------

# depth 3 has three levels of parents; breadth 12 has two-digit entries
KEY_WINDOWS = [Window(0, 1), Window(3, 3), Window(2, 12)]
# the windows whose keys are also read with a prefix, after the bare ones
PREFIX_WINDOWS = KEY_WINDOWS[1:]


# one entry of each status, each field distinct from every other
RECORDS = [("k0", VERIFIED, ""), ("k1", VIOLATED, "d1"),
           ("k2", UNRESOLVED, "d2"), ("k3", BREACH, "d3")]


def scheme_sweep(module):
    """The first window whose keyed nodes are not ``nodes()`` with their
    rendered keys, or None; a window of ``PREFIX_WINDOWS`` is then read
    again with a prefix, and fails as ``(window, prefix)``.  Or
    ``"extend"`` when a report extended by another does not hold both
    reports' records in order."""
    for w in KEY_WINDOWS:
        copy = module.Window(w.depth, w.breadth)
        if list(copy.keyed()) != [(a, seq_to_text(a)) for a in w.nodes()]:
            return w
        if w in PREFIX_WINDOWS and list(copy.keyed("index:")) != \
                [(a, "index:" + seq_to_text(a)) for a in w.nodes()]:
            return w, "index:"
    rep, rest = module.Report("r"), module.Report("s")
    rep.add(*RECORDS[0])
    for record in RECORDS[1:]:
        rest.add(*record)
    rep.extend(rest)
    # zip stops at the shortest column, so a short column loses records
    if records(rep) != RECORDS:
        return "extend"
    return None


# -- the cli sweep ------------------------------------------------------------

def cli_sweep(module):
    """The first report whose streamed JSON text is not ``json.dumps`` of
    its ``to_json()``, or None."""
    full = Report("full")
    for record in RECORDS:
        full.add(*record)
    for rep in (Report("empty"), full):
        out = io.StringIO()
        module._write_json(rep, None, out)
        want = json.dumps(rep.to_json(), indent=2, sort_keys=True) + "\n"
        if out.getvalue() != want:
            return rep.name
    return None


SWEEPS = {"cylinder": cylinder_sweep, "seq": seq_sweep, "lusin": lusin_sweep,
          "scheme": scheme_sweep, "cli": cli_sweep}
SOURCES = {name: Path(importlib.import_module(f"bairekit.{name}").__file__)
           .read_text(encoding="utf-8") for name in SWEEPS}


def test_the_module_and_an_unmutated_copy_pass_the_sweep():
    for name, sweep in SWEEPS.items():
        assert sweep(importlib.import_module(f"bairekit.{name}")) is None
        assert sweep(load(name, SOURCES[name])) is None


@pytest.mark.parametrize("name, original, mutated", MUTANTS.values(),
                         ids=MUTANTS.keys())
def test_the_sweep_kills_the_mutant(name, original, mutated):
    source = SOURCES[name]
    assert source.count(original) == 1
    assert SWEEPS[name](load(name, source.replace(original, mutated))) \
        is not None


# the carve mutants, which the small-scope sweep of every small base file
# kills on its own too
CARVE_MUTANTS = ["carve-witness-in-meet", "carve-child-offset"]


@pytest.mark.parametrize("key", CARVE_MUTANTS)
def test_the_small_base_sweep_kills_the_carve_mutant(key):
    name, original, mutated = MUTANTS[key]
    copy = load(name, SOURCES[name].replace(original, mutated))
    assert next(small_base_faults(copy, Window(3, 2)), None) is not None
