"""Spot-check of a ``build-lusin`` report against the brute window oracle.

For a seeded sample of window nodes, the budgeted children must lie inside
their node and be pairwise disjoint.  This is decided with
``cylinder.trace_window`` alone, never with the decision procedures it is
meant to check.

``trace_window`` enumerates ``(breadth + 1) ** depth`` words, too many for
the long stems of deep nodes, so each family is first moved to the root:
when every atom of the node and its children extends a stem ``p``, the
map ``X -> {y : p + y in X}`` is a boolean isomorphism from subsets of
``S(p)`` onto the space that sends ``S(p + q)`` to ``S(q)`` and keeps
inclusion and disjointness.
"""

from __future__ import annotations

import random
from itertools import combinations

from bairekit.cylinder import EMPTY, FULL, Atom, Expr, trace_window
from bairekit.grammar import parse_expr

SAMPLES = 64
MAX_WORDS = 200_000


def _atoms(e: Expr, out: set) -> None:
    todo = [e]
    while todo:
        x = todo.pop()
        if isinstance(x, Atom):
            out.add(x.entries)
        elif x is FULL:
            out.add(())
        elif x is not EMPTY:
            todo += (x.left, x.right)


def _common_stem(seqs: set) -> tuple:
    stem = min(seqs, key=len) if seqs else ()
    while not all(s[: len(stem)] == stem for s in seqs):
        stem = stem[:-1]
    return stem


def _strip(e: Expr, k: int) -> Expr:
    if isinstance(e, Atom):
        return Atom(e.entries[k:])
    if e is FULL or e is EMPTY:
        return e
    return type(e)(_strip(e.left, k), _strip(e.right, k))


def _key(parent: str, n: int) -> str:
    return str(n) if parent == "ε" else f"{parent}.{n}"


def spot_check(report: dict, seed: int) -> tuple[int, list[str]]:
    """Returns (families checked, mismatches) for a ``build-lusin`` report."""
    nodes = report["nodes"]
    depth, breadth = report["window"]["depth"], report["window"]["breadth"]
    inner = sorted(k for k in nodes
                   if (0 if k == "ε" else k.count(".") + 1) < depth)
    rng = random.Random(seed)
    checked, mismatches = 0, []
    for key in rng.sample(inner, min(SAMPLES, len(inner))):
        family = [parse_expr(nodes[key])] + \
            [parse_expr(nodes[_key(key, n)]) for n in range(breadth)]
        seqs: set = set()
        for e in family:
            _atoms(e, seqs)
        stem = _common_stem(seqs)
        family = [_strip(e, len(stem)) for e in family]
        rest = [s[len(stem):] for s in seqs]
        d = max((len(s) for s in rest), default=0) or 1
        b = max((v for s in rest for v in s), default=0) + 1
        if (b + 1) ** d > MAX_WORDS:
            continue
        node, *children = [trace_window(e, d, b) for e in family]
        checked += 1
        for n, child in enumerate(children):
            if not child <= node:
                mismatches.append(f"{_key(key, n)} escapes {key}")
        for (n, x), (m, y) in combinations(enumerate(children), 2):
            if x & y:
                mismatches.append(f"{_key(key, n)} meets {_key(key, m)}")
    return checked, mismatches
