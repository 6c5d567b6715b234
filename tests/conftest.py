from itertools import combinations, product

from hypothesis import strategies as st

import bairekit.lusin
from bairekit.cylinder import Atom, Diff, EMPTY, FULL, Inter, Union, \
    mentions, trace_window
from bairekit.grammar import expr_to_text
from bairekit.scheme import VIOLATED, Report
from bairekit.seq import seq_to_text

seqs = st.lists(st.integers(0, 2), max_size=3).map(tuple)

_atoms = st.one_of(
    seqs.map(Atom),
    st.just(EMPTY),
    st.just(FULL),
)

exprs = st.recursive(
    _atoms,
    lambda sub: st.one_of(
        st.builds(Union, sub, sub),
        st.builds(Inter, sub, sub),
        st.builds(Diff, sub, sub),
    ),
    max_leaves=4,
)


def records(rep):
    """The entries of report ``rep`` as ``(key, status, detail)`` tuples,
    read off its three columns."""
    return list(zip(rep.keys, rep.statuses, rep.details))


def report_of(name, entries):
    """A report named ``name`` holding the ``(key, status, detail)``
    tuples ``entries`` in order."""
    rep = Report(name)
    for entry in entries:
        rep.add(*entry)
    return rep


def _atom_meets_in_the_window(stem, target) -> bool:
    """Whether ``S(stem)`` meets ``target``, read off the target's window
    trace (set algebra over words, not a normal form).  In the least window
    that holds the target's mentions, the value ``breadth`` stands for
    every value no mention uses, so ``stem`` is read with each larger entry
    lowered to it; the cylinder meets the target exactly when a word of the
    trace is comparable with the stem."""
    ms = mentions(target)
    depth = max(map(len, ms), default=0)
    breadth = 1 + max((v for m in ms for v in m), default=0)
    stem = tuple(min(v, breadth) for v in stem[:depth])
    return any(w[: len(stem)] == stem
               for w in trace_window(target, depth, breadth))


def odd_level_fault(lusin, base, window):
    """The first ``(node, check)`` at which an odd window node of
    ``lusin.build_lusin(base)`` carves, or has a ``refine`` entry in
    ``lusin.check_lusin_conditions``, though the window oracle finds it
    missing its own level's target, or the other way round; or None.
    A ``violated`` entry of that report is a fault too, named by its key.
    ``lusin`` is the module or a copy of it."""
    sch = lusin.build_lusin(base)
    plan = sch.meta["plan"]
    rep = lusin.check_lusin_conditions(sch, base, window)
    if VIOLATED in rep.statuses:
        return rep.keys[rep.statuses.index(VIOLATED)], "violated entry"
    refined = {k for k in rep.keys if k.startswith("refine:")}
    for a in window.nodes():
        if len(a) % 2 == 0:
            continue
        meets = _atom_meets_in_the_window(sch.node(a).entries,
                                          base.target(len(a)))
        if (plan(a).witness is not None) != meets:
            return a, "carve"
        if (f"refine:{seq_to_text(a)}" in refined) != meets:
            return a, "refine entry"
    return None


def checked_scheme_fault(window):
    """The first node of ``window`` at which the standard Lusin scheme,
    once ``check_lusin_conditions`` has read it on ``window``, differs from
    a fresh build, or None.  Equal expressions render equal dumps, so this
    is at least as strict as comparing the two window dumps: a check that
    leaves a node written differently in the scheme's memo fails here.
    The functions are read off ``bairekit.lusin`` at each call."""
    lusin = bairekit.lusin
    base = lusin.standard_base()
    sch = lusin.build_lusin(base)
    lusin.check_lusin_conditions(sch, base, window)
    fresh = lusin.build_lusin(lusin.standard_base())
    return next((a for a in window.nodes() if sch.node(a) != fresh.node(a)),
                None)


# -- the small-scope sweep of the Lusin pipeline ------------------------------

# every expression over {0, 1} with stems at most 2 long that is the empty
# set, an atom, a union of two distinct atoms, or a cylinder less a strict
# extension of its stem: 39 expressions
SMALL_STEMS = [s for k in range(3) for s in product((0, 1), repeat=k)]
SMALL_EXPRS = [EMPTY] + [Atom(s) for s in SMALL_STEMS] + \
    [Union(Atom(s), Atom(t)) for s, t in combinations(SMALL_STEMS, 2)] + \
    [Diff(Atom(s), Atom(t)) for s in SMALL_STEMS for t in SMALL_STEMS
     if len(t) > len(s) and t[: len(s)] == s]
# each ordered pair as a two-line base file, the targets of levels 1 and 3:
# 1,521 bases
SMALL_BASES = [f"{expr_to_text(x)}\n{expr_to_text(y)}"
               for x in SMALL_EXPRS for y in SMALL_EXPRS]


def _restrict(e, p):
    """``{y : p + y in e}``: an atom extending ``p`` loses it, one that
    ``p`` extends is the whole space, and any other atom is empty.  On
    subsets of ``S(p)`` the map is a boolean isomorphism onto the space."""
    if isinstance(e, Atom):
        s = e.entries
        if s[: len(p)] == p:
            return Atom(s[len(p):])
        return FULL if p[: len(s)] == s else EMPTY
    if e is EMPTY:
        return e
    return type(e)(_restrict(e.left, p), _restrict(e.right, p))


def window_traces(exprs) -> list[frozenset]:
    """The traces of ``exprs`` in the least window that holds all their
    mentions, so set algebra over the traces is set algebra over the
    opens."""
    ms = frozenset().union(*map(mentions, exprs))
    depth = max(map(len, ms), default=0)
    breadth = 1 + max((v for m in ms for v in m), default=0)
    return [trace_window(e, depth, breadth) for e in exprs]


def lusin_oracle_fault(sch, base, window):
    """The first ``(node, check)`` at which the window oracle finds the
    Lusin scheme ``sch`` over ``base`` failing a check that
    ``check_lusin_conditions`` makes on ``window``, or None.  The oracle
    reads ``trace_window`` words and the nodes' shapes only, never the
    decision procedures.  Each node and its budgeted children are moved to
    their common stem ``p`` and the level's target is restricted to ``p``,
    which keeps every inclusion, meet and emptiness; then the root must be
    the whole space, each node nonempty, an odd node a single cylinder at
    least as long as its level, the children inside their node and
    pairwise disjoint, and at an odd node meeting its target every
    positive child inside the target."""
    for a in window.nodes():
        node = sch.node(a)
        family = [node] + [sch.node(a + (n,)) for n in range(window.breadth)]
        ms = frozenset().union(*map(mentions, family))
        p = min(ms, key=len, default=())
        while any(m[: len(p)] != p for m in ms):
            p = p[:-1]
        odd = len(a) % 2 == 1
        target = base.target(len(a)) if odd else EMPTY
        top, *children, inside = window_traces(
            [_restrict(e, p) for e in family + [target]])
        if not a:
            root, whole = window_traces([node, FULL])
            if root != whole:
                return a, "root is not the whole space"
        if not top:
            return a, "empty node"
        if odd and not (isinstance(node, Atom) and len(node.entries) >= len(a)):
            return a, "odd node is not a long-enough single cylinder"
        if any(not c <= top for c in children):
            return a, "child escapes its node"
        if any(c & d for c, d in combinations(children, 2)):
            return a, "children overlap"
        if top & inside and any(not c <= inside for c in children[1:]):
            return a, "positive child escapes the target"
    return None


def small_base_faults(lusin, window, texts=SMALL_BASES):
    """``(base text, where, check)`` for each base file of ``texts`` whose
    ``check_lusin_conditions`` report on ``window`` has a ``violated``
    entry, or whose verdict is not the window oracle's
    (``lusin_oracle_fault``).  ``lusin`` is the module or a copy of it."""
    for text in texts:
        base = lusin.base_from_lines(text)
        sch = lusin.build_lusin(base)
        rep = lusin.check_lusin_conditions(sch, base, window)
        fault = lusin_oracle_fault(sch, base, window)
        if rep.ok == (fault is not None):
            yield text, fault, "the report's verdict is not the oracle's"
        elif VIOLATED in rep.statuses:
            yield text, rep.keys[rep.statuses.index(VIOLATED)], "violated"
