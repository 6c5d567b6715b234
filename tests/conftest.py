from hypothesis import strategies as st

from bairekit.cylinder import Atom, Diff, EMPTY, FULL, Inter, Union, \
    mentions, trace_window
from bairekit.scheme import Report
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
    ``lusin`` is the module or a copy of it."""
    sch = lusin.build_lusin(base)
    plan = sch.meta["plan"]
    rep = lusin.check_lusin_conditions(sch, base, window)
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
