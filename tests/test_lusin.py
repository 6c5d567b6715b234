from hypothesis import example, given, settings
from hypothesis import strategies as st

import bairekit.cylinder as cylinder
import bairekit.lusin as lusin
from bairekit.cylinder import (Antichain, Atom, Diff, FULL, cyl, intersects,
                               is_empty, subset)
from bairekit.lusin import (_CarvePlan, _SplitPlan, _StemPlan,
                            base_from_lines, build_lusin,
                            check_lusin_conditions, standard_base)
from bairekit.scheme import (Scheme, UNRESOLVED, VERIFIED, VIOLATED, Window,
                             check_partitions, dump_scheme)
from bairekit.spaces import BAIRE

WINDOW = Window(3, 5)


def test_root_is_whole_space():
    sch = build_lusin(standard_base())
    assert sch.node(()) is FULL


def test_split_children_distinct_cylinders():
    sch = build_lusin(standard_base())
    kids = [sch.node((n,)) for n in range(8)]
    assert all(isinstance(k, Atom) and len(k.entries) == 1 for k in kids)
    assert len({k.entries for k in kids}) == len(kids)


def test_carve_step_frozen_example():
    # base whose first target is S(0,1); the first split child of the root
    # is S(0), so the node at (0,) exercises the carving step against it
    base = base_from_lines("S(0,1)")
    sch = build_lusin(base)
    assert sch.node((0,)) == cyl(0)
    first_child = sch.node((0, 0))
    witness = sch.meta["plan"]((0,)).witness
    assert witness == (0, 1, 0, 0)
    assert first_child == Diff(cyl(0), Atom(witness))
    assert sch.node((0, 1)) == Atom(witness + (0,))
    assert subset(Atom(witness), cyl(0, 1))          # certifies the refinement
    assert not is_empty(sch.node((0, 0)))            # strictness pays off here
    assert not intersects(sch.node((0, 0)), sch.node((0, 1)))


def test_carve_witness_is_read_from_the_plan_before_any_child():
    """The plan of a node states its witness before any of its children
    is built; the children then follow from it."""
    calls = []
    sch = build_lusin(base_from_lines("S(0,1)"))
    rule = sch.rule
    sch.rule = lambda a: calls.append(a) or rule(a)
    plan = sch.meta["plan"]((0,))
    assert sorted(calls) == [(), (0,)]  # the node and its parent only
    assert plan.witness == (0, 1, 0, 0)
    assert sch.meta["plan"](()).witness is None
    assert sch.node((0, 1)) == Atom(plan.witness + (0,))


@given(st.lists(st.integers(0, 5), max_size=6).map(tuple), st.integers(1, 5),
       st.integers(0, 10**6))
@example((), 1, 0)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_one_member_split_child_matches_the_extension(stem, ext_len, n):
    # ``_SplitPlan`` reads its child through ``Antichain.extension``
    assert _StemPlan(stem, ext_len).child(n) == \
        _SplitPlan(Antichain((stem,), ()), ext_len).child(n)


def _cyl_text(stem):
    return "S(" + ",".join(map(str, stem)) + ")"


_words = st.lists(st.integers(0, 4), min_size=1, max_size=2).map(tuple)
# one cylinder, or a cylinder minus a longer one, as in the benchmark's
# base files, with entries inside the window's breadth
_terms = st.one_of(
    _words.map(_cyl_text),
    st.tuples(_words, _words).map(
        lambda p: f"({_cyl_text(p[0])} \\ {_cyl_text(p[0] + p[1])})"))
_base_texts = st.lists(st.lists(_terms, min_size=2, max_size=4)
                       .map(" | ".join), min_size=1, max_size=8) \
    .map("\n".join)


@given(st.one_of(st.none(), _base_texts), st.integers(0, 3),
       st.integers(1, 5), st.booleans())
@example(None, 2, 3, True)     # stem, carve and split plans
@example(None, 2, 3, False)
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
def test_family_reads_match_node_reads(text, depth, breadth, store):
    """``children`` builds each family from its plan; a second, fresh
    build read node by node through ``plan.child`` is the reference.  A
    child already in the memo comes back as the very stored object, and a
    read with ``store`` false keeps none of the children it built."""
    base = standard_base() if text is None else base_from_lines(text)
    sch, ref = build_lusin(base), build_lusin(base)
    for a in Window(depth, breadth).nodes():
        expected = [ref.node(a + (n,)) for n in range(8)]
        stored = sch.node(a + (1,)) if breadth > 1 else None
        before = set(sch._memo)
        assert list(sch.children(a, 8, store=False)) == expected
        assert set(sch._memo) - before <= {a[:i] for i in range(len(a) + 1)}
        family = list(sch.children(a, breadth, store))
        assert family == expected[:breadth]
        if stored is not None:
            assert family[1] is stored
        for n, child in enumerate(family):
            if store:
                assert sch._memo[a + (n,)] is child
            elif n != 1:
                assert a + (n,) not in sch._memo


def test_family_reads_share_tails_and_single_reads_grow_none(monkeypatch):
    """A stem plan's family reads the level's shared tails, computed once
    up to the largest budget read; a single read computes its own tail."""
    calls = []
    tuple_at = lusin.tuple_at
    monkeypatch.setattr(lusin, "tuple_at",
                        lambda n, k: calls.append(n) or tuple_at(n, k))
    sch = build_lusin(standard_base())
    plan = sch.meta["plan"]
    assert isinstance(plan((1, 1)), _StemPlan)
    assert isinstance(plan((1, 2)), _StemPlan)
    assert isinstance(plan((0,)), _CarvePlan)
    expected = [plan((1, 1)).child(n) for n in range(8)]
    shared = [plan((1, 2)).child(n) for n in range(3)]
    far = plan((0,)).child(10**6), plan((1, 1)).child(10**6)
    calls.clear()
    assert (sch.node((0, 10**6)), sch.node((1, 1, 10**6))) == far
    assert calls == [10**6]
    calls.clear()
    assert sch.children((1, 1), 8) == expected
    assert calls == list(range(8))
    calls.clear()
    assert sch.children((1, 2), 3) == shared
    assert calls == []


def test_atom_nodes_split_by_their_stem():
    plan = build_lusin(standard_base()).meta["plan"]
    assert isinstance(plan(()), _StemPlan)         # the whole space, S()
    assert isinstance(plan((0, 1)), _StemPlan)     # an even-level atom
    assert isinstance(plan((0,)), _CarvePlan)      # meets the first target
    assert isinstance(plan((0, 0)), _SplitPlan)    # the carve's difference


def test_odd_nodes_are_long_cylinders():
    sch = build_lusin(standard_base())
    for a in WINDOW.nodes():
        if len(a) % 2 == 1:
            node = sch.node(a)
            assert isinstance(node, Atom) and len(node.entries) >= len(a)


def test_conditions_pass_at_window():
    base = standard_base()
    sch = build_lusin(base)
    rep = check_lusin_conditions(sch, base, WINDOW)
    assert rep.ok and not rep.breaches


def test_partition_evidence():
    sch = build_lusin(standard_base())
    rep = check_partitions(sch, WINDOW)
    assert rep.ok


def test_default_lusin_check_count_budget(monkeypatch):
    # the emptiness decisions of synthesis and of the check on the default
    # lusin suite's window; a regression in operation count fails here.  An
    # atom's antichain takes no decision, so most split plans take none
    calls = 0
    real = cylinder.is_empty

    def counted(e):
        nonlocal calls
        calls += 1
        return real(e)

    monkeypatch.setattr(cylinder, "is_empty", counted)
    base = standard_base()
    rep = check_lusin_conditions(build_lusin(base), base, Window(4, 6))
    assert rep.ok
    assert calls == 2_378


def test_default_lusin_family_build_count_budget(monkeypatch):
    # each window family is built from its plan in one rule call, and a
    # stem plan's tails are computed once per level: the rule runs for the
    # root and once per window node, and ``tuple_at`` mostly for the few
    # split plans that build their families child by child
    base = standard_base()
    sch = build_lusin(base)
    rule, tuple_at = sch.rule, lusin.tuple_at
    rule_calls = tuple_calls = 0

    def counted_rule(*args):
        nonlocal rule_calls
        rule_calls += 1
        return rule(*args)

    def counted_tuple_at(n, length):
        nonlocal tuple_calls
        tuple_calls += 1
        return tuple_at(n, length)

    sch.rule = counted_rule
    monkeypatch.setattr(lusin, "tuple_at", counted_tuple_at)
    assert check_lusin_conditions(sch, base, Window(4, 6)).ok
    assert rule_calls == 1_556
    assert tuple_calls == 276


def test_default_lusin_atom_build_count_budget(monkeypatch):
    # a stem family read below the window comes back as its stem and the
    # level's tails, and the family decision builds none of its atoms
    calls = 0
    init = Atom.__init__

    def counted(self, entries):
        nonlocal calls
        calls += 1
        init(self, entries)

    monkeypatch.setattr(Atom, "__init__", counted)
    base = standard_base()
    assert check_lusin_conditions(build_lusin(base), base, Window(4, 6)).ok
    assert calls == 2_467


def test_union_of_children_stays_inside():
    sch = build_lusin(standard_base())
    for a in [(), (0,), (1, 0)]:
        node = sch.node(a)
        union = None
        for n in range(6):
            child = sch.node(a + (n,))
            assert subset(child, node)
            union = child if union is None else union | child
            assert subset(union, node)


def test_strict_branch_evidence_grows():
    from bairekit.scheme import strict_branch_probe
    from bairekit.seq import BranchRule

    sch = build_lusin(standard_base())
    for branch in (BranchRule.constant(1), BranchRule.periodic((2, 0))):
        last = -1
        for n in range(5):
            probe = strict_branch_probe(sch, branch, n)
            assert probe.nonempty
            assert probe.precision >= last
            last = probe.precision
        assert last >= 2  # the cylinders genuinely sharpen along the branch


def test_determinism():
    w = Window(3, 4)
    one = dump_scheme(build_lusin(standard_base()), w)
    two = dump_scheme(build_lusin(standard_base()), w)
    assert one == two


def test_hand_built_violation_of_cylinder_form():
    base = standard_base()

    def rule(a):
        if len(a) % 2 == 1:
            return cyl(*a) | cyl(len(a) + 7)  # odd node that is not a cylinder
        return Atom(a) if a else FULL

    rep = check_lusin_conditions(Scheme(BAIRE, rule), base, Window(1, 2))
    assert any(e.status == VIOLATED and e.key.startswith("cyl-form")
               for e in rep.entries)


def test_foreign_scheme_refinement_is_budget_evidence_only():
    base = base_from_lines("S(1)")
    # a scheme structurally like a carve at (0,) but without recorded metadata
    def rule(a):
        table = {(): FULL, (0,): cyl(1), (1,): FULL - cyl(1)}
        if a in table:
            return table[a]
        if a[0] == 0:
            return Atom((1,) + a[1:])
        return Atom(a)

    rep = check_lusin_conditions(Scheme(BAIRE, rule), base, Window(1, 3))
    refine = [e for e in rep.entries if e.key == "refine:0"]
    assert refine and refine[0].status == UNRESOLVED


def _refine_entry(rep, key):
    [entry] = [e for e in rep.entries if e.key == f"refine:{key}"]
    return entry.status, entry.detail


def test_carve_child_outside_the_witness_is_violated(monkeypatch):
    """The witness still lies in the target, but one budgeted positive
    child of the carve at (0,) leaves it."""
    base = base_from_lines("S(0,1)")
    rep = check_lusin_conditions(build_lusin(base), base, Window(1, 3))
    assert _refine_entry(rep, "0") == (
        VERIFIED, "witness inclusion covers all positive children")

    child = _CarvePlan.child
    monkeypatch.setattr(_CarvePlan, "child",
                        lambda plan, n: cyl(0, 2) if n == 2
                        else child(plan, n))
    rep = check_lusin_conditions(build_lusin(base), base, Window(1, 3))
    assert _refine_entry(rep, "0") == (
        VIOLATED, "witness inclusion True, budgeted children False")


def test_foreign_scheme_child_outside_the_target_is_violated():
    base = base_from_lines("S(1)")
    # node (0,) meets the target S(1); its child (0, 2) is S(2)
    def rule(a):
        table = {(): FULL, (0,): cyl(1), (1,): FULL - cyl(1), (0, 2): cyl(2)}
        if a in table:
            return table[a]
        if a[0] == 0:
            return Atom((1,) + a[1:])
        return Atom(a)

    rep = check_lusin_conditions(Scheme(BAIRE, rule), base, Window(1, 3))
    assert _refine_entry(rep, "0") == (
        VIOLATED, "a budgeted positive child escapes the target")


def test_conditions_store_no_node_below_the_window():
    """The positive children of the deepest odd window nodes are read
    without being stored."""
    sch = build_lusin(standard_base())
    assert check_lusin_conditions(sch, standard_base(), Window(3, 4)).ok
    assert max(map(len, sch._memo)) == 3


def test_empty_window_is_vacuous():
    base = standard_base()
    rep = check_lusin_conditions(build_lusin(base), base, Window(0, 1))
    assert rep.ok
