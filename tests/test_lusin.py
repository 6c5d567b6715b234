import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bairekit.cylinder as cylinder
import bairekit.lusin as lusin
from conftest import odd_level_fault, records
from bairekit.cylinder import (Antichain, Atom, Diff, FULL, cyl, intersects,
                               is_empty, subset)
from bairekit.lusin import (_CarvePlan, _SplitPlan, _StemPlan,
                            base_from_lines, build_lusin,
                            check_lusin_conditions, standard_base)
from bairekit.scheme import (BREACH, Scheme, UNRESOLVED, VERIFIED, VIOLATED,
                             Window, check_partitions, dump_scheme)
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


_level_bases = st.lists(st.lists(_terms, min_size=1, max_size=3)
                        .map(" | ".join), min_size=2, max_size=3) \
    .map("\n".join)


@given(_level_bases, st.integers(2, 4))
@example("S(0) | S(1,2)\n(S(2) \\ S(2,2))", 2)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_odd_plans_carve_exactly_where_the_level_target_meets(text, breadth):
    """Levels 1 and 3 read different lines of the base.  Every odd window
    node carves, and has a ``refine`` entry, exactly when the window oracle
    finds it meeting its own level's target."""
    assert odd_level_fault(lusin, base_from_lines(text),
                           Window(3, breadth)) is None


def test_a_witness_not_inside_the_target_is_violated(monkeypatch):
    """The plan's witness is decided against the target's form: a carve
    whose witness meets the target S(0,1) but does not lie inside it fails
    its inclusion."""
    monkeypatch.setattr(cylinder, "strict_witness", lambda e: (0,))
    base = base_from_lines("S(0,1)")
    rep = check_lusin_conditions(build_lusin(base), base, Window(1, 3))
    assert _refine_entry(rep, "0") == (
        VIOLATED, "witness inclusion False, budgeted children True")


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
    sch = build_lusin(standard_base())
    plan = sch.meta["plan"]
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
    assert rep.ok and BREACH not in rep.statuses


def test_partition_evidence():
    sch = build_lusin(standard_base())
    rep = check_partitions(sch, WINDOW)
    assert rep.ok


def test_default_lusin_check_count_budget(monkeypatch):
    # the emptiness decisions of synthesis and of the check on the default
    # lusin suite's window; a regression in operation count fails here.  An
    # atom's antichain takes no decision, so most split plans take none, and
    # an odd node is decided against its level's target form, not by
    # ``is_empty``
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
    assert calls == 1_891


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
    # level's tails, and the family decision builds none of its atoms; the
    # standard base builds an atom per target read, once per odd level of
    # the base, which synthesis and the check share
    calls = 0
    init = Atom.__init__

    def counted(self, entries):
        nonlocal calls
        calls += 1
        init(self, entries)

    monkeypatch.setattr(Atom, "__init__", counted)
    base = standard_base()
    assert check_lusin_conditions(build_lusin(base), base, Window(4, 6)).ok
    assert calls == 2_024


def test_default_lusin_plans_keep_few_antichains():
    # a one-member split keeps its member, not a one-member ``Antichain``,
    # so only the splits of the carves' children 0 keep one.  Folding
    # ``_StemPlan`` into ``_SplitPlan`` would make it 1,513 of 1,555 and
    # raise lusin-synth's peak memory (ROADMAP, Negative results)
    base = standard_base()
    sch = build_lusin(base)
    assert check_lusin_conditions(sch, base, Window(4, 6)).ok
    plans = [sch.meta["plan"](a) for a in Window(4, 6).nodes()]
    kinds = Counter(type(p) for p in plans)
    assert kinds == {_StemPlan: 1_471, _CarvePlan: 42, _SplitPlan: 42}
    assert sum(hasattr(p, "chain") for p in plans) == 42


def test_an_unstored_family_read_keeps_no_stem_or_split_plan():
    # the partition walk reads the deepest window level unstored, so only
    # the plans of the 259 nodes above it stay, all of them read back by
    # the walk; the deepest level's 1,296 plans go with their families
    gc.collect()
    before = sum(isinstance(o, lusin._Plan) for o in gc.get_objects())
    sch = build_lusin(standard_base())
    assert check_partitions(sch, Window(4, 6)).ok
    after = sum(isinstance(o, lusin._Plan) for o in gc.get_objects())
    assert after - before == 259


def _synth_base_text(seed: int, breadth: int) -> str:
    """Eight target lines of the benchmark's shape: unions of 2-4 short
    cylinders or cylinder differences, with entries below ``breadth``."""
    rng = random.Random(seed)

    def word():
        return tuple(rng.randrange(breadth) for _ in range(rng.randint(1, 2)))

    def term():
        stem = word()
        if rng.random() < 0.5:
            return _cyl_text(stem)
        return f"({_cyl_text(stem)} \\ {_cyl_text(stem + word())})"

    return "\n".join(" | ".join(term() for _ in range(rng.randint(2, 4)))
                     for _ in range(8))


@given(st.integers(0, 2**32 - 1), st.integers(3, 5), st.integers(2, 5))
@example(1, 3, 5)   # odd leaf level
@example(5, 4, 5)   # even leaf level
@example(17, 5, 3)
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
def test_kept_plans_do_not_change_the_conditions_or_the_dump(seed, depth,
                                                              breadth):
    """A cold scheme, whose deepest window level keeps no stem or split
    plan, reports and dumps exactly as one whose window plans were all
    read first through ``meta["plan"]`` and so are all kept."""
    base = base_from_lines(_synth_base_text(seed, breadth))
    window = Window(depth, breadth)
    cold, warm = build_lusin(base), build_lusin(base)
    for a in window.nodes():
        warm.meta["plan"](a)
    assert check_lusin_conditions(cold, base, window) == \
        check_lusin_conditions(warm, base, window)
    assert dump_scheme(cold, window) == dump_scheme(warm, window)


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


def test_a_lusin_scheme_is_freed_without_the_cycle_collector():
    # the plan map reaches its scheme through a weak proxy, so no cycle
    # holds a scheme whose last user let go
    base = standard_base()
    sch = build_lusin(base)
    assert check_lusin_conditions(sch, base, Window(2, 3)).ok
    ref, plan = weakref.ref(sch), sch.meta["plan"]
    gc.disable()
    try:
        del sch
        assert ref() is None
    finally:
        gc.enable()
    # the plan map reads nodes of its scheme, which is gone
    with pytest.raises(ReferenceError):
        plan((5,))


def test_hand_built_violation_of_cylinder_form():
    base = standard_base()

    def rule(a):
        if len(a) % 2 == 1:
            return cyl(*a) | cyl(len(a) + 7)  # odd node that is not a cylinder
        return Atom(a) if a else FULL

    rep = check_lusin_conditions(Scheme(BAIRE, rule), base, Window(1, 2))
    assert any(s == VIOLATED and k.startswith("cyl-form")
               for k, s, _ in records(rep))


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
    refine = [s for k, s, _ in records(rep) if k == "refine:0"]
    assert refine and refine[0] == UNRESOLVED


def test_foreign_scheme_with_an_empty_node_is_violated():
    """An empty node fails ``nonempty`` and is checked no further: the odd
    node (1,) gets no ``cyl-form`` entry."""
    def rule(a):
        return cylinder.EMPTY if a == (1,) else Atom(a)

    rep = check_lusin_conditions(Scheme(BAIRE, rule), standard_base(),
                                 Window(1, 2))
    entries = {k: (s, d) for k, s, d in records(rep)}
    assert entries["nonempty:1"] == (VIOLATED, "empty node")
    assert entries["nonempty:0"] == (VERIFIED, "")
    assert "cyl-form:1" not in entries and "cyl-form:0" in entries
    assert not rep.ok


def _refine_entry(rep, key):
    [entry] = [(s, d) for k, s, d in records(rep) if k == f"refine:{key}"]
    return entry


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
