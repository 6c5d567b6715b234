import sys
import tracemalloc
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairekit.cylinder import Atom, EMPTY, FULL, cyl, equal
from conftest import records, report_of
from bairekit.scheme import (BREACH, BranchProbe, Report, Scheme,
                             UNRESOLVED, VERIFIED, VIOLATED, Window,
                             branch_nodes, check_covers, check_partitions,
                             check_relabel_identities, dense_in_itself_probe,
                             dump_scheme, fruit_prefix,
                             pi_net_probe, relabel, standard_scheme,
                             strict_branch_probe, EmptyTargetError)
from bairekit.seq import BranchRule, seq_at, seq_to_text
from bairekit.spaces import BAIRE, FiniteSpaceModel
from bairekit.suites import G_PRESETS

HALF = G_PRESETS["half"]


def test_window_nodes():
    w = Window(2, 2)
    assert list(w.nodes()) == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert w.node_count() == 7
    with pytest.raises(ValueError):
        Window(-1, 2)
    with pytest.raises(ValueError):
        Window(2, 0)


def test_window_count_is_the_window_size():
    checked = set()
    for depth in range(9):
        for breadth in range(1, 17):
            if breadth ** depth > 20_000:  # its last level alone is larger
                continue
            w = Window(depth, breadth)
            size = sum(1 for _ in islice(w.nodes(), 20_001))
            if size <= 20_000:
                assert w.node_count() == size, w
                checked.add((depth, breadth))
    assert {(depth, 1) for depth in range(9)} < checked


@pytest.mark.parametrize("breadth", [1, 2, 10, 11, 16])
@pytest.mark.parametrize("depth", range(5))
def test_keyed_nodes_carry_their_rendered_keys(depth, breadth):
    # from breadth 11 on, the keys hold two-digit entries
    w = Window(depth, breadth)
    assert list(w.keyed()) == [(a, seq_to_text(a)) for a in w.nodes()]
    for prefix in ("", "index:"):
        want = [(a, prefix + seq_to_text(a)) for a in w.nodes()]
        assert list(w.keyed(prefix)) == want
        # a second walk hands back the very same key objects
        assert all(key is again for (_, key), (_, again)
                   in zip(w.keyed(prefix), w.keyed(prefix)))


def test_each_window_and_prefix_keeps_its_own_keys():
    small, large = Window(1, 2), Window(2, 2)
    assert [k for _, k in small.keyed()] == ["ε", "0", "1"]
    assert [k for _, k in small.keyed("union:")] == \
        ["union:ε", "union:0", "union:1"]
    assert [k for _, k in large.keyed()][-1] == "1.1"
    assert [k for _, k in large.keyed("index:")][-1] == "index:1.1"
    # the keys are no part of a window's value
    assert small == Window(1, 2) and hash(small) == hash(Window(1, 2))
    assert repr(small) == "Window(depth=1, breadth=2)"


def test_relabel_identities_write_the_windows_own_union_keys():
    w = Window(3, 6)
    # a map that misses a budget value writes no union entry
    rep = check_relabel_identities(standard_scheme(), lambda n: 0, w)
    assert not any(k.startswith("union:") for k in rep.keys)
    rep = check_relabel_identities(standard_scheme(), G_PRESETS["identity"], w)
    union = [k for k in rep.keys if k.startswith("union:")]
    # one entry per window node, each holding the window's own key object
    assert len(union) == len(w._keys["union:"]) == w.node_count()
    assert all(k is kept for k, kept in zip(union, w._keys["union:"]))


def _key_size(keys: list[str]) -> int:
    return sum(map(sys.getsizeof, keys)) + sys.getsizeof(keys)


def test_keyed_renders_no_more_than_the_keys_it_keeps():
    # the keys of all 69,905 nodes of d4/b16 and their list take about
    # 4.6 MB; a second list of the deepest level's 65,536 keys would add
    # 0.5 MB, past the margin
    w = Window(4, 16)
    tracemalloc.start()
    try:
        for _ in w.keyed():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = _key_size(w._keys[""])
    assert len(w._keys[""]) == w.node_count()
    assert peak <= 1.1 * size


def test_a_second_walk_renders_no_key():
    w = Window(4, 16)
    for _ in w.keyed():
        pass
    tracemalloc.start()
    try:
        for _ in w.keyed():
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_summary_takes_the_worst_status_of_its_items():
    rep = Report("r")
    rep.add("a:1", VERIFIED)
    rep.add("ab:1", VIOLATED)
    rep.add("b:1", UNRESOLVED)
    rep.add("b:2", VIOLATED)
    rep.add("c:1", UNRESOLVED)
    rep.add("c:2", UNRESOLVED)
    rep.add("e:1", UNRESOLVED)
    rep.add("e:2", BREACH)
    rep.summarize("a", ("a:",), "all of a")
    rep.summarize("b", ("b:",), "all of b")
    rep.summarize("c", ("a:", "c:"), "all of c")
    rep.summarize("d", ("d:",), "nothing to fail")
    rep.summarize("e", ("e:",), "all of e")
    assert records(rep)[-5:] == [
        ("a", VERIFIED, "all of a"),
        ("b", VIOLATED, "1 violated, first b:2"),
        ("c", UNRESOLVED, "2 unresolved, first c:1"),
        ("d", VERIFIED, "nothing to fail"),
        ("e", BREACH, "1 breach, first e:2")]


def test_a_report_passes_without_violations_and_breaches():
    rep = Report("r")
    rep.add("a", VERIFIED)
    rep.add("b", UNRESOLVED)
    assert rep.ok
    rep.add("c", BREACH)
    assert not rep.ok and VIOLATED not in rep.statuses
    assert rep.to_json()["ok"] is False


def test_a_report_entry_costs_no_object_of_its_own():
    # three columns hold about 26 B an entry; a record object per entry
    # held about 65 B
    keys = [f"key {j}" for j in range(20_000)]
    tracemalloc.start()
    try:
        rep = Report("r")
        for key in keys:
            rep.add(key, VERIFIED)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert rep.counts()[VERIFIED] == len(keys)
    assert held / len(keys) < 40


def test_a_report_that_fails_by_a_breach_only_says_breach():
    rep = report_of("r", [("a", VERIFIED, ""), ("b", BREACH, "no preimage"),
                          ("c", UNRESOLVED, "")])
    assert str(rep) == ("r: BREACH (verified 1, violated 0, unresolved 1, "
                        "breach 1)")


def test_a_report_with_a_violation_and_a_breach_says_violated():
    rep = report_of("r", [("a", BREACH, ""), ("b", VIOLATED, "")])
    assert str(rep) == ("r: VIOLATED (verified 0, violated 1, unresolved 0, "
                        "breach 1)")
    assert str(report_of("r", [("a", UNRESOLVED, "")])).startswith("r: ok ")


STATUSES = (VERIFIED, VIOLATED, UNRESOLVED, BREACH)
_KEYS = st.text("ab:", max_size=3)
_RECORDS = st.tuples(_KEYS, st.sampled_from(STATUSES),
                     st.text("xy", max_size=2))
_OPS = st.lists(st.one_of(
    st.tuples(st.just("add"), _RECORDS),
    st.tuples(st.just("extend"), st.lists(_RECORDS, max_size=3)),
    st.tuples(st.just("summarize"), _KEYS,
              st.lists(_KEYS, max_size=2).map(tuple),
              st.text("z", max_size=1)),
), max_size=12)


def _summary(records, key, items, detail):
    """The summary record ``Report.summarize`` is to add, read off a plain
    list of records."""
    matched = [r for r in records if any(r[0].startswith(i) for i in items)]
    for status in (VIOLATED, BREACH, UNRESOLVED):
        failed = [k for k, s, _ in matched if s == status]
        if failed:
            return key, status, f"{len(failed)} {status}, first {failed[0]}"
    return key, VERIFIED, detail


@given(st.text("rs", max_size=2), _OPS)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_report_columns_match_a_list_of_records(name, ops):
    rep, model = Report(name), []
    for op, *args in ops:
        if op == "add":
            rep.add(*args[0])
            model.append(args[0])
        elif op == "extend":
            rep.extend(report_of("other", args[0]))
            model.extend(args[0])
        else:
            rep.summarize(*args)
            model.append(_summary(model, *args))
    assert records(rep) == model
    assert rep.counts() == {s: [r[1] for r in model].count(s)
                            for s in STATUSES}
    assert rep.ok == all(r[1] in (VERIFIED, UNRESOLVED) for r in model)
    assert rep == report_of(name, model)
    assert rep != report_of(name + "x", model)
    assert rep != report_of(name, model + [("", "", "")])
    assert repr(rep) == f"Report({name!r}, {model!r})"
    assert rep.to_json() == {
        "name": name,
        "ok": rep.ok,
        "counts": rep.counts(),
        "entries": [{"key": k, "status": s, "detail": d} for k, s, d in model],
    }


def test_standard_scheme_nodes():
    std = standard_scheme()
    assert std.node(()) == Atom(())
    assert std.node((2, 1)) == cyl(2, 1)


def test_memo_consistency():
    calls = []

    def rule(a):
        calls.append(a)
        return Atom(a)

    sch = Scheme(BAIRE, rule)
    first = sch.node((1, 2))
    assert sch.node((1, 2)) is first
    assert calls == [(1, 2)]


def test_a_re_entering_rule_keeps_the_first_value_stored():
    # on its first call the rule reads its own node, whose inner call
    # stores its value; the outer call then returns a fresh, equal atom
    calls, inner = [], []

    def rule(a):
        calls.append(a)
        if len(calls) == 1:
            inner.append(sch.node(a))
        return Atom(a)

    sch = Scheme(BAIRE, rule)
    outer = sch.node((0,))
    assert calls == [(0,), (0,)]
    assert outer is inner[0]
    assert sch.node((0,)) is inner[0]


def test_standard_partitions_pass_with_unresolved_covers():
    rep = check_partitions(standard_scheme(), Window(3, 4))
    assert rep.ok
    # the union direction is one-sided at any budget on the infinite alphabet
    assert UNRESOLVED in rep.statuses
    assert BREACH not in rep.statuses


def test_covers_detects_escaping_child():
    def rule(a):
        if a == (0,):
            return cyl(5)  # escapes the root? no - root is full; break deeper
        return Atom(a)

    sch = Scheme(BAIRE, rule)
    rep = check_covers(sch, Window(2, 2))
    # child (0,0) of (0,) is S(0,0), not inside S(5)
    assert VIOLATED in rep.statuses


def test_partitions_detect_duplicated_children():
    def rule(a):
        if len(a) == 1:
            return cyl(0) if a[0] in (0, 1) else Atom(a)
        return Atom(a)

    rep = check_partitions(Scheme(BAIRE, rule), Window(1, 2))
    assert any(s == VIOLATED and "overlap" in d
               for _, s, d in records(rep))


def test_covers_flags_child_escaping_root():
    sp = FiniteSpaceModel.sierpinski()
    one = sp.mask_of([1])

    def rule(a):
        if not a:
            return one
        return sp.whole() if a == (0,) else one

    rep = check_covers(Scheme(sp, rule), Window(1, 2))
    root = [s for k, s, _ in records(rep) if k == "root"]
    assert root and root[0] == VIOLATED
    assert any(k == "ε:0" and s == VIOLATED for k, s, _ in records(rep))


def test_covers_verified_on_finite_space():
    sp = FiniteSpaceModel.sierpinski()
    one = sp.mask_of([1])

    def rule(a):
        # children alternate the node itself and the smaller open
        if not a:
            return sp.whole()
        parent = rule(a[:-1])
        return parent if a[-1] == 0 else sp.intersect(parent, one)

    rep = check_covers(Scheme(sp, rule), Window(2, 2))
    assert rep.ok and UNRESOLVED not in rep.statuses


def test_fruit_prefix():
    std = standard_scheme()
    p = BranchRule.constant(1)
    assert equal(fruit_prefix(std, p, 0), FULL)
    assert equal(fruit_prefix(std, p, 2), cyl(1, 1))


def test_fruit_prefix_monotone():
    sch = relabel(standard_scheme(), HALF)
    p = BranchRule.periodic((2, 0, 5))
    values = [fruit_prefix(sch, p, n) for n in range(5)]
    for earlier, later in zip(values, values[1:]):
        assert BAIRE.subset(later, earlier)


def test_fruit_stabilizes_on_finite_space():
    sp = FiniteSpaceModel.sierpinski()
    one = sp.mask_of([1])
    sch = Scheme(sp, lambda a: sp.whole() if len(a) < 2 else one)
    p = BranchRule.constant(0)
    values = [fruit_prefix(sch, p, n) for n in range(2, 6)]
    assert values == [one] * 4


def test_strict_branch_probe():
    std = standard_scheme()
    for n in (0, 1, 3):
        probe = strict_branch_probe(std, BranchRule.constant(2), n)
        assert probe.nonempty and probe.precision == n
    flat = Scheme(BAIRE, lambda a: FULL)
    probe = strict_branch_probe(flat, BranchRule.constant(0), 4)
    assert probe.nonempty and probe.precision == 0
    sp = FiniteSpaceModel.sierpinski()
    with pytest.raises(TypeError):
        strict_branch_probe(Scheme(sp, lambda a: sp.whole()),
                            BranchRule.constant(0), 1)


def test_strict_branch_probe_of_an_empty_fruit():
    # node 0.0 is empty, so the fruit along the constant 0 is empty from
    # depth 2 on
    holey = Scheme(BAIRE, lambda a: EMPTY if a == (0, 0) else Atom(a))
    zeros = BranchRule.constant(0)
    assert strict_branch_probe(holey, zeros, 1) == BranchProbe(True, 1)
    assert strict_branch_probe(holey, zeros, 2) == BranchProbe(False, 0)


def test_pi_net_probe_gives_up_at_its_budget():
    # (4,) is the first candidate inside S(4), at the index seq_at lists it
    std, k = standard_scheme(), [seq_at(n) for n in range(64)].index((4,))
    assert pi_net_probe(std, (), cyl(4), k + 1) == (4,)
    assert pi_net_probe(std, (), cyl(4), k) is None


def test_pi_net_probe_examples():
    std = standard_scheme()
    assert pi_net_probe(std, (), cyl(4), 64) == (4,)
    assert pi_net_probe(std, (1,), cyl(1, 2), 64) == (1, 2)
    with pytest.raises(EmptyTargetError):
        pi_net_probe(std, (0,), cyl(1), 8)
    moved = relabel(std, HALF)
    hit = pi_net_probe(moved, (), cyl(1), 64)
    assert hit == (2,)  # the first index relabeling onto 1
    assert equal(moved.node(hit), cyl(1))


def test_relabel_examples():
    std = standard_scheme()
    same = relabel(std, G_PRESETS["identity"])
    for a in Window(2, 3).nodes():
        assert equal(same.node(a), std.node(a))
    const = relabel(std, lambda n: 0)
    assert equal(const.node((5,)), cyl(0))
    moved = relabel(std, HALF)
    assert equal(moved.node((2, 3)), cyl(1, 1))


def test_relabel_fruit_consistency():
    std = standard_scheme()
    moved = relabel(std, HALF)
    q = BranchRule.periodic((4, 1))
    gq = BranchRule(tuple(map(HALF, q.stem)), tuple(map(HALF, q.word)))
    for n in range(4):
        assert equal(fruit_prefix(moved, q, n), fruit_prefix(std, gq, n))


def test_relabel_identities_reports():
    std = standard_scheme()
    rep = check_relabel_identities(std, G_PRESETS["identity"],
                                   Window(2, 3))
    assert rep.ok and BREACH not in rep.statuses
    rep = check_relabel_identities(std, HALF, Window(2, 6))
    assert rep.ok and BREACH not in rep.statuses
    # a map that never reaches 1 below any bound on the window values
    rep = check_relabel_identities(std, lambda n: 0, Window(1, 2))
    assert BREACH in rep.statuses


def test_dense_probe_duplicated_fibers():
    moved = relabel(standard_scheme(), HALF)
    rep = dense_in_itself_probe(moved, BranchRule.constant(0), Window(2, 6))
    assert set(rep.statuses) == {VERIFIED}


def test_dense_probe_fails_on_partition():
    rep = dense_in_itself_probe(standard_scheme(), BranchRule.constant(0),
                                Window(2, 4))
    assert set(rep.statuses) == {UNRESOLVED}
    assert rep.ok  # budget misses are honest, not hard violations


def test_dense_probe_point_out_of_flesh():
    sch = Scheme(BAIRE, lambda a: EMPTY if len(a) else cyl(9))
    rep = dense_in_itself_probe(sch, BranchRule.constant(0), Window(1, 2))
    assert BREACH in rep.statuses


def test_branch_nodes():
    std = standard_scheme()
    p = BranchRule.constant(1)
    got = branch_nodes(std, p, Window(2, 3))
    assert got == [(), (1,), (1, 1)]
    sch = Scheme(BAIRE, lambda a: EMPTY if len(a) == 0 else Atom(a))
    assert branch_nodes(sch, p, Window(0, 2)) == []
    moved = relabel(std, HALF)
    got = branch_nodes(moved, BranchRule.constant(0), Window(1, 4))
    assert got == [(), (0,), (1,)]  # both fibers of 0 branch the tree


def test_dump_scheme():
    dump = dump_scheme(standard_scheme(), Window(1, 2))
    assert dump["space"] == "baire"
    assert dump["nodes"]["ε"] == "S()"
    assert dump["nodes"]["1"] == "S(1)"
    sp = FiniteSpaceModel.sierpinski()
    dump = dump_scheme(Scheme(sp, lambda a: sp.whole()), Window(1, 1))
    assert dump["nodes"]["0"] == [0, 1]
