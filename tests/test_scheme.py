import pytest

from bairekit.cylinder import Atom, EMPTY, FULL, cyl, equal
from bairekit.scheme import (BREACH, Report, Scheme, UNRESOLVED, VERIFIED,
                             VIOLATED, Window, branch_nodes, check_covers,
                             check_partitions, check_relabel_identities,
                             dense_in_itself_probe, dump_scheme, fruit_prefix,
                             pi_net_probe, relabel, standard_scheme,
                             strict_branch_probe, EmptyTargetError)
from bairekit.seq import BranchRule
from bairekit.spaces import BAIRE, FiniteSpaceModel

HALF = lambda n: n // 2


def test_window_nodes():
    w = Window(2, 2)
    assert list(w.nodes()) == [(), (0,), (1,), (0, 0), (0, 1), (1, 0), (1, 1)]
    assert w.node_count() == 7
    with pytest.raises(ValueError):
        Window(-1, 2)
    with pytest.raises(ValueError):
        Window(2, 0)


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
    assert [(e.key, e.status, e.detail) for e in rep.entries[-5:]] == [
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
    assert not rep.ok and not rep.violations
    assert rep.to_json()["ok"] is False


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


def test_standard_partitions_pass_with_unresolved_covers():
    rep = check_partitions(standard_scheme(), Window(3, 4))
    assert rep.ok
    # the union direction is one-sided at any budget on the infinite alphabet
    assert rep.with_status(UNRESOLVED)
    assert not rep.with_status(BREACH)


def test_covers_detects_escaping_child():
    def rule(a):
        if a == (0,):
            return cyl(5)  # escapes the root? no - root is full; break deeper
        return Atom(a)

    sch = Scheme(BAIRE, rule)
    rep = check_covers(sch, Window(2, 2))
    # child (0,0) of (0,) is S(0,0), not inside S(5)
    assert any(e.status == VIOLATED for e in rep.entries)


def test_partitions_detect_duplicated_children():
    def rule(a):
        if len(a) == 1:
            return cyl(0) if a[0] in (0, 1) else Atom(a)
        return Atom(a)

    rep = check_partitions(Scheme(BAIRE, rule), Window(1, 2))
    assert any(e.status == VIOLATED and "overlap" in e.detail
               for e in rep.entries)


def test_covers_flags_child_escaping_root():
    sp = FiniteSpaceModel.sierpinski()
    one = sp.mask_of([1])

    def rule(a):
        if not a:
            return one
        return sp.whole() if a == (0,) else one

    rep = check_covers(Scheme(sp, rule), Window(1, 2))
    root = [e for e in rep.entries if e.key == "root"]
    assert root and root[0].status == VIOLATED
    assert any(e.key == "ε:0" and e.status == VIOLATED
               for e in rep.entries)


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
    assert rep.ok and not rep.with_status(UNRESOLVED)


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
    same = relabel(std, lambda n: n)
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
    gq = BranchRule(lambda n: HALF(q(n)))
    for n in range(4):
        assert equal(fruit_prefix(moved, q, n), fruit_prefix(std, gq, n))


def test_relabel_identities_reports():
    std = standard_scheme()
    rep = check_relabel_identities(std, lambda n: n, Window(2, 3))
    assert rep.ok and not rep.breaches
    rep = check_relabel_identities(std, HALF, Window(2, 6))
    assert rep.ok and not rep.breaches
    # a map that never reaches 1 below any bound on the window values
    rep = check_relabel_identities(std, lambda n: 0, Window(1, 2))
    assert rep.breaches


def test_dense_probe_duplicated_fibers():
    moved = relabel(standard_scheme(), HALF)
    rep = dense_in_itself_probe(moved, BranchRule.constant(0), Window(2, 6))
    assert rep.entries and all(e.status == VERIFIED for e in rep.entries)


def test_dense_probe_fails_on_partition():
    rep = dense_in_itself_probe(standard_scheme(), BranchRule.constant(0),
                                Window(2, 4))
    assert rep.entries and all(e.status == UNRESOLVED for e in rep.entries)
    assert rep.ok  # budget misses are honest, not hard violations


def test_dense_probe_point_out_of_flesh():
    sch = Scheme(BAIRE, lambda a: EMPTY if len(a) else cyl(9))
    rep = dense_in_itself_probe(sch, BranchRule.constant(0), Window(1, 2))
    assert rep.breaches


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
