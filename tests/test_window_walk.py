"""The one-pass window walk of ``check_covers`` and ``check_partitions``
against the two-pass checks it replaced, and its transient leaf level."""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bairekit.cylinder as cylinder
from conftest import exprs
from bairekit.cylinder import Atom, FULL, cyl
from bairekit.grammar import expr_to_text
from bairekit.lusin import base_from_lines, build_lusin, standard_base
from bairekit.scheme import (Report, Scheme, UNRESOLVED, VERIFIED, VIOLATED,
                             Window, check_covers, check_partitions,
                             dense_in_itself_probe, relabel, standard_scheme)
from bairekit.seq import BranchRule, seq_to_text
from bairekit.spaces import BAIRE, FiniteSpaceModel, all_topologies
from bairekit.suites import G_PRESETS

WINDOWS = [Window(d, b) for d, b in product(range(4), range(1, 5))]


# -- the two-pass checks as they were before the one-pass walk -----------------
# Copied word for word, except that the overlap pairs come from pairwise
# intersections instead of the removed ``SpaceModel.overlapping_pairs``.

def overlapping_pairs(space, children):
    return [(n, m) for n in range(len(children))
            for m in range(n + 1, len(children))
            if not space.is_empty(space.intersect(children[n], children[m]))]


def old_check_covers(scheme: Scheme, window: Window) -> Report:
    rep = Report("covers")
    space = scheme.space
    root = scheme.node(())
    if space.equal(root, space.whole()):
        rep.add("root", VERIFIED, "root equals the whole space")
    else:
        rep.add("root", VIOLATED, "root differs from the whole space")
    for a in window.nodes():
        va = scheme.node(a)
        key = seq_to_text(a)
        children = scheme.children(a, window.breadth)
        escaped = space.uncovered(children, [va])
        for n in escaped:
            rep.add(f"{key}:{n}", VIOLATED, "child escapes its node")
        if escaped:
            continue
        if not space.uncovered([va], children):
            rep.add(key, VERIFIED)
        else:
            rep.add(key, UNRESOLVED, "node not covered by budgeted children")
    return rep


def old_check_partitions(scheme: Scheme, window: Window) -> Report:
    rep = old_check_covers(scheme, window)
    rep.name = "partitions"
    space = scheme.space
    for a in window.nodes():
        key = seq_to_text(a)
        children = scheme.children(a, window.breadth)
        for n, m in overlapping_pairs(space, children):
            rep.add(f"{key}:{n}^{m}", VIOLATED, "children overlap")
    return rep


def assert_same_reports(make, window):
    """Both checks agree entry by entry with the two-pass checks, each on a
    scheme of its own."""
    for new, old in ((check_covers, old_check_covers),
                     (check_partitions, old_check_partitions)):
        got, want = new(make(), window), old(make(), window)
        assert got.name == want.name
        assert [(e.key, e.status, e.detail) for e in got.entries] == \
            [(e.key, e.status, e.detail) for e in want.entries]


def foreign_rule(a):
    """A Baire scheme whose children overlap (0 holds 1), escape (2 lies
    outside every node but the root) and cover only in part."""
    if not a:
        return FULL
    *stem, n = a
    stem = tuple(stem)
    if n == 0:
        return Atom(stem + (0,)) | Atom(stem + (1,))
    if n == 2:
        return Atom((9,) + a)
    return Atom(a)


SCHEMES = {
    "standard": standard_scheme,
    "lusin": lambda: build_lusin(standard_base()),
    "foreign": lambda: Scheme(BAIRE, foreign_rule),
    "lusin^half": lambda: relabel(build_lusin(standard_base()),
                                  G_PRESETS["half"]),
    "standard^swap": lambda: relabel(standard_scheme(), G_PRESETS["swap"]),
}


@pytest.mark.parametrize("window", WINDOWS, ids=str)
@pytest.mark.parametrize("name", SCHEMES)
def test_walk_matches_the_two_pass_checks(name, window):
    assert_same_reports(SCHEMES[name], window)


def test_foreign_scheme_reports_escapes_and_overlaps():
    rep = check_partitions(Scheme(BAIRE, foreign_rule), Window(1, 3))
    statuses = {e.key: e.status for e in rep.entries}
    assert statuses["0:2"] == VIOLATED and statuses["0:0^1"] == VIOLATED
    assert statuses["ε"] == UNRESOLVED and statuses["ε:0^1"] == VIOLATED


@given(st.lists(exprs, min_size=1, max_size=3),
       st.sampled_from(WINDOWS))
@settings(max_examples=40, deadline=None)
def test_walk_matches_on_file_bases(targets, window):
    text = "\n".join(expr_to_text(e) for e in targets)
    assert_same_reports(lambda: build_lusin(base_from_lines(text)), window)


@given(st.lists(exprs, min_size=1, max_size=4), st.sampled_from(WINDOWS))
@settings(max_examples=60, deadline=None)
def test_walk_matches_on_drawn_baire_schemes(table, window):
    # a node's value is drawn by its length and last index, so nodes share
    # objects, escape their parents and overlap their siblings
    def make():
        return Scheme(BAIRE, lambda a: table[(len(a) + sum(a[-1:]))
                                             % len(table)])

    assert_same_reports(make, window)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_walk_matches_on_finite_schemes(n):
    for i, masks in enumerate(all_topologies(n)):
        space = FiniteSpaceModel(range(n), masks)

        def make(masks=masks, space=space, i=i):
            return Scheme(space, lambda a: masks[(hash(a) + i) % len(masks)])

        assert_same_reports(make, Window(2, 3))
        assert_same_reports(lambda: relabel(make(), G_PRESETS["half"]),
                            Window(2, 2))


# -- the transient leaf level --------------------------------------------------

def test_node_without_store_keeps_nothing_new():
    calls = []
    scheme = Scheme(BAIRE, lambda a: calls.append(a) or Atom(a))
    first = scheme.node((1,), store=False)
    assert first == cyl(1) and (1,) not in scheme._memo
    stored = scheme.node((1,))
    assert stored is not first and scheme.node((1,), store=False) is stored
    assert calls == [(1,), (1,)]


class RecordingSpace:
    """The Baire model, remembering every child family it decides."""

    def __init__(self):
        self.families = []

    def __getattr__(self, name):
        return getattr(BAIRE, name)

    def family(self, node, children, pairs):
        self.families.append(children)
        return BAIRE.family(node, children, pairs)


@pytest.mark.parametrize("window", [Window(0, 3), Window(2, 4)], ids=str)
@pytest.mark.parametrize("check", [check_covers, check_partitions])
@pytest.mark.parametrize("name", SCHEMES)
def test_walk_stores_no_node_below_the_window(name, check, window):
    scheme = SCHEMES[name]()
    check(scheme, window)
    # a relabeled scheme keeps no memo; its base's memo is the one to read
    base = getattr(scheme, "base", scheme)
    assert max(map(len, base._memo)) == window.depth


@pytest.mark.parametrize("check", [check_covers, check_partitions])
def test_relabeled_walk_stores_no_base_node_below_the_window(check):
    base = build_lusin(standard_base())
    window = Window(3, 4)
    # under ``half`` siblings repeat, so the partition check fails; either
    # check leaves the base's deepest stored nodes at the window depth
    check(relabel(base, G_PRESETS["half"]), window)
    assert max(map(len, base._memo)) == window.depth


def test_dense_probe_stores_no_base_node_below_the_window():
    base = standard_scheme()
    window = Window(2, 6)
    rep = dense_in_itself_probe(relabel(base, G_PRESETS["half"]),
                                BranchRule.constant(0), window)
    assert rep.ok and {e.status for e in rep.entries} == {VERIFIED}
    assert max(map(len, base._memo)) == window.depth


@pytest.mark.parametrize("check", [check_covers, check_partitions])
def test_walk_reads_a_memoized_leaf_and_stores_no_other(check):
    space = RecordingSpace()
    scheme = Scheme(space, standard_scheme().rule)
    leaf = scheme.node((0, 1, 2))
    window = Window(2, 3)
    assert check(scheme, window).ok
    assert scheme._memo[(0, 1, 2)] is leaf
    assert {a for a in scheme._memo if len(a) > window.depth} == {(0, 1, 2)}
    # the family of node (0, 1) comes after the three nodes above it
    assert space.families[1 + 3 + 1][2] is leaf


def count_normal_forms(monkeypatch) -> list[int]:
    """A one-item list that counts every ``normal_form`` call from now on."""
    calls = [0]
    real = cylinder.normal_form

    def counted(e):
        calls[0] += 1
        return real(e)

    monkeypatch.setattr(cylinder, "normal_form", counted)
    return calls


def test_partition_walk_normal_form_count(monkeypatch):
    # every normal form of synthesis and the one walk: the node's and each
    # child's form once per window node whose node or some child is not an
    # atom; an all-atom family and an atom's antichain take no form
    calls = count_normal_forms(monkeypatch)
    assert check_partitions(build_lusin(standard_base()), Window(3, 4)).ok
    assert calls == [613]


def test_standard_partition_walk_takes_only_the_root_forms(monkeypatch):
    # every family of the standard scheme is all atoms; the two forms are
    # the root's ``equal`` against the whole space
    calls = count_normal_forms(monkeypatch)
    assert check_partitions(standard_scheme(), Window(3, 4)).ok
    assert calls == [2]


def test_walk_reads_each_family_once():
    space = RecordingSpace()
    scheme = Scheme(space, standard_scheme().rule)
    check_partitions(scheme, Window(2, 2))
    assert len(space.families) == Window(2, 2).node_count()
