from itertools import product
from os.path import commonprefix

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import bairekit.cylinder as cylinder
from conftest import exprs, seqs
from bairekit.cylinder import (Antichain, Atom, Diff, EMPTY, EmptySetError,
                               Extensions, FULL, Family, Inter, NdTree, Union,
                               WindowError, contains_branch, cyl,
                               enclosing_stem, equal, family, fresh_value,
                               intersects, is_empty, mentions,
                               minimal_antichain, nd_witness, normal_form,
                               strict_witness, subset,
                               trace_window, uncovered, witness_cylinder)
from bairekit.seq import BranchRule, is_prefix, unpair


def oracle_nonempty(e, depth=3, breadth=3):
    return bool(trace_window(e, depth, breadth))


def oracle_subset(e1, e2, depth=3, breadth=3):
    return trace_window(e1, depth, breadth) <= trace_window(e2, depth, breadth)


# -- emptiness and inclusion ---------------------------------------------------

def test_is_empty_examples():
    assert is_empty(cyl(0) & cyl(1))
    assert not is_empty(FULL - cyl(0))
    # window oracle at d=1, b=2: the only surviving word is (1,)
    e = (cyl(0) | cyl(1)) - cyl(0)
    assert trace_window(e, 1, 2) == {(1,)}
    assert not is_empty(e)


def test_subset_examples():
    assert subset(cyl(0, 1), cyl(0))
    # oracle at d=2, b=1: word (0,0) is in the left side only
    lhs, rhs = cyl(0), cyl(0) - cyl(0, 0)
    assert (0, 0) in trace_window(lhs, 2, 1) - trace_window(rhs, 2, 1)
    assert not subset(lhs, rhs)
    assert subset(EMPTY, cyl(5))


def test_contains_branch_examples():
    assert contains_branch(cyl(0, 0), BranchRule.constant(0))
    assert not contains_branch(FULL - cyl(0), BranchRule.constant(0))
    assert contains_branch(cyl(1) | cyl(2), BranchRule.constant(2))


# -- witnesses -----------------------------------------------------------------

def test_witness_examples():
    assert witness_cylinder(EMPTY) is None
    assert witness_cylinder(FULL - cyl(0)) == (1,)
    assert witness_cylinder(cyl(2)) == (2, 0)


def test_witness_keeps_cancelled_mentions():
    # S(0,0) cancels out of the normal form {(0,)}, yet the fresh value
    # at position 1 still avoids its 0
    assert normal_form(cyl(0) | cyl(0, 0)) == {(0,)}
    assert witness_cylinder(cyl(0) | cyl(0, 0)) == (0, 1)


def test_strict_witness_examples():
    assert strict_witness(EMPTY) is None
    # any proper cylinder is valid; the canonical pick extends the witness
    c = strict_witness(FULL)
    assert subset(Atom(c), FULL) and not equal(Atom(c), FULL)
    e = cyl(0) - cyl(0, 0)
    c = strict_witness(e)
    assert subset(Atom(c), e) and not equal(Atom(c), e)


@given(exprs)
@settings(max_examples=300)
def test_witness_soundness(e):
    w = witness_cylinder(e)
    if w is None:
        assert is_empty(e)
        assert not oracle_nonempty(e)
    else:
        assert subset(Atom(w), e)


@given(exprs)
@settings(max_examples=200)
def test_strict_witness_strictness(e):
    c = strict_witness(e)
    if c is not None:
        assert subset(Atom(c), e)
        assert not equal(Atom(c), e)


# -- oracle equivalence (the acceptance suite runs the larger version) ---------

@given(exprs)
@settings(max_examples=300)
def test_emptiness_matches_window_oracle(e):
    assert is_empty(e) == (not oracle_nonempty(e))


@given(exprs, exprs)
@settings(max_examples=300)
def test_subset_matches_window_oracle(e1, e2):
    assert subset(e1, e2) == oracle_subset(e1, e2)


@given(exprs)
@settings(max_examples=100)
def test_membership_matches_window_oracle(e):
    window = trace_window(e, 3, 3)
    for w in product(range(4), repeat=3):
        assert contains_branch(e, BranchRule.periodic(w)) == (w in window)


@given(exprs, exprs)
@settings(max_examples=300)
def test_equality_matches_window_oracle(e1, e2):
    assert equal(e1, e2) == (trace_window(e1, 3, 3) == trace_window(e2, 3, 3))
    assert equal(e1, (e1 - e2) | (e1 & e2))


def test_normal_form_examples():
    assert normal_form(FULL) == {()}
    assert normal_form(EMPTY) == frozenset()
    assert normal_form(cyl(0) | cyl(1)) == {(0,), (1,)}
    assert normal_form(cyl(0) | cyl(0, 1)) == {(0,)}
    assert normal_form(FULL - cyl(0, 2)) == {(), (0, 2)}
    assert normal_form(cyl(0) & (cyl(0, 1) | cyl(1))) == {(0, 1)}


@given(exprs)
@settings(max_examples=150)
def test_enclosing_stem_is_the_common_prefix_of_the_window(e):
    window = trace_window(e, 3, 3)
    stem = enclosing_stem(e)
    if not window:
        assert stem is None
        return
    assert stem == commonprefix(sorted(window))
    assert subset(e, Atom(stem))


# -- boolean laws --------------------------------------------------------------

@given(exprs, exprs)
@settings(max_examples=150)
def test_de_morgan(a, b):
    assert equal(FULL - (a | b), (FULL - a) & (FULL - b))
    assert equal(FULL - (a & b), (FULL - a) | (FULL - b))


@given(exprs, exprs)
@settings(max_examples=150)
def test_absorption(a, b):
    assert equal(a & (a | b), a)
    assert equal(a | (a & b), a)


# -- minimal antichains --------------------------------------------------------

def test_antichain_examples():
    assert minimal_antichain(FULL).concrete == ((),)
    assert minimal_antichain(cyl(3)).concrete == ((3,),)
    chain = minimal_antichain(FULL - cyl(0, 2))
    assert chain.concrete == ()
    assert [(f.stem, set(f.excluded)) for f in chain.families] == \
        [((), {0}), ((0,), {2})]


def test_antichain_family_keeps_cancelled_mentions():
    # S(0,2) cancels out of the normal form but still excludes 2 from the family
    chain = minimal_antichain(cyl(0) - cyl(0, 1) | (cyl(0, 2) - cyl(0, 2)))
    assert chain.concrete == ((0, 2),)
    assert [(f.stem, f.excluded) for f in chain.families] == [((0,), {1, 2})]


def test_antichain_requires_nonempty():
    with pytest.raises(EmptySetError):
        minimal_antichain(cyl(0) & cyl(1))


@given(exprs)
@settings(max_examples=150)
def test_antichain_members_minimal_and_incomparable(e):
    if is_empty(e):
        return
    chain = minimal_antichain(e)
    members = [chain.member(i) for i in range(12)] if chain.is_infinite \
        else list(chain.concrete)
    for c in members:
        assert subset(Atom(c), e)
        if c:
            assert not subset(Atom(c[:-1]), e)
    for i, c in enumerate(members):
        for d in members[i + 1:]:
            assert not is_prefix(c, d) and not is_prefix(d, c)
    covered = None
    for c in members:
        covered = Atom(c) if covered is None else Union(covered, Atom(c))
        assert subset(covered, e)


@given(exprs)
@settings(max_examples=60)
def test_antichain_denotes_exactly_the_minimal_cylinders(e):
    # biconditional against brute-force window minimality
    if is_empty(e):
        return
    chain = minimal_antichain(e)
    candidates = [()] + [c for ln in range(1, 4)
                         for c in product(range(4), repeat=ln)]

    traces = {}   # e traced once per window

    def inside(c):
        window = max(3, len(c)), max(3, max(c, default=0) + 1)
        if window not in traces:
            traces[window] = trace_window(e, *window)
        return trace_window(Atom(c), *window) <= traces[window]

    for c in candidates:
        minimal = inside(c) and not (c and inside(c[:-1]))
        assert chain.denotes(c) == minimal, c


@given(exprs)
@settings(max_examples=100)
def test_antichain_fair_enumeration(e):
    # every denoted member the families describe shows up at a finite index
    if is_empty(e):
        return
    chain = minimal_antichain(e)
    if not chain.is_infinite:
        return
    probe = [chain.member(i) for i in range(40)]
    for fam in chain.families:
        v = 0
        while v in fam.excluded:
            v += 1
        assert fam.stem + (v,) in probe or len(probe) < 40
        assert chain.denotes(fam.stem + (v,))


def root_descent_antichain(e):
    """The antichain descent from the root, as it was before it started at
    the enclosing stem; the reference for the stem start."""
    if is_empty(e):
        raise EmptySetError("no antichain for the empty set")
    ms = mentions(e)
    concrete = []
    families = []

    def descend(c):
        here = Atom(c)
        if subset(here, e):
            concrete.append(c)
            return
        if not intersects(here, e):
            return
        pos = len(c)
        explicit = sorted({m[pos] for m in ms if len(m) > pos and m[:pos] == c})
        if subset(Atom(c + (fresh_value(ms, pos),)), e):
            families.append(Family(c, frozenset(explicit)))
        for v in explicit:
            descend(c + (v,))

    descend(())
    return Antichain(tuple(concrete), tuple(families))


def under(stem, e):
    """``e`` moved inside ``S(stem)``: every atom gets ``stem`` in front."""
    if isinstance(e, Atom):
        return Atom(stem + e.entries)
    if e is FULL:
        return Atom(stem)
    if e is EMPTY:
        return e
    return type(e)(under(stem, e.left), under(stem, e.right))


stemmed_exprs = st.builds(under, seqs, exprs)


@given(st.one_of(exprs, stemmed_exprs))
@settings(max_examples=400)
def test_antichain_matches_the_root_descent(e):
    if is_empty(e):
        with pytest.raises(EmptySetError):
            minimal_antichain(e)
        return
    assert minimal_antichain(e) == root_descent_antichain(e)


@given(st.lists(st.integers(0, 5), max_size=8).map(tuple))
@example(())
@settings(derandomize=True, database=None, max_examples=200, deadline=None)
def test_atom_antichain_matches_the_descent(stem):
    # ``Inter(x, FULL)`` is the same set as a non-atom, so it takes the descent
    chain = minimal_antichain(Atom(stem))
    assert chain == minimal_antichain(Inter(Atom(stem), FULL))
    assert chain == Antichain((stem,), ())


def test_antichain_of_a_long_cylinder_is_no_call(monkeypatch):
    """An atom is its own antichain: no subset and no intersects call."""
    calls = {"subset": 0, "intersects": 0}
    for name in calls:
        real = getattr(cylinder, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(cylinder, name, counted)
    chain = minimal_antichain(cyl(0, 1, 2, 3, 4, 5))
    assert chain == Antichain(((0, 1, 2, 3, 4, 5),), ())
    assert calls == {"subset": 0, "intersects": 0}


# -- child families -------------------------------------------------------------

def brute_overlapping_pairs(children):
    return [(n, m) for n in range(len(children))
            for m in range(n + 1, len(children))
            if not is_empty(Inter(children[n], children[m]))]


def folded_family(node, children, pairs):
    union = EMPTY
    for c in children:
        union = Union(union, c)
    return ([n for n, c in enumerate(children) if not subset(c, node)],
            subset(node, union),
            brute_overlapping_pairs(children) if pairs else [])


def overlapping_pairs(children):
    return family(FULL, children, True)[2]


def test_family_overlap_examples():
    assert overlapping_pairs([]) == []
    assert overlapping_pairs([cyl(0), cyl(1), FULL - cyl(0)]) == [(1, 2)]
    # comparable stems that overlap
    assert overlapping_pairs([cyl(0), cyl(0, 1), cyl(0, 1, 2)]) == \
        [(0, 1), (0, 2), (1, 2)]
    # comparable stems that do not: S(0) minus S(0,1) beside S(0,1)
    assert overlapping_pairs([cyl(0) - cyl(0, 1), cyl(0, 1)]) == []
    # a member shared by two forms whose meet still cancels
    assert overlapping_pairs([cyl(0) | cyl(1), cyl(1) - cyl(1, 0),
                              cyl(1, 0)]) == [(0, 1), (0, 2)]


def test_family_examples():
    assert family(cyl(0), [], True) == ([], False, [])
    assert family(EMPTY, [], False) == ([], True, [])
    # a disjoint family that covers its node: the XOR of the child forms
    assert family(cyl(0), [cyl(0) - cyl(0, 0), cyl(0, 0)], True) == \
        ([], True, [])
    assert family(cyl(0), [cyl(0, 1), cyl(1), cyl(0)], False) == \
        ([1], True, [])
    assert family(FULL, [cyl(0), cyl(1)], True) == ([], False, [])


def test_family_folds_the_union_of_meeting_children():
    # the XOR of two copies of S(0) is empty, their union is S(0)
    assert family(cyl(0), [cyl(0), cyl(0)], True) == ([], True, [(0, 1)])
    assert family(cyl(0), [cyl(0), cyl(0)], False) == ([], True, [])
    assert family(cyl(0), [cyl(0), cyl(0, 1), cyl(0) - cyl(0, 1)], True) \
        == ([], True, [(0, 1), (0, 2)])


@given(st.one_of(exprs, stemmed_exprs),
       st.lists(st.one_of(exprs, stemmed_exprs), max_size=6), st.booleans())
@settings(max_examples=300)
def test_family_matches_pairwise_meets(node, children, pairs):
    assert family(node, children, pairs) == \
        folded_family(node, children, pairs)


def oracle_family(node, children, pairs):
    """``family`` read off the traces of the window d=3, b=3."""
    top = trace_window(node, 3, 3)
    traces = [trace_window(c, 3, 3) for c in children]
    met = [(n, m) for n in range(len(traces))
           for m in range(n + 1, len(traces)) if traces[n] & traces[m]]
    return ([n for n, t in enumerate(traces) if not t <= top],
            top <= frozenset().union(*traces),
            met if pairs else [])


@given(exprs, st.lists(exprs, max_size=5), st.booleans())
@settings(max_examples=150)
def test_family_matches_the_window_oracle(node, children, pairs):
    assert family(node, children, pairs) == oracle_family(node, children, pairs)


# a stem cut to a drawn length: the empty stem, duplicates and nested
# prefixes are all frequent
cut_stems = st.builds(lambda s, k: s[:k], seqs, st.integers(0, 3))


@given(cut_stems, st.lists(cut_stems, max_size=8))
@example((0,), [(0, 1), (), (0, 1), (0,), (0, 1, 2), (1,)])
@example((), [(2,), (0, 0), (1, 2, 0)])
# one length and distinct, all longer than the node: the fast paths
@example((0,), [(0, 2), (1, 0), (0, 0)])
@example((), [(1,), (0,), (2,)])
@settings(derandomize=True, database=None, max_examples=400, deadline=None)
def test_all_atom_family_matches_the_form_path_and_the_oracle(stem, stems):
    node, children = Atom(stem), [Atom(s) for s in stems]
    # the same sets as non-atoms, which take the form path
    as_forms = (Inter(node, FULL), [Inter(c, FULL) for c in children])
    for pairs in (True, False):
        got = family(node, children, pairs)
        assert got == family(*as_forms, pairs)
        assert got == oracle_family(node, children, pairs)


@st.composite
def extension_families(draw):
    """A node stem, and a stem with tails whose extensions fit the
    oracle's window: the node often a prefix of the stem, tails often
    empty, repeated, nested or of mixed lengths."""
    stem = draw(cut_stems)
    tails = draw(st.lists(st.builds(lambda s, k: s[:k], seqs,
                                    st.integers(0, 3 - len(stem))),
                          max_size=6))
    top = draw(st.one_of(st.integers(0, len(stem)).map(lambda j: stem[:j]),
                         cut_stems))
    return top, stem, tails


@given(extension_families())
@example(((0, 1), (0,), [(1,), (2,)]))          # node longer than the stem
@example(((1,), (0, 1), [(0,), ()]))            # node not a prefix of it
@example(((0,), (0,), [(1,), (), (1,)]))        # stem is the node's, empty tail
@example(((), (2,), [(0,), (0, 1), (1, 2), (0,)]))  # nested, mixed, repeated
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_extensions_family_matches_the_list_and_the_oracle(case):
    top, stem, tails = case
    ext = Extensions(stem, tails)
    atoms = [Atom(stem + t) for t in tails]
    assert len(ext) == len(atoms)
    assert [ext[n] for n in range(len(ext))] == atoms and ext[1:] == atoms[1:]
    for node in (Atom(top), Inter(Atom(top), FULL)):
        for pairs in (True, False):
            got = family(node, ext, pairs)
            assert got == family(node, atoms, pairs)
            assert got == oracle_family(node, atoms, pairs)


# -- opens outside a union ----------------------------------------------------

def folded_uncovered(opens, cover):
    union = EMPTY
    for c in cover:
        union = Union(union, c)
    return [n for n, o in enumerate(opens) if not subset(o, union)]


def test_uncovered_examples():
    assert uncovered([], [cyl(0)]) == []
    assert uncovered([cyl(0), EMPTY], []) == [0]
    assert uncovered([cyl(0, 1), cyl(1), cyl(0)], [cyl(0)]) == [1]
    # S(0) is covered by S(0) minus S(0,0) together with S(0,0)
    assert uncovered([cyl(0)], [cyl(0) - cyl(0, 0), cyl(0, 0)]) == []
    # a cover that cancels a shared member still covers both halves
    assert uncovered([cyl(0), cyl(1)], [cyl(0) | cyl(1), cyl(1)]) == []


def test_uncovered_takes_no_form_for_members_of_the_cover(monkeypatch):
    calls = 0
    real = cylinder.normal_form

    def counted(e):
        nonlocal calls
        calls += 1
        return real(e)

    monkeypatch.setattr(cylinder, "normal_form", counted)
    cover = [cyl(0), cyl(1) - cyl(1, 2)]
    assert uncovered([cover[1], cover[0]], cover) == []
    assert calls == 0


@st.composite
def opens_and_cover(draw):
    """Opens and a cover that shares objects with them, holds copies equal
    to them but distinct (``Union(x, EMPTY)``), and other expressions."""
    opens = draw(st.lists(st.one_of(exprs, stemmed_exprs), max_size=5))
    cover = draw(st.lists(st.one_of(exprs, stemmed_exprs), max_size=4))
    for o in opens:
        pick = draw(st.sampled_from(("skip", "same", "copy")))
        if pick == "same":
            cover.append(o)
        elif pick == "copy":
            cover.append(Union(o, EMPTY))
    return opens, draw(st.permutations(cover))


@given(opens_and_cover())
@settings(max_examples=200)
def test_uncovered_matches_subset_of_the_folded_union(case):
    opens, cover = case
    assert uncovered(opens, cover) == folded_uncovered(opens, cover)


@given(st.lists(exprs, max_size=4), st.lists(exprs, max_size=4))
@settings(max_examples=150)
def test_uncovered_matches_the_window_oracle(opens, cover):
    union = frozenset().union(*(trace_window(c, 3, 3) for c in cover))
    assert uncovered(opens, cover) == [
        n for n, o in enumerate(opens) if not trace_window(o, 3, 3) <= union]


# -- windows -------------------------------------------------------------------

def test_trace_window_examples():
    assert trace_window(cyl(1), 2, 3) == {(1, 0), (1, 1), (1, 2), (1, 3)}
    assert trace_window(EMPTY, 2, 2) == frozenset()
    assert trace_window(FULL - cyl(0), 1, 1) == {(1,)}


def _word_satisfies(e, w):
    """Whether every extension of the word ``w`` lies in ``e``, decided
    word by word: the reference for ``trace_window``'s set algebra."""
    match e:
        case Atom(a):
            return w[: len(a)] == a
        case Union(l, r):
            return _word_satisfies(l, w) or _word_satisfies(r, w)
        case Inter(l, r):
            return _word_satisfies(l, w) and _word_satisfies(r, w)
        case Diff(l, r):
            return _word_satisfies(l, w) and not _word_satisfies(r, w)
    return e is FULL


@st.composite
def windowed_exprs(draw):
    """A window up to d4/b4 and an expression whose mentions fit it."""
    depth, breadth = draw(st.integers(0, 4)), draw(st.integers(1, 4))
    stems = st.lists(st.integers(0, breadth - 1), max_size=depth).map(tuple)
    e = draw(st.recursive(
        st.one_of(stems.map(Atom), st.just(EMPTY), st.just(FULL)),
        lambda sub: st.one_of(st.builds(Union, sub, sub),
                              st.builds(Inter, sub, sub),
                              st.builds(Diff, sub, sub),
                              st.builds(Diff, sub, st.builds(Diff, sub, sub))),
        max_leaves=8))
    return e, depth, breadth


@given(windowed_exprs())
@settings(max_examples=300)
def test_trace_window_matches_the_per_word_evaluator(case):
    e, depth, breadth = case
    words = product(range(breadth + 1), repeat=depth)
    assert trace_window(e, depth, breadth) == frozenset(
        w for w in words if _word_satisfies(e, w))


def test_trace_window_guard():
    with pytest.raises(WindowError):
        trace_window(cyl(5), 2, 3)
    with pytest.raises(WindowError):
        trace_window(cyl(0, 0, 0), 2, 3)


# -- tree avoidance ------------------------------------------------------------

def test_nd_tree_shape():
    NdTree.full(2).check_shape()
    NdTree.level_capped((2, 1)).check_shape()
    ragged = NdTree(lambda w: w == (0, 0), branching=1, depth_bound=3)
    with pytest.raises(ValueError):
        ragged.check_shape()


def window_avoids_tree(c, tree, depth, breadth):
    for tail in product(range(breadth + 1), repeat=depth - len(c)):
        w = c + tail
        if all(tree.member(w[: j]) for j in range(1, len(w) + 1)):
            return False
    return True


def test_nd_witness_examples():
    zeros = NdTree.full(1)
    c = nd_witness(FULL, zeros)
    assert subset(Atom(c), FULL)
    assert not all(zeros.member(c[: j]) for j in range(1, len(c) + 1))
    c = nd_witness(cyl(0), zeros)
    assert subset(Atom(c), cyl(0))
    assert window_avoids_tree(c, zeros, max(3, len(c)) + 1, max(c) + 1)
    with pytest.raises(EmptySetError):
        nd_witness(EMPTY, zeros)


@given(exprs)
@settings(max_examples=150)
def test_antichain_extension_order(e):
    # Cantor unpairing over an infinite antichain, round-robin over the
    # members of a finite one
    if is_empty(e):
        return
    chain = minimal_antichain(e)
    width = len(chain.concrete)
    for n in range(40):
        i, j = unpair(n) if chain.is_infinite else (n % width, n // width)
        assert chain.extension(n) == (chain.member(i), j)


def test_antichain_extension_examples():
    finite = minimal_antichain(cyl(1) | cyl(3))
    assert [finite.extension(n) for n in range(4)] == \
        [((1,), 0), ((3,), 0), ((1,), 1), ((3,), 1)]
    infinite = minimal_antichain(FULL - cyl(0))
    assert [infinite.extension(n) for n in range(4)] == \
        [((1,), 0), ((2,), 0), ((1,), 1), ((3,), 0)]


def test_mentions_cache_is_bounded():
    assert mentions.cache_info().maxsize == 1024
