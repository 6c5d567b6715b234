import random

import pytest

from bairekit.cylinder import Atom, FULL, cyl, equal, is_empty, subset
from bairekit.seq import BranchRule
from bairekit.spaces import (BAIRE, FiniteSpaceModel, LazySeq, all_topologies)


def test_finite_model_basics():
    sp = FiniteSpaceModel.sierpinski()
    whole = sp.whole()
    one = sp.mask_of([1])
    assert sp.is_open(one) and sp.is_open(whole) and sp.is_open(0)
    assert not sp.is_open(sp.mask_of([0]))
    assert sp.subset(one, whole) and not sp.subset(whole, one)
    assert sp.intersect(whole, one) == one
    assert sp.union(one, 0) == one
    assert sp.contains(one, 1) and not sp.contains(one, 0)
    assert sp.describe(one) == "{1}"


def test_finite_model_validation():
    with pytest.raises(ValueError):
        FiniteSpaceModel([0, 1], [[], [0], [1]])  # whole set missing
    with pytest.raises(ValueError):
        FiniteSpaceModel([0, 1, 2], [[], [0], [1], [0, 1, 2]])  # no union
    with pytest.raises(ValueError):
        FiniteSpaceModel([], [[]])


def test_finite_model_json_round_trip():
    sp = FiniteSpaceModel([3, 7], [[], [7], [3, 7]])
    again = FiniteSpaceModel.from_json(sp.to_json())
    assert again.points == sp.points and again.opens == sp.opens


def test_finite_pi_base_enum_cycles_with_whole_first():
    sp = FiniteSpaceModel.sierpinski()
    enum = sp.pi_base_enum(sp.whole())
    got = [sp.describe(enum[i]) for i in range(5)]
    assert got == ["{0,1}", "{1}", "{0,1}", "{1}", "{0,1}"]
    with pytest.raises(ValueError):
        sp.pi_base_enum(0)


def test_finite_sub_open_tables_match_definitions():
    for n in range(1, 5):
        for masks in all_topologies(n):
            sp = FiniteSpaceModel(range(n), masks)
            for o in masks:
                inside = sorted(m for m in masks if m and m & ~o == 0)
                assert list(sp.nonempty_opens_inside(o)) == inside
                if not o:
                    continue
                cycle = [o] + [m for m in inside if m != o]
                enum = sp.pi_base_enum(o)
                assert [enum[i] for i in range(3 * len(cycle))] == cycle * 3


def test_finite_family_matches_pairwise_and():
    rng = random.Random(4)
    for n in range(1, 4):
        for masks in all_topologies(n):
            sp = FiniteSpaceModel(range(n), masks)
            for _ in range(20):
                node = rng.choice(masks)
                opens = [rng.choice(masks) for _ in range(rng.randint(0, 6))]
                pairs = [(i, j) for i in range(len(opens))
                         for j in range(i + 1, len(opens))
                         if opens[i] & opens[j] != 0]
                union = set().union(*(sp.points_of(o) for o in opens))
                escaped = [i for i, o in enumerate(opens)
                           if not set(sp.points_of(o)) <= set(sp.points_of(node))]
                covered = set(sp.points_of(node)) <= union
                assert sp.family(node, opens, True) == (escaped, covered, pairs)
                assert sp.family(node, opens, False) == (escaped, covered, [])


def test_finite_uncovered_matches_point_sets():
    # every cover drawn from the opens of every topology on at most 3 points
    for n in range(1, 4):
        for masks in all_topologies(n):
            sp = FiniteSpaceModel(range(n), masks)
            for bits in range(1 << len(masks)):
                cover = [m for i, m in enumerate(masks) if bits >> i & 1]
                union = set().union(*(sp.points_of(c) for c in cover))
                assert sp.uncovered(masks, cover) == [
                    i for i, o in enumerate(masks)
                    if not set(sp.points_of(o)) <= union]


def test_baire_model_delegates():
    assert BAIRE.whole() is FULL
    assert BAIRE.subset(cyl(0, 1), cyl(0))
    assert BAIRE.is_empty(BAIRE.intersect(cyl(0), cyl(1)))
    assert BAIRE.equal(BAIRE.union(cyl(0), cyl(0)), cyl(0))
    assert BAIRE.contains(cyl(2), BranchRule.constant(2))
    assert BAIRE.is_open(cyl(1)) and not BAIRE.is_open(42)
    assert BAIRE.family(cyl(0), [cyl(0), cyl(1), cyl(0, 1)], True) == \
        ([1], True, [(0, 2)])
    assert BAIRE.uncovered([cyl(0, 1), cyl(1)], [cyl(0)]) == [1]


def test_baire_pi_base_enum():
    o = cyl(2)
    enum = BAIRE.pi_base_enum(o)
    assert enum[0] is o
    seen = [enum[i] for i in range(1, 12)]
    for e in seen:
        assert subset(e, o) and not is_empty(e)
        assert not equal(e, o)
    # fair: one-step extensions appear quickly
    assert Atom((2, 0)) in seen and Atom((2, 1)) in seen


def test_baire_pi_base_enum_catches_every_inner_cylinder():
    o = FULL - cyl(0)
    enum = BAIRE.pi_base_enum(o)
    seen = [enum[i] for i in range(1, 40)]
    assert Atom((1,)) in seen and Atom((2,)) in seen and Atom((1, 0)) in seen


def test_lazy_seq():
    it = LazySeq(iter(range(100)))
    assert it[5] == 5 and it[2] == 2 and it[10] == 10


def test_all_topologies_refuses_five_points(monkeypatch):
    def hood_tuples(*choices):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("bairekit.spaces.product", hood_tuples)
    for n in (5, 0):
        with pytest.raises(ValueError, match=r"1\.\.4 points"):
            all_topologies(n)


def test_all_topologies_counts():
    assert [len(all_topologies(n)) for n in range(1, 5)] == [1, 4, 29, 355]
    for masks in all_topologies(3):
        FiniteSpaceModel(range(3), masks)  # closure validated on construction


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_topologies_are_the_families_the_model_accepts(n):
    # every family holding 0 and the whole set, in the order of its bits
    # over the other masks; the model's own closure check is the oracle
    full = (1 << n) - 1
    optional = range(1, full)
    accepted = []
    for bits in range(1 << len(optional)):
        fam = [0] + [m for m in optional if bits >> (m - 1) & 1] + [full]
        try:
            FiniteSpaceModel(range(n), fam)
        except ValueError:
            continue
        accepted.append(fam)
    assert all_topologies(n) == accepted


def test_discrete_model_opens_every_set_of_its_points():
    sp = FiniteSpaceModel.discrete((3, 7, 9))
    assert sp.points == (3, 7, 9) and sp.opens == frozenset(range(8))
