import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bairekit.seq import (BranchRule, is_prefix, pair, restrict, seq_at,
                          seq_from_text, seq_index, seq_to_text, tuple_at,
                          tuple_index, unpair)

naturals = st.integers(0, 50)
seqs = st.lists(naturals, max_size=6).map(tuple)


def test_restrict_examples():
    assert restrict((3, 1, 4), 2) == (3, 1)
    assert restrict((3, 1, 4), 0) == ()
    assert restrict(BranchRule.constant(7), 3) == (7, 7, 7)
    with pytest.raises(ValueError):
        restrict((3, 1), 3)


def test_is_prefix_examples():
    assert is_prefix((1,), (1, 0))
    assert is_prefix((), (4, 4))
    assert is_prefix((), BranchRule.constant(9))
    assert not is_prefix((2,), (1, 2))
    assert is_prefix((5, 5), BranchRule.constant(5))


def test_branch_rules():
    assert BranchRule.padded((3, 1), 9).prefix(4) == (3, 1, 9, 9)
    assert BranchRule.periodic((0, 2)).prefix(5) == (0, 2, 0, 2, 0)
    bad = BranchRule(lambda n: -1)
    with pytest.raises(ValueError):
        bad(0)


def test_branch_rules_show_their_stem_or_word():
    assert repr(BranchRule(lambda n: n)) == "BranchRule(branch)"
    assert repr(BranchRule(lambda n: n, "ident")) == "BranchRule(ident)"
    assert repr(BranchRule.constant(4)) == "BranchRule(const(4))"
    assert repr(BranchRule.padded((3, 12), 9)) == "BranchRule(3.12+9...)"
    assert repr(BranchRule.padded(())) == "BranchRule(ε+0...)"
    assert repr(BranchRule.periodic((0, 2))) == "BranchRule((0.2)*)"
    assert BranchRule.periodic((7,)).name == "(7)*"


@given(seqs, seqs, seqs)
def test_prefix_partial_order(s, t, u):
    assert is_prefix(s, s)
    if is_prefix(s, t) and is_prefix(t, s):
        assert s == t
    if is_prefix(s, t) and is_prefix(t, u):
        assert is_prefix(s, u)


@given(seqs, seqs)
def test_restrict_concat(s, t):
    assert restrict(s + t, len(s)) == s


def test_pairing_round_trips():
    for n in range(10_000):
        x, y = unpair(n)
        assert pair(x, y) == n
    for x in range(60):
        for y in range(60):
            assert unpair(pair(x, y)) == (x, y)


def test_seq_enumeration_bijective():
    seen = {}
    for n in range(4000):
        s = seq_at(n)
        assert s not in seen, f"{s} repeats at {n} and {seen[s]}"
        seen[s] = n
        assert seq_index(s) == n


def test_seq_enumeration_prefix_monotone():
    # extensions always come later, so budgeted searches are prefix-fair
    for n in range(1, 2000):
        s = seq_at(n)
        assert seq_index(s[:-1]) < n


def test_tuple_codec():
    for length in range(4):
        seen = set()
        for n in range(200):
            t = tuple_at(n, length) if length or n == 0 else None
            if length == 0 and n > 0:
                break
            assert len(t) == length
            assert t not in seen
            seen.add(t)
            assert tuple_index(t) == n


@given(st.integers(0, 10**15), st.integers(1, 6))
@example(0, 1)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_tuple_at_round_trips_through_tuple_index(n, length):
    t = tuple_at(n, length)
    assert len(t) == length and tuple_index(t) == n


@given(st.lists(naturals, min_size=1, max_size=6).map(tuple))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_tuple_index_round_trips_through_tuple_at(t):
    assert tuple_at(tuple_index(t), len(t)) == t


def test_seq_text():
    assert seq_to_text(()) == "ε"
    assert seq_to_text((0, 3, 1)) == "0.3.1"
    assert seq_from_text("0.3.1") == (0, 3, 1)
    assert seq_from_text("ε") == ()
    with pytest.raises(ValueError):
        seq_from_text("1.x")
