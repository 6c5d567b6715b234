import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bairekit.seq import (BranchRule, pair, seq_at, seq_from_text, seq_index,
                          seq_to_text, tuple_at, tuple_index, unpair)

naturals = st.integers(0, 50)
seqs = st.lists(naturals, max_size=6).map(tuple)


def test_branch_rules():
    assert BranchRule.padded((3, 1), 9).prefix(4) == (3, 1, 9, 9)
    assert BranchRule.padded((3, 1), 9).prefix(1) == (3,)
    assert BranchRule.periodic((0, 2)).prefix(5) == (0, 2, 0, 2, 0)
    assert BranchRule.constant(7).prefix(3) == (7, 7, 7)
    assert BranchRule((4,), (5, 6)).prefix(0) == ()


@pytest.mark.parametrize("stem, word", [
    ((1,), ()), ((), ()), ((-1,), (0,)), ((), (2, -1)), ((), (1.0,)),
    (("1",), (0,))], ids=["no-word", "nothing", "negative-in-stem",
                          "negative-in-word", "float", "text"])
def test_a_branch_with_no_word_or_a_non_natural_entry_is_refused(stem, word):
    with pytest.raises(ValueError):
        BranchRule(stem, word)


@given(seqs, st.lists(naturals, min_size=1, max_size=4).map(tuple),
       st.data())
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_prefix_reads_the_stem_then_the_repeating_word(stem, word, data):
    n = data.draw(st.integers(0, len(stem) + 3 * len(word)))
    got = BranchRule(stem, word).prefix(n)
    assert len(got) == n
    for i, v in enumerate(got):
        if i < len(stem):
            assert v == stem[i]
        else:
            assert v == word[(i - len(stem)) % len(word)]


def test_branch_rules_show_their_stem_or_word():
    assert repr(BranchRule((1, 0), (2, 3))) == "BranchRule(1.0+(2.3)*)"
    assert repr(BranchRule.constant(4)) == "BranchRule(ε+(4)*)"
    assert repr(BranchRule.padded((3, 12), 9)) == "BranchRule(3.12+(9)*)"
    assert repr(BranchRule.padded(())) == "BranchRule(ε+(0)*)"
    assert repr(BranchRule.periodic((0, 2))) == "BranchRule(ε+(0.2)*)"


def _bytes_per_rule(build, count: int) -> float:
    tracemalloc.start()
    try:
        rules = [build(j) for j in range(count)]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(rules) == count
    return held / count


def test_a_branch_rule_keeps_its_stem_and_word_and_no_name():
    # a rule is two slots over the caller's tuples; a rendered name took
    # about 354 B per periodic rule and 1,183 B per padded one
    words = [(j % 5, j % 7, j % 3) for j in range(16)]
    assert _bytes_per_rule(
        lambda j: BranchRule.periodic(words[j % 16]), 3840) < 100
    stems = [tuple(range(j, j + 200)) for j in range(500)]
    assert _bytes_per_rule(
        lambda j: BranchRule.padded(stems[j], j % 3), 500) < 150


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
