import gc
import random
import weakref
from itertools import cycle, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bairekit.choquet import (ExtractionError, IllegalMoveError, _fault,
                              copy_strategy, cylinder_strategy,
                              extract_schemes, last_reply, modify_strategy,
                              play_round, reachable_states, remove_redundant,
                              replay, replay_branch, run_game, scripted_player,
                              transcript_json, validate_history)
from bairekit.cylinder import Atom, FULL, cyl, subset
from bairekit.scheme import UNRESOLVED, Scheme, Window, check_covers
from bairekit.spaces import BAIRE, FiniteSpaceModel, LazySeq, all_topologies
from bairekit.suites import MAX_GAME_STATES, _decide_states


def chain_space():
    return FiniteSpaceModel([0, 1, 2], [[], [2], [1, 2], [0, 1, 2]])


def test_remove_redundant_paper_history():
    sp = chain_space()
    x, y, z = sp.whole(), sp.mask_of([1, 2]), sp.mask_of([2])
    history = ((x, x), (x, x), (y, y), (y, y), (z, z))
    assert remove_redundant(sp, history) == ((y, y), (z, z))


def test_remove_redundant_zero_pair_and_fixed_points():
    sp = chain_space()
    x, y = sp.whole(), sp.mask_of([1, 2])
    assert remove_redundant(sp, ((x, x),)) == ()
    untouched = ((x, y), (y, y))
    # second pair repeats the first reply, so only it goes
    assert remove_redundant(sp, untouched) == ((x, y),)
    strict = ((x, y), (sp.mask_of([2]), sp.mask_of([2])))
    assert remove_redundant(sp, strict) == strict


def test_remove_redundant_validates():
    sp = chain_space()
    x, z = sp.whole(), sp.mask_of([2])
    with pytest.raises(ValueError):
        remove_redundant(sp, ((z, x),))  # reply escapes the move
    with pytest.raises(ValueError):
        remove_redundant(sp, ((x, 0),))  # empty reply
    with pytest.raises(ValueError):
        remove_redundant(sp, ((x, sp.mask_of([0])),))  # not open


@st.composite
def legal_histories(draw):
    sp = chain_space()
    declining = [sp.whole(), sp.mask_of([1, 2]), sp.mask_of([2])]
    history = []
    level = 0
    for _ in range(draw(st.integers(0, 5))):
        u_level = draw(st.integers(level, 2))
        v_level = draw(st.integers(u_level, 2))
        history.append((declining[u_level], declining[v_level]))
        level = v_level
    return sp, tuple(history)


@given(legal_histories())
@settings(max_examples=200)
def test_remove_redundant_idempotent(case):
    sp, history = case
    once = remove_redundant(sp, history)
    assert remove_redundant(sp, once) == once


def _remove_redundant_by_original_prefix(space, history):
    # the pairwise loop deflation had before it folded one step rule
    validate_history(space, history)
    kept = []
    previous = space.whole()
    for u, v in history:
        if not (space.equal(u, previous) and space.equal(v, previous)):
            kept.append((u, v))
        previous = v
    return tuple(kept)


def _legal_histories(sp, length, history=()):
    yield history
    if len(history) < length:
        for u in sp.nonempty_opens_inside(last_reply(sp, history)):
            for v in sp.nonempty_opens_inside(u):
                yield from _legal_histories(sp, length, history + ((u, v),))


def test_remove_redundant_matches_the_original_prefix_rule():
    checked = 0
    for masks in all_topologies(3):
        sp = FiniteSpaceModel(range(3), masks)
        for history in _legal_histories(sp, 3):
            assert remove_redundant(sp, history) == \
                _remove_redundant_by_original_prefix(sp, history)
            checked += 1
    assert checked == 1904
    # over the Baire model a dropped pair may spell its sets differently
    a, again = cyl(0), cyl(0, 0) | cyl(0) - cyl(0, 0)
    for history in [((a, a), (again, again), (a, cyl(0, 1))),
                    ((FULL, a), (again, a), (cyl(0, 2), cyl(0, 2)))]:
        assert remove_redundant(BAIRE, history) == \
            _remove_redundant_by_original_prefix(BAIRE, history)


def test_modified_clauses():
    sp = chain_space()
    x, y, z = sp.whole(), sp.mask_of([1, 2]), sp.mask_of([2])
    seen = []

    def recording(space, history, u):
        seen.append((history, u))
        return u

    modified = modify_strategy(recording)
    assert modified(sp, (), x) == x and seen == []
    assert modified(sp, (), y) == y and seen == [((), y)]
    seen.clear()
    history = ((x, x), (y, y))
    assert modified(sp, history, y) == y and seen == []
    assert modified(sp, history, z) == z
    assert seen == [((((y, y),)), z)]  # deflated history reached the base rule


def test_modified_equals_base_on_redundancy_free_play():
    sp = chain_space()
    base = copy_strategy()
    modified = modify_strategy(base)
    x, y, z = sp.whole(), sp.mask_of([1, 2]), sp.mask_of([2])
    history = ()
    for u in (y, z):
        assert modified(sp, history, u) == base(sp, history, u)
        history += ((u, u),)


def test_run_game_sierpinski_copy():
    sp = FiniteSpaceModel.sierpinski()
    one = sp.mask_of([1])
    result = run_game(sp, scripted_player([one] * 4), copy_strategy(), 4)
    assert result.winner == "II" and result.decided
    assert result.final_set == one


def test_run_game_flags_illegal_first_player():
    sp = FiniteSpaceModel.sierpinski()
    one, whole = sp.mask_of([1]), sp.whole()
    with pytest.raises(IllegalMoveError) as err:
        run_game(sp, scripted_player([one, whole]), copy_strategy(), 2)
    assert err.value.player == "I"
    with pytest.raises(IllegalMoveError) as err:
        run_game(sp, scripted_player([0]), copy_strategy(), 1)
    assert err.value.player == "I"


def test_run_game_flags_illegal_second_player():
    sp = FiniteSpaceModel.sierpinski()

    def rogue(space, history, u):
        return space.whole()

    with pytest.raises(IllegalMoveError) as err:
        run_game(sp, scripted_player([sp.mask_of([1])]), rogue, 1)
    assert err.value.player == "II"


def test_cylinder_strategy_growth():
    moves = [FULL, cyl(0, 0), cyl(0, 0, 0, 5)]
    result = run_game(BAIRE, scripted_player(moves), cylinder_strategy(), 3)
    assert not result.decided and result.winner is None
    lengths = [len(v.entries) for _u, v in result.history]
    assert lengths == sorted(lengths) and lengths[0] >= 1
    for k, (u, v) in enumerate(result.history):
        assert len(v.entries) >= k + 1 and subset(v, u)


def test_cylinder_strategy_reply_extends_move():
    reply = cylinder_strategy()(BAIRE, ((FULL, FULL), (FULL, FULL)), cyl(3))
    assert isinstance(reply, Atom)
    assert reply.entries[:1] == (3,) and len(reply.entries) >= 3


def test_transcript_json():
    sp = FiniteSpaceModel.sierpinski()
    one = sp.mask_of([1])
    result = run_game(sp, scripted_player([one]), copy_strategy(), 1)
    assert transcript_json(sp, result.history) == [
        {"player": "I", "set": [1]},
        {"player": "II", "set": [1]},
    ]


def test_extract_one_point_space():
    sp = FiniteSpaceModel([5], [[], [5]])
    moves, replies = extract_schemes(sp, copy_strategy())
    for a in Window(2, 3).nodes():
        assert moves.node(a) == sp.whole()
        assert replies.node(a) == sp.whole()


def test_extract_sierpinski_hand_replay():
    sp = FiniteSpaceModel.sierpinski()
    moves, replies = extract_schemes(sp, copy_strategy())
    x, one = sp.whole(), sp.mask_of([1])
    assert replies.node(()) == x
    assert moves.node((0,)) == x and replies.node((0,)) == x
    assert moves.node((1,)) == one and replies.node((1,)) == one


def test_extract_branch_history_is_legal_run():
    sp = chain_space()
    moves, replies = extract_schemes(sp, copy_strategy())
    for branch in [(0, 1), (1, 2), (2, 0), (1, 1, 1)]:
        history = tuple((moves.node(branch[: k]), replies.node(branch[: k]))
                        for k in range(len(branch) + 1))
        validate_history(sp, history)
        assert replay_branch(sp, copy_strategy(), moves, replies, branch)


def test_extract_children_enumerate_pi_base():
    sp = chain_space()
    moves, replies = extract_schemes(sp, copy_strategy())
    for a in [(), (1,), (2, 1)]:
        va = replies.node(a)
        opens = sp.nonempty_opens_inside(va)
        for u in opens:
            assert any(sp.subset(child, u)
                       for child in replies.children(a, len(opens) + 1))


def test_extract_covers_verified_on_finite_spaces():
    sp = chain_space()
    _moves, replies = extract_schemes(sp, copy_strategy())
    rep = check_covers(replies, Window(2, 4))
    assert rep.ok and UNRESOLVED not in rep.statuses


def test_an_extraction_is_freed_without_the_cycle_collector():
    # the walk state is a dict that steps a missing node from its parent's
    # entry, not a closure that calls itself, so no cycle holds it: the
    # strategy, which only the walk keeps, goes with the last scheme
    sp = chain_space()
    strategy = copy_strategy()
    moves, replies = extract_schemes(sp, strategy)
    assert len(reachable_states(replies, MAX_GAME_STATES)) == 4
    refs = [weakref.ref(x) for x in (moves, replies, strategy)]
    gc.disable()
    try:
        del moves, replies, strategy
        assert [ref() for ref in refs] == [None, None, None]
    finally:
        gc.enable()


def test_extract_rejects_rogue_strategy():
    sp = FiniteSpaceModel.sierpinski()

    def rogue(space, history, u):
        return 0  # empty reply is never legal

    _moves, replies = extract_schemes(sp, rogue)
    with pytest.raises(ExtractionError):
        replies.node((1,))


def test_fault_is_the_legality_rule_on_small_topologies():
    for n in range(1, 4):
        for masks in all_topologies(n):
            sp = FiniteSpaceModel(range(n), masks)
            for limit in masks:
                for o in range(1 << n):
                    legal = o in masks and o != 0 and o & ~limit == 0
                    assert (_fault(sp, "move", o, limit) is None) == legal


def test_fault_wording():
    sp = chain_space()
    x, y, z = sp.whole(), sp.mask_of([1, 2]), sp.mask_of([2])
    assert _fault(sp, "move", sp.mask_of([1]), x) == "move is not an open set"
    assert _fault(sp, "reply", 0, x) == "reply is empty"
    assert _fault(sp, "move", y, z) == "move escapes the previous reply"
    assert _fault(sp, "reply", y, z) == "reply escapes the move"
    with pytest.raises(ValueError, match="^pair 1: reply escapes the move$"):
        validate_history(sp, ((x, y), (z, y)))


def test_play_round_names_the_faulty_player():
    sp = chain_space()
    x, y, z = sp.whole(), sp.mask_of([1, 2]), sp.mask_of([2])
    history = play_round(sp, (), y, copy_strategy())
    assert history == ((y, y),)
    with pytest.raises(IllegalMoveError) as err:
        play_round(sp, history, x, copy_strategy())
    assert (err.value.player, err.value.round_no) == ("I", 1)
    assert str(err.value).endswith("move escapes the previous reply")

    def rogue(space, history, u):
        return space.whole()

    with pytest.raises(IllegalMoveError) as err:
        play_round(sp, history, z, rogue)
    assert (err.value.player, err.value.round_no) == ("II", 1)
    assert str(err.value).endswith("reply escapes the move")


def test_extract_rejects_a_reply_that_is_not_open():
    sp = chain_space()
    one = sp.mask_of([1])

    def rogue(space, history, u):
        return u & one or u  # {1} is not open in the chain space

    _moves, replies = extract_schemes(sp, rogue)
    assert replies.node((1,)) == sp.mask_of([2])
    # node (2,) plays the move {1,2}, answered with {1}
    with pytest.raises(ExtractionError,
                       match=r"node \(2,\): reply is not an open set"):
        replies.node((2,))


def test_extract_baire_replay():
    moves, replies = extract_schemes(BAIRE, cylinder_strategy())
    branch = (2, 1, 3)
    for k in range(len(branch) + 1):
        node = replies.node(branch[: k])
        assert isinstance(node, Atom) and len(node.entries) >= k
    assert replay_branch(BAIRE, cylinder_strategy(), moves, replies, branch)


def _replay_per_branch(space, strategy, moves, replies, nodes):
    """The loop ``replay`` replaced: every node re-played from the root,
    its prefixes included, one branch at a time.  The first node whose
    reply differs from the recorded one, or None."""
    modified = modify_strategy(strategy)
    for a in nodes:
        history = ()
        for k in range(len(a) + 1):
            history = play_round(space, history, moves.node(a[:k]), modified)
            if not space.equal(history[-1][1], replies.node(a[:k])):
                return a[:k]
    return None


def _outcome(replayer, *args):
    """What a replay gives: the mismatched node, or the illegal move."""
    try:
        return replayer(*args)
    except IllegalMoveError as exc:
        return exc.player, exc.round_no, str(exc)


def _with_node(scheme, at, value):
    """``scheme`` with the recorded value at node ``at`` replaced."""
    return Scheme(scheme.space,
                  lambda a: value if a == at else scheme.node(a))


def test_replay_agrees_with_the_per_branch_loop_on_small_topologies():
    """On all 389 topologies with at most 4 points, for a strategy that
    reads the history and one that does not: the recorded schemes replay,
    a corrupted reply is found at its node, and a corrupted move, legal or
    not, gives the per-branch loop's outcome."""
    nodes = list(Window(2, 3).nodes())
    rng = random.Random(5)
    for n in range(1, 5):
        for masks in all_topologies(n):
            sp = FiniteSpaceModel(range(n), masks)
            for strategy in (copy_strategy(), _reply_by_xor):
                moves, replies = extract_schemes(sp, strategy)
                args = (sp, strategy, moves, replies, nodes)
                assert replay(*args) is None
                assert _replay_per_branch(*args) is None
                at = rng.choice(nodes)
                bad = (sp, strategy, moves, _with_node(replies, at, 0), nodes)
                assert replay(*bad) == _replay_per_branch(*bad) == at
                bad = (sp, strategy, _with_node(moves, at, rng.choice(masks)),
                       replies, nodes)
                assert _outcome(replay, *bad) == \
                    _outcome(_replay_per_branch, *bad)


def test_replay_returns_the_first_corrupted_node():
    sp = _chain(4)
    moves, replies = extract_schemes(sp, _reply_by_xor)
    nodes = list(Window(2, 3).nodes())
    for at in nodes:
        assert replay(sp, _reply_by_xor, moves, _with_node(replies, at, 0),
                      nodes) == at
    # of two corrupted replies the one listed first is found
    twice = _with_node(_with_node(replies, (2, 0), 0), (1,), 0)
    assert replay(sp, _reply_by_xor, moves, twice, nodes) == (1,)
    assert not replay_branch(sp, _reply_by_xor, moves, twice, (2, 0))
    assert replay_branch(sp, _reply_by_xor, moves, twice, (0, 2))


def test_replay_raises_an_illegal_move_at_its_node():
    """A move that escapes the replayed reply before it raises in the
    round of its node, as the per-branch loop does, also after a node
    whose reply matched."""
    sp = chain_space()
    moves, replies = extract_schemes(sp, copy_strategy())
    nodes = list(Window(2, 3).nodes())
    for at in nodes[1:]:
        if replies.node(at[:-1]) == sp.whole():
            continue  # every nonempty open is a legal move there
        bad = (sp, copy_strategy(), _with_node(moves, at, sp.whole()),
               replies, nodes)
        with pytest.raises(IllegalMoveError) as err:
            replay(*bad)
        assert (err.value.player, err.value.round_no) == ("I", len(at))
        assert str(err.value).endswith("move escapes the previous reply")
        assert _outcome(replay, *bad) == _outcome(_replay_per_branch, *bad)


def _reference_extraction(space, strategy, window):
    """Replies and moves of every window node, each history rebuilt from
    the root: the extraction's definition, without its memo."""
    modified = modify_strategy(strategy)

    def history_of(a):
        history = ()
        for k in range(len(a) + 1):
            if k == 0:
                u = space.whole()
            else:
                u = space.pi_base_enum(history[-1][1])[a[k - 1]]
            history += ((u, modified(space, history, u)),)
        return history

    return {a: history_of(a)[-1] for a in window.nodes()}


def test_extract_matches_reference_on_all_three_point_topologies():
    window = Window(3, 4)
    for masks in all_topologies(3):
        sp = FiniteSpaceModel(range(3), masks)
        moves, replies = extract_schemes(sp, copy_strategy())
        expected = _reference_extraction(sp, copy_strategy(), window)
        for a in window.nodes():
            assert (moves.node(a), replies.node(a)) == expected[a], (masks, a)


class _CountingSpace(FiniteSpaceModel):
    enums = 0

    def pi_base_enum(self, o):
        self.enums += 1
        return super().pi_base_enum(o)


def test_extract_count_budget():
    """One pi-base enumeration per distinct reply and at most one base
    strategy call per distinct (deflated history, child index): a lost memo
    fails here on any machine."""
    chain = chain_space()
    sp = _CountingSpace(chain.points, chain.opens)
    base_calls = 0
    base = copy_strategy()

    def counting(space, history, u):
        nonlocal base_calls
        base_calls += 1
        return base(space, history, u)

    _moves, replies = extract_schemes(sp, counting)
    for a in Window(3, 4).nodes():
        replies.node(a)
    # the chain's three nonempty opens are its only replies; the base rule
    # answers {2} after (), {1,2} after (), and {2} after ({1,2},{1,2}) at
    # child indices 1 and 3 of the cycling enumeration
    assert sp.enums == 3
    assert base_calls == 4


def _reply_by_length(space, history, u):
    inside = space.nonempty_opens_inside(u)
    return inside[len(history) % len(inside)]


def _reply_by_xor(space, history, u):
    inside = space.nonempty_opens_inside(u)
    return inside[sum(m ^ r for m, r in history) % len(inside)]


def _reply_from_top_by_length(space, history, u):
    inside = space.nonempty_opens_inside(u)
    return inside[-1 - len(history) % len(inside)]


def _chain(n):
    """The topology of the final segments of ``range(n)``."""
    return FiniteSpaceModel(range(n), [0] + [(1 << n) - (1 << k)
                                            for k in range(n)])


@pytest.mark.parametrize("strategy", [_reply_by_length, _reply_by_xor,
                                      _reply_from_top_by_length],
                         ids=["length", "xor", "top-length"])
@pytest.mark.parametrize("spaces, window", [
    ([FiniteSpaceModel(range(3), m) for m in all_topologies(3)], Window(3, 4)),
    ([FiniteSpaceModel(range(4), m) for m in all_topologies(4)], Window(2, 4)),
    # two deflated histories with one last reply can differ in what they
    # answer to a later move only if that move has an open strictly inside
    # it, which takes five nested nonempty opens: only this case fails a
    # memo keyed on the last reply instead of the deflated history
    ([_chain(6)], Window(4, 6)),
], ids=["3-points", "4-points", "6-chain"])
def test_extract_matches_reference_for_history_reading_strategies(
        strategy, spaces, window):
    """Strategies that read the deflated history, not only the move: the
    quotient by deflated history must still give every node its own run."""
    for sp in spaces:
        moves, replies = extract_schemes(sp, strategy)
        expected = _reference_extraction(sp, strategy, window)
        for a in window.nodes():
            assert (moves.node(a), replies.node(a)) == expected[a], \
                (sorted(sp.opens), a)


class _NoSelfSpace(FiniteSpaceModel):
    """An enumeration that lacks the open itself wherever the open has a
    proper nonempty sub-open: budgeted children may leave a node uncovered."""

    def pi_base_enum(self, o):
        return LazySeq(cycle(self.nonempty_opens_inside(o)[:-1] or (o,)))


class _StuckSpace(FiniteSpaceModel):
    """An enumeration of the open alone: no pi-base of an open that has a
    proper nonempty sub-open."""

    def pi_base_enum(self, o):
        return LazySeq(repeat(o))


def _game_graph(space, strategy):
    """Every deflated history that a run against the modified strategy
    reaches, built round by round with ``play_round`` over every nonempty
    open inside the last reply."""
    modified = modify_strategy(strategy)
    seen, todo = {()}, [()]
    while todo:
        history = todo.pop()
        for u in space.nonempty_opens_inside(last_reply(space, history)):
            state = remove_redundant(space,
                                     play_round(space, history, u, modified))
            if state not in seen:
                seen.add(state)
                todo.append(state)
    return seen


def _verdicts_per_node(space, replies, window):
    """Covers and the pi-base property at every window node, node by node,
    each on the ``p`` children of the node: the reference for the suite's
    decision on the game states."""
    covered = pi_base = True
    for a in window.nodes():
        node = replies.node(a)
        inside = space.nonempty_opens_inside(node)
        children = replies.children(a, len(inside))
        union = 0
        for child in children:
            covered = covered and space.subset(child, node)
            union |= child
        covered = covered and union == node
        pi_base = pi_base and all(any(space.subset(c, u) for c in children)
                                  for u in inside)
    return covered, pi_base


@pytest.mark.parametrize("space_cls", [FiniteSpaceModel, _NoSelfSpace,
                                       _StuckSpace],
                         ids=["pi-base", "no-self", "stuck"])
@pytest.mark.parametrize("n, tops", [
    (3, all_topologies(3)),
    (4, all_topologies(4)),
    # the only case here where two deflated histories with one last reply
    # have different children
    (6, [_chain(6).opens]),
], ids=["3-points", "4-points", "6-chain"])
def test_deflated_representatives_match_the_per_node_walk(n, tops,
                                                          space_cls):
    """The walk's representatives, one per deflated history, are the states
    of the game graph that the enumeration lets player I reach; on 3 points
    the verdicts decided on them are those of every node of a window deep
    enough to hold them all."""
    verdicts = set()
    for masks in tops:
        sp = space_cls(range(n), masks)
        for strategy in (copy_strategy(), _reply_by_length, _reply_by_xor,
                         _reply_from_top_by_length):
            _moves, replies = extract_schemes(sp, strategy)
            states = reachable_states(replies, MAX_GAME_STATES)
            deflated = [replies.meta["deflated"](a) for a in states]
            assert len(set(deflated)) == len(states)
            if space_cls is _StuckSpace:
                # every child repeats its node's reply: no state but the root
                assert deflated == [()]
            else:
                assert set(deflated) == _game_graph(sp, strategy), \
                    sorted(sp.opens)
            cover_fault, base_fault = _decide_states(sp, replies, states)
            verdict = (cover_fault is None, base_fault is None)
            if n == 3:
                window = Window(max(map(len, states)),
                                len(sp.nonempty_opens_inside(sp.whole())))
                assert verdict == _verdicts_per_node(sp, replies, window), \
                    sorted(sp.opens)
            verdicts.add(verdict)
    if n < 6:
        # the broken enumerations make each verdict fail somewhere
        assert verdicts == {
            FiniteSpaceModel: {(True, True)},
            _NoSelfSpace: {(True, True), (False, True)},
            _StuckSpace: {(True, True), (True, False)}}[space_cls]


class _EscapingSpace(FiniteSpaceModel):
    """An enumeration of ``{0}`` that offers ``{1}`` instead."""

    def pi_base_enum(self, o):
        if o == self.mask_of([0]):
            return LazySeq(repeat(self.mask_of([1])))
        return super().pi_base_enum(o)


def test_decide_states_names_a_child_that_escapes():
    sp = _EscapingSpace([0, 1], range(4))
    _moves, replies = extract_schemes(sp, copy_strategy())
    states = reachable_states(replies, MAX_GAME_STATES)
    assert states == [(), (1,), (2,), (1, 0)]
    assert _decide_states(sp, replies, states) == \
        ("node (1,): child 0 escapes the node",
         "node (1,): open {0} contains no child")


def test_decide_states_names_a_node_its_children_leave_uncovered():
    # the root's three children are {2}, {1,2} and {2} again
    sp = _NoSelfSpace([0, 1, 2], [[], [2], [1, 2], [0, 1, 2]])
    _moves, replies = extract_schemes(sp, copy_strategy())
    states = reachable_states(replies, MAX_GAME_STATES)
    assert _decide_states(sp, replies, states) == \
        ("node () is not the union of its 3 children", None)


def test_reachable_states_stop_past_the_limit():
    sp = FiniteSpaceModel.discrete((0, 1, 2))
    _moves, replies = extract_schemes(sp, copy_strategy())
    states = reachable_states(replies, MAX_GAME_STATES)
    assert len(states) == len(_game_graph(sp, copy_strategy())) > 6
    assert reachable_states(replies, 5) == states[:6]
    assert reachable_states(replies, len(states)) == states
