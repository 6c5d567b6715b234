"""The Choquet game over a space model.

Players alternate nonempty open sets, each inside the previous one; the
second player wins an infinite run when the intersection of their moves is
nonempty.  Every game loop plays its rounds through one referee,
``play_round``.  The module also computes the deflation of a history
(dropping the repeat pairs), derives the modified reply rule that echoes
repeat moves and consults the base strategy on the deflated history, and
extracts the scheme pair whose branches replay it against pi-base enumerations.
Over a finite space the modified strategy reads a history only through its
deflation, so the game has finitely many states, and ``reachable_states``
walks them all.

Verdicts are exact only where they can be: in a finite space every legal
infinite continuation has an eventually constant chain of replies, so a
completed legal run already decides the game for player II.  Over the
Baire model a finite run only reports that player II is still alive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional

from . import cylinder as cy
from .cylinder import Atom
from .scheme import Scheme
from .seq import Seq
from .spaces import FiniteSpaceModel, LazySeq, SpaceModel

Pair = tuple
History = tuple

PlayerII = Callable[[SpaceModel, History, object], object]
PlayerI = Callable[[SpaceModel, History], object]


class IllegalMoveError(ValueError):
    def __init__(self, player: str, round_no: int, detail: str):
        super().__init__(f"illegal move by player {player} "
                         f"in round {round_no}: {detail}")
        self.player = player
        self.round_no = round_no


class ExtractionError(ValueError):
    pass


def _fault(space: SpaceModel, name: str, o, limit) -> Optional[str]:
    """Why ``o`` is not a legal ``name`` ("move" or "reply") played inside
    ``limit``, or None: a legal one is a nonempty open set inside it."""
    if not space.is_open(o):
        return f"{name} is not an open set"
    if space.is_empty(o):
        return f"{name} is empty"
    if not space.subset(o, limit):
        return f"{name} escapes " + \
            ("the previous reply" if name == "move" else "the move")
    return None


def last_reply(space: SpaceModel, history: History):
    """The set the next move must lie in: the last reply, or the whole
    space before the first round."""
    return history[-1][1] if history else space.whole()


def _deflate(space: SpaceModel, deflated: History, u, v) -> History:
    """The deflated history ``deflated`` after the pair ``(u, v)``: the pair
    is dropped when both its sets repeat the last reply."""
    last = last_reply(space, deflated)
    if space.equal(u, last) and space.equal(v, last):
        return deflated
    return deflated + ((u, v),)


def validate_history(space: SpaceModel, history: History) -> None:
    """Check the defining chain shape: nonempty opens, each inside the last."""
    limit = space.whole()
    for k, (u, v) in enumerate(history):
        fault = _fault(space, "move", u, limit) or _fault(space, "reply", v, u)
        if fault:
            raise ValueError(f"pair {k}: {fault}")
        limit = v


def remove_redundant(space: SpaceModel, history: History) -> History:
    """Drop every pair whose two moves merely repeat the reply before them
    (the zeroth pair repeats the whole space); idempotent on legal
    histories.  A dropped pair repeats that reply, so a history and its
    deflation share their last reply, and each pair is judged against it."""
    validate_history(space, history)
    return reduce(lambda deflated, pair: _deflate(space, deflated, *pair),
                  history, ())


def copy_strategy() -> PlayerII:
    """Reply with the move itself; winning on any finite space."""
    return lambda space, history, u: u


def cylinder_strategy() -> PlayerII:
    """Over the Baire model: reply with a witness cylinder of the move,
    padded until its length exceeds the number of completed pairs.  Replies
    then shrink strictly in every round, pinning a single branch."""

    def reply(space: SpaceModel, history: History, u):
        w = cy.witness_cylinder(u)
        if w is None:
            raise ValueError("cannot reply inside an empty move")
        w += (0,) * max(0, len(history) + 1 - len(w))
        return Atom(w)

    return reply


def modify_strategy(strategy: PlayerII) -> PlayerII:
    """The echo-or-deflate modification of a reply rule.

    A move repeating the previous reply (the whole space before the first
    round) is echoed back; any other move is passed to the base rule along
    with the deflated history."""

    def reply(space: SpaceModel, history: History, u):
        last = last_reply(space, history)
        if space.equal(u, last):
            return last
        return strategy(space, remove_redundant(space, history), u)

    return reply


def scripted_player(moves) -> PlayerI:
    def play(space: SpaceModel, history: History):
        return moves[len(history)]

    return play


@dataclass
class GameResult:
    history: History
    final_set: object
    decided: bool
    winner: Optional[str]
    note: str


def play_round(space: SpaceModel, history: History, u,
               player_two: PlayerII) -> History:
    """The history after one round: check player I's move ``u``, ask player
    II, check the reply.  A fault raises IllegalMoveError naming its player."""
    fault = _fault(space, "move", u, last_reply(space, history))
    if fault:
        raise IllegalMoveError("I", len(history), fault)
    v = player_two(space, history, u)
    fault = _fault(space, "reply", v, u)
    if fault:
        raise IllegalMoveError("II", len(history), fault)
    return history + ((u, v),)


def run_game(space: SpaceModel, player_one: PlayerI, player_two: PlayerII,
             rounds: int) -> GameResult:
    if rounds < 1:
        raise ValueError("a run needs at least one round")
    history: History = ()
    for _ in range(rounds):
        history = play_round(space, history, player_one(space, history),
                             player_two)
    final = history[-1][1]
    if isinstance(space, FiniteSpaceModel):
        # replies weakly decrease through finitely many opens, so every
        # legal infinite continuation stabilizes on a nonempty open
        return GameResult(history, final, True, "II",
                          "stabilized nonempty intersection")
    return GameResult(history, final, False, None,
                      "II alive; infinite verdict out of reach")


def transcript_json(space: SpaceModel, history: History) -> list[dict]:
    out = []
    for u, v in history:
        out.append({"player": "I", "set": space.open_to_json(u)})
        out.append({"player": "II", "set": space.open_to_json(v)})
    return out


# -- scheme extraction --------------------------------------------------------

class _Steps(dict):
    """An extraction's walk, keyed by node: the entry of ``a`` is its step,
    its move, its reply and its deflated history, stepped from its
    parent's entry when first read.  ``by_state`` is keyed by (the
    parent's deflated history, child index), ``enums`` by the reply whose
    pi-base it lists."""

    __slots__ = ("space", "modified", "by_state", "enums")

    def __init__(self, space: SpaceModel, strategy: PlayerII):
        super().__init__()
        self.space = space
        self.modified = modify_strategy(strategy)
        self.by_state: dict[tuple[History, int], tuple] = {}
        self.enums: dict[object, LazySeq] = {}

    def step(self, deflated: History, u, a: Seq) -> tuple:
        space = self.space
        v = self.modified(space, deflated, u)
        # moves come from pi_base_enum, so only the reply is checked
        fault = _fault(space, "reply", v, u)
        if fault:
            raise ExtractionError(f"illegal reply at node {a}: {fault}")
        return u, v, _deflate(space, deflated, u, v)

    def __missing__(self, a: Seq) -> tuple:
        if not a:
            s = self.step((), self.space.whole(), a)
        else:
            deflated = self[a[:-1]][2]
            key = (deflated, a[-1])
            s = self.by_state.get(key)
            if s is None:
                last = last_reply(self.space, deflated)
                enums = self.enums
                if last not in enums:
                    enums[last] = self.space.pi_base_enum(last)
                s = self.by_state[key] = self.step(deflated,
                                                   enums[last][a[-1]], a)
        self[a] = s
        return s


def extract_schemes(space: SpaceModel, strategy: PlayerII) -> tuple[Scheme, Scheme]:
    """Build the move/reply scheme pair generated by the modified strategy.

    The root move is the whole space.  The children of a node enumerate a
    pi-base of its reply (element 0 being the reply itself), and each
    child's reply is the modified strategy's answer on the recorded branch
    history.  Along every branch the recorded pairs form a legal run; the
    caller is responsible for the claim that the base strategy wins.

    The modified strategy reads a history only through its deflation,
    whose last reply is the history's last reply.  So a node's children,
    and its whole subtree, depend only on its deflated history; its own
    pair depends on its parent's deflated history and its index.  Each
    step (child pair and child deflated history) is therefore computed, and
    its reply checked, once per distinct (parent deflated history, child
    index), with the deflation extended one pair at a time.  This assumes
    the base strategy is a function of its arguments: it is called at most
    once per distinct deflated history and child index, not once per
    node.  ``replies.meta["deflated"]`` maps a node to its deflated
    history (see ``reachable_states``).  The walk state is a ``_Steps``,
    which holds no reference to the schemes or to itself, so reference
    counting frees it with the last scheme that reads it."""
    at = _Steps(space, strategy)
    moves = Scheme(space, lambda a: at[a][0], label="extracted-moves")
    replies = Scheme(space, lambda a: at[a][1], label="extracted-replies")
    replies.meta["deflated"] = lambda a: at[a][2]
    return moves, replies


def reachable_states(replies: Scheme, limit: int) -> list[Seq]:
    """One node per deflated history that an extracted replies scheme over a
    finite space reaches, the first met breadth-first from the root.

    A node's children are the steps of its deflated history, and
    ``pi_base_enum`` cycles with period ``p``, the number of nonempty opens
    inside the node's reply; so children ``0..p-1`` are all of them, and
    the walk visits every state of the game, not a window of it.  Past
    ``limit`` states the walk stops, returning ``limit + 1`` of them."""
    space = replies.space
    deflated = replies.meta["deflated"]
    seen: set[History] = set()
    out: list[Seq] = []
    queue = deque([()])
    while queue and len(out) <= limit:
        a = queue.popleft()
        history = deflated(a)
        if history in seen:
            continue
        seen.add(history)
        out.append(a)
        p = len(space.nonempty_opens_inside(replies.node(a)))
        queue.extend(a + (n,) for n in range(p))
    return out


def replay(space: SpaceModel, strategy: PlayerII, moves: Scheme,
           replies: Scheme, nodes) -> Optional[Seq]:
    """Play each node's recorded move once against the modified strategy,
    on its parent's replayed history (``nodes`` lists parents first, as
    ``Window.nodes()`` does); the first node whose reply differs, or None."""
    modified = modify_strategy(strategy)
    histories: dict[Seq, History] = {}
    for a in nodes:
        history = play_round(space, histories[a[:-1]] if a else (),
                             moves.node(a), modified)
        if not space.equal(history[-1][1], replies.node(a)):
            return a
        histories[a] = history
    return None


def replay_branch(space: SpaceModel, strategy: PlayerII, moves: Scheme,
                  replies: Scheme, branch: Seq) -> bool:
    """``replay`` of the nodes along ``branch``: False at a mismatch."""
    return replay(space, strategy, moves, replies,
                  [branch[:k] for k in range(len(branch) + 1)]) is None
