"""The Choquet game over a space model.

Players alternate nonempty open sets, each inside the previous one; the
second player wins an infinite run when the intersection of their moves is
nonempty.  This module runs finite rounds with full legality checking,
computes the deflation of a history (dropping the repeat pairs), derives
the modified reply rule that echoes repeat moves and consults the base
strategy on the deflated history, and extracts the pair of schemes whose
branches replay the modified strategy against pi-base enumerations.

Verdicts are exact only where they can be: in a finite space every legal
infinite continuation has an eventually constant chain of replies, so a
completed legal run already decides the game for player II.  Over the
Baire model a finite run only reports that player II is still alive.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def validate_history(space: SpaceModel, history: History) -> None:
    """Check the defining chain shape: nonempty opens, each inside the last."""
    limit = space.whole()
    for k, (u, v) in enumerate(history):
        for name, o in (("first", u), ("second", v)):
            if not space.is_open(o):
                raise ValueError(f"pair {k}: {name} move is not an open set")
            if space.is_empty(o):
                raise ValueError(f"pair {k}: {name} move is empty")
        if not space.subset(u, limit):
            raise ValueError(f"pair {k}: move escapes the previous reply")
        if not space.subset(v, u):
            raise ValueError(f"pair {k}: reply escapes the move")
        limit = v


def remove_redundant(space: SpaceModel, history: History) -> History:
    """Drop every pair whose two moves merely repeat the reply before them
    (the zeroth pair repeats the whole space).  Removal is judged against
    the original history, and on legal histories it is idempotent."""
    validate_history(space, history)
    kept = []
    previous = space.whole()
    for u, v in history:
        if not (space.equal(u, previous) and space.equal(v, previous)):
            kept.append((u, v))
        previous = v
    return tuple(kept)


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

    On a first move equal to the whole space the reply is the whole space;
    on any other first move the base rule answers directly.  Later, a move
    repeating the previous reply is echoed back; any other move is passed
    to the base rule along with the deflated history."""

    def reply(space: SpaceModel, history: History, u):
        whole = space.whole()
        if not history:
            if space.equal(u, whole):
                return whole
            return strategy(space, (), u)
        last = history[-1][1]
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


def run_game(space: SpaceModel, player_one: PlayerI, player_two: PlayerII,
             rounds: int) -> GameResult:
    if rounds < 1:
        raise ValueError("a run needs at least one round")
    history: History = ()
    for k in range(rounds):
        limit = history[-1][1] if history else space.whole()
        u = player_one(space, history)
        if not space.is_open(u):
            raise IllegalMoveError("I", k, "move is not an open set")
        if space.is_empty(u):
            raise IllegalMoveError("I", k, "move is empty")
        if not space.subset(u, limit):
            raise IllegalMoveError("I", k, "move escapes the previous reply")
        v = player_two(space, history, u)
        if not space.is_open(v):
            raise IllegalMoveError("II", k, "reply is not an open set")
        if space.is_empty(v):
            raise IllegalMoveError("II", k, "reply is empty")
        if not space.subset(v, u):
            raise IllegalMoveError("II", k, "reply escapes the move")
        history += ((u, v),)
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

def extract_schemes(space: SpaceModel, strategy: PlayerII) -> tuple[Scheme, Scheme]:
    """Build the move/reply scheme pair generated by the modified strategy.

    The root move is the whole space.  The children of a node enumerate a
    pi-base of its reply (element 0 being the reply itself), and each
    child's reply is the modified strategy's answer on the recorded branch
    history.  Along every branch the recorded pairs form a legal run; the
    caller is responsible for the claim that the base strategy wins."""
    modified = modify_strategy(strategy)
    runs: dict[Seq, History] = {}
    enums: dict[Seq, LazySeq] = {}

    def run_to(a: Seq) -> History:
        """The recorded pairs from the root to node ``a``, ``a`` included."""
        if a in runs:
            return runs[a]
        if not a:
            history, u = (), space.whole()
        else:
            parent = a[:-1]
            history = run_to(parent)
            enum = enums.get(parent)
            if enum is None:
                enum = enums[parent] = space.pi_base_enum(history[-1][1])
            u = enum[a[-1]]
        v = modified(space, history, u)
        if space.is_empty(v) or not space.subset(v, u):
            raise ExtractionError(f"illegal reply at node {a}: "
                                  f"{space.describe(v)} against {space.describe(u)}")
        runs[a] = history + ((u, v),)
        return runs[a]

    moves = Scheme(space, lambda a: run_to(a)[-1][0], label="extracted-moves")
    replies = Scheme(space, lambda a: run_to(a)[-1][1], label="extracted-replies")
    return moves, replies


def replay_branch(space: SpaceModel, strategy: PlayerII, moves: Scheme,
                  replies: Scheme, branch: Seq) -> bool:
    """Re-run the modified strategy against the recorded moves along a
    branch and compare with the recorded replies, pair by pair."""
    modified = modify_strategy(strategy)
    script = [moves.node(branch[: k]) for k in range(len(branch) + 1)]
    history: History = ()
    for k, u in enumerate(script):
        v = modified(space, history, u)
        if not space.equal(v, replies.node(branch[: k])):
            return False
        history += ((u, v),)
    return True
