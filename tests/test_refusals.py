"""Every refusal that no suite or command run reaches: each call raises
its error with its message."""

import re

import pytest

from bairekit.choquet import copy_strategy, cylinder_strategy, run_game, \
    scripted_player
from bairekit.cylinder import EMPTY, NdTree, cyl, minimal_antichain
from bairekit.lusin import LusinBase
from bairekit.selector import preset_maps
from bairekit.seq import tuple_at
from bairekit.spaces import BAIRE, FiniteSpaceModel


@pytest.mark.parametrize("call, error, message", [
    (lambda: cylinder_strategy()(BAIRE, (), EMPTY),
     ValueError, "cannot reply inside an empty move"),
    (lambda: run_game(BAIRE, scripted_player([cyl(0)]), copy_strategy(), 0),
     ValueError, "a run needs at least one round"),
    # an antichain with no family has only its concrete members
    (lambda: minimal_antichain(cyl(0)).member(1), IndexError, "1"),
    (lambda: NdTree(lambda w: True, 0).check_shape(),
     ValueError, "branching bound must be positive"),
    (lambda: NdTree(lambda w: True, 1, depth_bound=1).check_shape(),
     ValueError, "member (1,) breaks the branching bound"),
    (lambda: NdTree.level_capped(()), ValueError, "caps must be positive"),
    (lambda: LusinBase(lambda k: cyl(k)).target(2),
     ValueError, "targets are indexed by odd naturals"),
    (lambda: LusinBase(lambda k: "S(1)").target(1),
     ValueError, "target 1 is not an expression: 'S(1)'"),
    (lambda: preset_maps()["three"].resolve((0,)),
     ValueError, "stem shorter than the map depth: (0,)"),
    (lambda: tuple_at(1, 0), ValueError, "only one sequence of length 0"),
    (lambda: FiniteSpaceModel(range(65), []),
     ValueError, "finite model supports at most 64 points"),
    # on one point, the opens 2 and 3 mention a second point
    (lambda: FiniteSpaceModel([0], [0, 1, 2, 3]),
     ValueError, "open 10 mentions unknown points"),
    (lambda: BAIRE.pi_base_enum(EMPTY),
     ValueError, "no pi-base of the empty set"),
], ids=["choquet-empty-move", "choquet-no-round", "cylinder-antichain-end",
        "cylinder-branching", "cylinder-bound", "cylinder-caps",
        "lusin-even-target", "lusin-not-expression", "selector-short-stem",
        "seq-empty-tuple", "spaces-points", "spaces-unknown-points",
        "spaces-empty-pi-base"])
def test_refusal_raises_with_its_message(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
