"""Symbolic workbench for the Baire space: exact cylinder algebra, lazy
Souslin schemes over pluggable space models, synthesis of refined
partition schemes, prefix-map selectors, and a Choquet game engine with
strategy modification and scheme extraction."""

from .cylinder import (Atom, Diff, EMPTY, EmptySetError, Expr, FULL, Inter,
                       NdTree, Union, WindowError, contains_branch, cyl,
                       equal, intersects, is_empty, minimal_antichain,
                       nd_witness, strict_witness, subset, trace_window,
                       witness_cylinder)
from .choquet import (ExtractionError, GameResult, IllegalMoveError,
                      copy_strategy, cylinder_strategy, extract_schemes,
                      last_reply, modify_strategy, play_round,
                      reachable_states, remove_redundant, run_game,
                      scripted_player)
from .grammar import ExprSyntaxError, expr_from_json, expr_to_json, \
    expr_to_text, parse_expr
from .lusin import LusinBase, base_from_lines, build_lusin, \
    check_lusin_conditions, standard_base
from .scheme import (Report, Scheme, Window, branch_nodes, check_covers,
                     check_partitions, check_relabel_identities,
                     dense_in_itself_probe, dump_scheme, fruit_prefix,
                     pi_net_probe, relabel, standard_scheme,
                     strict_branch_probe)
from .selector import PrefixMap, pi_space_probe, preset_maps, \
    stem_class_image
from .seq import BranchRule, Seq, pair, seq_at, seq_to_text, tuple_at, \
    unpair
from .spaces import BAIRE, BaireSpaceModel, FiniteSpaceModel, LazySeq, \
    SpaceModel, all_topologies
from .suites import RunConfig, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
