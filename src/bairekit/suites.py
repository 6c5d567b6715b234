"""Named verification suites, shared by the command line and the test rig.

Every suite is deterministic given its seed and window, reports per-check
statuses through the common report type, and passes exactly when it
records no hard violation and no precondition breach.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import chain, product
from typing import Callable, Optional

from . import cylinder as cy
from .choquet import (ExtractionError, PlayerII, copy_strategy,
                      cylinder_strategy, extract_schemes, modify_strategy,
                      reachable_states, remove_redundant, replay,
                      replay_branch)
from .cylinder import Atom, Diff, EMPTY, Expr, FULL, Inter, NdTree, Union
from .grammar import expr_to_text
from .lusin import build_lusin, check_lusin_conditions, standard_base
from .scheme import (BREACH, EmptyTargetError, Report, Scheme, UNRESOLVED,
                     VERIFIED, VIOLATED, Window, check_covers,
                     check_relabel_identities,
                     dense_in_itself_probe, pi_net_probe, preimage_table,
                     relabel, standard_scheme, worst)
from .selector import (PrefixMap, pi_space_probe, preset_maps,
                       stem_class_image)
from .seq import BranchRule, Seq, seq_to_text
from .spaces import BAIRE, FiniteSpaceModel, all_topologies

MAX_DEPTH = 8
MAX_BREADTH = 16
MAX_WINDOW_NODES = 500_000
# the finite suites walk every game state of a space; a discrete space on 8
# points has 545,835 of them, on 7 points 47,293
MAX_GAME_STATES = 100_000


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    suite: str
    depth: Optional[int] = None
    breadth: Optional[int] = None
    seed: int = 0
    space_path: Optional[str] = None

    def window(self, default_depth: int, default_breadth: int) -> Window:
        return checked_window(
            self.depth if self.depth is not None else default_depth,
            self.breadth if self.breadth is not None else default_breadth)


def checked_window(depth: int, breadth: int) -> Window:
    """The window ``depth``/``breadth``; a ConfigError if a guard rejects it."""
    if not 0 <= depth <= MAX_DEPTH:
        raise ConfigError(f"depth {depth} out of range 0..{MAX_DEPTH}")
    if not 1 <= breadth <= MAX_BREADTH:
        raise ConfigError(f"breadth {breadth} out of range 1..{MAX_BREADTH}")
    w = Window(depth, breadth)
    if w.node_count() > MAX_WINDOW_NODES:
        raise ConfigError(f"window {w} has too many nodes")
    return w


def load_space_file(path: str) -> FiniteSpaceModel:
    """The finite space described by a JSON file; a ConfigError if the file
    cannot be read or does not describe a space."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return FiniteSpaceModel.from_json(json.load(fh))
    except (OSError, ValueError, TypeError, RecursionError) as exc:
        raise ConfigError(f"cannot load space {path!r}: {exc}") from exc


# -- random generators --------------------------------------------------------

ATOM_POOL: list[Seq] = list(Window(3, 3).nodes())


def random_expr(rng: random.Random) -> Expr:
    """A random cylinder expression with mentions inside the oracle window."""
    leaves = rng.randint(1, 4)
    exprs: list[Expr] = []
    for _ in range(leaves):
        roll = rng.random()
        if roll < 0.05:
            exprs.append(EMPTY)
        elif roll < 0.10:
            exprs.append(FULL)
        else:
            exprs.append(Atom(rng.choice(ATOM_POOL)))
    while len(exprs) > 1:
        i = rng.randrange(len(exprs) - 1)
        op = rng.choice((Union, Inter, Diff))
        exprs[i: i + 2] = [op(exprs[i], exprs[i + 1])]
    return exprs[0]


# -- suite: cylinders-oracle --------------------------------------------------

def _grid_exprs() -> list[Expr]:
    atoms = [Atom(t) for t in Window(2, 2).nodes()]
    ops = (Union, Inter, Diff)
    single = [op(a, b) for op in ops for a in atoms for b in atoms]
    small = atoms[:4]
    double = [op2(op1(a, b), c)
              for op1 in ops for op2 in ops
              for a in small for b in small for c in small]
    return atoms + single + double


def suite_cylinders_oracle(cfg: RunConfig) -> list[Report]:
    rng = random.Random(cfg.seed)
    rep = Report("cylinders-oracle")
    d, b = 3, 3

    exprs = _grid_exprs()
    exprs += [random_expr(rng) for _ in range(500)]
    # each expression is traced once; every oracle answer below reads it
    traces = [cy.trace_window(e, d, b) for e in exprs]
    for i, e in enumerate(exprs):
        if cy.is_empty(e) != (not traces[i]):
            rep.add(f"emptiness:{i}", VIOLATED, expr_to_text(e))
        if i + 1 < len(exprs):
            other = exprs[i + 1]
            if cy.subset(e, other) != (traces[i] <= traces[i + 1]):
                rep.add(f"inclusion:{i}", VIOLATED,
                        f"{expr_to_text(e)} vs {expr_to_text(other)}")
    words = list(product(range(b + 1), repeat=d))
    for i in rng.sample(range(len(exprs)), 60):
        e, trace = exprs[i], traces[i]
        for w in words:
            if cy.contains_branch(e, BranchRule.periodic(w)) != (w in trace):
                rep.add(f"membership:{i}", VIOLATED,
                        f"{expr_to_text(e)} at {w}")
    rep.summarize("emptiness", ("emptiness:",),
                  f"{len(exprs)} expressions against the window oracle")
    rep.summarize("inclusion", ("inclusion:",),
                  f"{len(exprs) - 1} pairs against the window oracle")
    rep.summarize("membership", ("membership:",),
                  "60 expressions, all window words")

    return [rep, _nd_witness_report(rng)]


def _nd_witness_report(rng: random.Random) -> Report:
    """Brute check of ``nd_witness``: the window words ``c + tail`` through
    the witness ``c`` all lie in the source's trace, and none of them has
    all its prefixes in the tree."""
    rep = Report("nd-witness")
    done = 0
    while done < 100:
        u = random_expr(rng)
        if not cy.trace_window(u, 3, 3):
            continue
        caps = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 2)))
        tree = NdTree.level_capped(caps)
        c = cy.nd_witness(u, tree)
        depth = max(3, len(c)) + 1
        breadth = max(3, max(c) + 1, tree.branching + 1)
        trace = cy.trace_window(u, depth, breadth)
        words = [c + tail for tail in product(range(breadth + 1),
                                              repeat=depth - len(c))]
        if not all(w in trace for w in words):
            rep.add(f"inside:{done}", VIOLATED, f"{c} vs {expr_to_text(u)}")
        if any(all(tree.member(w[: j]) for j in range(1, len(w) + 1))
               for w in words):
            rep.add(f"avoids:{done}", VIOLATED, f"{c} vs caps {caps}")
        done += 1
    rep.summarize("nd-witness", ("inside:", "avoids:"),
                  "100 random source/tree pairs, window-verified")
    return rep


# -- suite: schemes-vg --------------------------------------------------------

G_PRESETS: dict[str, Callable[[int], int]] = {
    "identity": lambda n: n,
    "half": lambda n: n // 2,
    "swap": lambda n: n ^ 1,
}

# the builders are looked up when called, so a rebound name (as perfbench's
# tracer makes) is the one that runs
SCHEME_PRESETS: dict[str, Callable[[], Scheme]] = {
    "standard": lambda: standard_scheme(),
    "lusin-std": lambda: build_lusin(standard_base()),
}
STRATEGY_PRESETS: dict[str, Callable[[], PlayerII]] = {
    "copy": lambda: copy_strategy(),
    "cylinder": lambda: cylinder_strategy(),
}


def suite_schemes_vg(cfg: RunConfig) -> list[Report]:
    window = cfg.window(3, 6)
    reports: list[Report] = []
    # build each base when reached and drop it after its presets
    for make in SCHEME_PRESETS.values():
        base_scheme = make()
        for g_name, g in G_PRESETS.items():
            tag = f"{base_scheme.label}/{g_name}"
            moved = relabel(base_scheme, g)

            rep = check_relabel_identities(base_scheme, g, window)
            rep.name = f"identities[{tag}]"
            reports.append(rep)

            covers = check_covers(moved, window)
            covers.name = f"covers[{tag}]"
            reports.append(covers)

            rep = Report(f"openness[{tag}]")
            space = moved.space
            for a, key in window.keyed():
                source = base_scheme.node(tuple(map(g, a)))
                if space.equal(moved.node(a), source):
                    rep.add(key, VERIFIED)
                else:
                    rep.add(key, VIOLATED,
                            "node is not drawn from the base scheme")
            reports.append(rep)

            reports.append(_pi_net_replay(base_scheme, moved, g, g_name, window))

        moved = relabel(base_scheme, G_PRESETS["half"])
        if base_scheme.label == "standard":
            x = BranchRule.constant(0)
        else:
            # a concrete branch inside the node chain selected by 1.1.1
            stem = cy.witness_cylinder(base_scheme.node((1, 1, 1)))
            x = BranchRule.padded(stem, 0)
        probe = dense_in_itself_probe(moved, x, window)
        probe.summarize("dense", ("",),
                        f"{len(probe.keys)} nodes, two siblings each")
        dense = Report(f"dense[{base_scheme.label}/half]")
        dense.add(probe.keys[-1], probe.statuses[-1], probe.details[-1])
        reports.append(dense)
        del base_scheme, moved
    return reports


def _pi_net_replay(base_scheme: Scheme, moved: Scheme, g, g_name: str,
                   window: Window) -> Report:
    rep = Report(f"pi-net-replay[{base_scheme.label}/{g_name}]")
    space = moved.space
    bound = window.preimage_bound
    roots = [(), (0,), (1, 0)]
    for a in roots:
        ga = tuple(map(g, a))
        for t in range(3):
            target = base_scheme.node(ga + (t,))
            try:
                hit = pi_net_probe(base_scheme, ga, target, 64)
            except EmptyTargetError:
                continue
            key = f"{seq_to_text(a)}:{t}"
            if hit is None:
                rep.add(key, UNRESOLVED, "no base hit within budget")
                continue
            suffix = hit[len(ga):]
            pre = preimage_table(g, 1 + max(suffix, default=-1), bound)
            if any(v not in pre for v in suffix):
                rep.add(key, BREACH, "missing preimage for replay")
                continue
            lifted = a + tuple(pre[v] for v in suffix)
            node = moved.node(lifted)
            if (not space.is_empty(node) and space.subset(node, target)
                    and space.equal(node, base_scheme.node(hit))):
                rep.add(key, VERIFIED)
            else:
                rep.add(key, VIOLATED, "replayed hit does not match")
    return rep


# -- suite: lusin -------------------------------------------------------------

def suite_lusin(cfg: RunConfig) -> list[Report]:
    window = cfg.window(4, 6)
    base = standard_base()
    return [check_lusin_conditions(build_lusin(base), base, window)]


# -- suite: choquet-finite ----------------------------------------------------

def _chain_space() -> FiniteSpaceModel:
    return FiniteSpaceModel([0, 1, 2], [[], [2], [1, 2], [0, 1, 2]])


def suite_choquet_finite(cfg: RunConfig, extra=None) -> list[Report]:
    # ``extra`` is the --space model run_suite loaded; it reports last
    rep = Report("deflation")
    space = _chain_space()
    x, y, z = space.whole(), space.mask_of([1, 2]), space.mask_of([2])
    history = ((x, x), (x, x), (y, y), (y, y), (z, z))
    if remove_redundant(space, history) == ((y, y), (z, z)):
        rep.add("paper-history", VERIFIED, "X,X / X,X / Y,Y / Y,Y / Z,Z")
    else:
        rep.add("paper-history", VIOLATED, "deflation mismatch")
    if remove_redundant(space, ((x, x),)) == ():
        rep.add("zero-pair", VERIFIED)
    else:
        rep.add("zero-pair", VIOLATED)

    rep.extend(_clause_dispatch_report(space, x, y, z))

    reports = [rep, _exhaustive_modified_report()]
    if extra is not None:
        custom = Report("custom-space")
        _add_every_run(custom, [_every_run(extra, custom)])
        reports.append(custom)
    return reports


def _clause_dispatch_report(space: FiniteSpaceModel, x, y, z) -> Report:
    rep = Report("clause-dispatch")
    calls: list[tuple] = []

    def recording(space_, history, u):
        calls.append((history, u))
        return u

    modified = modify_strategy(recording)
    history = ((x, x), (y, y))
    cases = [
        ("first-move-whole", (), x, [],
         "whole-space opener echoed without consulting the base rule"),
        ("first-move-other", (), y, [((), y)],
         "other opener delegated on the empty history"),
        ("echo", history, y, [],
         "repeat move echoed without consulting the base rule"),
        ("deflate", history, z, [(((y, y),), z)],
         "fresh move delegated on the deflated history"),
    ]
    for key, hist, u, delegated, detail in cases:
        calls.clear()
        ok = modified(space, hist, u) == u and calls == delegated
        rep.add(key, VERIFIED if ok else VIOLATED, detail)
    return rep


def _exhaustive_modified_report() -> Report:
    rep = Report("modified-copy-wins")
    expected_counts = {1: 1, 2: 4, 3: 29, 4: 355}
    walks = []
    for n in range(1, 5):
        tops = all_topologies(n)
        if len(tops) != expected_counts[n]:
            rep.add(f"count:{n}", VIOLATED,
                    f"{len(tops)} topologies, expected {expected_counts[n]}")
            continue
        rep.add(f"count:{n}", VERIFIED, f"{len(tops)} topologies")
        for masks in tops:
            walks.append(_every_run(FiniteSpaceModel(range(n), masks), rep))
    _add_every_run(rep, walks, f" over {len(walks)} spaces")
    return rep


def _every_run(space: FiniteSpaceModel, rep: Report) -> tuple[str, int]:
    """Walk every game state of the modified copy strategy on ``space``:
    each reply must be legal, and each legal player-I move must be played.
    The verdict and the number of states; a fault is recorded in ``rep``,
    and a walk past MAX_GAME_STATES states is unresolved."""
    moves, replies = extract_schemes(space, copy_strategy())
    try:
        states = reachable_states(replies, MAX_GAME_STATES)
    except ExtractionError as exc:
        rep.add("illegal-reply", VIOLATED, str(exc))
        return VIOLATED, 0
    if len(states) > MAX_GAME_STATES:
        return UNRESOLVED, 0
    for a in states:
        legal = space.nonempty_opens_inside(replies.node(a))
        played = set(moves.children(a, len(legal)))
        # p plays that are not the p legal moves leave a legal move out
        missed = next((u for u in legal if u not in played), None)
        if missed is not None:
            rep.add("unplayed-move", VIOLATED,
                    f"node {a}: move {space.describe(missed)} is never played")
            return VIOLATED, 0
    return VERIFIED, len(states)


def _add_every_run(rep: Report, walks: list[tuple[str, int]],
                   over: str = "") -> None:
    """The ``exhaustive`` entry for the walks of ``_every_run``."""
    status = worst(s for s, _ in walks)
    detail = {VIOLATED: "every infinite run",
              UNRESOLVED: f"a game graph exceeds {MAX_GAME_STATES} states",
              VERIFIED: f"every infinite run: {sum(n for _, n in walks)} "
                        "game states"}[status]
    rep.add("exhaustive", status, detail + over)


# -- suite: choquet-extract ---------------------------------------------------

def suite_choquet_extract(cfg: RunConfig, extra=None) -> list[Report]:
    # the finite verdicts read every game state, not a window
    rep = Report("extract-finite")
    strategy = copy_strategy()
    spaces = 0
    # each enumerated model is built only when the loop reaches it
    space_models = chain((FiniteSpaceModel(range(n), masks)
                          for n in range(1, 5) for masks in all_topologies(n)),
                         [] if extra is None else [extra])
    branches = list(Window(2, 3).nodes())
    for space in space_models:
        spaces += 1
        moves, replies = extract_schemes(space, strategy)
        states = reachable_states(replies, MAX_GAME_STATES)
        if len(states) > MAX_GAME_STATES:
            rep.add(f"states:{spaces}", UNRESOLVED,
                    f"the game graph exceeds {MAX_GAME_STATES} states")
        else:
            cover_fault, base_fault = _decide_states(space, replies, states)
            if cover_fault:
                rep.add(f"covers:{spaces}", VIOLATED, cover_fault)
            if base_fault:
                rep.add(f"pi-base:{spaces}", VIOLATED, base_fault)
        if replay(space, strategy, moves, replies, branches) is not None:
            rep.add(f"replay:{spaces}", VIOLATED, "branch replay mismatch")
    rep.summarize("covers", ("covers:", "states:"),
                  f"verified cover at every node over {spaces} spaces")
    rep.summarize("pi-base", ("pi-base:", "states:"),
                  "children form a pi-base of every node")
    rep.summarize("replay", ("replay:",),
                  f"{len(branches)} branches per space replay identically")

    return [rep, _baire_extract_report(cfg)]


def _decide_states(space: FiniteSpaceModel, replies: Scheme,
                   states: list[Seq]) -> tuple[Optional[str], Optional[str]]:
    """Decide at every game state, on all ``p`` of its children: each child
    lies inside the node, their union is the node, and every nonempty open
    inside the node contains a child.  The first cover fault and the first
    pi-base fault, each naming its node."""
    cover_fault: Optional[str] = None
    base_fault: Optional[str] = None
    for a in states:
        va = replies.node(a)
        inside = space.nonempty_opens_inside(va)
        children = replies.children(a, len(inside))
        if cover_fault is None:
            escaped, covered, _ = space.family(va, children, False)
            if escaped:
                cover_fault = f"node {a}: child {escaped[0]} escapes the node"
            elif not covered:
                cover_fault = (f"node {a} is not the union of its "
                               f"{len(children)} children")
        if base_fault is None:
            missed = next((u for u in inside if not any(
                space.subset(child, u) for child in children)), None)
            if missed is not None:
                base_fault = (f"node {a}: open {space.describe(missed)} "
                              f"contains no child")
    return cover_fault, base_fault


def _baire_extract_report(cfg: RunConfig) -> Report:
    rep = Report("extract-baire")
    rng = random.Random(cfg.seed)
    strategy = cylinder_strategy()
    moves, replies = extract_schemes(BAIRE, strategy)
    for i in range(20):
        branch = tuple(rng.randint(1, 8) for _ in range(6))
        for k in range(len(branch) + 1):
            node = replies.node(branch[: k])
            if not isinstance(node, Atom) or len(node.entries) < k:
                rep.add(f"length:{i}:{k}", VIOLATED,
                        f"node {expr_to_text(node)} at depth {k}")
        if not replay_branch(BAIRE, strategy, moves, replies, branch):
            rep.add(f"replay:{i}", VIOLATED, seq_to_text(branch))
    rep.summarize("cylinder-growth", ("length:", "replay:"),
                  "20 random branches to depth 6: reply length tracks depth")
    return rep


# -- suite: selectors ---------------------------------------------------------

def _all_prefix_maps(n_points: int, depth: int,
                     alphabet: tuple[int, ...]) -> list[PrefixMap]:
    points = tuple(range(n_points))
    stems = sorted(product(alphabet, repeat=depth))
    out = []
    for values in product(points, repeat=len(stems)):
        for default in points:
            if set(values) | {default} != set(points):
                continue
            assignment = dict(zip(stems, values))
            out.append(PrefixMap.build(points, depth, alphabet, assignment,
                                       default))
    return out


def suite_selectors(cfg: RunConfig) -> list[Report]:
    rep = Report("selector-identities")
    stems = list(Window(2, 3).nodes())
    maps = checked = 0
    for n_points, depth, alphabet in product(range(1, 5), (1, 2),
                                             ((0,), (0, 1))):
        for pm in _all_prefix_maps(n_points, depth, alphabet):
            maps += 1
            # f(f^-1(u) & S(a)) is u & f(S(a)) for every u exactly when the
            # two images of S(a) are equal (u the whole point set), so one
            # set equality decides the stem's 2^n_points instances
            checked += len(stems) << n_points
            for a in stems:
                image, seen = pm.image(a), stem_class_image(pm, a)
                if seen != image:
                    rep.add(f"image:{maps}", VIOLATED, f"{pm.to_json()} a={a} "
                            f"image={sorted(image)} brute={sorted(seen)}")
    rep.summarize("image-identity", ("image:",),
                  f"{checked} instances over {maps} maps")

    probe = Report("pi-space-probe")
    presets = preset_maps()
    for name, pm in presets.items():
        for u in _subsets(pm.points):
            for a in stems:
                try:
                    hit = pi_space_probe(pm, u, a)
                except ValueError:  # an empty basic
                    continue
                if not (pm.image(hit) <= u and hit[: len(a)] == a):
                    probe.add(f"{name}:{sorted(u)}:{seq_to_text(a)}", VIOLATED,
                              f"probe returned {hit}")
    probe.summarize("probe", tuple(f"{name}:" for name in presets),
                    "each nonempty basic contains its least member's cylinder")
    return [rep, probe]


def _subsets(points) -> list[frozenset]:
    pts = tuple(points)
    return [frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
            for mask in range(1 << len(pts))]


# -- dispatch ------------------------------------------------------------------

_SUITE_FNS = {
    "cylinders-oracle": suite_cylinders_oracle,
    "schemes-vg": suite_schemes_vg,
    "lusin": suite_lusin,
    "choquet-finite": suite_choquet_finite,
    "choquet-extract": suite_choquet_extract,
    "selectors": suite_selectors,
}
SUITES = tuple(_SUITE_FNS)
# the suites that read --space; run_suite hands them the model it loaded
SPACE_SUITES = ("choquet-finite", "choquet-extract")


def run_suite(cfg: RunConfig) -> dict:
    """Run the suite ``cfg`` names.  The result is a dict of ``suite``,
    ``seed``, ``config`` (``depth``, ``breadth``, ``space``), ``ok``,
    ``violations``, ``breaches`` and ``reports``, the suite's ``Report``
    objects in order; the writer reads each report's columns, with the
    text ``Report.to_json`` would give, and never calls it."""
    if cfg.suite not in _SUITE_FNS:
        raise ConfigError(f"unknown suite {cfg.suite!r}; "
                          f"choose from {', '.join(SUITES)}")
    # every suite rejects an out-of-range window and a bad space file
    # before any work, also one that reads neither; a window flag left out
    # takes its least value
    cfg.window(0, 1)
    extra = load_space_file(cfg.space_path) if cfg.space_path else None
    fn = _SUITE_FNS[cfg.suite]
    reports = fn(cfg, extra) if cfg.suite in SPACE_SUITES else fn(cfg)
    return {
        "suite": cfg.suite,
        "seed": cfg.seed,
        "config": {"depth": cfg.depth, "breadth": cfg.breadth,
                   "space": cfg.space_path},
        "ok": all(r.ok for r in reports),
        "violations": sum(r.statuses.count(VIOLATED) for r in reports),
        "breaches": sum(r.statuses.count(BREACH) for r in reports),
        "reports": reports,
    }
