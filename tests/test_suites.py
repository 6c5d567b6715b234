import hashlib
import io
import json
from itertools import cycle, repeat

import pytest

import bairekit.choquet as choquet
import bairekit.cylinder as cy
import bairekit.suites as suites
from conftest import records
from bairekit.cli import main
from bairekit.scheme import (Report, Scheme, Window, relabel,
                             standard_scheme)
from bairekit.spaces import BAIRE, FiniteSpaceModel, LazySeq
from bairekit.suites import ConfigError, RunConfig, run_suite


def test_unknown_suite():
    with pytest.raises(ConfigError):
        run_suite(RunConfig(suite="nonsense"))


@pytest.mark.parametrize("suite", suites.SUITES)
@pytest.mark.parametrize("depth, breadth, message", [
    ("99", "0", "depth 99 out of range 0..8"),
    ("3", "0", "breadth 0 out of range 1..16"),
    ("8", "16", "window Window(depth=8, breadth=16) has too many nodes"),
])
def test_every_suite_rejects_a_bad_window_before_any_work(
        monkeypatch, suite, depth, breadth, message):
    def no_work(cfg):
        raise AssertionError("the suite ran")

    monkeypatch.setitem(suites._SUITE_FNS, suite, no_work)
    out = io.StringIO()
    argv = ["verify", "--suite", suite, "--depth", depth, "--breadth", breadth]
    assert main(argv, stdout=out) == 2
    assert out.getvalue() == f"configuration error: {message}\n"


def test_window_guardrails():
    cfg = RunConfig(suite="lusin", depth=9)
    with pytest.raises(ConfigError):
        cfg.window(4, 6)
    cfg = RunConfig(suite="lusin", breadth=17)
    with pytest.raises(ConfigError):
        cfg.window(4, 6)
    cfg = RunConfig(suite="lusin", depth=8, breadth=16)
    with pytest.raises(ConfigError):
        cfg.window(4, 6)  # node count cap


@pytest.mark.parametrize("depth, breadth, nodes", [
    (8, 5, 488_281), (5, 13, 402_234), (5, 14, 579_195), (6, 9, 597_871)])
def test_window_node_cap_edges(depth, breadth, nodes):
    assert Window(depth, breadth).node_count() == nodes
    if nodes <= suites.MAX_WINDOW_NODES:
        assert suites.checked_window(depth, breadth) == Window(depth, breadth)
    else:
        with pytest.raises(ConfigError, match="too many nodes"):
            suites.checked_window(depth, breadth)


def test_run_suite_shape_and_reproducibility():
    cfg = RunConfig(suite="cylinders-oracle", seed=11)
    one = run_suite(cfg)
    two = run_suite(RunConfig(suite="cylinders-oracle", seed=11))
    assert one == two
    assert one["ok"] is True and one["violations"] == 0
    assert {r.name for r in one["reports"]} == {"cylinders-oracle",
                                                 "nd-witness"}
    different = run_suite(RunConfig(suite="cylinders-oracle", seed=12))
    assert different["ok"] is True


# sha256 of `verify --json` reports: how the suites compute their answers
# must not change a byte of what they write
REPORT_DIGESTS = {
    # recorded when the exhaustive entry counted every game state, not the
    # runs of at most four rounds
    ("choquet-finite", 0):
        "a66b58e24c720abe00729c7002481a4bc6ad55519a732ecb8d0dadc4c16ea777",
    ("choquet-finite", 1):
        "69b50d17a9da180375270a68beff25f16ec0655725418744425f1ab8bc3786b0",
    # recorded when every window node was checked, not one per deflated
    # history
    ("choquet-extract", 0):
        "89a79a549bae975dee01c3461b107b2db662e779d738572f4481d4ca8bb16aab",
    ("choquet-extract", 1):
        "550c48ced60a537a4a1378fa8048f1c27a837e8ef4c66e0d43117d6603515047",
    ("cylinders-oracle", 0):
        "d647431c5fa77f281f1588921d845b169ddbb39a97f570b51392a492dd064a8b",
    ("cylinders-oracle", 1):
        "c926e0322ddef7aa0518f957e3619d44eb4e4b44ceaa499d6ea01d603745d279",
    # recorded when the probe named the least member word of each basic,
    # not the first stem within a budget of 50
    ("selectors", 0):
        "35ea767525213125b35bb159c27c01b1f7a43f35a48d802b7abc299294952528",
    # recorded when the suite returned its conditions report only, with no
    # second build to compare
    ("lusin", 0):
        "145ed5eb77aef62bf4dbbb6853e61a001698e17cb9b127a9c43bbb3fd9943fc6",
    # prints the whole space; recorded while it had a leaf type of its own,
    # before it became the atom S()
    ("schemes-vg", 0):
        "c41d11e987c93b332f260f6f21e03cccc664587878f45318d3ad165d911a4384",
}


@pytest.mark.parametrize("suite, seed", list(REPORT_DIGESTS))
def test_oracle_suite_report_digest(tmp_path, suite, seed):
    path = tmp_path / "report.json"
    argv = ["verify", "--suite", suite, "--seed", str(seed),
            "--json", str(path)]
    assert main(argv, stdout=io.StringIO()) == 0
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == REPORT_DIGESTS[suite, seed]


def test_extract_baire_digest(tmp_path):
    path = tmp_path / "extract.json"
    argv = ["extract", "--space", "baire", "--depth", "3", "--breadth", "4",
            "--json", str(path)]
    assert main(argv, stdout=io.StringIO()) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "ce82f37ecca6efcc26cc893f51dc5af220a3246dda02550f6ef1dabf3bcce900"


# reports that print the whole space, recorded while it had a leaf type of
# its own, before it became the atom S()
WHOLE_SPACE_DIGESTS = {
    "build-lusin":
        "42a19870ef9b549ff58120c3467b656494304faafb0b3be1298eb104197f7d85",
    "export --scheme standard --g swap":
        "592ecdf606ef035f605597cd7c269e4f4e33113461a8ed8e7543169ad4ed21e4",
    "export --scheme lusin-std --g half":
        "7f99660ff1f39617924ba3aaed412e114475f96bf98c5d4ec313719ac357e240",
}


@pytest.mark.parametrize("command", list(WHOLE_SPACE_DIGESTS))
def test_whole_space_report_digest(tmp_path, command):
    path = tmp_path / "report.json"
    assert main(command.split() + ["--json", str(path)],
                stdout=io.StringIO()) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        WHOLE_SPACE_DIGESTS[command]


def test_extract_chain_space_digest(tmp_path):
    # recorded when every node's history was rebuilt and deflated in full
    space_file = tmp_path / "chain.json"
    space_file.write_text(json.dumps(
        {"points": [0, 1, 2], "opens": [[], [2], [1, 2], [0, 1, 2]]}))
    path = tmp_path / "extract.json"
    argv = ["extract", "--space", str(space_file), "--depth", "3",
            "--breadth", "4", "--json", str(path)]
    assert main(argv, stdout=io.StringIO()) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "362cb507ab1bc5a347f090a2bc3d73987426d2470c50c3f8d83c4148a7164465"


def test_choquet_extract_node_budget(tmp_path, monkeypatch):
    """The suite builds the replies of the 4 game states of the chain, of
    their children and of the replayed branches: 14 nodes at any window.
    One node per deflated history of the d3/b6 window with its 6 budgeted
    children built 28, and every window node with its children all 1,555
    up to depth 4."""
    monkeypatch.setattr(suites, "all_topologies", lambda n: [])
    extract_schemes = suites.extract_schemes
    built = []

    def counted_extraction(space, strategy):
        moves, replies = extract_schemes(space, strategy)
        if not isinstance(space, FiniteSpaceModel):
            return moves, replies
        rule = replies.rule

        def counted(a):
            built.append(a)
            return rule(a)

        replies.rule = counted
        return moves, replies

    monkeypatch.setattr(suites, "extract_schemes", counted_extraction)
    space_file = tmp_path / "chain.json"
    space_file.write_text(json.dumps(
        {"points": [0, 1, 2], "opens": [[], [2], [1, 2], [0, 1, 2]]}))
    out = run_suite(RunConfig("choquet-extract", depth=3, breadth=6,
                              space_path=str(space_file)))
    assert out["ok"]
    assert len(built) == 14


def test_choquet_extract_describes_a_failed_cover(monkeypatch):
    """An enumeration without the open itself (unless it has no proper
    nonempty sub-open) leaves 366 spaces with a node that is not the union
    of its children, at every window; the detail names the first such
    node."""
    def without_self(space, o):
        return LazySeq(cycle(space.nonempty_opens_inside(o)[:-1] or (o,)))

    monkeypatch.setattr(FiniteSpaceModel, "pi_base_enum", without_self)
    out = run_suite(RunConfig("choquet-extract", depth=2, breadth=3))
    entries = out["reports"][0].to_json()["entries"]
    covers = [e for e in entries if e["key"].startswith("covers:")]
    assert len(covers) == 366
    assert covers[0] == {
        "key": "covers:3", "status": "violated",
        "detail": "node () is not the union of its 2 children"}
    text = json.dumps({**out, "reports": [r.to_json() for r in out["reports"]]},
                      sort_keys=True).encode()
    # recorded when the covers aggregate named its first failing space
    assert hashlib.sha256(text).hexdigest() == \
        "a87bb06eff490ab1bd3b81044ae3a5124a7f794494a0848b9eec78b010e6fe7d"
    for depth, breadth in ((2, 6), (0, 1)):
        other = run_suite(RunConfig("choquet-extract", depth=depth,
                                    breadth=breadth))
        assert other["reports"] == out["reports"]


def _without_self(space, o):
    return LazySeq(cycle(space.nonempty_opens_inside(o)[:-1] or (o,)))


@pytest.mark.parametrize("enum, item, aggregate", [
    # every child is the node itself: no proper sub-open holds a child
    (lambda space, o: LazySeq(repeat(o)),
     {"key": "pi-base:3", "status": "violated",
      "detail": "node (): open {0} contains no child"},
     {"key": "pi-base", "status": "violated",
      "detail": "385 violated, first pi-base:3"}),
    (_without_self,
     {"key": "covers:3", "status": "violated",
      "detail": "node () is not the union of its 2 children"},
     {"key": "covers", "status": "violated",
      "detail": "366 violated, first covers:3"}),
])
def test_choquet_extract_aggregates_name_their_first_fault(monkeypatch, enum,
                                                          item, aggregate):
    monkeypatch.setattr(FiniteSpaceModel, "pi_base_enum", enum)
    out = run_suite(RunConfig("choquet-extract"))
    entries = out["reports"][0].to_json()["entries"]
    assert not out["ok"]
    assert entries[0] == item
    assert next(e for e in entries if e["key"] == aggregate["key"]) \
        == aggregate
    failed = [e for e in entries if e["status"] != "verified"]
    assert not any(e["detail"].startswith("verified") for e in failed)


@pytest.mark.parametrize("status, ok", [
    ("unresolved", True),   # a miss within the budget is no violation
    ("breach", False),
])
def test_schemes_vg_dense_is_the_summary_of_its_probe(monkeypatch, status,
                                                      ok):
    def probe(scheme, x, window):
        rep = Report("dense-in-itself")
        rep.add("1.1", status, "patched probe")
        return rep

    monkeypatch.setattr(suites, "dense_in_itself_probe", probe)
    out = run_suite(RunConfig("schemes-vg"))
    dense = [r.to_json()["entries"] for r in out["reports"]
             if r.name.startswith("dense[")]
    assert dense == [[{"key": "dense", "status": status,
                       "detail": f"1 {status}, first 1.1"}]] * 2
    assert out["ok"] is ok
    assert out["violations"] == 0


def test_schemes_vg_reports_share_their_window_keys():
    """The 26 reports of d4/b6 hold 37,418 entries with 4,682 distinct key
    texts.  The window renders its 1,555 node keys once bare, once with
    ``index:`` and once with ``union:``, and every report reads those very
    objects; a report that rendered its own keys would hold about 37,400
    key objects."""
    reports = suites.suite_schemes_vg(RunConfig("schemes-vg", depth=4,
                                                breadth=6))
    keys = [k for r in reports for k in r.keys]
    assert len(reports) == 26 and len(keys) == 37_418
    assert len(set(keys)) == 4_682
    assert len({id(k) for k in keys}) <= 5_000


def test_schemes_vg_keeps_an_unresolved_dense_probe_unresolved():
    """At depth 2 and breadth 3 the Lusin scheme's probe finds only one
    child through its point at three nodes; that is not a violation."""
    out = run_suite(RunConfig("schemes-vg", depth=2, breadth=3))
    dense = next(r for r in out["reports"]
                 if r.name == "dense[lusin[std]/half]")
    assert dense.to_json()["entries"] == [{"key": "dense", "status": "unresolved",
                                 "detail": "3 unresolved, first ε"}]
    assert out["ok"]


_identity = suites.G_PRESETS["identity"]


def _replay(base, moved, g=_identity):
    rep = suites._pi_net_replay(base, moved, g, "g", Window(2, 3))
    return records(rep)


def test_pi_net_replay_skips_an_empty_target():
    """The root's child 2 is empty, so the probe from the root has no
    target there and writes no entry; every other target replays."""
    holey = Scheme(BAIRE, lambda a: cy.EMPTY if a == (2,) else cy.Atom(a))
    entries = _replay(holey, relabel(holey, _identity))
    keys = [key for key, _, _ in entries]
    assert "ε:2" not in keys and len(keys) == 8
    assert {(status, detail) for _, status, detail in entries} == \
        {("verified", "")}


def test_pi_net_replay_without_a_hit_is_unresolved(monkeypatch):
    monkeypatch.setattr(suites, "pi_net_probe", lambda *args: None)
    base = standard_scheme()
    entries = _replay(base, relabel(base, _identity))
    assert len(entries) == 9
    assert {(status, detail) for _, status, detail in entries} == \
        {("unresolved", "no base hit within budget")}


def test_pi_net_replay_without_a_preimage_is_a_breach():
    """A constant relabeling reaches only value 0: a hit through child 1
    or 2 has no preimage to replay."""
    base = standard_scheme()
    zero = lambda n: 0
    entries = _replay(base, relabel(base, zero), zero)
    assert entries[:3] == [
        ("ε:0", "verified", ""),
        ("ε:1", "breach", "missing preimage for replay"),
        ("ε:2", "breach", "missing preimage for replay")]


def test_pi_net_replay_through_a_wrong_view_is_violated():
    """The view relabels by ``n ^ 1`` while the replay assumes the
    identity, so no replayed node is the base's hit."""
    base = standard_scheme()
    entries = _replay(base, relabel(base, suites.G_PRESETS["swap"]))
    assert len(entries) == 9
    assert {(status, detail) for _, status, detail in entries} == \
        {("violated", "replayed hit does not match")}


def test_schemes_vg_openness_of_a_wrong_view_is_violated(monkeypatch):
    real = suites.relabel
    monkeypatch.setattr(suites, "relabel",
                        lambda scheme, g: real(scheme, lambda n: g(n) ^ 1))
    out = run_suite(RunConfig("schemes-vg", depth=1, breadth=2))
    [rep] = [r for r in out["reports"]
             if r.name == "openness[standard/identity]"]
    assert records(rep) == [
        ("ε", "verified", ""),
        ("0", "violated", "node is not drawn from the base scheme"),
        ("1", "violated", "node is not drawn from the base scheme")]
    assert not out["ok"]


def _chain_file(tmp_path, n):
    """A space file of the final segments of ``range(n)``."""
    space = FiniteSpaceModel(range(n), [0] + [(1 << n) - (1 << k)
                                             for k in range(n)])
    path = tmp_path / f"chain{n}.json"
    path.write_text(json.dumps(space.to_json()))
    return path


def _custom_space_entries(space_file):
    out = run_suite(RunConfig("choquet-finite", space_path=str(space_file)))
    custom = out["reports"][-1].to_json()
    assert custom["name"] == "custom-space"
    return out["ok"], custom["entries"]


def test_choquet_finite_catches_a_deep_illegal_reply(tmp_path, monkeypatch):
    """A reply that turns illegal once the deflated history holds four
    pairs.  On the 6-point chain that first happens five rounds deep, past
    every run of at most four rounds; on at most 4 points, never."""
    def whole_when_deep(space, history, u):
        return space.whole() if len(history) >= 4 else u

    monkeypatch.setattr(suites, "copy_strategy", lambda: whole_when_deep)
    ok, entries = _custom_space_entries(_chain_file(tmp_path, 6))
    assert not ok
    assert entries == [
        {"key": "illegal-reply", "status": "violated",
         "detail": "illegal reply at node (5, 4, 3, 2, 1): "
                   "reply escapes the move"},
        {"key": "exhaustive", "status": "violated",
         "detail": "every infinite run"}]


def test_choquet_finite_needs_every_legal_move_played(monkeypatch):
    """An enumeration of the open alone offers player I no move but the
    reply itself: every space with a proper nonempty sub-open (all 389 but
    the 4 indiscrete ones) has a legal move that is never played."""
    monkeypatch.setattr(FiniteSpaceModel, "pi_base_enum",
                        lambda space, o: LazySeq(repeat(o)))
    out = run_suite(RunConfig("choquet-finite"))
    wins = out["reports"][1].to_json()
    unplayed = [e for e in wins["entries"] if e["key"] == "unplayed-move"]
    assert len(unplayed) == 385
    assert unplayed[0]["detail"] == "node (): move {0} is never played"
    assert wins["entries"][-1] == {"key": "exhaustive", "status": "violated",
                                   "detail": "every infinite run over 389 "
                                             "spaces"}


def test_choquet_finite_walks_every_state_of_a_long_chain(tmp_path):
    """The 8-point chain has one game state per set of its 7 proper nonempty
    opens; 29 of them hold more than 4 pairs."""
    path = tmp_path / "report.json"
    argv = ["verify", "--suite", "choquet-finite", "--space",
            str(_chain_file(tmp_path, 8)), "--json", str(path)]
    assert main(argv, stdout=io.StringIO()) == 0
    custom = json.loads(path.read_text())["reports"][-1]
    assert custom["entries"] == [
        {"key": "exhaustive", "status": "verified",
         "detail": "every infinite run: 128 game states"}]
    space = suites.load_space_file(str(_chain_file(tmp_path, 8)))
    _moves, replies = suites.extract_schemes(space, suites.copy_strategy())
    states = suites.reachable_states(replies, suites.MAX_GAME_STATES)
    pairs = [len(replies.meta["deflated"](a)) for a in states]
    assert len(pairs) == 128 and sum(k > 4 for k in pairs) == 29


def test_game_walk_stops_past_the_state_bound(tmp_path, monkeypatch):
    """The discrete 6-point space has 4,683 game states: past a bound of
    1,000 both finite suites leave it unresolved, not verified."""
    space_file = tmp_path / "discrete6.json"
    space_file.write_text(json.dumps(
        FiniteSpaceModel.discrete(tuple(range(6))).to_json()))
    assert _custom_space_entries(space_file)[1] == [
        {"key": "exhaustive", "status": "verified",
         "detail": "every infinite run: 4683 game states"}]

    monkeypatch.setattr(suites, "MAX_GAME_STATES", 1_000)
    ok, entries = _custom_space_entries(space_file)
    assert ok and entries == [
        {"key": "exhaustive", "status": "unresolved",
         "detail": "a game graph exceeds 1000 states"}]
    out = run_suite(RunConfig("choquet-extract",
                              space_path=str(space_file)))
    finite = {e["key"]: (e["status"], e["detail"])
              for e in out["reports"][0].to_json()["entries"]}
    assert finite["states:390"] == ("unresolved",
                                    "the game graph exceeds 1000 states")
    assert finite["covers"][0] == finite["pi-base"][0] == "unresolved"
    assert not any(k.startswith(("covers:", "pi-base:")) for k in finite)


def test_cylinders_oracle_trace_budget(monkeypatch):
    # one trace per expression, plus the nd-witness windows: 1,230 suite
    # expressions, 145 drawn sources and 100 witness windows at seed 1
    calls = 0
    trace_window = cy.trace_window

    def counted(e, depth, breadth):
        nonlocal calls
        calls += 1
        return trace_window(e, depth, breadth)

    monkeypatch.setattr(cy, "trace_window", counted)
    assert run_suite(RunConfig(suite="cylinders-oracle", seed=1))["ok"]
    assert calls <= 1475


def test_choquet_extract_plays_each_window_round_once(tmp_path, monkeypatch):
    """At d3/b6, seed 1, each of the 389 spaces replays the 13 nodes of
    ``Window(2, 3)`` once, and the Baire section 20 branches of 7 rounds:
    5,197 rounds, against 13,366 when every window node was replayed from
    the root.  A ``--space`` file is loaded once per run."""
    calls = {"play_round": 0, "remove_redundant": 0, "from_json": 0}

    def counted(fn, name):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    for name in ("play_round", "remove_redundant"):
        monkeypatch.setattr(choquet, name, counted(getattr(choquet, name),
                                                   name))
    monkeypatch.setattr(FiniteSpaceModel, "from_json", classmethod(counted(
        FiniteSpaceModel.from_json.__func__, "from_json")))
    argv = ["verify", "--suite", "choquet-extract", "--depth", "3",
            "--breadth", "6", "--seed", "1"]
    assert main(argv, stdout=io.StringIO()) == 0
    assert calls == {"play_round": 5_197, "remove_redundant": 6_870,
                     "from_json": 0}
    space = ["--space", str(_chain_file(tmp_path, 3))]
    for suite in ("choquet-extract", "choquet-finite"):
        calls["from_json"] = 0
        assert main(["verify", "--suite", suite] + space,
                    stdout=io.StringIO()) == 0
        assert calls["from_json"] == 1


def test_choquet_extract_names_each_space_whose_replay_differs(monkeypatch):
    """A recorded reply corrupted at window node (2, 1) in every 40th
    space: the replay entries name exactly those spaces."""
    extract_schemes = suites.extract_schemes
    seen = 0

    def corrupted(space, strategy):
        nonlocal seen
        moves, replies = extract_schemes(space, strategy)
        seen += 1
        if seen % 40 == 0:
            rule = replies.rule
            replies.rule = lambda a: 0 if a == (2, 1) else rule(a)
        return moves, replies

    monkeypatch.setattr(suites, "extract_schemes", corrupted)
    out = run_suite(RunConfig("choquet-extract", seed=1))
    entries = [e for e in records(out["reports"][0])
               if e[0].startswith("replay")]
    assert entries == [(f"replay:{n}", "violated", "branch replay mismatch")
                       for n in range(40, 390, 40)] + \
        [("replay", "violated", "9 violated, first replay:40")]


# -- self-checks that can fail --------------------------------------------------
# Each row makes one decision a suite's self-check reads come out wrong and
# names the suite, the report, the first entry that must turn violated and
# the aggregate entry that must name it (None where the report has none).

def _first_answer_flipped(monkeypatch, owner, name):
    """``owner.name`` answering the other way on its first call only."""
    real = getattr(owner, name)
    calls = []

    def wrong(*args):
        calls.append(args)
        return real(*args) != (len(calls) == 1)

    monkeypatch.setattr(owner, name, wrong)


def _trace_misses_the_witness(monkeypatch):
    # the source check reads the 3/3 trace; each witness check reads a
    # deeper one, which now holds no word
    real = cy.trace_window
    monkeypatch.setattr(cy, "trace_window", lambda u, depth, breadth: (
        real(u, depth, breadth) if depth == 3 else frozenset()))


def _tree_holds_every_word(monkeypatch):
    real = cy.NdTree.level_capped
    monkeypatch.setattr(cy.NdTree, "level_capped", staticmethod(
        lambda caps: cy.NdTree(lambda w: True, real(caps).branching)))


def _deflation_keeps(length):
    """``remove_redundant`` keeping every history of ``length`` pairs."""
    def patch(monkeypatch):
        real = suites.remove_redundant
        monkeypatch.setattr(suites, "remove_redundant", lambda space, h: (
            h if len(h) == length else real(space, h)))
    return patch


def _one_topology_short(monkeypatch):
    real = suites.all_topologies
    monkeypatch.setattr(suites, "all_topologies",
                        lambda n: real(n)[:-1] if n == 3 else real(n))


def _replies_not_atoms(monkeypatch):
    real = suites.extract_schemes

    def extract(space, strategy):
        moves, replies = real(space, strategy)
        if space is not BAIRE:
            return moves, replies
        return moves, Scheme(space, lambda a: cy.Union(replies.node(a),
                                                       cy.EMPTY))

    monkeypatch.setattr(suites, "extract_schemes", extract)


def _probe_hit_off_its_stem(monkeypatch):
    real = suites.pi_space_probe
    monkeypatch.setattr(suites, "pi_space_probe",
                        lambda pm, u, stem: (9,) + real(pm, u, stem))


@pytest.mark.parametrize("suite, wrong, report, entry, aggregate", [
    ("cylinders-oracle",
     lambda mp: _first_answer_flipped(mp, cy, "is_empty"),
     "cylinders-oracle", "emptiness:0", "emptiness"),
    ("cylinders-oracle",
     lambda mp: _first_answer_flipped(mp, cy, "subset"),
     "cylinders-oracle", "inclusion:0", "inclusion"),
    ("cylinders-oracle",
     lambda mp: _first_answer_flipped(mp, cy, "contains_branch"),
     "cylinders-oracle", "membership:", "membership"),
    ("cylinders-oracle", _trace_misses_the_witness,
     "nd-witness", "inside:0", "nd-witness"),
    ("cylinders-oracle", _tree_holds_every_word,
     "nd-witness", "avoids:0", "nd-witness"),
    ("choquet-finite", _deflation_keeps(5),
     "deflation", "paper-history", None),
    ("choquet-finite", _deflation_keeps(1),
     "deflation", "zero-pair", None),
    ("choquet-finite", _one_topology_short,
     "modified-copy-wins", "count:3", None),
    ("choquet-extract", _replies_not_atoms,
     "extract-baire", "length:0:0", "cylinder-growth"),
    ("choquet-extract",
     lambda mp: mp.setattr(suites, "replay_branch", lambda *args: False),
     "extract-baire", "replay:0", "cylinder-growth"),
    ("selectors", _probe_hit_off_its_stem,
     "pi-space-probe", "two:", "probe"),
], ids=["emptiness", "inclusion", "membership", "nd-inside", "nd-avoids",
        "paper-history", "zero-pair", "topology-count", "baire-length",
        "baire-replay", "pi-space-probe"])
def test_a_wrong_decision_fails_its_self_check(monkeypatch, suite, wrong,
                                               report, entry, aggregate):
    wrong(monkeypatch)
    out = run_suite(RunConfig(suite))
    rep = next(r for r in out["reports"] if r.name == report)
    # the first violated entry, which ``entry`` names or begins
    first = next(k for k, s in zip(rep.keys, rep.statuses) if s == "violated")
    assert first == entry or (entry.endswith(":") and first.startswith(entry))
    if aggregate is not None:
        at = rep.keys.index(aggregate)
        assert rep.statuses[at] == "violated"
        assert rep.details[at].endswith(f", first {first}")
    assert not rep.ok and not out["ok"]
