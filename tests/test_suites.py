import hashlib
import io
import json
from itertools import cycle, repeat

import pytest

import bairekit.cylinder as cy
import bairekit.suites as suites
from bairekit.cli import main
from bairekit.scheme import Report
from bairekit.spaces import FiniteSpaceModel, LazySeq
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


def test_schemes_vg_keeps_an_unresolved_dense_probe_unresolved():
    """At depth 2 and breadth 3 the Lusin scheme's probe finds only one
    child through its point at three nodes; that is not a violation."""
    out = run_suite(RunConfig("schemes-vg", depth=2, breadth=3))
    dense = next(r for r in out["reports"]
                 if r.name == "dense[lusin[std]/half]")
    assert dense.to_json()["entries"] == [{"key": "dense", "status": "unresolved",
                                 "detail": "3 unresolved, first ε"}]
    assert out["ok"]


def test_lusin_rebuild_that_differs_at_one_deepest_node_is_violated(
        monkeypatch):
    """The rebuild is compared node by node: a second build whose node at
    one deepest window index is the same set written differently fails."""
    real = suites.build_lusin
    builds = []

    def build(base):
        scheme = real(base)
        if builds:
            rule = scheme.rule
            scheme.rule = lambda a, *count: (
                cy.Inter(rule(a), cy.FULL) if a == (5, 5, 5, 5) and not count
                else rule(a, *count))
        builds.append(scheme)
        return scheme

    def rebuild_entry():
        out = run_suite(RunConfig("lusin"))
        [rep] = [r for r in out["reports"] if r.name == "lusin-determinism"]
        return [(e.key, e.status, e.detail) for e in rep.entries]

    assert rebuild_entry() == [("rebuild", "verified",
                                "window dumps are identical")]
    monkeypatch.setattr(suites, "build_lusin", build)
    assert rebuild_entry() == [("rebuild", "violated",
                                "rebuild changed the scheme")]
    assert len(builds) == 2


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
