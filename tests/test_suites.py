import hashlib
import io
import json
from itertools import cycle

import pytest

import bairekit.cylinder as cy
import bairekit.suites as suites
from bairekit.cli import main
from bairekit.spaces import FiniteSpaceModel, LazySeq
from bairekit.suites import ConfigError, RunConfig, run_suite


def test_unknown_suite():
    with pytest.raises(ConfigError):
        run_suite(RunConfig(suite="nonsense"))


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
    assert {r["name"] for r in one["reports"]} == {"cylinders-oracle",
                                                   "nd-witness"}
    different = run_suite(RunConfig(suite="cylinders-oracle", seed=12))
    assert different["ok"] is True


# sha256 of `verify --json` reports: how the suites compute their answers
# must not change a byte of what they write
REPORT_DIGESTS = {
    ("choquet-finite", 0):
        "91cd475c133fdec14c7ade56109c8a8347e20eaeec696049ce52ed80c7d92eed",
    ("choquet-finite", 1):
        "72089f276095de7b3c439eceb21da181b29824497ac1dbcc1aebe880d8569a06",
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
    ("selectors", 0):
        "c8ed521f2c2925bcf9c6b8f354f8128673b870b92d7f630e7d190ccc33904515",
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
    """The suite builds the replies of one node per deflated history, of its
    budgeted children and of the replayed branches: 28 nodes on the chain
    at d3/b6, where checking every window node builds all 1,555 up to depth
    4."""
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
    assert len(built) == 28


def test_choquet_extract_describes_a_failed_cover(monkeypatch):
    """An enumeration without the open itself (unless it has no proper
    nonempty sub-open) leaves nodes uncovered.  The report, per-node detail
    included, is the one recorded when every window node was checked."""
    def without_self(space, o):
        return LazySeq(cycle(space.nonempty_opens_inside(o)[:-1] or (o,)))

    monkeypatch.setattr(FiniteSpaceModel, "pi_base_enum", without_self)
    out = run_suite(RunConfig("choquet-extract", depth=2, breadth=3))
    entries = out["reports"][0]["entries"]
    covers = [e for e in entries if e["key"].startswith("covers:")]
    assert len(covers) == 374
    assert covers[0] == {
        "key": "covers:3", "status": "violated",
        "detail": "covers: ok (verified 13, violated 0, unresolved 1, "
                  "breach 0)"}
    text = json.dumps(out, sort_keys=True).encode()
    assert hashlib.sha256(text).hexdigest() == \
        "d15a185c2ff74f7e7d1e0e3f07217888dbf62b2060cba4e1b3df69894dc84c79"


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
