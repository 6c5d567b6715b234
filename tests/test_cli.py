import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bairekit.cli as cli
import bairekit.suites as suites
from conftest import report_of
from bairekit.choquet import IllegalMoveError
from bairekit.cli import main
from bairekit.scheme import BREACH, UNRESOLVED, VERIFIED, VIOLATED, Report
from bairekit.spaces import FiniteSpaceModel, all_topologies

STATUSES = (VERIFIED, VIOLATED, UNRESOLVED, BREACH)


def run_cli(argv, stdin_text=""):
    out = io.StringIO()
    code = main(argv, stdin=io.StringIO(stdin_text), stdout=out)
    return code, out.getvalue()


def test_verify_suite_passes(tmp_path):
    report = tmp_path / "report.json"
    code, out = run_cli(["verify", "--suite", "choquet-finite",
                         "--seed", "3", "--json", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["ok"] is True and data["suite"] == "choquet-finite"
    assert "pass" in out


def test_verify_reports_are_reproducible(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _ = run_cli(["verify", "--suite", "lusin", "--seed", "7",
                           "--json", str(p)])
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv, tail", [
    (["verify", "--suite", "cylinders-oracle"], 1),
    (["verify", "--suite", "schemes-vg", "--depth", "2", "--breadth", "3"], 1),
    (["verify", "--suite", "lusin", "--depth", "2", "--breadth", "3"], 1),
    (["verify", "--suite", "choquet-finite"], 1),
    (["verify", "--suite", "choquet-extract", "--depth", "1",
      "--breadth", "2"], 1),
    (["verify", "--suite", "selectors"], 1),
    (["build-lusin", "--depth", "2", "--breadth", "3"], 1),
    (["extract", "--depth", "1", "--breadth", "2"], 0),
    (["export", "--scheme", "lusin-std", "--g", "half", "--depth", "2",
      "--breadth", "3"], 0),
], ids=["cylinders-oracle", "schemes-vg", "lusin", "choquet-finite",
        "choquet-extract", "selectors", "build-lusin", "extract", "export"])
def test_verify_report_bytes_match_json_dumps(tmp_path, argv, tail):
    """The JSON of every command, in the file and on stdout, is the text
    of ``json.dumps(indent=2, sort_keys=True)`` and a newline; ``tail``
    lines of summary follow it on stdout."""
    report = tmp_path / "report.json"
    code, _ = run_cli(argv + ["--json", str(report)])
    assert code == 0
    text = report.read_text(encoding="utf-8")
    expected = json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    assert report.read_bytes() == expected.encode("utf-8")
    code, out = run_cli(argv)
    assert code == 0
    assert out.startswith(expected)
    assert out[len(expected):].count("\n") == tail
    if argv[0] == "verify":
        assert out[len(expected):] == \
            f"suite {argv[2]}: pass (0 violations, 0 breaches)\n"


_KEYS = st.text(st.sampled_from("aZ0 ε\"\\/\n\t\x00\x1f\x7f\u2028é"),
                max_size=4)
_TEXTS = _KEYS | st.text(max_size=6)
_REPORTS = st.builds(
    report_of, _TEXTS,
    st.lists(st.tuples(_KEYS, st.sampled_from(STATUSES), _TEXTS),
             max_size=3))
_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXTS | _REPORTS,
    lambda sub: st.lists(sub, max_size=4)
    | st.dictionaries(_KEYS, sub, max_size=4),
    max_leaves=24)


def _plain(value):
    """``value`` with each ``Report`` in it replaced by its ``to_json()``."""
    if isinstance(value, Report):
        return value.to_json()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


@given(_VALUES)
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_write_json_matches_json_dumps(value):
    expected = json.dumps(_plain(value), indent=2, sort_keys=True) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.json")
        cli._write_json(value, path, None)
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")
    out = io.StringIO()
    cli._write_json(value, None, out)
    assert out.getvalue() == expected


def test_write_json_builds_no_entry_dict(monkeypatch):
    """A ``Report`` is written from its fields without ``to_json``, at top
    level, in a list and under ``conditions``; writing one of 20,000
    entries holds no more than a few entries' text at a time."""
    reports = [Report(f"r{i}") for i in range(3)]
    for i, rep in enumerate(reports):
        for j, status in enumerate(STATUSES):
            rep.add(f"r{i}e{j}", status, f"d{j}" if j else "")
    cases = [reports[1], Report("empty"),
             {"a": 1, "reports": reports, "tail": {"conditions": reports[0]}}]
    expected = [json.dumps(_plain(data), indent=2, sort_keys=True) + "\n"
                for data in cases]

    def refuse(self):
        raise AssertionError("the writer called Report.to_json")

    monkeypatch.setattr(Report, "to_json", refuse)
    for data, text in zip(cases, expected):
        out = io.StringIO()
        cli._write_json(data, None, out)
        assert out.getvalue() == text

    big = Report("big")
    for j in range(20_000):
        big.add(f"key {j}", STATUSES[j % 4], f"detail {j}")
    null = SimpleNamespace(write=len)
    tracemalloc.start()
    try:
        cli._write_json(big, None, null)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_verify_schemes_vg_replays_past_the_breadth(tmp_path):
    # the probe's hits use child index 2, past a breadth-2 window; each
    # hit's preimages are looked up for its own entries
    report = tmp_path / "report.json"
    code, out = run_cli(["verify", "--suite", "schemes-vg", "--depth", "1",
                         "--breadth", "2", "--json", str(report)])
    assert code == 0 and "0 breaches" in out
    data = json.loads(report.read_text())
    replays = [r for r in data["reports"]
               if r["name"].startswith("pi-net-replay[")]
    assert len(replays) == 6
    assert all(r["counts"] == {"breach": 0, "unresolved": 0, "verified": 9,
                               "violated": 0} for r in replays)


def run_module(argv):
    """``python -m bairekit ARGV`` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "bairekit", *argv],
                          env=env, capture_output=True, text=True, timeout=300)


def test_python_dash_m_runs_the_command_line(tmp_path):
    proc = run_module(["verify", "--suite", "lusin",
                       "--json", str(tmp_path / "report.json")])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "suite lusin: pass (0 violations, 0 breaches)\n"


def test_verify_guardrails():
    code, out = run_cli(["verify", "--suite", "lusin", "--depth", "20"])
    assert code == 2 and "configuration error" in out
    code, out = run_cli(["verify", "--suite", "lusin", "--breadth", "17"])
    assert code == 2


def test_verify_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as err:
        run_cli(["verify", "--suite", "nonsense"])
    assert err.value.code == 2


def test_verify_unreadable_space_file(tmp_path):
    code, out = run_cli(["verify", "--suite", "choquet-finite",
                         "--space", str(tmp_path / "missing.json")])
    assert code == 2 and "configuration error" in out


@pytest.mark.parametrize("suite", suites.SUITES)
def test_every_suite_rejects_a_bad_space_file_before_any_work(
        tmp_path, monkeypatch, suite):
    """Also the suites that read no space: one line, exit 2, and the
    suite itself never runs."""
    monkeypatch.setitem(suites._SUITE_FNS, suite, None)
    for path, text in (("missing.json", None), ("bad.json", "{")):
        if text is not None:
            (tmp_path / path).write_text(text)
        code, out = run_cli(["verify", "--suite", suite,
                             "--space", str(tmp_path / path)])
        assert code == 2
        [line] = out.splitlines()
        assert line.startswith("configuration error: cannot load space ")


@pytest.mark.parametrize("opens", [[[], [7], [0, 1]], [[], [[1]], [0, 1]]],
                         ids=["unknown-point", "nested-list"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "choquet-finite"],
    ["verify", "--suite", "choquet-extract", "--depth", "1", "--breadth", "1"],
    ["extract"],
], ids=["choquet-finite", "choquet-extract", "extract"])
def test_malformed_space_file_is_configuration_error(tmp_path, opens, argv):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"points": [0, 1], "opens": opens}))
    code, out = run_cli(argv + ["--space", str(space_file)])
    assert code == 2 and "configuration error" in out


@pytest.mark.parametrize("space", [
    {"points": [0, 1], "opens": [[], [0, 1], [0], 2]},
    {"points": [True, 1, 2], "opens": [[], [1], [True, 1, 2]]},
    {"points": [0, 1], "opens": [[], [False], [0, 1]]},
    {"points": [0, 1.0], "opens": [[], [0, 1.0]]},
    {"points": ["0", "1"], "opens": [[], ["0", "1"]]},
    {"points": [0, 0, 1], "opens": [[], [0, 1]]},
    {"points": 2, "opens": [[], [0, 1]]},
    {"points": [0, 1], "opens": 3},
], ids=["open-as-mask", "bool-point", "bool-in-open", "float-point",
        "string-points", "repeated-point", "points-not-list",
        "opens-not-list"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "choquet-finite"],
    ["verify", "--suite", "choquet-extract", "--depth", "1", "--breadth", "1"],
    ["extract", "--depth", "1", "--breadth", "1"],
], ids=["choquet-finite", "choquet-extract", "extract"])
def test_ill_typed_space_file_is_configuration_error(tmp_path, space, argv):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(space))
    code, out = run_cli(argv + ["--space", str(space_file)])
    assert code == 2
    [line] = out.splitlines()
    assert line.startswith("configuration error: cannot load space")


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "choquet-finite"],
    ["verify", "--suite", "choquet-extract", "--depth", "1", "--breadth", "1"],
    ["extract"],
], ids=["choquet-finite", "choquet-extract", "extract"])
def test_space_file_with_too_many_opens_is_configuration_error(tmp_path,
                                                                argv):
    opens = [[p for p in range(12) if m >> p & 1] for m in range(2049)]
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"points": list(range(12)),
                                      "opens": opens}))
    code, out = run_cli(argv + ["--space", str(space_file)])
    assert code == 2 and "configuration error" in out
    assert "at most 2048 opens" in out


def test_choquet_extract_rejects_bad_space_before_enumerating(tmp_path,
                                                             monkeypatch):
    def enumerate_topologies(n):
        raise AssertionError("topologies enumerated before the space loaded")

    monkeypatch.setattr("bairekit.suites.all_topologies", enumerate_topologies)
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps({"points": [0, 1], "opens": [[], [7]]}))
    code, out = run_cli(["verify", "--suite", "choquet-extract",
                         "--space", str(space_file)])
    assert code == 2 and "configuration error" in out


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "choquet-finite"],
    ["verify", "--suite", "choquet-extract"],
    ["extract"],
], ids=["choquet-finite", "choquet-extract", "extract"])
def test_deeply_nested_space_file_is_configuration_error(tmp_path, monkeypatch,
                                                         argv):
    def enumerate_topologies(n):
        raise AssertionError("topologies enumerated before the space loaded")

    monkeypatch.setattr("bairekit.suites.all_topologies", enumerate_topologies)
    space_file = tmp_path / "space.json"
    space_file.write_text("[" * 100_000)
    code, out = run_cli(argv + ["--space", str(space_file)])
    assert code == 2
    [line] = out.splitlines()
    assert line.startswith("configuration error: cannot load space")


@pytest.mark.parametrize("line", [
    "(" * 2000 + "S(0)" + ")" * 2000,
    "|".join(f"S({i})" for i in range(3000)),
], ids=["deep-parentheses", "long-union"])
def test_build_lusin_rejects_too_deep_base(tmp_path, line):
    base = tmp_path / "base.txt"
    base.write_text(line + "\n")
    code, out = run_cli(["build-lusin", "--base", str(base), "--depth", "2",
                         "--breadth", "2"])
    assert code == 2
    assert out.startswith("configuration error") and out.count("\n") == 1


def test_build_lusin_long_union_base(tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("|".join(f"S({i})" for i in range(200)) + "\n")
    code, out = run_cli(["build-lusin", "--base", str(base), "--depth", "2",
                         "--breadth", "2", "--json", str(tmp_path / "s.json")])
    assert code == 0 and "lusin-conditions: ok" in out


def _zeros(n):
    return "S(" + ",".join(["0"] * n) + ")"


@pytest.mark.parametrize("line", [
    f"{_zeros(1000)} \\ {_zeros(1001)}",
    f"{_zeros(3000)} \\ {_zeros(3001)}",
    _zeros(1000),
], ids=["diff-1000", "diff-3000", "atom-1000"])
def test_build_lusin_long_stem_base(tmp_path, line):
    # the carve node's child 0 is a difference whose antichain descent
    # walks the whole stem; it must not exhaust the interpreter stack
    base = tmp_path / "base.txt"
    base.write_text(line + "\n")
    proc = run_module(["build-lusin", "--base", str(base), "--depth", "2",
                       "--breadth", "2", "--json", str(tmp_path / "s.json")])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "lusin-conditions: ok" in proc.stdout


def test_build_lusin_window_guard():
    code, out = run_cli(["build-lusin", "--depth", "20"])
    assert code == 2 and "configuration error" in out


def test_build_lusin_dump(tmp_path):
    out_path = tmp_path / "scheme.json"
    code, out = run_cli(["build-lusin", "--base", "std", "--depth", "2",
                         "--breadth", "3", "--json", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["space"] == "baire"
    assert data["window"] == {"depth": 2, "breadth": 3}
    assert data["nodes"]["ε"] == "S()"
    assert data["conditions"]["ok"] is True


def test_build_lusin_custom_base(tmp_path):
    base = tmp_path / "base.txt"
    base.write_text("S(0,1)\nS(2)\n")
    code, _ = run_cli(["build-lusin", "--base", str(base), "--depth", "2",
                       "--breadth", "2", "--json", str(tmp_path / "s.json")])
    assert code == 0
    code, out = run_cli(["build-lusin", "--base", str(tmp_path / "nope.txt")])
    assert code == 2


def test_extract_finite_space(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(FiniteSpaceModel.sierpinski().to_json()))
    out_path = tmp_path / "extract.json"
    code, _ = run_cli(["extract", "--space", str(space_file),
                       "--depth", "2", "--breadth", "2",
                       "--json", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["strategy"] == "copy"
    assert data["replies"]["nodes"]["ε"] == [0, 1]
    assert data["replies"]["nodes"]["1"] == [1]


def test_extract_baire(tmp_path):
    out_path = tmp_path / "extract.json"
    code, _ = run_cli(["extract", "--space", "baire", "--depth", "1",
                       "--breadth", "2", "--json", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["strategy"] == "cylinder"
    assert data["replies"]["nodes"]["ε"] == "S()"


def test_extract_rejects_cylinder_on_finite(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(FiniteSpaceModel.sierpinski().to_json()))
    code, out = run_cli(["extract", "--space", str(space_file),
                         "--strategy", "cylinder"])
    assert code == 2


def test_export_relabel(tmp_path):
    out_path = tmp_path / "std.json"
    code, _ = run_cli(["export", "--scheme", "standard", "--g", "half",
                       "--depth", "1", "--breadth", "4",
                       "--json", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["nodes"]["2"] == "S(1)"
    assert data["nodes"]["3"] == "S(1)"


def test_play_finite_game(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(FiniteSpaceModel.sierpinski().to_json()))
    dump = tmp_path / "transcript.json"
    script = f"1\nbogus move\n0 1\n:dump {dump}\n:quit\n"
    code, out = run_cli(["play", "--space", str(space_file)], script)
    assert code == 0
    assert "II[0]> {1}" in out
    assert "cannot parse move" in out
    # {0,1} is not inside the running reply {1} anymore
    assert "move escapes the previous reply; try again" in out
    transcript = json.loads(dump.read_text())
    assert transcript == [{"player": "I", "set": [1]},
                          {"player": "II", "set": [1]}]


def test_play_finite_game_prints_the_stabilized_intersection(tmp_path):
    space_file = tmp_path / "chain.json"
    space_file.write_text(json.dumps(
        {"points": [0, 1, 2], "opens": [[], [2], [1, 2], [0, 1, 2]]}))
    code, out = run_cli(["play", "--space", str(space_file)], "{1,2}\n:quit\n")
    assert code == 0
    lines = out.splitlines()
    at = lines.index("I[0]> II[0]> {1,2}")
    assert lines[at + 1] == ("stabilized intersection so far: {1,2} "
                             "(II wins every legal continuation)")
    # a Baire game has no such line
    code, out = run_cli(["play", "--space", "baire"], "S(0)\n:quit\n")
    assert code == 0
    assert "II[0]> S(0,0)" in out and "stabilized" not in out


def test_play_dump_to_missing_directory_keeps_the_game(tmp_path):
    dump = tmp_path / "missing" / "transcript.json"
    script = f":dump {dump}\nS(0)\n:quit\n"
    code, out = run_cli(["play", "--space", "baire"], script)
    assert code == 0
    assert "cannot write transcript:" in out
    assert "II[0]>" in out and "game over after 1 rounds" in out


def test_play_dump_to_a_path_with_a_nul_byte_keeps_the_game():
    script = ":dump a\x00b\nS(0)\n:quit\n"
    code, out = run_cli(["play", "--space", "baire"], script)
    assert code == 0
    assert out.count("cannot write transcript:") == 1
    assert "II[0]>" in out and "game over after 1 rounds" in out


def test_play_dump_without_a_file_prints_its_usage_and_keeps_the_game():
    script = ":dump\nS(0)\n:quit\n"
    code, out = run_cli(["play", "--space", "baire"], script)
    assert code == 0
    # the usage line follows the prompt the command was typed at
    assert "I[0]> usage: :dump FILE" in out.splitlines()
    assert "II[0]>" in out and "game over after 1 rounds" in out


def test_play_reads_only_the_word_dump_as_the_dump_command(tmp_path,
                                                          monkeypatch):
    # a word that merely starts with ":dump" is a move, and not a legal one
    monkeypatch.chdir(tmp_path)
    script = ":dumps out.json\n:dumpfoo\n:dump\nS(0)\n:quit\n"
    code, out = run_cli(["play", "--space", "baire"], script)
    assert code == 0
    assert not (tmp_path / "out.json").exists()
    assert list(tmp_path.iterdir()) == []
    lines = out.splitlines()
    assert [line.split(":", 1)[0] for line in lines
            if "cannot parse move" in line] == ["I[0]> cannot parse move",
                                                "I[0]> cannot parse move"]
    assert "I[0]> usage: :dump FILE" in lines
    assert "II[0]>" in out and "game over after 1 rounds" in out


def test_play_baire_game():
    script = "S(0,1)\n:quit\n"
    code, out = run_cli(["play", "--space", "baire"], script)
    assert code == 0
    reply_line = next(line for line in out.splitlines() if "II[0]>" in line)
    # the machine answers with a longer cylinder inside the move
    assert "S(0,1," in reply_line


def test_play_transcripts_replay_identically():
    script = "S(2)\nS(2,0,1)\n:quit\n"
    first = run_cli(["play", "--space", "baire"], script)
    second = run_cli(["play", "--space", "baire"], script)
    assert first == second


def test_play_rejects_illegal_and_keeps_state():
    script = "0\nS(4)\nS(4,0,1)\n:quit\n"
    code, out = run_cli(["play", "--space", "baire"], script)
    assert code == 0
    assert "move is empty; try again" in out
    assert "II[1]>" in out  # the two legal moves both got replies


@pytest.mark.parametrize("number, message", [
    ("1" * 5000, "bad number at 2"),
    # a digit to str.isdigit, but not an ASCII digit
    ("\u00b2", "unexpected character '\u00b2' at 2"),
], ids=["past-digit-limit", "superscript-digit"])
def test_build_lusin_unreadable_number_is_configuration_error(tmp_path,
                                                              number,
                                                              message):
    base = tmp_path / "base.txt"
    base.write_text(f"S({number})\n", encoding="utf-8")
    code, out = run_cli(["build-lusin", "--base", str(base)])
    assert code == 2
    [line] = out.splitlines()
    assert line.startswith("configuration error: ")
    assert message in line


def test_build_lusin_non_utf8_base(tmp_path):
    base = tmp_path / "base.txt"
    base.write_bytes(b"S(0)\n\xff\xfe\n")
    code, out = run_cli(["build-lusin", "--base", str(base)])
    assert code == 2
    assert out.startswith("configuration error") and out.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "lusin", "--depth", "0", "--breadth", "1"],
    ["build-lusin", "--depth", "0", "--breadth", "1"],
    ["extract", "--depth", "0", "--breadth", "1"],
    ["export", "--depth", "0", "--breadth", "1"],
], ids=["verify", "build-lusin", "extract", "export"])
def test_unwritable_json_path_is_configuration_error(tmp_path, argv):
    path = tmp_path / "missing" / "x.json"
    code, out = run_cli(argv + ["--json", str(path)])
    assert code == 2
    assert out.startswith("configuration error") and out.count("\n") == 1


def test_unwritable_json_path_fails_before_the_suite_runs(tmp_path,
                                                          monkeypatch):
    def run_suite(cfg):
        raise AssertionError("the suite ran before the path was checked")

    monkeypatch.setattr("bairekit.cli.run_suite", run_suite)
    path = tmp_path / "missing" / "x.json"
    code, out = run_cli(["verify", "--suite", "schemes-vg",
                         "--json", str(path)])
    assert code == 2
    assert out.startswith("configuration error") and out.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "selectors"],
    ["build-lusin", "--depth", "1", "--breadth", "2"],
], ids=["verify", "build-lusin"])
def test_empty_json_path_is_configuration_error(argv):
    # an empty path is a path that cannot be written, not a missing one, so
    # no report goes to stdout instead
    code, out = run_cli(argv + ["--json", ""])
    assert code == 2
    assert out.startswith("configuration error: cannot write '': ")
    assert out.count("\n") == 1


def test_write_json_refuses_an_empty_path():
    out = io.StringIO()
    with pytest.raises(cli.ConfigError, match="cannot write ''"):
        cli._write_json({"ok": True}, "", out)
    assert out.getvalue() == ""


def test_suite_counts_sum_violations_and_breaches_over_reports():
    # 2 violated, 1 breach and 1 unresolved entries between two reports
    reports = [
        report_of("one", [("a", VERIFIED, ""), ("b", VIOLATED, "x"),
                          ("c", UNRESOLVED, "")]),
        report_of("two", [("d", BREACH, "y"), ("e", VIOLATED, "z")])]
    with mock.patch.dict(suites._SUITE_FNS, selectors=lambda cfg: reports):
        result = suites.run_suite(suites.RunConfig("selectors"))
        code, out = run_cli(["verify", "--suite", "selectors"])
    assert (result["violations"], result["breaches"], result["ok"]) == \
        (2, 1, False)
    assert code == 1
    text, last = out.rsplit("\n", 2)[:2]
    assert last == "suite selectors: FAIL (2 violations, 1 breaches)"
    report = json.loads(text)
    assert (report["violations"], report["breaches"], report["ok"]) == \
        (2, 1, False)


def test_json_path_check_keeps_existing_and_leaves_no_new_file(tmp_path):
    existing = tmp_path / "old.json"
    existing.write_text("kept\n")
    fresh = tmp_path / "new.json"
    for path in (existing, fresh):
        # the window guard fails after the path check
        code, _ = run_cli(["export", "--depth", "20", "--json", str(path)])
        assert code == 2
    assert existing.read_text() == "kept\n"
    assert not fresh.exists()


def test_play_rejects_empty_move_with_one_line_and_goes_on(tmp_path):
    space_file = tmp_path / "space.json"
    space_file.write_text(json.dumps(FiniteSpaceModel.sierpinski().to_json()))
    code, out = run_cli(["play", "--space", str(space_file)],
                        "{}\n1\n:quit\n")
    assert code == 0
    lines = out.splitlines()
    assert ("I[0]> illegal move by player I in round 0: move is empty; "
            "try again") in lines
    assert "I[0]> II[0]> {1}" in lines
    assert out.endswith("game over after 1 rounds\n")


def test_play_reraises_a_machine_fault(monkeypatch):
    monkeypatch.setitem(suites.STRATEGY_PRESETS, "cylinder",
                        lambda: lambda space, history, u: space.whole())
    with pytest.raises(IllegalMoveError) as err:
        run_cli(["play", "--space", "baire"], "S(0)\n:quit\n")
    assert err.value.player == "II"


# -- boundary fuzz ------------------------------------------------------------

_TOKENS = ("S(", "S()", ")", "(", "|", "&", "\\", ",", "0", "2", "7", " ",
           "\n", "x", "{", "}", "[", "]", ":", '"points"', '"opens"',
           "\u00b2", "1" * 5000, "(" * 300)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.text(max_size=3),
    lambda sub: st.lists(sub, max_size=4) | st.dictionaries(
        st.sampled_from(("points", "opens", "x")), sub, max_size=3),
    max_leaves=8)

_SMALL_SPACES = st.fixed_dictionaries({
    "points": st.lists(st.integers(0, 3), max_size=4),
    "opens": st.lists(st.lists(st.integers(0, 3), max_size=4), max_size=6)})

_SPACES = st.sampled_from([FiniteSpaceModel(range(n), masks).to_json()
                           for n in range(1, 4)
                           for masks in all_topologies(n)])

_FILES = st.one_of(
    st.lists(st.sampled_from(_TOKENS), max_size=12).map("".join)
    .map(str.encode),
    _JSON.map(json.dumps).map(str.encode),
    st.one_of(_SMALL_SPACES, _SPACES).map(json.dumps).map(str.encode),
    st.sampled_from((b"S(" + b"1" * 5000 + b")\n",
                     b"[" * 5000 + b"]" * 5000,
                     b'{"points": [' + b"1" * 5000 + b'], "opens": []}',
                     b"S(0)\n\xff\xfe\n")),
    st.binary(max_size=24))

_COMMANDS = (
    ["build-lusin", "--depth", "1", "--breadth", "2", "--base"],
    ["extract", "--depth", "1", "--breadth", "2", "--space"],
    ["play", "--space"],
    ["verify", "--suite", "choquet-finite", "--depth", "1", "--breadth", "1",
     "--space"],
    ["verify", "--suite", "selectors", "--space"],
)


@given(command=st.sampled_from(_COMMANDS), content=_FILES,
       moves=st.lists(st.sampled_from(_TOKENS), max_size=4))
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_malformed_input_files_end_in_an_exit_code(command, content, moves):
    """Any base or space file ends in exit 0, 1 or 2, and a configuration
    error is one line.  The exhaustive topology walk of ``choquet-finite``
    and the ``selectors`` suite are stubbed: they read no input, and the
    file is loaded before them."""
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(suites, "_exhaustive_modified_report",
                              lambda: Report("modified-copy-wins")), \
            mock.patch.dict(suites._SUITE_FNS, selectors=lambda cfg: []):
        path = os.path.join(tmp, "input")
        with open(path, "wb") as fh:
            fh.write(content)
        code, out = run_cli(command + [path], "\n".join(moves) + "\n")
    assert code in (0, 1, 2)
    if code == 2:
        [line] = out.splitlines()
        assert line.startswith("configuration error: ")


_NUMBERS = st.one_of(st.integers(-2, 17),
                     st.sampled_from((10 ** 30, -(10 ** 30)))).map(str)
_PATHS = st.sampled_from(("space.json", "base.txt", "junk.bin", "missing",
                          ".", "out.json", "no/such/dir.json", "std",
                          "baire", "\x00", "a\x00b"))
_JUNK = st.sampled_from(("", "x", "1.5", "1e3", "0x10", "-", "--", "\x00",
                         "\u00b2", "--depth=2", "-h", "--frob"))

# the values the parser accepts for each flag, files in the run's directory
_FLAG_VALUES = {
    "--suite": st.sampled_from(suites.SUITES),
    "--depth": _NUMBERS, "--breadth": _NUMBERS, "--seed": _NUMBERS,
    "--space": _PATHS, "--json": _PATHS, "--base": _PATHS,
    "--strategy": st.sampled_from(("copy", "cylinder")),
    "--scheme": st.sampled_from(("standard", "lusin-std")),
    "--g": st.sampled_from(tuple(suites.G_PRESETS)),
}
_COMMAND_FLAGS = {
    "verify": ("--suite", "--depth", "--breadth", "--seed", "--space",
               "--json"),
    "build-lusin": ("--base", "--depth", "--breadth", "--json"),
    "extract": ("--space", "--strategy", "--depth", "--breadth", "--json"),
    "play": ("--space", "--strategy"),
    "export": ("--scheme", "--g", "--depth", "--breadth", "--json"),
}


@st.composite
def _argv(draw):
    """A subcommand, mostly its own flags with mostly accepted values, and
    now and then a foreign flag, a junk value or a junk word."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS) + ["frob"]))
    own = _COMMAND_FLAGS.get(command, ("--depth",))
    argv = [command]
    if command == "verify" and draw(st.integers(0, 9)):
        argv += ["--suite", draw(_FLAG_VALUES["--suite"])]
    for _ in range(draw(st.integers(0, 4))):
        roll = draw(st.integers(0, 19))
        if roll == 0:
            argv.append(draw(_JUNK))
            continue
        flag = draw(st.sampled_from(sorted(_FLAG_VALUES) if roll == 1
                                    else own))
        value = _FLAG_VALUES[flag] if draw(st.integers(0, 4)) else \
            st.one_of(_JUNK, _NUMBERS, _PATHS)
        argv += [flag, draw(value)]
    return argv


@given(argv=_argv())
@settings(derandomize=True, database=None, max_examples=300, deadline=None)
def test_random_argument_vectors_end_in_an_exit_code(argv):
    """Any argument vector ends in exit 0, 1 or 2; argparse's own exit is
    caught, and a configuration error is one line.  The run's directory
    holds a valid space file, a valid base file and a binary file.  Every
    suite is stubbed, and windows past 85 nodes are rejected, so each
    accepted command stays small."""
    stub = {name: (lambda cfg, extra=None: [Report("stub")])
            for name in suites.SUITES}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(suites._SUITE_FNS, stub), \
            mock.patch.object(suites, "MAX_WINDOW_NODES", 85), \
            mock.patch("sys.stdout", io.StringIO()), \
            mock.patch("sys.stderr", io.StringIO()):
        Path(tmp, "space.json").write_text(
            json.dumps(FiniteSpaceModel.sierpinski().to_json()))
        Path(tmp, "base.txt").write_text("S(0)\nS(1) | S(2,0)\n")
        Path(tmp, "junk.bin").write_bytes(b"\xff\xfe(\n")
        os.chdir(tmp)
        try:
            code, out = run_cli(argv, "S(0)\n{1}\n:quit\n")
        except SystemExit as exc:
            code, out = exc.code, None  # argparse printed to stderr
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code == 2 and out is not None:
        [line] = out.splitlines()
        assert line.startswith("configuration error: ")
