"""Command-line entry point.

Subcommands::

    verify       run a named verification suite, write a JSON report
    build-lusin  synthesize a refined partition scheme and dump a window
    extract      extract the move/reply schemes of a game strategy
    play         interactive game against the modified strategy
    export       dump a preset scheme (optionally index-relabeled)

Exit codes: 0 all checks passed, 1 hard violations, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Optional, TextIO

from .choquet import IllegalMoveError, copy_strategy, cylinder_strategy, \
    extract_schemes, last_reply, modify_strategy, play_round, transcript_json
from .grammar import parse_expr
from .lusin import base_from_lines, build_lusin, check_lusin_conditions, \
    standard_base
from .scheme import Report, ReportEntry, dump_scheme, relabel, \
    standard_scheme
from .suites import G_PRESETS, SUITES, ConfigError, RunConfig, \
    checked_window, load_space_file, run_suite
from .spaces import BAIRE, FiniteSpaceModel, SpaceModel


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bairekit",
        description="Symbolic workbench for cylinder algebra, Souslin "
                    "schemes, and Choquet games.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", required=True, choices=SUITES)
    verify.add_argument("--depth", type=int, default=None)
    verify.add_argument("--breadth", type=int, default=None)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--space", default=None, help="extra space JSON file")
    verify.add_argument("--json", dest="out", default=None,
                        help="report output path")

    lus = sub.add_parser("build-lusin", help="synthesize a refined scheme")
    lus.add_argument("--base", default="std",
                     help="'std' or a file with one expression per line")
    lus.add_argument("--depth", type=int, default=3)
    lus.add_argument("--breadth", type=int, default=4)
    lus.add_argument("--json", dest="out", default=None)

    ext = sub.add_parser("extract", help="extract schemes from a strategy")
    ext.add_argument("--space", default="baire",
                     help="'baire' or a space JSON file")
    ext.add_argument("--strategy", choices=("copy", "cylinder"),
                     default=None)
    ext.add_argument("--depth", type=int, default=2)
    ext.add_argument("--breadth", type=int, default=4)
    ext.add_argument("--json", dest="out", default=None)

    play = sub.add_parser("play", help="play the game against the machine")
    play.add_argument("--space", default="baire")
    play.add_argument("--strategy", choices=("copy", "cylinder"), default=None)

    exp = sub.add_parser("export", help="dump a preset scheme as JSON")
    exp.add_argument("--scheme", choices=("standard", "lusin-std"),
                     default="standard")
    exp.add_argument("--g", choices=tuple(G_PRESETS), default="identity")
    exp.add_argument("--depth", type=int, default=3)
    exp.add_argument("--breadth", type=int, default=4)
    exp.add_argument("--json", dest="out", default=None)
    return parser


_escape = json.encoder.encode_basestring_ascii


def _dump(value, pad: str, write: Callable[[str], object]) -> None:
    """Write the text ``json.dumps(value, indent=2, sort_keys=True)`` gives
    ``value`` at indentation ``pad``; dict keys are strings.  Containers
    are written member by member, a ``Report`` as its ``to_json()`` read
    off its fields, and each of its entries in one write, so no entry dict
    is built."""
    inner = pad + "  "
    if isinstance(value, ReportEntry):
        write(f'{{{inner}"detail": {_escape(value.detail)},{inner}"key": '
              f'{_escape(value.key)},{inner}"status": '
              f'{_escape(value.status)}{pad}}}')
        return
    if isinstance(value, Report):
        value = {"counts": value.counts(), "entries": value.entries,
                 "name": value.name, "ok": value.ok}
    if isinstance(value, dict):
        members = ((_escape(k) + ": ", value[k]) for k in sorted(value))
        ends = "{}"
    elif isinstance(value, (list, tuple)):
        members = (("", v) for v in value)
        ends = "[]"
    else:
        write(_escape(value) if isinstance(value, str) else json.dumps(value))
        return
    if not value:
        write(ends)
        return
    sep = ends[0] + inner
    for head, v in members:
        write(sep + head)
        _dump(v, inner, write)
        sep = "," + inner
    write(pad + ends[1])


def _write_json(data, path: Optional[str], out: TextIO) -> None:
    """Stream ``data`` as the text of ``json.dumps(data, indent=2,
    sort_keys=True)`` plus a newline, without holding the whole text; each
    ``Report`` in it is written as its ``to_json()``."""
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                _dump(data, "\n", fh.write)
                fh.write("\n")
        except OSError as exc:
            raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    else:
        _dump(data, "\n", out.write)
        out.write("\n")


def _check_writable(path: str) -> None:
    """A ConfigError unless ``path`` can be opened for writing.  An existing
    file is opened for appending, so it is not truncated; a file the check
    creates is removed again."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc
    if not existed:
        os.remove(path)


def _space_and_strategy(args) -> tuple[SpaceModel, str]:
    space = BAIRE if args.space == "baire" else load_space_file(args.space)
    strategy_name = args.strategy or \
        ("cylinder" if space is BAIRE else "copy")
    if strategy_name == "cylinder" and space is not BAIRE:
        raise ConfigError("the cylinder strategy plays on the Baire model")
    return space, strategy_name


def _strategy(name: str):
    """The machine strategy the command line calls ``name``."""
    return cylinder_strategy() if name == "cylinder" else copy_strategy()


def cmd_verify(args, out: TextIO) -> int:
    cfg = RunConfig(suite=args.suite, depth=args.depth, breadth=args.breadth,
                    seed=args.seed, space_path=args.space)
    result = run_suite(cfg)
    _write_json(result, args.out, out)
    summary = "pass" if result["ok"] else "FAIL"
    out.write(f"suite {args.suite}: {summary} "
              f"({result['violations']} violations, "
              f"{result['breaches']} breaches)\n")
    return 0 if result["ok"] else 1


def cmd_build_lusin(args, out: TextIO) -> int:
    if args.base == "std":
        base = standard_base()
    else:
        try:
            with open(args.base, "r", encoding="utf-8") as fh:
                base = base_from_lines(fh.read())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load base {args.base!r}: {exc}") from exc
    window = checked_window(args.depth, args.breadth)
    scheme = build_lusin(base)
    report = check_lusin_conditions(scheme, base, window)
    payload = dump_scheme(scheme, window)
    payload["conditions"] = report
    _write_json(payload, args.out, out)
    out.write(str(report) + "\n")
    return 0 if report.ok else 1


def cmd_extract(args, out: TextIO) -> int:
    space, strategy_name = _space_and_strategy(args)
    strategy = _strategy(strategy_name)
    window = checked_window(args.depth, args.breadth)
    moves, replies = extract_schemes(space, strategy)
    payload = {"moves": dump_scheme(moves, window),
               "replies": dump_scheme(replies, window),
               "strategy": strategy_name}
    _write_json(payload, args.out, out)
    return 0


def cmd_export(args, out: TextIO) -> int:
    scheme = standard_scheme() if args.scheme == "standard" \
        else build_lusin(standard_base())
    if args.g != "identity":
        scheme = relabel(scheme, G_PRESETS[args.g])
    window = checked_window(args.depth, args.breadth)
    _write_json(dump_scheme(scheme, window), args.out, out)
    return 0


# -- interactive play ----------------------------------------------------------

def _parse_finite_move(space: FiniteSpaceModel, text: str) -> int:
    cleaned = text.strip().strip("{}")
    if not cleaned:
        return space.mask_of([])
    try:
        pts = [int(tok) for tok in cleaned.replace(",", " ").split()]
    except ValueError as exc:
        raise ValueError(f"expected a point list, got {text!r}") from exc
    return space.mask_of(pts)


def play_repl(space: SpaceModel, strategy_name: str,
              stdin: TextIO, stdout: TextIO) -> int:
    machine = modify_strategy(_strategy(strategy_name))
    finite = isinstance(space, FiniteSpaceModel)
    history = ()
    stdout.write("You are player I against the modified machine strategy.\n")
    stdout.write("Moves: nonempty opens inside the previous reply. "
                 ":quit to stop, :dump FILE to save the transcript.\n")
    while True:
        limit = last_reply(space, history)
        if finite:
            legal = [space.describe(m)
                     for m in space.nonempty_opens_inside(limit)]
            stdout.write(f"legal opens: {' '.join(legal)}\n")
        else:
            stdout.write(f"inside: {space.describe(limit)} "
                         "(expressions like S(0,1)&S(0))\n")
        stdout.write(f"I[{len(history)}]> ")
        stdout.flush()
        line = stdin.readline()
        if not line:
            break
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            break
        if line.startswith(":dump"):
            parts = line.split(None, 1)
            if len(parts) != 2:
                stdout.write("usage: :dump FILE\n")
                continue
            try:
                with open(parts[1], "w", encoding="utf-8") as fh:
                    json.dump(transcript_json(space, history), fh, indent=2,
                              sort_keys=True)
                stdout.write(f"transcript written to {parts[1]}\n")
            except (OSError, ValueError) as exc:
                stdout.write(f"cannot write transcript: {exc}\n")
            continue
        try:
            move = _parse_finite_move(space, line) if finite \
                else parse_expr(line)
        except ValueError as exc:
            stdout.write(f"cannot parse move: {exc}\n")
            continue
        try:
            history = play_round(space, history, move, machine)
        except IllegalMoveError as exc:
            if exc.player != "I":
                raise
            stdout.write(f"{exc}; try again\n")
            continue
        reply = history[-1][1]
        stdout.write(f"II[{len(history) - 1}]> {space.describe(reply)}\n")
        if finite:
            stdout.write("stabilized intersection so far: "
                         f"{space.describe(reply)} (II wins every legal "
                         "continuation)\n")
    stdout.write(f"game over after {len(history)} rounds\n")
    return 0


def cmd_play(args, stdin: TextIO, stdout: TextIO) -> int:
    space, strategy_name = _space_and_strategy(args)
    return play_repl(space, strategy_name, stdin, stdout)


def main(argv=None, stdin: TextIO = None, stdout: TextIO = None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an unwritable report path fails before any subcommand computes
        if getattr(args, "out", None):
            _check_writable(args.out)
        if args.command == "verify":
            return cmd_verify(args, stdout)
        if args.command == "build-lusin":
            return cmd_build_lusin(args, stdout)
        if args.command == "extract":
            return cmd_extract(args, stdout)
        if args.command == "export":
            return cmd_export(args, stdout)
        if args.command == "play":
            return cmd_play(args, stdin, stdout)
    except ConfigError as exc:
        stdout.write(f"configuration error: {exc}\n")
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
