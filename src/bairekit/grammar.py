"""Text and JSON encodings for cylinder expressions.

Text grammar (whitespace-insensitive)::

    expr   := diff ('|' diff)*           union, lowest precedence
    diff   := inter ('\\' inter)*         difference, left-associative
    inter  := atom ('&' atom)*           intersection, highest precedence
    atom   := 'S(' naturals? ')'         basic cylinder; 'S()' is the whole space
            | '0'                        the empty set
            | '(' expr ')'

JSON uses tagged objects ``{"op": ..., "args": [...]}`` with atom args a
plain array of naturals.  The whole space ``S()`` is the atom of the empty
sequence, and JSON writes it as ``{"op": "full", "args": []}``; ``"full"``
and ``"empty"`` take no arguments.
"""

from __future__ import annotations

from typing import Any

from .cylinder import EMPTY, FULL, Atom, Diff, Expr, Inter, Union


class ExprSyntaxError(ValueError):
    pass


def _tokenize(text: str) -> list[tuple[str, Any]]:
    tokens: list[tuple[str, Any]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "|&\\(),S":
            tokens.append((ch, ch))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                tokens.append(("num", int(text[i:j])))
            except ValueError as exc:
                # past the interpreter's digit limit, or a digit int rejects
                raise ExprSyntaxError(f"bad number at {i}: {exc}") from None
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {ch!r} at {i}")
    return tokens


# Deepest accepted expression tree, and deepest parenthesis nesting.  The
# evaluators recurse once per tree level, so this keeps every parsed
# expression well inside Python's recursion limit.
MAX_EXPR_DEPTH = 256

# The binary operators as (class, text symbol, JSON tag), loosest first;
# an operator's index is its text precedence (higher binds tighter).
_OPERATORS = ((Union, "|", "union"), (Diff, "\\", "diff"),
              (Inter, "&", "inter"))
_BINARY = {sym: (level, cls)
           for level, (cls, sym, _) in enumerate(_OPERATORS)}
_BY_CLASS = {cls: (level, sym, tag)
             for level, (cls, sym, tag) in enumerate(_OPERATORS)}
_BY_TAG = {tag: cls for cls, _, tag in _OPERATORS}


class _Parser:
    """Operator precedence parsing with explicit stacks, so that neither
    parentheses nor long operator chains make the parser recurse."""

    def __init__(self, tokens: list[tuple[str, Any]]):
        self.tokens = tokens
        self.pos = 0
        self.operands: list[tuple[Expr, int]] = []   # (expression, tree depth)
        self.pending: list[str] = []                 # operators and '('
        self.nesting = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, kind: str) -> Any:
        if self.peek() != kind:
            raise ExprSyntaxError(f"expected {kind!r} at token {self.pos}")
        value = self.tokens[self.pos][1]
        self.pos += 1
        return value

    def parse_expr(self) -> Expr:
        while True:
            while self.peek() == "(":
                self.take("(")
                self.pending.append("(")
                self.nesting += 1
                if self.nesting > MAX_EXPR_DEPTH:
                    raise ExprSyntaxError(
                        f"parentheses nest deeper than {MAX_EXPR_DEPTH}")
            self.operands.append((self.parse_atom(), 1))
            while self.peek() == ")" and self.nesting:
                self.take(")")
                self.reduce(0)
                self.pending.pop()
                self.nesting -= 1
            kind = self.peek()
            if kind not in _BINARY:
                break
            self.take(kind)
            self.reduce(_BINARY[kind][0])
            self.pending.append(kind)
        if self.nesting:
            raise ExprSyntaxError(f"expected ')' at token {self.pos}")
        self.reduce(0)
        return self.operands.pop()[0]

    def reduce(self, precedence: int) -> None:
        """Apply the pending operators of at least ``precedence`` back to
        the innermost open parenthesis."""
        pending = self.pending
        while pending and pending[-1] != "(" \
                and _BINARY[pending[-1]][0] >= precedence:
            make = _BINARY[pending.pop()][1]
            right, dr = self.operands.pop()
            left, dl = self.operands.pop()
            depth = 1 + max(dl, dr)
            if depth > MAX_EXPR_DEPTH:
                raise ExprSyntaxError(
                    f"expression nests deeper than {MAX_EXPR_DEPTH}")
            self.operands.append((make(left, right), depth))

    def parse_atom(self) -> Expr:
        kind = self.peek()
        if kind == "S":
            self.take("S")
            self.take("(")
            entries: list[int] = []
            if self.peek() == "num":
                entries.append(self.take("num"))
                while self.peek() == ",":
                    self.take(",")
                    entries.append(self.take("num"))
            self.take(")")
            return FULL if not entries else Atom(tuple(entries))
        if kind == "num":
            v = self.take("num")
            if v != 0:
                raise ExprSyntaxError(f"bare number {v} is not an expression")
            return EMPTY
        raise ExprSyntaxError(f"unexpected token at {self.pos}")


def parse_expr(text: str) -> Expr:
    """The expression ``text`` denotes; an ExprSyntaxError if it is
    malformed or nests deeper than ``MAX_EXPR_DEPTH``."""
    parser = _Parser(_tokenize(text))
    e = parser.parse_expr()
    if parser.pos != len(parser.tokens):
        raise ExprSyntaxError(f"trailing input at token {parser.pos}")
    return e


def expr_to_text(e: Expr) -> str:
    return _render(e, 0)


def _render(e: Expr, context: int) -> str:
    if isinstance(e, Atom):
        return "S(" + ",".join(str(v) for v in e.entries) + ")"
    if isinstance(e, type(EMPTY)):
        return "0"
    op = _BY_CLASS.get(type(e))
    if op is None:
        raise TypeError(f"not a cylinder expression: {e!r}")
    # every operator associates left, so only its right operand needs
    # parentheses at its own level
    level, sym, _ = op
    text = _render(e.left, level) + sym + _render(e.right, level + 1)
    return f"({text})" if level < context else text


def expr_to_json(e: Expr) -> dict:
    if isinstance(e, Atom):
        return {"op": "atom" if e.entries else "full", "args": list(e.entries)}
    if isinstance(e, type(EMPTY)):
        return {"op": "empty", "args": []}
    op = _BY_CLASS.get(type(e))
    if op is None:
        raise TypeError(f"not a cylinder expression: {e!r}")
    args = [expr_to_json(e.left), expr_to_json(e.right)]
    return {"op": op[2], "args": args}


def expr_from_json(obj: Any) -> Expr:
    """The expression a tagged JSON object encodes; a ValueError if it is
    malformed or nests deeper than ``MAX_EXPR_DEPTH``."""
    return _from_json(obj, 1)


def _from_json(obj: Any, depth: int) -> Expr:
    if depth > MAX_EXPR_DEPTH:
        raise ValueError(f"expression nests deeper than {MAX_EXPR_DEPTH}")
    if not (isinstance(obj, dict) and isinstance(obj.get("op"), str)
            and isinstance(obj.get("args", []), list)):
        raise ValueError(f"bad expression object: {obj!r}")
    op, args = obj["op"], obj.get("args", [])
    if op == "atom":
        # JSON true and false load as bool, which isinstance counts as int
        if not all(type(v) is int and v >= 0 for v in args):
            raise ValueError(f"atom entries must be naturals: {args!r}")
        return Atom(tuple(args))
    if op in ("full", "empty") and not args:
        return FULL if op == "full" else EMPTY
    if op in _BY_TAG and len(args) == 2:
        return _BY_TAG[op](_from_json(args[0], depth + 1),
                           _from_json(args[1], depth + 1))
    raise ValueError(f"bad expression object: {obj!r}")
