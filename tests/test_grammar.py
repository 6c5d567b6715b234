import sys

import pytest
from hypothesis import given, settings

from conftest import exprs
from bairekit.cylinder import Diff, EMPTY, FULL, Inter, Union, cyl
from bairekit.grammar import (MAX_EXPR_DEPTH, ExprSyntaxError, expr_from_json,
                              expr_to_json, expr_to_text, parse_expr)


def test_atoms():
    assert parse_expr("S(0,1)") == cyl(0, 1)
    assert parse_expr("S()") is FULL
    assert parse_expr("0") is EMPTY
    assert parse_expr(" S( 2 , 10 ) ") == cyl(2, 10)


def test_precedence_and_associativity():
    a, b, c = cyl(1), cyl(2), cyl(3)
    assert parse_expr("S(1)|S(2)&S(3)") == Union(a, Inter(b, c))
    assert parse_expr("S(1)\\S(2)&S(3)") == Diff(a, Inter(b, c))
    assert parse_expr("S(1)|S(2)\\S(3)") == Union(a, Diff(b, c))
    assert parse_expr("S(1)\\S(2)\\S(3)") == Diff(Diff(a, b), c)
    assert parse_expr("(S(1)|S(2))\\S(3)") == Diff(Union(a, b), c)


# each malformed input and the parser's message for it
_SYNTAX_ERRORS = [
    ("S(", "expected ')' at token 2"),
    ("S(1,)", "expected 'num' at token 4"),
    ("1", "bare number 1 is not an expression"),
    ("S(1))", "trailing input at token 4"),
    ("S(1)|", "unexpected token at 5"),
    ("x", "unexpected character 'x' at 0"),
    ("S(-1)", "unexpected character '-' at 2"),
    ("(S(1)", "expected ')' at token 5"),
    ("((S(1)|S(2))", "expected ')' at token 12"),
    ("(S(1)))", "trailing input at token 6"),
    ("()", "unexpected token at 1"),
    ("(|S(1))", "unexpected token at 1"),
    # a superscript two is a digit to str.isdigit but not to int
    ("S(\u00b2)",
     "bad number at 2: invalid literal for int() with base 10: '\u00b2'"),
    ("S(1e3)", "unexpected character 'e' at 3"),
    ("S(\x00)", "unexpected character '\\x00' at 2"),
    ("|".join(["S(1)"] * 300), "expression nests deeper than 256"),
    ("&".join(["S(1)"] * 300), "expression nests deeper than 256"),
    ("\\".join(["S(1)"] * 300), "expression nests deeper than 256"),
    ("(" * 300 + "S(0)" + ")" * 300, "parentheses nest deeper than 256"),
]


def test_syntax_errors():
    for bad, message in _SYNTAX_ERRORS:
        with pytest.raises(ExprSyntaxError) as info:
            parse_expr(bad)
        assert str(info.value) == message, bad[:40]


def test_a_number_past_the_digit_limit_is_a_syntax_error():
    digits = "1" * 5000
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not 0 < limit < len(digits):
        assert parse_expr(f"S({digits})") == cyl(int(digits))
        return
    # the rest of the message is int's own, which varies across versions
    with pytest.raises(ExprSyntaxError, match=r"^bad number at 2: "):
        parse_expr(f"S({digits})")


def test_depth_bound():
    # a chain of k terms nests k levels deep
    for op in ("|", "&", "\\"):
        deepest = op.join(["S(1)"] * MAX_EXPR_DEPTH)
        assert expr_to_text(parse_expr(deepest)) == deepest
        with pytest.raises(ExprSyntaxError, match="deeper"):
            parse_expr(deepest + op + "S(2)")
    nested = "(" * MAX_EXPR_DEPTH + "S(0)" + ")" * MAX_EXPR_DEPTH
    assert parse_expr(nested) == cyl(0)
    with pytest.raises(ExprSyntaxError, match="deeper"):
        parse_expr("(" + nested + ")")
    with pytest.raises(ExprSyntaxError, match="deeper"):
        parse_expr("(" * 5000 + "S(0)" + ")" * 5000)


@pytest.mark.parametrize("outer, inner, left, right", [
    (Union, Union, "S(1)|S(2)|S(3)", "S(1)|(S(2)|S(3))"),
    (Union, Diff, "S(1)\\S(2)|S(3)", "S(1)|S(2)\\S(3)"),
    (Union, Inter, "S(1)&S(2)|S(3)", "S(1)|S(2)&S(3)"),
    (Diff, Union, "(S(1)|S(2))\\S(3)", "S(1)\\(S(2)|S(3))"),
    (Diff, Diff, "S(1)\\S(2)\\S(3)", "S(1)\\(S(2)\\S(3))"),
    (Diff, Inter, "S(1)&S(2)\\S(3)", "S(1)\\S(2)&S(3)"),
    (Inter, Union, "(S(1)|S(2))&S(3)", "S(1)&(S(2)|S(3))"),
    (Inter, Diff, "(S(1)\\S(2))&S(3)", "S(1)&(S(2)\\S(3))"),
    (Inter, Inter, "S(1)&S(2)&S(3)", "S(1)&(S(2)&S(3))"),
])
def test_rendering_uses_the_fewest_parentheses(outer, inner, left, right):
    # the inner operator as the outer one's left operand, then its right
    a, b, c = cyl(1), cyl(2), cyl(3)
    assert expr_to_text(outer(inner(a, b), c)) == left
    assert expr_to_text(outer(a, inner(b, c))) == right


def test_rendering_examples():
    assert expr_to_text(cyl(0, 1)) == "S(0,1)"
    assert expr_to_text(FULL) == "S()"
    assert expr_to_text(EMPTY) == "0"
    e = Diff(Union(cyl(1), cyl(2)), cyl(3))
    assert expr_to_text(e) == "(S(1)|S(2))\\S(3)"


@given(exprs)
@settings(max_examples=300)
def test_text_round_trip(e):
    assert parse_expr(expr_to_text(e)) == e


@given(exprs)
@settings(max_examples=300)
def test_json_round_trip(e):
    assert expr_from_json(expr_to_json(e)) == e


def test_json_validation():
    # the atom of the empty stem is the whole space, written as "full"
    assert expr_to_json(cyl()) == expr_to_json(FULL) == \
        {"op": "full", "args": []}
    with pytest.raises(ValueError):
        expr_from_json({"op": "atom", "args": [-1]})
    with pytest.raises(ValueError):
        expr_from_json({"op": "union", "args": []})
    with pytest.raises(ValueError):
        expr_from_json(["union"])
    for tag, e in (("full", FULL), ("empty", EMPTY)):
        assert expr_from_json({"op": tag}) is e
        assert expr_from_json({"op": tag, "args": []}) is e


@pytest.mark.parametrize("obj", [
    {"op": "union", "args": {"0": {"op": "full"}, "1": {"op": "full"}}},
    {"op": "union", "args": None},
    {"op": "atom", "args": None},
    {"op": "atom", "args": "01"},
    {"op": "atom", "args": [True, 1]},
    {"op": "atom", "args": [False]},
    {"op": "inter", "args": [{"op": "full"}, {"op": "atom", "args": [True]}]},
    {"op": ["union"], "args": []},
    {"args": []},
    None,
    {"op": "full", "args": [1, 2]},
    {"op": "empty", "args": [{"op": "atom", "args": [0]}]},
])
def test_json_malformed_is_value_error(obj):
    with pytest.raises(ValueError):
        expr_from_json(obj)


def _deep_union_json(levels):
    obj = {"op": "atom", "args": [0]}
    for _ in range(levels - 1):
        obj = {"op": "union", "args": [obj, {"op": "atom", "args": [1]}]}
    return obj


def test_json_depth_bound():
    with pytest.raises(ValueError, match="deeper"):
        expr_from_json(_deep_union_json(2000))
    with pytest.raises(ValueError, match="deeper"):
        expr_from_json(_deep_union_json(MAX_EXPR_DEPTH + 1))
    for levels in (200, MAX_EXPR_DEPTH):
        obj = _deep_union_json(levels)
        assert expr_to_json(expr_from_json(obj)) == obj
