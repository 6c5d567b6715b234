import pytest
from hypothesis import given, settings

from conftest import exprs
from bairekit.cylinder import Diff, EMPTY, FULL, Inter, Union, cyl, equal
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


def test_syntax_errors():
    for bad in ("S(", "S(1,)", "1", "S(1))", "S(1)|", "x", "S(-1)", "(S(1)",
                "((S(1)|S(2))", "(S(1)))", "()", "(|S(1))"):
        with pytest.raises(ExprSyntaxError):
            parse_expr(bad)


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


def test_rendering_examples():
    assert expr_to_text(cyl(0, 1)) == "S(0,1)"
    assert expr_to_text(FULL) == "S()"
    assert expr_to_text(EMPTY) == "0"
    e = Diff(Union(cyl(1), cyl(2)), cyl(3))
    assert expr_to_text(e) == "(S(1)|S(2))\\S(3)"


@given(exprs)
@settings(max_examples=300)
def test_text_round_trip(e):
    back = parse_expr(expr_to_text(e))
    # the whole-space atom normalizes to the full constant; equality is semantic
    assert equal(back, e)
    assert expr_to_text(back) == expr_to_text(e)


@given(exprs)
@settings(max_examples=300)
def test_json_round_trip(e):
    assert expr_from_json(expr_to_json(e)) == e


def test_json_validation():
    with pytest.raises(ValueError):
        expr_from_json({"op": "atom", "args": [-1]})
    with pytest.raises(ValueError):
        expr_from_json({"op": "union", "args": []})
    with pytest.raises(ValueError):
        expr_from_json(["union"])


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
