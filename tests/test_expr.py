import pytest
from hypothesis import given, strategies as st

from tabverify.expr import (
    Binary,
    Const,
    ExprError,
    ExprTypeError,
    IfThenElse,
    Ref,
    Unary,
    evaluate,
    infer_type,
    parse_expr,
    to_text,
    wrap_signed,
)


def test_parse_simple_comparison():
    e = parse_expr("a > 45")
    assert e == Binary(">", Ref("a"), Const(45))


def test_parse_arith_precedence():
    e = parse_expr("a + 2 * b")
    assert e == Binary("+", Ref("a"), Binary("*", Const(2), Ref("b")))


def test_parse_chained_comparison():
    e = parse_expr("35 <= a <= 45")
    assert evaluate(e, {"a": 40}, 8) is True
    assert evaluate(e, {"a": 46}, 8) is False
    assert evaluate(e, {"a": 34}, 8) is False


def test_parse_if_then_else():
    e = parse_expr("if a > 0 then a else 0 - a")
    assert evaluate(e, {"a": -5}, 8) == 5
    assert evaluate(e, {"a": 7}, 8) == 7


def test_parse_bool_ops():
    e = parse_expr("a > 0 and not (a > 10) or b")
    assert evaluate(e, {"a": 5, "b": False}, 8) is True
    assert evaluate(e, {"a": 11, "b": False}, 8) is False
    assert evaluate(e, {"a": 11, "b": True}, 8) is True


def test_parse_errors():
    with pytest.raises(ExprError):
        parse_expr("a +")
    with pytest.raises(ExprError):
        parse_expr("a ? b")
    with pytest.raises(ExprError):
        parse_expr("a b")


def test_unary_minus():
    assert evaluate(parse_expr("-a + 1"), {"a": 3}, 8) == -2


def test_wrap_signed():
    assert wrap_signed(127, 8) == 127
    assert wrap_signed(128, 8) == -128
    assert wrap_signed(-129, 8) == 127
    assert wrap_signed(256, 8) == 0


def test_arithmetic_wraps():
    e = parse_expr("a + b")
    assert evaluate(e, {"a": 120, "b": 10}, 8) == -126


def test_infer_type():
    env = {"a": "int", "b": "bool"}
    assert infer_type(parse_expr("a + 1"), env) == "int"
    assert infer_type(parse_expr("a > 1"), env) == "bool"
    assert infer_type(parse_expr("b and true"), env) == "bool"
    assert infer_type(parse_expr("if b then 1 else 2"), env) == "int"
    with pytest.raises(ExprTypeError):
        infer_type(parse_expr("a + b"), env)
    with pytest.raises(ExprTypeError):
        infer_type(parse_expr("b > true"), env)
    with pytest.raises(ExprTypeError):
        infer_type(parse_expr("c"), env)


def test_to_text_round_trip():
    for src in ["a > 45", "35 <= a and a <= 45", "if b then 1 else 0 - 2"]:
        e = parse_expr(src)
        again = parse_expr(to_text(e))
        env = {"a": 40, "b": True}
        assert evaluate(e, env, 8) == evaluate(again, env, 8)


@st.composite
def exprs(draw, depth=3):
    if depth == 0:
        return draw(
            st.one_of(
                st.integers(-40, 40).map(Const),
                st.sampled_from([Ref("a"), Ref("b")]),
            )
        )
    op = draw(st.sampled_from(["+", "-", "*", "leaf", "neg", "ite"]))
    if op == "leaf":
        return draw(exprs(depth=0))
    if op == "neg":
        return Unary("neg", draw(exprs(depth=depth - 1)))
    left = draw(exprs(depth=depth - 1))
    right = draw(exprs(depth=depth - 1))
    if op == "ite":
        cond = Binary(">", draw(exprs(depth=0)), draw(exprs(depth=0)))
        return IfThenElse(cond, left, right)
    return Binary(op, left, right)


@given(exprs(), st.integers(-128, 127), st.integers(-128, 127))
def test_text_round_trip_preserves_semantics(e, a, b):
    env = {"a": a, "b": b}
    assert evaluate(parse_expr(to_text(e)), env, 8) == evaluate(e, env, 8)


@given(exprs(), st.integers(-128, 127), st.integers(-128, 127))
def test_evaluate_stays_in_range(e, a, b):
    v = evaluate(e, {"a": a, "b": b}, 8)
    assert -128 <= v <= 127
