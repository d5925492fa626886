"""Angle expressions of the QASM parser: Python arithmetic on numbers and pi."""

import math
import operator
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdotplot import Gate, QasmError, parse_qasm


def _one_gate(statement: str) -> Gate:
    return parse_qasm(f"OPENQASM 2.0;\nqreg q[2];\n{statement}\n").gates[0]


# Expression trees of the angle grammar: ("num", text), ("pi",), ("paren", e),
# (sign, e) for a unary sign, and (op, left, right) for + - * /.

@st.composite
def _number(draw):
    whole = str(draw(st.integers(0, 999)))
    frac = draw(st.text("0123456789", min_size=1, max_size=3))
    text = draw(st.sampled_from([whole, whole + ".", "." + frac, whole + "." + frac]))
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + draw(st.sampled_from(["", "+", "-"]))
        text += str(draw(st.integers(0, 30)))
    return ("num", text)


def _grow(children):
    return st.one_of(
        st.tuples(st.just("paren"), children),
        st.tuples(st.sampled_from("+-"), children),
        st.tuples(st.sampled_from("+-*/"), children, children),
    )


_TREES = st.recursive(st.one_of(_number(), st.just(("pi",))), _grow, max_leaves=10)


def _render(tree, space="") -> tuple[str, int]:
    """The tree's text and its precedence: 0 for + -, 1 for * /, 2 for a
    unary sign, 3 for an atom. Operands that bind looser get parentheses."""
    if tree[0] == "num":
        return tree[1], 3
    if tree[0] == "pi":
        return "pi", 3
    if tree[0] == "paren":
        return f"({_render(tree[1], space)[0]})", 3
    if len(tree) == 2:
        text, prec = _render(tree[1], space)
        return tree[0] + (text if prec >= 2 else f"({text})"), 2
    op, (left, lp), (right, rp) = tree[0], _render(tree[1], space), _render(tree[2], space)
    prec = 1 if op in "*/" else 0
    left = left if lp >= prec else f"({left})"
    right = right if rp > prec else f"({right})"
    return f"{left}{space}{op}{space}{right}", prec


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _value(tree) -> float:
    if tree[0] == "num":
        return float(tree[1])
    if tree[0] == "pi":
        return math.pi
    if tree[0] == "paren":
        return _value(tree[1])
    if len(tree) == 2:
        return _value(tree[1]) if tree[0] == "+" else -_value(tree[1])
    return _OPS[tree[0]](_value(tree[1]), _value(tree[2]))


@settings(max_examples=300, deadline=1000)
@given(_TREES, st.sampled_from(["", " "]))
def test_angle_expressions_evaluate_bit_for_bit_like_their_tree(tree, space):
    text = _render(tree, space)[0]
    try:
        expected = _value(tree)
    except ZeroDivisionError:
        expected = math.nan
    if not math.isfinite(expected):
        with pytest.raises(QasmError, match="cannot evaluate angle"):
            _one_gate(f"rx({text}) q[0];")
    else:
        assert _one_gate(f"rx({text}) q[0];").params[0].hex() == expected.hex(), text


@pytest.mark.parametrize("angle", [
    "pi/04",
    "(" * 201 + "pi" + ")" * 201,
    "+".join(["1"] * 1000),
], ids=["leading-zero", "201-parentheses", "1000-term-chain"])
def test_angles_python_does_not_parse_cannot_be_evaluated(angle):
    statement = f"rx({angle}) q[0]"
    with pytest.raises(QasmError) as err:
        _one_gate(statement + ";")
    assert str(err.value) == f"cannot evaluate angle {angle!r} in statement {statement!r}"
    assert _one_gate("rx(" + "(" * 200 + "pi" + ")" * 200 + ") q[0];").params == (math.pi,)


def test_an_integer_too_large_for_a_float_cannot_be_evaluated():
    angle = "2*1" + "0" * 400
    with pytest.raises(QasmError, match=re.escape(f"cannot evaluate angle '{angle}' in statement")):
        _one_gate(f"rx({angle}) q[0];")


@pytest.mark.parametrize("statement,part", [
    ("u3(1,nan,0) q[0]", "nan"),
    ("u2(0,inf) q[0]", "inf"),
    ("u3(0,1_0,0) q[0]", "1_0"),
    ("u2(0,١) q[0]", "١"),
])
def test_a_parameter_list_names_the_one_part_that_cannot_be_evaluated(statement, part):
    # float() reads every one of these parts, yet none is an angle: each part
    # is read on its own, and the error names the one refused.
    with pytest.raises(QasmError) as err:
        _one_gate(statement + ";")
    assert str(err.value) == f"cannot evaluate angle {part!r} in statement {statement!r}"


@pytest.mark.parametrize("statement,expected", [
    ("u3(pi/2,0.5,-pi) q[0];", (math.pi / 2, 0.5, -math.pi)),
    ("u3(0.1, -2.5e-3 ,3) q[0];", (0.1, -2.5e-3, 3.0)),
    ("u2(1e308,1e308) q[0];", (1e308, 1e308)),  # finite parts, an overflowing sum
])
def test_parameter_lists_read_bit_for_bit(statement, expected):
    assert [a.hex() for a in _one_gate(statement).params] == [a.hex() for a in expected]
