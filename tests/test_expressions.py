import math

import pytest

from jetfinsler import difftools as dt
from jetfinsler.errors import ConfigError
from jetfinsler.expressions import MAX_INT_POWER, parse_expression


def test_arithmetic_and_precedence():
    e = parse_expression("1 + 2*t - t/4 + t**3", variables=("t",))
    t = 2.0
    assert e.evaluate({"t": t}) == 1 + 2 * t - t / 4 + t**3


def test_functions_and_negative_powers():
    e = parse_expression("exp(2*t) + sin(t) * cos(t) + t**-2", variables=("t",))
    t = 0.7
    want = math.exp(2 * t) + math.sin(t) * math.cos(t) + t**-2
    assert e.evaluate({"t": t}) == pytest.approx(want, rel=1e-15)


def test_unary_minus_and_constants():
    e = parse_expression("-t + +3.5", variables=("t",))
    assert e.evaluate({"t": 1.0}) == 2.5


def test_spatial_variables():
    e = parse_expression("x1*x2 - x3**2", variables=("x1", "x2", "x3"))
    assert e.evaluate({"x1": 2.0, "x2": 3.0, "x3": 1.0}) == 5.0


def test_taylor_evaluation_matches_lambda_derivatives():
    e = parse_expression("exp(2*t)", variables=("t",))
    field_expr = lambda t, x1, x2, x3, y1, y2, y3: e.evaluate({"t": t})
    field_ref = lambda t, x1, x2, x3, y1, y2, y3: dt.exp(2.0 * t)
    p = (0.3, 0, 0, 0, 1, 1, 1)
    for spec in [("t",), ("t", "t"), ("t", "t", "t")]:
        assert dt.partial(field_expr, p, spec) == dt.partial(field_ref, p, spec)


@pytest.mark.parametrize(
    "source, variables, names",
    [
        ("exp(2*t)", ("t",), {"t"}),
        ("1", ("t",), set()),
        ("0.1*sin(x3)", ("x1", "x2", "x3"), {"x3"}),  # sin is not a variable
        ("1/6 + 0.05*x1*x2", ("x1", "x2", "x3"), {"x1", "x2"}),
    ],
)
def test_names_are_the_variables_used(source, variables, names):
    assert parse_expression(source, variables=variables).names == names


def test_numeric_constant_coerces():
    e = parse_expression(4, variables=("t",))
    assert e.evaluate({"t": 0.0}) == 4.0


@pytest.mark.parametrize(
    "bad",
    [
        "t + u",              # unknown variable
        "t ** 0.5",           # non-integer power
        "t ** t",             # non-constant power
        "log(t)",             # function not in the grammar
        "exp(t, 2)",          # wrong arity
        "__import__('os')",   # call of a non-function name
        "t @ t",              # operator outside the grammar
        "[1, 2]",             # non-arithmetic construct
        "t +",                # syntax error
        "'abc'",              # non-numeric literal
        "True",               # booleans are not numbers
        "2*t + False",
        "t**True",            # nor integer exponents
        "t ** 65",            # exponent beyond the bound
        "t ** -65",
        "1 + t**1000000000",
    ],
)
def test_rejects_constructs_outside_grammar(bad):
    with pytest.raises(ConfigError):
        parse_expression(bad, variables=("t",))


def test_powers_up_to_the_bound_keep_the_product_order():
    t = dt.taylor_variable("t", 0.7, 4)
    for n in (MAX_INT_POWER, -MAX_INT_POWER):
        e = parse_expression(f"t**{n}", variables=("t",))
        base = t if n > 0 else t._recip()
        want = base
        for _ in range(abs(n) - 1):
            want = want * base
        assert e.evaluate({"t": t}).c.tobytes() == want.c.tobytes()


def test_missing_variable_value():
    e = parse_expression("t + 1", variables=("t",))
    with pytest.raises(ConfigError):
        e.evaluate({})
