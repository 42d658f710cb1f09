"""Tiny arithmetic expression grammar for scenario inputs.

Grammar: numeric literals that are finite as floats, named variables,
``+ - * /``, integer powers via ``**`` with an exponent literal of at most
:data:`MAX_INT_POWER` in magnitude, and the functions ``exp``, ``sin``,
``cos``.  Anything else is rejected with :class:`ConfigError`.  Expressions
evaluate on floats or on :class:`~jetfinsler.difftools.Taylor` values
interchangeably, which is what makes the scenario-defined metrics
differentiable by the exact kernel.
"""

from __future__ import annotations

import ast
import math
import numbers
from dataclasses import dataclass, field

from . import difftools as dt
from .errors import ConfigError, DomainError

_FUNCTIONS = {"exp": dt.exp, "sin": dt.sin, "cos": dt.cos}


_EVAL_GLOBALS = {"__builtins__": {}, **_FUNCTIONS}

#: Bound on |n| in ``u**n``: a series power costs |n| - 1 products, so an
#: unbounded exponent would let a scenario run for hours.
MAX_INT_POWER = 64


@dataclass(frozen=True)
class Expression:
    """A parsed expression.

    ``names`` holds the variables the source uses (function names are not
    variables).  The validated tree is compiled once; evaluation is a plain
    ``eval`` of the code object with the grammar functions as the only
    globals, so per-call cost is that of the arithmetic itself.
    """

    source: str
    names: frozenset[str]
    _code: object = field(repr=False, compare=False)

    def evaluate(self, env: dict):
        try:
            return eval(self._code, _EVAL_GLOBALS, env)
        except NameError as exc:
            raise ConfigError(
                f"missing value for a variable of {self.source!r}: {exc}"
            ) from None
        except OverflowError as exc:  # e.g. exp of a large argument
            raise DomainError(f"{self.source!r} overflows: {exc}") from None
        except ZeroDivisionError:  # 1/0.0 or 0.0**-1, as a series reciprocal says
            raise DomainError("division by a field whose value is zero") from None


def parse_expression(source: str, variables: tuple[str, ...]) -> Expression:
    """Parse and validate a grammar expression; raises ConfigError otherwise.
    A finite number that is not a bool stands for its own literal."""
    if not isinstance(source, str):
        if not is_number(source):
            raise ConfigError(f"expression {source!r} is neither a string nor a number")
        if not _finite_float(source):
            raise ConfigError(f"number {source!r} is not finite")
        source = repr(float(source))
    names = set()
    try:
        tree = ast.parse(source, mode="eval")
        _validate(tree.body, variables, source, names)
        code = compile(tree, "<jetfinsler-expression>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {source!r}: {exc}") from None
    except (MemoryError, RecursionError):  # the parser's and compiler's depth limits
        raise ConfigError(f"expression {source!r} is nested too deeply") from None
    return Expression(source=source, names=frozenset(names), _code=code)


def _validate(node: ast.AST, variables: tuple[str, ...], source: str, names: set) -> None:
    """Raise ConfigError unless ``node`` is in the grammar; add the variables
    it uses to ``names``."""
    if isinstance(node, ast.Constant):
        if type(node.value) not in (int, float):  # bool is not a number here
            raise ConfigError(f"non-numeric literal in {source!r}")
        if not _finite_float(node.value):
            raise ConfigError(f"non-finite literal in {source!r}")
        return
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise ConfigError(
                f"unknown variable {node.id!r} in {source!r}; allowed: {variables}"
            )
        names.add(node.id)
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        _validate(node.operand, variables, source, names)
        return
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            _validate(node.left, variables, source, names)
            _validate(node.right, variables, source, names)
            return
        if isinstance(node.op, ast.Pow):
            _validate(node.left, variables, source, names)
            n = _int_exponent(node.right)
            if n is None:
                raise ConfigError(
                    f"only integer powers are allowed in {source!r}"
                )
            if abs(n) > MAX_INT_POWER:
                raise ConfigError(
                    f"integer powers are bounded by {MAX_INT_POWER} in magnitude "
                    f"in {source!r}"
                )
            return
        raise ConfigError(f"operator not in grammar in {source!r}")
    if isinstance(node, ast.Call):
        if (
            isinstance(node.func, ast.Name)
            and node.func.id in _FUNCTIONS
            and not node.keywords
            and len(node.args) == 1
        ):
            _validate(node.args[0], variables, source, names)
            return
        raise ConfigError(
            f"only exp/sin/cos calls with one argument are allowed in {source!r}"
        )
    raise ConfigError(f"construct {type(node).__name__} not in grammar in {source!r}")


def is_number(value) -> bool:
    """Whether ``value`` is a real number and not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """Whether ``value`` is a real number, not a bool, finite as a float."""
    return is_number(value) and _finite_float(value)


def _finite_float(value) -> bool:
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an integer beyond the double range
        return False


def _int_exponent(node: ast.AST):
    if isinstance(node, ast.Constant) and type(node.value) is int:  # not bool
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and type(node.operand.value) is int
    ):
        return -node.operand.value
    return None
