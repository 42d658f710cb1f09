"""Tiny arithmetic expression grammar for scenario inputs.

Grammar: numeric literals, named variables, ``+ - * /``, integer powers via
``**``, and the functions ``exp``, ``sin``, ``cos``.  Anything else is
rejected with :class:`ConfigError`.  Expressions evaluate on floats or on
:class:`~jetfinsler.difftools.Taylor` values interchangeably, which is what
makes the scenario-defined metrics differentiable by the exact kernel.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from . import difftools as dt
from .errors import ConfigError, DomainError

_FUNCTIONS = {"exp": dt.exp, "sin": dt.sin, "cos": dt.cos}


_EVAL_GLOBALS = {"__builtins__": {}, **_FUNCTIONS}


@dataclass(frozen=True)
class Expression:
    """A parsed expression over a fixed variable set.

    The validated tree is compiled once; evaluation is a plain ``eval`` of the
    code object with the grammar functions as the only globals, so per-call
    cost is that of the arithmetic itself.
    """

    source: str
    variables: tuple[str, ...]
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

    def __call__(self, **env):
        return self.evaluate(env)


def parse_expression(source: str, variables=("t", "x1", "x2", "x3")) -> Expression:
    """Parse and validate a grammar expression; raises ConfigError otherwise."""
    if not isinstance(source, str):
        source = repr(float(source))
    try:
        tree = ast.parse(source, mode="eval")
        _validate(tree.body, tuple(variables), source)
        code = compile(tree, "<jetfinsler-expression>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse expression {source!r}: {exc}") from None
    except (MemoryError, RecursionError):  # the parser's and compiler's depth limits
        raise ConfigError(f"expression {source!r} is nested too deeply") from None
    return Expression(source=source, variables=tuple(variables), _code=code)


def _validate(node: ast.AST, variables: tuple[str, ...], source: str) -> None:
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError(f"non-numeric literal in {source!r}")
        return
    if isinstance(node, ast.Name):
        if node.id not in variables:
            raise ConfigError(
                f"unknown variable {node.id!r} in {source!r}; allowed: {variables}"
            )
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        _validate(node.operand, variables, source)
        return
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            _validate(node.left, variables, source)
            _validate(node.right, variables, source)
            return
        if isinstance(node.op, ast.Pow):
            _validate(node.left, variables, source)
            if _int_exponent(node.right) is None:
                raise ConfigError(
                    f"only integer powers are allowed in {source!r}"
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
            _validate(node.args[0], variables, source)
            return
        raise ConfigError(
            f"only exp/sin/cos calls with one argument are allowed in {source!r}"
        )
    raise ConfigError(f"construct {type(node).__name__} not in grammar in {source!r}")


def _int_exponent(node: ast.AST):
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return node.value
    if (
        isinstance(node, ast.UnaryOp)
        and isinstance(node.op, ast.USub)
        and isinstance(node.operand, ast.Constant)
        and isinstance(node.operand.value, int)
    ):
        return -node.operand.value
    return None
