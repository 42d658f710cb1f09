"""Domain types for the 1-jet space of curves into a 3-manifold.

Coordinates are ``(t, x1, x2, x3, y1, y2, y3)`` where the ``y`` are the fiber
(velocity-like) components.  Under a time reparametrization and a spatial
diffeomorphism they transform as

    y~^p = (dx~^p/dx^q) (dt/dt~) y^q.

Index labels in accessors are 1-based throughout, matching the standard
tensor notation; dense numpy arrays store component (i) at slot i-1.
"""

from __future__ import annotations

import functools
import itertools
import math
import struct
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np

from . import difftools as dt
from .errors import (
    DomainError,
    NonPositiveMetric,
    OrderTooHigh,
    SingularChange,
)
from .expressions import Expression, parse_expression


@dataclass(frozen=True)
class JetPoint:
    """A point (t, x, y) of the jet space.

    Berwald-Moor evaluation requires y strictly positive; generic evaluation
    requires G111(x, y) > 0 before any fractional power is taken (the engines
    check this where it matters).
    """

    t: float
    x: tuple[float, float, float]
    y: tuple[float, float, float]

    @classmethod
    def of(cls, t, x, y) -> "JetPoint":
        return cls(float(t), tuple(float(v) for v in x), tuple(float(v) for v in y))

    def coords(self) -> tuple[float, ...]:
        return (self.t, *self.x, *self.y)

    def require_positive_fiber(self) -> None:
        if min(self.y) <= 0.0:
            raise DomainError(f"fiber coordinates must be positive, got {self.y}")


_FLOAT_BITS = struct.Struct("<d").pack  # tells -0.0 from 0.0, unlike ==


def _per_t(method):
    """Remember ``method(self, t, *args)`` for the most recent t (see
    ``TemporalMetric``): keyed on t's bits for a float t, also on the order
    and coefficient bytes for a ``Taylor`` t; any other t is not remembered."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(self, t, *args):
        if type(t) is float:
            value, key = t, (name, *args)
        elif isinstance(t, dt.Taylor):
            value, key = t.value, (name, *args, t.order, t.c.dtype.str, t.c.tobytes())
        else:
            return method(self, t, *args)
        slot = self._memo
        bits = _FLOAT_BITS(value)
        if slot[0] != bits:
            slot = (bits, {})
            self._memo = slot
        result = slot[1].get(key)
        if result is None:  # no method returns None
            result = slot[1][key] = method(self, t, *args)
        return result

    return memoized


class TemporalMetric:
    """The positive 1-d metric h11(t), its inverse, and its Christoffel symbol
    kappa = (h^11 / 2) dh11/dt.

    Every object of the geometry reads t only through these, so ``h11``,
    ``h11_eval``, ``h11_jet``, ``kappa``, ``kappa_dot`` and ``kappa_eval``
    remember their results for the most recent t: one point's engines, closed
    forms and field theory share one evaluation per method and argument.  The
    memo is keyed on the exact bits of t, and for a ``Taylor`` argument on its
    order and coefficient bytes too, so a hit returns the object a fresh
    instance would compute (results are numbers and ``Taylor`` values, which
    are never modified in place).  A t that is neither a Python float nor a
    ``Taylor``, such as an array of stencil nodes, is evaluated every time; a
    call that raises stores nothing.  The memo is one ``(t, dict)`` slot replaced as a whole when t
    changes, so threads evaluating at different times can only make each
    other recompute, never read a value of another t.
    """

    def __init__(self, h11: Union[str, float, Expression]):
        if isinstance(h11, Expression):
            self.expression = h11
        else:
            self.expression = parse_expression(h11, variables=("t",))
        self._memo = (None, {})

    def __repr__(self) -> str:
        return f"TemporalMetric({self.expression.source!r})"

    @_per_t
    def h11(self, t: float) -> float:
        v = float(self.expression.evaluate({"t": float(t)}))
        _check_h11(v, f"h11({t})")
        return v

    @_per_t
    def h11_eval(self, t_any):
        """Duck-typed evaluation; checks that the (constant) value, or every
        value of an array of stencil nodes, is positive and finite."""
        v = self.expression.evaluate({"t": t_any})
        if isinstance(v, np.ndarray):
            bad = v[~((v > 0.0) & np.isfinite(v))]
            if bad.size:
                _check_h11(float(bad[0]))
            return v
        _check_h11(v.value if isinstance(v, dt.Taylor) else float(v))
        return v

    @_per_t
    def h11_jet(self, t: float, order: int) -> dt.Taylor:
        seed = dt.taylor_variable("t", float(t), order)
        return dt.as_taylor(self.h11_eval(seed), order)

    @_per_t
    def kappa(self, t: float) -> float:
        js = self.h11_jet(t, 1)
        return float(dt.deriv(js, "t").value / (2.0 * js.value))

    @_per_t
    def kappa_dot(self, t: float) -> float:
        js = self.h11_jet(t, 2)
        h = js.value
        hp = dt.deriv(js, "t").value
        hpp = dt.deriv(dt.deriv(js, "t"), "t").value
        return float((hpp * h - hp * hp) / (2.0 * h * h))

    @_per_t
    def kappa_eval(self, t_any):
        """kappa on a float or a Taylor value (univariate composition)."""
        if not isinstance(t_any, dt.Taylor):
            return self.kappa(t_any)
        k = t_any.order
        if k + 1 > dt.MAX_ORDER:
            raise OrderTooHigh(
                f"kappa supports differentiation up to order {dt.MAX_ORDER - 1}"
            )
        js = self.h11_jet(t_any.value, k + 1)
        kser = dt.deriv(js, "t") / (js.truncate(k) * 2.0)
        cs = dt.univariate_coefficients(kser, "t", k + 1)
        return dt.compose_univariate(t_any, cs)


def _check_h11(v: float, name: str = "h11") -> None:
    if v <= 0.0:
        raise NonPositiveMetric(f"{name} = {v} is not positive")
    if not math.isfinite(v):
        raise DomainError(f"{name} = {v} is not finite")


def _multiplicity(key: tuple[int, int, int]) -> int:
    p, q, r = key
    if p == q == r:
        return 1
    if p == q or q == r:
        return 3
    return 6


class CubicForm:
    """Totally symmetric spatial (0,3) tensor G_pqr(x), stored for p<=q<=r.

    The accessor symmetrizes indices, so all 6 permutations of (p, q, r)
    return the same value.  The Berwald-Moor instance is the constant 1/6 on
    triples of distinct indices and 0 otherwise.
    """

    def __init__(self, entries: Mapping[tuple[int, int, int], Union[float, Expression]]):
        canon: dict[tuple[int, int, int], Union[float, Expression]] = {}
        for key, val in entries.items():
            key = tuple(sorted(int(i) for i in key))
            if len(key) != 3 or not all(1 <= i <= 3 for i in key):
                raise ValueError(f"cubic index triple out of range: {key}")
            canon[key] = val
        self._entries = canon

    @classmethod
    def berwald_moor(cls) -> "CubicForm":
        return cls({(1, 2, 3): 1.0 / 6.0})

    @classmethod
    def from_entries(cls, mapping: Mapping) -> "CubicForm":
        entries = {}
        for key, val in mapping.items():
            if isinstance(key, str):
                key = tuple(int(ch) for ch in key if ch.isdigit())
            if isinstance(val, str):
                val = parse_expression(val, variables=("x1", "x2", "x3"))
            entries[tuple(key)] = val
        return cls(entries)

    @property
    def entries(self):
        return dict(self._entries)

    def is_berwald_moor(self) -> bool:
        fixed = {
            k: v for k, v in self._entries.items() if not isinstance(v, Expression)
        }
        if set(fixed) != set(self._entries):
            return False
        nonzero = {k: v for k, v in fixed.items() if v != 0.0}
        return nonzero == {(1, 2, 3): 1.0 / 6.0}

    def component(self, p: int, q: int, r: int, x=None):
        """G_pqr at spatial position x (1-based indices, any order)."""
        val = self._entries.get(tuple(sorted((p, q, r))), 0.0)
        if isinstance(val, Expression):
            if x is None:
                raise ValueError("position-dependent cubic needs x")
            return val.evaluate({"x1": x[0], "x2": x[1], "x3": x[2]})
        return val

    def values_array(self, x) -> np.ndarray:
        """G_pqr at x as a (3, 3, 3) array: each stored entry is evaluated once
        and written to all its index permutations."""
        out = np.zeros((3, 3, 3))
        for key in sorted(self._entries):
            value = self.component(*key, x)
            for p, q, r in itertools.permutations(key):
                out[p - 1, q - 1, r - 1] = value
        return out

    def g111(self, x, y):
        """G111 = G_pqr y^p y^q y^r, duck-typed over floats/Taylor values."""
        total = 0.0
        for key, _ in self._entries.items():
            v = self.component(*key, x)
            p, q, r = key
            total = total + _multiplicity(key) * v * y[p - 1] * y[q - 1] * y[r - 1]
        return total


def check_invertible(m: np.ndarray, error: type, name: str) -> None:
    """Raise ``error`` if the 3x3 matrix ``m`` (called ``name`` in the message)
    is numerically singular: |det m| <= 1e-12 |m|^3, with the Frobenius norm."""
    det = float(np.linalg.det(m))
    norm = float(np.linalg.norm(m))
    if abs(det) <= 1e-12 * norm**3:
        raise error(f"det({name}) = {det} with norm {norm}")


def transform_jet(p: JetPoint, A=None, rate: float = 1.0) -> JetPoint:
    """The point p in the coordinates t~ = rate t and x~ = A x, for a constant
    rate and a constant 3x3 matrix A (the identity if None), so that
    y~ = A y / rate."""
    rate = float(rate)
    if rate == 0.0:
        raise SingularChange("time reparametrization has zero rate")
    A = np.eye(3) if A is None else np.asarray(A, dtype=float)
    check_invertible(A, SingularChange, "A")
    return JetPoint.of(rate * p.t, A @ np.asarray(p.x), A @ np.asarray(p.y) / rate)


_SPECIES = {"T", "S", "F"}


class DTensorBundle:
    """Named dense arrays tagged by index species.

    Species tags are strings like ``"S-"`` (spatial, lower) or ``"F+"``
    (fiber, upper).  Spatial and fiber indices range over {1,2,3} and each
    contributes one array axis of length 3; time indices are singletons and
    carry no axis.  Scalars use an empty tag tuple.
    """

    def __init__(self):
        self._slots: dict[str, tuple[np.ndarray, tuple[str, ...]]] = {}

    def add(self, name: str, array, species: tuple[str, ...]) -> None:
        for tag in species:
            if len(tag) != 2 or tag[0] not in _SPECIES or tag[1] not in "+-":
                raise ValueError(f"bad species tag {tag!r}")
        arr = np.asarray(array, dtype=float)
        expected = tuple(3 for tag in species if tag[0] != "T")
        if arr.shape != expected:
            raise ValueError(
                f"slot {name!r}: shape {arr.shape} does not match species {species}"
            )
        self._slots[name] = (arr, tuple(species))

    def array(self, name: str) -> np.ndarray:
        return self._slots[name][0]

    def species(self, name: str) -> tuple[str, ...]:
        return self._slots[name][1]

    def names(self):
        return tuple(self._slots)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.array(name)

    def __contains__(self, name: str) -> bool:
        return name in self._slots
