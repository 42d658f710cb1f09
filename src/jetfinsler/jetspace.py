"""Domain types for the 1-jet space of curves into a 3-manifold.

Coordinates are ``(t, x1, x2, x3, y1, y2, y3)`` where the ``y`` are the fiber
(velocity-like) components.  Under a time reparametrization and a spatial
diffeomorphism they transform as

    y~^p = (dx~^p/dx^q) (dt/dt~) y^q.

Index labels in accessors are 1-based throughout, matching the standard
tensor notation; dense numpy arrays store component (i) at slot i-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence, Union

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


class TemporalMetric:
    """The positive 1-d metric h11(t), its inverse, and its Christoffel symbol
    kappa = (h^11 / 2) dh11/dt."""

    def __init__(self, h11: Union[str, float, Expression]):
        if isinstance(h11, Expression):
            self.expression = h11
        else:
            self.expression = parse_expression(h11, variables=("t",))

    def __repr__(self) -> str:
        return f"TemporalMetric({self.expression.source!r})"

    def h11(self, t: float) -> float:
        v = float(self.expression.evaluate({"t": float(t)}))
        if v <= 0.0:
            raise NonPositiveMetric(f"h11({t}) = {v} is not positive")
        return v

    def h11_eval(self, t_any):
        """Duck-typed evaluation; checks positivity of the (constant) value,
        or of every value of an array of stencil nodes."""
        v = self.expression.evaluate({"t": t_any})
        if isinstance(v, np.ndarray):
            bad = v[v <= 0.0]
            if bad.size:
                raise NonPositiveMetric(f"h11 = {bad[0]} is not positive")
            return v
        v0 = v.value if isinstance(v, dt.Taylor) else float(v)
        if v0 <= 0.0:
            raise NonPositiveMetric(f"h11 = {v0} is not positive")
        return v

    def h_upper(self, t: float) -> float:
        return 1.0 / self.h11(t)

    def h11_jet(self, t: float, order: int) -> dt.Taylor:
        seed = dt.taylor_variable("t", float(t), order)
        return dt.as_taylor(self.h11_eval(seed), order)

    def kappa(self, t: float) -> float:
        js = self.h11_jet(t, 1)
        return float(dt.deriv(js, "t").value / (2.0 * js.value))

    def kappa_dot(self, t: float) -> float:
        js = self.h11_jet(t, 2)
        h = js.value
        hp = dt.deriv(js, "t").value
        hpp = dt.deriv(dt.deriv(js, "t"), "t").value
        return float((hpp * h - hp * hp) / (2.0 * h * h))

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


def kappa(tm: TemporalMetric, t: float) -> float:
    """Christoffel symbol of the temporal metric at t."""
    return tm.kappa(t)


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
        out = np.empty((3, 3, 3))
        for p in range(3):
            for q in range(3):
                for r in range(3):
                    out[p, q, r] = self.component(p + 1, q + 1, r + 1, x)
        return out

    def g111(self, x, y):
        """G111 = G_pqr y^p y^q y^r, duck-typed over floats/Taylor values."""
        total = 0.0
        for key, _ in self._entries.items():
            v = self.component(*key, x)
            p, q, r = key
            total = total + _multiplicity(key) * v * y[p - 1] * y[q - 1] * y[r - 1]
        return total


def finsler_function(cubic: CubicForm, tm: TemporalMetric):
    """The third-root function F = G111^(1/3) * h11^(-1/2) as a scalar field."""

    def field(t, x1, x2, x3, y1, y2, y3):
        g111 = cubic.g111((x1, x2, x3), (y1, y2, y3))
        return dt.powf(g111, 1.0 / 3.0) * dt.powf(tm.h11_eval(t), -0.5)

    return field


@dataclass(frozen=True)
class TimeReparam:
    """Monotone time map t -> t~ with its rate dt~/dt."""

    map: Callable[[float], float]
    rate: Callable[[float], float]

    @classmethod
    def identity(cls) -> "TimeReparam":
        return cls(map=lambda t: t, rate=lambda t: 1.0)

    @classmethod
    def scaling(cls, factor: float) -> "TimeReparam":
        return cls(map=lambda t: factor * t, rate=lambda t: factor)


@dataclass(frozen=True)
class SpatialDiffeo:
    """Spatial map x -> x~ with its Jacobian dx~^p/dx^q."""

    map: Callable[[Sequence[float]], Sequence[float]]
    jacobian: Callable[[Sequence[float]], np.ndarray]

    @classmethod
    def identity(cls) -> "SpatialDiffeo":
        return cls(map=lambda x: tuple(x), jacobian=lambda x: np.eye(3))

    @classmethod
    def scaling(cls, factors: Sequence[float]) -> "SpatialDiffeo":
        f = tuple(float(v) for v in factors)
        return cls(
            map=lambda x: tuple(fi * xi for fi, xi in zip(f, x)),
            jacobian=lambda x: np.diag(f),
        )

    @classmethod
    def permutation(cls, order: Sequence[int]) -> "SpatialDiffeo":
        """x~^p = x^{order[p]} with 1-based labels, e.g. (2, 3, 1)."""
        idx = tuple(int(i) - 1 for i in order)
        jac = np.zeros((3, 3))
        for p, q in enumerate(idx):
            jac[p, q] = 1.0
        return cls(map=lambda x: tuple(x[q] for q in idx), jacobian=lambda x: jac)


def transform_jet(p: JetPoint, reparam: TimeReparam, diffeo: SpatialDiffeo) -> JetPoint:
    """Transformed jet point under a time reparametrization and spatial diffeo."""
    rate = float(reparam.rate(p.t))
    if rate == 0.0:
        raise SingularChange("time reparametrization has zero rate")
    jac = np.asarray(diffeo.jacobian(p.x), dtype=float)
    norm = np.linalg.norm(jac)
    if abs(np.linalg.det(jac)) <= 1e-12 * norm**3:
        raise SingularChange("spatial Jacobian is singular")
    y_new = jac @ np.asarray(p.y) / rate
    return JetPoint.of(reparam.map(p.t), diffeo.map(p.x), y_new)


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
