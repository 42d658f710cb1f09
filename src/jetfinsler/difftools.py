"""Exact higher-order differentiation on the seven jet coordinates.

A scalar field here is any pure callable ``f(t, x1, x2, x3, y1, y2, y3)``
whose body combines its arguments with ``+ - * /``, powers and the helpers
``exp``, ``log``, ``sin``, ``cos``, ``sqrt``, ``powf`` from this module.  Such
a field can be evaluated on plain floats or on :class:`Taylor` values.

Differentiation works by evaluating the field once on coordinates seeded with
first-order infinitesimals: the result is the truncated multivariate Taylor
polynomial of the field at the point, and every mixed partial up to the
truncation order is a coefficient of that polynomial times a multinomial
factorial.  Product and chain rules are carried exactly by the truncated
arithmetic, so derivatives of polynomial, rational and power fields are exact
to floating-point rounding.  The truncation order is capped at
:data:`MAX_ORDER` = 4, the deepest derivative needed anywhere downstream.

Finite differences appear only in :func:`fd_partial` / :func:`fd_jet`, an
optional path used to cross-check the exact kernel; they are never the
default.  A finite-difference stencil is evaluated with one call of the field
on :class:`NodeArray` coordinates, one element per stencil node.  numpy's
``+ - * /`` round each element as Python's float operations do, but its
array powers and transcendental functions do not, so ``**`` on a
:class:`NodeArray` and the helpers below apply Python's ``**`` and
:mod:`math` element by element: every node value, and so every stencil sum,
is bit-identical to evaluating the field node by node on floats.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

from . import _backend
from .errors import DomainError, OrderTooHigh

NVARS = 7
MAX_ORDER = 4
COORD_NAMES = ("t", "x1", "x2", "x3", "y1", "y2", "y3")
_COORD_INDEX = {name: i for i, name in enumerate(COORD_NAMES)}


def _graded_exponents() -> list[tuple[int, ...]]:
    exps = [
        e
        for e in itertools.product(range(MAX_ORDER + 1), repeat=NVARS)
        if sum(e) <= MAX_ORDER
    ]
    exps.sort(key=lambda e: (sum(e), e))
    return exps


_EXPONENTS = _graded_exponents()
_POS = {e: i for i, e in enumerate(_EXPONENTS)}
NCOEF = tuple(
    sum(1 for e in _EXPONENTS if sum(e) <= k) for k in range(MAX_ORDER + 1)
)
_DEGREE = tuple(sum(e) for e in _EXPONENTS)
_FACT = np.array(
    [math.prod(math.factorial(v) for v in e) for e in _EXPONENTS], dtype=float
)


def _build_mul_tables():
    tables = {}
    for k in range(MAX_ORDER + 1):
        n = NCOEF[k]
        ia, ib, ic = [], [], []
        for i in range(n):
            di = _DEGREE[i]
            for j in range(NCOEF[k - di]):
                ia.append(i)
                ib.append(j)
                ic.append(
                    _POS[tuple(a + b for a, b in zip(_EXPONENTS[i], _EXPONENTS[j]))]
                )
        tables[k] = (
            np.asarray(ia, dtype=np.int64),
            np.asarray(ib, dtype=np.int64),
            np.asarray(ic, dtype=np.int64),
            n,
        )
    return tables


_MUL = _build_mul_tables()


def _build_diff_tables():
    tables = {}
    for v in range(NVARS):
        for k in range(1, MAX_ORDER + 1):
            nout = NCOEF[k - 1]
            src = np.empty(nout, dtype=np.int64)
            fac = np.empty(nout)
            for d in range(nout):
                e = list(_EXPONENTS[d])
                e[v] += 1
                src[d] = _POS[tuple(e)]
                fac[d] = e[v]
            tables[(v, k)] = (src, fac)
    return tables


_DIFF = _build_diff_tables()

#: Slot of the first partial d/dv among the coefficients of a series of any
#: order >= 1 (the graded order puts the seven first-order monomials first).
D1_SLOTS = np.array(
    [_POS[tuple(int(i == v) for i in range(NVARS))] for v in range(NVARS)]
)


class Taylor:
    """Truncated Taylor polynomial in the 7 jet coordinates.

    ``c`` holds the coefficients in graded order; ``c[i]`` is the coefficient
    of the monomial with exponent tuple ``_EXPONENTS[i]``, i.e. the mixed
    partial divided by the multi-index factorial.  Instances are treated as
    immutable: every operation allocates a fresh coefficient array, so slices
    of ``c`` may be shared freely.
    """

    __slots__ = ("c", "order")

    def __init__(self, coeffs: np.ndarray, order: int):
        self.c = coeffs
        self.order = order

    @property
    def value(self) -> float:
        return float(self.c[0])

    def truncate(self, order: int) -> "Taylor":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return Taylor(self.c[: NCOEF[order]], order)

    def __repr__(self) -> str:
        return f"Taylor(order={self.order}, value={self.value!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor):
            k = min(self.order, other.order)
            n = NCOEF[k]
            return Taylor(self.c[:n] + other.c[:n], k)
        c = self.c.copy()
        c[0] += float(other)
        return Taylor(c, self.order)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Taylor):
            k = min(self.order, other.order)
            n = NCOEF[k]
            return Taylor(self.c[:n] - other.c[:n], k)
        c = self.c.copy()
        c[0] -= float(other)
        return Taylor(c, self.order)

    def __rsub__(self, other):
        c = -self.c
        c[0] += float(other)
        return Taylor(c, self.order)

    def __neg__(self):
        return Taylor(-self.c, self.order)

    def __mul__(self, other):
        if isinstance(other, Taylor):
            k = min(self.order, other.order)
            n = NCOEF[k]
            ia, ib, ic, nout = _MUL[k]
            return Taylor(
                _backend.poly_mul(self.c[:n], other.c[:n], ia, ib, ic, nout), k
            )
        return Taylor(self.c * float(other), self.order)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor):
            return self * other._recip()
        return Taylor(self.c / float(other), self.order)

    def __rtruediv__(self, other):
        return self._recip() * float(other)

    def __pow__(self, e):
        if isinstance(e, (int, np.integer)) or (
            isinstance(e, float) and e.is_integer()
        ):
            n = int(e)
            if n == 0:
                return taylor_constant(1.0, self.order)
            base = self if n > 0 else self._recip()
            out = base
            for _ in range(abs(n) - 1):
                out = out * base
            return out
        return powf(self, float(e))

    def _recip(self) -> "Taylor":
        u0 = float(self.c[0])
        if u0 == 0.0:
            raise DomainError("division by a field whose value is zero")
        try:
            cs = [(-1.0) ** n / u0 ** (n + 1) for n in range(self.order + 1)]
        except ArithmeticError:  # a power of u0 beyond the double range
            raise DomainError(f"the reciprocal series of {u0!r} overflows") from None
        return compose_univariate(self, cs)


def taylor_constant(value: float, order: int) -> Taylor:
    c = np.zeros(NCOEF[order])
    c[0] = value
    return Taylor(c, order)


def taylor_variable(var: Union[int, str], value: float, order: int) -> Taylor:
    """Coordinate seed: value plus a first-order infinitesimal in ``var``."""
    idx = var if isinstance(var, int) else _COORD_INDEX[var]
    c = np.zeros(NCOEF[order])
    c[0] = value
    if order >= 1:
        unit = tuple(1 if i == idx else 0 for i in range(NVARS))
        c[_POS[unit]] = 1.0
    return Taylor(c, order)


def as_taylor(value, order: int) -> Taylor:
    if isinstance(value, Taylor):
        return value.truncate(min(order, value.order))
    return taylor_constant(float(value), order)


def seed_point(coords: Sequence[float], order: int):
    if len(coords) != NVARS:
        raise ValueError(f"expected {NVARS} coordinates, got {len(coords)}")
    return tuple(
        taylor_variable(i, float(v), order) for i, v in enumerate(coords)
    )


def deriv(u: Taylor, var: Union[int, str]) -> Taylor:
    """Formal derivative of a truncated series; the order drops by one.

    Exact: if ``u`` is the order-k Taylor polynomial of f, the result is the
    order-(k-1) Taylor polynomial of the corresponding partial of f.
    """
    idx = var if isinstance(var, int) else _COORD_INDEX[var]
    if u.order == 0:
        raise ValueError("cannot differentiate an order-0 series")
    src, fac = _DIFF[(idx, u.order)]
    return Taylor(u.c[src] * fac, u.order - 1)


# -- stacked order-1 series ---------------------------------------------------
#
# Arrays whose last axis holds the NCOEF[1] = 8 coefficients of an order-1
# series (the other axes index tensor entries) evaluate many series with one
# numpy operation each.  Sums, differences and scalings of such stacks are the
# elementwise operations of ``Taylor``; the two helpers below give products
# and first partials with the same float operations as the per-entry path.


def mul_order1(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of stacked order-1 series, broadcast over the leading axes.

    Every float equals ``(Taylor(a_e, 1) * Taylor(b_e, 1)).c`` for the
    entries a_e, b_e: ``_backend.poly_mul`` accumulates its table into zeros,
    so the value is ``a0*b0 + 0.0`` and slot v is ``(a0*b_v + 0.0) + a_v*b0``.
    """
    a0 = a[..., :1]
    out = a0 * b + 0.0
    out[..., 1:] += a[..., 1:] * b[..., :1]
    return out


def first_partials(c: np.ndarray) -> np.ndarray:
    """First partials of stacked same-order series, as stacked series of one
    order less on a new axis of the seven coordinates before the coefficients:
    ``out[..., v, :]`` is ``deriv(Taylor(c[...], k), v).c``."""
    src, fac = _FIRST_PARTIALS[NCOEF.index(c.shape[-1])]
    return c[..., src] * fac


_FIRST_PARTIALS = {
    k: (
        np.stack([_DIFF[(v, k)][0] for v in range(NVARS)]),
        np.stack([_DIFF[(v, k)][1] for v in range(NVARS)]),
    )
    for k in range(1, MAX_ORDER + 1)
}


def compose_univariate(u: Taylor, cs: Sequence[float]) -> Taylor:
    """Evaluate sum_n cs[n] * (u - u.value)^n by Horner's scheme.

    ``cs[n]`` must be ``f^(n)(u.value) / n!`` for the function being composed;
    ``len(cs)`` must be ``u.order + 1``.
    """
    w = u - float(u.c[0])
    out = taylor_constant(cs[-1], u.order)
    for n in range(len(cs) - 2, -1, -1):
        out = out * w + cs[n]
    return out


def univariate_coefficients(u: Taylor, var: Union[int, str], count: int):
    """Coefficients of the pure powers of one variable: [c_{var^0}, ...]."""
    idx = var if isinstance(var, int) else _COORD_INDEX[var]
    out = []
    for n in range(count):
        e = tuple(n if i == idx else 0 for i in range(NVARS))
        pos = _POS.get(e)
        out.append(float(u.c[pos]) if pos is not None and pos < len(u.c) else 0.0)
    return out


# -- stencil node arrays --------------------------------------------------------


class NodeArray(np.ndarray):
    """Float64 values at finite-difference stencil nodes (see :func:`fd_partial`).

    numpy's ``+ - * /`` round each element as Python's float operations do,
    but array ``**`` does not (it differs from Python's in a few percent of
    cases), so ``**`` takes the power of each element as a Python float.
    """

    def __pow__(self, e):
        return _elementwise(pow, self, e)

    def __rpow__(self, b):
        return _elementwise(lambda v: b**v, self)


def _elementwise(fn, u: np.ndarray, *args) -> NodeArray:
    """``fn(v, *args)`` for each element v of ``u`` taken as a Python float."""
    values = map(fn, u.ravel().tolist(), *map(itertools.repeat, args))
    return np.fromiter(values, float, u.size).reshape(u.shape).view(NodeArray)


# -- analytic helpers usable on floats, Taylor values and node arrays ---------
#
# On arrays each helper calls ``math`` (or Python's ``**``) element by
# element: numpy's own exp, log and fractional powers round differently.


def exp(u):
    if isinstance(u, Taylor):
        v = math.exp(float(u.c[0]))
        cs = [v / math.factorial(n) for n in range(u.order + 1)]
        return compose_univariate(u, cs)
    if isinstance(u, np.ndarray):
        return _elementwise(math.exp, u)
    return math.exp(u)


def log(u):
    if isinstance(u, Taylor):
        u0 = float(u.c[0])
        if u0 <= 0.0:
            raise DomainError("log of a non-positive field value")
        cs = [math.log(u0)]
        cs += [(-1.0) ** (n - 1) / (n * u0**n) for n in range(1, u.order + 1)]
        return compose_univariate(u, cs)
    if isinstance(u, np.ndarray):
        if (u <= 0.0).any():
            raise DomainError("log of a non-positive value")
        return _elementwise(math.log, u)
    if u <= 0.0:
        raise DomainError("log of a non-positive value")
    return math.log(u)


def sin(u):
    if isinstance(u, Taylor):
        u0 = float(u.c[0])
        cycle = (math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0))
        cs = [cycle[n % 4] / math.factorial(n) for n in range(u.order + 1)]
        return compose_univariate(u, cs)
    if isinstance(u, np.ndarray):
        return _elementwise(math.sin, u)
    return math.sin(u)


def cos(u):
    if isinstance(u, Taylor):
        u0 = float(u.c[0])
        cycle = (math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0))
        cs = [cycle[n % 4] / math.factorial(n) for n in range(u.order + 1)]
        return compose_univariate(u, cs)
    if isinstance(u, np.ndarray):
        return _elementwise(math.cos, u)
    return math.cos(u)


def powf(u, alpha: float):
    """Real power u**alpha, defined only for positive u (single branch)."""
    if isinstance(u, Taylor):
        u0 = float(u.c[0])
        if u0 <= 0.0:
            raise DomainError("fractional power of a non-positive field value")
        cs = []
        coeff = 1.0
        try:
            for n in range(u.order + 1):
                cs.append(coeff * u0 ** (alpha - n))
                coeff *= (alpha - n) / (n + 1)
        except OverflowError:
            raise DomainError(f"the series of {u0!r} ** {alpha!r} overflows") from None
        return compose_univariate(u, cs)
    if isinstance(u, np.ndarray):
        if (u <= 0.0).any():
            raise DomainError("fractional power of a non-positive value")
        # math.pow calls C pow, as float ** float does for positive bases
        return _elementwise(math.pow, u, alpha)
    if u <= 0.0:
        raise DomainError("fractional power of a non-positive value")
    return float(u) ** alpha


def sqrt(u):
    return powf(u, 0.5)


# -- partial-derivative extraction ------------------------------------------


@dataclass(frozen=True)
class PartialSpec:
    """A mixed-partial multi-index, canonicalized to sorted coordinate slots.

    Mixed partials commute, so the order of identifiers is irrelevant; two
    specs with permuted identifiers canonicalize to the same object.
    """

    indices: tuple[int, ...]

    def __post_init__(self):
        if len(self.indices) > MAX_ORDER:
            raise OrderTooHigh(
                f"order {len(self.indices)} exceeds the maximum {MAX_ORDER}"
            )
        for i in self.indices:
            if not 0 <= i < NVARS:
                raise ValueError(f"coordinate slot {i} out of range")
        object.__setattr__(self, "indices", tuple(sorted(self.indices)))

    @classmethod
    def coerce(cls, spec) -> "PartialSpec":
        if isinstance(spec, PartialSpec):
            return spec
        if isinstance(spec, (str, int)):
            spec = (spec,)
        idx = tuple(
            v if isinstance(v, int) else _COORD_INDEX[v] for v in spec
        )
        return cls(idx)

    @property
    def order(self) -> int:
        return len(self.indices)

    @property
    def exponents(self) -> tuple[int, ...]:
        e = [0] * NVARS
        for i in self.indices:
            e[i] += 1
        return tuple(e)


def _coords_of(point) -> tuple[float, ...]:
    if hasattr(point, "coords"):
        return point.coords()
    coords = tuple(float(v) for v in point)
    if len(coords) != NVARS:
        raise ValueError(f"expected {NVARS} coordinates, got {len(coords)}")
    return coords


def partial(field: Callable, point, spec) -> float:
    """Exact mixed partial of a scalar field at a point, total order <= 4."""
    spec = PartialSpec.coerce(spec)
    coords = _coords_of(point)
    if spec.order == 0:
        return float(field(*coords))
    out = field(*seed_point(coords, spec.order))
    if not isinstance(out, Taylor):
        return 0.0
    pos = _POS[spec.exponents]
    return float(out.c[pos] * _FACT[pos])


class JetTable:
    """All mixed partials of one field at one point, up to a fixed order."""

    __slots__ = ("order", "_c")

    def __init__(self, coeffs: np.ndarray, order: int):
        self._c = coeffs
        self.order = order

    @property
    def value(self) -> float:
        return float(self._c[0])

    def partial(self, *spec) -> float:
        if len(spec) == 1 and not isinstance(spec[0], (str, int)):
            spec = spec[0]
        ps = PartialSpec.coerce(spec)
        if ps.order > self.order:
            raise OrderTooHigh(
                f"table holds order {self.order}, requested {ps.order}"
            )
        pos = _POS[ps.exponents]
        return float(self._c[pos] * _FACT[pos])

    def taylor(self) -> Taylor:
        return Taylor(self._c, self.order)


def jet_eval(field: Callable, point, order: int) -> JetTable:
    """Single-traversal table of every mixed partial up to ``order``."""
    if order > MAX_ORDER:
        raise OrderTooHigh(f"order {order} exceeds the maximum {MAX_ORDER}")
    coords = _coords_of(point)
    out = field(*seed_point(coords, order))
    out = as_taylor(out, order)
    return JetTable(out.c, order)


# -- finite-difference fallback ----------------------------------------------

# Relative steps per total derivative order, tuned so that the 6th-order
# stencils below balance truncation against roundoff on smooth power-law
# fields over fiber coordinates down to 0.2.
_FD_REL_STEP = {1: 3e-3, 2: 6e-3, 3: 2e-2, 4: 4e-2}
_FD_SCALE_FLOOR = 0.1


@lru_cache(maxsize=None)
def _fd_stencil(m: int):
    """Symmetric nodes and weights for the m-th derivative, 6th-order accurate;
    nodes whose weight is zero are dropped."""
    r = (m + 5) // 2
    nodes = np.arange(-r, r + 1, dtype=float)
    npts = nodes.size
    v = np.vander(nodes, npts, increasing=True).T
    rhs = np.zeros(npts)
    rhs[m] = math.factorial(m)
    weights = np.linalg.solve(v, rhs)
    keep = weights != 0.0
    return nodes[keep], weights[keep]


def fd_partial(field: Callable, point, spec) -> float:
    """Mixed partial via tensor-product central differences (cross-check path).

    Far less accurate than :func:`partial`; relative error is about 1e-6 on
    smooth O(1) fields, degrading with the derivative order.

    The value is the sum over the stencil nodes, in ``itertools.product``
    order of the per-variable stencils, of the product of the per-variable
    weights, taken left to right from 1.0, times the field at the node; the
    sum runs from 0.0 one node at a time and is divided by the product of the
    steps last.
    """
    spec = PartialSpec.coerce(spec)
    coords = list(_coords_of(point))
    if spec.order == 0:
        return float(field(*coords))
    rel = _FD_REL_STEP[spec.order]
    stencils = [(v, m, *_fd_stencil(m)) for v, m in enumerate(spec.exponents) if m]
    k = len(stencils)
    # node coordinates of the active variables, [variable, node 1, ..., node k]
    grids = np.empty((k, *(nodes.size for _, _, nodes, _ in stencils)))
    weight = np.array(1.0)
    denom = 1.0
    for i, (v, m, nodes, weights) in enumerate(stencils):
        step = rel * max(abs(coords[v]), _FD_SCALE_FLOOR)
        denom *= step**m
        grids[i] = (coords[v] + nodes * step).reshape((-1,) + (1,) * (k - 1 - i))
        weight = np.multiply.outer(weight, weights)
    active = [v for v, *_ in stencils]
    values = _stencil_values(field, coords, active, grids.reshape(k, -1))
    terms = weight.ravel() * values
    return np.add.accumulate(np.concatenate(([0.0], terms)))[-1] / denom


def _stencil_values(field: Callable, coords, active, grids) -> np.ndarray:
    """The field at every stencil node: coordinate ``active[i]`` takes the
    values ``grids[i]``, the others stay the point's floats.

    One call on :class:`NodeArray` coordinates evaluates all nodes.  If it
    raises or gives a non-finite value, the nodes are evaluated again one at
    a time on ``np.float64`` coordinates, in node order, so that the first
    failing node raises its own exception, or the per-node values stand.
    """
    args = list(coords)
    for v, g in zip(active, grids):
        args[v] = g.view(NodeArray).copy()  # the field may update it in place
    try:
        with np.errstate(all="ignore"):
            values = np.asarray(field(*args), dtype=float)
        if values.shape in ((), grids[0].shape) and np.isfinite(values).all():
            return values
    except Exception:  # re-raised below by the node that fails on its own
        pass
    values = np.empty(grids[0].size)
    for k in range(values.size):
        for v, g in zip(active, grids):
            args[v] = g[k]
        values[k] = field(*args)
    return values


def fd_jet(field: Callable, point, order: int, active=None) -> Taylor:
    """Taylor coefficients assembled from finite differences (drop-in for the
    exact jet; used by the engine's ``fd`` derivative mode).

    ``active`` optionally lists the coordinate slots the field depends on;
    coefficients of monomials touching other slots are zero without being
    sampled.
    """
    if order > MAX_ORDER:
        raise OrderTooHigh(f"order {order} exceeds the maximum {MAX_ORDER}")
    coords = _coords_of(point)
    active = set(range(NVARS)) if active is None else set(active)
    c = np.zeros(NCOEF[order])
    c[0] = float(field(*coords))
    for pos in range(1, NCOEF[order]):
        exps = _EXPONENTS[pos]
        if any(m > 0 and v not in active for v, m in enumerate(exps)):
            continue
        spec = PartialSpec.coerce([v for v, m in enumerate(exps) for _ in range(m)])
        c[pos] = fd_partial(field, coords, spec) / _FACT[pos]
    return Taylor(c, order)
