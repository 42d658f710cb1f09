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
default.  Both evaluate the distinct nodes of their stencils in a few calls
of the field on :class:`NodeArray` coordinates, one element per node.  numpy's
``+ - * /`` round each element as Python's float operations do, but its
array powers and transcendental functions do not, so ``**`` on a
:class:`NodeArray` and the helpers below apply Python's ``**`` and
:mod:`math` to each distinct element value: every node value, and so every
stencil sum, is bit-identical to evaluating the field node by node on
floats.  If a call raises or gives a non-finite value, the field is called
once per distinct node instead, on floats, in coefficient order, and the
stencils are summed from those values by the same code.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

from . import _backend
from .errors import DomainError, OrderTooHigh

NVARS = 7
MAX_ORDER = 4
COORD_NAMES = ("t", "x1", "x2", "x3", "y1", "y2", "y3")
_COORD_INDEX = {name: i for i, name in enumerate(COORD_NAMES)}
_FIBER = slice(4, NVARS)  # the slots of y1, y2, y3


def _graded_exponents() -> list[tuple[int, ...]]:
    """The exponent tuples of total degree <= MAX_ORDER, by degree, then
    lexicographically: one per multiset of at most MAX_ORDER coordinates."""
    exps = [
        tuple(combo.count(v) for v in range(NVARS))
        for d in range(MAX_ORDER + 1)
        for combo in itertools.combinations_with_replacement(range(NVARS), d)
    ]
    exps.sort(key=lambda e: (sum(e), e))
    return exps


_EXPONENTS = _graded_exponents()
_POS = {e: i for i, e in enumerate(_EXPONENTS)}
_EXPONENT_ARRAY = np.array(_EXPONENTS)  # (330, 7)
NCOEF = tuple(
    sum(1 for e in _EXPONENTS if sum(e) <= k) for k in range(MAX_ORDER + 1)
)
_DEGREE = tuple(sum(e) for e in _EXPONENTS)
_FACT = np.array(
    [math.prod(math.factorial(v) for v in e) for e in _EXPONENTS], dtype=float
)


def _build_mul_tables():
    """Per order k, the (i, j) pairs of coefficients whose monomials multiply
    to one of degree <= k, i-major, and the slot ``ic`` of each product."""
    # base-(MAX_ORDER + 1) digits: the key of a product is the sum of keys
    key = _EXPONENT_ARRAY @ (MAX_ORDER + 1) ** np.arange(NVARS)
    by_key = np.argsort(key)
    degree = np.array(_DEGREE, dtype=np.int8)
    tables = {}
    for k in range(MAX_ORDER + 1):
        n = NCOEF[k]
        ia, ib = np.divmod(np.flatnonzero(degree[:n, None] + degree[None, :n] <= k), n)
        ic = by_key[np.searchsorted(key, key[ia] + key[ib], sorter=by_key)]
        tables[k] = (ia, ib, ic, n)
    return tables


_MUL = _build_mul_tables()

#: Bit set of every coordinate slot, bit v standing for slot v.
ALL_SLOTS = (1 << NVARS) - 1
_SUPPORT = (_EXPONENT_ARRAY > 0) @ (1 << np.arange(NVARS))  # slots of each monomial
#: Per order k, the slots the two monomials of each pair of ``_MUL[k]`` use.
_PAIR_SLOTS = {
    k: (_SUPPORT[ia] | _SUPPORT[ib]).astype(np.uint8) for k, (ia, ib, _, _) in _MUL.items()
}
_MUL_BY_SLOTS = [None] * ((MAX_ORDER + 1) << NVARS)  # filled by _mul_table


def _mul_table(k: int, slots: int):
    """``_MUL[k]`` restricted to the pairs whose two monomials use only the
    slots of the bit set ``slots``, in table order; built on first use."""
    table = _MUL_BY_SLOTS[k << NVARS | slots]
    if table is None:
        ia, ib, ic, n = _MUL[k]
        keep = (_PAIR_SLOTS[k] & (ALL_SLOTS ^ slots)) == 0
        table = _MUL_BY_SLOTS[k << NVARS | slots] = (ia[keep], ib[keep], ic[keep], n)
    return table


def _build_first_partials():
    """Per order k >= 1, the tables (src, fac), each (7, NCOEF[k - 1]), of the
    first partials of an order-k series: d/dv has coefficient
    ``c[src[v, d]] * fac[v, d]`` at slot d."""
    tables = {}
    for k in range(1, MAX_ORDER + 1):
        nout = NCOEF[k - 1]
        src = np.empty((NVARS, nout), dtype=np.int64)
        fac = np.empty((NVARS, nout))
        for v in range(NVARS):
            for d in range(nout):
                e = list(_EXPONENTS[d])
                e[v] += 1
                src[v, d] = _POS[tuple(e)]
                fac[v, d] = e[v]
        tables[k] = (src, fac)
    return tables


_FIRST_PARTIALS = _build_first_partials()

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

    ``deps`` is the bit set of the coordinate slots the series may depend on
    (bit v for slot v): every coefficient of a monomial that uses another
    slot is zero.  A seed has its own slot, a constant none, and a series
    built from raw coefficients all seven.  Each operation takes the union of
    its operands' sets, and a product multiplies only the pairs of
    coefficients whose monomials both lie inside that union (``_mul_table``).
    A pair it drops only feeds a coefficient outside the union, which is the
    +0.0 the full product sums there from zero terms: for finite
    coefficients every float equals the one of the product over the full
    table.
    """

    __slots__ = ("c", "order", "deps")

    def __init__(self, coeffs: np.ndarray, order: int, deps: int = ALL_SLOTS):
        self.c = coeffs
        self.order = order
        self.deps = deps

    @property
    def value(self) -> float:
        return float(self.c[0])

    def truncate(self, order: int) -> "Taylor":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        if order == self.order:
            return self
        return Taylor(self.c[: NCOEF[order]], order, self.deps)

    def partial(self, *spec) -> float:
        """The mixed partial named by ``spec`` (coordinate names or slots, in
        any order, or one sequence of them), read from its coefficient."""
        if len(spec) == 1 and not isinstance(spec[0], (str, int)):
            spec = spec[0]
        ps = PartialSpec.coerce(spec)
        if ps.order > self.order:
            raise OrderTooHigh(
                f"series holds order {self.order}, requested {ps.order}"
            )
        pos = _POS[ps.exponents]
        return float(self.c[pos] * _FACT[pos])

    def __repr__(self) -> str:
        return f"Taylor(order={self.order}, value={self.value!r})"

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Taylor):
            k = min(self.order, other.order)
            n = NCOEF[k]
            return Taylor(self.c[:n] + other.c[:n], k, self.deps | other.deps)
        c = self.c.copy()
        c[0] += float(other)
        return Taylor(c, self.order, self.deps)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Taylor):
            k = min(self.order, other.order)
            n = NCOEF[k]
            return Taylor(self.c[:n] - other.c[:n], k, self.deps | other.deps)
        c = self.c.copy()
        c[0] -= float(other)
        return Taylor(c, self.order, self.deps)

    def __rsub__(self, other):
        c = -self.c
        c[0] += float(other)
        return Taylor(c, self.order, self.deps)

    def __neg__(self):
        return Taylor(-self.c, self.order, self.deps)

    def __mul__(self, other):
        if isinstance(other, Taylor):
            k = min(self.order, other.order)
            deps = self.deps | other.deps
            ia, ib, ic, n = _mul_table(k, deps)
            return Taylor(
                _backend.poly_mul(self.c[:n], other.c[:n], ia, ib, ic, n), k, deps
            )
        return Taylor(self.c * float(other), self.order, self.deps)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Taylor):
            return self * other._recip()
        return Taylor(self.c / float(other), self.order, self.deps)

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
    return Taylor(c, order, 0)


def taylor_variable(var: Union[int, str], value: float, order: int) -> Taylor:
    """Coordinate seed: value plus a first-order infinitesimal in ``var``."""
    idx = var if isinstance(var, int) else _COORD_INDEX[var]
    c = np.zeros(NCOEF[order])
    c[0] = value
    if order >= 1:
        c[D1_SLOTS[idx]] = 1.0
    return Taylor(c, order, 1 << idx)


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
    if not 0 <= idx < NVARS:
        raise ValueError(f"no coordinate slot {idx}")
    if u.order == 0:
        raise ValueError("cannot differentiate an order-0 series")
    src, fac = _FIRST_PARTIALS[u.order]
    return Taylor(u.c[src[idx]] * fac[idx], u.order - 1, u.deps)


# -- stacked series ----------------------------------------------------------
#
# Arrays whose last axis holds the coefficients of same-order series (the
# other axes index tensor entries) evaluate many series with one numpy
# operation each.  Sums, differences and scalings of such stacks are the
# elementwise operations of ``Taylor``; the two helpers below give products
# and first partials with the same float operations as the per-entry path.


def mul_stacks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of stacked series, broadcast over the leading axes, at the
    lower of the two orders: every float equals the one of
    ``Taylor(a_e, ka) * Taylor(b_e, kb)`` for the entries a_e, b_e."""
    ia, ib, ic, n = _MUL[NCOEF.index(min(a.shape[-1], b.shape[-1]))]
    return _backend.poly_mul(a[..., :n], b[..., :n], ia, ib, ic, n)


def first_partials(c: np.ndarray) -> np.ndarray:
    """First partials of stacked same-order series, as stacked series of one
    order less on a new axis of the seven coordinates before the coefficients:
    ``out[..., v, :]`` is ``deriv(Taylor(c[...], k), v).c``."""
    src, fac = _FIRST_PARTIALS[NCOEF.index(c.shape[-1])]
    return c[..., src] * fac


def compose_univariate(u: Taylor, cs: Sequence[float]) -> Taylor:
    """Evaluate sum_n cs[n] * (u - u.value)^n by Horner's scheme.

    ``cs[n]`` must be ``f^(n)(u.value) / n!`` for the function being composed;
    ``len(cs)`` must be ``u.order + 1``.  The result depends on the slots
    ``u`` depends on (``u.deps``), so each Horner product multiplies only
    the pairs inside them.
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
    cases), so ``**`` takes the power of each element as a Python float, once
    per distinct element (:func:`_elementwise`).
    """

    def __pow__(self, e):
        return _elementwise(pow, self, e)

    def __rpow__(self, b):
        return _elementwise(lambda v: b**v, self)


def _elementwise(fn, u: np.ndarray, *args) -> NodeArray:
    """``fn(v, *args)`` for each element v of ``u`` taken as a Python float
    (as a Python int or bool for such arrays).

    ``fn`` is called once per distinct bit pattern of the elements, and its
    result gathered back to every element with that pattern: equal bits give
    equal results, so the values are those of one call per element.  Keying
    on bits keeps +0.0 and -0.0, and NaNs of different payloads, apart.  The
    nodes of a stencil chunk repeat their coordinates: the elementwise calls
    of the fd F^2 jet take 8,487 elements of 451 distinct values for the
    Berwald-Moor cubic with h11 = exp(2*t), and 102,055 of 35,421 for a
    cubic whose entries name x1, x2 and x3.
    If a call raises, ``fn`` is called per element, in order, so that the
    first element that raises raises.
    """
    flat = np.ravel(u)
    if flat.dtype.kind not in "biuf":
        flat = flat.astype(float)
    bits = flat.view(f"i{flat.itemsize}")
    distinct = np.sort(bits)
    new = np.empty(bits.size, dtype=bool)  # where a pattern starts
    new[:1] = True
    np.not_equal(distinct[1:], distinct[:-1], out=new[1:])
    distinct = distinct[new]
    try:
        calls = map(fn, distinct.view(flat.dtype).tolist(), *map(itertools.repeat, args))
        values = np.fromiter(calls, float, distinct.size)[np.searchsorted(distinct, bits)]
    except Exception:
        calls = map(fn, flat.tolist(), *map(itertools.repeat, args))
        values = np.fromiter(calls, float, flat.size)
    return values.reshape(np.shape(u)).view(NodeArray)


# -- analytic helpers usable on floats, Taylor values and node arrays ---------
#
# On arrays each helper calls ``math`` (or Python's ``**``) once per distinct
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
    """Real power u**alpha, defined only for positive finite u (single branch)."""
    if isinstance(u, Taylor):
        u0 = float(u.c[0])
        if u0 <= 0.0:
            raise DomainError("fractional power of a non-positive field value")
        if not math.isfinite(u0):
            raise DomainError("fractional power of a non-finite field value")
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
        if not np.isfinite(u).all():
            raise DomainError("fractional power of a non-finite value")
        # math.pow calls C pow, as float ** float does for positive bases
        return _elementwise(math.pow, u, alpha)
    if u <= 0.0:
        raise DomainError("fractional power of a non-positive value")
    if not math.isfinite(u):
        raise DomainError("fractional power of a non-finite value")
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
    return as_taylor(out, spec.order).partial(spec)


def jet_eval(field: Callable, point, order: int) -> Taylor:
    """The field's series at the point up to ``order`` in one traversal: every
    mixed partial up to that order is read from it with ``Taylor.partial``."""
    if order > MAX_ORDER:
        raise OrderTooHigh(f"order {order} exceeds the maximum {MAX_ORDER}")
    coords = _coords_of(point)
    return as_taylor(field(*seed_point(coords, order)), order)


# -- finite-difference fallback ----------------------------------------------

# Relative steps per total derivative order, tuned so that the 6th-order
# stencils below balance truncation against roundoff on smooth power-law
# fields over fiber coordinates down to 0.2.
_FD_REL_STEP = {1: 3e-3, 2: 6e-3, 3: 2e-2, 4: 4e-2}
_FD_SCALE_FLOOR = 0.1


#: Offsets and weights of the central stencil of the m-th derivative on the
#: offsets -r..r, r = (m + 5) // 2, 6th-order accurate: the exact rational
#: weights (Fornberg, Math. Comp. 51 (1988) 699-706), each correctly rounded.
#: The centre of the odd-order stencils has weight 0 and is left out.
_FD_STENCIL = {
    m: (np.array(offsets), np.array(weights))
    for m, offsets, weights in (
        (
            1,
            (-3, -2, -1, 1, 2, 3),
            (-1 / 60, 3 / 20, -3 / 4, 3 / 4, -3 / 20, 1 / 60),
        ),
        (
            2,
            (-3, -2, -1, 0, 1, 2, 3),
            (1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90),
        ),
        (
            3,
            (-4, -3, -2, -1, 1, 2, 3, 4),
            (-7 / 240, 3 / 10, -169 / 120, 61 / 30, -61 / 30, 169 / 120, -3 / 10, 7 / 240),
        ),
        (
            4,
            (-4, -3, -2, -1, 0, 1, 2, 3, 4),
            (7 / 240, -2 / 5, 169 / 60, -122 / 15, 91 / 8, -122 / 15, 169 / 60, -2 / 5, 7 / 240),
        ),
    )
}


def fd_partial(field: Callable, point, spec) -> float:
    """Mixed partial via tensor-product central differences (cross-check path).

    Far less accurate than :func:`partial`; relative error is about 1e-6 on
    smooth O(1) fields, degrading with the derivative order.

    The value is the sum over the stencil nodes, in ``itertools.product``
    order of the per-variable stencils, of the product of the per-variable
    weights, taken left to right from 1.0, times the field evaluated on
    Python floats at the node; the sum runs from 0.0 one node at a time and
    is divided by the product of the step powers last (:func:`_fd_sums`).
    """
    spec = PartialSpec.coerce(spec)
    coords = _coords_of(point)
    if spec.order == 0:
        return float(field(*coords))
    return float(_fd_values(field, coords, (_POS[spec.exponents],))[0])


def fd_jet(
    field: Callable, point, order: int, active=None, min_fiber_degree: int = 0
) -> Taylor:
    """Taylor coefficients assembled from finite differences (drop-in for the
    exact jet; used by the engine's ``fd`` derivative mode).

    ``active`` optionally lists the coordinate slots the field depends on;
    coefficients of monomials touching other slots are zero without being
    sampled (the engine passes the slots its F^2 and h11 expressions name,
    ``metric_engine.f2_slots`` and ``h11_slots``; with none, the jet is the
    value alone).  Likewise coefficients of monomials whose degree in the
    fiber coordinates y1..y3 is below ``min_fiber_degree`` are zero without
    being sampled: a caller that only reads k-th y-derivatives of the jet (the
    metric takes two of F^2) needs no lower ones, since ``deriv`` only
    gathers coefficients.  The value ``c[0]`` is always sampled, so the
    point's own domain check comes before any stencil's.

    Each sampled coefficient is ``fd_partial``'s divided by the multi-index
    factorial, bit for bit; stencils of one derivative order share nodes,
    and each distinct node is evaluated once.
    """
    if order > MAX_ORDER:
        raise OrderTooHigh(f"order {order} exceeds the maximum {MAX_ORDER}")
    coords = _coords_of(point)
    active = frozenset(range(NVARS) if active is None else active)
    c = np.zeros(NCOEF[order])
    c[0] = float(field(*coords))
    positions = _fd_positions(order, active, min_fiber_degree)
    rows = list(positions)
    c[rows] = _fd_values(field, coords, positions) / _FACT[rows]
    return Taylor(c, order)


@lru_cache(maxsize=None)
def _fd_positions(order: int, active: frozenset, min_fiber_degree: int) -> tuple:
    """The coefficients ``fd_jet`` samples, in coefficient order."""
    e = _EXPONENT_ARRAY[: NCOEF[order]]
    keep = e[:, _FIBER].sum(axis=1) >= min_fiber_degree
    keep &= ~e[:, [v for v in range(NVARS) if v not in active]].any(axis=1)
    keep[0] = False
    return tuple(np.flatnonzero(keep).tolist())


def _fd_values(field: Callable, coords, positions: tuple) -> np.ndarray:
    """``fd_partial``'s value of each coefficient in ``positions``: the
    stencils of their node plan summed from the node values of the batched
    calls or, if one of those fails, of one call per distinct node."""
    plan = _fd_plan(positions)
    own = np.reshape(coords, (-1, 1))
    steps, tables = {}, {}
    for d in {d for _, _, d, _ in plan.chunks}:
        # the steps and each coordinate's digit values, as fd_partial has them
        steps[d] = [_FD_REL_STEP[d] * max(abs(x), _FD_SCALE_FLOOR) for x in coords]
        with np.errstate(all="ignore"):
            tables[d] = np.hstack([own, own + np.multiply.outer(steps[d], _FD_OFFSETS)])
    try:
        values = _fd_batched(field, coords, plan, tables)
    except Exception:  # raised again by the node that fails
        values = None
    if values is None:
        values = _fd_node_by_node(field, plan, steps, tables)
    return _fd_sums(plan, values, steps)


# A stencil node of the coefficients of total derivative order d is named by
# d and one digit per coordinate that says how the node's value of it is
# computed: digit 0 is the point's own value (a coordinate the stencil does
# not vary), and digit o + 5 is ``coords[v] + o * step[v]`` at the stencil
# offset o, the steps depending only on d and the point.  So a varied
# coordinate at offset 0 has a digit of its own: ``c + 0.0 * step`` is c,
# except for c = -0.0, where it is +0.0.  Stencils of one order share nodes:
# the Berwald-Moor F^2 jet of fd mode (slots t and y1..y3) has 6,468 stencil
# nodes, of which 4,308 are distinct; that of a cubic whose entries name
# every x^i (all seven slots) has 48,219, of which 41,847.  A node's int32
# code holds d above the digits, 4 bits per coordinate, t the most
# significant, so the nodes of one order are contiguous in code order.
#
# The distinct nodes of each order are cut into chunks of ``_FD_CHUNK``
# nodes, one batched call each: 3 calls for the Berwald-Moor F^2 jet, 12 on
# all seven slots.  A call passes each coordinate that is the same at all
# nodes of its chunk as a Python float, the others as :class:`NodeArray`
# columns.

#: Nodes per batched field call, and stencil terms per summed block: bounds
#: the arrays held at once.
_FD_CHUNK = 4096
_FD_SHIFT = tuple(4 * (NVARS - 1 - v) for v in range(NVARS))
_FD_PLACE = np.array([1 << s for s in _FD_SHIFT], dtype=np.int32)
_FD_ORDER_SHIFT = 4 * NVARS
_FD_OFFSETS = np.arange(-4.0, 5.0)  # the offset o of each digit o + 5
#: The code digits o + 5 of the offsets o of the m-th derivative's stencil.
_FD_DIGITS = {m: (offsets + 5).astype(np.int32) for m, (offsets, _) in _FD_STENCIL.items()}


class _FdSignature(NamedTuple):
    """Stencils of one order with the same exponents, in variable order."""

    order: int
    rows: np.ndarray  # (S,) their coefficients' indices in ``_FdPlan.positions``
    nodes: np.ndarray  # (S, N) node indices, in ``itertools.product`` order
    weight: np.ndarray  # (N,) products of the per-variable weights
    slots: np.ndarray  # (S, k) the coordinate of each stencil variable
    exps: tuple  # (k,) the exponent of each stencil variable


class _FdPlan(NamedTuple):
    positions: tuple  # the coefficients sampled, in coefficient order
    codes: np.ndarray  # (n,) int32 codes of the distinct nodes
    chunks: tuple  # (start, stop, order, digit per coordinate or None) per call
    signatures: tuple


@lru_cache(maxsize=None)
def _fd_plan(positions: tuple) -> _FdPlan:
    """Which nodes are evaluated for these coefficients and how their
    stencils are summed; it depends on the coefficients only, not on the
    point or the field."""
    groups = {}
    for row, pos in enumerate(positions):
        e = _EXPONENTS[pos]
        slots = tuple(v for v in range(NVARS) if e[v])
        key = (_DEGREE[pos], tuple(e[v] for v in slots))
        groups.setdefault(key, []).append((row, slots))
    if not groups:
        return _FdPlan(positions, np.zeros(0, dtype=np.int32), (), ())
    sigs = [
        (d, ms, np.array([r for r, _ in members]), np.array([s for _, s in members]))
        for (d, ms), members in sorted(groups.items())
    ]
    sizes = [
        slots.shape[0] * math.prod(_FD_STENCIL[m][0].size for m in ms)
        for _, ms, _, slots in sigs
    ]
    codes = np.empty(sum(sizes), dtype=np.int32)
    start = 0
    for (d, ms, _, slots), size in zip(sigs, sizes):
        _fd_node_codes(d, ms, slots, codes[start : start + size].reshape(slots.shape[0], -1))
        start += size
    # the distinct codes in increasing order, and each code's index among them
    by_code = np.argsort(codes, kind="stable")  # fast on the sorted runs
    codes = codes[by_code]
    first = np.empty(codes.size, dtype=bool)
    first[0] = True
    first[1:] = np.diff(codes)  # nonzero where a new code starts
    distinct = codes[first]
    del codes
    index = np.cumsum(first, dtype=np.min_scalar_type(distinct.size))
    del first
    index -= 1
    index[by_code] = index.copy()
    del by_code
    signatures, start = [], 0
    for (d, ms, rows, slots), size in zip(sigs, sizes):
        weight = np.array(1.0)
        for m in ms:
            weight = np.multiply.outer(weight, _FD_STENCIL[m][1])
        nodes = index[start : start + size].reshape(slots.shape[0], -1)
        signatures.append(_FdSignature(d, rows, nodes, weight.ravel(), slots, ms))
        start += size
    # the nodes of one order are contiguous; each order is cut into chunks
    orders = distinct >> _FD_ORDER_SHIFT
    bounds = [0, *(np.flatnonzero(np.diff(orders)) + 1).tolist(), distinct.size]
    chunks = []
    for lo, hi in zip(bounds, bounds[1:]):
        for a in range(lo, hi, _FD_CHUNK):
            b = min(a + _FD_CHUNK, hi)
            # a coordinate whose digit is the same at all nodes of the chunk
            # is passed as a float, the others as columns
            head = int(distinct[a])
            differ = int(np.bitwise_or.reduce(distinct[a:b] ^ head))
            fixed = tuple(
                None if (differ >> shift) & 15 else (head >> shift) & 15
                for shift in _FD_SHIFT
            )
            chunks.append((a, b, int(orders[lo]), fixed))
    return _FdPlan(positions, distinct, tuple(chunks), tuple(signatures))


def _fd_node_codes(order: int, exps: tuple, slots: np.ndarray, out: np.ndarray):
    """Write to the (S, N) ``out`` the codes of the nodes of the stencils with
    these exponents on the S coordinate tuples ``slots``, in
    ``itertools.product`` order: each stencil variable adds its digit times
    its coordinate's place, broadcast along its own axis of the node grid."""
    k = len(exps)
    grid = out.reshape(slots.shape[0], *(_FD_STENCIL[m][0].size for m in exps))
    grid[...] = order << _FD_ORDER_SHIFT
    place = _FD_PLACE[slots].reshape(-1, *[1] * k, k)  # [s, ..., v]
    for v, m in enumerate(exps):
        axis = [1] * k
        axis[v] = -1
        grid += place[..., v] * _FD_DIGITS[m].reshape(axis)


@np.errstate(all="ignore")
def _fd_batched(field: Callable, coords, plan: _FdPlan, tables: dict):
    """The plan's node values from one field call per chunk of distinct
    nodes, or None if a call gives a non-finite value."""
    values = np.empty(plan.codes.size)
    for a, b, d, fixed in plan.chunks:
        args = list(coords)
        for v, digit in enumerate(fixed):
            if digit is None:
                digits = (plan.codes[a:b] >> _FD_SHIFT[v]) & 15
                args[v] = tables[d][v].take(digits).view(NodeArray)
            elif digit:
                args[v] = float(tables[d][v][digit])
        got = np.asarray(field(*args), dtype=float)
        if got.shape not in ((), (b - a,)) or not np.isfinite(got).all():
            return None
        values[a:b] = got
    return values


def _fd_node_by_node(field: Callable, plan: _FdPlan, steps: dict, tables: dict):
    """The plan's node values from one field call per distinct node, on
    Python floats read from the digit tables: the stencils in coefficient
    order, each one's step powers before its nodes and its nodes in
    ``itertools.product`` order, as ``fd_partial`` takes them, so that the
    first node that fails raises its own exception."""
    at = {d: table.tolist() for d, table in tables.items()}
    values = {}
    stencils = ((sig, j) for sig in plan.signatures for j in range(sig.rows.size))
    for sig, j in sorted(stencils, key=lambda stencil: stencil[0].rows[stencil[1]]):
        for v, m in zip(sig.slots[j].tolist(), sig.exps):
            steps[sig.order][v] ** m  # an overflow raises here, as in fd_partial
        for node in sig.nodes[j].tolist():
            if node not in values:
                code = int(plan.codes[node])
                args = [at[sig.order][v][(code >> s) & 15] for v, s in enumerate(_FD_SHIFT)]
                values[node] = float(field(*args))
    return np.array([values[node] for node in range(plan.codes.size)])


@np.errstate(all="ignore")
def _fd_sums(plan: _FdPlan, values: np.ndarray, steps: dict) -> np.ndarray:
    """Each stencil of the plan summed from the node values as in
    ``fd_partial``: the weighted terms in the stencil's node order, stencils
    of one signature together by 2-D ``np.add.accumulate``, divided by the
    product of the step powers."""
    out = np.empty(len(plan.positions))
    for sig in plan.signatures:
        denom = 1.0  # from the powers the stencils use: others may overflow
        for column, m in zip(sig.slots.T.tolist(), sig.exps):
            denom = denom * np.array([steps[sig.order][v] ** m for v in column])
        step = max(1, _FD_CHUNK // sig.weight.size)
        for r in range(0, sig.rows.size, step):
            block = slice(r, r + step)
            terms = values[sig.nodes[block]] * sig.weight
            # fd_partial sums from 0.0; that start changes a sum only when
            # every term is -0.0, into +0.0, which is what ``+ 0.0`` does
            total = np.add.accumulate(terms, axis=1)[:, -1] + 0.0
            out[sig.rows[block]] = total / denom[block]
    return out
