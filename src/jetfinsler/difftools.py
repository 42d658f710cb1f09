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

Sampled derivatives appear only in :func:`fd_jet`, an optional path used to
cross-check the exact kernel; it is never the default.  It reads the jet off
contour integrals: one call of the field on a complex array of nodes on
circles around the point, one circle per direction.
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


def _seed_templates():
    """Per order, the coefficients of the seven seeds at the origin, one row
    per coordinate: a unit first-order coefficient in its own slot."""
    out = []
    for k in range(MAX_ORDER + 1):
        c = np.zeros((NVARS, NCOEF[k]))
        if k >= 1:
            c[np.arange(NVARS), D1_SLOTS] = 1.0
        out.append(c)
    return out


_SEEDS = _seed_templates()
_T_SEED_TAILS = [c[0, 1:].tobytes() for c in _SEEDS]


def seed_point(coords: Sequence[float], order: int):
    """The seeds ``taylor_variable(v, coords[v], order)`` of the seven
    coordinates, as rows of one copy of the order's template."""
    if len(coords) != NVARS:
        raise ValueError(f"expected {NVARS} coordinates, got {len(coords)}")
    c = _SEEDS[order].copy()
    c[:, 0] = [float(v) for v in coords]
    return tuple([Taylor(c[v], order, 1 << v) for v in range(NVARS)])


def is_t_seed(u: Taylor) -> bool:
    """Whether ``u`` is ``taylor_variable("t", u.value, u.order)``: slot set,
    dtype and every coefficient after the value, to the bit."""
    return (
        u.deps == 1
        and u.c.dtype == np.float64
        and u.c[1:].tobytes() == _T_SEED_TAILS[u.order]
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
        out = out * w  # a fresh array: add cs[n] in place, as ``+`` would
        out.c[0] += float(cs[n])
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


# -- analytic helpers usable on floats, Taylor values and node arrays ---------
#
# On a numpy array, such as the complex contour nodes of ``fd_jet``, each
# helper is numpy's function on its principal branch, with no domain check:
# ``fd_jet`` checks the values it gets.


def exp(u):
    if isinstance(u, Taylor):
        v = math.exp(float(u.c[0]))
        cs = [v / math.factorial(n) for n in range(u.order + 1)]
        return compose_univariate(u, cs)
    if isinstance(u, np.ndarray):
        return np.exp(u)
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
        return np.log(u)
    if u <= 0.0:
        raise DomainError("log of a non-positive value")
    return math.log(u)


def _angle(u0, name: str):
    """``u0``, or ``DomainError`` if it is infinite, where ``math``'s sin and
    cos raise ``ValueError``."""
    if math.isinf(u0):
        raise DomainError(f"{name} of an infinite value")
    return u0


def sin(u):
    if isinstance(u, Taylor):
        u0 = _angle(float(u.c[0]), "sin")
        cycle = (math.sin(u0), math.cos(u0), -math.sin(u0), -math.cos(u0))
        cs = [cycle[n % 4] / math.factorial(n) for n in range(u.order + 1)]
        return compose_univariate(u, cs)
    if isinstance(u, np.ndarray):
        return np.sin(u)
    return math.sin(_angle(u, "sin"))


def cos(u):
    if isinstance(u, Taylor):
        u0 = _angle(float(u.c[0]), "cos")
        cycle = (math.cos(u0), -math.sin(u0), -math.cos(u0), math.sin(u0))
        cs = [cycle[n % 4] / math.factorial(n) for n in range(u.order + 1)]
        return compose_univariate(u, cs)
    if isinstance(u, np.ndarray):
        return np.cos(u)
    return math.cos(_angle(u, "cos"))


def powf(u, alpha: float):
    """Real power u**alpha, defined only for positive finite u (single branch);
    on an array, the principal branch."""
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
        return np.power(u, alpha)
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


# -- contour jets: the finite-difference cross-check ---------------------------
#
# Along a direction w, the Taylor coefficients of z -> f(p + z w) are Cauchy
# integrals over a circle, which the trapezoidal rule on N equispaced nodes
# gives up to aliasing from degree N on (Lyness & Moler, SIAM J. Numer. Anal.
# 4 (1967) 202-210; Fornberg, ACM TOMS 7 (1981) 512-526).  Along w = i r, for
# the i of |i| = order over the active slots and radii r, the degree-d one is
# sum_{|a| = d} c_a r^a i^a, fixing the c_a (Griewank, Utke & Walther, Math.
# Comp. 69 (2000)).  Constants: nodes per circle, rho, the most halvings, the
# share of |f(p)| a node value may stray (keeping G111^(2/3) on its principal
# branch and the circles in the disc of convergence), floor of |c_v|.
_FD_NODES, _FD_RHO, _FD_HALVINGS, _FD_IMAGE, _FD_SCALE_FLOOR = 32, 0.25, 20, 0.5, 0.1


def fd_jet(field: Callable, point, order: int, active=None) -> Taylor:
    """Taylor coefficients from contour integrals, for the engine's ``fd``
    derivative mode; the field must take complex arrays.

    The field is called on floats for ``c[0]`` (so the point's own domain
    check comes first), then on one complex array per radius: active
    coordinate v is ``c_v + i_v r_v z`` at the N nodes z of the unit circle,
    per direction i, r_v = rho max(|c_v|, 0.1) / order.  rho = 0.25 halves,
    up to 20 times, until no node raises ``DomainError`` and every value is
    within 0.5 |f(p)| of f(p), or finite if f(p) = 0; else ``DomainError`` is
    raised, as for sin(x1) at x1 = 1e-8 (small against its change).

    Coefficients of monomials that touch a slot outside ``active`` (default
    all; the engine passes ``metric_engine.f2_slots`` and ``h11_slots``) are
    zero; the others do not depend on it.
    """
    if order > MAX_ORDER:
        raise OrderTooHigh(f"order {order} exceeds the maximum {MAX_ORDER}")
    coords = _coords_of(point)
    c = np.zeros(NCOEF[order])
    c[0] = value = float(field(*coords))
    slots = tuple(sorted(set(range(NVARS) if active is None else active)))
    if order == 0 or not slots:
        return Taylor(c, order)
    positions, exps, dirs, blocks, circle, dft = _contour_maps(order, slots)
    scale = np.array([max(abs(coords[v]), _FD_SCALE_FLOOR) for v in slots]) / order
    for halvings in range(_FD_HALVINGS + 1):
        radius = _FD_RHO / 2**halvings * scale
        got = _on_circles(field, coords, slots, dirs * radius, circle, value)
        if got is not None:
            break
    else:
        raise DomainError(f"no contour radius keeps the field near its value {value!r}")
    along = (got @ dft).real  # [direction, degree]: the trapezoidal sums
    scaled = np.zeros(len(positions))  # c_a r^a
    for d, (block, inverse) in enumerate(blocks, start=1):
        scaled[block] = np.einsum("ai,i->a", inverse, along[:, d])
    mantissa, exponent = np.frexp(radius)  # r^a = (2m)^a 2^((e-1) a): no overflow
    c[positions] = np.ldexp(scaled / np.prod((2 * mantissa) ** exps, axis=1), exps @ (1 - exponent))
    return Taylor(c, order)


@np.errstate(all="ignore")
def _on_circles(field: Callable, coords, slots, steps, circle, value):
    """The field at the nodes ``coords[v] + steps[i, j] z``, v = slots[j],
    (directions, N); None if it raises ``DomainError`` or a value is not
    finite or farther than _FD_IMAGE |value| from a nonzero ``value``."""
    args = list(coords)
    for j, v in enumerate(slots):
        args[v] = coords[v] + np.multiply.outer(steps[:, j], circle)
    try:
        got = np.broadcast_to(field(*args), (len(steps), len(circle)))
    except DomainError:
        return None
    near = np.abs(got - value) <= _FD_IMAGE * abs(value) if value else np.isfinite(got)
    return got if near.all() else None


@lru_cache(maxsize=None)
def _contour_maps(order: int, slots: tuple):
    """For the coefficients of degree 1..order on these slots: positions and
    exponents over the slots; the directions; per degree d, its block and
    the map from directional coefficients to c_a r^a, the inverse of
    V[i, a] = i^a (normal equations below d = order); the nodes z and
    weights z^-d / N.  einsum calls no BLAS, which threads larger arrays."""
    others = ALL_SLOTS ^ sum(1 << v for v in slots)
    positions = 1 + np.flatnonzero(_SUPPORT[1 : NCOEF[order]] & others == 0)
    full = _EXPONENT_ARRAY[positions]  # in graded order, so each degree is a block
    exps, degree = full[:, slots], full.sum(axis=1)
    dirs = exps[degree == order]
    powers = np.arange(order + 1.0)[:, None] ** np.arange(order + 1)  # [base, exponent]
    vander = np.ones((len(dirs), len(exps)))
    for j in range(len(slots)):
        vander *= powers[dirs[:, j, None], exps[:, j]]
    blocks = []
    for d in range(1, order + 1):
        block = slice(*np.searchsorted(degree, [d, d + 1]))
        v = vander[:, block]
        if d < order:
            m = np.linalg.solve(np.einsum("ia,ib->ab", v, v), v.T)
        else:  # LAPACK below 100 rows (see _square_inverse)
            m = np.linalg.solve(v, np.eye(len(v))) if len(v) < 100 else _square_inverse(v, dirs)
        blocks.append((block, m))
    circle = np.exp(2j * np.pi * np.arange(_FD_NODES) / _FD_NODES)
    dft = np.conj(circle[:, None] ** np.arange(order + 1)) / _FD_NODES
    return positions, exps, dirs, blocks, circle, dft


def _square_inverse(vander: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """The inverse of V[i, a] = i^a over the same exponents ``exps``, by
    forward substitution: i^a is 0 unless the slots of a lie in those of i,
    so V is block lower triangular by number of slots, each block diagonal
    by slot set.  OpenBLAS factors 100 rows or more on threads (LAPACK took
    0.1-0.7 s for 210 rows after idling) and fewer faster than this: 1.07
    against 1.40 ms for a process's first Berwald-Moor F^2 jet (35 rows)."""
    used = exps > 0
    bits, size = used @ (1 << np.arange(exps.shape[1])), used.sum(axis=1)
    inverse = np.zeros_like(vander)
    for s in range(1, size.max() + 1):  # (np.unique would import numpy.ma)
        rows = np.flatnonzero(size == s)
        rows = rows[np.argsort(bits[rows], kind="stable")]  # by slot set
        rhs = -np.einsum("ik,kj->ij", vander[rows][:, size < s], inverse[size < s])
        rhs[np.arange(len(rows)), rows] += 1.0
        q = np.count_nonzero(np.diff(bits[rows])) + 1  # slot sets of this size
        c = len(rows) // q
        diag = vander[np.ix_(rows, rows)].reshape(q, c, q, c)[np.arange(q), :, np.arange(q)]
        solved = np.einsum("qab,qbj->qaj", np.linalg.inv(diag), rhs.reshape(q, c, -1))
        inverse[rows] = solved.reshape(len(rows), -1)
    return inverse
