"""Nonlinear connections, adapted frames, the Cartan canonical connection and
its torsion/curvature tensors, all computed from first-principles definitions.

Frame convention: for a nonlinear connection with temporal components M^p and
spatial components N^p_j, the adapted derivatives are

    delta/delta t   = d/dt   - M^p     d/dy_p
    delta/delta x^j = d/dx^j - N^p_j   d/dy_p,

so the a-priori pair (M^p = -kappa y^p, N^p_j = -(kappa/2) delta^p_j) gives
the frame d/dt + kappa y^p d/dy_p and d/dx^j + (kappa/2) d/dy_j.

Per point, everything is derived from a single 4th-order jet of F^2: the
metric g_ij = (h11/2) d^2(F^2)/dy_i dy_j is carried as a stack of order-2
truncated series (one array, the Taylor coefficients on the last axis), its
inverse by cofactor expansion over order-1 series, the connection
coefficients as stacked order-1 series, and the curvature components as
their first formal derivatives.  The series coefficients are exactly the
adapted-frame partials that the defining formulas call for, so the whole
chain is exact up to rounding.  ``deriv_mode="fd"`` swaps the two base jets (F^2 and h11) for
finite-difference tables; downstream algebra is unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import difftools as dt
from .errors import DegenerateMetric
from .jetspace import CubicForm, DTensorBundle, JetPoint, TemporalMetric, check_invertible
from .metric_engine import finsler_F_squared_field


class NonlinearConnection:
    """Temporal components M^i and spatial components N^i_j.

    ``M(t, x, y)`` returns the three M^i and ``N(t, x, y)`` the rows
    [N^i_1, N^i_2, N^i_3] for i = 1, 2, 3, all in one call, duck-evaluable on
    floats or Taylor values; ``frame(p)`` gives their values at a point as
    float arrays (3,) and (3, 3), index i at slot i - 1.
    """

    def __init__(self, M: Callable, N: Callable):
        self.M = M
        self.N = N

    def frame(self, p: JetPoint) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.array(self.M(p.t, p.x, p.y), dtype=float),
            np.array(self.N(p.t, p.x, p.y), dtype=float),
        )

    @classmethod
    def canonical(cls, tm: TemporalMetric) -> "NonlinearConnection":
        """M^i = -kappa y^i, N = 0 (the energy-action-functional connection)."""
        return cls(cls.apriori(tm).M, lambda t, x, y: [[0.0] * 3 for _ in range(3)])

    @classmethod
    def apriori(cls, tm: TemporalMetric) -> "NonlinearConnection":
        """M^i = -kappa y^i, N^i_j = -(kappa/2) delta^i_j."""

        def M(t, x, y):
            k = -tm.kappa_eval(t)
            return [k * yi for yi in y]

        def N(t, x, y):
            d = -tm.kappa_eval(t) * 0.5
            return [[d if i == j else 0.0 for j in range(3)] for i in range(3)]

        return cls(M, N)


@dataclass
class CartanConnection:
    """Adapted components (kappa, G^k_j1, L^i_jk, C^i_j(k)) of the Cartan
    canonical connection.  Arrays are indexed [upper, lower...] 0-based."""

    kappa: float
    G_time: np.ndarray        # (3, 3)  G^k_j1 as [k, j]
    L: np.ndarray             # (3, 3, 3)  L^i_jk as [i, j, k]
    C: np.ndarray             # (3, 3, 3)  C^{i(1)}_{j(k)} as [i, j, k]


@dataclass(frozen=True)
class TorsionSet:
    """The three surviving torsion tensors of the Cartan connection."""

    P_mixed: np.ndarray       # (3, 3, 3)  P^{(k)(1)}_{(1)i(j)} as [k, i, j]
    P_fiber: np.ndarray       # (3, 3, 3)  P^{k(1)}_{i(j)} as [k, i, j]
    R_time: np.ndarray        # (3, 3)     R^{(k)}_{(1)1j} as [k, j]


@dataclass(frozen=True)
class CurvatureSet:
    """The three surviving curvature tensors of the Cartan connection."""

    R_hh: np.ndarray          # (3, 3, 3, 3)  R^l_ijk as [l, i, j, k]
    P_hv: np.ndarray          # (3, 3, 3, 3)  P^{l (1)}_{ij(k)} as [l, i, j, k]
    S_vv: np.ndarray          # (3, 3, 3, 3)  S^{l(1)(1)}_{i(j)(k)} as [l, i, j, k]


@dataclass(frozen=True)
class RicciSet:
    """Ricci traces: R_ij = R^m_ijm, P_ij = P^{m(1)}_{ij(m)}, S_ij = S^m_i(j)(m)."""

    R: np.ndarray             # (3, 3)
    P: np.ndarray             # (3, 3)
    S: np.ndarray             # (3, 3)


_Y0 = 4  # slot of y1 among the seven coordinates

# Cofactor signs (-1)^(i+j), and the rows (_R0 < _R1) and columns (_C0 < _C1)
# that remain of a 3x3 matrix without row r and column c, indexed [r, c].
_SIGNS = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
_OTHER = np.array([(1, 2), (0, 2), (0, 1)])
_R0, _R1 = _OTHER[:, 0, None], _OTHER[:, 1, None]
_C0, _C1 = _OTHER[None, :, 0], _OTHER[None, :, 1]

# Slots of the first partials d/dt, d/dx^a and d/dy^a among the coefficients.
_DT, _DX, _DY = int(dt.D1_SLOTS[0]), dt.D1_SLOTS[1:_Y0], dt.D1_SLOTS[_Y0:]


def stack_coefficients(nested) -> np.ndarray:
    """Coefficients of a nested list of same-order series as one array, with
    the coefficients on the last axis (8 of them at order 1); a number stands
    for a constant order-1 series."""
    if isinstance(nested, dt.Taylor):
        return nested.c
    if isinstance(nested, (list, tuple)):
        return np.array([stack_coefficients(e) for e in nested])
    return dt.taylor_constant(float(nested), 1).c


def adapted_partials(s: np.ndarray, m: np.ndarray, n: np.ndarray):
    """delta/delta t, delta/delta x^a and d/dy^a (the last two on a new last
    axis a) of stacked coefficients (see ``stack_coefficients``) of series of
    order >= 1, read from their first-order slots, in the frame of M^p =
    ``m[p]`` and N^p_a = ``n[p, a]``.

    Each float comes from the operations the per-entry series path
    ``deriv(u, 1 + a) - N^p_a * deriv(u, 4 + p)`` performs on the value
    coefficient: a product there is accumulated into a zero
    (``_backend.poly_mul``), hence the ``+ 0.0``, which turns a -0.0 product
    into +0.0 exactly as the series path does.
    """
    d_y = s[..., _DY]
    m_terms = m * d_y + 0.0  # [..., p]: M^p d/dy^p
    n_terms = d_y[..., None] * n + 0.0  # [..., p, a]: N^p_a d/dy^p
    d_t, d_x = s[..., _DT], s[..., _DX]
    for p in range(3):
        d_t = d_t - m_terms[..., p]
        d_x = d_x - n_terms[..., p, :]
    return d_t, d_x, d_y


def _accumulate(terms: np.ndarray, acc=None) -> np.ndarray:
    """Sum of stacked series over the axis before the coefficients, adding
    one index at a time onto ``acc`` as the per-entry loops do."""
    for k in range(terms.shape[-2]):
        term = terms[..., k, :]
        acc = term if acc is None else acc + term
    return acc


class PointContext:
    """Lazy per-point evaluation of every generic object.

    Builds the 4th-order jet of F^2 once and memoizes g, its inverse, the
    connection coefficients and the EM 2-form as stacked order-1 series
    (``C_stack``, ``L_stack``, ``G_time_stack``, ``em_form_stack``), and the
    results of ``cartan()``, ``torsions()``, ``curvatures()`` and
    ``ricci()``, so each is computed at most once per point; repeated calls
    return the same objects.  Values and first partials are read as slices
    of the stacks.  Instances are single-use and not shared
    across threads; no cache outlives its context.
    """

    def __init__(
        self,
        cubic: CubicForm,
        tm: TemporalMetric,
        nlc: NonlinearConnection,
        point: JetPoint,
        deriv_mode: str = "exact",
    ):
        if deriv_mode not in ("exact", "fd"):
            raise ValueError(f"unknown derivative mode {deriv_mode!r}")
        self.cubic = cubic
        self.tm = tm
        self.nlc = nlc
        self.point = point
        self.deriv_mode = deriv_mode

    # -- base jets -----------------------------------------------------------

    @cached_property
    def f2_ser(self) -> dt.Taylor:
        fld = finsler_F_squared_field(self.cubic, self.tm)
        if self.deriv_mode == "fd":
            # only ``g_stack`` reads this jet, through two y-derivatives, so
            # the coefficients of y-degree below 2 are never sampled
            return dt.fd_jet(fld, self.point, 4, min_fiber_degree=2)
        return dt.jet_eval(fld, self.point, 4)

    @cached_property
    def h_ser(self) -> dt.Taylor:
        if self.deriv_mode == "fd":
            fld = lambda t, *rest: self.tm.h11_eval(t)
            return dt.fd_jet(fld, self.point, 4, active=(0,))
        return self.tm.h11_jet(self.point.t, 4)

    @cached_property
    def seeds1(self):
        return dt.seed_point(self.point.coords(), 1)

    # -- nonlinear connection as order-1 series -------------------------------

    def _on_seeds(self, components: Callable) -> np.ndarray:
        """Coefficients of a connection's M or N on the order-1 seeds."""
        t, x1, x2, x3, y1, y2, y3 = self.seeds1
        return stack_coefficients(components(t, (x1, x2, x3), (y1, y2, y3)))

    @cached_property
    def M_stack(self) -> np.ndarray:
        """M^i as order-1 series, (3, 8)."""
        return self._on_seeds(self.nlc.M)

    @cached_property
    def N_stack(self) -> np.ndarray:
        """N^i_j as order-1 series, [i, j], (3, 3, 8)."""
        return self._on_seeds(self.nlc.N)

    @cached_property
    def M_val(self) -> np.ndarray:
        return self.M_stack[..., 0]

    @cached_property
    def N_val(self) -> np.ndarray:
        return self.N_stack[..., 0]

    # -- metric as order-2 series ----------------------------------------------

    @cached_property
    def g_stack(self) -> np.ndarray:
        """g_ij = 0.5 * (h11 d^2(F^2)/dy_i dy_j) as order-2 series, (3, 3, 36)."""
        d2 = dt.first_partials(dt.first_partials(self.f2_ser.c)[_Y0:])[:, _Y0:]
        return 0.5 * dt.mul_stacks(self.h_ser.c, d2)

    @cached_property
    def g_val(self) -> np.ndarray:
        # contiguous: einsum may sum a strided slice in another order
        g = np.ascontiguousarray(self.g_stack[..., 0])
        check_invertible(g, DegenerateMetric, "g")
        return g

    @cached_property
    def ginv_stack(self) -> np.ndarray:
        """The inverse metric as order-1 series by cofactor expansion, (3, 3, 8).

        Only its values and first partials are read, so it is built from the
        order-1 truncation of g: the order-1 coefficients of a product depend
        on those of its factors alone, and an order-1 product accumulates them
        in the order of any higher-order product.
        """
        self.g_val  # degeneracy check
        g = self.g_stack[..., : dt.NCOEF[1]]
        mul = dt.mul_stacks
        # minor[r, c]: the 2x2 determinant without row r and column c
        minor = mul(g[_R0, _C0], g[_R1, _C1]) - mul(g[_R0, _C1], g[_R1, _C0])
        terms = mul(_SIGNS[0, :, None] * g[0], minor[0])
        det = terms[0].copy()
        det[0] += 0.0  # a sum over series starts from 0, added to the value
        det = det + terms[1] + terms[2]
        inv_det = (1.0 / dt.Taylor(det, 1)).c
        return mul((_SIGNS[..., None] * minor).transpose(1, 0, 2), inv_det)

    @cached_property
    def ginv_val(self) -> np.ndarray:
        # contiguous: einsum may sum a strided slice in another order
        return np.ascontiguousarray(self.ginv_stack[..., 0])

    # -- Cartan coefficients and the EM 2-form as stacked order-1 series ------

    # Each stack is the array expression of the per-entry series formula, with
    # the same operations in the same order (``dt.mul_stacks`` for a product
    # of series, ``_accumulate`` for a sum over an index), so every float
    # equals the one of the nested-loop ``Taylor`` evaluation.

    @cached_property
    def _dg(self) -> np.ndarray:
        """dg_ij/dv as order-1 series, [i, j, v] over the seven coordinates."""
        return dt.first_partials(self.g_stack)

    @cached_property
    def C_stack(self) -> np.ndarray:
        """C^{i(1)}_{j(k)} = (g^im / 2) dg_jk/dy^m, [i, j, k]."""
        dgdy = self._dg[:, :, _Y0:]  # [j, k, m]
        terms = dt.mul_stacks(self.ginv_stack[:, None, None], dgdy[None])
        return 0.5 * _accumulate(terms)

    @cached_property
    def dgdx_stack(self) -> np.ndarray:
        """delta g_ij / delta x^a (adapted), [a, i, j]."""
        dg = self._dg
        out = dg[:, :, 1:_Y0]  # [i, j, a]
        for p in range(3):
            out = out - dt.mul_stacks(self.N_stack[p], dg[:, :, None, _Y0 + p])
        return out.transpose(2, 0, 1, 3)

    @cached_property
    def L_stack(self) -> np.ndarray:
        """L^i_jk = (g^im / 2)(delta g_jm/dx^k + delta g_km/dx^j - delta g_jk/dx^m)."""
        dg = self.dgdx_stack
        # [j, k, m]: dg[k][j][m] + dg[j][k][m] - dg[m][j][k]
        brackets = dg.transpose(1, 0, 2, 3) + dg - dg.transpose(1, 2, 0, 3)
        terms = dt.mul_stacks(self.ginv_stack[:, None, None], brackets[None])
        return 0.5 * _accumulate(terms)

    @cached_property
    def G_time_stack(self) -> np.ndarray:
        """G^k_j1 = (g^km / 2) delta g_mj / delta t, [k, j]."""
        dg = self._dg
        dgdt = dg[:, :, 0]  # [m, j]
        for p in range(3):
            dgdt = dgdt - dt.mul_stacks(self.M_stack[p], dg[:, :, _Y0 + p])
        terms = dt.mul_stacks(self.ginv_stack[:, None], dgdt.transpose(1, 0, 2)[None])
        return 0.5 * _accumulate(terms)

    @cached_property
    def kappa(self) -> float:
        return self.tm.kappa(self.point.t)

    @cached_property
    def G_time_val(self) -> np.ndarray:
        return self.G_time_stack[..., 0]

    @cached_property
    def C_val(self) -> np.ndarray:
        return self.C_stack[..., 0]

    @cached_property
    def L_val(self) -> np.ndarray:
        return self.L_stack[..., 0]

    @cached_property
    def em_form_stack(self) -> np.ndarray:
        """F^{(1)}_{(i)j} as order-1 series (enough for its first derivatives):
        (h^11/2)[g_jm N^m_i - g_im N^m_j + (g_ir L^r_jm - g_jr L^r_im) y^m]."""
        g = self.g_stack[..., : dt.NCOEF[1]]  # [i, j]
        n_t = self.N_stack.transpose(1, 0, 2)  # [i, m] = N^m_i
        l_t = self.L_stack.transpose(1, 0, 2, 3)  # [j, r, m] = L^r_jm
        y = stack_coefficients(self.seeds1[_Y0:])
        h_up = (1.0 / self.h_ser.truncate(1)).c
        # [i, j, m]
        gn = dt.mul_stacks(g[None], n_t[:, None]) - dt.mul_stacks(g[:, None], n_t[None])
        # [i, j, r, m]
        gl = dt.mul_stacks(g[:, None, :, None], l_t[None]) - dt.mul_stacks(
            g[None, :, :, None], l_t[:, None]
        )
        acc = _accumulate(gn)
        acc = _accumulate(dt.mul_stacks(gl, y).reshape(3, 3, 9, -1), acc)
        return 0.5 * dt.mul_stacks(h_up, acc)

    # -- assembled objects --------------------------------------------------------

    # Each public method returns a private cached property, so that it stays a
    # plain method that can be wrapped on the class (as perfbench's tracer does).

    def cartan(self) -> CartanConnection:
        return self._cartan

    @cached_property
    def _cartan(self) -> CartanConnection:
        g_time = self.G_time_val  # a degenerate metric raises before kappa is read
        return CartanConnection(
            kappa=self.kappa, G_time=g_time, L=self.L_val, C=self.C_val
        )

    def torsions(self) -> TorsionSet:
        return self._torsion_set

    @cached_property
    def _torsion_set(self) -> TorsionSet:
        frame = self.M_val, self.N_val
        n_t, _, n_y = adapted_partials(self.N_stack, *frame)
        _, m_x, _ = adapted_partials(self.M_stack, *frame)
        # P_mixed[k, i, j] = dN^k_i/dy^j - L^k_ji
        p_mixed = n_y - self.L_val.transpose(0, 2, 1)
        # R_time[k, j] = delta M^k/delta x^j - delta N^k_j/delta t
        r_time = m_x - n_t
        return TorsionSet(P_mixed=p_mixed, P_fiber=self.C_val.copy(), R_time=r_time)

    def curvatures(self) -> CurvatureSet:
        return self._curvature_set

    @cached_property
    def _curvature_set(self) -> CurvatureSet:
        C0 = self.C_val
        L0 = self.L_val
        p_mixed = self.torsions().P_mixed

        frame = self.M_val, self.N_val
        # [l, i, j, a] = delta C^l_i(j)/delta x^a, [l, i, j, k] = d C^l_i(j) / dy_k
        _, dCdx, dC = adapted_partials(self.C_stack, *frame)
        s_vv = (
            dC
            - dC.transpose(0, 1, 3, 2)
            + np.einsum("mij,lmk->lijk", C0, C0)
            - np.einsum("mik,lmj->lijk", C0, C0)
        )

        # C^{l(1)}_{i(k)|j}
        c_bar = (
            dCdx
            + np.einsum("mik,lmj->likj", C0, L0)
            - np.einsum("lmk,mij->likj", C0, L0)
            - np.einsum("lim,mkj->likj", C0, L0)
        )

        # [l, i, j, a] = delta L^l_ij / delta x^a, [l, i, j, k] = d L^l_ij / dy_k
        _, dLdx, dLdy = adapted_partials(self.L_stack, *frame)
        p_hv = (
            dLdy
            - c_bar.transpose(0, 1, 3, 2)
            + np.einsum("lim,mjk->lijk", C0, p_mixed)
        )
        r_hh = (
            dLdx
            - dLdx.transpose(0, 1, 3, 2)
            + np.einsum("mij,lmk->lijk", L0, L0)
            - np.einsum("mik,lmj->lijk", L0, L0)
        )
        return CurvatureSet(R_hh=r_hh, P_hv=p_hv, S_vv=s_vv)

    def ricci(self) -> RicciSet:
        return self._ricci_set

    @cached_property
    def _ricci_set(self) -> RicciSet:
        curv = self.curvatures()
        return RicciSet(
            R=np.einsum("mijm->ij", curv.R_hh),
            P=np.einsum("mijm->ij", curv.P_hv),
            S=np.einsum("mijm->ij", curv.S_vv),
        )

    def scalar_curvature(self) -> float:
        """Sc = g^pq R_pq + h11 g^pq S_(p)(q)."""
        g_up, ric = self.ginv_val, self.ricci()
        return float(
            np.einsum("pq,pq->", g_up, ric.R)
            + self.h_ser.value * np.einsum("pq,pq->", g_up, ric.S)
        )

    def tensor_bundle(self) -> DTensorBundle:
        """Every generic tensor at the point, packed with its species tags.

        Time indices (all carrying the label 1) contribute no array axis."""
        cart = self.cartan()
        tors = self.torsions()
        curv = self.curvatures()
        ric = self.ricci()
        bundle = DTensorBundle()
        bundle.add("g_lower", self.g_val, ("S-", "S-"))
        bundle.add("g_upper", self.ginv_val, ("S+", "S+"))
        bundle.add("C", cart.C, ("F+", "S-", "F-"))
        bundle.add("L", cart.L, ("S+", "S-", "S-"))
        bundle.add("G_time", cart.G_time, ("S+", "S-", "T-"))
        bundle.add("P_mixed", tors.P_mixed, ("F+", "T-", "S-", "F-"))
        bundle.add("P_fiber", tors.P_fiber, ("F+", "S-", "F-"))
        bundle.add("R_time", tors.R_time, ("F+", "T-", "S-"))
        bundle.add("R_hh", curv.R_hh, ("S+", "S-", "S-", "S-"))
        bundle.add("P_hv", curv.P_hv, ("S+", "S-", "S-", "F-"))
        bundle.add("S_vv", curv.S_vv, ("F+", "S-", "F-", "F-"))
        bundle.add("ricci_R", ric.R, ("S-", "S-"))
        bundle.add("ricci_P", ric.P, ("S-", "F-"))
        bundle.add("ricci_S", ric.S, ("F-", "F-"))
        bundle.add("S_raised", self.ginv_val @ ric.S, ("F+", "F-"))
        bundle.add("scalar_curvature", self.scalar_curvature(), ())
        return bundle


# -- public operations ---------------------------------------------------------


_DIRECTIONS = {"time": (0, ())} | {  # which output of adapted_partials, and its index
    (kind, i): (axis, i - 1) for axis, kind in ((1, "spatial"), (2, "fiber")) for i in (1, 2, 3)
}


def adapted_derivative(field: Callable, p: JetPoint, nlc: NonlinearConnection, direction):
    """Directional derivative of a scalar field along the adapted frame of
    ``nlc`` at p (:func:`adapted_partials`).

    ``direction`` is ``"time"``, ``("spatial", i)`` or ``("fiber", i)`` with
    1-based i in 1..3; any other raises ``ValueError``.
    """
    try:
        axis, i = _DIRECTIONS[direction if isinstance(direction, str) else tuple(direction)]
    except (KeyError, TypeError):
        raise ValueError(f"unknown direction {direction!r}") from None
    return float(adapted_partials(dt.jet_eval(field, p, 1).c, *nlc.frame(p))[axis][i])
