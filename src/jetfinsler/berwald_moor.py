"""Closed-form tensors of the rheonomic Berwald-Moor metric of order three.

With G111 = y1 y2 y3 on the positive orthant, every geometric object has an
explicit expression; ``ClosedForms`` computes them all at one point:

    g_ij   = ((2 - 3 delta_ij)/9) G111^(2/3) / (y_i y_j)
    g^jk   = (2 - 3 delta^jk) G111^(-2/3) y_j y_k
    C^i_j(k) = A^i_jk y_i / (y_j y_k),  A^i_jk in {-2/9, 1/9}
    Cartan: (kappa, G^k_j1 = 0, L = (kappa/2) C, C)
    torsions: P_mixed = -(kappa/2) C, P_fiber = C,
              R_time = (1/2)(kappa' - kappa^2) I
    curvatures: R_hh = (kappa^2/4) S, P_hv = (kappa/2) S, S from a 9-case table
    Ricci: S_(i)(j) = ((3 delta_ij - 1)/9) / (y_i y_j) with (kappa^2/4) and
           (kappa/2) prefactors for the R- and P-traces
    raised: S^m11_i = G111^(-2/3) ((1 - 3 delta^m_i)/3) y_m / y_i
    scalar: Sc = -((4 h11 + kappa^2)/2) G111^(-2/3)

Repeated indices in these formulas are NOT summed: each component is its own
formula, evaluated for all indices at once as an elementwise array expression
(y_i as a column, y_j as a row), with the operations of the per-index formula
in the same order, so every float equals the one of a loop over the indices;
the S table alone is filled entry by entry from its case table.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import cached_property
import itertools

import numpy as np

from . import difftools as dt
from .connection_engine import stack_coefficients
from .jetspace import JetPoint, TemporalMetric


def _a_coefficients() -> np.ndarray:
    a = np.empty((3, 3, 3))
    for i, j, k in itertools.product(range(3), repeat=3):
        dij = 1.0 if i == j else 0.0
        dik = 1.0 if i == k else 0.0
        djk = 1.0 if j == k else 0.0
        a[i, j, k] = (3 * dij + 3 * dik + 3 * djk - 9 * dij * djk - 2.0) / 9.0
    return a


#: A^i_jk: -2/9 when i, j, k are all distinct or all equal, 1/9 when exactly
#: two coincide.  Row sums over either lower index vanish, as does the trace
#: over (upper, one lower).
A_COEFFICIENTS = _a_coefficients()
A_COEFFICIENTS.setflags(write=False)

# Constant factors, [i, j], with d = 3 delta_ij: (2 - d)/9 of g_ij, 2 - d of
# g^ij, (d - 1)/9 of S_(i)(j), and (1 - d)/3 of S^m11_i as [m, i].
_D = 3.0 * np.eye(3)
_LOWER_COEF = (2.0 - _D) / 9.0
_UPPER_COEF = 2.0 - _D
_RICCI_COEF = (_D - 1.0) / 9.0
_S_RAISED_COEF = (1.0 - _D) / 3.0


def _s_table(y) -> np.ndarray:
    """The vertical curvature S^{l(1)(1)}_{i(j)(k)} from its 9-case table."""
    s = np.zeros((3, 3, 3, 3))
    for l, i, j, k in itertools.product(range(3), repeat=4):
        if j == k:
            continue  # antisymmetric in (j, k)
        if i == l and j == l:          # case 8: S^l_l(l)(k) = 0
            v = 0.0
        elif i == l and k == l:        # case 9: S^l_l(j)(l) = 0
            v = 0.0
        elif l == i:                   # case 3: i, j, k distinct
            v = 0.0
        elif i == j and k == l:        # case 6
            v = 1.0 / (9.0 * y[i] * y[i])
        elif j == l and k == i:        # case 7
            v = -1.0 / (9.0 * y[i] * y[i])
        elif i == j:                   # case 1: i, k, l distinct
            v = -(1.0 / 9.0) * y[l] / (y[i] * y[i] * y[k])
        elif i == k:                   # case 2: i, j, l distinct
            v = (1.0 / 9.0) * y[l] / (y[i] * y[i] * y[j])
        elif j == l:                   # case 4: i, k, l distinct
            v = 1.0 / (9.0 * y[i] * y[k])
        elif k == l:                   # case 5: i, j, l distinct
            v = -1.0 / (9.0 * y[i] * y[j])
        else:
            raise AssertionError("unreachable index pattern")
        s[l, i, j, k] = v
    return s


class ClosedForms(Mapping):
    """Every closed-form object of the Berwald-Moor metric at one point.

    The constructor checks the fiber once and computes the 16 tensors the
    engines compare; the instance is a read-only mapping from their names
    (``g_lower``, ``C``, ``S_vv``, ``S_raised``, ``scalar_curvature``, ...)
    to arrays.  The field theory reads the tensors through the mapping and
    the per-point scalars as attributes: ``h11``, ``kappa`` (``None`` with the
    canonical connection) and ``g23inv`` = G111^(-2/3); the order-1 series of
    the conservation laws are built on first read: ``seeds`` (the point's seed
    series), ``g23inv_ser`` and the stacked S^m11_i ``s_raised_stack``.
    ``closed_form_bundle`` builds an instance.  Like ``PointContext``, an
    instance caches nothing beyond itself: make one per point.

    g, g^-1, S_(i)(j), S^m11_i and C are array expressions whose every entry
    rounds like its per-index formula (see the module docstring).

    ``connection="apriori"`` uses the full formulas above.  With the canonical
    connection (N = 0) the adapted spatial frame loses its fiber correction,
    so L, both kappa-weighted torsions, R_time, R_hh, P_hv and the R/P Ricci
    traces all vanish and the scalar curvature keeps only its h11 part; the
    purely vertical objects (g, C, S and their traces) are unchanged.
    """

    def __init__(self, p: JetPoint, tm: TemporalMetric, connection: str = "apriori"):
        if connection not in ("apriori", "canonical"):
            raise ValueError(f"unknown connection {connection!r}")
        p.require_positive_fiber()
        self.point, self.tm, self.connection = p, tm, connection
        self.h11 = h11 = tm.h11(p.t)
        y = p.y
        g111 = y[0] * y[1] * y[2]
        g23 = g111 ** (2.0 / 3.0)
        # per entry, the no-sum formula of the module docstring, operation
        # by operation ([i, j] = y_i y_j below, [i, j, k] for C)
        yv = np.array(y)
        y_i, y_j = yv[:, None], yv[None, :]
        yy = y_i * y_j
        lower = _LOWER_COEF * g23 / yy
        upper = _UPPER_COEF / g23 * y_i * y_j
        ric = _RICCI_COEF / yy
        s_up = _S_RAISED_COEF / g23 * y_i / y_j
        c = A_COEFFICIENTS * yv[:, None, None] / yy
        s = _s_table(y)
        self.g23inv = g111 ** (-2.0 / 3.0)
        if connection == "apriori":
            self.kappa = kappa = tm.kappa(p.t)
            L = 0.5 * kappa * c
            p_mixed = -0.5 * kappa * c
            r_time = 0.5 * (tm.kappa_dot(p.t) - kappa * kappa) * np.eye(3)
            r_hh, p_hv = 0.25 * kappa * kappa * s, 0.5 * kappa * s
            ricci_R, ricci_P = 0.25 * kappa * kappa * ric, 0.5 * kappa * ric
            scalar = float(-(4.0 * h11 + kappa * kappa) / 2.0 * self.g23inv)
        else:
            self.kappa = None
            L = p_mixed = np.zeros((3, 3, 3))
            r_time = np.zeros((3, 3))
            r_hh = p_hv = np.zeros((3, 3, 3, 3))
            ricci_R = ricci_P = np.zeros((3, 3))
            scalar = float(-2.0 * h11 * self.g23inv)
        self._tensors = {
            "g_lower": lower,
            "g_upper": upper,
            "C": c,
            "L": L,
            "G_time": np.zeros((3, 3)),
            "P_mixed": p_mixed,
            "P_fiber": c,
            "R_time": r_time,
            "R_hh": r_hh,
            "P_hv": p_hv,
            "S_vv": s,
            "ricci_R": ricci_R,
            "ricci_P": ricci_P,
            "ricci_S": ric,
            "S_raised": s_up,
            "scalar_curvature": scalar,
        }

    def __getitem__(self, name: str):
        return self._tensors[name]

    def __iter__(self):
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    @cached_property
    def seeds(self) -> tuple:
        """The point's seed series (t, x1, x2, x3, y1, y2, y3) of order 1."""
        return dt.seed_point(self.point.coords(), 1)

    @cached_property
    def g23inv_ser(self) -> dt.Taylor:
        """G111^(-2/3) as an order-1 series."""
        y = self.seeds[4:]
        return dt.powf(y[0] * y[1] * y[2], -2.0 / 3.0)

    @cached_property
    def s_raised_stack(self) -> np.ndarray:
        """S^m11_i as order-1 series, stacked [m, i] with the coefficients on
        the last axis, (3, 3, 8).

        Each entry is ((G111^(-2/3) (1 - 3 delta^m_i)/3) y_m) (1/y_i), a
        division being a product with the reciprocal series."""
        y = self.seeds[4:]
        y_c = stack_coefficients(y)
        recip = stack_coefficients([v._recip() for v in y])
        coef = self.g23inv_ser.c * _S_RAISED_COEF[..., None]
        return dt.mul_stacks(dt.mul_stacks(coef, y_c[:, None]), recip[None])


def closed_form_bundle(
    p: JetPoint, tm: TemporalMetric, connection: str = "apriori"
) -> ClosedForms:
    """Every closed-form tensor at a point, as a name -> array mapping: the
    ``ClosedForms(p, tm, connection)`` of the point."""
    return ClosedForms(p, tm, connection)
