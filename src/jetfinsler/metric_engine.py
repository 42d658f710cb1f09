"""Generic third-root metric machinery.

Everything here works for an arbitrary totally symmetric cubic form with
G111 > 0 (positive orthant for the Berwald-Moor instance):

* the cubic contractions G111, G_i11 = 3 G_ipq y^p y^q, G_ij1 = 6 G_ijp y^p,
  the inverse G^jk1, script_G111 = G^pq1 G_p11 G_q11 / 3, G1^j = G^jp1 G_p11;
* the squared third-root function F^2 = G111^(2/3) / h11 as a scalar field;
* the fundamental metric from the closed contraction formula

      g_ij = (G111^(-1/3) / 3) [G_ij1 - G_i11 G_j11 / (3 G111)]

  (the engine's ``PointContext.g_stack`` takes the definition
  g_ij = (h11 / 2) d^2(F^2)/dy_i dy_j instead; the two agree to rounding);
* the inverse metric from

      g^jk = 3 G111^(1/3) [G^jk1 + G1^j G1^k / (3 (G111 - script_G111))].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import difftools as dt
from .errors import (
    DegenerateCubic,
    DegenerateMetric,
    DomainError,
    SingularDenominator,
)
from .jetspace import CubicForm, JetPoint, TemporalMetric, check_invertible


@dataclass(frozen=True)
class CubicContractions:
    G111: float
    Gi11: np.ndarray          # (3,)
    Gij1: np.ndarray          # (3, 3) symmetric
    Gup_jk1: np.ndarray       # (3, 3) inverse of Gij1
    script_G111: float
    G1_up: np.ndarray         # (3,)


def contract_cubic(cubic: CubicForm, p: JetPoint) -> CubicContractions:
    """All six cubic contractions at a point, by direct summation."""
    vals = cubic.values_array(p.x)
    y = np.asarray(p.y)
    g111 = float(np.einsum("pqr,p,q,r->", vals, y, y, y))
    gi11 = 3.0 * np.einsum("ipq,p,q->i", vals, y, y)
    gij1 = 6.0 * np.einsum("ijp,p->ij", vals, y)
    check_invertible(gij1, DegenerateCubic, "G_ij1")
    gup = np.linalg.inv(gij1)
    script = float(np.einsum("pq,p,q->", gup, gi11, gi11)) / 3.0
    g1_up = gup @ gi11
    return CubicContractions(
        G111=g111,
        Gi11=gi11,
        Gij1=gij1,
        Gup_jk1=gup,
        script_G111=script,
        G1_up=g1_up,
    )


def _check_g111(g111: float) -> None:
    """G111 must be positive and finite before its fractional powers are taken."""
    if g111 <= 0.0:
        raise DomainError(f"G111 = {g111} is not positive")
    if not math.isfinite(g111):
        raise DomainError(f"G111 = {g111} is not finite")


def finsler_F_squared_field(cubic: CubicForm, tm: TemporalMetric):
    """F^2 = G111^(2/3) / h11 as a duck-typed scalar field."""

    def field(t, x1, x2, x3, y1, y2, y3):
        g111 = cubic.g111((x1, x2, x3), (y1, y2, y3))
        return dt.powf(g111, 2.0 / 3.0) / tm.h11_eval(t)

    return field


def metric_lower_generic(cubic: CubicForm, p: JetPoint) -> np.ndarray:
    """Fundamental metric g_ij from the closed contraction formula."""
    cc = contract_cubic(cubic, p)
    _check_g111(cc.G111)
    g = (cc.G111 ** (-1.0 / 3.0) / 3.0) * (
        cc.Gij1 - np.outer(cc.Gi11, cc.Gi11) / (3.0 * cc.G111)
    )
    g = 0.5 * (g + g.T)
    check_invertible(g, DegenerateMetric, "g")
    return g


def metric_upper_generic(cubic: CubicForm, p: JetPoint) -> np.ndarray:
    """Inverse metric g^jk from the closed contraction formula."""
    cc = contract_cubic(cubic, p)
    _check_g111(cc.G111)
    denom = cc.G111 - cc.script_G111
    if abs(denom) < 1e-12 * abs(cc.G111):
        raise SingularDenominator(
            f"G111 - script_G111 = {denom} is too small relative to G111 = {cc.G111}"
        )
    gup = 3.0 * cc.G111 ** (1.0 / 3.0) * (
        cc.Gup_jk1 + np.outer(cc.G1_up, cc.G1_up) / (3.0 * denom)
    )
    return 0.5 * (gup + gup.T)
