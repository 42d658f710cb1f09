"""Gravitational and electromagnetic field-theory blocks.

The Einstein-equation assembler computes the geometric left-hand sides
Ric - (Sc/2) G, scaled by 1/K, i.e. the stress-energy components that any
matter model coupled to the Berwald-Moor geometry (with the a-priori
connection) must equal.  Nothing is solved for: the blocks are reported.
The Einstein blocks, the stress-energy components and the conservation laws
read one ``ClosedForms`` of the point, built with the a-priori connection; a
value that leaves the double range (an Einstein constant near the ends of
the float range) raises a ``NonFiniteOutput`` naming its output group.

The mixed (index-raised) stress-energy components have closed expressions in
kappa, h11, xi11 and the raised vertical Ricci tensor; they satisfy three
conservation laws whose covariant divergences are assembled here term by term
with the exact differentiation kernel.  The first law has a nonzero
right-hand side driven by dh11/dt; both sides are reported, not interpreted.

The electromagnetic 2-form F^{(1)}_{(i)j} and its auxiliary tensors are
computed for an arbitrary cubic form; for the Berwald-Moor metric they vanish
identically, as do the three covariant derivatives of F.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import difftools as dt
from .berwald_moor import ClosedForms
from .connection_engine import NonlinearConnection, PointContext, adapted_partials
from .errors import DomainError, NonFiniteOutput, ZeroEinsteinConstant


@dataclass(frozen=True)
class EinsteinBlocks:
    """Blocks of the adapted Einstein equations.

    ``T_11``, ``T_ij`` and ``T_fiber`` are the three diagonal blocks; the six
    off-diagonal blocks comprise four vanishing ones (``t_time_spatial`` =
    T_1i, ``t_spatial_time`` = T_i1, ``t_fiber_time`` = T^(1)_(i)1,
    ``t_time_fiber`` = T^(1)_1(i)) and the two equal kappa-weighted ones
    (``t_spatial_fiber`` = T^(1)_i(j), ``t_fiber_spatial`` = T^(1)_(i)j).
    """

    K: float
    xi11: float
    T_11: float
    T_ij: np.ndarray              # (3, 3)
    T_fiber: np.ndarray           # (3, 3)
    t_time_spatial: np.ndarray    # (3,)
    t_spatial_time: np.ndarray    # (3,)
    t_fiber_time: np.ndarray      # (3,)
    t_time_fiber: np.ndarray      # (3,)
    t_spatial_fiber: np.ndarray   # (3, 3)
    t_fiber_spatial: np.ndarray   # (3, 3)


@dataclass(frozen=True)
class StressEnergyMixed:
    """The nine index-raised stress-energy components.

    Field names are (upper index species)(lower index species) with t/s/f for
    time/spatial/fiber: ``tt`` = T^1_1, ``st`` = T^m_1, ``ft`` = T^(m)_(1)1,
    ``ts`` = T^1_i, ``ss`` = T^m_i, ``fs`` = T^(m)_(1)i, ``tf`` = T^1(1)_(i),
    ``sf`` = T^m(1)_(i), ``ff`` = T^(m)(1)_(1)(i).
    """

    tt: float
    st: np.ndarray    # (3,)
    ft: np.ndarray    # (3,)
    ts: np.ndarray    # (3,)
    ss: np.ndarray    # (3, 3)
    fs: np.ndarray    # (3, 3)
    tf: np.ndarray    # (3,)
    sf: np.ndarray    # (3, 3)
    ff: np.ndarray    # (3, 3)


@dataclass(frozen=True)
class ConservationReport:
    law1_lhs: float
    law1_rhs: float
    law2_lhs: np.ndarray   # (3,)
    law3_lhs: np.ndarray   # (3,)


@dataclass(frozen=True)
class EMSet:
    F_em: np.ndarray     # (3, 3)  F^{(1)}_{(i)j}
    D_bar: np.ndarray    # (3,)    Dbar^{(1)}_{(i)1}
    D: np.ndarray        # (3, 3)  D^{(1)}_{(i)j}
    d_em: np.ndarray     # (3, 3)  d^{(1)(1)}_{(i)(j)}


@dataclass(frozen=True)
class EMDerivatives:
    """Covariant derivatives of the 2-form: temporal, spatial, fiber."""

    F_time: np.ndarray     # (3, 3)     F_{(i)j/1}
    F_spatial: np.ndarray  # (3, 3, 3)  F_{(i)j|k}
    F_fiber: np.ndarray    # (3, 3, 3)  F_{(i)j}|^(1)_(k)


def _check(cf: ClosedForms, K: float) -> None:
    if K == 0.0:
        raise ZeroEinsteinConstant("the Einstein constant must be nonzero")
    if cf.connection != "apriori":
        raise ValueError("the field theory is defined for the a-priori connection")


def _finite(group: str, result):
    """``result``, unless one of its values left the double range: then a
    ``NonFiniteOutput`` naming the output group, to be recorded on the point."""
    if not np.isfinite(np.concatenate(list(vars(result).values()), axis=None)).all():
        raise NonFiniteOutput(
            f"{group} values are not finite (Einstein constant out of range?)"
        )
    return result


def einstein_blocks(cf: ClosedForms, K: float = 1.0) -> EinsteinBlocks:
    """Assemble every block of the adapted Einstein equations at the point of
    the closed forms ``cf``."""
    _check(cf, K)
    h11, kappa, g23inv = cf.h11, cf.kappa, cf.g23inv
    xi11 = (4.0 * h11 + kappa * kappa) / (4.0 * K)
    s_ric = cf["ricci_S"]
    zeros = np.zeros(3)
    off = 0.5 * kappa / K * s_ric
    return _finite("einstein", EinsteinBlocks(
        K=K,
        xi11=xi11,
        T_11=xi11 * g23inv * h11,
        T_ij=0.25 * kappa * kappa / K * s_ric + xi11 * g23inv * cf["g_lower"],
        T_fiber=s_ric / K + xi11 * g23inv / h11 * cf["g_lower"],
        t_time_spatial=zeros.copy(),
        t_spatial_time=zeros.copy(),
        t_fiber_time=zeros.copy(),
        t_time_fiber=zeros.copy(),
        t_spatial_fiber=off,
        t_fiber_spatial=off.copy(),
    ))


def stress_energy_mixed(cf: ClosedForms, K: float = 1.0) -> StressEnergyMixed:
    """The nine raised components from their closed expressions."""
    _check(cf, K)
    h11, kappa = cf.h11, cf.kappa
    xi11 = (4.0 * h11 + kappa * kappa) / (4.0 * K)
    g23inv = cf.g23inv
    s_up = cf["S_raised"]
    eye = np.eye(3)
    zeros = np.zeros(3)
    return _finite("stress_energy", StressEnergyMixed(
        tt=xi11 * g23inv,
        st=zeros.copy(),
        ft=zeros.copy(),
        ts=zeros.copy(),
        ss=0.25 * kappa * kappa / K * s_up + xi11 * g23inv * eye,
        fs=0.5 * h11 * kappa / K * s_up,
        tf=zeros.copy(),
        sf=0.5 * kappa / K * s_up,
        ff=h11 / K * s_up + xi11 * g23inv * eye,
    ))


def stress_energy_contracted(
    blocks: EinsteinBlocks, cf: ClosedForms
) -> StressEnergyMixed:
    """The same nine components by direct contraction of the Einstein blocks
    with g^{mr} and the h11 factors (second computation path, for checking)."""
    h11 = cf.h11
    h_up = 1.0 / h11
    g_up = cf["g_upper"]
    return _finite("stress_energy", StressEnergyMixed(
        tt=h_up * blocks.T_11,
        st=g_up @ blocks.t_spatial_time,
        ft=h11 * (g_up @ blocks.t_fiber_time),
        ts=h_up * blocks.t_time_spatial,
        ss=g_up @ blocks.T_ij,
        fs=h11 * (g_up @ blocks.t_fiber_spatial),
        tf=h_up * blocks.t_time_fiber,
        sf=g_up @ blocks.t_spatial_fiber,
        ff=h11 * (g_up @ blocks.T_fiber),
    ))


def conservation_residuals(
    se: StressEnergyMixed, cf: ClosedForms, K: float = 1.0
) -> ConservationReport:
    """Left-hand sides of the three conservation laws (each a sum of three
    covariant-divergence terms with their connection corrections) plus the
    closed right-hand side of the first law, for the components ``se`` of
    ``stress_energy_mixed(cf, K)``."""
    _check(cf, K)
    p, tm = cf.point, cf.tm
    # M^q and N^q_j at p, evaluated once for all the adapted derivatives below
    m_at, n_at = NonlinearConnection.apriori(tm).frame(p)
    kappa = cf.kappa

    # The mixed components as order-1 series on the closed forms' seed set;
    # the nonzero ones are products of kappa, h11, xi11 G111^(-2/3) and S^m11_i.
    t = cf.seeds[0]
    kap = tm.kappa_eval(t)
    h11 = tm.h11_eval(t)
    xi_g = (4.0 * h11 + kap * kap) / (4.0 * K) * cf.g23inv_ser
    s_up = cf.s_raised_stack

    def field(coef, diagonal=False):
        """coef S^m11_i (+ xi11 G111^(-2/3) where m = i), stacked [m, i]."""
        if isinstance(coef, dt.Taylor):
            out = dt.mul_stacks(coef.c, s_up)
        else:  # h11 / K of a constant h11 is a number
            out = s_up * float(coef)
        if diagonal:
            out[range(3), range(3)] += xi_g.c
        return out

    # T^m_1, T^(m)_(1)1, T^1_i and T^1(1)_(i) vanish; their derivatives still
    # enter the sums, as the (signed) zeros the frame operations give.
    zero = np.zeros(dt.NCOEF[1])
    (tt_t, zero_t), (_, zero_x), (_, zero_y) = (
        d.tolist() for d in adapted_partials(np.stack((xi_g.c, zero)), m_at, n_at)
    )
    # T^m_i, T^(m)_(1)i, T^m(1)_(i) and T^(m)(1)_(1)(i), stacked
    fields = np.stack((
        field(0.25 * kap * kap / K, True),
        field(0.5 * h11 * kap / K),
        field(0.5 * kap / K),
        field(h11 / K, True),
    ))
    _, f_x, f_y = adapted_partials(fields, m_at, n_at)
    (ss_x, _, sf_x, _), (_, fs_y, _, ff_y) = f_x.tolist(), f_y.tolist()

    # The sums run on Python floats, which round as the arrays' entries do.
    L, C, G_t = cf["L"].tolist(), cf["C"].tolist(), cf["G_time"].tolist()
    st, ft, ts, tf = se.st.tolist(), se.ft.tolist(), se.ts.tolist(), se.tf.tolist()

    # Law 1: T^1_1/1 + T^m_1|m + T^(m)_(1)1 |^(1)_(m)
    law1 = tt_t + se.tt * kappa - se.tt * kappa
    for m in range(3):
        law1 += zero_x[m]
        law1 += zero_y[m]
        for r in range(3):
            law1 += st[r] * L[m][r][m]
            law1 += ft[r] * C[m][r][m]

    h, hp, hpp = tm.h11_derivatives(p.t)
    try:
        h_inv_sq = (1.0 / h) ** 2  # float ** raises where float * gives inf
    except OverflowError:
        raise DomainError(f"the square of 1/h11 overflows at h11 = {h!r}") from None
    law1_rhs = h_inv_sq / (16.0 * K) * hp * (2.0 * hpp - 3.0 / h * hp * hp) * cf.g23inv

    def divergence(acc, i, s_x, f_y, s, f):
        """``acc`` plus T^m_i|m + T^(m)_(1)i |^(1)_(m) for the spatial and
        fiber components ``s``, ``f`` and their derivatives ``s_x``, ``f_y``."""
        for m in range(3):
            acc += s_x[m][i][m]
            acc += f_y[m][i][m]
            for r in range(3):
                acc += s[r][i] * L[m][r][m] - s[m][r] * L[r][i][m]
                acc += f[r][i] * C[m][r][m] - f[m][r] * C[r][i][m]
        return acc

    # Law 2: T^1_i/1 + T^m_i|m + T^(m)_(1)i |^(1)_(m)
    ss, fs = se.ss.tolist(), se.fs.tolist()
    law2 = []
    for i in range(3):
        acc = zero_t + ts[i] * kappa
        for r in range(3):
            acc -= ts[r] * G_t[r][i]
        law2.append(divergence(acc, i, ss_x, fs_y, ss, fs))

    # Law 3: T^1(1)_(i)/1 + T^m(1)_(i)|m + T^(m)(1)_(1)(i) |^(1)_(m)
    sf, ff = se.sf.tolist(), se.ff.tolist()
    law3 = [
        divergence(zero_t + 2.0 * tf[i] * kappa, i, sf_x, ff_y, sf, ff)
        for i in range(3)
    ]

    return _finite("conservation", ConservationReport(
        law1_lhs=float(law1),
        law1_rhs=float(law1_rhs),
        law2_lhs=np.array(law2),
        law3_lhs=np.array(law3),
    ))


def _ordered_sum(terms: np.ndarray) -> np.ndarray:
    """Sum of stacked arrays over the first axis, added one at a time onto
    0.0 in index order: the floats of Python's ``sum`` over each entry's
    terms, which also turns a leading -0.0 into +0.0."""
    acc = 0.0
    for term in terms:
        acc = acc + term
    return acc


def em_two_form(ctx: PointContext) -> EMSet:
    """The electromagnetic 2-form and its auxiliary tensors at the context's
    point, for any cubic:

        F^{(1)}_{(i)j} = (h^11/2)[g_jm N^m_i - g_im N^m_j
                                  + (g_ir L^r_jm - g_jr L^r_im) y^m]
        Dbar^{(1)}_{(i)1} = (h^11/2) (delta g_im/delta t) y^m
        D^{(1)}_{(i)j} = h^11 g_ip [-N^p_j + L^p_jm y^m]
        d^{(1)(1)}_{(i)(j)} = h^11 [g_ij + g_ip C^p_m(j) y^m]

    Each sum over an index is taken over one stacked array of its terms.
    """
    f_em = ctx.em_form_stack[..., 0]
    y = np.asarray(ctx.point.y)
    h_up = 1.0 / ctx.h_ser.value
    g = ctx.g_val
    L = ctx.L_val
    C = ctx.C_val
    # delta g_im / delta t
    dgdt, _, _ = adapted_partials(ctx.g_stack, ctx.M_val, ctx.N_val)
    d_bar = 0.5 * h_up * _ordered_sum((dgdt * y).T)  # terms [m, i]
    Ly = _ordered_sum((L * y).transpose(2, 0, 1))  # terms [m, q, j]
    # terms [q, i, j]: g_iq (-N^q_j + L^q_jm y^m)
    D = h_up * _ordered_sum(g.T[:, :, None] * (-ctx.N_val + Ly)[:, None])
    # terms [q, m, i, j]: g_iq C^q_m(j) y^m
    gCy = g.T[:, None, :, None] * C[:, :, None] * y[:, None, None]
    d_em = h_up * (g + _ordered_sum(gCy.reshape(9, 3, 3)))
    return EMSet(F_em=f_em, D_bar=d_bar, D=D, d_em=d_em)


def em_covariant_derivatives(ctx: PointContext) -> EMDerivatives:
    """The temporal, spatial and fiber covariant derivatives of the 2-form at
    the context's point."""
    f = ctx.em_form_stack
    f0 = f[..., 0]
    # [i, j], [i, j, k], [i, j, k]
    f_dt, f_dx, f_dy = adapted_partials(f, ctx.M_val, ctx.N_val)
    kappa = ctx.kappa
    G_t, L, C = ctx.G_time_val, ctx.L_val, ctx.C_val
    # terms [m, i, j]: f0[m, j] G_t[m, i] + f0[i, m] G_t[m, j]
    f_time = f_dt + f0 * kappa - _ordered_sum(
        f0[:, None, :] * G_t[:, :, None] + f0.T[:, :, None] * G_t[:, None]
    )
    # terms [m, c, i, j, k]: f0[m, j] conn[m, i, k] + f0[i, m] conn[m, j, k]
    # for the connections conn = L, C
    conn = np.stack((L, C), axis=1)  # [m, c, i, k]
    corrections = _ordered_sum(
        f0[:, None, None, :, None] * conn[:, :, :, None]
        + f0.T[:, None, :, None, None] * conn[:, :, None]
    )
    f_spatial = f_dx - corrections[0]
    f_fiber = f_dy - corrections[1]
    return EMDerivatives(F_time=f_time, F_spatial=f_spatial, F_fiber=f_fiber)
