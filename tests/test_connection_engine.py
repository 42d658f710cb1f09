import functools
import itertools
import math
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetfinsler import _backend
from jetfinsler import berwald_moor as bm
from jetfinsler import difftools as dt
from jetfinsler.connection_engine import (
    NonlinearConnection,
    PointContext,
    adapted_derivative,
    adapted_partials,
    stack_coefficients,
)
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric, transform_jet

from conftest import sample_jet_points


class TestNonlinearConnection:
    def test_canonical_components(self, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.canonical(tm)
        t, x, y = 0.0, (0, 0, 0), (1.0, 2.0, 3.0)
        # -kappa y^i
        assert nlc.M(t, x, y) == pytest.approx([-1.0, -2.0, -3.0], abs=1e-14)
        assert nlc.N(t, x, y) == [[0.0] * 3] * 3

    def test_apriori_components(self):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        t, x, y = 0.0, (0, 0, 0), (1.0, 2.0, 3.0)
        assert nlc.M(t, x, y) == pytest.approx([-1.0, -2.0, -3.0], abs=1e-14)
        N = nlc.N(t, x, y)
        assert np.array(N) == pytest.approx(-0.5 * np.eye(3), abs=1e-14)
        assert N[0][1] == 0.0

    def test_frame_is_the_components_at_the_point(self):
        tm = TemporalMetric("t**2 + 1")
        nlc = NonlinearConnection.apriori(tm)
        p = JetPoint.of(0.7, (0.1, 0.2, 0.3), (1.0, 2.0, 3.0))
        m, n = nlc.frame(p)
        assert m.dtype == n.dtype == np.float64
        assert m.shape == (3,) and n.shape == (3, 3)
        assert _same_floats(m, nlc.M(p.t, p.x, p.y))
        assert _same_floats(n, nlc.N(p.t, p.x, p.y))
        kappa = tm.kappa(0.7)
        assert _same_floats(m, [-kappa * v for v in p.y])
        assert _same_floats(n, np.diag([-kappa * 0.5] * 3))

    def test_series_components(self):
        # on order-1 seeds the components are series: d M^i/dt = -kappa' y^i
        tm = TemporalMetric("t**2 + 1")
        t, x1, x2, x3, y1, y2, y3 = dt.seed_point((0.4, 0, 0, 0, 1.0, 2.0, 3.0), 1)
        M = NonlinearConnection.apriori(tm).M(t, (x1, x2, x3), (y1, y2, y3))
        for i, m in enumerate(M):
            assert dt.deriv(m, "t").value == pytest.approx(
                -tm.kappa_dot(0.4) * (i + 1), abs=1e-14
            )
            assert dt.deriv(m, 4 + i).value == pytest.approx(-tm.kappa(0.4), abs=1e-15)


class TestAdaptedDerivative:
    def test_time_direction(self):
        # delta y1/delta t = kappa y1 with the a-priori frame
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        f = lambda t, x1, x2, x3, y1, y2, y3: y1
        p = JetPoint.of(0.0, (0, 0, 0), (2.5, 1, 1))
        assert adapted_derivative(f, p, nlc, "time") == pytest.approx(2.5, abs=1e-14)

    def test_spatial_direction(self):
        # delta y1/delta x1 = kappa/2
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        f = lambda t, x1, x2, x3, y1, y2, y3: y1
        p = JetPoint.of(0.0, (0, 0, 0), (1, 1, 1))
        assert adapted_derivative(f, p, nlc, ("spatial", 1)) == pytest.approx(
            0.5, abs=1e-14
        )
        assert adapted_derivative(f, p, nlc, ("spatial", 2)) == 0.0

    def test_reduces_to_plain_partial_when_flat(self):
        tm = TemporalMetric("1")
        nlc = NonlinearConnection.apriori(tm)
        f = lambda t, x1, x2, x3, y1, y2, y3: dt.exp(t) * x1
        p = JetPoint.of(0.2, (0.7, 0, 0), (1, 1, 1))
        assert adapted_derivative(f, p, nlc, "time") == pytest.approx(
            dt.partial(f, p, ("t",)), abs=1e-15
        )

    def test_fiber_direction(self):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        f = lambda t, x1, x2, x3, y1, y2, y3: y1 * y2
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 4.0, 1.0))
        assert adapted_derivative(f, p, nlc, ("fiber", 1)) == 4.0

    def test_unknown_direction(self, unit_point):
        nlc = NonlinearConnection.apriori(TemporalMetric("1"))
        for direction in (
            ("sideways", 1), ("spatial", 0), ("spatial", 4), ("fiber", 0), ("fiber", 4),
            ("time", 1), "fiber", 3,
        ):
            with pytest.raises(ValueError, match="unknown direction"):
                adapted_derivative(lambda *c: 0.0, unit_point, nlc, direction)


class TestCartanGeneric:
    def test_flat_time(self, bm_cubic, unit_point):
        tm = TemporalMetric("1")
        nlc = NonlinearConnection.apriori(tm)
        cart = PointContext(bm_cubic, tm, nlc, unit_point).cartan()
        assert np.abs(cart.G_time).max() < 1e-14
        assert np.abs(cart.L).max() < 1e-14
        assert cart.C == pytest.approx(bm.ClosedForms(unit_point, tm)["C"], abs=1e-13)

    def test_L_is_half_A_at_unit(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        cart = PointContext(bm_cubic, tm, nlc, unit_point).cartan()
        assert cart.L == pytest.approx(0.5 * bm.A_COEFFICIENTS, abs=1e-13)

    def test_C_traces_vanish(self, bm_cubic, random_points):
        tm = TemporalMetric("t**2 + 1")
        nlc = NonlinearConnection.apriori(tm)
        for p in random_points[:5]:
            c = PointContext(bm_cubic, tm, nlc, p).cartan().C
            assert np.abs(np.einsum("mjm->j", c)).max() < 1e-13
            assert np.abs(np.einsum("ijm,m->ij", c, np.asarray(p.y))).max() < 1e-13


class TestTorsionsGeneric:
    def test_flat_time(self, bm_cubic, unit_point):
        tm = TemporalMetric("1")
        nlc = NonlinearConnection.apriori(tm)
        ctx = PointContext(bm_cubic, tm, nlc, unit_point)
        cart, tors = ctx.cartan(), ctx.torsions()
        assert np.abs(tors.P_mixed).max() < 1e-14
        assert np.abs(tors.R_time).max() < 1e-14
        assert tors.P_fiber == pytest.approx(cart.C, abs=1e-15)

    def test_exponential_R_time(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        tors = PointContext(bm_cubic, tm, nlc, unit_point).torsions()
        assert tors.R_time == pytest.approx(-0.5 * np.eye(3), abs=1e-13)

    def test_P_mixed_at_unit(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        tors = PointContext(bm_cubic, tm, nlc, unit_point).torsions()
        assert tors.P_mixed == pytest.approx(-0.5 * bm.A_COEFFICIENTS, abs=1e-13)


class TestCurvaturesGeneric:
    def test_flat_time_kills_horizontal(self, bm_cubic, unit_point):
        tm = TemporalMetric("1")
        nlc = NonlinearConnection.apriori(tm)
        curv = PointContext(bm_cubic, tm, nlc, unit_point).curvatures()
        assert np.abs(curv.R_hh).max() < 1e-14
        assert np.abs(curv.P_hv).max() < 1e-14
        assert np.abs(curv.S_vv).max() > 0.01

    def test_kappa_one_prefactors(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        curv = PointContext(bm_cubic, tm, nlc, unit_point).curvatures()
        assert curv.R_hh == pytest.approx(curv.S_vv / 4.0, abs=1e-13)

    def test_S_case_value(self, unit_point, bm_cubic):
        # S^1_2(1)(2) = -1/(9 y_2^2) at the unit point
        tm = TemporalMetric("1")
        nlc = NonlinearConnection.apriori(tm)
        curv = PointContext(bm_cubic, tm, nlc, unit_point).curvatures()
        assert curv.S_vv[0, 1, 0, 1] == pytest.approx(-1.0 / 9.0, abs=1e-13)

    def test_S_antisymmetry(self, bm_cubic, random_points):
        tm = TemporalMetric("t**2 + 1")
        nlc = NonlinearConnection.apriori(tm)
        for p in random_points[:5]:
            s = PointContext(bm_cubic, tm, nlc, p).curvatures().S_vv
            scale = max(np.abs(s).max(), 1.0)
            assert np.abs(s + s.transpose(0, 1, 3, 2)).max() <= 1e-12 * scale


def _compare_against_closed(cubic, tm, points, deriv_mode, tol):
    nlc = NonlinearConnection.apriori(tm)
    worst = 0.0
    for p in points:
        ctx = PointContext(cubic, tm, nlc, p, deriv_mode=deriv_mode)
        cart = ctx.cartan()
        tors = ctx.torsions()
        curv = ctx.curvatures()
        ric = ctx.ricci()
        ref = bm.closed_form_bundle(p, tm, "apriori")
        got = {
            "g_lower": ctx.g_val,
            "g_upper": ctx.ginv_val,
            "C": cart.C,
            "L": cart.L,
            "G_time": cart.G_time,
            "P_mixed": tors.P_mixed,
            "P_fiber": tors.P_fiber,
            "R_time": tors.R_time,
            "R_hh": curv.R_hh,
            "P_hv": curv.P_hv,
            "S_vv": curv.S_vv,
            "ricci_R": ric.R,
            "ricci_P": ric.P,
            "ricci_S": ric.S,
            "scalar_curvature": ctx.scalar_curvature(),
        }
        for name, val in got.items():
            r = np.asarray(ref[name], dtype=float)
            v = np.asarray(val, dtype=float)
            scale = max(np.abs(r).max(), np.abs(v).max(), 1.0)
            dev = np.abs(v - r).max() / scale
            assert dev <= tol, (name, p, dev)
            worst = max(worst, dev)
    return worst


class TestCrossEngine:
    @pytest.mark.parametrize("metric_src", ["1", "exp(2*t)", "t**2 + 1"])
    def test_generic_matches_closed_exact(self, bm_cubic, metric_src):
        tm = TemporalMetric(metric_src)
        points = sample_jet_points(seed=hash(metric_src) % 2**32, count=12)
        worst = _compare_against_closed(bm_cubic, tm, points, "exact", 1e-9)
        assert worst < 1e-11

    def test_generic_matches_closed_fd(self, bm_cubic):
        # the fd cross-check (contour-integral jets) carries a much looser tolerance
        tm = TemporalMetric("exp(2*t)")
        points = sample_jet_points(seed=99, count=4)
        _compare_against_closed(bm_cubic, tm, points, "fd", 1e-5)

    @pytest.mark.slow
    def test_generic_matches_closed_fd_full_sample(self, bm_cubic):
        tm = TemporalMetric("t**2 + 1")
        points = sample_jet_points(seed=314159, count=100)
        _compare_against_closed(bm_cubic, tm, points, "fd", 1e-5)

    def test_canonical_degeneration(self, bm_cubic, random_points):
        # canonical connection (N = 0) with h11 = 1: every torsion and both
        # horizontal curvatures vanish
        tm = TemporalMetric("1")
        nlc = NonlinearConnection.canonical(tm)
        for p in random_points[:6]:
            ctx = PointContext(bm_cubic, tm, nlc, p)
            tors = ctx.torsions()
            curv = ctx.curvatures()
            assert np.abs(tors.P_mixed).max() <= 1e-12
            assert np.abs(tors.R_time).max() <= 1e-12
            assert np.abs(curv.R_hh).max() <= 1e-12
            assert np.abs(curv.P_hv).max() <= 1e-12


class TestRicciAndScalar:
    def test_traces_match_closed(self, bm_cubic, random_points):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        for p in random_points[:5]:
            ctx = PointContext(bm_cubic, tm, nlc, p)
            ric = ctx.ricci()
            curv = ctx.curvatures()
            for got, full in ((ric.R, curv.R_hh), (ric.P, curv.P_hv), (ric.S, curv.S_vv)):
                assert _same_floats(got, np.einsum("mijm->ij", full))
            ref = bm.ClosedForms(p, tm)
            assert ric.S == pytest.approx(ref["ricci_S"], rel=1e-11)
            assert ric.R == pytest.approx(ref["ricci_R"], rel=1e-11, abs=1e-13)

    def test_scalar_assembly(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        ctx = PointContext(bm_cubic, tm, nlc, unit_point)
        ric = ctx.ricci()
        # Sc = g^pq R_pq + h11 g^pq S_(p)(q)
        want = np.einsum("pq,pq->", ctx.ginv_val, ric.R) + tm.h11(0.0) * np.einsum(
            "pq,pq->", ctx.ginv_val, ric.S
        )
        sc = ctx.scalar_curvature()
        assert type(sc) is float
        assert sc == float(want)
        assert sc == pytest.approx(-2.5, abs=1e-12)


class TestGenericCubicEngine:
    """The engine accepts position-dependent cubics; identities must hold."""

    @pytest.fixture
    def cubic(self):
        return CubicForm.from_entries(
            {"123": "(1 + x1**2/10)/6", "111": 0.05, "222": 0.05, "333": 0.05}
        )

    def test_structural_identities(self, cubic):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        for p in sample_jet_points(seed=21, count=6, y_box=(0.5, 2.0)):
            ctx = PointContext(cubic, tm, nlc, p)
            c = ctx.C_val
            s = ctx.curvatures().S_vv
            y = np.asarray(p.y)
            assert np.abs(ctx.g_val @ ctx.ginv_val - np.eye(3)).max() < 1e-12
            assert np.abs(c - c.transpose(0, 2, 1)).max() < 1e-12
            assert np.abs(np.einsum("ijm,m->ij", c, y)).max() < 1e-12
            scale = max(np.abs(s).max(), 1.0)
            assert np.abs(s + s.transpose(0, 1, 3, 2)).max() < 1e-12 * scale

    def test_x_dependence_feeds_L(self, cubic):
        # with kappa = 0 the only source of L is the spatial variation of g
        tm = TemporalMetric("1")
        nlc = NonlinearConnection.apriori(tm)
        p = JetPoint.of(0.0, (0.8, 0.1, -0.4), (1.0, 1.3, 0.9))
        ctx = PointContext(cubic, tm, nlc, p)
        assert np.abs(ctx.L_val).max() > 1e-4


class TestTensorBundle:
    def test_bundle_contents_and_species(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        ctx = PointContext(bm_cubic, tm, nlc, unit_point)
        bundle = ctx.tensor_bundle()
        assert bundle["g_lower"].shape == (3, 3)
        assert bundle["S_vv"].shape == (3, 3, 3, 3)
        assert bundle.species("C") == ("F+", "S-", "F-")
        assert bundle.species("scalar_curvature") == ()
        assert float(bundle["scalar_curvature"]) == pytest.approx(-2.5, abs=1e-12)
        # time-tagged slots drop the singleton axis
        assert bundle.species("R_time") == ("F+", "T-", "S-")
        assert bundle["R_time"].shape == (3, 3)

    def test_bundle_values_match_direct_calls(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        ctx = PointContext(bm_cubic, tm, nlc, unit_point)
        bundle = ctx.tensor_bundle()
        assert np.array_equal(bundle["C"], ctx.cartan().C)
        assert np.array_equal(bundle["ricci_S"], ctx.ricci().S)


def _varying_connection() -> NonlinearConnection:
    """M and N that depend on t, x and y, so every adapted derivative has
    nonzero frame corrections (the CLI's connections have constant N)."""

    def M(t, x, y):
        return [0.3 * t * y[i] + 0.1 * x[0] * y[1] - 0.2 * x[2] * y[i] * y[2] for i in range(3)]

    def N_entry(i, j, t, x, y):
        out = 0.2 * x[j] * y[i] - 0.05 * t * y[j] + 0.01 * (i - j)
        return out + 0.1 * t * x[1] if i == j else out

    def N(t, x, y):
        return [[N_entry(i, j, t, x, y) for j in range(3)] for i in range(3)]

    return NonlinearConnection(M, N)


def _same_floats(a, b) -> bool:
    """Equal as float arrays, signed zeros included."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _connection_series(ctx):
    """M^i and N^i_j of the context's connection as order-1 series, nested
    lists [i] and [i][j], from its own seeds."""
    t, x1, x2, x3, y1, y2, y3 = dt.seed_point(ctx.point.coords(), 1)
    x, y = (x1, x2, x3), (y1, y2, y3)
    M = [dt.as_taylor(m, 1) for m in ctx.nlc.M(t, x, y)]
    N = [[dt.as_taylor(n, 1) for n in row] for row in ctx.nlc.N(t, x, y)]
    return M, N


def _adapted_dx(ctx, u: dt.Taylor, a: int) -> dt.Taylor:
    """delta u/delta x^a by per-entry series arithmetic."""
    _, N = _connection_series(ctx)
    out = dt.deriv(u, 1 + a)
    for p in range(3):
        out = out - N[p][a] * dt.deriv(u, 4 + p)
    return out


def _adapted_dt(ctx, u: dt.Taylor) -> dt.Taylor:
    """delta u/delta t by per-entry series arithmetic."""
    M, _ = _connection_series(ctx)
    out = dt.deriv(u, 0)
    for p in range(3):
        out = out - M[p] * dt.deriv(u, 4 + p)
    return out


def _series(stack: np.ndarray, index) -> dt.Taylor:
    return dt.Taylor(stack[index], 1)


def _metric_series(ctx):
    """g_ij = 0.5 * (h11 d^2(F^2)/dy_i dy_j) entry by entry, as nested lists of
    order-2 series (two ``deriv`` calls and one ``Taylor`` product each)."""
    f2, h = ctx.f2_ser, ctx.h_ser
    return [
        [0.5 * (h * dt.deriv(dt.deriv(f2, 4 + i), 4 + j)) for j in range(3)]
        for i in range(3)
    ]


class TestSliceDerivatives:
    """The array-slice first partials are the per-entry series values."""

    @pytest.fixture(params=[0, 1, 2])
    def ctx(self, request):
        cubic = CubicForm.from_entries(
            {"123": "(1 + x1*x2/10)/6", "111": "0.05*x3 + 0.1", "223": 0.02}
        )
        tm = TemporalMetric("t**2 + 1")
        p = sample_jet_points(seed=4711, count=3, y_box=(0.5, 2.0))[request.param]
        return PointContext(cubic, tm, _varying_connection(), p)

    def test_connection_varies(self, ctx):
        # every component has a nonzero first partial
        assert np.all(np.abs(ctx.M_stack[..., 1:]).max(axis=-1) > 0.0)
        assert np.all(np.abs(ctx.N_stack[..., 1:]).max(axis=-1) > 0.0)

    def test_curvature_partials(self, ctx):
        for stack in (ctx.C_stack, ctx.L_stack):
            dy = np.empty((3, 3, 3, 3))
            dx = np.empty((3, 3, 3, 3))
            for l, i, j, k in np.ndindex(3, 3, 3, 3):
                u = _series(stack, (l, i, j))
                dy[l, i, j, k] = dt.deriv(u, 4 + k).value
                dx[l, i, j, k] = _adapted_dx(ctx, u, k).value
            _, got_dx, got_dy = adapted_partials(stack, ctx.M_val, ctx.N_val)
            assert _same_floats(got_dy, dy)
            assert _same_floats(got_dx, dx)

    def test_torsions(self, ctx):
        tors = ctx.torsions()
        M, N = _connection_series(ctx)
        p_mixed = np.empty((3, 3, 3))
        r_time = np.empty((3, 3))
        for k, i, j in np.ndindex(3, 3, 3):
            p_mixed[k, i, j] = dt.deriv(N[k][i], 4 + j).value - ctx.L_val[k, j, i]
        for k, j in np.ndindex(3, 3):
            r_time[k, j] = (
                _adapted_dx(ctx, M[k], j).value - _adapted_dt(ctx, N[k][j]).value
            )
        assert _same_floats(tors.P_mixed, p_mixed)
        assert _same_floats(tors.R_time, r_time)

    def test_time_partials_of_higher_order_series(self, ctx):
        # the metric series has order 2; its first-order slots are shared
        g = _metric_series(ctx)
        dgdt = np.array([[_adapted_dt(ctx, e).value for e in row] for row in g])
        got, _, _ = adapted_partials(ctx.g_stack, ctx.M_val, ctx.N_val)
        assert _same_floats(got, dgdt)
        f = ctx.em_form_stack
        f_dt = np.empty((3, 3))
        for i, j in np.ndindex(3, 3):
            f_dt[i, j] = _adapted_dt(ctx, _series(f, (i, j))).value
        assert _same_floats(adapted_partials(f, ctx.M_val, ctx.N_val)[0], f_dt)


def _sum(terms):
    """Left-to-right sum of series, as the per-entry loops accumulate."""
    return functools.reduce(operator.add, terms)


def _inverse_series(g):
    """g^-1 by cofactor expansion over the order-2 entries of g."""

    def minor(r, c):
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        return (
            g[rows[0]][cols[0]] * g[rows[1]][cols[1]]
            - g[rows[0]][cols[1]] * g[rows[1]][cols[0]]
        )

    det = sum((-1.0) ** c * g[0][c] * minor(0, c) for c in range(3))
    inv_det = 1.0 / det
    return [
        [(-1.0) ** (i + j) * minor(j, i) * inv_det for j in range(3)] for i in range(3)
    ]


def _reference_series(ctx) -> dict:
    """The inverse metric, connection and EM coefficients by nested loops over
    per-entry ``Taylor`` arithmetic, the definitions the stacks must reproduce."""
    g = _metric_series(ctx)
    ginv, (_, N) = _inverse_series(g), _connection_series(ctx)
    r3 = range(3)
    dgy = [[[dt.deriv(g[j][k], 4 + m) for m in r3] for k in r3] for j in r3]
    C = [
        [[0.5 * _sum(ginv[i][m] * dgy[j][k][m] for m in r3) for k in r3] for j in r3]
        for i in r3
    ]
    dgx = [[[_adapted_dx(ctx, g[i][j], a) for j in r3] for i in r3] for a in r3]

    def L_entry(i, j, k):
        return 0.5 * _sum(
            ginv[i][m] * (dgx[k][j][m] + dgx[j][k][m] - dgx[m][j][k]) for m in r3
        )

    L = [[[L_entry(i, j, k) for k in r3] for j in r3] for i in r3]
    dgt = [[_adapted_dt(ctx, g[m][j]) for j in r3] for m in r3]
    G = [[0.5 * _sum(ginv[k][m] * dgt[m][j] for m in r3) for j in r3] for k in r3]
    y = ctx.seeds1[4:]
    h_up = 1.0 / ctx.h_ser.truncate(1)
    F = []
    for i in r3:
        row = []
        for j in r3:
            acc = _sum(g[j][m] * N[m][i] - g[i][m] * N[m][j] for m in r3)
            for r in r3:
                for m in r3:
                    acc = acc + (g[i][r] * L[r][j][m] - g[j][r] * L[r][i][m]) * y[m]
            row.append(0.5 * (h_up * acc))
        F.append(row)
    ginv1 = [[e.truncate(1) for e in row] for row in ginv]
    return {"g": g, "ginv": ginv1, "C": C, "dgdx": dgx, "L": L, "G_time": G, "em_form": F}


class TestStacksMatchSeries:
    """Each stacked coefficient array is bit for bit its per-entry series."""

    @pytest.fixture(params=["varying", "apriori", "canonical"])
    def ctx(self, request):
        tm = TemporalMetric("t**2 + 1")
        nlc = {
            "varying": _varying_connection(),
            "apriori": NonlinearConnection.apriori(tm),
            "canonical": NonlinearConnection.canonical(tm),
        }[request.param]
        cubic = CubicForm.from_entries(
            {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1 + 0.4", "223": "0.1*sin(x3)"}
        )
        p = sample_jet_points(seed=815, count=1, y_box=(0.5, 2.0))[0]
        return PointContext(cubic, tm, nlc, p)

    def test_stacks_equal_series(self, ctx):
        for name, series in _reference_series(ctx).items():
            stack = getattr(ctx, f"{name}_stack")
            assert _same_floats(stack, stack_coefficients(series)), name
            assert not np.all(stack[..., 1:] == 0.0), name

    def test_values_are_slices(self, ctx):
        assert _same_floats(ctx.ginv_val, ctx.ginv_stack[..., 0])
        assert _same_floats(ctx.C_val, ctx.C_stack[..., 0])
        assert _same_floats(ctx.L_val, ctx.L_stack[..., 0])
        assert _same_floats(ctx.G_time_val, ctx.G_time_stack[..., 0])
        assert _same_floats(ctx.g_val, ctx.g_stack[..., 0])
        assert ctx.g_val.flags.c_contiguous and ctx.ginv_val.flags.c_contiguous


class TestMetricStack:
    """``g_stack`` is one stacked order-2 product; its floats are those of the
    per-entry derivatives and products, in both derivative modes."""

    @pytest.fixture(
        params=[
            ("berwald_moor", "exact"),
            ("berwald_moor", "fd"),
            ("generic", "exact"),
            ("generic", "fd"),
        ],
        ids="-".join,
    )
    def ctx(self, request):
        cubic_name, mode = request.param
        if cubic_name == "berwald_moor":
            cubic = CubicForm.berwald_moor()
        else:  # the golden generic scenario's cubic
            cubic = CubicForm.from_entries(
                {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}
            )
        tm = TemporalMetric("t**2 + 1")
        p = JetPoint.of(0.4, (0.3, -0.5, 0.8), (1.1, 0.6, 1.7))
        return PointContext(cubic, tm, NonlinearConnection.apriori(tm), p, mode)

    def test_stack_equals_per_entry_series(self, ctx):
        ref = stack_coefficients(_metric_series(ctx))
        assert ctx.g_stack.shape == (3, 3, dt.NCOEF[2])
        assert _same_floats(ctx.g_stack, ref)
        assert not np.all(ctx.g_stack[..., 1:] == 0.0)

    def test_kernel_sees_the_stacked_products(self, ctx, monkeypatch):
        kernel = _backend.poly_mul
        stacked = []

        def counted(a, b, ia, ib, ic, n):
            if a.ndim > 1 or b.ndim > 1:
                stacked.append(n)
            return kernel(a, b, ia, ib, ic, n)

        monkeypatch.setattr(_backend, "poly_mul", counted)
        ctx.tensor_bundle()
        # g: one order-2 product; ginv 4, C 1, dg/dx 1 (all N^p terms), L 1
        # and G_time 2 (all M^p terms, then g^km) at order 1
        assert sorted(stacked) == [dt.NCOEF[1]] * 9 + [dt.NCOEF[2]]
        ctx.em_form_stack
        assert stacked.count(dt.NCOEF[1]) == 9 + 6


class TestMemoContract:
    def test_objects_computed_once(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        ctx = PointContext(bm_cubic, tm, NonlinearConnection.apriori(tm), unit_point)
        assert ctx.cartan() is ctx.cartan()
        assert ctx.torsions() is ctx.torsions()
        assert ctx.curvatures() is ctx.curvatures()
        assert ctx.ricci() is ctx.ricci()


def _rotation(a: float, b: float, c: float) -> np.ndarray:
    """The rotation by the Euler angles a, b, c about the z, y and x axes."""
    ca, sa, cb, sb, cc, sc = (f(v) for v in (a, b, c) for f in (math.cos, math.sin))
    rz = np.array([[ca, -sa, 0.0], [sa, ca, 0.0], [0.0, 0.0, 1.0]])
    ry = np.array([[cb, 0.0, sb], [0.0, 1.0, 0.0], [-sb, 0.0, cb]])
    rx = np.array([[1.0, 0.0, 0.0], [0.0, cc, -sc], [0.0, sc, cc]])
    return rz @ ry @ rx


_angles = st.tuples(*[st.floats(-math.pi, math.pi)] * 3)


class TestCovariance:
    """The engine is covariant under a constant linear change x~ = A x: at
    transform_jet(p, A), for the cubic G~_pqr = G_abc (A^-1)^a_p (A^-1)^b_q
    (A^-1)^c_r, it gives g and C pushed forward index by index (a lower
    spatial or fiber index by A^-T, an upper one by A)."""

    CUBIC = CubicForm.from_entries({"123": 1 / 6, "111": 0.1, "223": 0.05, "112": 0.04})

    @given(
        left=_angles,
        right=_angles,
        singular=st.tuples(*[st.floats(0.5, 2.0)] * 3),
        flip=st.booleans(),
        t=st.floats(-1.0, 1.0),
        x=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        y=st.tuples(*[st.floats(0.7, 1.5)] * 3),
    )
    @settings(max_examples=40, deadline=None)
    def test_general_linear_map(self, left, right, singular, flip, t, x, y):
        # A = R diag(s) R', with singular values in [0.5, 2]: |det A| >= 1/8
        s = np.array(singular) * (-1.0 if flip else 1.0)
        A = _rotation(*left) @ np.diag(s) @ _rotation(*right)
        A_inv = np.linalg.inv(A)
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        p = JetPoint.of(t, x, y)
        G = np.einsum("abc,ap,bq,cr->pqr", self.CUBIC.values_array(x), A_inv, A_inv, A_inv)
        moved = CubicForm({
            key: float(G[tuple(k - 1 for k in key)])
            for key in itertools.combinations_with_replacement((1, 2, 3), 3)
        })
        before = PointContext(self.CUBIC, tm, nlc, p)
        after = PointContext(moved, tm, nlc, transform_jet(p, A))
        pairs = (
            (after.g_val, A_inv.T @ before.g_val @ A_inv),
            (after.ginv_val, A @ before.ginv_val @ A.T),
            (after.C_val, np.einsum("ia,abc,bj,ck->ijk", A, before.C_val, A_inv, A_inv)),
        )
        for got, want in pairs:
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
