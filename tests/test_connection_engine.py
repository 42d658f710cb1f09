import numpy as np
import pytest

from jetfinsler import berwald_moor as bm
from jetfinsler import difftools as dt
from jetfinsler.connection_engine import (
    NonlinearConnection,
    PointContext,
    adapted_derivative,
    ricci_generic,
    scalar_curvature_generic,
    stack_coefficients,
)
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric

from conftest import sample_jet_points


class TestNonlinearConnection:
    def test_canonical_components(self, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.canonical(tm)
        t, x, y = 0.0, (0, 0, 0), (1.0, 2.0, 3.0)
        assert nlc.M(2, t, x, y) == pytest.approx(-2.0, abs=1e-14)  # -kappa y_2
        assert nlc.N(1, 1, t, x, y) == 0.0

    def test_apriori_components(self):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        t, x, y = 0.0, (0, 0, 0), (1.0, 2.0, 3.0)
        assert nlc.M(3, t, x, y) == pytest.approx(-3.0, abs=1e-14)
        assert nlc.N(1, 1, t, x, y) == pytest.approx(-0.5, abs=1e-14)
        assert nlc.N(1, 2, t, x, y) == 0.0


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
        with pytest.raises(ValueError):
            adapted_derivative(lambda *c: 0.0, unit_point, nlc, ("sideways", 1))


class TestCartanGeneric:
    def test_flat_time(self, bm_cubic, unit_point):
        tm = TemporalMetric("1")
        nlc = NonlinearConnection.apriori(tm)
        cart = PointContext(bm_cubic, tm, nlc, unit_point).cartan()
        assert np.abs(cart.G_time).max() < 1e-14
        assert np.abs(cart.L).max() < 1e-14
        assert cart.C == pytest.approx(bm.bm_C(unit_point), abs=1e-13)

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
        # the finite-difference fallback carries a much looser tolerance
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
            ric = ricci_generic(ctx.curvatures())
            ref = bm.bm_ricci(p, tm)
            assert ric.S == pytest.approx(ref.S, rel=1e-11)
            assert ric.R == pytest.approx(ref.R, rel=1e-11, abs=1e-13)

    def test_scalar_assembly(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        ctx = PointContext(bm_cubic, tm, nlc, unit_point)
        sc = scalar_curvature_generic(ctx.ginv_val, ctx.ricci(), tm.h11(0.0))
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

    def M(i, t, x, y):
        return 0.3 * t * y[i - 1] + 0.1 * x[0] * y[1] - 0.2 * x[2] * y[i - 1] * y[2]

    def N(i, j, t, x, y):
        out = 0.2 * x[j - 1] * y[i - 1] - 0.05 * t * y[j - 1] + 0.01 * (i - j)
        return out + 0.1 * t * x[1] if i == j else out

    return NonlinearConnection(M, N)


def _same_floats(a, b) -> bool:
    """Equal as float arrays, signed zeros included."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a, b) and a.tobytes() == b.tobytes()


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
        for ser, stack in ((ctx.C_ser, ctx.C_stack), (ctx.L_ser, ctx.L_stack)):
            dy = np.empty((3, 3, 3, 3))
            dx = np.empty((3, 3, 3, 3))
            for l, i, j, k in np.ndindex(3, 3, 3, 3):
                dy[l, i, j, k] = dt.deriv(ser[l][i][j], 4 + k).value
                dx[l, i, j, k] = ctx._adapted_dx(ser[l][i][j], k).value
            assert _same_floats(ctx._dy_slices(stack), dy)
            assert _same_floats(ctx._dx_slices(stack), dx)

    def test_torsions(self, ctx):
        tors = ctx.torsions()
        p_mixed = np.empty((3, 3, 3))
        r_time = np.empty((3, 3))
        for k, i, j in np.ndindex(3, 3, 3):
            p_mixed[k, i, j] = dt.deriv(ctx.N_ser[k][i], 4 + j).value - ctx.L_val[k, j, i]
        for k, j in np.ndindex(3, 3):
            r_time[k, j] = (
                ctx._adapted_dx(ctx.M_ser[k], j).value
                - ctx._adapted_dt(ctx.N_ser[k][j]).value
            )
        assert _same_floats(tors.P_mixed, p_mixed)
        assert _same_floats(tors.R_time, r_time)

    def test_time_partials_of_higher_order_series(self, ctx):
        # the metric series has order 2; its first-order slots are shared
        dgdt = np.array([[ctx._adapted_dt(e).value for e in row] for row in ctx.g_ser])
        assert _same_floats(ctx._dt_slices(stack_coefficients(ctx.g_ser)), dgdt)
        f = ctx.em_form_ser
        f_dt = np.array([[ctx._adapted_dt(e).value for e in row] for row in f])
        assert _same_floats(ctx._dt_slices(stack_coefficients(f)), f_dt)


class TestMemoContract:
    def test_objects_computed_once(self, bm_cubic, unit_point):
        tm = TemporalMetric("exp(2*t)")
        ctx = PointContext(bm_cubic, tm, NonlinearConnection.apriori(tm), unit_point)
        assert ctx.cartan() is ctx.cartan()
        assert ctx.torsions() is ctx.torsions()
        assert ctx.curvatures() is ctx.curvatures()
        assert ctx.ricci() is ctx.ricci()
