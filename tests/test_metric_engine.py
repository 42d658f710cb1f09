import numpy as np
import pytest

from jetfinsler.connection_engine import NonlinearConnection, PointContext
from jetfinsler.errors import (
    DegenerateCubic,
    DegenerateMetric,
    DomainError,
    SingularDenominator,
)
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric, check_invertible
from jetfinsler.metric_engine import (
    CubicContractions,
    contract_cubic,
    finsler_F_squared_field,
    metric_lower_generic,
    metric_upper_generic,
)

from conftest import sample_jet_points


class TestContractCubic:
    def test_berwald_moor_at_123(self, bm_cubic):
        # oracle: G_i11 = G111/y_i, G_ij1 = (1 - d_ij) G111/(y_i y_j),
        # det(G_ij1) = 2 G111, by substitution at y = (1, 2, 3)
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
        cc = contract_cubic(bm_cubic, p)
        assert cc.G111 == pytest.approx(6.0, abs=1e-14)
        assert cc.Gi11 == pytest.approx([6.0, 3.0, 2.0], abs=1e-14)
        assert cc.Gij1 == pytest.approx(
            np.array([[0, 3, 2], [3, 0, 1], [2, 1, 0]], dtype=float), abs=1e-14
        )
        assert np.linalg.det(cc.Gij1) == pytest.approx(12.0, rel=1e-14)

    def test_berwald_moor_script_and_raised(self, bm_cubic):
        # oracle: script_G111 = G111/2 and G1^j = y_j/2
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 1.0, 1.0))
        cc = contract_cubic(bm_cubic, p)
        assert cc.script_G111 == pytest.approx(0.5, abs=1e-14)
        assert cc.G1_up == pytest.approx([0.5, 0.5, 0.5], abs=1e-14)

    def test_zero_cubic_degenerate(self):
        cubic = CubicForm({})
        with pytest.raises(DegenerateCubic, match=r"^det\(G_ij1\) = 0\.0 with norm 0\.0$"):
            contract_cubic(cubic, JetPoint.of(0, (0, 0, 0), (1, 2, 3)))

    def test_euler_chain(self, bm_cubic, random_points):
        for p in random_points:
            cc = contract_cubic(bm_cubic, p)
            y = np.asarray(p.y)
            assert cc.Gi11 @ y == pytest.approx(3 * cc.G111, rel=1e-12)
            assert cc.Gij1 @ y == pytest.approx(2 * cc.Gi11, rel=1e-12)
            assert y @ cc.Gij1 @ y == pytest.approx(6 * cc.G111, rel=1e-12)
            assert cc.Gij1 @ cc.Gup_jk1 == pytest.approx(np.eye(3), abs=1e-12)


def _f_squared(cubic, tm, p):
    return finsler_F_squared_field(cubic, tm)(*p.coords())


class TestFinslerF:
    def test_unit_point(self, bm_cubic):
        assert _f_squared(
            bm_cubic, TemporalMetric("1"), JetPoint.of(0, (0, 0, 0), (1, 1, 1))
        ) == pytest.approx(1.0, abs=1e-15)

    def test_cube_root_point(self, bm_cubic):
        # G111 = y1 y2 y3 = 6 at y = (1, 2, 3)
        got = _f_squared(
            bm_cubic, TemporalMetric("1"), JetPoint.of(0, (0, 0, 0), (1, 2, 3))
        )
        assert got == pytest.approx(6.0 ** (2.0 / 3.0), rel=1e-15)

    def test_temporal_factor(self, bm_cubic):
        got = _f_squared(
            bm_cubic, TemporalMetric("4"), JetPoint.of(0, (0, 0, 0), (1, 1, 1))
        )
        assert got == pytest.approx(0.25, rel=1e-15)

    def test_domain_error(self, bm_cubic):
        with pytest.raises(DomainError):
            _f_squared(
                bm_cubic, TemporalMetric("1"), JetPoint.of(0, (0, 0, 0), (-1, 1, 1))
            )

    def test_non_finite_g111_rejected(self):
        # 1e300 * 1e300 is inf without an exception
        cubic = CubicForm.from_entries({"123": "1e300*1e300"})
        p = JetPoint.of(0, (0, 0, 0), (1, 1, 1))
        tm = TemporalMetric("1")
        for call, message in (
            (lambda: _f_squared(cubic, tm, p), "fractional power of a non-finite value"),
            (lambda: metric_lower_generic(cubic, p), "G111 = inf is not finite"),
            (lambda: metric_upper_generic(cubic, p), "G111 = inf is not finite"),
        ):
            with np.errstate(all="ignore"), pytest.raises(DomainError, match=message):
                call()


def _engine(cubic, tm, p):
    return PointContext(cubic, tm, NonlinearConnection.apriori(tm), p)


def _assert_engine_matches_formulas(cubic, tm, points):
    """The engine's metric and inverse, computed from the jet of F^2, equal
    the closed contraction formulas to rounding."""
    for p in points:
        ctx = _engine(cubic, tm, p)
        for got, want in (
            (ctx.g_val, metric_lower_generic(cubic, p)),
            (ctx.ginv_val, metric_upper_generic(cubic, p)),
        ):
            assert np.abs(got - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)


class TestMetricLower:
    def test_unit_point_values(self, bm_cubic):
        # oracle: g_ij = ((2 - 3 d_ij)/9) G111^(2/3)/(y_i y_j) at y = (1,1,1)
        tm = TemporalMetric("1")
        p = JetPoint.of(0, (0, 0, 0), (1, 1, 1))
        want = np.full((3, 3), 2.0 / 9.0) - np.eye(3) / 3.0
        assert metric_lower_generic(bm_cubic, p) == pytest.approx(want, abs=1e-14)
        assert _engine(bm_cubic, tm, p).g_val == pytest.approx(want, abs=1e-14)

    def test_general_point_values(self, bm_cubic):
        # same oracle with G111 = 6
        p = JetPoint.of(0.3, (0, 0, 0), (1.0, 2.0, 3.0))
        g = metric_lower_generic(bm_cubic, p)
        scale = 6.0 ** (2.0 / 3.0)
        # g_12 = (2/9) scale/(1*2) = scale/9; g_11 = (-1/9) scale/1
        assert g[0, 1] == pytest.approx(scale / 9.0, rel=1e-14)
        assert g[0, 0] == pytest.approx(-scale / 9.0, rel=1e-14)

    def test_mode_equivalence_many_points(self, bm_cubic):
        # the contraction formulas against the engine's (h11/2) d^2(F^2)/dy dy
        _assert_engine_matches_formulas(
            bm_cubic, TemporalMetric("t**2 + 1"), sample_jet_points(seed=11, count=100)
        )

    def test_fiber_homogeneity(self, bm_cubic, random_points):
        # F is 1-homogeneous in y, so g is 0-homogeneous: g(lam y) = g(y).
        for p in random_points[:6]:
            g = metric_lower_generic(bm_cubic, p)
            for lam in (2.0, 1.0 / 3.0):
                q = JetPoint.of(p.t, p.x, tuple(lam * v for v in p.y))
                g_scaled = metric_lower_generic(bm_cubic, q)
                assert g_scaled == pytest.approx(g, rel=1e-12)

    def test_y_contraction_gives_energy(self, bm_cubic, random_points):
        # Euler identity for the 2-homogeneous F^2: g_ij y^i y^j = F^2 h11.
        tm = TemporalMetric("exp(2*t)")
        for p in random_points:
            g = metric_lower_generic(bm_cubic, p)
            y = np.asarray(p.y)
            f2 = _f_squared(bm_cubic, tm, p)
            assert y @ g @ y == pytest.approx(f2 * tm.h11(p.t), rel=1e-10)


class TestMetricUpper:
    def test_unit_point_values(self, bm_cubic):
        # oracle: g^jk = (2 - 3 d^jk) G111^(-2/3) y_j y_k
        got = metric_upper_generic(bm_cubic, JetPoint.of(0, (0, 0, 0), (1, 1, 1)))
        want = np.full((3, 3), 2.0) - 3.0 * np.eye(3)
        assert got == pytest.approx(want, abs=1e-13)

    def test_general_point_values(self, bm_cubic):
        got = metric_upper_generic(bm_cubic, JetPoint.of(0, (0, 0, 0), (1, 2, 3)))
        scale = 6.0 ** (-2.0 / 3.0)
        assert got[0, 1] == pytest.approx(4.0 * scale, rel=1e-13)
        assert got[0, 0] == pytest.approx(-scale, rel=1e-13)

    def test_product_is_identity_row(self, bm_cubic):
        # hand product of the two closed forms at the unit point:
        # row 1 x col 1: 1/9 + 4/9 + 4/9 = 1; row 1 x col 2: -2/9 - 2/9 + 4/9 = 0
        p = JetPoint.of(0, (0, 0, 0), (1, 1, 1))
        g = metric_lower_generic(bm_cubic, p)
        gup = metric_upper_generic(bm_cubic, p)
        assert (g @ gup)[0] == pytest.approx([1.0, 0.0, 0.0], abs=1e-14)

    def test_matches_numerical_inverse(self, bm_cubic, random_points):
        for p in random_points:
            g = metric_lower_generic(bm_cubic, p)
            gup = metric_upper_generic(bm_cubic, p)
            num = np.linalg.inv(g)
            scale = max(np.abs(num).max(), 1.0)
            assert np.abs(gup - num).max() <= 1e-10 * scale

    def test_degenerate_metric_guard(self):
        singular = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        # the message can reach a report, so its text is fixed
        with pytest.raises(DegenerateMetric, match=r"^det\(g\) = 0\.0 with norm 2\.236"):
            check_invertible(singular, DegenerateMetric, "g")

    def test_singular_denominator_guard(self, bm_cubic, monkeypatch):
        # G111 - script_G111 = G111/2 for every valid cubic, so the guard can
        # only fire on inconsistent contractions; patch them in directly.
        degenerate = CubicContractions(
            G111=1.0,
            Gi11=np.ones(3),
            Gij1=np.eye(3),
            Gup_jk1=np.eye(3),
            script_G111=1.0,
            G1_up=np.ones(3),
        )
        monkeypatch.setattr(
            "jetfinsler.metric_engine.contract_cubic", lambda *a: degenerate
        )
        with pytest.raises(SingularDenominator):
            metric_upper_generic(bm_cubic, JetPoint.of(0, (0, 0, 0), (1, 1, 1)))


class TestGenericCubic:
    """A position-dependent non-degenerate cubic exercises the generic paths."""

    @pytest.fixture
    def cubic(self):
        return CubicForm.from_entries(
            {
                "123": "(1 + x1**2/10)/6",
                "111": 0.05,
                "222": 0.05,
                "333": 0.05,
            }
        )

    def test_mode_equivalence(self, cubic):
        # the contraction formulas against the engine's (h11/2) d^2(F^2)/dy dy
        _assert_engine_matches_formulas(
            cubic,
            TemporalMetric("exp(2*t)"),
            sample_jet_points(seed=5, count=25, y_box=(0.5, 2.5)),
        )

    def test_inverse_consistency(self, cubic):
        for p in sample_jet_points(seed=6, count=25, y_box=(0.5, 2.5)):
            g = metric_lower_generic(cubic, p)
            gup = metric_upper_generic(cubic, p)
            assert np.abs(g @ gup - np.eye(3)).max() <= 1e-10
