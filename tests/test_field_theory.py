import dataclasses

import numpy as np
import pytest

from jetfinsler import field_theory as ft
from jetfinsler.berwald_moor import ClosedForms
from jetfinsler.connection_engine import NonlinearConnection, PointContext
from jetfinsler.errors import DomainError, ZeroEinsteinConstant
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric

from conftest import sample_jet_points
from helpers import s_raised


class TestEinsteinBlocks:
    def test_flat_anchor(self, unit_point):
        # kappa = 0, G111 = 1: xi11 = (4 + 0)/4 = 1 and T_11 = 1 * 1 * 1
        b = ft.einstein_blocks(ClosedForms(unit_point, TemporalMetric("1")), 1.0)
        assert b.xi11 == pytest.approx(1.0, abs=1e-15)
        assert b.T_11 == pytest.approx(1.0, abs=1e-15)

    def test_exponential_anchor(self, unit_point):
        # xi11 = (4 e^0 + 1)/4 = 5/4
        b = ft.einstein_blocks(ClosedForms(unit_point, TemporalMetric("exp(2*t)")), 1.0)
        assert b.xi11 == pytest.approx(1.25, abs=1e-14)

    def test_offdiagonal_blocks_vanish_flat(self, random_points):
        tm = TemporalMetric("1")
        for p in random_points[:5]:
            b = ft.einstein_blocks(ClosedForms(p, tm), 1.0)
            for block in (
                b.t_time_spatial,
                b.t_spatial_time,
                b.t_fiber_time,
                b.t_time_fiber,
                b.t_spatial_fiber,
                b.t_fiber_spatial,
            ):
                assert np.abs(block).max() == 0.0

    def test_symmetry(self, random_points):
        tm = TemporalMetric("t**2 + 1")
        for p in random_points[:5]:
            b = ft.einstein_blocks(ClosedForms(p, tm), 2.0)
            assert np.abs(b.T_ij - b.T_ij.T).max() < 1e-15
            assert np.array_equal(b.t_spatial_fiber, b.t_fiber_spatial)

    def test_zero_constant_rejected(self, unit_point):
        with pytest.raises(ZeroEinsteinConstant):
            ft.einstein_blocks(ClosedForms(unit_point, TemporalMetric("1")), 0.0)

    def test_canonical_closed_forms_rejected(self, unit_point):
        # the field theory is the a-priori connection's: its conservation
        # laws would read the canonical connection's vanishing L
        cf = ClosedForms(unit_point, TemporalMetric("exp(2*t)"), "canonical")
        with pytest.raises(ValueError):
            ft.einstein_blocks(cf, 1.0)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ft.einstein_blocks(
                ClosedForms(JetPoint.of(0, (0, 0, 0), (1, -2, 1)), TemporalMetric("1")), 1.0
            )


class TestStressEnergyMixed:
    def test_flat_anchor_is_identity(self, unit_point):
        se = ft.stress_energy_mixed(ClosedForms(unit_point, TemporalMetric("1")), 1.0)
        assert se.ss == pytest.approx(np.eye(3), abs=1e-15)
        assert se.tt == pytest.approx(1.0, abs=1e-15)

    def test_exponential_anchor(self, unit_point):
        # T^(m)_(1)i = (h11 kappa/2K) S^m11_i with h11 = kappa = 1 at t = 0
        se = ft.stress_energy_mixed(ClosedForms(unit_point, TemporalMetric("exp(2*t)")), 1.0)
        want = -np.eye(3) / 3.0 + (1 - np.eye(3)) / 6.0
        assert se.fs == pytest.approx(want, abs=1e-14)

    def test_vanishing_components(self, random_points):
        tm = TemporalMetric("exp(2*t)")
        for p in random_points[:5]:
            se = ft.stress_energy_mixed(ClosedForms(p, tm), 3.0)
            for name in ("st", "ft", "ts", "tf"):
                assert np.abs(getattr(se, name)).max() == 0.0

    def test_two_computation_paths_agree(self, random_points):
        for src in ("1", "exp(2*t)", "t**2 + 1"):
            tm = TemporalMetric(src)
            for p in random_points[:6]:
                cf = ClosedForms(p, tm)
                se = ft.stress_energy_mixed(cf, 1.5)
                sec = ft.stress_energy_contracted(ft.einstein_blocks(cf, 1.5), cf)
                for name in ("tt", "st", "ft", "ts", "ss", "fs", "tf", "sf", "ff"):
                    a = np.atleast_1d(np.asarray(getattr(se, name), dtype=float))
                    b = np.atleast_1d(np.asarray(getattr(sec, name), dtype=float))
                    scale = max(np.abs(a).max(), np.abs(b).max(), 1.0)
                    assert np.abs(a - b).max() <= 1e-10 * scale, name


def _conservation(p, tm, K):
    cf = ClosedForms(p, tm)
    return ft.conservation_residuals(ft.stress_energy_mixed(cf, K), cf, K)


class TestConservationLaws:
    def test_flat_rhs_zero(self, unit_point):
        cons = _conservation(unit_point, TemporalMetric("1"), 1.0)
        assert cons.law1_rhs == 0.0
        assert cons.law1_lhs == pytest.approx(0.0, abs=1e-14)

    def test_exponential_anchor(self, unit_point):
        # by hand: prefactor e^{-4t} * 2 e^{2t}/16, bracket 8 e^{2t} - 12 e^{2t},
        # product -1/2 at t = 0 with G111 = 1
        cons = _conservation(unit_point, TemporalMetric("exp(2*t)"), 1.0)
        assert cons.law1_rhs == pytest.approx(-0.5, abs=1e-14)
        assert abs(cons.law1_lhs - cons.law1_rhs) <= 1e-9
        assert np.abs(cons.law2_lhs).max() <= 1e-9
        assert np.abs(cons.law3_lhs).max() <= 1e-9

    def test_residuals_across_metrics_and_points(self, random_points):
        for src in ("1", "exp(2*t)", "t**2 + 1"):
            tm = TemporalMetric(src)
            for p in random_points[:6]:
                cons = _conservation(p, tm, 1.0)
                assert abs(cons.law1_lhs - cons.law1_rhs) <= 1e-9
                assert np.abs(cons.law2_lhs).max() <= 1e-9
                assert np.abs(cons.law3_lhs).max() <= 1e-9

    def test_reads_the_given_components(self, random_points):
        # the connection corrections use the components handed in
        p, tm = random_points[0], TemporalMetric("exp(2*t)")
        cf = ClosedForms(p, tm)
        se = ft.stress_energy_mixed(cf, 1.0)
        moved = dataclasses.replace(se, ss=se.ss + np.diag([1.0, 2.0, 3.0]))
        base = ft.conservation_residuals(se, cf, 1.0)
        other = ft.conservation_residuals(moved, cf, 1.0)
        assert base.law1_lhs == other.law1_lhs
        assert np.abs(other.law2_lhs - base.law2_lhs).max() > 1e-3
        assert np.array_equal(other.law3_lhs, base.law3_lhs)

    def test_nontrivial_einstein_constant(self, unit_point):
        cons = _conservation(unit_point, TemporalMetric("exp(2*t)"), 4.0)
        assert cons.law1_rhs == pytest.approx(-0.125, abs=1e-14)
        assert abs(cons.law1_lhs - cons.law1_rhs) <= 1e-9


class TestEMTwoForm:
    def _ctx(self, metric_src, p, cubic=None):
        tm = TemporalMetric(metric_src)
        cubic = cubic or CubicForm.berwald_moor()
        return PointContext(cubic, tm, NonlinearConnection.apriori(tm), p)

    def test_triviality_berwald_moor(self, random_points):
        for src in ("1", "exp(2*t)", "t**2 + 1"):
            for p in random_points[:5]:
                em = ft.em_two_form(self._ctx(src, p))
                assert np.abs(em.F_em).max() <= 1e-12

    def test_D_vanishes_flat(self, random_points):
        # kappa = 0 makes both N and L vanish
        for p in random_points[:4]:
            em = ft.em_two_form(self._ctx("1", p))
            assert np.abs(em.D).max() <= 1e-14
            assert np.abs(em.D_bar).max() <= 1e-14

    def test_d_reduces_to_metric(self, unit_point):
        # C . y = 0 kills the second term, so d = h^11 g = g at h11 = 1
        ctx = self._ctx("1", unit_point)
        em = ft.em_two_form(ctx)
        assert em.d_em == pytest.approx(ctx.g_val, abs=1e-14)

    def test_antisymmetry_generic_cubic(self):
        cubic = CubicForm.from_entries(
            {"123": "(1 + x1**2/10)/6", "111": 0.05, "222": 0.05, "333": 0.05}
        )
        for p in sample_jet_points(seed=31, count=6, y_box=(0.5, 2.0)):
            em = ft.em_two_form(self._ctx("exp(2*t)", p, cubic))
            scale = max(np.abs(em.d_em).max(), 1.0)
            assert np.abs(em.F_em + em.F_em.T).max() <= 1e-12 * scale

    def test_covariant_derivatives_vanish_berwald_moor(self, random_points):
        for src in ("exp(2*t)", "t**2 + 1"):
            for p in random_points[:4]:
                emd = ft.em_covariant_derivatives(self._ctx(src, p))
                assert np.abs(emd.F_time).max() <= 1e-9
                assert np.abs(emd.F_spatial).max() <= 1e-9
                assert np.abs(emd.F_fiber).max() <= 1e-9


class TestRaisedS:
    def test_matches_closed_form(self, random_points):
        for p in random_points[:5]:
            got = np.array([[s_raised(m, i, p.y) for i in range(3)] for m in range(3)])
            want = ClosedForms(p, TemporalMetric("1"))["S_raised"]
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)
