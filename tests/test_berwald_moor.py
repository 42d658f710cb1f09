import itertools

import numpy as np
import pytest

from jetfinsler import berwald_moor as bm
from jetfinsler.berwald_moor import ClosedForms
from jetfinsler.cli import COMPARISON_NAMES
from jetfinsler import difftools as dt
from jetfinsler.errors import DomainError
from jetfinsler.jetspace import JetPoint, TemporalMetric

from conftest import sample_jet_points
from helpers import closed_form_loops


def flat(p):
    """The closed forms at p under the constant temporal metric h11 = 1."""
    return ClosedForms(p, TemporalMetric("1"))


def s_bracket(p) -> np.ndarray:
    """S again, from the A-coefficient bracket expansion (the reference the
    9-case table is checked against):

    [A^l_ij d^l_k/(y_i y_j) - A^l_ik d^l_j/(y_i y_k)]
    + [A^l_ik d_ij y_l/(y_i^2 y_k) - A^l_ij d_ik y_l/(y_i^2 y_j)]
    + sum_m [A^m_ij A^l_mk - A^m_ik A^l_mj] y_l/(y_i y_j y_k),  j != k.
    """
    y = p.y
    a = bm.A_COEFFICIENTS
    s = np.zeros((3, 3, 3, 3))
    for l, i, j, k in itertools.product(range(3), repeat=4):
        if j == k:
            continue
        dlk = 1.0 if l == k else 0.0
        dlj = 1.0 if l == j else 0.0
        dij = 1.0 if i == j else 0.0
        dik = 1.0 if i == k else 0.0
        t1 = a[l, i, j] * dlk / (y[i] * y[j]) - a[l, i, k] * dlj / (y[i] * y[k])
        t2 = a[l, i, k] * dij * y[l] / (y[i] ** 2 * y[k]) - a[l, i, j] * dik * y[
            l
        ] / (y[i] ** 2 * y[j])
        t3 = sum(
            a[m, i, j] * a[l, m, k] - a[m, i, k] * a[l, m, j] for m in range(3)
        ) * y[l] / (y[i] * y[j] * y[k])
        s[l, i, j, k] = t1 + t2 + t3
    return s


class TestACoefficients:
    def test_case_values(self):
        a = bm.A_COEFFICIENTS
        for i, j, k in itertools.product(range(3), repeat=3):
            if i == j == k:
                want = -2.0 / 9.0
            elif len({i, j, k}) == 3:
                want = -2.0 / 9.0
            else:
                want = 1.0 / 9.0
            assert a[i, j, k] == pytest.approx(want, abs=1e-16)

    def test_sum_rules(self):
        # forced by the C-tensor identities at the unit fiber point
        a = bm.A_COEFFICIENTS
        assert np.abs(a.sum(axis=2)).max() < 1e-15          # sum_m A^i_jm = 0
        assert np.abs(np.einsum("mjm->j", a)).max() < 1e-15  # sum_m A^m_jm = 0


class TestBMMetric:
    def test_unit_point(self, unit_point):
        m = ClosedForms(unit_point, TemporalMetric("1"))
        assert m["g_lower"] == pytest.approx(
            np.full((3, 3), 2.0 / 9.0) - np.eye(3) / 3.0, abs=1e-15
        )
        assert m["g_upper"] == pytest.approx(
            np.full((3, 3), 2.0) - 3.0 * np.eye(3), abs=1e-15
        )

    def test_general_point(self):
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
        m = ClosedForms(p, TemporalMetric("1"))
        # g_12 = (2/9) 6^(2/3)/(1*2) = 6^(2/3)/9; g^12 = 2 * 6^(-2/3) * 1 * 2
        assert m["g_lower"][0, 1] == pytest.approx(6 ** (2 / 3) / 9, rel=1e-14)
        assert m["g_upper"][0, 1] == pytest.approx(4 * 6 ** (-2 / 3), rel=1e-14)

    def test_scaling_invariance_and_inverse(self, random_points):
        tm = TemporalMetric("1")
        for p in random_points[:8]:
            m = ClosedForms(p, tm)
            q = JetPoint.of(p.t, p.x, tuple(2.0 * v for v in p.y))
            assert ClosedForms(q, tm)["g_lower"] == pytest.approx(m["g_lower"], rel=1e-13)
            assert m["g_lower"] @ m["g_upper"] == pytest.approx(np.eye(3), abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            ClosedForms(JetPoint.of(0, (0, 0, 0), (1, 0, 1)), TemporalMetric("1"))


class TestBMC:
    def test_unit_point_is_A(self, unit_point):
        assert flat(unit_point)["C"] == pytest.approx(bm.A_COEFFICIENTS, abs=1e-16)

    def test_formula_value(self):
        # C^1_2(3) = A^1_23 * y_1/(y_2 y_3) = (-2/9) * 1/6
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
        assert flat(p)["C"][0, 1, 2] == pytest.approx(-1.0 / 27.0, rel=1e-15)

    def test_identities(self):
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
        c = flat(p)["C"]
        y = np.asarray(p.y)
        assert c == pytest.approx(c.transpose(0, 2, 1), abs=1e-16)
        assert np.abs(np.einsum("ijm,m->ij", c, y)).max() < 1e-15
        assert np.abs(np.einsum("mjm->j", c)).max() < 1e-15


class TestBMCartan:
    def test_flat_time(self, unit_point):
        cart = flat(unit_point)
        assert np.abs(cart["L"]).max() == 0.0
        assert np.abs(cart["G_time"]).max() == 0.0

    def test_L_value(self, unit_point):
        # L^1_23 = (kappa/2) A^1_23 = (1/2)(-2/9)
        cart = ClosedForms(unit_point, TemporalMetric("exp(2*t)"))
        assert cart["L"][0, 1, 2] == pytest.approx(-1.0 / 9.0, rel=1e-14)

    def test_G_time_vanishes_everywhere(self, random_points):
        tm = TemporalMetric("t**2 + 1")
        for p in random_points[:5]:
            assert np.abs(ClosedForms(p, tm)["G_time"]).max() == 0.0


class TestBMTorsions:
    def test_flat_time(self, unit_point):
        tor = flat(unit_point)
        assert np.abs(tor["P_mixed"]).max() == 0.0
        assert np.abs(tor["R_time"]).max() == 0.0
        assert tor["P_fiber"] == pytest.approx(bm.A_COEFFICIENTS, abs=1e-16)

    def test_exponential_R_time(self, unit_point):
        # (1/2)(kappa' - kappa^2) = (1/2)(0 - 1)
        tor = ClosedForms(unit_point, TemporalMetric("exp(2*t)"))
        assert tor["R_time"] == pytest.approx(-0.5 * np.eye(3), abs=1e-14)

    def test_quadratic_R_time(self):
        # kappa = t/(t^2+1): at t=1, kappa=1/2, kappa'=0, so R = -(1/8) I
        p = JetPoint.of(1.0, (0, 0, 0), (1.0, 1.0, 1.0))
        tor = ClosedForms(p, TemporalMetric("t**2 + 1"))
        assert tor["R_time"] == pytest.approx(-np.eye(3) / 8.0, abs=1e-14)

    def test_P_mixed_at_unit(self, unit_point):
        tor = ClosedForms(unit_point, TemporalMetric("exp(2*t)"))
        assert tor["P_mixed"] == pytest.approx(-0.5 * bm.A_COEFFICIENTS, abs=1e-14)


class TestBMS:
    def test_case_six(self, unit_point):
        # S^l_i(i)(l) = 1/(9 y_i^2) with i=1, l=2
        assert flat(unit_point)["S_vv"][1, 0, 0, 1] == pytest.approx(1.0 / 9.0, abs=1e-15)

    def test_case_seven(self, unit_point):
        # S^l_i(l)(i) = -1/(9 y_i^2) with i=2, l=1
        assert flat(unit_point)["S_vv"][0, 1, 0, 1] == pytest.approx(-1.0 / 9.0, abs=1e-15)

    def test_case_three_zero(self):
        p = JetPoint.of(0.0, (0, 0, 0), (0.7, 1.9, 4.2))
        # S^i_i(j)(k) = 0 for distinct i, j, k
        assert flat(p)["S_vv"][0, 0, 1, 2] == 0.0

    def test_case_one_value(self):
        # S^l_i(i)(k) = -(1/9) y_l/(y_i^2 y_k), i=1, k=2, l=3
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
        assert flat(p)["S_vv"][2, 0, 0, 1] == pytest.approx(-(1 / 9) * 3 / 2, rel=1e-15)

    def test_table_matches_bracket(self, random_points):
        for p in random_points:
            table = flat(p)["S_vv"]
            bracket = s_bracket(p)
            scale = max(np.abs(table).max(), 1e-300)
            assert np.abs(table - bracket).max() <= 1e-13 * scale

    def test_antisymmetry_and_zero_slices(self, random_points):
        for p in random_points[:8]:
            s = flat(p)["S_vv"]
            assert np.abs(s + s.transpose(0, 1, 3, 2)).max() < 1e-15
            assert np.abs(np.einsum("lijj->lij", s)).max() == 0.0


class TestBMCurvatures:
    def test_flat_time(self, unit_point):
        curv = flat(unit_point)
        assert np.abs(curv["R_hh"]).max() == 0.0
        assert np.abs(curv["P_hv"]).max() == 0.0
        assert np.abs(curv["S_vv"]).max() > 0.0

    def test_kappa_prefactors(self, random_points):
        tm = TemporalMetric("exp(2*t)")
        for p in random_points[:5]:
            curv = ClosedForms(p, tm)
            assert curv["R_hh"] == pytest.approx(curv["S_vv"] / 4.0, abs=1e-15)
            assert curv["P_hv"] == pytest.approx(curv["S_vv"] / 2.0, abs=1e-15)


class TestBMRicci:
    def test_vertical_ricci_values(self, unit_point):
        ric = flat(unit_point)
        want = 2.0 / 9.0 * np.eye(3) - 1.0 / 9.0 * (1 - np.eye(3))
        assert ric["ricci_S"] == pytest.approx(want, abs=1e-15)

    def test_R_values_exponential(self, unit_point):
        ric = ClosedForms(unit_point, TemporalMetric("exp(2*t)"))
        want = np.eye(3) / 18.0 - (1 - np.eye(3)) / 36.0
        assert ric["ricci_R"] == pytest.approx(want, abs=1e-15)

    def test_trace_identity_against_S(self, random_points):
        # independent summation of the 9-case table
        for p in random_points[:8]:
            ric = flat(p)
            trace = np.einsum("mijm->ij", ric["S_vv"])
            assert ric["ricci_S"] == pytest.approx(trace, rel=1e-13)

    def test_symmetry_exact(self, random_points):
        for p in random_points[:8]:
            s = flat(p)["ricci_S"]
            assert np.array_equal(s, s.T)


class TestBMSRaised:
    def test_unit_point(self, unit_point):
        want = -2.0 / 3.0 * np.eye(3) + 1.0 / 3.0 * (1 - np.eye(3))
        assert flat(unit_point)["S_raised"] == pytest.approx(want, abs=1e-15)

    def test_contraction_path(self):
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
        cf = flat(p)
        direct = cf["g_upper"] @ cf["ricci_S"]
        assert cf["S_raised"] == pytest.approx(direct, rel=1e-13)

    def test_contraction_with_C_vanishes(self):
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
        cf = flat(p)
        total = np.einsum("mr,rim->i", cf["S_raised"], cf["C"])
        assert np.abs(total).max() < 1e-15

    def test_divergence_identity(self, random_points):
        # sum_m dS^m11_i/dy_m = (2/3)(1/y_i) G111^(-2/3), via the exact kernel
        def s_field(m, i):
            d = 3.0 if m == i else 0.0

            def fld(t, x1, x2, x3, y1, y2, y3):
                y = (y1, y2, y3)
                return (
                    dt.powf(y1 * y2 * y3, -2.0 / 3.0)
                    * ((1.0 - d) / 3.0)
                    * y[m]
                    / y[i]
                )

            return fld

        for p in random_points[:8]:
            g23inv = (p.y[0] * p.y[1] * p.y[2]) ** (-2.0 / 3.0)
            for i in range(3):
                total = sum(
                    dt.partial(s_field(m, i), p, (f"y{m + 1}",)) for m in range(3)
                )
                want = 2.0 / 3.0 / p.y[i] * g23inv
                assert total == pytest.approx(want, rel=1e-10)


class TestBMScalarCurvature:
    def test_flat_time(self, unit_point):
        assert flat(unit_point)["scalar_curvature"] == pytest.approx(-2.0, abs=1e-15)

    def test_exponential(self, unit_point):
        got = ClosedForms(unit_point, TemporalMetric("exp(2*t)"))["scalar_curvature"]
        assert got == pytest.approx(-2.5, abs=1e-14)

    def test_general_point(self):
        p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
        got = flat(p)["scalar_curvature"]
        assert got == pytest.approx(-2.0 * 6.0 ** (-2.0 / 3.0), rel=1e-14)

    def test_contraction_path(self, random_points):
        # Sc = g^pq R_pq + h11 g^pq S_(p)(q)
        tm = TemporalMetric("t**2 + 1")
        for p in random_points[:8]:
            cf = ClosedForms(p, tm)
            gup = cf["g_upper"]
            want = np.einsum("pq,pq->", gup, cf["ricci_R"]) + tm.h11(p.t) * np.einsum(
                "pq,pq->", gup, cf["ricci_S"]
            )
            assert cf["scalar_curvature"] == pytest.approx(want, rel=1e-12)


class TestClosedFormBundle:
    def test_canonical_degeneration(self, random_points):
        tm = TemporalMetric("exp(2*t)")
        for p in random_points[:3]:
            ref = bm.closed_form_bundle(p, tm, "canonical")
            for name in ("L", "P_mixed", "R_time", "R_hh", "P_hv", "ricci_R"):
                assert np.abs(np.asarray(ref[name])).max() == 0.0
            assert ref["scalar_curvature"] == pytest.approx(
                -2.0 * tm.h11(p.t) * (p.y[0] * p.y[1] * p.y[2]) ** (-2 / 3), rel=1e-13
            )

    def test_unknown_connection(self, unit_point):
        with pytest.raises(ValueError):
            bm.closed_form_bundle(unit_point, TemporalMetric("1"), "other")

    def test_one_read_only_mapping(self, unit_point):
        tm = TemporalMetric("exp(2*t)")
        cf = bm.closed_form_bundle(unit_point, tm)
        assert isinstance(cf, ClosedForms)
        assert list(cf) == list(COMPARISON_NAMES) and len(cf) == 16
        assert cf["P_fiber"] is cf["C"]
        assert (cf.h11, cf.kappa, cf.g23inv) == (1.0, 1.0, 1.0)
        with pytest.raises(TypeError):
            cf["C"] = cf["L"]

    def test_canonical_reads_no_kappa(self, unit_point, monkeypatch):
        tm = TemporalMetric("exp(2*t)")
        for name in ("kappa", "kappa_dot"):
            monkeypatch.setattr(tm, name, lambda t: pytest.fail("kappa was read"))
        assert ClosedForms(unit_point, tm, "canonical").kappa is None

    def test_series_are_built_once_on_first_read(self, random_points):
        p = random_points[0]
        cf = ClosedForms(p, TemporalMetric("exp(2*t)"))
        assert not {"seeds", "g23inv_ser", "s_raised_stack"} & set(vars(cf))
        stack = cf.s_raised_stack
        assert stack.shape == (3, 3, dt.NCOEF[1])
        assert cf.s_raised_stack is stack
        assert stack[..., 0] == pytest.approx(cf["S_raised"], rel=1e-14)
        assert cf.g23inv_ser.value == pytest.approx(cf.g23inv, rel=1e-15)


class TestArraysMatchLoops:
    """The array-built closed forms equal the per-index loops as bytes."""

    @staticmethod
    def points():
        pts = sample_jet_points(seed=29, count=40)
        # fiber coordinates on the box edges 0.2 and 5, alone and mixed
        for y in itertools.product((0.2, 5.0, 1.3), repeat=3):
            pts.append(JetPoint.of(0.4, (0.1, -0.0, 0.0), y))
        return pts

    def test_closed_forms_equal_the_loops(self):
        tm = TemporalMetric("exp(2*t)")
        for p in self.points():
            cf = ClosedForms(p, tm)
            for name, want in closed_form_loops(p.y).items():
                got = cf[name]
                assert got.shape == want.shape and got.flags.c_contiguous, name
                assert got.tobytes() == want.tobytes(), (p, name)
