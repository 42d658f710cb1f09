import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetfinsler import difftools as dt
from jetfinsler.errors import DomainError, NonPositiveMetric, SingularChange
from jetfinsler.expressions import Expression
from jetfinsler.jetspace import (
    CubicForm,
    DTensorBundle,
    JetPoint,
    TemporalMetric,
    transform_jet,
)
from jetfinsler.metric_engine import finsler_F_squared_field


class TestTemporalMetric:
    def test_kappa_constant_metric(self):
        tm = TemporalMetric("1")
        assert tm.kappa(0.0) == 0.0
        assert tm.kappa(1.7) == 0.0

    def test_kappa_exponential(self):
        # (e^{-2t}/2) * 2 e^{2t} = 1 at every t
        tm = TemporalMetric("exp(2*t)")
        for t in (-1.0, 0.0, 0.5, 2.0):
            assert tm.kappa(t) == pytest.approx(1.0, abs=1e-14)

    def test_kappa_quadratic(self):
        # (1/2) * 2t/(t^2+1) = 1/2 at t = 1
        tm = TemporalMetric("t**2 + 1")
        assert tm.kappa(1.0) == pytest.approx(0.5, abs=1e-15)

    def test_kappa_dot(self):
        # kappa(t) = t/(t^2+1), kappa' = (1 - t^2)/(1 + t^2)^2
        tm = TemporalMetric("t**2 + 1")
        assert tm.kappa_dot(1.0) == pytest.approx(0.0, abs=1e-14)
        assert tm.kappa_dot(0.0) == pytest.approx(1.0, abs=1e-14)
        assert TemporalMetric("exp(2*t)").kappa_dot(0.3) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_kappa_eval_on_taylor_matches_kappa_dot(self):
        tm = TemporalMetric("t**2 + 1")
        seed = dt.taylor_variable("t", 0.4, 2)
        kser = tm.kappa_eval(seed)
        assert kser.value == pytest.approx(tm.kappa(0.4), abs=1e-15)
        assert dt.deriv(kser, "t").value == pytest.approx(
            tm.kappa_dot(0.4), abs=1e-14
        )

    def test_non_positive_metric(self):
        tm = TemporalMetric("t")
        with pytest.raises(NonPositiveMetric):
            tm.h11(-1.0)
        with pytest.raises(NonPositiveMetric):
            tm.kappa(0.0)

    def test_kappa_eval_order_cap(self):
        # kappa needs one extra order of h11, so order-4 inputs are rejected
        from jetfinsler.errors import OrderTooHigh

        tm = TemporalMetric("t**2 + 1")
        with pytest.raises(OrderTooHigh):
            tm.kappa_eval(dt.taylor_variable("t", 0.0, 4))


class TestTransformJet:
    def test_identity(self):
        p = JetPoint.of(0.5, (1, 2, 3), (4, 5, 6))
        assert transform_jet(p) == p
        assert transform_jet(p, np.eye(3), 1.0) == p

    def test_time_scaling(self):
        # t~ = 2t so dt/dt~ = 1/2
        p = JetPoint.of(1.0, (0, 0, 0), (1.0, 2.0, 3.0))
        q = transform_jet(p, rate=2.0)
        assert q.t == 2.0
        assert q.x == (0.0, 0.0, 0.0)
        assert q.y == (0.5, 1.0, 1.5)

    def test_spatial_permutation(self):
        # x~^p = x^{(2, 3, 1)[p]}
        A = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        p = JetPoint.of(0.0, (7.0, 8.0, 9.0), (1.0, 2.0, 3.0))
        q = transform_jet(p, A)
        assert q.t == 0.0
        assert q.x == (8.0, 9.0, 7.0)
        assert q.y == (2.0, 3.0, 1.0)

    def test_linear_map_and_rate(self):
        A = [[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 3.0]]
        p = JetPoint.of(0.5, (1.0, 1.0, 1.0), (1.0, 2.0, 4.0))
        q = transform_jet(p, A, rate=4.0)
        assert q == JetPoint.of(2.0, (3.0, 1.0, 2.0), (1.25, 0.5, 2.5))

    def test_singular_rate(self):
        p = JetPoint.of(0.0, (0, 0, 0), (1, 1, 1))
        with pytest.raises(SingularChange, match="zero rate"):
            transform_jet(p, rate=0.0)

    def test_singular_jacobian(self):
        p = JetPoint.of(0.0, (0, 0, 0), (1, 1, 1))
        bad = np.array([[1, 0, 0], [1, 0, 0], [0, 0, 1.0]])
        with pytest.raises(SingularChange, match=r"det\(A\)"):
            transform_jet(p, bad)
        # nearly singular at the 1e-12 relative guard
        with pytest.raises(SingularChange):
            transform_jet(p, np.diag([1.0, 1.0, 1e-13]))

    @given(
        lams=st.tuples(*[st.floats(0.3, 3.0) for _ in range(3)]),
        y=st.tuples(*[st.floats(0.3, 4.0) for _ in range(3)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_third_root_scaling_law(self, lams, y):
        # With h11 = 1, scaling x does nothing to the constant cubic, but the
        # fiber picks up the Jacobian: F(lam * y) = (lam1 lam2 lam3)^(1/3) F(y),
        # so F^2(lam * y) = (lam1 lam2 lam3)^(2/3) F^2(y).
        tm = TemporalMetric("1")
        cubic = CubicForm.berwald_moor()
        F2 = finsler_F_squared_field(cubic, tm)
        p = JetPoint.of(0.0, (0.4, -0.2, 0.9), y)
        q = transform_jet(p, np.diag(lams))
        expected = (lams[0] * lams[1] * lams[2]) ** (2.0 / 3.0) * F2(*p.coords())
        assert F2(*q.coords()) == pytest.approx(expected, rel=1e-12)


class TestCubicForm:
    def test_berwald_moor_values(self):
        cubic = CubicForm.berwald_moor()
        for p, q, r in itertools.product((1, 2, 3), repeat=3):
            want = 1.0 / 6.0 if len({p, q, r}) == 3 else 0.0
            assert cubic.component(p, q, r) == want

    def test_accessor_symmetrizes(self):
        cubic = CubicForm.from_entries({"112": "x1 + 1", "123": 0.25})
        x = (0.3, -0.7, 1.1)
        for perm in itertools.permutations((1, 1, 2)):
            assert cubic.component(*perm, x) == pytest.approx(1.3)
        for perm in itertools.permutations((1, 2, 3)):
            assert cubic.component(*perm, x) == 0.25

    def test_symmetrization_idempotent(self):
        cubic = CubicForm.from_entries({"213": 0.5})
        # storing under any permutation and reading under any permutation agree
        assert cubic.component(3, 1, 2) == cubic.component(1, 2, 3) == 0.5

    def test_g111_matches_direct_sum(self):
        cubic = CubicForm.from_entries({"123": 0.25, "111": 0.05})
        y = (1.0, 2.0, 3.0)
        vals = cubic.values_array((0, 0, 0))
        want = np.einsum("pqr,p,q,r->", vals, y, y, y)
        assert cubic.g111((0, 0, 0), y) == pytest.approx(float(want), rel=1e-15)

    def test_values_array_evaluates_each_entry_once(self, monkeypatch):
        cubic = CubicForm.from_entries(
            {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}
        )
        x = (0.4, -0.9, 1.3)
        ref = np.empty((3, 3, 3))
        for p, q, r in np.ndindex(3, 3, 3):
            ref[p, q, r] = cubic.component(p + 1, q + 1, r + 1, x)
        evaluate = Expression.evaluate
        calls = []
        monkeypatch.setattr(
            Expression, "evaluate", lambda e, env: calls.append(e) or evaluate(e, env)
        )
        vals = cubic.values_array(x)
        assert len(calls) == 3
        assert vals.tobytes() == ref.tobytes()

    def test_is_berwald_moor(self):
        assert CubicForm.berwald_moor().is_berwald_moor()
        assert CubicForm.from_entries({"123": 1.0 / 6.0}).is_berwald_moor()
        assert not CubicForm.from_entries({"123": 0.5}).is_berwald_moor()
        assert not CubicForm.from_entries({"123": "x1"}).is_berwald_moor()


class TestJetPoint:
    def test_coords_order(self):
        p = JetPoint.of(0.5, (1, 2, 3), (4, 5, 6))
        assert p.coords() == (0.5, 1, 2, 3, 4, 5, 6)

    def test_positive_fiber_guard(self):
        with pytest.raises(DomainError):
            JetPoint.of(0, (0, 0, 0), (1, -1, 1)).require_positive_fiber()


class TestDTensorBundle:
    def test_add_and_lookup(self):
        b = DTensorBundle()
        b.add("g", np.eye(3), ("S-", "S-"))
        b.add("C", np.zeros((3, 3, 3)), ("F+", "S-", "F-"))
        b.add("R_time", np.zeros((3, 3)), ("F+", "T-", "T-", "S-"))
        b.add("scalar", 2.5, ())
        assert set(b.names()) == {"g", "C", "R_time", "scalar"}
        assert b["g"].shape == (3, 3)
        assert b.species("C") == ("F+", "S-", "F-")

    def test_shape_validation(self):
        b = DTensorBundle()
        with pytest.raises(ValueError):
            b.add("g", np.eye(2), ("S-", "S-"))
        with pytest.raises(ValueError):
            b.add("g", np.eye(3), ("Q-", "S-"))
