"""Each per-point scalar computed once: the temporal metric's per-t memo, the
stacked raised vertical Ricci tensor, the EM blocks as ordered array sums and
one closed-form context per point.  Every result is compared as bytes with
the computation it replaces."""

import struct
import sys
import threading

import numpy as np
import pytest

from jetfinsler import cli
from jetfinsler import difftools as dt
from jetfinsler import field_theory as ft
from jetfinsler.berwald_moor import ClosedForms
from jetfinsler.connection_engine import (
    NonlinearConnection,
    PointContext,
    adapted_partials,
)
from jetfinsler.errors import NonPositiveMetric, OrderTooHigh
from jetfinsler.expressions import Expression
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric

from conftest import sample_jet_points
from helpers import s_raised

METRICS = ("exp(2*t)", "1 + t*t", "2 + sin(3*t)", "1")


def as_bytes(value):
    """A result as comparable bytes: a float's bits, a series' order, slot
    set and coefficients (int results of constant metrics stay ints)."""
    if isinstance(value, dt.Taylor):
        return ("taylor", value.order, value.deps, value.c.tobytes())
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    return (type(value).__name__, value)


def calls(t):
    """Every memoized method at t, with the Taylor orders the engine uses."""
    out = [
        ("h11", lambda tm: tm.h11(t)),
        ("h11_eval", lambda tm: tm.h11_eval(t)),
        ("kappa", lambda tm: tm.kappa(t)),
        ("kappa_dot", lambda tm: tm.kappa_dot(t)),
        ("kappa_eval", lambda tm: tm.kappa_eval(t)),
    ]
    for order in (0, 1, 2, 4):
        seed = dt.taylor_variable("t", t, order)
        out.append((f"h11_jet{order}", lambda tm, k=order: tm.h11_jet(t, k)))
        out.append((f"h11_eval{order}", lambda tm, s=seed: tm.h11_eval(s)))
        if order < dt.MAX_ORDER:
            out.append((f"kappa_eval{order}", lambda tm, s=seed: tm.kappa_eval(s)))
    # a series in another direction with the same value must not collide
    other = dt.taylor_variable("x1", t, 1)
    out.append(("h11_eval_x1", lambda tm: tm.h11_eval(other)))
    # nor one with the t seed's coefficients that claims every slot
    full = dt.Taylor(dt.taylor_variable("t", t, 2).c, 2)
    out.append(("h11_eval_all_slots", lambda tm: tm.h11_eval(full)))
    out.append(("kappa_eval_all_slots", lambda tm: tm.kappa_eval(full)))
    return out


def serial_results(source, ts):
    return {
        (t_bits(t), name): as_bytes(fn(TemporalMetric(source)))
        for t in ts
        for name, fn in calls(t)
    }


def t_bits(t):
    return struct.pack("<d", t)


@pytest.fixture
def count_evaluate(monkeypatch):
    """Number of ``Expression.evaluate`` calls made so far."""
    counter = [0]
    original = Expression.evaluate

    def counted(self, env):
        counter[0] += 1
        return original(self, env)

    monkeypatch.setattr(Expression, "evaluate", counted)
    return lambda: counter[0]


class TestTemporalMemo:
    @pytest.mark.parametrize("source", METRICS)
    def test_interleaved_calls_match_fresh_instances(self, source):
        ts = (0.3, 0.0, -0.0, 0.3, -0.7, 0.0)  # revisits and both zeros
        tm = TemporalMetric(source)
        for t in ts:
            for name, fn in calls(t) + calls(t)[::-1]:
                assert as_bytes(fn(tm)) == as_bytes(fn(TemporalMetric(source))), (t, name)

    def test_signed_zero_times_are_different_keys(self, count_evaluate):
        tm = TemporalMetric("1 + t*t")
        tm.h11(0.0)
        tm.h11(0.0)
        assert count_evaluate() == 1
        tm.h11(-0.0)
        assert count_evaluate() == 2

    def test_one_evaluation_per_key(self, count_evaluate):
        tm = TemporalMetric("exp(2*t)")
        first = [fn(tm) for _, fn in calls(0.25)]
        n = count_evaluate()
        again = [fn(tm) for _, fn in calls(0.25)]
        assert count_evaluate() == n
        assert all(a is b for a, b in zip(first, again))

    def test_stencil_arrays_bypass(self, count_evaluate):
        tm = TemporalMetric("exp(2*t)")
        nodes = np.array([0.1 + 0.01j, 0.2 - 0.01j])  # fd mode's contour nodes
        tm.h11_eval(nodes)
        tm.h11_eval(nodes)
        assert count_evaluate() == 2

    def test_errors_are_not_memoized(self, count_evaluate):
        tm = TemporalMetric("t")
        seed = dt.taylor_variable("t", -0.5, 1)
        for fn in (
            lambda: tm.h11(-0.5),
            lambda: tm.h11_eval(-0.5),
            lambda: tm.h11_eval(seed),
            lambda: tm.h11_jet(-0.5, 2),
            lambda: tm.kappa(-0.5),
            lambda: tm.kappa_dot(-0.5),
            lambda: tm.kappa_eval(-0.5),
            lambda: tm.kappa_eval(seed),
        ):
            for _ in range(2):
                before = count_evaluate()
                with pytest.raises(NonPositiveMetric):
                    fn()
                assert count_evaluate() == before + 1
        assert tm.h11(0.5) == 0.5

    def test_order_cap_raises_every_time(self):
        tm = TemporalMetric("exp(2*t)")
        for _ in range(2):
            with pytest.raises(OrderTooHigh):
                tm.kappa_eval(dt.taylor_variable("t", 0.0, 4))

    def test_two_threads_give_the_serial_results(self):
        source = "2 + sin(3*t)"
        ts_a = (0.1, -0.4, 0.9)
        ts_b = (0.2, -0.4, 0.0, -0.0)
        want = serial_results(source, ts_a + ts_b)
        tm = TemporalMetric(source)
        got = {0: [], 1: []}

        def work(slot, ts):
            for _ in range(30):
                for t in ts:
                    for name, fn in calls(t):
                        got[slot].append(((t_bits(t), name), as_bytes(fn(tm))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=work, args=(0, ts_a)),
                threading.Thread(target=work, args=(1, ts_b)),
            ]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for slot in (0, 1):
            assert got[slot]
            for key, value in got[slot]:
                assert value == want[key], key


class TestRaisedS:
    def test_stack_equals_per_entry(self):
        for p in sample_jet_points(seed=11, count=20):
            y = dt.seed_point(p.coords(), 1)[4:]
            stack = ClosedForms(p, TemporalMetric("exp(2*t)")).s_raised_stack
            assert stack.shape == (3, 3, dt.NCOEF[1])
            for m in range(3):
                for i in range(3):
                    assert stack[m, i].tobytes() == s_raised(m, i, y).c.tobytes()


# -- the EM blocks as the per-entry loops computed them ----------------------


def em_two_form_loops(ctx):
    y = np.asarray(ctx.point.y)
    h_up = 1.0 / ctx.h_ser.value
    g, L, C = ctx.g_val, ctx.L_val, ctx.C_val
    dgdt = adapted_partials(ctx.g_stack, ctx.M_val, ctx.N_val)[0]
    d_bar = np.empty(3)
    for i in range(3):
        d_bar[i] = 0.5 * h_up * sum(dgdt[i, m] * y[m] for m in range(3))
    D = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            D[i, j] = h_up * sum(
                g[i, q] * (-ctx.N_val[q, j] + sum(L[q, j, m] * y[m] for m in range(3)))
                for q in range(3)
            )
    d_em = np.empty((3, 3))
    for i in range(3):
        for j in range(3):
            d_em[i, j] = h_up * (
                g[i, j]
                + sum(g[i, q] * C[q, m, j] * y[m] for q in range(3) for m in range(3))
            )
    return d_bar, D, d_em


def em_covariant_derivatives_loops(ctx):
    f = ctx.em_form_stack
    f0 = f[..., 0]
    f_dt, f_dx, f_dy = adapted_partials(f, ctx.M_val, ctx.N_val)
    kappa = ctx.kappa
    G_t, L, C = ctx.G_time_val, ctx.L_val, ctx.C_val
    f_time = np.empty((3, 3))
    f_spatial = np.empty((3, 3, 3))
    f_fiber = np.empty((3, 3, 3))
    for i in range(3):
        for j in range(3):
            f_time[i, j] = (
                f_dt[i, j]
                + f0[i, j] * kappa
                - sum(f0[m, j] * G_t[m, i] + f0[i, m] * G_t[m, j] for m in range(3))
            )
            for k in range(3):
                f_spatial[i, j, k] = f_dx[i, j, k] - sum(
                    f0[m, j] * L[m, i, k] + f0[i, m] * L[m, j, k] for m in range(3)
                )
                f_fiber[i, j, k] = f_dy[i, j, k] - sum(
                    f0[m, j] * C[m, i, k] + f0[i, m] * C[m, j, k] for m in range(3)
                )
    return f_time, f_spatial, f_fiber


def em_contexts():
    generic = CubicForm.from_entries(
        {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}
    )
    for cubic in (CubicForm.berwald_moor(), generic):
        for source in ("exp(2*t)", "1 + t*t"):
            tm = TemporalMetric(source)
            for nlc in (NonlinearConnection.apriori(tm), NonlinearConnection.canonical(tm)):
                points = [JetPoint.of(0.0, (0.2, 0.3, 0.1), (1.0, 2.0, 3.0))]
                points += sample_jet_points(seed=5, count=4)
                for p in points:
                    yield PointContext(cubic, tm, nlc, p)


class TestEmArraySums:
    def test_match_the_loops_bytewise(self):
        zeros = 0
        for ctx in em_contexts():
            em = ft.em_two_form(ctx)
            emd = ft.em_covariant_derivatives(ctx)
            got = (em.D_bar, em.D, em.d_em, emd.F_time, emd.F_spatial, emd.F_fiber)
            want = em_two_form_loops(ctx) + em_covariant_derivatives_loops(ctx)
            for a, b in zip(got, want):
                assert a.shape == b.shape
                assert a.tobytes() == b.tobytes()
                zeros += int((b == 0.0).sum())
        assert zeros  # signed zeros are among the compared entries

    def test_signed_zero_sums(self):
        # inputs drawn from +-0.0 and +-1 make whole sums of -0.0 terms,
        # where only a sum started from 0.0 gives the loops' +0.0
        rng = np.random.default_rng(7)
        values = np.array([-0.0, 0.0, -0.0, 1.0, -1.0])
        tm = TemporalMetric("exp(2*t)")
        nlc = NonlinearConnection.apriori(tm)
        p = JetPoint.of(0.3, (0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        for _ in range(40):
            ctx = PointContext(CubicForm.berwald_moor(), tm, nlc, p)
            for name, shape in (
                ("em_form_stack", (3, 3, 8)),
                ("g_stack", (3, 3, 36)),
                ("g_val", (3, 3)),
                ("L_val", (3, 3, 3)),
                ("C_val", (3, 3, 3)),
                ("G_time_val", (3, 3)),
                ("M_val", (3,)),
                ("N_val", (3, 3)),
            ):
                ctx.__dict__[name] = rng.choice(values, shape)  # cached properties
            em = ft.em_two_form(ctx)
            emd = ft.em_covariant_derivatives(ctx)
            got = (em.D_bar, em.D, em.d_em, emd.F_time, emd.F_spatial, emd.F_fiber)
            want = em_two_form_loops(ctx) + em_covariant_derivatives_loops(ctx)
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()


class TestEvaluationCount:
    def test_at_most_five_evaluations_per_point(self, count_evaluate):
        doc = {
            "temporal_metric": "exp(2*t)",
            "points": {"sampler": {"count": 5, "seed": 3}},
            "outputs": ["all"],
        }
        scenario = cli.parse_scenario(doc)
        before = count_evaluate()
        report, _ = cli.run_scenario(scenario)
        assert all(rec["error"] is None for rec in report["points"])
        assert count_evaluate() - before <= 5 * 5


class TestClosedFormsOnce:
    def test_one_context_per_point(self, monkeypatch):
        counts = {"ClosedForms": 0, "require_positive_fiber": 0, "seed_point": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        for owner, name in (
            (ClosedForms, "__init__"),
            (JetPoint, "require_positive_fiber"),
            (dt, "seed_point"),
        ):
            key = "ClosedForms" if owner is ClosedForms else name
            monkeypatch.setattr(owner, name, counted(key, getattr(owner, name)))
        doc = {
            "temporal_metric": "exp(2*t)",
            "points": {"explicit": [{"t": 0.3, "x": [0.1, 0.2, 0.3], "y": [1.0, 2.0, 3.0]}]},
            "outputs": ["all"],
        }
        scenario = cli.parse_scenario(doc)
        p = cli.sample_points(scenario)[0]
        record = cli.evaluate_point(scenario, p, NonlinearConnection.apriori(scenario.tm))
        assert record["error"] is None
        assert {"einstein", "stress_energy", "conservation", "em"} <= set(record)
        # the F^2 jet and the generic context seed the point once each, the
        # closed forms once for the raised-S divergence and the conservation laws
        assert counts == {"ClosedForms": 1, "require_positive_fiber": 1, "seed_point": 3}
