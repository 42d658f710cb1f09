"""Each per-point scalar computed once: the temporal metric's per-t memo, the
stacked raised vertical Ricci tensor, the EM blocks as ordered array sums and
one closed-form context per point.  Every result is compared as bytes with
the computation it replaces."""

import math
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
from jetfinsler.errors import DomainError, JetFinslerError, NonPositiveMetric, OrderTooHigh
from jetfinsler.expressions import Expression
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric, _check_h11

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
    # series at the same value that are not the t seed: one in another
    # direction, and one with the t seed's coefficients that claims every slot
    other = dt.taylor_variable("x1", t, 1)
    out.append(("h11_eval_x1", lambda tm: tm.h11_eval(other)))
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

    def test_one_evaluation_per_float_t_and_seed_jet(self, count_evaluate):
        tm = TemporalMetric("exp(2*t)")
        tm.h11_jet(0.25, 4)
        assert count_evaluate() == 1
        first = [as_bytes(fn(tm)) for _, fn in calls(0.25)]
        # the float t and the order-0 jet once; the order-0 seed, the x1
        # series and the series that claims every slot are not the t seed:
        # evaluated on every call
        assert count_evaluate() == 1 + 2 + 3
        again = [as_bytes(fn(tm)) for _, fn in calls(0.25)]
        assert count_evaluate() == 1 + 2 + 3 + 3
        assert again == first

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


# -- the t-derivations against direct evaluations of h11's expression ---------

REFERENCE_METRICS = METRICS + ("t", "t**-4", "1/t", "1/(1e118*t)")
# 1e-70: the order-4 jets of t**-4 and 1/t raise; 1e-50: the order-4 jet of
# t**-4 overflows while its order-2 jet stays finite; 1e-138: the order-4 jet
# of 1/(1e118*t) has a NaN at t^2, where its order-2 jet is finite; inf and
# nan: a constant h11 is finite there, but a composition with the t seed is NaN
REFERENCE_TIMES = (0.3, 0.0, -0.0, -0.7, 1e-70, 1e-50, 1e-138, math.inf, -math.inf, math.nan)


def outcome(fn):
    """A call's result as bytes, or its error's type and message."""
    try:
        return as_bytes(fn())
    except JetFinslerError as exc:
        return ("error", type(exc).__name__, str(exc))


def direct(source, t):
    """Every t-derivation at t from fresh evaluations of h11's expression on
    the order-k t seed, followed by the defining formulas and compositions."""
    expr = TemporalMetric(source).expression

    def h11_on_seed(k):
        v = expr.evaluate({"t": dt.taylor_variable("t", t, k)})
        _check_h11(v.value if isinstance(v, dt.Taylor) else float(v))
        return v

    def jet(k):
        return dt.as_taylor(h11_on_seed(k), k)

    def kappa():
        js = jet(1)
        return float(dt.deriv(js, "t").value / (2.0 * js.value))

    def kappa_dot():
        js = jet(2)
        h, hp = js.value, dt.deriv(js, "t").value
        hpp = dt.deriv(dt.deriv(js, "t"), "t").value
        return float((hpp * h - hp * hp) / (2.0 * h * h))

    def kappa_on(u):
        js = jet(u.order + 1)
        kser = dt.deriv(js, "t") / (js.truncate(u.order) * 2.0)
        cs = dt.univariate_coefficients(kser, "t", u.order + 1)
        return dt.compose_univariate(u, cs)

    return {
        "h11_on_seed": h11_on_seed,
        "jet": jet,
        "kappa": kappa,
        "kappa_dot": kappa_dot,
        "kappa_on": kappa_on,
    }


def derivations(t):
    """(name, call on a TemporalMetric, the same from the ``direct`` functions)."""
    seed1 = dt.taylor_variable("t", t, 1)
    full = dt.Taylor(dt.taylor_variable("t", t, 2).c, 2)  # claims every slot
    out = []
    for k in range(4):
        seed = dt.taylor_variable("t", t, k)
        out.append((f"h11_jet{k}", lambda tm, k=k: tm.h11_jet(t, k), lambda d, k=k: d["jet"](k)))
        out.append((f"h11_eval{k}", lambda tm, s=seed: tm.h11_eval(s), lambda d, k=k: d["h11_on_seed"](k)))
    out += [
        ("kappa", lambda tm: tm.kappa(t), lambda d: d["kappa"]()),
        ("kappa_dot", lambda tm: tm.kappa_dot(t), lambda d: d["kappa_dot"]()),
        ("kappa_eval", lambda tm: tm.kappa_eval(t), lambda d: d["kappa"]()),
        ("kappa_eval1", lambda tm: tm.kappa_eval(seed1), lambda d: d["kappa_on"](seed1)),
        ("kappa_eval_all_slots", lambda tm: tm.kappa_eval(full), lambda d: d["kappa_on"](full)),
    ]
    return out


def engine_calls(t, mode):
    """The calls one point makes in this order: exact mode's F^2 jet reads h11
    on the order-4 seed and the context the order-4 jet; fd mode reads the
    float first; then the connection, the closed forms and the field theory."""
    seed1 = dt.taylor_variable("t", t, 1)
    first = (
        [lambda tm: tm.h11_eval(dt.taylor_variable("t", t, 4)), lambda tm: tm.h11_jet(t, 4)]
        if mode == "exact"
        else [lambda tm: tm.h11_eval(t)]
    )
    return first + [
        lambda tm: tm.kappa_eval(seed1),
        lambda tm: tm.kappa(t),
        lambda tm: tm.h11(t),
        lambda tm: tm.kappa_dot(t),
        lambda tm: tm.h11_eval(seed1),
        lambda tm: tm.h11_jet(t, 2),
    ]


class TestTDerivationsReference:
    @pytest.mark.parametrize("mode", ("exact", "fd"))
    @pytest.mark.parametrize("source", REFERENCE_METRICS)
    def test_match_direct_evaluation(self, source, mode):
        with np.errstate(all="ignore"):  # the series of t**-4 at 1e-50 overflow
            for t in REFERENCE_TIMES:
                ref = direct(source, t)
                tm = TemporalMetric(source)
                for call in engine_calls(t, mode):
                    outcome(lambda: call(tm))
                for name, got, want in derivations(t):
                    assert outcome(lambda: got(tm)) == outcome(lambda: want(ref)), (t, name)

    def test_times_reach_the_fallbacks(self):
        with np.errstate(all="ignore"):
            h11_on_seed = direct("t**-4", 1e-50)["h11_on_seed"]
            assert not np.isfinite(h11_on_seed(4).c).all()
            assert np.isfinite(h11_on_seed(2).c).all()
            with pytest.raises(DomainError):
                direct("1/t", 1e-70)["h11_on_seed"](4)
            # a jet that passes the value check but whose truncation is not
            # the lower-order jet: the finite-coefficient rule is needed
            h11_on_seed = direct("1/(1e118*t)", 1e-138)["h11_on_seed"]
            jet4, jet2 = h11_on_seed(4), h11_on_seed(2)
            assert np.isfinite(jet2.c).all() and 0.0 < jet4.value < np.inf
            assert jet4.truncate(2).c.tobytes() != jet2.c.tobytes()


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
