"""The finite-difference path evaluates the distinct nodes of its stencils
with a few array calls of the field, for one partial (``fd_partial``) or a
whole jet (``fd_jet``); these tests hold both to the per-node definition bit
for bit.

``_fd_partial_per_node`` is the reference: the node-by-node loop that
defines ``fd_partial``, kept here verbatim in its arithmetic, on stencil
weights solved exactly in this module, and ``_fd_jet_per_node`` the jet built
from it.  Coefficients are compared as bytes, and reports and error strings
as exact equality."""

import functools
import itertools
import json
import math
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetfinsler import difftools as dt
from jetfinsler.cli import load_scenario, parse_scenario, run_scenario, sample_points
from jetfinsler.connection_engine import NonlinearConnection, PointContext
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric
from jetfinsler.metric_engine import f2_slots, finsler_F_squared_field, h11_slots

from fields_corpus import CORPUS

DATA = Path(__file__).parent / "data"


@functools.lru_cache(maxsize=None)
def _exact_stencil(m):
    """The offsets -r..r, r = (m + 5) // 2, and the weights of the m-th
    derivative that is exact on polynomials of degree <= 2r: the Vandermonde
    system sum_j w_j o_j^k = m! [k == m], solved in ``Fraction``s."""
    r = (m + 5) // 2
    offsets = list(range(-r, r + 1))
    n = len(offsets)
    rows = [
        [Fraction(o) ** k for o in offsets] + [Fraction(math.factorial(m) if k == m else 0)]
        for k in range(n)
    ]
    for col in range(n):  # Gauss-Jordan elimination
        pivot = next(i for i in range(col, n) if rows[i][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for i in range(n):
            if i != col and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[col])]
    return offsets, [row[-1] for row in rows]


def _fd_partial_per_node(field, point, spec):
    """One field call per stencil node, accumulated in a running sum."""
    spec = dt.PartialSpec.coerce(spec)
    coords = list(dt._coords_of(point))
    if spec.order == 0:
        return float(field(*coords))
    active = [(v, m) for v, m in enumerate(spec.exponents) if m > 0]
    rel = dt._FD_REL_STEP[spec.order]
    columns = []
    denom = 1.0
    for v, m in active:
        step = rel * max(abs(coords[v]), dt._FD_SCALE_FLOOR)
        denom *= step**m
        nodes, weights = _exact_stencil(m)
        columns.append(
            (v, [(float(w), coords[v] + n * step) for n, w in zip(nodes, weights) if w])
        )
    acc = 0.0
    for picks in itertools.product(*(col for _, col in columns)):
        w = 1.0
        shifted = coords.copy()
        for (v, _col), (wj, cj) in zip(columns, picks):
            w *= wj
            shifted[v] = cj
        acc += w * field(*shifted)
    return acc / denom


def _fd_jet_per_node(field, point, order, active=None, min_fiber_degree=0):
    """``fd_jet``'s definition: the sampled coefficients in coefficient order,
    each from ``_fd_partial_per_node``."""
    coords = dt._coords_of(point)
    active = range(dt.NVARS) if active is None else active
    c = np.zeros(dt.NCOEF[order])
    c[0] = float(field(*coords))
    for pos in range(1, dt.NCOEF[order]):
        exps = dt._EXPONENTS[pos]
        if any(m > 0 and v not in active for v, m in enumerate(exps)):
            continue
        if sum(exps[4:]) < min_fiber_degree:
            continue
        spec = [v for v, m in enumerate(exps) for _ in range(m)]
        c[pos] = _fd_partial_per_node(field, coords, spec) / dt._FACT[pos]
    return dt.Taylor(c, order)


def _specs():
    """The slots of every mixed partial of order 1..4, in coefficient order."""
    return [
        [v for v, m in enumerate(e) for _ in range(m)] for e in dt._EXPONENTS[1:]
    ]


def _same_bytes(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


GENERIC = CubicForm.from_entries(
    {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}
)


class TestAgainstPerNode:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_corpus_jets(self, entry):
        # the whole order-4 jet: most stencils leave the field constant, which
        # returns one scalar for all nodes
        point = entry.points[0]
        jet = dt.fd_jet(entry.field, point, 4)
        for pos, spec in enumerate(_specs(), start=1):
            ref = _fd_partial_per_node(entry.field, point, spec) / dt._FACT[pos]
            assert _same_bytes(jet.c[pos], ref), (entry.name, spec)

    @pytest.mark.parametrize("metric", ["1", "exp(2*t)", "t**2 + 1"])
    def test_f_squared_jet(self, metric):
        fld = finsler_F_squared_field(CubicForm.berwald_moor(), TemporalMetric(metric))
        p = JetPoint.of(0.35, (0.1, -0.2, 0.3), (0.7, 1.9, 3.1))
        jet = dt.fd_jet(fld, p, 4)
        for pos, spec in enumerate(_specs(), start=1):
            ref = _fd_partial_per_node(fld, p, spec) / dt._FACT[pos]
            assert _same_bytes(jet.c[pos], ref), spec

    @given(
        t=st.floats(-1.0, 1.0),
        x=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        y=st.tuples(*[st.floats(0.2, 5.0)] * 3),
        generic=st.booleans(),
        metric=st.sampled_from(["1", "exp(2*t)", "t**2 + 1"]),
        spec=st.sampled_from(_specs()),
    )
    @settings(max_examples=60, deadline=None)
    def test_f_squared_partials_over_points(self, t, x, y, generic, metric, spec):
        cubic = GENERIC if generic else CubicForm.berwald_moor()
        fld = finsler_F_squared_field(cubic, TemporalMetric(metric))
        p = JetPoint.of(t, x, y)
        try:
            ref = _fd_partial_per_node(fld, p, spec)
        except Exception as exc:  # e.g. a stencil crossing G111 <= 0
            with pytest.raises(type(exc)) as info:
                dt.fd_partial(fld, p, spec)
            assert str(info.value) == str(exc)
            return
        assert _same_bytes(dt.fd_partial(fld, p, spec), ref)


class TestFallbackOrder:
    """Near G111 = 0 the stencils leave the domain, and the order of the
    fallback's one call per node alone decides which error a jet raises:
    that of its first failing node."""

    @given(
        # the t stencils of order 3 reach h11 = t <= 0, so which of h11 and
        # G111 fails first depends on the coefficient order
        t=st.floats(0.001, 0.005),
        x23=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        y=st.tuples(*[st.floats(0.2, 5.0)] * 3),
        share=st.floats(-0.05, 0.6),
        metric=st.sampled_from(["t**2 + 1", "t"]),
        order=st.integers(2, 3),
    )
    @settings(max_examples=80, deadline=None)
    def test_jet_near_g111_zero(self, t, x23, y, share, metric, order):
        # G111 is affine in x1: take the x1 at which it is ``share`` y1 y2 y3
        at0 = GENERIC.g111((0.0, *x23), y)
        slope = GENERIC.g111((1.0, *x23), y) - at0
        assume(abs(slope) > 1e-3)
        x1 = (share * y[0] * y[1] * y[2] - at0) / slope
        assume(abs(x1) <= 10.0)
        fld = finsler_F_squared_field(GENERIC, TemporalMetric(metric))
        p = (t, x1, *x23, *y)
        try:
            ref = _fd_jet_per_node(fld, p, order, min_fiber_degree=2)
        except Exception as exc:  # a node with G111 <= 0 or h11 <= 0
            with pytest.raises(type(exc)) as info:
                dt.fd_jet(fld, p, order, min_fiber_degree=2)
            assert str(info.value) == str(exc)
            return
        jet = dt.fd_jet(fld, p, order, min_fiber_degree=2)
        assert jet.c.tobytes() == ref.c.tobytes()


POINTS = [
    JetPoint.of(0.35, (0.1, -0.2, 0.3), (0.7, 1.9, 3.1)),
    JetPoint.of(-0.74, (0.9, 0.24, -0.26), (2.65, 3.38, 1.52)),
    JetPoint.of(-0.72, (0.58, 0.34, 0.02), (4.12, 2.84, 4.91)),
    JetPoint.of(-0.59, (0.11, -0.03, -0.29), (3.04, 1.33, 4.05)),
    JetPoint.of(0.6, (-0.3, 0.5, 0.8), (1.2, 0.4, 2.5)),
]


class TestUnreadCoefficients:
    """fd mode samples only the F^2 coefficients of y-degree >= 2; the others
    are never read, so the metric is the one built from the full jet."""

    def test_low_fiber_degree_slots_are_zero(self):
        fld = finsler_F_squared_field(GENERIC, TemporalMetric("exp(2*t)"))
        p = POINTS[0]
        full = dt.fd_jet(fld, p, 4)
        part = dt.fd_jet(fld, p, 4, min_fiber_degree=2)
        assert _same_bytes(part.c[0], full.c[0])
        for pos in range(1, dt.NCOEF[4]):
            if sum(dt._EXPONENTS[pos][4:]) < 2:
                assert _same_bytes(part.c[pos], 0.0), dt._EXPONENTS[pos]
            else:
                assert _same_bytes(part.c[pos], full.c[pos]), dt._EXPONENTS[pos]

    @pytest.mark.parametrize("metric", ["1", "exp(2*t)", "t**2 + 1"])
    @pytest.mark.parametrize("generic", [False, True], ids=["berwald_moor", "generic"])
    def test_metric_matches_full_jet(self, generic, metric):
        cubic = GENERIC if generic else CubicForm.berwald_moor()
        tm = TemporalMetric(metric)
        nlc = NonlinearConnection.apriori(tm)
        for p in POINTS:
            assert cubic.g111(p.x, p.y) > 0.1
            ctx = PointContext(cubic, tm, nlc, p, deriv_mode="fd")
            ref = PointContext(cubic, tm, nlc, p, deriv_mode="fd")
            fld = finsler_F_squared_field(cubic, tm)
            ref.f2_ser = dt.fd_jet(fld, p, 4, active=f2_slots(cubic, tm))
            for name in ("g_stack", "g_val", "ginv_stack"):
                got, want = getattr(ctx, name), getattr(ref, name)
                assert got.tobytes() == want.tobytes(), (p, name)


def _touches(pos, slots) -> bool:
    """Whether the monomial of coefficient ``pos`` has a coordinate outside
    ``slots``."""
    return any(m and v not in slots for v, m in enumerate(dt._EXPONENTS[pos]))


class TestFieldSlots:
    """fd mode samples only the coordinates a field reads: every other
    coefficient is 0, as in exact mode, and every sampled one is that of the
    jet over all seven coordinates."""

    @pytest.mark.parametrize("metric", ["exp(2*t)", "1"])
    def test_engine_jets_against_all_slots(self, metric):
        cubic, tm = CubicForm.berwald_moor(), TemporalMetric(metric)
        f2 = finsler_F_squared_field(cubic, tm)
        h11 = lambda t, *rest: tm.h11_eval(t)
        slots = {"exp(2*t)": (0, 4, 5, 6), "1": (4, 5, 6)}[metric]
        assert f2_slots(cubic, tm) == slots
        assert h11_slots(tm) == slots[:-3]
        nlc = NonlinearConnection.apriori(tm)
        for p in POINTS:
            ctx = PointContext(cubic, tm, nlc, p, deriv_mode="fd")
            for got, fld, full, kept in (
                (ctx.f2_ser, f2, dt.fd_jet(f2, p, 4, min_fiber_degree=2), slots),
                (ctx.h_ser, h11, dt.fd_jet(h11, p, 4), slots[:-3]),
            ):
                exact = dt.jet_eval(fld, p, 4)
                for pos in range(dt.NCOEF[4]):
                    if _touches(pos, kept):
                        assert _same_bytes(got.c[pos], 0.0), (p, pos)
                        assert exact.c[pos] == 0.0, (p, pos)
                    else:
                        assert _same_bytes(got.c[pos], full.c[pos]), (p, pos)

    def test_cubic_names_its_slots(self):
        tm = TemporalMetric("exp(2*t)")
        cubic = CubicForm.from_entries({"111": "0.3*x1", "123": "1/6"})
        assert f2_slots(cubic, tm) == (0, 1, 4, 5, 6)
        golden = load_scenario(str(DATA / "golden_generic_scenario.json"))
        assert f2_slots(golden.cubic, golden.tm) == tuple(range(dt.NVARS))
        assert f2_slots(GENERIC, TemporalMetric("1")) == (1, 2, 3, 4, 5, 6)

    def test_unnamed_variables_keep_every_slot(self):
        # a cubic or metric that does not say which variables it reads
        unnamed = types.SimpleNamespace()
        assert f2_slots(unnamed, unnamed) == tuple(range(dt.NVARS))
        assert h11_slots(unnamed) == (0,)

    def test_no_active_slot_gives_the_value(self):
        calls = []

        def counting(*args):
            calls.append(args)
            return F2_BM(*args)

        p = POINTS[0]
        jet = dt.fd_jet(counting, p, 4, active=())
        assert len(calls) == 1
        assert _same_bytes(jet.c[0], F2_BM(*p.coords()))
        assert not jet.c[1:].any()


class TestBerwaldMoorMargin:
    """Berwald-Moor fd mode passes with a 5x margin on every row gated at
    fd_rel.  F^2 does not depend on x, so no x stencil is sampled: their
    small steps near x = 0 gave round-off near fd_rel."""

    def test_worst_fd_row(self):
        worst = 0.0
        for seed in range(1, 7):
            doc = {
                "temporal_metric": "exp(2*t)",
                "cubic": "berwald_moor",
                "connection": "apriori",
                "points": {"sampler": {"count": 30, "seed": seed}},
                "derivative_mode": "fd",
                "outputs": ["all"],
            }
            sc = parse_scenario(doc)
            report, ok = run_scenario(sc)
            assert ok and report["summary"]["points_errored"] == 0, seed
            fd_rel = sc.tolerances["fd_rel"]
            for record in report["points"]:
                for section in ("comparisons", "identities"):
                    for row in record[section].values():
                        if row["tolerance"] == fd_rel:
                            worst = max(worst, row["max_rel_dev"])
        assert 0.0 < worst <= fd_rel / 5


_POOL = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308, 0.7, 1.0,
    -1.5, 3.0, 710.0, 1e300, math.inf, -math.inf, math.nan,
    # NaNs with other payloads and signs, one of them signalling
    *np.array(
        [0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64
    ).view(float).tolist(),
]


def _per_element(fn, u, *args):
    """``_elementwise``'s definition: one call per element."""
    values = map(fn, u.ravel().tolist(), *map(itertools.repeat, args))
    return np.fromiter(values, float, u.size).reshape(u.shape).view(dt.NodeArray)


def _outcome(op, arr):
    try:
        with np.errstate(all="ignore"):
            got = op(arr)
    except Exception as exc:
        return ("raised", type(exc), str(exc))
    assert isinstance(got, dt.NodeArray)
    return ("value", got.shape, got.tobytes())


class TestNodeArrays:
    def test_integer_powers_are_python_powers(self):
        rng = np.random.default_rng(5)
        vals = rng.uniform(0.1, 10.0, 2000)
        arr = vals.view(dt.NodeArray)
        for n in (2, 3, 4, -1, -2, -3):
            got = arr**n
            assert isinstance(got, dt.NodeArray)
            assert got.tobytes() == np.array([v**n for v in vals.tolist()]).tobytes()
        assert (2.0**arr).tobytes() == np.array([2.0**v for v in vals.tolist()]).tobytes()

    def test_helpers_call_math_per_element(self):
        vals = np.random.default_rng(6).uniform(0.1, 30.0, 2000)
        arr = vals.view(dt.NodeArray)
        for helper, ref in (
            (dt.exp, math.exp),
            (dt.log, math.log),
            (dt.sin, math.sin),
            (dt.cos, math.cos),
            (lambda u: dt.powf(u, 2.0 / 3.0), lambda v: v ** (2.0 / 3.0)),
        ):
            got = helper(arr)
            assert isinstance(got, dt.NodeArray)
            assert got.tobytes() == np.array([ref(v) for v in vals.tolist()]).tobytes()

    @given(
        picks=st.lists(st.integers(0, len(_POOL) - 1), max_size=40),
        two_d=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_memo_matches_per_element_map(self, picks, two_d):
        # one call per distinct bit pattern gives the bytes of one call per
        # element, for each helper and for ``**`` and ``rpow``, or raises as
        # it does
        arr = np.array([_POOL[i] for i in picks], dtype=float)
        if two_d and arr.size % 2 == 0:
            arr = arr.reshape(2, -1)
        arr = arr.view(dt.NodeArray)
        ops = [
            dt.exp, dt.log, dt.sin, dt.cos, dt.sqrt,
            lambda u: dt.powf(u, 2.0 / 3.0),
            lambda u: u**2, lambda u: u**-1, lambda u: u**0.5,
            lambda u: 2.0**u, lambda u: 0.5**u,
        ]
        assert _outcome(lambda u: dt._elementwise(lambda v: v, u), arr) == (
            "value", arr.shape, arr.tobytes()
        )
        for op in ops:
            got = _outcome(op, arr)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dt, "_elementwise", _per_element)
                assert got == _outcome(op, arr)

    def test_memo_calls_once_per_bit_pattern(self):
        nan_a, nan_b = np.array(
            [0x7FF8000000000001, 0xFFF8000000000002], dtype=np.uint64
        ).view(float).tolist()
        vals = [0.0, -0.0, 1.5, 0.0, nan_a, 1.5, nan_b, -0.0, nan_a, 5e-324]
        seen = []

        def fn(v, e):
            seen.append(np.float64(v).tobytes())
            return v * e

        got = dt._elementwise(fn, np.array(vals * 3).reshape(6, 5), 2.0)
        assert sorted(seen) == sorted({np.float64(v).tobytes() for v in vals})
        assert got.shape == (6, 5) and isinstance(got, dt.NodeArray)
        ref = np.array([v * 2.0 for v in vals * 3])
        assert got.tobytes() == ref.tobytes()

    def test_elementwise_keeps_python_ints(self):
        # an integer array is not cast: its elements reach ``fn`` as ints
        fn = lambda v, e: v**e if type(v) is int else -1.0
        got = dt._elementwise(fn, np.array([3, 3, 7]), 40)
        assert got.tobytes() == np.array([float(3**40)] * 2 + [float(7**40)]).tobytes()

    def test_h11_array_positivity(self):
        tm = TemporalMetric("t")
        assert (tm.h11_eval(np.array([0.5, 1.0])) == [0.5, 1.0]).all()
        with pytest.raises(Exception, match="is not positive"):
            tm.h11_eval(np.array([0.5, -1.0]))

    def test_field_failing_on_arrays_falls_back(self):
        # ``float()`` of an array raises; the nodes are then evaluated one by
        # one, with the per-node values and result
        fld = lambda t, x1, x2, x3, y1, y2, y3: math.exp(float(t)) * y1
        p = (0.3, 0.0, 0.0, 0.0, 1.2, 1.0, 1.0)
        for spec in (("t",), ("t", "y1"), ("t",) * 4):
            assert _same_bytes(dt.fd_partial(fld, p, spec), _fd_partial_per_node(fld, p, spec))

    def test_overflow_on_floats_raises(self):
        # 5.85**400 is finite, and the powers at the upper nodes of the y1
        # stencil overflow, which raises on Python floats (numpy scalars
        # give inf): fd_partial raises as the per-node reference does
        fld = lambda t, x1, x2, x3, y1, y2, y3: y1**400
        p = (0.0, 0.0, 0.0, 0.0, 5.85, 1.0, 1.0)
        assert math.isfinite(fld(*p))
        with pytest.raises(OverflowError) as ref:
            _fd_partial_per_node(fld, p, ("y1",))
        with pytest.raises(OverflowError) as got:
            dt.fd_partial(fld, p, ("y1",))
        assert str(got.value) == str(ref.value)

    def test_in_place_update_before_falling_back(self):
        def fld(t, x1, x2, x3, y1, y2, y3):
            t += 1.0  # rebinds a float, updates an array in place
            return math.exp(float(t)) * y1

        p = (0.3, 0.0, 0.0, 0.0, 1.2, 1.0, 1.0)
        for spec in (("t",), ("t", "y1")):
            assert _same_bytes(dt.fd_partial(fld, p, spec), _fd_partial_per_node(fld, p, spec))


def _report(doc, monkeypatch=None, per_node=False):
    if per_node:
        monkeypatch.setattr(dt, "fd_jet", _fd_jet_per_node)
    report, ok = run_scenario(parse_scenario(doc))
    report.pop("wall_time_seconds")
    return report, ok


def _fd_doc(metric, cubic, point):
    return {
        "temporal_metric": metric,
        "cubic": cubic,
        "connection": "apriori",
        "points": {"explicit": [point]},
        "derivative_mode": "fd",
        "outputs": ["g_lower"],
    }


GENERIC_DOC = {
    "entries": {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}
}


class TestErrorParity:
    """A stencil that leaves the domain gives the per-node error string, and
    reports equal those of the per-node reference jet."""

    CASES = {
        # G111 > 0 at the point, <= 0 at nodes of its y1 stencils
        "g111_crossing": (
            _fd_doc(
                "t**2 + 1",
                GENERIC_DOC,
                {"t": 0.2, "x": [-0.9, 0.4, 0.3], "y": [1.0, 0.5, 0.6]},
            ),
            "DomainError: fractional power of a non-positive value",
        ),
        # h11 = t > 0 at t = 0.01, negative at nodes of the t stencils
        "h11_in_t_stencil": (
            _fd_doc("t", "berwald_moor", {"t": 0.01, "x": [0, 0, 0], "y": [1, 2, 3]}),
            "NonPositiveMetric: h11 = -0.002 is not positive",
        ),
        # exp(1000 t) is finite at the point and overflows at t-stencil nodes
        "exp_overflow": (
            _fd_doc("exp(1000*t)", "berwald_moor", {"t": 0.7, "x": [0, 0, 0], "y": [1, 2, 3]}),
            "DomainError: 'exp(1000*t)' overflows: math range error",
        ),
        # h11 = 1/(0.002 - t) is finite at t = 0, and a node of the F^2
        # t stencils of order 3 (step 0.002) lies on its pole
        "h11_pole": (
            _fd_doc("1/(0.002 - t)", "berwald_moor", {"t": 0.0, "x": [0, 0, 0], "y": [1, 2, 3]}),
            "ZeroDivisionError: float division by zero",
        ),
    }

    def test_g111_positive_at_the_point(self):
        point = self.CASES["g111_crossing"][0]["points"]["explicit"][0]
        assert 0.0 < GENERIC.g111(point["x"], point["y"]) < 0.02

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_string(self, case, monkeypatch):
        doc, expected = self.CASES[case]
        report, _ = _report(doc)
        assert report["summary"]["points_errored"] == 1
        assert report["points"][0]["error"] == expected
        ref, _ = _report(doc, monkeypatch, per_node=True)
        assert json.dumps(report) == json.dumps(ref)

    @pytest.mark.parametrize(
        "cubic", ["berwald_moor", GENERIC_DOC], ids=["berwald_moor", "generic"]
    )
    def test_signed_zero_points(self, cubic, monkeypatch):
        # points with a varied -0.0 coordinate (x1, then t) give the reports
        # of the per-node reference jet.  Neither field tells -0.0 from
        # +0.0 (t enters as t**2, x1 only in terms added to nonzero ones or
        # not at all), so this checks the values at such points, not the
        # sign at their nodes: TestBatchedJet::test_signed_zero_coordinate
        # has a field that sees it
        doc = _fd_doc("t**2 + 1", cubic, None)
        doc["points"]["explicit"] = [
            {"t": 0.3, "x": [-0.0, 0.4, 0.3], "y": [1.0, 1.5, 0.6]},
            {"t": -0.0, "x": [0.2, -0.4, 0.3], "y": [1.0, 1.5, 0.6]},
        ]
        doc["outputs"] = ["all"]
        first, second = sample_points(parse_scenario(doc))
        assert math.copysign(1.0, first.x[0]) < 0 and math.copysign(1.0, second.t) < 0
        report, _ = _report(doc)
        assert report["summary"]["points_errored"] == 0
        ref, _ = _report(doc, monkeypatch, per_node=True)
        assert json.dumps(report) == json.dumps(ref)


F2_BM = finsler_F_squared_field(CubicForm.berwald_moor(), TemporalMetric("exp(2*t)"))


class TestStencilTable:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_weights_are_the_exact_ones_rounded(self, m):
        offsets, weights = _exact_stencil(m)
        want = [(o, float(w)) for o, w in zip(offsets, weights) if w]
        got = list(zip(*(a.tolist() for a in dt._FD_STENCIL[m])))
        assert got == want
        assert 0.0 not in dt._FD_STENCIL[m][1]


class TestBatchedJet:
    """``fd_jet`` evaluates each distinct stencil node once, in a few calls."""

    def test_distinct_nodes_in_few_calls(self):
        sizes = []

        def counting(*args):
            sizes.append(np.broadcast(*args).size)
            return F2_BM(*args)

        dt._fd_plan.cache_clear()
        jet = dt.fd_jet(counting, POINTS[0], 4, min_fiber_degree=2)
        stencil_nodes = sum(
            math.prod(len([w for w in _exact_stencil(m)[1] if w]) for m in e if m)
            for e in dt._EXPONENTS[1:]
            if sum(e[4:]) >= 2
        )
        assert stencil_nodes == 48_219
        assert sizes[0] == 1  # the point itself, c[0]
        assert sum(sizes[1:]) == 41_847  # each distinct stencil node once
        assert len(sizes) <= 20
        ref = _fd_jet_per_node(F2_BM, POINTS[0], 4, min_fiber_degree=2)
        assert jet.c.tobytes() == ref.c.tobytes()

    def test_plan_built_once(self):
        dt._fd_plan.cache_clear()
        dt.fd_jet(F2_BM, POINTS[0], 4, min_fiber_degree=2)
        before = dt._fd_plan.cache_info()
        dt.fd_jet(F2_BM, POINTS[1], 4, min_fiber_degree=2)
        after = dt._fd_plan.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 1)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_positions_match_definition(self, order):
        for active in ((), (0,), (4, 5, 6), (0, 2, 5), tuple(range(dt.NVARS))):
            for min_fiber_degree in (0, 1, 2):
                want = tuple(
                    pos
                    for pos, e in enumerate(dt._EXPONENTS[1 : dt.NCOEF[order]], start=1)
                    if all(v in active for v, m in enumerate(e) if m)
                    and sum(e[4:]) >= min_fiber_degree
                )
                got = dt._fd_positions(order, frozenset(active), min_fiber_degree)
                assert got == want and all(type(p) is int for p in got)

    def test_cold_jet_memory(self):
        # the plan is built in this call; its node codes and indices and the
        # batched arrays stay small (the per-stencil loop peaked at 0.35 MB)
        dt._fd_plan.cache_clear()
        tracemalloc.start()
        try:
            dt.fd_jet(F2_BM, POINTS[2], 4, min_fiber_degree=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    @pytest.mark.parametrize("slot", [0, 1], ids=["t", "x1"])
    def test_signed_zero_coordinate(self, slot):
        # a field that tells -0.0 from +0.0: stencils that vary the
        # coordinate see +0.0 at offset 0, the others the point's -0.0
        def fld(t, x1, x2, x3, y1, y2, y3):
            sign = np.copysign(1.0, (t, x1)[slot])
            return (2.0 + sign) * y1**2 * y2 * y3 + x2 * y1

        coords = [0.3, 0.2, -0.4, 0.3, 1.0, 1.5, 0.6]
        coords[slot] = -0.0
        jet = dt.fd_jet(fld, coords, 4)
        assert jet.c.tobytes() == _fd_jet_per_node(fld, coords, 4).c.tobytes()
        coords[slot] = 0.0
        assert jet.c.tobytes() != dt.fd_jet(fld, coords, 4).c.tobytes()

    def test_signed_zero_point_stays_batched(self):
        # a varied -0.0 at t and at x1: the F^2 jet takes the batched calls,
        # not one call per node
        calls = []

        def counting(*args):
            calls.append(1)
            return F2_BM(*args)

        coords = (-0.0, -0.0, 0.4, 0.3, 1.0, 1.5, 0.6)
        jet = dt.fd_jet(counting, coords, 4, min_fiber_degree=2)
        assert len(calls) <= 20
        ref = _fd_jet_per_node(F2_BM, coords, 4, min_fiber_degree=2)
        assert jet.c.tobytes() == ref.c.tobytes()

    def test_unvaried_signed_zero_coordinate(self):
        # a coordinate that no stencil varies is the point's own at every
        # node, -0.0 included: it reaches the field as a float, not a column
        calls = []

        def fld(t, x1, x2, x3, y1, y2, y3):
            calls.append([isinstance(a, np.ndarray) for a in (t, x1, x2, x3, y1, y2, y3)])
            return (2.0 + np.copysign(1.0, x1)) * dt.exp(t) * y1

        coords = (0.3, -0.0, 0.2, 0.1, 1.0, 1.5, 0.6)
        jet = dt.fd_jet(fld, coords, 4, active=(0,))
        assert len(calls) > 1 and all(c == [True] + [False] * 6 for c in calls[1:])
        ref = _fd_jet_per_node(fld, coords, 4, active=(0,))
        assert jet.c.tobytes() == ref.c.tobytes()

    def test_field_failing_on_arrays(self):
        # float() of a t column raises: the jet is computed from one call
        # per node
        fld = lambda t, x1, x2, x3, y1, y2, y3: math.exp(float(t)) * y1**2 * y2
        p = (0.3, 0.1, 0.0, 0.0, 1.2, 1.0, 1.0)
        jet = dt.fd_jet(fld, p, 4)
        assert jet.c.tobytes() == _fd_jet_per_node(fld, p, 4).c.tobytes()

    def test_step_power_overflow(self):
        # at y3 = 1e80 the order-4 step is 4e78, whose 4th power overflows:
        # the y3**4 stencil, the first of order 4, raises OverflowError
        # before the later order-4 stencils reach an x1 above 0.11, where
        # this field raises, as node by node
        def fld(t, x1, x2, x3, y1, y2, y3):
            if x1 > 0.11:
                raise ValueError("x1 beyond the stencils of order <= 3")
            return y1 * y2

        coords = (0.3, 0.1, 0.0, 0.0, 1.2, 1.0, 1e80)
        errors = []
        for jet in (dt.fd_jet, _fd_jet_per_node):
            with pytest.raises(OverflowError) as info:
                jet(fld, coords, 4)
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        # a coordinate that no stencil varies may be as large
        coords = (0.3, 0.1, 0.0, 1e300, 1.2, 1.0, 1.0)
        jet = dt.fd_jet(fld, coords, 4, active=(0, 4))
        assert jet.c.tobytes() == _fd_jet_per_node(fld, coords, 4, active=(0, 4)).c.tobytes()

    def test_fallback_calls_each_distinct_node_once(self):
        # after the batched call that fails, the field is called once per
        # distinct node of the plan, on Python floats
        calls = []

        def fld(*args):
            calls.append(args)
            return math.exp(float(args[0])) * args[4] ** 2 * args[5]

        p = (0.3, 0.1, 0.0, 0.0, 1.2, 1.0, 1.0)
        jet = dt.fd_jet(fld, p, 4)
        arrays = [i for i, args in enumerate(calls) if any(type(a) is not float for a in args)]
        plan = dt._fd_plan(dt._fd_positions(4, frozenset(range(dt.NVARS)), 0))
        assert len(calls) - arrays[-1] - 1 == plan.codes.size
        assert all(type(a) is float for args in calls[arrays[-1] + 1 :] for a in args)
        assert jet.c.tobytes() == _fd_jet_per_node(fld, p, 4).c.tobytes()
