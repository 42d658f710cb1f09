"""fd mode's jets come from contour integrals (``difftools.fd_jet``): one
call of the field on a complex array of nodes on circles around the point,
one circle per direction.  These tests hold the jet to a node-by-node
reference of that definition, to the exact jet, and to its rules for the
radius, the unsampled coefficients and the domain.  (The file is named for
the finite-difference stencils that fd mode used before the contour jet.)

``_fd_jet_per_node`` is the reference: the field on one complex node at a
time, each direction's trapezoidal sums written out, and a least-squares
solve per degree, none of it shared with ``fd_jet``.  The two agree to
rounding in the scaled coefficients c_a r^a, relative to the field's value
at the point."""

import cmath
import itertools
import json
import math
import tracemalloc
import types
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jetfinsler import difftools as dt
from jetfinsler.cli import (
    DEFAULT_TOLERANCES,
    load_scenario,
    parse_scenario,
    run_scenario,
    sample_points,
)
from jetfinsler.connection_engine import NonlinearConnection, PointContext
from jetfinsler.errors import DomainError
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric
from jetfinsler.metric_engine import f2_slots, finsler_F_squared_field, h11_slots

from fields_corpus import CORPUS

DATA = Path(__file__).parent / "data"
FD_REL = DEFAULT_TOLERANCES["fd_rel"]

# The contour jet's definition: nodes per circle, the radius factor before
# halving, the most halvings, and the share of |f(p)| a node value may be
# off f(p).
NODES, RHO, HALVINGS, IMAGE = 32, 0.25, 20, 0.5


def _radii(coords, slots, order, halvings):
    return [RHO / 2**halvings * max(abs(coords[v]), 0.1) / order for v in slots]


def _fd_jet_per_node(field, point, order, active=None):
    """The contour jet and the halvings of its radius, one node at a time."""
    coords = list(dt._coords_of(point))
    c = np.zeros(dt.NCOEF[order])
    c[0] = value = float(field(*coords))
    slots = sorted(set(range(dt.NVARS) if active is None else active))
    if order == 0 or not slots:
        return dt.Taylor(c, order), None
    dirs = [i for i in itertools.product(range(order + 1), repeat=len(slots)) if sum(i) == order]
    circle = [np.exp(2j * math.pi * k / NODES) for k in range(NODES)]
    for halvings in range(HALVINGS + 1):
        radius = _radii(coords, slots, order, halvings)
        try:
            g = [[_at_node(field, coords, slots, radius, i, z) for z in circle] for i in dirs]
        except DomainError:
            continue
        near = (lambda v: abs(v - value) <= IMAGE * abs(value)) if value else cmath.isfinite
        if all(near(v) for row in g for v in row):
            break
    else:
        raise DomainError("no contour radius passes")
    for d in range(1, order + 1):
        b = [sum(v * z**-d for v, z in zip(row, circle)).real / NODES for row in g]
        exps = [a for a in itertools.product(range(d + 1), repeat=len(slots)) if sum(a) == d]
        vander = [[math.prod(k**a for k, a in zip(i, e)) for e in exps] for i in dirs]
        x = np.linalg.lstsq(np.array(vander, dtype=float), np.array(b), rcond=None)[0]
        for e, xe in zip(exps, x.tolist()):
            full = [0] * dt.NVARS
            for v, a in zip(slots, e):
                full[v] = a
            c[dt._POS[tuple(full)]] = xe / math.prod(r**a for r, a in zip(radius, e))
    return dt.Taylor(c, order), halvings


def _at_node(field, coords, slots, radius, direction, z):
    args = list(coords)
    for v, r, k in zip(slots, radius, direction):
        args[v] = np.array([coords[v] + k * r * z])  # one node, as an array
    return complex(np.ravel(field(*args))[0])


def _counting(field, calls):
    def counted(*args):
        calls.append(np.broadcast(*args).shape)
        return field(*args)

    return counted


def _assert_matches_per_node(field, point, order=4, active=None):
    """``fd_jet`` takes the reference's radius, in one array call, and its
    scaled coefficients c_a r^a agree to 1e-14 of the field's value."""
    ref, halvings = _fd_jet_per_node(field, point, order, active)
    calls = []
    got = dt.fd_jet(_counting(field, calls), point, order, active)
    assert len(calls) == halvings + 2  # the point, then one call per radius
    coords = dt._coords_of(point)
    slots = range(dt.NVARS) if active is None else active
    radius = dict(zip(slots, _radii(coords, slots, order, halvings)))  # the rest sample nothing
    scaled = [
        math.prod(radius.get(v, 1.0) ** a for v, a in enumerate(e))
        for e in dt._EXPONENTS[: dt.NCOEF[order]]
    ]
    dev = np.abs(got.c - ref.c) * scaled
    assert dev.max() <= 1e-14 * abs(ref.c[0]), dev.max()
    return got


def _same_bytes(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


GENERIC = CubicForm.from_entries(
    {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}
)


POINTS = [
    JetPoint.of(0.35, (0.1, -0.2, 0.3), (0.7, 1.9, 3.1)),
    JetPoint.of(-0.74, (0.9, 0.24, -0.26), (2.65, 3.38, 1.52)),
    JetPoint.of(-0.72, (0.58, 0.34, 0.02), (4.12, 2.84, 4.91)),
    JetPoint.of(-0.59, (0.11, -0.03, -0.29), (3.04, 1.33, 4.05)),
    JetPoint.of(0.6, (-0.3, 0.5, 0.8), (1.2, 0.4, 2.5)),
]


class TestAgainstPerNode:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_corpus_jets(self, entry):
        # the whole order-4 jet on all seven slots
        _assert_matches_per_node(entry.field, entry.points[0])

    @pytest.mark.parametrize("metric", ["1", "exp(2*t)", "t**2 + 1"])
    def test_f_squared_jet(self, metric):
        fld = finsler_F_squared_field(CubicForm.berwald_moor(), TemporalMetric(metric))
        p = JetPoint.of(0.35, (0.1, -0.2, 0.3), (0.7, 1.9, 3.1))
        _assert_matches_per_node(fld, p)

    @given(
        t=st.floats(-1.0, 1.0),
        x=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
        y=st.tuples(*[st.floats(0.2, 5.0)] * 3),
        generic=st.booleans(),
        metric=st.sampled_from(["1", "exp(2*t)", "t**2 + 1"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_f_squared_partials_over_points(self, t, x, y, generic, metric):
        # the engine's F^2 jet, on its slots
        cubic = GENERIC if generic else CubicForm.berwald_moor()
        tm = TemporalMetric(metric)
        fld = finsler_F_squared_field(cubic, tm)
        p = JetPoint.of(t, x, y)
        active = f2_slots(cubic, tm)
        if cubic.g111(p.x, p.y) <= 0.0:
            with pytest.raises(DomainError, match="non-positive"):
                dt.fd_jet(fld, p, 4, active)
            return
        _assert_matches_per_node(fld, p, active=active)


def _own_slots(jet) -> list[int]:
    """The slots of the nonzero coefficients of an exact jet."""
    return [v for v in range(dt.NVARS) if any(c and e[v] for c, e in zip(jet.c, dt._EXPONENTS))]


class TestAccuracy:
    @pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
    def test_corpus_against_exact(self, entry):
        # on the slots the field depends on, as the engine passes them
        for p in entry.points:
            exact = dt.jet_eval(entry.field, p, 4)
            got = dt.fd_jet(entry.field, p, 4, active=_own_slots(exact))
            dev = np.abs(got.c - exact.c) / np.maximum(np.abs(exact.c), 1.0)
            assert dev.max() <= 1e-6, (p, dev.max())

    @pytest.mark.parametrize("generic", [False, True], ids=["berwald_moor", "generic"])
    def test_f_squared_against_exact(self, generic):
        cubic = GENERIC if generic else CubicForm.berwald_moor()
        tm = TemporalMetric("exp(2*t)")
        fld = finsler_F_squared_field(cubic, tm)
        for p in POINTS:
            exact = dt.jet_eval(fld, p, 4)
            got = dt.fd_jet(fld, p, 4, active=f2_slots(cubic, tm))
            dev = np.abs(got.c - exact.c) / np.maximum(np.abs(exact.c), 1.0)
            assert dev.max() <= 1e-6, (p, dev.max())


class TestContourRules:
    def test_halving_on_fast_fields(self):
        # exp(k x1) changes by a factor e^(k rho |x1|) over the widest
        # circle: k = 0.5 passes at rho = 0.25, k = 40 needs a smaller rho
        p = (0.0, 0.3, 0.0, 0.0, 1.0, 1.0, 1.0)
        for k, halvings in ((0.5, 0), (40.0, 3)):
            fld = lambda t, x1, x2, x3, y1, y2, y3: dt.exp(k * x1)
            calls = []
            got = dt.fd_jet(_counting(fld, calls), p, 4, active=(1,))
            assert calls == [()] + [(1, NODES)] * (halvings + 1), k
            exact = dt.jet_eval(fld, p, 4)
            dev = np.abs(got.c - exact.c) / np.abs(exact.c).max()
            assert dev.max() <= 1e-9, (k, dev.max())

    def test_domain_error_nodes_shrink_the_radius(self):
        # exp(800 t) is finite at t = 0.85 and overflows on the wider circles
        # of t, where h11_eval raises DomainError: the radius halves
        tm = TemporalMetric("exp(800*t)")
        fld = lambda t, *rest: tm.h11_eval(t)
        calls = []
        got = dt.fd_jet(_counting(fld, calls), (0.85, 0, 0, 0, 1, 1, 1), 4, active=(0,))
        assert len(calls) > 3
        exact = tm.h11_jet(0.85, 4)
        t_only = exact.c != 0.0
        assert not got.c[~t_only].any()
        assert np.abs(got.c[t_only] / exact.c[t_only] - 1.0).max() <= 1e-9

    def test_domain_error_when_no_radius_passes(self):
        # exp(1e12 x1) changes by a factor e^6000 over the x1 circle even
        # after 20 halvings
        calls = []
        fld = _counting(lambda t, x1, x2, x3, y1, y2, y3: dt.exp(1e12 * x1), calls)
        with pytest.raises(DomainError, match="no contour radius"):
            dt.fd_jet(fld, (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0), 4)
        assert len(calls) == 1 + HALVINGS + 1

    def test_field_vanishing_at_the_point(self):
        # with f(p) = 0 the nodes need only be finite: the first radius
        # passes, and the jet is the exact one
        fld = lambda t, x1, x2, x3, y1, y2, y3: x1 * y1 + dt.sin(x2) * y2**2
        p = (0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        calls = []
        got = dt.fd_jet(_counting(fld, calls), p, 4)
        assert len(calls) == 2
        exact = dt.jet_eval(fld, p, 4)
        assert np.abs(got.c - exact.c).max() <= 1e-9
        _, halvings = _fd_jet_per_node(fld, p, 4)
        assert halvings == 0

    def test_bitwise_determinism(self):
        fld = finsler_F_squared_field(GENERIC, TemporalMetric("t**2 + 1"))
        first = dt.fd_jet(fld, POINTS[1], 4)
        assert dt.fd_jet(fld, POINTS[1], 4).c.tobytes() == first.c.tobytes()
        dt._contour_maps.cache_clear()  # the maps are rebuilt to the same bits
        assert dt.fd_jet(fld, POINTS[1], 4).c.tobytes() == first.c.tobytes()


class TestDomainEdge:
    """Near G111 = 0 the circles shrink until they stay inside the domain:
    fd mode errors only where G111 <= 0 at the point, as exact mode does."""

    @given(
        # h11 = t: the t circles of rho = 0.25 reach t <= 0
        t=st.floats(0.001, 0.005),
        x23=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        y=st.tuples(*[st.floats(0.2, 5.0)] * 3),
        share=st.floats(-0.05, 0.6),
        metric=st.sampled_from(["t**2 + 1", "t"]),
        order=st.integers(2, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_jet_near_g111_zero(self, t, x23, y, share, metric, order):
        # G111 is affine in x1: take the x1 at which it is ``share`` y1 y2 y3
        at0 = GENERIC.g111((0.0, *x23), y)
        slope = GENERIC.g111((1.0, *x23), y) - at0
        assume(abs(slope) > 1e-3)
        x1 = (share * y[0] * y[1] * y[2] - at0) / slope
        assume(abs(x1) <= 10.0)
        fld = finsler_F_squared_field(GENERIC, TemporalMetric(metric))
        p = (t, x1, *x23, *y)
        g111 = GENERIC.g111((x1, *x23), y)
        if g111 <= 0.0:
            with pytest.raises(DomainError, match="non-positive"):
                dt.fd_jet(fld, p, order)
            return
        calls = []
        if g111 < 1e-4 * y[0] * y[1] * y[2]:
            # the circles may need more than 20 halvings this near the edge
            try:
                jet = dt.fd_jet(_counting(fld, calls), p, order)
            except DomainError as exc:
                assert str(exc).startswith("no contour radius")
                return
        else:
            jet = dt.fd_jet(_counting(fld, calls), p, order)
        assert np.isfinite(jet.c).all()
        assert _same_bytes(jet.c[0], fld(*p))
        # every coefficient against the exact one, in c_a r^a for the radii r
        # that passed: within 1e-6 f(p), and within fd_rel of c_a where
        # c_a r^a is at least 1e-3 f(p) (measured over 14,500 points of this
        # distribution: at most 9.8e-9 and 5.6e-6)
        exps = dt._EXPONENT_ARRAY[: dt.NCOEF[order]]
        exact = dt.jet_eval(fld, p, order)
        radius = np.array(_radii(p, range(dt.NVARS), order, len(calls) - 2))
        scale = np.prod(radius**exps, axis=1) / exact.c[0]
        assert (np.abs(jet.c - exact.c) * scale).max() <= 1e-6
        resolved = np.abs(exact.c) * scale >= 1e-3
        assert (np.abs(jet.c[resolved] / exact.c[resolved] - 1.0) <= FD_REL).all()


class TestNodeArrays:
    """The helpers and h11 on fd mode's complex node arrays."""

    def test_helpers_are_numpy_functions(self):
        rng = np.random.default_rng(6)
        z = rng.uniform(0.1, 30.0, 500) + 1j * rng.uniform(-1.0, 1.0, 500)
        for helper, ref in (
            (dt.exp, np.exp),
            (dt.log, np.log),
            (dt.sin, np.sin),
            (dt.cos, np.cos),
            (dt.sqrt, lambda u: np.power(u, 0.5)),  # not u**0.5, which is np.sqrt
            (lambda u: dt.powf(u, 2.0 / 3.0), lambda u: np.power(u, 2.0 / 3.0)),
        ):
            assert helper(z).tobytes() == ref(z).tobytes()

    def test_h11_array_finiteness(self):
        tm = TemporalMetric("exp(800*t)")
        z = np.array([0.5 + 0.1j, 0.8 - 0.2j])
        assert tm.h11_eval(z).tobytes() == np.exp(800 * z).tobytes()
        with pytest.raises(DomainError, match="is not finite"), np.errstate(over="ignore"):
            tm.h11_eval(np.array([0.5, 0.9 + 0.1j]))

    def test_overflow_on_floats_raises(self):
        # the point is evaluated on Python floats, where 2000.0**100 raises
        # OverflowError as the field does; on the complex nodes a power that
        # overflows is not finite, which halves the radius: 1000.0**100 is
        # finite, and its circles shrink until their values are too
        fld = lambda t, x1, x2, x3, y1, y2, y3: y1**100
        p = (0.0, 0.0, 0.0, 0.0, 2000.0, 1.0, 1.0)
        with pytest.raises(OverflowError) as ref:
            fld(*p)
        with pytest.raises(OverflowError) as got:
            dt.fd_jet(fld, p, 4)
        assert str(got.value) == str(ref.value)
        p = (0.0, 0.0, 0.0, 0.0, 1000.0, 1.0, 1.0)
        assert math.isfinite(fld(*p))
        calls = []
        dt.fd_jet(_counting(fld, calls), p, 4, active=(4,))
        assert len(calls) > 2  # the point, then more than one radius
        with np.errstate(over="ignore", invalid="ignore"):  # the reference's nodes
            jet = _assert_matches_per_node(fld, p, active=(4,))
        exact = dt.jet_eval(fld, p, 4)
        assert np.abs(jet.c / np.where(exact.c, exact.c, 1.0) - (exact.c != 0)).max() <= 1e-9


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
            for got, fld, kept in ((ctx.f2_ser, f2, slots), (ctx.h_ser, h11, slots[:-3])):
                exact = dt.jet_eval(fld, p, 4)
                for pos in range(dt.NCOEF[4]):
                    if _touches(pos, kept):
                        assert _same_bytes(got.c[pos], 0.0), (p, pos)
                        assert exact.c[pos] == 0.0, (p, pos)
                    else:
                        dev = abs(got.c[pos] - exact.c[pos])
                        assert dev <= FD_REL * max(1.0, abs(exact.c[pos])), (p, pos)

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


def _report(doc):
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
    """fd mode errors at a point where exact mode does, with the same error.
    The cases are points at which the finite-difference stencils that fd
    mode used before the contour jet left the domain."""

    CASES = {
        # G111 > 0 at the point, <= 0 on a y1 stencil
        "g111_crossing": (
            _fd_doc(
                "t**2 + 1",
                GENERIC_DOC,
                {"t": 0.2, "x": [-0.9, 0.4, 0.3], "y": [1.0, 0.5, 0.6]},
            ),
            None,
        ),
        # h11 = t > 0 at t = 0.01, negative on a t stencil
        "h11_in_t_stencil": (
            _fd_doc("t", "berwald_moor", {"t": 0.01, "x": [0, 0, 0], "y": [1, 2, 3]}),
            None,
        ),
        # exp(1000 t) is finite at the point; its series overflows
        "exp_overflow": (
            _fd_doc("exp(1000*t)", "berwald_moor", {"t": 0.7, "x": [0, 0, 0], "y": [1, 2, 3]}),
            "DomainError: the reciprocal series of ",
        ),
        # h11 = 1/(0.002 - t) is finite at t = 0, with its pole on a t stencil
        "h11_pole": (
            _fd_doc("1/(0.002 - t)", "berwald_moor", {"t": 0.0, "x": [0, 0, 0], "y": [1, 2, 3]}),
            None,
        ),
    }

    def test_g111_positive_at_the_point(self):
        point = self.CASES["g111_crossing"][0]["points"]["explicit"][0]
        assert 0.0 < GENERIC.g111(point["x"], point["y"]) < 0.02

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_string(self, case):
        doc, expected = self.CASES[case]
        errors = []
        for mode in ("fd", "exact"):
            report, ok = _report({**doc, "derivative_mode": mode})
            (point,) = report["points"]
            errors.append(point["error"])
            assert report["summary"]["points_errored"] == (expected is not None)
            assert ok == (expected is None)
        if expected is None:
            assert errors == [None, None]
        else:
            assert all(e.startswith(expected) for e in errors), errors

    @pytest.mark.parametrize(
        "cubic", ["berwald_moor", GENERIC_DOC], ids=["berwald_moor", "generic"]
    )
    def test_signed_zero_points(self, cubic):
        # points with a -0.0 coordinate (x1, then t) give the records of the
        # same points with +0.0, apart from the coordinates themselves: the
        # nodes c + i r z are the same for both signs
        records = {}
        for zero in (-0.0, 0.0):
            doc = _fd_doc("t**2 + 1", cubic, None)
            doc["points"]["explicit"] = [
                {"t": 0.3, "x": [zero, 0.4, 0.3], "y": [1.0, 1.5, 0.6]},
                {"t": zero, "x": [0.2, -0.4, 0.3], "y": [1.0, 1.5, 0.6]},
            ]
            doc["outputs"] = ["all"]
            first, second = sample_points(parse_scenario(doc))
            assert math.copysign(1.0, first.x[0]) == math.copysign(1.0, second.t) == math.copysign(1.0, zero)
            report, ok = _report(doc)
            assert ok and report["summary"]["points_errored"] == 0
            records[zero] = [{k: v for k, v in r.items() if k != "point"} for r in report["points"]]
        assert json.dumps(records[-0.0]) == json.dumps(records[0.0])


F2_BM = finsler_F_squared_field(CubicForm.berwald_moor(), TemporalMetric("exp(2*t)"))

_PI = Decimal("3.14159265358979323846264338327950288419716939937510")


def _exact_unit(turns: Fraction) -> complex:
    """exp(2 pi i turns), each part rounded once from 40 digits."""
    with localcontext() as ctx:
        ctx.prec = 40
        turns %= 1  # an angle in [0, 2 pi), where 80 terms converge
        x = 2 * _PI * turns.numerator / turns.denominator
        cos, sin, term = Decimal(0), Decimal(0), Decimal(1)
        for n in range(80):  # term = x^n / n!
            if n % 2:
                sin += term if n % 4 == 1 else -term
            else:
                cos += term if n % 4 == 0 else -term
            term = term * x / (n + 1)
    return complex(float(cos), float(sin))


def _exact_solve(a, b):
    """a^-1 b by Gauss-Jordan elimination, for a square matrix a of
    Fractions or ints and b with as many rows."""
    n = len(a)
    rows = [[Fraction(v) for v in r] + [Fraction(v) for v in rb] for r, rb in zip(a, b)]
    for col in range(n):
        piv = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        nonzero = [(j, w) for j, w in enumerate(rows[col]) if w]
        for r in range(n):
            if r != col and rows[r][col]:
                f, row = rows[r][col], rows[r]
                for j, w in nonzero:
                    row[j] -= f * w
    return [r[n:] for r in rows]


class TestStencilTable:
    """The contour jet's table for order m: the trapezoidal weights z^-d / N
    at the N nodes of the unit circle, and per degree d the map from the
    directional coefficients to c_a r^a, the inverse of V[i, a] = i^a for
    d = m and the least-squares one, (V^T V)^-1 V^T, below.  Both are the
    exact ones, in Decimal and Fraction arithmetic, up to rounding: that of
    the node angles and of the m complex products of a weight, and that of
    a float solve of V, whose condition number here is at most 489."""

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_weights_are_the_exact_ones_rounded(self, m):
        eps = np.finfo(float).eps
        for slots in ((0, 4, 5, 6), (2,)):  # the Berwald-Moor F^2's, one slot
            _, exps, dirs, blocks, circle, dft = dt._contour_maps(m, slots)
            nodes = [_exact_unit(Fraction(k, NODES)) for k in range(NODES)]
            assert np.abs(circle - nodes).max() <= 4 * eps
            weights = [[_exact_unit(Fraction(-k * d, NODES)) / NODES for d in range(m + 1)]
                       for k in range(NODES)]
            assert dft.shape == (NODES, m + 1)
            assert np.abs(dft - weights).max() <= 4 * m * eps / NODES
            assert [block.stop - block.start for block, _ in blocks] == [
                math.comb(d + len(slots) - 1, d) for d in range(1, m + 1)
            ]
            for d, (block, got) in enumerate(blocks, start=1):
                v = [[math.prod(int(k) ** int(a) for k, a in zip(i, e))
                      for e in exps[block]] for i in dirs]
                vt = [list(col) for col in zip(*v)]
                if d == m:
                    exact = _exact_solve(v, np.eye(len(v), dtype=int).tolist())
                else:
                    vtv = [[sum(x * y for x, y in zip(r, c)) for c in vt] for r in vt]
                    exact = _exact_solve(vtv, vt)
                exact = np.array(exact, dtype=float)
                assert got.shape == exact.shape
                assert np.abs(got - exact).max() <= 64 * eps * np.abs(exact).max(), (m, d)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_square_inverse_on_six_and_seven_slots(self, m):
        # the inverse for d = m is LAPACK's below 100 rows (35 for the
        # Berwald-Moor F^2, above) and ``_square_inverse``'s from there: 126
        # rows on six slots, 210 on seven (condition number 431 and 489)
        eps = np.finfo(float).eps
        for slots in ((0, 1, 2, 4, 5, 6), tuple(range(dt.NVARS))):
            _, exps, dirs, blocks, _, _ = dt._contour_maps(m, slots)
            block, got = blocks[-1]
            v = [[math.prod(int(k) ** int(a) for k, a in zip(i, e)) for e in exps[block]]
                 for i in dirs]
            exact = np.array(_exact_solve(v, np.eye(len(v), dtype=int).tolist()), dtype=float)
            assert np.abs(got - exact).max() <= 64 * eps * np.abs(exact).max(), slots


class TestBatchedJet:
    """``fd_jet`` evaluates all nodes of one radius in one call."""

    def test_distinct_nodes_in_few_calls(self):
        # the point, then the 35 directions x 32 nodes on the F^2 slots
        # t, y1, y2, y3, or the 210 x 32 on all seven
        for active, directions in (((0, 4, 5, 6), 35), (None, 210)):
            calls = []
            dt.fd_jet(_counting(F2_BM, calls), POINTS[0], 4, active)
            assert calls == [(), (directions, NODES)]

    def test_plan_built_once(self):
        # the directions and maps are built once per order and slot set
        dt._contour_maps.cache_clear()
        dt.fd_jet(F2_BM, POINTS[0], 4)
        before = dt._contour_maps.cache_info()
        dt.fd_jet(F2_BM, POINTS[1], 4)
        after = dt._contour_maps.cache_info()
        assert (after.misses, after.hits) == (before.misses, before.hits + 1)

    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_positions_match_definition(self, order):
        # every coefficient of this field is nonzero, so the jet's nonzero
        # ones are those it samples; the others are exact zeros
        def fld(t, x1, x2, x3, y1, y2, y3):
            return dt.exp(0.1 * t + 0.2 * x1 + 0.3 * x2 + 0.4 * x3 + 0.5 * y1 + 0.6 * y2 + 0.7 * y3)

        for active in ((), (0,), (4, 5, 6), (0, 2, 5), tuple(range(dt.NVARS))):
            want = [0] + [
                pos
                for pos, e in enumerate(dt._EXPONENTS[1 : dt.NCOEF[order]], start=1)
                if all(v in active for v, m in enumerate(e) if m)
            ]
            jet = dt.fd_jet(fld, POINTS[0], order, active)
            assert np.flatnonzero(jet.c).tolist() == want
            unsampled = np.setdiff1d(np.arange(dt.NCOEF[order]), want)
            assert jet.c[unsampled].tobytes() == bytes(8 * unsampled.size)  # +0.0

    def test_cold_jet_memory(self):
        # the maps of all seven slots are built in this call; they and the
        # node arrays stay small
        dt._contour_maps.cache_clear()
        tracemalloc.start()
        try:
            dt.fd_jet(F2_BM, POINTS[2], 4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000

    @pytest.mark.parametrize("slot", [0, 1], ids=["t", "x1"])
    def test_signed_zero_coordinate(self, slot):
        # a -0.0 that the circles vary reaches the field as -0.0 at the point
        # and as -0.0 + i_v r_v z at the nodes, which equal those of +0.0 in
        # value: the generic F^2 gives the reference's jet, and that of +0.0
        # bit for bit
        fld = finsler_F_squared_field(GENERIC, TemporalMetric("t**2 + 1"))
        seen = []

        def recording(*args):
            seen.append(args[slot])
            return fld(*args)

        coords = [0.3, 0.2, -0.4, 0.3, 1.0, 1.5, 0.6]
        coords[slot] = -0.0
        jet = dt.fd_jet(recording, coords, 4)
        assert type(seen[0]) is float and math.copysign(1.0, seen[0]) == -1.0
        assert seen[1].dtype == complex and (seen[1] != 0.0).any()
        _assert_matches_per_node(fld, coords)
        coords[slot] = 0.0
        assert jet.c.tobytes() == dt.fd_jet(fld, coords, 4).c.tobytes()

    def test_signed_zero_point_stays_batched(self):
        # a -0.0 at t and at x1: one array call, and the jet of +0.0
        calls = []
        coords = (-0.0, -0.0, 0.4, 0.3, 1.0, 1.5, 0.6)
        jet = dt.fd_jet(_counting(F2_BM, calls), coords, 4)
        assert len(calls) == 2
        ref = dt.fd_jet(F2_BM, (0.0, 0.0, *coords[2:]), 4)
        assert jet.c.tobytes() == ref.c.tobytes()

    def test_unvaried_signed_zero_coordinate(self):
        # a coordinate outside ``active`` is the point's own at every node,
        # -0.0 included: it reaches the field as a float, not an array
        arrays = []

        def fld(t, x1, x2, x3, y1, y2, y3):
            arrays.append([isinstance(a, np.ndarray) for a in (t, x1, x2, x3, y1, y2, y3)])
            return (2.0 + np.copysign(1.0, x1)) * dt.exp(t) * y1

        coords = (0.3, -0.0, 0.2, 0.1, 1.0, 1.5, 0.6)
        jet = _assert_matches_per_node(fld, coords, active=(0,))
        assert arrays[-1] == [True] + [False] * 6
        assert jet.c[0] == 1.0 * math.exp(0.3)

    def test_field_failing_on_arrays(self):
        # float() of a complex t array raises: the jet raises it too
        fld = lambda t, x1, x2, x3, y1, y2, y3: math.exp(float(t)) * y1**2 * y2
        with pytest.raises(TypeError):
            dt.fd_jet(fld, (0.3, 0.1, 0.0, 0.0, 1.2, 1.0, 1.0), 4)

    def test_step_power_overflow(self):
        # at y3 = 1e80 the order-4 radius of y3 is about 6e78, whose 4th
        # power leaves the float range: the y3^4 coefficient, 1.2e-250, is
        # still the exact one, and the others agree with the exact jet in
        # c_a r^a (the field multiplies left to right, so its values stay finite)
        fld = lambda t, x1, x2, x3, y1, y2, y3: y1 * (1e-250 * y3 * y3 * y3 * y3)
        coords = (0.3, 0.1, 0.0, 0.0, 1.2, 1.0, 1e80)
        calls = []
        jet = dt.fd_jet(_counting(fld, calls), coords, 4)
        exact = dt.jet_eval(fld, coords, 4)
        radius = _radii(coords, range(dt.NVARS), 4, len(calls) - 2)
        log_scaled = dt._EXPONENT_ARRAY[: dt.NCOEF[4]] @ np.log(radius)
        over = log_scaled > np.log(np.finfo(float).max)
        assert np.flatnonzero(over).tolist() == [dt._POS[(0, 0, 0, 0, 0, 0, 4)]]
        assert abs(jet.c[over][0] / exact.c[over][0] - 1.0) <= 1e-9
        dev = np.abs(jet.c - exact.c)[~over] * np.exp(log_scaled[~over])
        assert dev.max() <= 1e-14 * exact.c[0], dev.max()
        # a coordinate that no circle varies may be as large
        fld = lambda t, x1, x2, x3, y1, y2, y3: y1 * y2 * y3**2
        _assert_matches_per_node(fld, (0.3, 0.1, 0.0, 1e300, 1.2, 1.0, 1.0), active=(0, 4))
