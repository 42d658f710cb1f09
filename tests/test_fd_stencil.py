"""The finite-difference path evaluates each stencil with one array call of the
field; these tests hold it to the per-node definition bit for bit.

``_fd_partial_per_node`` is the reference: the node-by-node loop that
``fd_partial`` replaced, kept here verbatim in its arithmetic.  Coefficients
are compared as bytes, and reports and error strings as exact equality.
"""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jetfinsler import difftools as dt
from jetfinsler.cli import parse_scenario, run_scenario
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric
from jetfinsler.metric_engine import finsler_F_squared_field

from fields_corpus import CORPUS


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
        nodes, weights = dt._fd_stencil(m)
        columns.append(
            (v, [(w, coords[v] + n * step) for n, w in zip(nodes, weights) if w != 0.0])
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

    def test_in_place_update_before_falling_back(self):
        def fld(t, x1, x2, x3, y1, y2, y3):
            t += 1.0  # rebinds a float, updates an array in place
            return math.exp(float(t)) * y1

        p = (0.3, 0.0, 0.0, 0.0, 1.2, 1.0, 1.0)
        for spec in (("t",), ("t", "y1")):
            assert _same_bytes(dt.fd_partial(fld, p, spec), _fd_partial_per_node(fld, p, spec))


def _report(doc, monkeypatch=None, per_node=False):
    if per_node:
        monkeypatch.setattr(dt, "fd_partial", _fd_partial_per_node)
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


class TestErrorParity:
    """A stencil that leaves the domain gives the per-node error string."""

    CASES = {
        # G111 > 0 at the point, <= 0 at nodes of its y1 stencils
        "g111_crossing": (
            _fd_doc(
                "t**2 + 1",
                {"entries": {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}},
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
