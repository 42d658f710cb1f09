import itertools
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jetfinsler import _backend
from jetfinsler import difftools as dt
from jetfinsler.errors import DomainError, OrderTooHigh
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric
from jetfinsler.metric_engine import finsler_F_squared_field

from fields_corpus import CORPUS
from helpers import central_difference


def test_partial_product_rule():
    f = lambda t, x1, x2, x3, y1, y2, y3: y1 * y2 * y3
    p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
    assert dt.partial(f, p, ("y1", "y2")) == 3.0


def test_partial_monomial_factorial():
    f = lambda t, x1, x2, x3, y1, y2, y3: t**4
    p = JetPoint.of(1.0, (0, 0, 0), (1, 1, 1))
    assert dt.partial(f, p, ("t",) * 4) == 24.0


def test_partial_power_rule_symmetric_point():
    f = lambda t, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 2.0 / 3.0)
    p = JetPoint.of(0.0, (0, 0, 0), (1.0, 1.0, 1.0))
    assert dt.partial(f, p, ("y1",)) == pytest.approx(2.0 / 3.0, abs=1e-15)


def test_jet_eval_linear_field():
    f = lambda t, x1, x2, x3, y1, y2, y3: y1 + y2
    table = dt.jet_eval(f, JetPoint.of(0.3, (1, 2, 3), (4, 5, 6)), 2)
    assert table.partial("y1") == 1.0
    assert table.partial("y2") == 1.0
    assert table.partial("y3") == 0.0
    for a in ("t", "x1", "y1", "y2", "y3"):
        for b in ("y1", "y2", "t"):
            assert table.partial(a, b) == 0.0


def test_jet_eval_exponential():
    f = lambda t, x1, x2, x3, y1, y2, y3: dt.exp(2.0 * t)
    table = dt.jet_eval(f, JetPoint.of(0.0, (0, 0, 0), (1, 1, 1)), 2)
    assert table.value == pytest.approx(1.0, abs=1e-15)
    assert table.partial("t") == pytest.approx(2.0, abs=1e-15)
    assert table.partial("t", "t") == pytest.approx(4.0, abs=1e-15)


def test_jet_eval_gradient_matches_cubic_ratio():
    # dG111/dy_i must equal G111/y_i for the product field.
    f = lambda t, x1, x2, x3, y1, y2, y3: y1 * y2 * y3
    p = JetPoint.of(0.0, (0, 0, 0), (1.0, 2.0, 3.0))
    table = dt.jet_eval(f, p, 1)
    assert [table.partial(f"y{i}") for i in (1, 2, 3)] == [6.0, 3.0, 2.0]


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_exact_to_order_four(entry):
    specs = [e for e in dt._EXPONENTS if sum(e) >= 1]
    for coords in entry.points:
        for exps in specs:
            spec = dt.PartialSpec.coerce(
                [v for v, m in enumerate(exps) for _ in range(m)]
            )
            got = dt.partial(entry.field, coords, spec)
            want = entry.expected(exps, coords)
            assert got == pytest.approx(want, abs=1e-12 * max(1.0, abs(want))), (
                entry.name,
                exps,
                coords,
            )


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_corpus_fd_concordance_orders_one_two(entry):
    specs = [e for e in dt._EXPONENTS if 1 <= sum(e) <= 2]
    for coords in entry.points:
        for exps in specs:
            spec = dt.PartialSpec.coerce(
                [v for v, m in enumerate(exps) for _ in range(m)]
            )
            exact = dt.partial(entry.field, coords, spec)
            fd = central_difference(entry.field, coords, spec, step=1e-5)
            assert fd == pytest.approx(exact, abs=1e-5 * max(1.0, abs(exact)))


@given(
    data=st.data(),
    y=st.tuples(*[st.floats(0.3, 4.0) for _ in range(3)]),
    t=st.floats(-1.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_partial_commutes_bit_exactly(data, y, t):
    f = lambda t_, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 2.0 / 3.0) * dt.exp(
        t_
    )
    names = data.draw(
        st.lists(st.sampled_from(dt.COORD_NAMES), min_size=1, max_size=4)
    )
    perm = names[:]
    random.Random(data.draw(st.integers(0, 10**6))).shuffle(perm)
    p = JetPoint.of(t, (0.1, 0.2, 0.3), y)
    assert dt.partial(f, p, names) == dt.partial(f, p, perm)


@given(y=st.tuples(*[st.floats(0.25, 4.0) for _ in range(3)]))
@settings(max_examples=60, deadline=None)
def test_euler_homogeneity_probe(y):
    fields = [
        (lambda t, x1, x2, x3, y1, y2, y3: y1 * y2 * y3, 3.0),
        (lambda t, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 2.0 / 3.0), 2.0),
        (lambda t, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 1.0 / 3.0), 1.0),
        (lambda t, x1, x2, x3, y1, y2, y3: 1.0 / (y1 * y2 * y3), -3.0),
        (
            lambda t, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 2.0 / 3.0)
            / (y1 * y2),
            0.0,
        ),
    ]
    p = JetPoint.of(0.0, (0, 0, 0), y)
    for field, degree in fields:
        value = field(*p.coords())
        total = sum(
            p.y[m] * dt.partial(field, p, (f"y{m + 1}",)) for m in range(3)
        )
        assert total == pytest.approx(degree * value, abs=1e-12 * max(1.0, abs(value)))


def test_jet_eval_matches_repeated_partial_exactly():
    f = lambda t, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 2.0 / 3.0) * dt.exp(
        2.0 * t
    ) + dt.sin(x2) * y1
    p = JetPoint.of(0.4, (0.3, -0.2, 0.1), (0.7, 1.3, 2.9))
    table = dt.jet_eval(f, p, 4)
    for exps in dt._EXPONENTS:
        spec = dt.PartialSpec.coerce(
            [v for v, m in enumerate(exps) for _ in range(m)]
        )
        assert table.partial(spec) == dt.partial(f, p, spec)


def test_jet_partial_reads_scaled_coefficients():
    f = lambda t, x1, x2, x3, y1, y2, y3: dt.exp(t * x1) * y1 / (y2 + x3 * y3)
    p = JetPoint.of(0.3, (0.5, -1.0, 2.0), (1.5, 2.0, 0.7))
    jet = dt.jet_eval(f, p, 3)
    assert isinstance(jet, dt.Taylor) and jet.order == 3
    for pos, exps in enumerate(dt._EXPONENTS[: dt.NCOEF[3]]):
        spec = [v for v, m in enumerate(exps) for _ in range(m)]
        scale = math.prod(math.factorial(m) for m in exps)
        assert jet.partial(spec) == float(jet.c[pos] * scale)
    names = ("y2", "t", "y1")
    assert jet.partial(*names) == jet.partial(names) == jet.partial(5, 0, 4)
    assert jet.partial("x1") == dt.partial(f, p, "x1")
    with pytest.raises(OrderTooHigh):
        jet.partial("t", "t", "y1", "y1")


def test_partial_spec_canonicalizes_sorted():
    a = dt.PartialSpec.coerce(("y2", "t", "y1"))
    b = dt.PartialSpec.coerce(("y1", "y2", "t"))
    assert a == b
    assert a.indices == (0, 4, 5)
    assert a.exponents == (1, 0, 0, 0, 1, 1, 0)


def test_order_too_high():
    with pytest.raises(OrderTooHigh):
        dt.PartialSpec.coerce(("t",) * 5)
    with pytest.raises(OrderTooHigh):
        dt.jet_eval(lambda *c: c[0], (0,) * 7, 5)


def test_domain_errors():
    with pytest.raises(DomainError):
        dt.powf(-1.0, 0.5)
    f = lambda t, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 1.0 / 3.0)
    with pytest.raises(DomainError):
        dt.partial(f, JetPoint.of(0.0, (0, 0, 0), (-1.0, 1.0, 1.0)), ("y1",))
    with pytest.raises(DomainError):
        dt.log(0.0)
    with pytest.raises(DomainError):
        1.0 / dt.taylor_constant(0.0, 2)


@pytest.mark.parametrize("fn", [dt.sin, dt.cos], ids=["sin", "cos"])
@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_trig_of_an_infinite_value_is_a_domain_error(fn, value):
    # math.sin and math.cos raise ValueError there
    for u in (value, dt.taylor_variable("t", value, 2)):
        with pytest.raises(DomainError, match=f"{fn.__name__} of an infinite value"):
            fn(u)


def test_constant_field_has_zero_derivatives():
    f = lambda *coords: 7.5
    p = JetPoint.of(0.0, (0, 0, 0), (1, 1, 1))
    assert dt.partial(f, p, ("y1",)) == 0.0
    assert dt.jet_eval(f, p, 2).value == 7.5


def test_evaluation_is_deterministic():
    f = lambda t, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 2.0 / 3.0) / (
        1.0 + t * t
    )
    p = JetPoint.of(0.3, (0.1, 0.2, 0.3), (0.9, 1.7, 2.2))
    first = dt.jet_eval(f, p, 4)
    second = dt.jet_eval(f, p, 4)
    assert np.array_equal(first.c, second.c)


def test_fd_jet_tracks_exact_jet():
    f = lambda t, x1, x2, x3, y1, y2, y3: dt.powf(y1 * y2 * y3, 2.0 / 3.0) / dt.exp(
        2.0 * t
    )
    p = JetPoint.of(0.2, (0.1, -0.3, 0.4), (0.8, 1.9, 3.4))
    exact = dt.jet_eval(f, p, 4)
    fd = dt.fd_jet(f, p, 4)
    scale = np.maximum(np.abs(exact.c), 1.0)
    assert np.max(np.abs(exact.c - fd.c) / scale) < 1e-5


def test_fd_partial_matches_hand_value():
    f = lambda t, x1, x2, x3, y1, y2, y3: t**4
    got = dt.fd_jet(f, (1.0, 0, 0, 0, 1, 1, 1), 4).partial("t", "t", "t", "t")
    assert got == pytest.approx(24.0, rel=1e-6)


_COEFF = st.one_of(
    st.floats(-1e100, 1e100, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
)


@st.composite
def _stacks(draw, order):
    """1 to 3 series of ``order`` on a leading axis, one of them possibly with
    its higher slots zeroed (a constant series)."""
    stack = draw(
        hnp.arrays(float, (draw(st.integers(1, 3)), dt.NCOEF[order]), elements=_COEFF)
    )
    if draw(st.booleans()):
        stack[draw(st.integers(0, len(stack) - 1)), 1:] = 0.0
    return stack


@given(data=st.data(), order=st.integers(0, dt.MAX_ORDER))
@settings(max_examples=200, deadline=None)
def test_stacked_poly_mul_matches_taylor_product(data, order):
    a, b = data.draw(_stacks(order)), data.draw(_stacks(order))
    table = dt._MUL[order]
    outer = _backend.poly_mul(a[:, None], b, *table)  # (len(a), len(b), n)
    first = _backend.poly_mul(a[0], b, *table)  # one series against a stack
    last = _backend.poly_mul(a, b[-1], *table)  # a stack against one series
    assert outer.shape == (len(a), len(b), dt.NCOEF[order])
    for i, j in np.ndindex(len(a), len(b)):
        ref = (dt.Taylor(a[i], order) * dt.Taylor(b[j], order)).c
        assert outer[i, j].tobytes() == ref.tobytes()
        if i == 0:
            assert first[j].tobytes() == ref.tobytes()
        if j == len(b) - 1:
            assert last[i].tobytes() == ref.tobytes()
    if order < dt.MAX_ORDER:  # a higher-order factor is truncated to ``order``
        hi = data.draw(_stacks(order + 1))
        got = dt.mul_stacks(hi[:, None], b)
        for i, j in np.ndindex(len(hi), len(b)):
            ref = (dt.Taylor(hi[i], order + 1) * dt.Taylor(b[j], order)).c
            assert got[i, j].tobytes() == ref.tobytes()


def test_first_partials_match_deriv():
    f = lambda t, x1, x2, x3, y1, y2, y3: dt.exp(t * x1) * y1 / (y2 + x3 * y3)
    p = JetPoint.of(0.3, (0.5, -1.0, 2.0), (1.5, 2.0, 0.7))
    for order in (1, 2, 4):
        u = dt.jet_eval(f, p, order)
        stack = np.stack([u.c, -u.c])
        got = dt.first_partials(stack)
        assert got.shape == (2, dt.NVARS, dt.NCOEF[order - 1])
        for v in range(dt.NVARS):
            assert got[0, v].tobytes() == dt.deriv(u, v).c.tobytes()
            assert got[1, v].tobytes() == (-dt.deriv(u, v).c).tobytes()
            assert got[0, v, 0] == u.c[dt.D1_SLOTS[v]] * 1.0


def test_deriv_rejects_unknown_slots():
    # a negative slot would otherwise read a row of the table from its end
    u = dt.taylor_variable("t", 0.5, 2)
    for var in (-1, dt.NVARS):
        with pytest.raises(ValueError, match="no coordinate slot"):
            dt.deriv(u, var)


def _graded_exponents_by_filter():
    """The exponent tables' definition: every tuple of degree <= 4, by degree,
    then lexicographically."""
    exps = [
        e
        for e in itertools.product(range(dt.MAX_ORDER + 1), repeat=dt.NVARS)
        if sum(e) <= dt.MAX_ORDER
    ]
    exps.sort(key=lambda e: (sum(e), e))
    return exps


def _mul_tables_by_loop():
    """The product tables' definition: for each coefficient i, each j whose
    monomial keeps the product within the order, and the product's slot."""
    tables = {}
    for k in range(dt.MAX_ORDER + 1):
        ia, ib, ic = [], [], []
        for i in range(dt.NCOEF[k]):
            for j in range(dt.NCOEF[k - dt._DEGREE[i]]):
                ia.append(i)
                ib.append(j)
                e = tuple(a + b for a, b in zip(dt._EXPONENTS[i], dt._EXPONENTS[j]))
                ic.append(dt._POS[e])
        tables[k] = (np.array(ia), np.array(ib), np.array(ic), dt.NCOEF[k])
    return tables


def test_import_time_tables_match_loop_definitions():
    assert dt._EXPONENTS == _graded_exponents_by_filter()
    assert dt.NCOEF == (1, 8, 36, 120, 330)
    assert (dt._EXPONENT_ARRAY == np.array(dt._EXPONENTS)).all()
    ref = _mul_tables_by_loop()
    assert sorted(dt._MUL) == sorted(ref)
    for k, (ia, ib, ic, n) in ref.items():
        got = dt._MUL[k]
        assert got[3] == n
        for a, b in zip(got[:3], (ia, ib, ic)):
            assert a.dtype == np.int64 and a.shape == b.shape and (a == b).all(), k


# -- products restricted to the slots a series depends on ----------------------

#: Inside a series' slot set: signed zeros, subnormals, large finite values.
_INSIDE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1.7976931348623157e308]),
)


def _uses_only(exponents, slots: int) -> bool:
    return all(not e or slots >> v & 1 for v, e in enumerate(exponents))


@st.composite
def _series_on(draw, order):
    """A series of ``order`` on a drawn slot set, zero outside it."""
    slots = draw(st.integers(0, dt.ALL_SLOTS))
    c = draw(hnp.arrays(float, dt.NCOEF[order], elements=_INSIDE))
    for i, e in enumerate(dt._EXPONENTS[: dt.NCOEF[order]]):
        if not _uses_only(e, slots):
            c[i] = 0.0
    return dt.Taylor(c, order, slots)


@given(data=st.data(), ka=st.integers(0, dt.MAX_ORDER), kb=st.integers(0, dt.MAX_ORDER))
@settings(max_examples=300, deadline=None)
def test_restricted_product_matches_full_table(data, ka, kb):
    a, b = data.draw(_series_on(ka)), data.draw(_series_on(kb))
    k, union = min(ka, kb), a.deps | b.deps
    poly_mul, tables = _backend.poly_mul, []

    def recording_poly_mul(x, y, ia, ib, ic, n):
        tables.append((ia, ib))
        return poly_mul(x, y, ia, ib, ic, n)

    n = dt.NCOEF[k]
    with mock.patch.object(_backend, "poly_mul", recording_poly_mul), np.errstate(all="ignore"):
        got = a * b
        full = poly_mul(a.c[:n], b.c[:n], *dt._MUL[k])
    assert got.order == k and got.deps == union
    assert got.c.tobytes() == full.tobytes()
    for i, e in enumerate(dt._EXPONENTS[:n]):
        if not _uses_only(e, union):
            assert got.c[i].tobytes() == bytes(8), i  # +0.0
    # exactly the pairs of the full table whose monomials both lie in the union
    ia, ib = dt._MUL[k][:2]
    keep = [
        _uses_only(dt._EXPONENTS[i], union) and _uses_only(dt._EXPONENTS[j], union)
        for i, j in zip(ia.tolist(), ib.tolist())
    ]
    ((got_ia, got_ib),) = tables
    assert got_ia.tolist() == ia[keep].tolist() and got_ib.tolist() == ib[keep].tolist()


def test_slot_sets_of_seeds_and_operations():
    t = dt.taylor_variable("t", 0.5, 3)
    y1 = dt.taylor_variable(4, 2.0, 3)
    assert t.deps == 0b1 and y1.deps == 0b10000
    assert dt.taylor_constant(3.0, 3).deps == 0 and dt.as_taylor(3.0, 3).deps == 0
    assert dt.Taylor(np.zeros(dt.NCOEF[2]), 2).deps == dt.ALL_SLOTS
    for u in (t + y1, t - y1, t * y1, t / y1, dt.exp(t) * dt.sqrt(y1), 2.0 - t * y1):
        assert u.deps == 0b10001
    for u in (t**3, -t, dt.exp(t), dt.log(t), t.truncate(1), dt.deriv(t * t, 0)):
        assert u.deps == 0b1


@pytest.mark.parametrize(
    "entries, slots",
    [
        (None, (0, 4, 5, 6)),  # Berwald-Moor: t and y1..y3
        ({"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}, range(7)),
    ],
)
def test_f2_jet_carries_its_slots_and_matches_full_seeds(entries, slots):
    cubic = CubicForm.berwald_moor() if entries is None else CubicForm.from_entries(entries)
    field = finsler_F_squared_field(cubic, TemporalMetric("exp(2*t)"))
    p = JetPoint.of(0.3, (0.4, -0.2, 0.7), (1.1, 0.7, 2.0))
    jet = dt.jet_eval(field, p, 4)
    assert jet.deps == sum(1 << v for v in slots)
    # seeds that claim every slot: every product runs over the full table
    seeds = (dt.Taylor(s.c, 4) for s in dt.seed_point(p.coords(), 4))
    assert jet.c.tobytes() == field(*seeds).c.tobytes()


@pytest.mark.parametrize("order", range(dt.MAX_ORDER + 1))
def test_seed_point_equals_taylor_variables(order):
    for coords in (
        (0.3, -0.0, 0.0, 1e120, 1.1, 0.7, 2.0),
        (-0.0, 0.0, -0.0, -1.5, 5.0, 0.2, 1e-300),
    ):
        seeds = dt.seed_point(coords, order)
        assert len(seeds) == dt.NVARS
        for v, seed in enumerate(seeds):
            want = dt.taylor_variable(v, coords[v], order)
            assert (seed.order, seed.deps) == (want.order, want.deps)
            assert seed.c.dtype == want.c.dtype and seed.c.tobytes() == want.c.tobytes()
            assert dt.is_t_seed(seed) == (v == 0)
    # a fresh copy per call: seeding another point leaves these seeds alone
    dt.seed_point((1.0,) * dt.NVARS, order)
    assert seeds[0].c.tobytes() == dt.taylor_variable(0, coords[0], order).c.tobytes()
