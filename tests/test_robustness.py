"""Scenario robustness: a malformed scenario is a ConfigError, and a numeric
failure at a point is recorded on that point, never raised out of a run."""

import json
import math
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jetfinsler.cli import (
    COMPARISON_NAMES,
    GROUP_NAMES,
    Scenario,
    main,
    parse_scenario,
    run_scenario,
)
from jetfinsler.errors import ConfigError

from helpers import subprocess_env

# extreme inputs overflow on purpose; the reports record what follows
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

_FIELDS = (
    "temporal_metric", "cubic", "connection", "points", "einstein_constant",
    "derivative_mode", "tolerances", "outputs",
)

_NUMBERS = (
    st.integers(-(10**400), 10**400)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([0, 1, -1, 0.0, -0.0, 1e-300, 1e300, 5e-324])
)

_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=10,
)

# grammar-valid and grammar-invalid expression sources
_EXPR = st.one_of(
    st.text(max_size=16),
    st.builds(
        "{}{}{}".format,
        st.sampled_from(["", "-", "1/", "exp(", "cos(", "sin(", "2*"]),
        st.sampled_from(["t", "x1", "x2", "x3", "y1", "1", "0", "t**2", "t**-1", "1e308"]),
        st.sampled_from(["", " + 1", ")", "*t", " - 2", "**3"]),
    ),
)


def _valid_base() -> dict:
    return {
        "temporal_metric": "exp(2*t)",
        "cubic": "berwald_moor",
        "connection": "apriori",
        "points": {
            "explicit": [{"t": 0.0, "x": [0.0, 0.0, 0.0], "y": [1.0, 1.0, 1.0]}],
            "sampler": {"count": 1, "seed": 3, "y_box": [0.2, 5.0],
                        "t_range": [-1.0, 1.0], "x_range": [-1.0, 1.0]},
        },
        "einstein_constant": 1.0,
        "derivative_mode": "exact",
        "tolerances": {"ad_rel": 1e-9, "fd_rel": 1e-5, "identity": 1e-12},
        "outputs": ["all"],
    }


_PATHS = [
    (name,) for name in _FIELDS
] + [
    ("points", "explicit"), ("points", "sampler"),
    ("points", "sampler", "count"), ("points", "sampler", "seed"),
    ("points", "sampler", "y_box"), ("points", "sampler", "t_range"),
    ("points", "sampler", "x_range"), ("tolerances", "identity"),
]


@st.composite
def _mutated_scenarios(draw):
    """A valid scenario with a few fields replaced by arbitrary JSON values,
    or deleted, or an arbitrary JSON value in place of the whole document."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_JSON)
    doc = _valid_base()
    for path in draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=3)):
        parent = doc
        for key in path[:-1]:
            parent = parent.get(key) if isinstance(parent, dict) else None
        if not isinstance(parent, dict):
            continue
        if draw(st.booleans()):
            parent.pop(path[-1], None)
        elif path[-1] in ("temporal_metric",):
            parent[path[-1]] = draw(_EXPR | _JSON)
        else:
            parent[path[-1]] = draw(_JSON)
    return doc


def _with(path, value) -> dict:
    doc = _valid_base()
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@given(doc=_mutated_scenarios())
@example(doc=_with(("points", "sampler", "t_range"), [-1e308, 1e308]))  # width overflows
@example(doc=_with(("temporal_metric",), "-" * 10000 + "t"))  # parser depth limit
@example(doc=_with(("cubic",), {"entries": {"123": "(" * 300 + "x1" + ")" * 300}}))
@settings(max_examples=150, deadline=None)
def test_parse_scenario_returns_scenario_or_config_error(doc):
    try:
        sc = parse_scenario(doc)
    except ConfigError:
        return
    assert isinstance(sc, Scenario)


_COORD = st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1e-300, 1e300, -1e300, 709.0])
_FIBER = st.floats(1e-300, 1e300) | st.sampled_from([1e-300, 1e300, 1.0])


@st.composite
def _runnable_scenarios(draw):
    """Scenarios that parse, over domains where points may fail numerically."""
    doc = _valid_base()
    doc["temporal_metric"] = draw(
        st.sampled_from(["1", "exp(2*t)", "t**2 + 1", "t", "exp(1000*t)", "cos(t)",
                         "1e-300", "1/t", "t**-2"])
    )
    if draw(st.booleans()):
        keys = st.sampled_from(["111", "112", "122", "123", "133", "222", "223", "333"])
        values = st.floats(-2.0, 2.0) | st.sampled_from(
            ["1/6 + 0.05*x1*x2", "0.3*x1", "0.1*sin(x3)", "exp(x1)", "1/x2", "x3**2"]
        )
        entries = draw(st.dictionaries(keys, values, min_size=1, max_size=4))
        doc["cubic"] = {"entries": entries}
    doc["connection"] = draw(st.sampled_from(["apriori", "canonical"]))
    doc["einstein_constant"] = draw(st.sampled_from([1.0, -2.5, 1e-300, 1e300]))
    doc["derivative_mode"] = draw(st.sampled_from(["exact"] * 5 + ["fd"]))
    point = {
        "t": draw(_COORD),
        "x": draw(st.lists(_COORD, min_size=3, max_size=3)),
        "y": draw(st.lists(_FIBER, min_size=3, max_size=3)),
    }
    doc["points"] = {"explicit": [point]}
    names = list(COMPARISON_NAMES) + list(GROUP_NAMES)
    doc["outputs"] = draw(st.lists(st.sampled_from(names), min_size=1, max_size=4))
    if doc["connection"] == "canonical":
        apriori_only = ("einstein", "stress_energy", "conservation")
        doc["outputs"] = [o for o in doc["outputs"] if o not in apriori_only] or ["all"]
    return doc


@given(doc=_runnable_scenarios())
@example(doc=_with(("points", "sampler", "t_range"), [-1e308, 1e308]))
@example(doc=_with(("temporal_metric",), "2 + cos(1e308*10)"))  # cos of inf
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_run_scenario_records_point_errors(doc):
    try:
        sc = parse_scenario(doc)
    except ConfigError:
        return
    report, ok = run_scenario(sc)
    summary = report["summary"]
    errors = [p["error"] for p in report["points"]]
    assert summary["points_total"] == len(errors)
    assert summary["points_errored"] == sum(e is not None for e in errors)
    for e in errors:
        assert e is None or (isinstance(e, str) and ": " in e)
    evaluated = summary["points_errored"] < summary["points_total"]
    assert ok == (summary["points_failed"] == 0 and evaluated)
    assert math.isfinite(report["wall_time_seconds"])


def test_overflow_recorded_without_warnings(tmp_path):
    # a fiber at the top of the double range overflows the exact jet of F^2:
    # the point records the error, and numpy's floating-point warnings stay
    # silent, so the run also completes with RuntimeWarning made an error
    doc = _valid_base()
    doc["points"] = {"explicit": [{"t": 0.0, "x": [0.0, 0.0, 0.0], "y": [1e308] * 3}]}
    scenario = tmp_path / "overflow.json"
    scenario.write_text(json.dumps(doc))
    report = tmp_path / "overflow.report.json"
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "jetfinsler.cli",
         "run", str(scenario), "--out", str(report)],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 1, proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    (point,) = json.loads(report.read_text())["points"]
    assert point["error"] == "DomainError: fractional power of a non-finite field value"


_GENERIC_ENTRIES = {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}


def _generic_g111(x, y) -> float:
    """G_pqr y^p y^q y^r of the entries above, on plain floats: each stored
    entry counted once per distinct permutation of its indices."""
    return (
        6 * (1 / 6 + 0.05 * x[0] * x[1]) * y[0] * y[1] * y[2]
        + 0.3 * x[0] * y[0] ** 3
        + 3 * 0.1 * math.sin(x[2]) * y[1] * y[1] * y[2]
    )


def _run_generic(tmp_path, capsys, seed: int, mode: str):
    """The benchmark's generic-cubic input shape at this sampler seed, run by
    the CLI: its exit code and report."""
    doc = {
        "temporal_metric": "exp(2*t)",
        "cubic": {"entries": _GENERIC_ENTRIES},
        "connection": "apriori",
        "points": {"sampler": {"count": 100, "seed": seed, "y_box": [0.2, 5.0],
                               "t_range": [-1.0, 1.0], "x_range": [-1.0, 1.0]}},
        "einstein_constant": 1.0,
        "derivative_mode": mode,
        "outputs": ["all"],
    }
    scenario, out = tmp_path / f"generic_{mode}.json", tmp_path / f"generic_{mode}.report.json"
    scenario.write_text(json.dumps(doc))
    rc = main(["run", str(scenario), "--out", str(out)])
    capsys.readouterr()
    return rc, json.loads(out.read_text())


@pytest.mark.parametrize("s", range(1, 13))
def test_generic_cubic_run_errors_only_where_g111_is_not_positive(s, tmp_path, capsys):
    # at sampler seeds 1000 s
    rc, report = _run_generic(tmp_path, capsys, 1000 * s, "exact")
    assert rc == (0 if report["summary"]["all_pass"] else 1)
    assert len(report["points"]) == 100
    for rec in report["points"]:
        g111 = _generic_g111(rec["point"]["x"], rec["point"]["y"])
        if g111 <= 0.0:
            assert rec["error"] is not None and rec["error"].startswith("DomainError: ")
        else:
            assert rec["error"] is None, (rec["index"], g111)


@pytest.mark.parametrize("seed", range(1, 7))
def test_generic_cubic_fd_run_errors_where_exact_mode_does(seed, tmp_path, capsys):
    # fd mode passes on the generic cubic, and its points error where those
    # of exact mode do (G111 <= 0), each with a DomainError
    rc, report = _run_generic(tmp_path, capsys, seed, "fd")
    assert rc == 0 and report["summary"]["all_pass"]
    _, exact = _run_generic(tmp_path, capsys, seed, "exact")
    errored = {rec["index"] for rec in report["points"] if rec["error"] is not None}
    assert errored == {rec["index"] for rec in exact["points"] if rec["error"] is not None}
    assert errored == {
        rec["index"]
        for rec in report["points"]
        if _generic_g111(rec["point"]["x"], rec["point"]["y"]) <= 0.0
    }
    assert all(
        rec["error"].startswith("DomainError: ")
        for rec in report["points"]
        if rec["index"] in errored
    )
