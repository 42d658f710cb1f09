"""Workload inputs, generated from the seed, and their output checks.

Every check here is an oracle of its own: closed formulas written out in this
file, never a call into the package under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

#: Tensors every report compares between the generic and closed-form engines.
COMPARISON_NAMES = (
    "g_lower", "g_upper", "C", "L", "G_time", "P_mixed", "P_fiber", "R_time",
    "R_hh", "P_hv", "S_vv", "ricci_R", "ricci_P", "ricci_S", "S_raised",
    "scalar_curvature",
)

T_RANGE = (-1.0, 1.0)
X_RANGE = (-1.0, 1.0)
Y_BOX = (0.2, 5.0)
ENGINE_TOL = {"exact": 1e-9, "fd": 1e-5}  # the scenario defaults ad_rel, fd_rel
CLOSED_FORM_TOL = 1e-12  # the report's closed forms against the formulas below
LIBRARY_TOL = 1e-9
#: The inverse of an ill-conditioned metric is only known to a small multiple
#: of cond(g) * eps (Higham, Accuracy and Stability of Numerical Algorithms,
#: ch. 14), whichever way it is computed; the generic cubic's sampled points
#: reach cond(g) ~ 3e7, where the engine and numpy differ by ~8 cond(g) eps.
INVERSE_COND_FACTOR = 100.0

#: A position-dependent cubic that is not Berwald-Moor: the expression given
#: to the scenario, and the same entry as a function of x for the oracle.
GENERIC_CUBIC = {
    "123": ("1/6 + 0.05*x1*x2", lambda x: 1 / 6 + 0.05 * x[0] * x[1]),
    "111": ("0.3*x1", lambda x: 0.3 * x[0]),
    "223": ("0.1*sin(x3)", lambda x: 0.1 * math.sin(x[2])),
}
DOCUMENTED_POINTS = 100  # sampler count of the repository README's example scenario
GENERIC_ERRORS = 10  # points with G111 <= 0, held fixed across seeds


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "cli" or "library"
    points: int  # per measured process
    mode: str = "exact"  # the scenario's derivative_mode


WORKLOADS = {
    w.name: w
    for w in (
        Workload("bm_report", "cli", DOCUMENTED_POINTS),
        Workload("generic_cubic", "cli", DOCUMENTED_POINTS),
        Workload("library_point", "library", 50),
        Workload("fd_crosscheck", "cli", 4, mode="fd"),
    )
}


def draw_points(seed: int, count: int) -> np.ndarray:
    """Rows (t, x1, x2, x3, y1, y2, y3), drawn in the CLI sampler's documented
    order: PCG64, uniform t[count], x[count, 3], y[count, 3]."""
    rng = np.random.Generator(np.random.PCG64(seed))
    ts = rng.uniform(*T_RANGE, count)
    xs = rng.uniform(*X_RANGE, (count, 3))
    ys = rng.uniform(*Y_BOX, (count, 3))
    return np.column_stack([ts, xs, ys])


def _cubic_values(x) -> np.ndarray:
    vals = np.zeros((3, 3, 3))
    for key, (_, fn) in GENERIC_CUBIC.items():
        v = fn(x)
        for i, j, k in itertools.permutations(int(c) - 1 for c in key):
            vals[i, j, k] = v
    return vals


def generic_metric(row):
    """(G111, g_ij) from the contraction formula
    g_ij = (G111^(-1/3) / 3) [G_ij1 - G_i11 G_j11 / (3 G111)]."""
    vals = _cubic_values(row[1:4])
    y = np.asarray(row[4:7])
    g111 = float(np.einsum("pqr,p,q,r->", vals, y, y, y))
    if g111 <= 0.0:
        return g111, None
    gi11 = 3.0 * np.einsum("ipq,p,q->i", vals, y, y)
    gij1 = 6.0 * np.einsum("ijp,p->ij", vals, y)
    g = g111 ** (-1.0 / 3.0) / 3.0 * (gij1 - np.outer(gi11, gi11) / (3.0 * g111))
    return g111, g


def bm_oracle(row) -> dict:
    """Berwald-Moor metric, inverse and scalar curvature for h11 = exp(2t)
    (so kappa = 1), from the formulas of the source paper."""
    t, y = row[0], np.asarray(row[4:7])
    g3 = float(y[0] * y[1] * y[2])
    sign = 2.0 - 3.0 * np.eye(3)
    return {
        "g_lower": sign / 9.0 * g3 ** (2.0 / 3.0) / np.outer(y, y),
        "g_upper": sign * g3 ** (-2.0 / 3.0) * np.outer(y, y),
        "scalar_curvature": -(4.0 * math.exp(2.0 * t) + 1.0) / 2.0 * g3 ** (-2.0 / 3.0),
    }


def rel_dev(a, b) -> float:
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1.0)
    return float(np.abs(a - b).max() / scale)


def _generic_seed(seed: int) -> tuple[int, np.ndarray]:
    """First sampler seed from ``1000 * seed`` on whose points exactly
    GENERIC_ERRORS have G111 <= 0, so the share of points on the error path
    is the same for every seed."""
    for candidate in range(1000 * seed, 1000 * seed + 1000):
        rows = draw_points(candidate, DOCUMENTED_POINTS)
        if sum(generic_metric(row)[1] is None for row in rows) == GENERIC_ERRORS:
            return candidate, rows
    raise RuntimeError(f"no generic_cubic sampler seed found for seed {seed}")


def make_inputs(workload: Workload, seed: int) -> dict:
    """The program's input (a scenario or a point list) and the oracle rows."""
    if workload.kind == "library":
        rows = draw_points(seed, workload.points)
        return {"points": rows.tolist(), "rows": rows}
    if workload.name == "generic_cubic":
        sampler_seed, rows = _generic_seed(seed)
        cubic = {"entries": {k: src for k, (src, _) in GENERIC_CUBIC.items()}}
    else:
        sampler_seed = seed
        rows = draw_points(seed, workload.points)
        cubic = "berwald_moor"
    scenario = {
        "temporal_metric": "exp(2*t)",
        "cubic": cubic,
        "connection": "apriori",
        "points": {
            "sampler": {
                "count": workload.points,
                "seed": sampler_seed,
                "y_box": list(Y_BOX),
                "t_range": list(T_RANGE),
                "x_range": list(X_RANGE),
            }
        },
        "einstein_constant": 1.0,
        "derivative_mode": workload.mode,
        "outputs": ["all"],
    }
    return {"scenario": scenario, "rows": rows}


def check_report(workload: Workload, rows: np.ndarray, report: dict, rc: int) -> list[str]:
    """Problems found in one CLI report; an empty list means it passed."""
    problems = []
    summary = report["summary"]
    records = report["points"]
    if rc != (0 if summary["all_pass"] else 1):
        problems.append(f"exit code {rc} disagrees with all_pass={summary['all_pass']}")
    if summary["points_total"] != len(rows) or len(records) != len(rows):
        problems.append(f"{len(records)} point records, expected {len(rows)}")
        return problems
    tol = ENGINE_TOL[workload.mode]
    for row, rec in zip(rows, records):
        where = f"point {rec['index']}"
        if not np.array_equal([rec["point"]["t"], *rec["point"]["x"], *rec["point"]["y"]], row):
            problems.append(f"{where}: sampled coordinates differ from the documented draw")
            continue
        if workload.name == "generic_cubic":
            problems += _check_generic(row, rec, where)
        else:
            problems += _check_bm(row, rec, where, tol)
    return problems


def _check_bm(row, rec, where, tol) -> list[str]:
    if rec["error"] is not None:
        return [f"{where}: unexpected error {rec['error']}"]
    problems = []
    for name in COMPARISON_NAMES:
        generic, closed = rec["generic"][name], rec["closed_form"][name]
        dev = rel_dev(generic, closed)
        if not (dev <= tol and rec["comparisons"][name]["pass"]):
            problems.append(f"{where}: {name} generic vs closed form {dev:.3e} > {tol:.0e}")
    for name, ref in bm_oracle(row).items():
        if rel_dev(rec["closed_form"][name], ref) > CLOSED_FORM_TOL:
            problems.append(f"{where}: closed-form {name} disagrees with the formula")
        if rel_dev(rec["generic"][name], ref) > tol:
            problems.append(f"{where}: generic {name} disagrees with the formula")
    return problems


def _check_generic(row, rec, where) -> list[str]:
    g111, g = generic_metric(row)
    if g is None:
        if rec["error"] is None or not rec["error"].startswith("DomainError"):
            return [f"{where}: G111 = {g111:.3e} <= 0 but error is {rec['error']!r}"]
        return []
    if rec["error"] is not None:
        return [f"{where}: unexpected error {rec['error']}"]
    problems = []
    tol = ENGINE_TOL["exact"]
    if rel_dev(rec["generic"]["g_lower"], g) > tol:
        problems.append(f"{where}: generic g_lower disagrees with the contraction formula")
    tol_upper = tol + INVERSE_COND_FACTOR * np.linalg.cond(g) * np.finfo(float).eps
    if rel_dev(rec["generic"]["g_upper"], np.linalg.inv(g)) > tol_upper:
        problems.append(f"{where}: generic g_upper disagrees with the inverse of the formula")
    if rec["comparisons"] or rec["closed_form"] is not None:
        problems.append(f"{where}: closed-form comparison made for a non-Berwald-Moor cubic")
    return problems
