"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The cross-engine grid (three temporal metrics, 100 seeded points each, fiber
box [0.2, 5]^3, t in [-1, 1]) is built once per session and shared by the
criteria that run over it.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from jetfinsler import berwald_moor as bm
from jetfinsler import difftools as dt
from jetfinsler import field_theory as ft
from jetfinsler.connection_engine import NonlinearConnection, PointContext
from jetfinsler.jetspace import CubicForm, JetPoint, TemporalMetric
from jetfinsler.metric_engine import contract_cubic

from conftest import sample_jet_points
from fields_corpus import CORPUS
from helpers import central_difference, subprocess_env

GRID_METRICS = ("1", "exp(2*t)", "t**2 + 1")
POINTS_PER_METRIC = 100

COMPARED = (
    "g_lower",
    "g_upper",
    "C",
    "L",
    "P_mixed",
    "P_fiber",
    "R_time",
    "R_hh",
    "P_hv",
    "S_vv",
    "ricci_R",
    "ricci_P",
    "ricci_S",
    "scalar_curvature",
)


def _dev(value, ref) -> float:
    v = np.atleast_1d(np.asarray(value, dtype=float))
    r = np.atleast_1d(np.asarray(ref, dtype=float))
    scale = max(np.abs(v).max(), np.abs(r).max(), 1.0)
    return float(np.abs(v - r).max() / scale)


@pytest.fixture(scope="module")
def cross_grid():
    """(tm, nlc, point, generic context, closed-form bundle) per grid point."""
    cubic = CubicForm.berwald_moor()
    entries = []
    start = time.perf_counter()
    for idx, src in enumerate(GRID_METRICS):
        tm = TemporalMetric(src)
        nlc = NonlinearConnection.apriori(tm)
        points = sample_jet_points(seed=1000 + idx, count=POINTS_PER_METRIC)
        for p in points:
            ctx = PointContext(cubic, tm, nlc, p)
            ref = bm.closed_form_bundle(p, tm, "apriori")
            entries.append((tm, nlc, p, ctx, ref))
    return {"cubic": cubic, "entries": entries, "build_seconds": time.perf_counter() - start}


def test_criterion_1_cross_engine_equivalence(cross_grid, acceptance_log):
    start = time.perf_counter()
    worst = 0.0
    for tm, nlc, p, ctx, ref in cross_grid["entries"]:
        cart = ctx.cartan()
        tors = ctx.torsions()
        curv = ctx.curvatures()
        ric = ctx.ricci()
        generic = {
            "g_lower": ctx.g_val,
            "g_upper": ctx.ginv_val,
            "C": cart.C,
            "L": cart.L,
            "P_mixed": tors.P_mixed,
            "P_fiber": tors.P_fiber,
            "R_time": tors.R_time,
            "R_hh": curv.R_hh,
            "P_hv": curv.P_hv,
            "S_vv": curv.S_vv,
            "ricci_R": ric.R,
            "ricci_P": ric.P,
            "ricci_S": ric.S,
            "scalar_curvature": ctx.scalar_curvature(),
        }
        for name in COMPARED:
            worst = max(worst, _dev(generic[name], ref[name]))
    elapsed = cross_grid["build_seconds"] + (time.perf_counter() - start)
    passed = worst <= 1e-9 and elapsed <= 60.0
    acceptance_log(
        1,
        "cross-engine equivalence",
        passed,
        f"worst rel dev {worst:.2e} over {len(cross_grid['entries'])} points, "
        f"{elapsed:.1f}s",
    )
    assert worst <= 1e-9
    assert elapsed <= 60.0


def test_criterion_2_identity_suite(cross_grid, acceptance_log):
    cubic = cross_grid["cubic"]
    worst_id = 0.0
    worst_deriv = 0.0
    for tm, nlc, p, ctx, ref in cross_grid["entries"][::10]:
        y = np.asarray(p.y)
        cc = contract_cubic(cubic, p)
        worst_id = max(
            worst_id,
            abs(cc.Gi11 @ y - 3 * cc.G111) / max(abs(3 * cc.G111), 1.0),
            np.abs(cc.Gij1 @ y - 2 * cc.Gi11).max()
            / max(np.abs(cc.Gi11).max(), 1.0),
            np.abs(ctx.g_val @ ctx.ginv_val - np.eye(3)).max(),
        )
        C = ctx.C_val
        S = ctx.curvatures().S_vv
        c_scale = max(np.abs(C).max(), 1.0)
        s_scale = max(np.abs(S).max(), 1.0)
        worst_id = max(
            worst_id,
            np.abs(C - C.transpose(0, 2, 1)).max() / c_scale,
            np.abs(np.einsum("ijm,m->ij", C, y)).max() / c_scale,
            np.abs(np.einsum("mjm->j", C)).max() / c_scale,
            np.abs(S + S.transpose(0, 1, 3, 2)).max() / s_scale,
            np.abs(np.einsum("lijj->lij", S)).max() / s_scale,
        )
        s_up = ref["S_raised"]
        worst_id = max(
            worst_id,
            np.abs(np.einsum("mr,rim->i", s_up, ref["C"])).max()
            / max(np.abs(s_up).max(), 1.0),
        )

        # sum_m dS^m11_i/dy_m = (2/3)(1/y_i) G111^(-2/3), via the kernel
        def s_field(m, i):
            d = 3.0 if m == i else 0.0

            def fld(t, x1, x2, x3, y1, y2, y3):
                yy = (y1, y2, y3)
                return (
                    dt.powf(y1 * y2 * y3, -2.0 / 3.0) * ((1.0 - d) / 3.0) * yy[m] / yy[i]
                )

            return fld

        g23inv = (p.y[0] * p.y[1] * p.y[2]) ** (-2.0 / 3.0)
        for i in range(3):
            total = sum(
                dt.partial(s_field(m, i), p, (f"y{m + 1}",)) for m in range(3)
            )
            want = 2.0 / 3.0 / p.y[i] * g23inv
            worst_deriv = max(worst_deriv, abs(total - want) / max(abs(want), 1.0))

    passed = worst_id <= 1e-12 and worst_deriv <= 1e-10
    acceptance_log(
        2,
        "identity suite",
        passed,
        f"worst identity {worst_id:.2e} (tol 1e-12), "
        f"raised-S divergence {worst_deriv:.2e} (tol 1e-10)",
    )
    assert worst_id <= 1e-12
    assert worst_deriv <= 1e-10


def test_criterion_3_canonical_degeneration(acceptance_log):
    cubic = CubicForm.berwald_moor()
    tm = TemporalMetric("1")
    nlc = NonlinearConnection.canonical(tm)
    worst = 0.0
    for p in sample_jet_points(seed=4000, count=25):
        ctx = PointContext(cubic, tm, nlc, p)
        tors = ctx.torsions()
        curv = ctx.curvatures()
        for arr in (tors.P_mixed, tors.P_fiber * 0, tors.R_time, curv.R_hh, curv.P_hv):
            worst = max(worst, np.abs(arr).max())
    passed = worst <= 1e-12
    acceptance_log(
        3, "canonical-connection degeneration", passed, f"worst entry {worst:.2e}"
    )
    assert worst <= 1e-12


def test_criterion_4_field_theory_anchors(acceptance_log):
    p0 = JetPoint.of(0.0, (0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    tm1 = TemporalMetric("1")
    tme = TemporalMetric("exp(2*t)")
    checks = []

    blocks1 = ft.einstein_blocks(p0, tm1, 1.0)
    checks.append(abs(blocks1.xi11 - 1.0) <= 1e-12)
    checks.append(abs(blocks1.T_11 - 1.0) <= 1e-12)
    checks.append(abs(bm.bm_scalar_curvature(p0, tm1) - (-2.0)) <= 1e-12)

    blockse = ft.einstein_blocks(p0, tme, 1.0)
    checks.append(abs(blockse.xi11 - 1.25) <= 1e-12)
    checks.append(abs(bm.bm_scalar_curvature(p0, tme) - (-2.5)) <= 1e-12)

    ric = bm.bm_ricci(p0, tme)
    want_R = np.eye(3) / 18.0 - (1 - np.eye(3)) / 36.0
    checks.append(np.abs(ric.R - want_R).max() <= 1e-12)

    cons = ft.conservation_residuals(ft.stress_energy_mixed(p0, tme, 1.0), p0, tme, 1.0)
    checks.append(abs(cons.law1_rhs - (-0.5)) <= 1e-12)
    checks.append(cons.law1_residual <= 1e-9)
    checks.append(np.abs(cons.law2_lhs).max() <= 1e-9)
    checks.append(np.abs(cons.law3_lhs).max() <= 1e-9)

    passed = all(checks)
    acceptance_log(
        4, "field-theory anchor values", passed, f"{sum(checks)}/{len(checks)} anchors"
    )
    assert passed


def test_criterion_5_electromagnetic_triviality(cross_grid, acceptance_log):
    worst_f = 0.0
    worst_d = 0.0
    for tm, nlc, p, ctx, ref in cross_grid["entries"]:
        em = ft.em_two_form(ctx)
        worst_f = max(worst_f, np.abs(em.F_em).max())
        emd = ft.em_covariant_derivatives(ctx)
        worst_d = max(
            worst_d,
            np.abs(emd.F_time).max(),
            np.abs(emd.F_spatial).max(),
            np.abs(emd.F_fiber).max(),
        )
    passed = worst_f <= 1e-12 and worst_d <= 1e-9
    acceptance_log(
        5,
        "electromagnetic triviality",
        passed,
        f"worst F entry {worst_f:.2e} (tol 1e-12), "
        f"worst covariant derivative {worst_d:.2e} (tol 1e-9)",
    )
    assert worst_f <= 1e-12
    assert worst_d <= 1e-9


def test_criterion_6_differentiation_kernel(acceptance_log):
    assert len(CORPUS) >= 10
    worst_exact = 0.0
    worst_fd = 0.0
    specs_all = [e for e in dt._EXPONENTS if sum(e) >= 1]
    specs_low = [e for e in dt._EXPONENTS if 1 <= sum(e) <= 2]
    for entry in CORPUS:
        for coords in entry.points:
            for exps in specs_all:
                spec = dt.PartialSpec.coerce(
                    [v for v, m in enumerate(exps) for _ in range(m)]
                )
                got = dt.partial(entry.field, coords, spec)
                want = entry.expected(exps, coords)
                worst_exact = max(
                    worst_exact, abs(got - want) / max(1.0, abs(want))
                )
            for exps in specs_low:
                spec = dt.PartialSpec.coerce(
                    [v for v, m in enumerate(exps) for _ in range(m)]
                )
                exact = dt.partial(entry.field, coords, spec)
                fd = central_difference(entry.field, coords, spec, step=1e-5)
                worst_fd = max(worst_fd, abs(fd - exact) / max(1.0, abs(exact)))
    passed = worst_exact <= 1e-12 and worst_fd <= 1e-5
    acceptance_log(
        6,
        "differentiation kernel",
        passed,
        f"{len(CORPUS)} fields; exact {worst_exact:.2e} (tol 1e-12), "
        f"FD concordance {worst_fd:.2e} (tol 1e-5)",
    )
    assert worst_exact <= 1e-12
    assert worst_fd <= 1e-5


def test_criterion_7_cli_contract(tmp_path, acceptance_log):
    data = Path(__file__).parent / "data"
    scenario = str(data / "golden_scenario.json")
    checks = []

    def cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "jetfinsler.cli", *args],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )

    def normalize(doc):
        doc = dict(doc)
        doc.pop("wall_time_seconds")
        doc["generator"] = {
            k: v for k, v in doc["generator"].items() if k != "backend"
        }
        return json.dumps(doc)

    # determinism: two runs byte-identical apart from wall time
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = cli("run", scenario, "--out", str(out))
        checks.append(proc.returncode == 0)
        reports.append(normalize(json.loads(out.read_text())))
    checks.append(reports[0] == reports[1])

    # golden report match (backend tag aside, the payload is bit-exact)
    golden = json.loads((data / "golden_report.json").read_text())
    checks.append(reports[0] == normalize(golden))

    # exit-status contract: forcing an unreachable tolerance must fail
    proc = cli(
        "run", scenario, "--out", str(tmp_path / "c.json"), "--tolerance-ad", "1e-18"
    )
    checks.append(proc.returncode == 1)

    # scenario errors exit with 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"points": {"sampler": {"count": 1, "seed": 0, "y_box": [-1, 5]}}}))
    proc = cli("run", str(bad))
    checks.append(proc.returncode == 2)

    passed = all(checks)
    acceptance_log(
        7, "CLI determinism and exit contract", passed, f"{sum(checks)}/{len(checks)} checks"
    )
    assert passed
