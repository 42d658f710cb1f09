import dataclasses
import importlib
import json
import math
import re
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jetfinsler import difftools as dt
from jetfinsler import field_theory as ft
from jetfinsler.berwald_moor import ClosedForms
from jetfinsler.cli import (
    COMPARISON_NAMES,
    FORMULA_TABLE,
    _s_raised_divergence_dev,
    identity_dev,
    load_scenario,
    main,
    parse_scenario,
    print_formula_table,
    rel_dev,
    run_scenario,
    sample_points,
)
from jetfinsler.errors import ConfigError
from jetfinsler.jetspace import JetPoint, TemporalMetric

from helpers import subprocess_env

DATA = Path(__file__).parent / "data"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "jetfinsler.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=subprocess_env(),
    )


def base_scenario(count=3, seed=7, outputs=("all",)):
    return {
        "temporal_metric": "exp(2*t)",
        "cubic": "berwald_moor",
        "connection": "apriori",
        "points": {
            "sampler": {
                "count": count,
                "seed": seed,
                "y_box": [0.2, 5.0],
                "t_range": [-1.0, 1.0],
                "x_range": [-1.0, 1.0],
            }
        },
        "einstein_constant": 1.0,
        "outputs": list(outputs),
    }


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def strip_volatile(report: dict) -> dict:
    """Drop wall time and the backend tag (environment metadata; the numeric
    payload is bit-identical across backends)."""
    out = dict(report)
    out.pop("wall_time_seconds", None)
    gen = dict(out.get("generator", {}))
    gen.pop("backend", None)
    out["generator"] = gen
    return out


class TestScenarioValidation:
    def test_defaults_fill_in(self):
        sc = parse_scenario({"points": {"sampler": {"count": 1, "seed": 0}}})
        assert sc.temporal_metric == "1"
        assert sc.connection == "apriori"
        assert sc.tolerances["ad_rel"] == 1e-9
        assert sc.tolerances["fd_rel"] == 1e-5
        assert sc.tolerances["identity"] == 1e-12
        assert "em" in sc.outputs

    def test_negative_y_box_rejected(self):
        doc = base_scenario()
        doc["points"]["sampler"]["y_box"] = [-1.0, 5.0]
        with pytest.raises(ConfigError):
            parse_scenario(doc)

    def test_nonpositive_fiber_explicit_rejected(self):
        doc = base_scenario()
        doc["points"] = {"explicit": [{"t": 0, "x": [0, 0, 0], "y": [1, -1, 1]}]}
        with pytest.raises(ConfigError):
            parse_scenario(doc)

    def test_bad_expression_rejected(self):
        doc = base_scenario()
        doc["temporal_metric"] = "log(t)"
        with pytest.raises(ConfigError):
            parse_scenario(doc)

    def test_unknown_output_rejected(self):
        doc = base_scenario(outputs=("curvature_of_everything",))
        with pytest.raises(ConfigError):
            parse_scenario(doc)

    def test_canonical_with_einstein_rejected(self):
        doc = base_scenario(outputs=("einstein",))
        doc["connection"] = "canonical"
        with pytest.raises(ConfigError):
            parse_scenario(doc)

    def test_canonical_all_drops_apriori_groups(self):
        doc = base_scenario()
        doc["connection"] = "canonical"
        sc = parse_scenario(doc)
        assert "einstein" not in sc.outputs
        assert "conservation" not in sc.outputs
        assert "em" in sc.outputs

    @pytest.mark.parametrize("outputs", [["einstein", "conservation"], ["stress_energy"]])
    def test_field_theory_of_generic_cubic_exits_two(self, tmp_path, capsys, outputs):
        # the field theory reads the Berwald-Moor closed forms: asked for a
        # generic cubic, it would be skipped on every point of a passing run
        doc = json.loads((DATA / "golden_generic_scenario.json").read_text())
        doc["outputs"] = outputs
        assert main(["run", str(write_scenario(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ")
        assert f"output {outputs[0]!r} is defined only for the Berwald-Moor cubic" in err
        # "all" still expands to every group; evaluate_point skips the three
        doc["outputs"] = ["all"]
        assert "conservation" in parse_scenario(doc).outputs

    def test_zero_einstein_constant_rejected(self):
        doc = base_scenario()
        doc["einstein_constant"] = 0
        with pytest.raises(ConfigError):
            parse_scenario(doc)

    def test_explicit_cubic_accepted(self):
        doc = base_scenario()
        doc["cubic"] = {"entries": {"123": "1/6", "111": 0.05}}
        sc = parse_scenario(doc)
        assert not sc.cubic.is_berwald_moor()

    @pytest.mark.parametrize(
        "path, value",
        [
            (("points", "explicit"), [{"t": 0, "x": 5, "y": [1, 1, 1]}]),
            (("points", "explicit"), [{"t": 0, "x": [0, 0, 0], "y": "abc"}]),
            (("points", "explicit"), [{"t": "0", "x": [0, 0, 0], "y": [1, 1, 1]}]),
            (("points", "explicit"), [{"t": 0, "x": [0, 0, 0], "y": [1, float("nan"), 1]}]),
            (("points", "sampler", "y_box"), "ab"),
            (("points", "sampler", "t_range"), [False, 1.0]),
            (("points", "sampler", "count"), True),
            (("points", "sampler", "seed"), True),
            (("points", "sampler", "seed"), -1),
            (("outputs",), [["x"]]),
            (("tolerances",), {"identity": True}),
            (("tolerances",), {"ad_rel": float("inf")}),
            (("einstein_constant",), True),
            (("einstein_constant",), float("nan")),
            (("cubic",), {"entries": {"123": True}}),
            (("temporal_metric",), "1e400"),
            (("cubic",), {"entries": {"123": "1/6 + 1e999*x1"}}),
            (("temporal_metric",), "1 + t**1000000000"),
            (("temporal_metric",), "exp(True*t)"),
            (("cubic",), {"entries": {"123": 1 / 6}, "foo": 1}),
            (("cubic",), {"entries": {"123": 1 / 6, "321": 0.5}}),
            (("cubic",), {"entries": {"1,1,2": 0.1, "211": 0.2, "123": 1 / 6}}),
        ],
        ids=[
            "x_scalar", "y_string", "t_string", "y_nan", "y_box_string",
            "t_range_bool", "count_bool", "seed_bool", "seed_negative", "output_list",
            "tolerance_bool", "tolerance_inf", "einstein_bool", "einstein_nan",
            "cubic_entry_bool", "metric_literal_inf", "cubic_literal_inf",
            "metric_power_unbounded", "metric_bool_literal", "cubic_unknown_field",
            "cubic_same_component", "cubic_same_component_spelled",
        ],
    )
    def test_malformed_value_exits_two(self, tmp_path, capsys, path, value):
        doc = base_scenario()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        assert main(["run", str(write_scenario(tmp_path, doc))]) == 2
        assert capsys.readouterr().err.startswith("scenario error: ")

    @pytest.mark.parametrize(
        "original, repeated",
        [
            ('"einstein_constant": 1.0', '"einstein_constant": 1.0, "einstein_constant": 2.0'),
            ('"cubic": "berwald_moor"', '"cubic": {"entries": {"123": 0.5, "123": 0.16666666666666666}}'),
        ],
        ids=["top_level", "cubic_entries"],
    )
    def test_repeated_key_exits_two(self, tmp_path, capsys, original, repeated):
        # json keeps the last of a repeated key; the scenario is refused instead
        text = json.dumps(base_scenario())
        assert original in text
        path = tmp_path / "scenario.json"
        path.write_text(text.replace(original, repeated))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ")
        assert "appears twice" in err


class TestSampling:
    def test_bit_reproducible(self):
        sc = parse_scenario(base_scenario(count=10, seed=123))
        a = sample_points(sc)
        b = sample_points(sc)
        assert a == b

    def test_seed_changes_points(self):
        a = sample_points(parse_scenario(base_scenario(count=5, seed=1)))
        b = sample_points(parse_scenario(base_scenario(count=5, seed=2)))
        assert a != b

    def test_box_respected(self):
        sc = parse_scenario(base_scenario(count=50, seed=5))
        for p in sample_points(sc):
            assert all(0.2 <= v <= 5.0 for v in p.y)
            assert -1.0 <= p.t <= 1.0


class TestRunScenario:
    def test_all_pass_and_structure(self):
        sc = parse_scenario(base_scenario(count=3, seed=9))
        report, ok = run_scenario(sc)
        assert ok
        assert report["schema_version"] == 1
        assert report["summary"]["points_total"] == 3
        assert set(report["summary"]["worst_comparisons"]) == set(COMPARISON_NAMES)
        first = report["points"][0]
        assert set(first["generic"]) == set(COMPARISON_NAMES)
        assert first["closed_form"]["scalar_curvature"] is not None

    def test_pass_fail_derivable_from_numbers(self):
        sc = parse_scenario(base_scenario(count=2, seed=9))
        report, _ = run_scenario(sc)
        for point in report["points"]:
            for row in {**point["comparisons"], **point["identities"]}.values():
                assert row["pass"] == (row["max_rel_dev"] <= row["tolerance"])

    def test_non_bm_cubic_skips_comparisons(self):
        doc = base_scenario(count=2, seed=4)
        doc["cubic"] = {
            "entries": {"123": "1/6", "111": 0.05, "222": 0.05, "333": 0.05}
        }
        report, ok = run_scenario(parse_scenario(doc))
        assert ok
        assert report["summary"]["worst_comparisons"] == {}
        point = report["points"][0]
        assert point["comparisons"] == {}
        assert point["closed_form"] is None
        assert "metric_inverse" in point["identities"]

    def test_domain_error_recorded_not_fatal(self):
        # a cubic that is degenerate at every point: records errors, keeps going
        doc = base_scenario(count=2, seed=4)
        doc["cubic"] = {"entries": {"111": 1.0}}
        report, ok = run_scenario(parse_scenario(doc))
        assert report["summary"]["points_errored"] == 2
        assert all(p["error"] for p in report["points"])
        assert report["summary"]["points_failed"] == 0  # comparisons were skipped
        assert not ok  # but a run that evaluated no point cannot pass

    @staticmethod
    def point_errors(metric, ts, mode, cubic="berwald_moor", x=(0.0, 0.0, 0.0)):
        doc = base_scenario()
        doc.update(temporal_metric=metric, cubic=cubic, derivative_mode=mode)
        doc["points"] = {"explicit": [{"t": t, "x": list(x), "y": [1, 2, 3]} for t in ts]}
        report, ok = run_scenario(parse_scenario(doc))
        assert not ok
        return [p["error"] for p in report["points"]]

    @pytest.mark.parametrize("mode", ("exact", "fd"))
    @pytest.mark.parametrize(
        "metric, ts, exact, fd",
        [
            ("t", (0.0, -0.0, -0.5), [f"NonPositiveMetric: h11 = {t} is not positive" for t in (0.0, -0.0, -0.5)], None),
            ("1/t", (0.0,), ["DomainError: division by a field whose value is zero"], None),
            ("t**-4", (0.0,), ["DomainError: division by a field whose value is zero"], None),
            (
                "1/t", (1e-70,),
                ["DomainError: the reciprocal series of 1e-70 overflows"],
                ["DomainError: no contour radius keeps the field near its value 3.301927248894626e-70"],
            ),
            (
                "t**-4", (1e-70, 1e-50),
                [
                    "DomainError: the reciprocal series of 1e-70 overflows",
                    "DomainError: the reciprocal series of 1.0000000000000005e+200 overflows",
                ],
                [
                    "DomainError: no contour radius keeps the field near its value 3.301927248894626e-280",
                    "DomainError: no contour radius keeps the field near its value 3.3019272488946267e-200",
                ],
            ),
            (
                "1/(1e118*t)", (1e-138,),
                ["NonFiniteOutput: conservation values are not finite (Einstein constant out of range?)"],
                ["DomainError: no contour radius keeps the field near its value 3.3019272488946266e-20"],
            ),
            (
                "exp(1000*t)", (1.0, -1.0, 0.5),
                [
                    "DomainError: 'exp(1000*t)' overflows: math range error",
                    "NonPositiveMetric: h11 = 0.0 is not positive",
                    "DomainError: the reciprocal series of 1.4035922178528375e+217 overflows",
                ],
                [
                    "DomainError: 'exp(1000*t)' overflows: math range error",
                    "NonPositiveMetric: h11 = 0.0 is not positive",
                    "DomainError: the reciprocal series of 2.807184435705675e+217 overflows",
                ],
            ),
        ],
        ids=["t_at_0_or_less", "recip_t_at_0", "t_pow_-4_at_0", "recip_t_at_1e-70", "t_pow_-4_tiny", "recip_1e118_t", "exp_1000_t"],
    )
    def test_time_layer_errors_recorded_on_points(self, metric, ts, exact, fd, mode):
        # where fd is None, both modes record the same error
        want = fd if mode == "fd" and fd is not None else exact
        assert self.point_errors(metric, ts, mode) == want

    @pytest.mark.parametrize("mode", ("exact", "fd"))
    @pytest.mark.parametrize(
        "metric, cubic, t, x1, error",
        [
            ("2 + cos(1e308*10)", "berwald_moor", 0.3, 0.0, "cos"),
            ("exp(2*t)", {"entries": {"123": "1/6 + 0*sin(1e308*x1*10)"}}, 0.3, 0.5, "sin"),
            ("2 + sin(1e300*t*t)", "berwald_moor", 1e10, 0.0, "sin"),
        ],
        ids=["constant_h11", "cubic", "h11_at_t"],
    )
    def test_infinite_angle_recorded_on_points(self, metric, cubic, t, x1, error, mode):
        # math.sin and math.cos raise ValueError at +-inf
        got = self.point_errors(metric, (t,), mode, cubic, (x1, 0.2, 0.3))
        assert got == [f"DomainError: {error} of an infinite value"]

    def test_duplicated_points_keep_earliest_worst_row(self):
        doc = base_scenario()
        point = {"t": 0.3, "x": [0.1, 0.2, 0.3], "y": [0.7, 1.9, 2.6]}
        doc["points"] = {"explicit": [point] * 3}
        report, _ = run_scenario(parse_scenario(doc))
        summary = report["summary"]
        rows = {**summary["worst_comparisons"], **summary["worst_identities"]}
        assert len(rows) > len(COMPARISON_NAMES)
        for row in rows.values():
            assert list(row) == ["max_rel_dev", "tolerance", "point_index", "pass"]
            assert row["point_index"] == 0

    def test_nan_row_fails_the_run(self, tmp_path, capsys, monkeypatch):
        # a NaN in the second pair of the three-pair em_derivatives row fails
        # the row and the run, and is the summary's worst row, at the
        # earliest of the points that share it
        derivatives = ft.em_covariant_derivatives

        def nan_spatial(ctx):
            emd = derivatives(ctx)
            return dataclasses.replace(emd, F_spatial=np.full_like(emd.F_spatial, np.nan))

        monkeypatch.setattr(ft, "em_covariant_derivatives", nan_spatial)
        out = tmp_path / "report.json"
        path = write_scenario(tmp_path, base_scenario(count=2))
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "RESULT: FAIL" in capsys.readouterr().out
        report = json.loads(out.read_text())
        for point in report["points"]:
            row = point["identities"]["em_derivatives"]
            assert math.isnan(row["max_rel_dev"]) and row["pass"] is False
        worst = report["summary"]["worst_identities"]["em_derivatives"]
        assert math.isnan(worst["max_rel_dev"])
        assert (worst["point_index"], worst["pass"]) == (0, False)
        assert report["summary"]["points_failed"] == 2

    def test_canonical_run_passes(self):
        doc = base_scenario(count=3, seed=10)
        doc["connection"] = "canonical"
        report, ok = run_scenario(parse_scenario(doc))
        assert ok
        assert "conservation_law1" not in report["summary"]["worst_identities"]


class TestCliProcess:
    def test_exit_zero_and_report(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(count=2, seed=3))
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert "RESULT: PASS" in proc.stdout
        assert json.loads(out.read_text())["summary"]["all_pass"]

    def test_exit_two_on_config_error(self, tmp_path):
        doc = base_scenario()
        doc["points"]["sampler"]["y_box"] = [-1.0, 5.0]
        path = write_scenario(tmp_path, doc)
        proc = run_cli("run", str(path))
        assert proc.returncode == 2, proc.stderr
        assert "scenario error" in proc.stderr

    @pytest.mark.parametrize(
        "raw",
        [
            b'{"temporal_metric": "\xff"}',
            b"[" * 100_000 + b"]" * 100_000,
            b'{"einstein_constant": 1' + b"0" * 5000 + b"}",
        ],
        ids=["not_utf8", "nested_too_deep", "int_too_long"],
    )
    def test_unreadable_scenario_exits_two(self, tmp_path, raw):
        path = tmp_path / "scenario.json"
        path.write_bytes(raw)
        proc = run_cli("run", str(path), "--out", str(tmp_path / "report.json"))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("scenario error: ")
        assert "Traceback" not in proc.stderr

    def test_unwritable_out_exits_two(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(count=1, seed=3))
        out = tmp_path / "missing" / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith(f"cannot write report {out}: ")
        assert "Traceback" not in proc.stderr
        assert not out.parent.exists()

    def test_exit_one_when_tolerance_impossible(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(count=2, seed=3))
        out = tmp_path / "report.json"
        proc = run_cli(
            "run", str(path), "--out", str(out), "--tolerance-ad", "1e-18"
        )
        assert proc.returncode == 1, proc.stderr
        assert "RESULT: FAIL" in proc.stdout
        report = json.loads(out.read_text())
        assert not report["summary"]["all_pass"]
        assert report["summary"]["points_failed"] > 0

    def test_exit_one_when_every_point_errors(self, tmp_path, capsys):
        # G111 = 6 x1 y1 y2 y3 < 0 at the point, which errors in both
        # derivative modes
        doc = base_scenario()
        doc["cubic"] = {"entries": {"123": "x1"}}
        doc["derivative_mode"] = "fd"
        doc["points"] = {"explicit": [{"t": 0.01, "x": [-0.5, 0, 0], "y": [1, 2, 3]}]}
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "report.json"
        assert main(["run", str(path), "--out", str(out)]) == 1
        assert "RESULT: FAIL" in capsys.readouterr().out
        summary = json.loads(out.read_text())["summary"]
        assert summary["points_errored"] == summary["points_total"] == 1
        assert summary["points_failed"] == 0
        assert not summary["all_pass"]

    def test_default_out_path(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(count=1, seed=3))
        proc = run_cli("run", str(path), cwd=str(tmp_path))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "scenario.report.json").exists()

    def test_overflow_recorded_on_points(self, tmp_path):
        # h11 = exp(1000 t) leaves the double range for most sampled t, and
        # so do the closed forms' powers of y1 = 1e200
        doc = base_scenario(count=6, seed=3)
        doc["temporal_metric"] = "exp(1000*t)"
        doc["points"]["explicit"] = [
            {"t": 1.0, "x": [0, 0, 0], "y": [1, 1, 1]},
            {"t": 0.0, "x": [0, 0, 0], "y": [1e200, 1, 1]},
        ]
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode in (0, 1), proc.stderr
        assert "Traceback" not in proc.stderr
        report = json.loads(out.read_text())
        assert report["summary"]["points_errored"] > 1
        assert report["points"][0]["error"].startswith("DomainError: ")
        assert report["points"][1]["error"] is not None

    @pytest.mark.parametrize(
        "metric, cubic, error",
        [
            ("1e300*1e300", "berwald_moor", "DomainError: h11 = inf is not finite"),
            (
                "1",
                {"entries": {"123": "1e300*1e300"}},
                "DomainError: fractional power of a non-finite",
            ),
        ],
        ids=["h11", "g111"],
    )
    def test_non_finite_value_recorded_on_points(self, tmp_path, metric, cubic, error):
        # finite literals whose product leaves the double range
        for mode in ("exact", "fd"):
            doc = base_scenario(count=2)
            doc.update(temporal_metric=metric, cubic=cubic, derivative_mode=mode)
            out = tmp_path / f"report_{mode}.json"
            proc = run_cli("run", str(write_scenario(tmp_path, doc)), "--out", str(out))
            assert proc.returncode in (0, 1), proc.stderr
            assert "Traceback" not in proc.stderr
            text = out.read_text()
            assert "NaN" not in text and "Infinity" not in text
            report = json.loads(text)
            assert len(report["points"]) == 2
            assert all(pt["error"].startswith(error) for pt in report["points"])

    @pytest.mark.parametrize(
        "K, error",
        [
            (1e-320, "NonFiniteOutput: einstein values are not finite"),
            (1e-308, "NonFiniteOutput: conservation values are not finite"),
            (1e-300, None),
        ],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_field_theory_overflow_recorded_on_point(self, tmp_path, capsys, K, error):
        # a finite nonzero Einstein constant whose field-theory values leave
        # the double range: xi11 ~ 1/K at 1e-320, the conservation terms at
        # 1e-308; the point records the error and fails the run.  At 1e-300
        # the values stay finite and the conservation rows fail on their own.
        doc = json.loads((DATA / "golden_scenario.json").read_text())
        doc["points"] = {"explicit": [{"t": 0.0, "x": [0, 0, 0], "y": [1, 2, 3]}]}
        doc["einstein_constant"] = K
        out = tmp_path / "report.json"
        code = main(["run", str(write_scenario(tmp_path, doc)), "--out", str(out)])
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        report = json.loads(text)
        got = report["points"][0]["error"]
        assert got is None if error is None else got.startswith(error)
        assert code == 1 and "RESULT: FAIL" in capsys.readouterr().out
        summary = report["summary"]
        errored = 0 if error is None else 1
        assert (summary["points_failed"], summary["points_errored"]) == (1, errored)

    def test_fd_reads_no_stencil_past_the_domain_edge(self, tmp_path):
        # G111 = 6 x1 y1 y2 y3 > 0 at x1 = 0.014, but the 4th-order x1
        # stencil of F^2 reaches x1 = -0.002; the metric reads only
        # y-derivatives of F^2, so fd mode never samples that stencil
        reports = {}
        for mode in ("exact", "fd"):
            doc = base_scenario(outputs=("g_lower",))
            doc.update(
                temporal_metric="exp(2*t)",
                cubic={"entries": {"123": "x1"}},
                derivative_mode=mode,
            )
            doc["points"] = {
                "explicit": [{"t": 0.2, "x": [0.014, 0.3, -0.2], "y": [1.1, 0.9, 1.3]}]
            }
            out = tmp_path / f"report_{mode}.json"
            proc = run_cli("run", str(write_scenario(tmp_path, doc)), "--out", str(out))
            assert proc.returncode == 0, proc.stdout + proc.stderr
            reports[mode] = json.loads(out.read_text())["points"][0]
        assert reports["fd"]["error"] is None
        fd = np.array(reports["fd"]["generic"]["g_lower"])
        exact = np.array(reports["exact"]["generic"]["g_lower"])
        assert np.abs(fd - exact).max() <= 1e-5 * np.abs(exact).max()

    def test_fd_mode_exits_zero(self, tmp_path):
        doc = base_scenario(count=2, seed=1)
        doc["derivative_mode"] = "fd"
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        report = json.loads(out.read_text())
        assert report["summary"]["all_pass"] is True
        assert report["summary"]["worst_identities"]["C_trace"]["tolerance"] == 1e-5

    def test_metric_inverse_gate_scales_with_cond(self, tmp_path):
        # a generic cubic's metric with cond(g) ~ 6e3: g g^-1 - I reaches
        # 1.4e-12, above the plain identity tolerance but ~1 cond(g) eps
        doc = base_scenario()
        doc["cubic"] = {
            "entries": {"123": "1/6 + 0.05*x1*x2", "111": "0.3*x1", "223": "0.1*sin(x3)"}
        }
        doc["points"] = {
            "explicit": [
                {
                    "t": -0.473022840446903,
                    "x": [-0.9796942248069354, 0.03814227332876263, -0.91245721251627],
                    "y": [4.330870002717111, 1.6305579227641778, 3.8100049928354904],
                }
            ]
        }
        path = write_scenario(tmp_path, doc)
        out = tmp_path / "report.json"
        proc = run_cli("run", str(path), "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        record = json.loads(out.read_text())["points"][0]
        row = record["identities"]["metric_inverse"]
        cond = np.linalg.cond(np.array(record["generic"]["g_lower"]))
        assert cond > 1e3
        assert row["max_rel_dev"] > 1e-12
        assert row["tolerance"] == 100.0 * cond * np.finfo(float).eps
        assert row["pass"] is True

    def test_seed_override(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(count=2, seed=3))
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        run_cli("run", str(path), "--out", str(out_a), "--seed", "111")
        run_cli("run", str(path), "--out", str(out_b), "--seed", "112")
        a = json.loads(out_a.read_text())
        b = json.loads(out_b.read_text())
        assert a["points"][0]["point"] != b["points"][0]["point"]


class TestDeterminism:
    def test_reports_byte_identical_modulo_wall_time(self, tmp_path):
        path = write_scenario(tmp_path, base_scenario(count=4, seed=77))
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            proc = run_cli("run", str(path), "--out", str(out))
            assert proc.returncode == 0, proc.stderr
            outs.append(json.loads(out.read_text()))
        a, b = (json.dumps(strip_volatile(r), sort_keys=False) for r in outs)
        assert a == b

    def test_golden_report(self, tmp_path):
        sc = load_scenario(str(DATA / "golden_scenario.json"))
        report, ok = run_scenario(sc)
        assert ok
        golden = json.loads((DATA / "golden_report.json").read_text())
        assert json.dumps(strip_volatile(report)) == json.dumps(strip_volatile(golden))

    def test_golden_generic_report(self):
        # a position-dependent cubic, t**2 + 1: pins the generic connection
        # and a nonzero EM 2-form bit for bit; one point has G111 <= 0
        sc = load_scenario(str(DATA / "golden_generic_scenario.json"))
        report, _ = run_scenario(sc)
        golden = json.loads((DATA / "golden_generic_report.json").read_text())
        assert json.dumps(strip_volatile(report)) == json.dumps(strip_volatile(golden))
        assert report["summary"]["points_errored"] == 1
        assert max(abs(v) for row in report["points"][0]["em"]["F_em"] for v in row) > 0.1

    # Identity rows that read the base jets; fd mode gates them at fd_rel.
    JET_ROWS = {
        "metric_inverse", "C_symmetry", "C_y_contraction", "C_trace",
        "S_antisymmetry", "S_equal_fiber_zero",
        "em_antisymmetry", "em_triviality", "em_derivatives",
    }

    @pytest.mark.parametrize("name", ["golden_fd", "golden_fd_generic"])
    def test_golden_fd_report(self, name):
        sc = load_scenario(str(DATA / f"{name}_scenario.json"))
        report, ok = run_scenario(sc)
        golden = json.loads((DATA / f"{name}_report.json").read_text())
        assert json.dumps(strip_volatile(report)) == json.dumps(strip_volatile(golden))
        assert ok and report["summary"]["points_failed"] == 0
        for got, old in zip(report["points"], golden["points"]):
            for row, entry in got["identities"].items():
                expected = (
                    sc.tolerances["fd_rel"]
                    if row in self.JET_ROWS
                    else old["identities"][row]["tolerance"]
                )
                assert entry["tolerance"] == expected, row


class TestFormulaTable:
    def test_table_subcommand(self):
        proc = run_cli("table")
        assert proc.returncode == 0, proc.stderr
        assert "-2/9" in proc.stdout and "1/9" in proc.stdout

    def test_scalar_curvature_entry(self):
        text = print_formula_table()
        assert "Sc = -((4 h11 + kappa^2)/2) G111^(-2/3)" in text

    def test_one_entry_per_closed_form_operation(self):
        ops = [row["operation"] for row in FORMULA_TABLE]
        assert len(ops) == len(set(ops))
        expected = {
            "bm_metric",
            "bm_C",
            "bm_cartan",
            "bm_torsions",
            "bm_S",
            "bm_curvatures",
            "bm_ricci",
            "bm_S_raised",
            "bm_scalar_curvature",
            "einstein_blocks",
            "stress_energy_mixed",
            "conservation_residuals",
            "em_two_form",
        }
        assert set(ops) == expected
        text = print_formula_table()
        assert f"({len(expected)} operations)" in text
        for row in FORMULA_TABLE:
            assert row["source"] in text

    def test_sources_resolve(self):
        # "<module>.<name>[key, ...], .attr, ...": the name imports, each key
        # names a tensor of a ClosedForms, each attribute exists on it
        p = JetPoint.of(0.3, (0.1, 0.2, 0.3), (0.7, 1.9, 2.6))
        cf = ClosedForms(p, TemporalMetric("exp(2*t)"))
        for row in FORMULA_TABLE:
            source = row["source"]
            m = re.fullmatch(r"([\w.]+)(?:\[([\w, ]+)\])?((?:, \.\w+)*)", source)
            assert m, source
            dotted, keys, attrs = m.groups()
            module, _, name = dotted.rpartition(".")
            obj = getattr(importlib.import_module(module), name)
            if keys:
                assert obj is ClosedForms, source
                obj = cf
                for key in keys.split(", "):
                    assert key in cf, source
            for attr in re.findall(r"\.(\w+)", attrs):
                assert hasattr(obj, attr), source

    def test_installed_command(self, capsys):
        # the ``jetfinsler`` command that pyproject.toml installs
        tomllib = pytest.importorskip("tomllib")
        with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
            target = tomllib.load(fh)["project"]["scripts"]["jetfinsler"]
        module, _, name = target.partition(":")
        command = getattr(importlib.import_module(module), name)
        assert command is main
        assert command(["table"]) == 0
        assert capsys.readouterr().out.startswith(
            f"closed-form concordance ({len(FORMULA_TABLE)} operations)\n"
        )

    def test_table_is_stable(self):
        assert print_formula_table() == print_formula_table()


class TestEmOutputs:
    def test_report_em_entries_are_zero(self):
        sc = parse_scenario(base_scenario(count=3, seed=15, outputs=("em",)))
        report, ok = run_scenario(sc)
        assert ok
        for point in report["points"]:
            flat = [v for row in point["em"]["F_em"] for v in row]
            assert max(abs(v) for v in flat) <= 1e-12


def _rel_dev_pair(value, ref) -> float:
    """One pair's deviation, as each comparison row computed it on its own:
    max entrywise deviation over max(|value|, |ref|, 1)."""
    v = np.asarray(value, dtype=float)
    r = np.asarray(ref, dtype=float)
    scale = max(float(np.abs(v).max()), float(np.abs(r).max()), 1.0)
    return float(np.abs(v - r).max() / scale)


def _identity_dev_pair(residual, reference) -> float:
    """One pair's deviation, as each identity row computed it on its own:
    max residual entry over max(|reference|, 1)."""
    res = np.asarray(residual, dtype=float)
    ref = np.asarray(reference, dtype=float)
    scale = max(float(np.abs(ref).max()), 1.0)
    return float(np.abs(res).max() / scale)


def _row_max(devs: list) -> float:
    """A row's deviation from those of its pairs: their max, or the first
    NaN among them."""
    nans = [d for d in devs if math.isnan(d)]
    return nans[0] if nans else max(devs)


def _bits(values) -> list[bytes]:
    return [struct.pack("<d", v) for v in values]


_ENTRIES = st.floats(width=64) | st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1.0, -1e308]
)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=3)


@st.composite
def _value_pairs(draw):
    """Two arrays of one shape (0-d included)."""
    shape = draw(_SHAPES)
    return tuple(draw(hnp.arrays(np.float64, shape, elements=_ENTRIES)) for _ in "vr")


@st.composite
def _residual_pairs(draw):
    """A residual array and a reference: an array of any shape, or 1.0."""
    residual = draw(hnp.arrays(np.float64, _SHAPES, elements=_ENTRIES))
    reference = draw(st.just(1.0) | hnp.arrays(np.float64, _SHAPES, elements=_ENTRIES))
    return residual, reference


def _rows(pairs):
    return st.lists(st.lists(pairs, min_size=1, max_size=4), min_size=1, max_size=5)


class TestBatchedRows:
    """``rel_dev`` and ``identity_dev`` reduce the rows of a point in one pass;
    each row is bit for bit the per-pair definition (the max over the pairs
    of a multi-pair row such as ``euler_chain`` or ``stress_two_path``, NaN
    if one of theirs is NaN)."""

    @given(rows=_rows(_value_pairs()))
    @settings(max_examples=300, deadline=None)
    def test_rel_dev(self, rows):
        with np.errstate(all="ignore"):
            got = rel_dev(rows)
            want = [_row_max([_rel_dev_pair(v, r) for v, r in row]) for row in rows]
        assert _bits(got) == _bits(want)

    @given(rows=_rows(_residual_pairs()))
    @settings(max_examples=300, deadline=None)
    def test_identity_dev(self, rows):
        with np.errstate(all="ignore"):
            got = identity_dev(rows)
            want = [_row_max([_identity_dev_pair(v, r) for v, r in row]) for row in rows]
        assert _bits(got) == _bits(want)

    def test_no_rows(self):
        assert rel_dev([]) == [] and identity_dev([]) == []

    def test_nan_in_a_later_pair(self):
        # Python's max keeps a finite value over a NaN that follows it
        finite, nan = np.array([0.0]), np.array([np.nan])
        for pairs in ([(finite, 1.0), (nan, 1.0)], [(nan, 1.0), (finite, 1.0)]):
            assert math.isnan(identity_dev([pairs])[0])
            assert math.isnan(rel_dev([[(v, finite) for v, _ in pairs]])[0])
        # a NaN row leaves the rows around it as they were
        rows = [[(finite, 1.0)], [(finite, 1.0), (nan, 1.0)], [(finite, 1.0)]]
        first, second, third = identity_dev(rows)
        assert (first, third) == (0.0, 0.0) and math.isnan(second)

    def test_nan_divergence_term(self):
        # _s_raised_divergence_dev takes the worst of three terms: a NaN in
        # the last one is the result
        stack = np.zeros((3, 3, dt.NCOEF[1]))
        stack[2, 2, dt.D1_SLOTS[6]] = np.nan
        point = JetPoint.of(0.0, (0.0, 0.0, 0.0), (1.0, 2.0, 3.0))
        cf = types.SimpleNamespace(s_raised_stack=stack, point=point, g23inv=1.0)
        assert math.isnan(_s_raised_divergence_dev(cf))
        stack[2, 2, dt.D1_SLOTS[6]] = 0.0
        assert _s_raised_divergence_dev(cf) == 2.0 / 3.0
