import json
import subprocess
import sys
from pathlib import Path

import pytest

from jetfinsler.cli import (
    COMPARISON_NAMES,
    FORMULA_TABLE,
    load_scenario,
    main,
    parse_scenario,
    print_formula_table,
    run_scenario,
    sample_points,
)
from jetfinsler.errors import ConfigError

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
        ],
        ids=[
            "x_scalar", "y_string", "t_string", "y_nan", "y_box_string",
            "t_range_bool", "count_bool", "seed_bool", "seed_negative", "output_list",
            "tolerance_bool", "tolerance_inf", "einstein_bool", "einstein_nan",
            "cubic_entry_bool",
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
        assert ok  # no comparison failed, they were skipped

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
        assert strip_volatile(report) == strip_volatile(golden)

    def test_golden_generic_report(self):
        # a position-dependent cubic, t**2 + 1: pins the generic connection
        # and a nonzero EM 2-form bit for bit; one point has G111 <= 0
        sc = load_scenario(str(DATA / "golden_generic_scenario.json"))
        report, _ = run_scenario(sc)
        golden = json.loads((DATA / "golden_generic_report.json").read_text())
        assert strip_volatile(report) == strip_volatile(golden)
        assert report["summary"]["points_errored"] == 1
        assert max(abs(v) for row in report["points"][0]["em"]["F_em"] for v in row) > 0.1

    # Identity rows that read the base jets; fd mode gates them at fd_rel.
    JET_ROWS = {
        "metric_inverse", "C_symmetry", "C_y_contraction", "C_trace",
        "S_antisymmetry", "S_equal_fiber_zero",
        "em_antisymmetry", "em_triviality", "em_derivatives",
    }
    GATE_KEYS = {"tolerance", "pass", "points_failed", "all_pass"}

    @pytest.mark.parametrize("name", ["golden_fd", "golden_fd_generic"])
    def test_golden_fd_report(self, name):
        # Pinned before fd mode gated its jet rows at fd_rel: every value is
        # unchanged, and only the gate fields differ, as the rule says.
        sc = load_scenario(str(DATA / f"{name}_scenario.json"))
        report, ok = run_scenario(sc)
        golden = json.loads((DATA / f"{name}_report.json").read_text())

        def gate_free(doc):
            if isinstance(doc, dict):
                return {
                    k: gate_free(v) for k, v in doc.items() if k not in self.GATE_KEYS
                }
            if isinstance(doc, list):
                return [gate_free(v) for v in doc]
            return doc

        assert json.dumps(gate_free(strip_volatile(report))) == json.dumps(
            gate_free(strip_volatile(golden))
        )
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
