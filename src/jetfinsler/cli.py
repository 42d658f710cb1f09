"""Scenario-driven cross-validation driver.

``jetfinsler run scenario.json [--out report.json] [--seed N] [--tolerance-ad X]``
parses a JSON scenario, samples or reads jet points, evaluates the generic and
closed-form engines at each point, compares every requested tensor, checks the
identity suite, writes a machine-readable JSON report and prints a summary.
The process exits 0 only if every recorded deviation is within tolerance
(2 on scenario errors).

``jetfinsler table`` prints the concordance of implemented closed forms with
their source locations.

Reports are deterministic: two runs of the same scenario are byte-identical
except for the ``wall_time_seconds`` field.  Point sampling uses numpy's
seeded PCG64 generator with a fixed draw order, documented in the report
header.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import __version__, _backend
from . import berwald_moor as bm
from . import difftools as dt
from . import field_theory as ft
from .connection_engine import NonlinearConnection, PointContext
from .errors import ConfigError, JetFinslerError, NonFiniteOutput
from .jetspace import CubicForm, JetPoint, TemporalMetric
from .metric_engine import contract_cubic
from .expressions import parse_expression

SCHEMA_VERSION = 1

RNG_DESCRIPTION = (
    "numpy PCG64 bit generator, seeded; draws via numpy.random.Generator.uniform "
    "in fixed order: t[count], x[count,3], y[count,3]"
)

#: Tensors compared entrywise between the generic and closed-form engines.
COMPARISON_NAMES = (
    "g_lower",
    "g_upper",
    "C",
    "L",
    "G_time",
    "P_mixed",
    "P_fiber",
    "R_time",
    "R_hh",
    "P_hv",
    "S_vv",
    "ricci_R",
    "ricci_P",
    "ricci_S",
    "S_raised",
    "scalar_curvature",
)

#: Output groups beyond the core tensor comparisons.
GROUP_NAMES = ("einstein", "stress_energy", "conservation", "em")

_APRIORI_GROUPS = ("einstein", "stress_energy", "conservation")

DEFAULT_TOLERANCES = {"ad_rel": 1e-9, "fd_rel": 1e-5, "identity": 1e-12}

# Fixed tolerances for the two derivative-based identity rows.
TWO_PATH_TOL = 1e-10
S_DIVERGENCE_TOL = 1e-10

# The residual g g^-1 - I of any computed inverse grows like cond(g) eps
# (Higham, Accuracy and Stability of Numerical Algorithms, ch. 14), so the
# metric_inverse row is gated at max(tolerance, 100 cond(g) eps): the plain
# tolerance while cond(g) <= 45, the conditioning bound beyond.
INVERSE_COND_FACTOR = 100.0


def rel_dev(value, ref) -> float:
    """Max entrywise deviation over max(|value|, |ref|, 1)."""
    v = np.asarray(value, dtype=float)
    r = np.asarray(ref, dtype=float)
    scale = max(float(np.abs(v).max()), float(np.abs(r).max()), 1.0)
    return float(np.abs(v - r).max() / scale)


def identity_dev(residual, reference) -> float:
    """Max residual entry over max(|reference|, 1)."""
    res = np.asarray(residual, dtype=float)
    ref = np.asarray(reference, dtype=float)
    scale = max(float(np.abs(ref).max()), 1.0)
    return float(np.abs(res).max() / scale)


def _row(dev: float, tol: float) -> dict:
    """A comparison or identity row of a point record."""
    return {"max_rel_dev": dev, "tolerance": tol, "pass": dev <= tol}


@dataclass
class Scenario:
    temporal_metric: str
    cubic_spec: object               # "berwald_moor" or {"entries": {...}}
    connection: str
    explicit_points: list
    sampler: Optional[dict]
    einstein_constant: float
    derivative_mode: str
    tolerances: dict
    outputs: list

    tm: TemporalMetric = field(repr=False, default=None)
    cubic: CubicForm = field(repr=False, default=None)

    @property
    def engine_tolerance(self) -> float:
        key = "ad_rel" if self.derivative_mode == "exact" else "fd_rel"
        return self.tolerances[key]

    def echo(self) -> dict:
        return {
            "temporal_metric": self.temporal_metric,
            "cubic": self.cubic_spec,
            "connection": self.connection,
            "points": {"explicit": self.explicit_points, "sampler": self.sampler},
            "einstein_constant": self.einstein_constant,
            "derivative_mode": self.derivative_mode,
            "tolerances": self.tolerances,
            "outputs": self.outputs,
        }


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        return False


def _numbers(value, length: int, what: str) -> list[float]:
    """``value`` as floats; it must be a list of ``length`` finite numbers."""
    _require(
        isinstance(value, (list, tuple))
        and len(value) == length
        and all(_is_finite_number(v) for v in value),
        f"{what} must be a list of {length} finite numbers, got {value!r}",
    )
    return [float(v) for v in value]


def parse_scenario(doc: dict, seed_override=None, ad_override=None) -> Scenario:
    _require(isinstance(doc, dict), "scenario must be a JSON object")
    known = {
        "temporal_metric",
        "cubic",
        "connection",
        "points",
        "einstein_constant",
        "derivative_mode",
        "tolerances",
        "outputs",
    }
    unknown = set(doc) - known
    _require(not unknown, f"unknown scenario fields: {sorted(unknown)}")

    metric_src = doc.get("temporal_metric", "1")
    _require(isinstance(metric_src, str), "temporal_metric must be a string")
    tm = TemporalMetric(metric_src)

    cubic_spec = doc.get("cubic", "berwald_moor")
    if cubic_spec == "berwald_moor":
        cubic = CubicForm.berwald_moor()
    elif isinstance(cubic_spec, dict) and "entries" in cubic_spec:
        unknown = set(cubic_spec) - {"entries"}
        _require(not unknown, f"unknown cubic fields: {sorted(unknown)}")
        entries = cubic_spec["entries"]
        _require(
            isinstance(entries, dict) and entries,
            "cubic.entries must be a non-empty mapping",
        )
        components, parsed = {}, {}
        for key, val in entries.items():
            digits = [ch for ch in str(key) if ch.isdigit()]
            _require(
                len(digits) == 3 and all(ch in "123" for ch in digits),
                f"cubic entry key {key!r} must name three indices in 1..3",
            )
            other = components.setdefault(tuple(sorted(digits)), key)
            _require(
                other == key,
                f"cubic entry keys {other!r} and {key!r} name the same component",
            )
            if isinstance(val, str):
                val = parse_expression(val, variables=("x1", "x2", "x3"))
            else:
                _require(
                    _is_finite_number(val),
                    f"cubic entry {key!r} must be a finite number or an expression",
                )
            parsed[key] = val
        cubic = CubicForm.from_entries(parsed)
        cubic_spec = {"entries": {str(k): v for k, v in entries.items()}}
    else:
        raise ConfigError("cubic must be 'berwald_moor' or {'entries': {...}}")

    connection = doc.get("connection", "apriori")
    _require(
        connection in ("apriori", "canonical"),
        "connection must be 'apriori' or 'canonical'",
    )

    points_doc = doc.get("points", {})
    _require(isinstance(points_doc, dict), "points must be an object")
    explicit = points_doc.get("explicit", [])
    _require(isinstance(explicit, list), "points.explicit must be a list")
    norm_explicit = []
    for entry in explicit:
        _require(
            isinstance(entry, dict) and set(entry) == {"t", "x", "y"},
            f"explicit point must have exactly t, x, y: {entry!r}",
        )
        _require(
            _is_finite_number(entry["t"]),
            f"explicit point t must be a finite number: {entry!r}",
        )
        x = _numbers(entry["x"], 3, "explicit point x")
        y = _numbers(entry["y"], 3, "explicit point y")
        _require(min(y) > 0, f"explicit point fiber must be positive: {entry!r}")
        norm_explicit.append({"t": float(entry["t"]), "x": x, "y": y})
    sampler = points_doc.get("sampler")
    if sampler is not None:
        _require(isinstance(sampler, dict), "points.sampler must be an object")
        unknown = set(sampler) - {"count", "seed", "y_box", "t_range", "x_range"}
        _require(not unknown, f"unknown sampler fields: {sorted(unknown)}")
        count = sampler.get("count", 0)
        _require(_is_int(count) and count >= 1, "sampler.count must be an int >= 1")
        seed = sampler.get("seed", 0)
        if seed_override is not None:
            seed = int(seed_override)
        _require(_is_int(seed) and seed >= 0, "sampler.seed must be an int >= 0")
        y_box = _numbers(sampler.get("y_box", [0.2, 5.0]), 2, "sampler.y_box")
        _require(
            0 < y_box[0] < y_box[1],
            "sampler.y_box must be [y_min, y_max] with 0 < y_min < y_max",
        )
        t_range = _numbers(sampler.get("t_range", [-1.0, 1.0]), 2, "sampler.t_range")
        x_range = _numbers(sampler.get("x_range", [-1.0, 1.0]), 2, "sampler.x_range")
        for rng_ in (t_range, x_range):
            _require(
                rng_[0] <= rng_[1] and math.isfinite(rng_[1] - rng_[0]),
                "ranges must be [lo, hi] with lo <= hi and a finite width",
            )
        sampler = {
            "count": count,
            "seed": seed,
            "y_box": y_box,
            "t_range": t_range,
            "x_range": x_range,
        }
    _require(
        norm_explicit or sampler, "points must define explicit entries or a sampler"
    )

    K = doc.get("einstein_constant", 1.0)
    _require(
        _is_finite_number(K) and K != 0,
        "einstein_constant must be a finite nonzero number",
    )

    mode = doc.get("derivative_mode", "exact")
    _require(mode in ("exact", "fd"), "derivative_mode must be 'exact' or 'fd'")

    tol = dict(DEFAULT_TOLERANCES)
    tol_doc = doc.get("tolerances", {})
    _require(isinstance(tol_doc, dict), "tolerances must be an object")
    unknown = set(tol_doc) - set(DEFAULT_TOLERANCES)
    _require(not unknown, f"unknown tolerance fields: {sorted(unknown)}")
    for key, val in tol_doc.items():
        _require(
            _is_finite_number(val) and val > 0,
            f"tolerance {key} must be a finite positive number",
        )
        tol[key] = float(val)
    if ad_override is not None:
        ad = float(ad_override)
        _require(
            math.isfinite(ad) and ad > 0,
            "--tolerance-ad must be a finite positive number",
        )
        tol["ad_rel"] = ad

    outputs = doc.get("outputs", ["all"])
    _require(
        isinstance(outputs, list) and outputs and all(isinstance(o, str) for o in outputs),
        "outputs must be a non-empty list of names",
    )
    valid = set(COMPARISON_NAMES) | set(GROUP_NAMES) | {"all"}
    unknown = set(outputs) - valid
    _require(not unknown, f"unknown outputs: {sorted(unknown)}")
    if "all" in outputs:
        outputs = list(COMPARISON_NAMES) + [
            g
            for g in GROUP_NAMES
            if connection == "apriori" or g not in _APRIORI_GROUPS
        ]
    else:
        for g in _APRIORI_GROUPS:
            _require(
                g not in outputs or connection == "apriori",
                f"output {g!r} is defined only for the apriori connection",
            )
            _require(
                g not in outputs or cubic.is_berwald_moor(),
                f"output {g!r} is defined only for the Berwald-Moor cubic",
            )

    return Scenario(
        temporal_metric=metric_src,
        cubic_spec=cubic_spec,
        connection=connection,
        explicit_points=norm_explicit,
        sampler=sampler,
        einstein_constant=float(K),
        derivative_mode=mode,
        tolerances=tol,
        outputs=list(outputs),
        tm=tm,
        cubic=cubic,
    )


def _unique_keys(pairs: list) -> dict:
    """A JSON object, refused if it names a key twice (``json`` would keep
    the last value without a word)."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} appears twice in one object")
        obj[key] = value
    return obj


def load_scenario(path: str, seed_override=None, ad_override=None) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read scenario {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"scenario {path} is not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"scenario {path} is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # an integer literal of over 4,300 digits, a key repeated in one
        # object, or nesting too deep to parse
        raise ConfigError(f"scenario {path} cannot be parsed: {exc}") from None
    return parse_scenario(doc, seed_override=seed_override, ad_override=ad_override)


def sample_points(scenario: Scenario) -> list[JetPoint]:
    """Explicit points first, then the seeded sample (bit-reproducible)."""
    points = [
        JetPoint.of(e["t"], e["x"], e["y"]) for e in scenario.explicit_points
    ]
    s = scenario.sampler
    if s is not None:
        rng = np.random.Generator(np.random.PCG64(s["seed"]))
        n = s["count"]
        ts = rng.uniform(s["t_range"][0], s["t_range"][1], n)
        xs = rng.uniform(s["x_range"][0], s["x_range"][1], (n, 3))
        ys = rng.uniform(s["y_box"][0], s["y_box"][1], (n, 3))
        points.extend(JetPoint.of(ts[i], xs[i], ys[i]) for i in range(n))
    return points


def _listify(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return float(value)
    return value


def _s_raised_divergence_dev(cf: bm.ClosedForms) -> float:
    """sum_m d S^m11_i / dy_m against (2/3)(1/y_i) G111^(-2/3), via the kernel."""
    s_up = cf.s_raised_stack
    d_y = dt.D1_SLOTS[4:]
    worst = 0.0
    for i in range(3):
        total = sum(float(s_up[m, i, d_y[m]]) for m in range(3))
        ref = (2.0 / 3.0) / cf.point.y[i] * cf.g23inv
        worst = max(worst, abs(total - ref) / max(abs(ref), 1.0))
    return worst


def evaluate_point(scenario: Scenario, p: JetPoint, nlc: NonlinearConnection) -> dict:
    """All requested tensors, comparisons and identity rows at one point."""
    tm = scenario.tm
    cubic = scenario.cubic
    is_bm = cubic.is_berwald_moor()
    tol_engine = scenario.engine_tolerance
    tol_id = scenario.tolerances["identity"]
    tol_ad = scenario.tolerances["ad_rel"]
    # Identity rows that read the base jets (g, C, S_vv, the EM 2-form) carry
    # the jets' truncation error, ~1e-9 in fd mode, so fd mode gates them at
    # fd_rel; rows built from the cubic, closed forms or the exact kernel
    # alone keep their tolerances in both modes.
    if scenario.derivative_mode == "fd":
        tol_jet_id = tol_jet_ad = scenario.tolerances["fd_rel"]
    else:
        tol_jet_id, tol_jet_ad = tol_id, tol_ad

    ctx = PointContext(cubic, tm, nlc, p, deriv_mode=scenario.derivative_mode)
    bundle = ctx.tensor_bundle()
    generic = {name: bundle.array(name) for name in COMPARISON_NAMES}
    closed = bm.closed_form_bundle(p, tm, scenario.connection) if is_bm else None

    requested = [n for n in scenario.outputs if n in COMPARISON_NAMES]
    record = {
        "index": None,
        "point": {"t": p.t, "x": list(p.x), "y": list(p.y)},
        "generic": {n: _listify(generic[n]) for n in requested},
        "closed_form": {n: _listify(closed[n]) for n in requested} if closed else None,
        "comparisons": {},
        "identities": {},
        "error": None,
    }

    if closed is not None:
        for name in requested:
            dev = rel_dev(generic[name], closed[name])
            record["comparisons"][name] = _row(dev, tol_engine)

    def identity(name, dev, tol):
        record["identities"][name] = _row(dev, tol)

    y = np.asarray(p.y)
    cc = contract_cubic(cubic, p)
    euler = max(
        identity_dev(cc.Gi11 @ y - 3.0 * cc.G111, 3.0 * cc.G111),
        identity_dev(cc.Gij1 @ y - 2.0 * cc.Gi11, 2.0 * cc.Gi11),
        identity_dev(y @ cc.Gij1 @ y - 6.0 * cc.G111, 6.0 * cc.G111),
    )
    identity("euler_chain", euler, tol_id)
    g = generic["g_lower"]
    cond_tol = INVERSE_COND_FACTOR * float(np.linalg.cond(g)) * sys.float_info.epsilon
    identity(
        "metric_inverse",
        identity_dev(g @ generic["g_upper"] - np.eye(3), np.eye(3)),
        max(tol_jet_id, cond_tol),
    )
    C = generic["C"]
    identity("C_symmetry", identity_dev(C - C.transpose(0, 2, 1), C), tol_jet_id)
    identity(
        "C_y_contraction", identity_dev(np.einsum("ijm,m->ij", C, y), C), tol_jet_id
    )
    S = generic["S_vv"]
    identity(
        "S_antisymmetry", identity_dev(S + S.transpose(0, 1, 3, 2), S), tol_jet_id
    )
    identity(
        "S_equal_fiber_zero",
        identity_dev(np.einsum("lijj->lij", S), S),
        tol_jet_id,
    )
    if is_bm:
        identity("C_trace", identity_dev(np.einsum("mjm->j", C), C), tol_jet_id)
        s_up = closed["S_raised"]
        identity(
            "S_raised_contraction",
            identity_dev(np.einsum("mr,rim->i", s_up, closed["C"]), s_up),
            tol_id,
        )
        identity(
            "S_raised_divergence", _s_raised_divergence_dev(closed), S_DIVERGENCE_TOL
        )

    if is_bm and {"einstein", "stress_energy"} & set(scenario.outputs):
        blocks = ft.einstein_blocks(closed, scenario.einstein_constant)

    if is_bm and "einstein" in scenario.outputs:
        record["einstein"] = {
            "xi11": blocks.xi11,
            "T_11": blocks.T_11,
            "T_ij": _listify(blocks.T_ij),
            "T_fiber": _listify(blocks.T_fiber),
            "t_spatial_fiber": _listify(blocks.t_spatial_fiber),
            "t_fiber_spatial": _listify(blocks.t_fiber_spatial),
        }
        sym = max(
            identity_dev(blocks.T_ij - blocks.T_ij.T, blocks.T_ij),
            identity_dev(
                blocks.t_spatial_fiber - blocks.t_fiber_spatial, blocks.T_ij
            ),
        )
        identity("einstein_symmetry", sym, tol_id)

    if is_bm and {"stress_energy", "conservation"} & set(scenario.outputs):
        se = ft.stress_energy_mixed(closed, scenario.einstein_constant)

    if is_bm and "stress_energy" in scenario.outputs:
        sec = ft.stress_energy_contracted(blocks, closed)
        two_path = max(
            rel_dev(getattr(se, name), getattr(sec, name))
            for name in ("tt", "st", "ft", "ts", "ss", "fs", "tf", "sf", "ff")
        )
        record["stress_energy"] = {
            "tt": se.tt,
            "ss": _listify(se.ss),
            "fs": _listify(se.fs),
            "sf": _listify(se.sf),
            "ff": _listify(se.ff),
        }
        identity("stress_two_path", two_path, TWO_PATH_TOL)

    if is_bm and "conservation" in scenario.outputs:
        cons = ft.conservation_residuals(se, closed, scenario.einstein_constant)
        record["conservation"] = {
            "law1_lhs": cons.law1_lhs,
            "law1_rhs": cons.law1_rhs,
            "law2_lhs": _listify(cons.law2_lhs),
            "law3_lhs": _listify(cons.law3_lhs),
        }
        identity(
            "conservation_law1",
            abs(cons.law1_lhs - cons.law1_rhs) / max(abs(cons.law1_rhs), 1.0),
            tol_ad,
        )
        identity("conservation_law2", identity_dev(cons.law2_lhs, 1.0), tol_ad)
        identity("conservation_law3", identity_dev(cons.law3_lhs, 1.0), tol_ad)

    if "em" in scenario.outputs:
        em = ft.em_two_form(ctx)
        record["em"] = {
            "F_em": _listify(em.F_em),
            "D_bar": _listify(em.D_bar),
            "D": _listify(em.D),
            "d_em": _listify(em.d_em),
        }
        identity(
            "em_antisymmetry", identity_dev(em.F_em + em.F_em.T, em.d_em), tol_jet_id
        )
        if is_bm:
            identity("em_triviality", identity_dev(em.F_em, 1.0), tol_jet_id)
            emd = ft.em_covariant_derivatives(ctx)
            dev = max(
                identity_dev(emd.F_time, 1.0),
                identity_dev(emd.F_spatial, 1.0),
                identity_dev(emd.F_fiber, 1.0),
            )
            identity("em_derivatives", dev, tol_jet_ad)

    return record


def run_scenario(scenario: Scenario) -> tuple[dict, bool]:
    """Evaluate all points; returns (report, all_pass)."""
    start = time.perf_counter()
    if scenario.connection == "canonical":
        nlc = NonlinearConnection.canonical(scenario.tm)
    else:
        nlc = NonlinearConnection.apriori(scenario.tm)
    points = sample_points(scenario)
    records = []
    worst = {"comparisons": {}, "identities": {}}
    failed = 0
    errored = 0
    for idx, p in enumerate(points):
        try:
            record = evaluate_point(scenario, p, nlc)
            record["index"] = idx
        except (JetFinslerError, ArithmeticError) as exc:
            record = {
                "index": idx,
                "point": {"t": p.t, "x": list(p.x), "y": list(p.y)},
                "error": f"{type(exc).__name__}: {exc}",
            }
            records.append(record)
            errored += 1
            # a non-finite field theory fails the point, as its rows would
            failed += isinstance(exc, NonFiniteOutput)
            continue
        point_fail = False
        for section, worst_rows in worst.items():
            for name, row in record[section].items():
                best = worst_rows.get(name)
                if best is None or row["max_rel_dev"] > best["max_rel_dev"]:
                    worst_rows[name] = {
                        "max_rel_dev": row["max_rel_dev"],
                        "tolerance": row["tolerance"],
                        "point_index": idx,
                        "pass": row["pass"],
                    }
                point_fail = point_fail or not row["pass"]
        if point_fail:
            failed += 1
        records.append(record)

    # a run in which every point errored compared nothing, so it cannot pass
    all_pass = failed == 0 and errored < len(points)
    report = {
        "schema_version": SCHEMA_VERSION,
        "generator": {
            "package": "jetfinsler",
            "version": __version__,
            "backend": _backend.current_backend(),
            "derivative_mode": scenario.derivative_mode,
            "rng": RNG_DESCRIPTION,
        },
        "scenario": scenario.echo(),
        "points": records,
        "summary": {
            "points_total": len(points),
            "points_failed": failed,
            "points_errored": errored,
            "worst_comparisons": dict(sorted(worst["comparisons"].items())),
            "worst_identities": dict(sorted(worst["identities"].items())),
            "all_pass": all_pass,
        },
        "wall_time_seconds": time.perf_counter() - start,
    }
    return report, all_pass


# -- the closed-form concordance ------------------------------------------------

FORMULA_TABLE = (
    {
        "operation": "bm_metric",
        "source": "jetfinsler.berwald_moor.ClosedForms[g_lower, g_upper]",
        "formulas": [
            "g_ij = ((2 - 3 delta_ij)/9) G111^(2/3) / (y_i y_j)",
            "g^jk = (2 - 3 delta^jk) G111^(-2/3) y_j y_k",
        ],
    },
    {
        "operation": "bm_C",
        "source": "jetfinsler.berwald_moor.ClosedForms[C]",
        "formulas": [
            "C^i_j(k) = A^i_jk y_i / (y_j y_k)",
            "A^i_jk = -2/9 (indices all distinct), 1/9 (exactly two equal), -2/9 (all equal)",
        ],
    },
    {
        "operation": "bm_cartan",
        "source": "jetfinsler.berwald_moor.ClosedForms[G_time, L], .kappa",
        "formulas": [
            "kappa = (h^11/2) dh11/dt",
            "G^k_j1 = 0",
            "L^i_jk = (kappa/2) C^i_j(k)",
        ],
    },
    {
        "operation": "bm_torsions",
        "source": "jetfinsler.berwald_moor.ClosedForms[P_mixed, P_fiber, R_time]",
        "formulas": [
            "P^(k)_(1)i(j) = -(kappa/2) C^k_i(j)",
            "P^k_i(j) = C^k_i(j)",
            "R^(k)_(1)1j = (1/2)(dkappa/dt - kappa^2) delta^k_j",
        ],
    },
    {
        "operation": "bm_S",
        "source": "jetfinsler.berwald_moor.ClosedForms[S_vv]",
        "formulas": [
            "S^l_i(i)(k) = -(1/9) y_l / (y_i^2 y_k)   [i, k, l distinct]",
            "S^l_i(j)(i) = +(1/9) y_l / (y_i^2 y_j)   [i, j, l distinct]",
            "S^i_i(j)(k) = 0                          [i, j, k distinct]",
            "S^l_i(l)(k) = +1/(9 y_i y_k)             [i, k, l distinct]",
            "S^l_i(j)(l) = -1/(9 y_i y_j)             [i, j, l distinct]",
            "S^l_i(i)(l) = +1/(9 y_i^2)               [i != l]",
            "S^l_i(l)(i) = -1/(9 y_i^2)               [i != l]",
            "S^l_l(l)(k) = 0                          [k != l]",
            "S^l_l(j)(l) = 0                          [j != l]",
        ],
    },
    {
        "operation": "bm_curvatures",
        "source": "jetfinsler.berwald_moor.ClosedForms[R_hh, P_hv]",
        "formulas": [
            "R^l_ijk = (kappa^2/4) S^l_i(j)(k)",
            "P^l_ij(k) = (kappa/2) S^l_i(j)(k)",
        ],
    },
    {
        "operation": "bm_ricci",
        "source": "jetfinsler.berwald_moor.ClosedForms[ricci_S, ricci_R, ricci_P]",
        "formulas": [
            "S_(i)(j) = ((3 delta_ij - 1)/9) / (y_i y_j)",
            "R_ij = (kappa^2/4) S_(i)(j)",
            "P_i(j) = (kappa/2) S_(i)(j)",
        ],
    },
    {
        "operation": "bm_S_raised",
        "source": "jetfinsler.berwald_moor.ClosedForms[S_raised], .s_raised_stack",
        "formulas": [
            "S^m11_i = G111^(-2/3) ((1 - 3 delta^m_i)/3) y_m / y_i",
        ],
    },
    {
        "operation": "bm_scalar_curvature",
        "source": "jetfinsler.berwald_moor.ClosedForms[scalar_curvature]",
        "formulas": [
            "Sc = -((4 h11 + kappa^2)/2) G111^(-2/3)",
        ],
    },
    {
        "operation": "einstein_blocks",
        "source": "jetfinsler.field_theory.einstein_blocks",
        "formulas": [
            "xi11 = (4 h11 + kappa^2) / (4 K)",
            "T_11 = xi11 G111^(-2/3) h11",
            "T_ij = (kappa^2/(4K)) S_(i)(j) + xi11 G111^(-2/3) g_ij",
            "T^(1)(1)_(i)(j) = (1/K) S_(i)(j) + xi11 G111^(-2/3) h^11 g_ij",
            "T_1i = T_i1 = T^(1)_(i)1 = T^(1)_1(i) = 0",
            "T^(1)_i(j) = T^(1)_(i)j = (kappa/(2K)) S_(i)(j)",
        ],
    },
    {
        "operation": "stress_energy_mixed",
        "source": "jetfinsler.field_theory.stress_energy_mixed",
        "formulas": [
            "T^1_1 = xi11 G111^(-2/3)",
            "T^m_1 = T^(m)_(1)1 = T^1_i = T^1(1)_(i) = 0",
            "T^m_i = (kappa^2/(4K)) S^m11_i + xi11 G111^(-2/3) delta^m_i",
            "T^(m)_(1)i = (h11 kappa/(2K)) S^m11_i",
            "T^m(1)_(i) = (kappa/(2K)) S^m11_i",
            "T^(m)(1)_(1)(i) = (h11/K) S^m11_i + xi11 G111^(-2/3) delta^m_i",
        ],
    },
    {
        "operation": "conservation_residuals",
        "source": "jetfinsler.field_theory.conservation_residuals",
        "formulas": [
            "law1 rhs = ((h^11)^2/(16K)) dh11/dt [2 d2h11/dt2 - (3/h11)(dh11/dt)^2] G111^(-2/3)",
            "law2 lhs = law3 lhs = 0",
        ],
    },
    {
        "operation": "em_two_form",
        "source": "jetfinsler.field_theory.em_two_form",
        "formulas": [
            "F^(1)_(i)j = (h^11/2)[g_jm N^m_i - g_im N^m_j + (g_ir L^r_jm - g_jr L^r_im) y^m]",
            "Dbar^(1)_(i)1 = (h^11/2) (delta g_im/delta t) y^m",
            "D^(1)_(i)j = h^11 g_ip [-N^p_j + L^p_jm y^m]",
            "d^(1)(1)_(i)(j) = h^11 [g_ij + g_ip C^p_m(j) y^m]",
            "Berwald-Moor: F = 0",
        ],
    },
)


def print_formula_table() -> str:
    """Stable text concordance: every closed form with its source location."""
    lines = [f"closed-form concordance ({len(FORMULA_TABLE)} operations)", ""]
    for row in FORMULA_TABLE:
        lines.append(f"{row['operation']}  [{row['source']}]")
        for f in row["formulas"]:
            lines.append(f"    {f}")
        lines.append("")
    return "\n".join(lines)


# -- entry point -----------------------------------------------------------------


def _summary_lines(report: dict) -> list[str]:
    s = report["summary"]
    lines = [
        f"points: {s['points_total']} "
        f"(failed {s['points_failed']}, errored {s['points_errored']})"
    ]
    for section in ("worst_comparisons", "worst_identities"):
        for name, row in s[section].items():
            mark = "ok" if row["pass"] else "FAIL"
            lines.append(
                f"  {name:24s} worst {row['max_rel_dev']:.3e} "
                f"tol {row['tolerance']:.1e}  {mark}"
            )
    lines.append("RESULT: " + ("PASS" if s["all_pass"] else "FAIL"))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jetfinsler",
        description="cross-validate the generic and closed-form geometry engines",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run a scenario and write a report")
    run_p.add_argument("scenario", help="path to the scenario JSON file")
    run_p.add_argument("--out", help="report path (default: <scenario>.report.json)")
    run_p.add_argument("--seed", type=int, default=None, help="override sampler seed")
    run_p.add_argument(
        "--tolerance-ad",
        type=float,
        default=None,
        help="override the exact-path comparison tolerance",
    )
    sub.add_parser("table", help="print the closed-form concordance")
    args = parser.parse_args(argv)

    if args.command == "table":
        print(print_formula_table())
        return 0

    try:
        scenario = load_scenario(
            args.scenario, seed_override=args.seed, ad_override=args.tolerance_ad
        )
    except ConfigError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    report, all_pass = run_scenario(scenario)
    out_path = args.out
    if out_path is None:
        base = args.scenario
        if base.endswith(".json"):
            base = base[: -len(".json")]
        out_path = base + ".report.json"
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        print(f"cannot write report {out_path}: {exc}", file=sys.stderr)
        return 2
    for line in _summary_lines(report):
        print(line)
    print(f"report written to {out_path}")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
