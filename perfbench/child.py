"""The measured process of the benchmark: one closed-loop unit of work.

    child.py cli <scenario.json> <report.json> <timing.json> <trace 0|1|setup>
    child.py library <points.json> <timing.json> <trace 0|1|setup>

``cli`` runs ``jetfinsler run <scenario> --out <report>`` in this process,
exactly as the console script does.  ``library`` makes the README's library
calls one point at a time: ``PointContext(...).tensor_bundle()`` followed by
``closed_form_bundle(p, tm)``.  With ``setup`` in place of the trace flag the
process stops at the start of its first point: it measures set-up only.

Either way the only hooks installed with tracing off are a clock read at the
start and end of every point.  With tracing on, the public functions of each
module are wrapped from here (the package itself is untouched): each call
becomes a span ``[name, start, end, parent, point]``, kept in memory and
written to ``timing.json`` at exit; ``_backend.poly_mul`` and
``Expression.evaluate`` are only counted, because spans there would cost more
than the work they time.
"""

from __future__ import annotations

import functools
import hashlib
import importlib.util
import json
import sys
import time

now = time.monotonic  # CLOCK_MONOTONIC: comparable with the parent's clock

#: Span name -> (module, attribute) timed in a traced run.
SPANNED = {
    "cli.load_scenario": ("cli", "load_scenario"),
    "cli.sample_points": ("cli", "sample_points"),
    "cli.evaluate_point": ("cli", "evaluate_point"),
    "connection_engine.cartan": ("connection_engine", "PointContext.cartan"),
    "connection_engine.torsions": ("connection_engine", "PointContext.torsions"),
    "connection_engine.curvatures": ("connection_engine", "PointContext.curvatures"),
    "connection_engine.ricci": ("connection_engine", "PointContext.ricci"),
    "connection_engine.scalar_curvature": ("connection_engine", "PointContext.scalar_curvature"),
    "connection_engine.tensor_bundle": ("connection_engine", "PointContext.tensor_bundle"),
    "connection_engine.adapted_derivative": ("connection_engine", "adapted_derivative"),
    "difftools.jet_eval": ("difftools", "jet_eval"),
    "difftools.fd_jet": ("difftools", "fd_jet"),
    "metric_engine.contract_cubic": ("metric_engine", "contract_cubic"),
    "berwald_moor.closed_form_bundle": ("berwald_moor", "closed_form_bundle"),
    "field_theory.einstein_blocks": ("field_theory", "einstein_blocks"),
    "field_theory.stress_energy_mixed": ("field_theory", "stress_energy_mixed"),
    "field_theory.stress_energy_contracted": ("field_theory", "stress_energy_contracted"),
    "field_theory.conservation_residuals": ("field_theory", "conservation_residuals"),
    "field_theory.em_two_form": ("field_theory", "em_two_form"),
    "field_theory.em_covariant_derivatives": ("field_theory", "em_covariant_derivatives"),
}

#: Output length of a product -> truncation order (1/8/36/120/330 coefficients).
_ORDER_OF_NCOEF = {1: 0, 8: 1, 36: 2, 120: 3, 330: 4}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent span index, point index]
        self.stack = []
        self.point = -1
        self.poly_mul = {}  # order -> calls
        self.mul_terms = 0  # multiply-adds, from the lengths of the tables used
        self.evaluate_calls = 0

    def span(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.point]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()

        return wrapper

    def install(self, package):
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == package.__name__]
        for name, (module_name, attr) in SPANNED.items():
            module = sys.modules.get(f"{package.__name__}.{module_name}")
            if module is None:  # the CLI is not imported by library calls
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, meth, self.span(name, getattr(cls, meth)))
                continue
            original = getattr(module, attr)
            wrapped = self.span(name, original)
            # rebind every module-level reference, including `from x import f`
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

        backend = sys.modules[f"{package.__name__}._backend"]
        poly_mul = backend.poly_mul
        counts = self.poly_mul

        def counted_poly_mul(a, b, ia, ib, ic, n):
            order = _ORDER_OF_NCOEF[n]
            counts[order] = counts.get(order, 0) + 1
            self.mul_terms += len(ia)
            return poly_mul(a, b, ia, ib, ic, n)

        backend.poly_mul = counted_poly_mul

        expression = sys.modules[f"{package.__name__}.expressions"].Expression
        evaluate = expression.evaluate

        def counted_evaluate(expr, env):
            self.evaluate_calls += 1
            return evaluate(expr, env)

        expression.evaluate = counted_evaluate

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "poly_mul": {str(k): v for k, v in sorted(self.poly_mul.items())},
            "mul_terms": self.mul_terms,
            "evaluate_calls": self.evaluate_calls,
        }


class SetupDone(BaseException):
    """Raised at the start of the first point of a set-up-only process; a
    BaseException, so that no handler of the package catches it."""


class PointClock:
    """Start and end of every point, plus the point index for the tracer."""

    def __init__(self, tracer, setup_only=False):
        self.starts = []
        self.ends = []
        self.tracer = tracer
        self.setup_only = setup_only

    def wrap(self, fn):
        starts, ends, tracer = self.starts, self.ends, self.tracer

        def timed(*args, **kwargs):
            if tracer is not None:
                tracer.point = len(starts)
            starts.append(now())
            if self.setup_only:
                raise SetupDone
            try:
                return fn(*args, **kwargs)
            finally:
                ends.append(now())

        return timed


def _environment(jetfinsler) -> dict:
    import numpy

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "backend": jetfinsler._backend.current_backend(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
    }


def run_cli(cli, clock, scenario, report) -> dict:
    marks = {}
    run_scenario = cli.run_scenario

    def marked_run_scenario(*args, **kwargs):
        try:
            return run_scenario(*args, **kwargs)
        finally:
            marks["run_scenario_end"] = now()

    cli.evaluate_point = clock.wrap(cli.evaluate_point)
    cli.run_scenario = marked_run_scenario
    rc = cli.main(["run", scenario, "--out", report])
    marks["main_end"] = now()
    return {"rc": rc, **marks}


def run_library(jetfinsler, clock, points_path) -> dict:
    """The README's per-point library calls, checked against the closed forms."""
    from workloads import rel_dev

    with open(points_path, encoding="utf-8") as fh:
        rows = json.load(fh)
    tm = jetfinsler.TemporalMetric("exp(2*t)")
    cubic = jetfinsler.CubicForm.berwald_moor()
    nlc = jetfinsler.NonlinearConnection.apriori(tm)
    points = [jetfinsler.JetPoint.of(r[0], r[1:4], r[4:7]) for r in rows]

    def library_point(p):
        bundle = jetfinsler.PointContext(cubic, tm, nlc, p).tensor_bundle()
        return bundle, jetfinsler.closed_form_bundle(p, tm)

    timed = clock.wrap(library_point)
    digest = hashlib.sha256()
    worst = 0.0
    for p in points:
        bundle, closed = timed(p)
        for name in sorted(closed):
            generic = bundle.array(name)
            worst = max(worst, rel_dev(generic, closed[name]))
            digest.update(generic.astype(float).tobytes())
    return {"rc": 0, "max_rel_dev": worst, "digest": digest.hexdigest()}


def main(argv) -> int:
    mode, *paths, trace = argv
    timing_path = paths[-1]
    import jetfinsler

    if mode == "cli":
        import jetfinsler.cli
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install(jetfinsler)
    clock = PointClock(tracer, setup_only=trace == "setup")
    try:
        if mode == "cli":
            out = run_cli(jetfinsler.cli, clock, paths[0], paths[1])
        elif mode == "library":
            out = run_library(jetfinsler, clock, paths[0])
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    except SetupDone:
        out = {"rc": 0}
    out.update(starts=clock.starts, ends=clock.ends, env=_environment(jetfinsler))
    if tracer is not None:
        out["trace"] = tracer.dump()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return out["rc"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
