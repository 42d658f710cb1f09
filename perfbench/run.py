"""jetfinsler benchmark: workload loop, output checks and metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  The load is a closed loop with one caller:
each measured process (one ``jetfinsler run``, or one process making library
calls point by point) is spawned only after the previous one has exited, until
``--seconds`` have passed.  Every report is checked against oracles of the
benchmark's own (see ``workloads.py``) and against the first report of the run
for byte identity.  ``--trace 0`` prints the end-to-end metrics, and times
set-up also in set-up-only processes between the measured ones; ``--trace 1``
alternates untraced and traced processes and prints the per-layer metrics.
The last line of standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one process, no extra threads, for parent and child

from child import SPANNED  # noqa: E402
from workloads import LIBRARY_TOL, WORKLOADS, check_report, make_inputs  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench_work"
CHILD_TIMEOUT_S = 60
SETUP_PROBES = 3  # set-up-only processes after each untraced measured process
now = time.monotonic

#: The metrics of the result, with their units, as BENCHMARK.json declares them.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Printed with the end-to-end metrics, like error_share and fail_share, but
#: left out of the result: these medians spread from run to run by more than
#: any bound the benchmark may set (see README, Noise).
UNBOUNDED = {"run_s": "s", "points_per_s": "1/s", "point_ms_p50": "ms"}

#: Spanned layers reported as calls and self time per point; the CLI's own
#: spans are reported per phase instead.
LAYERS = tuple(name for name in SPANNED if not name.startswith("cli."))

UNITS = {**END_TO_END, **UNBOUNDED, **PER_LAYER}

_WALL_TIME_LINE = re.compile(rb'\n  "wall_time_seconds": [^\n]*')


class BenchError(Exception):
    """The measured program could not be run; no result is printed."""


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def spawn(argv, env, stderr_path) -> dict:
    """Run one measured process; wall time spawn-to-exit and its own peak RSS."""
    with open(stderr_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _alarm)
        t0 = now()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=env)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            t1 = now()
        except BaseException as exc:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            if isinstance(exc, _Timeout):
                raise BenchError(f"measured process exceeded {CHILD_TIMEOUT_S} s") from None
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "t0": t0,
        "run_s": t1 - t0,
        "exit": proc.returncode,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def child_argv(workload, work: Path, timing: Path, flag: str) -> list:
    if workload.kind == "cli":
        return [sys.executable, str(CHILD), "cli", str(work / "scenario.json"),
                str(work / "report.json"), str(timing), flag]
    return [sys.executable, str(CHILD), "library", str(work / "points.json"), str(timing), flag]


def measure_setup(workload, work: Path, env) -> float:
    """One set-up-only process: seconds from its spawn to its first point."""
    timing = work / "timing.json"
    timing.unlink(missing_ok=True)
    proc = spawn(child_argv(workload, work, timing, "setup"), env, work / "stderr.txt")
    if proc["exit"] != 0 or not timing.is_file():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"set-up process exited {proc['exit']}:\n{tail}")
    return json.loads(timing.read_text())["starts"][0] - proc["t0"]


def measure(workload, inputs, work: Path, traced: bool, env) -> dict:
    """One measured process, its timings and the problems its output check found."""
    timing = work / "timing.json"
    timing.unlink(missing_ok=True)
    argv = child_argv(workload, work, timing, "1" if traced else "0")
    proc = spawn(argv, env, work / "stderr.txt")
    if proc["exit"] not in (0, 1) or not timing.is_file():
        tail = (work / "stderr.txt").read_text(errors="replace")[-2000:]
        raise BenchError(f"measured process exited {proc['exit']}:\n{tail}")
    out = json.loads(timing.read_text())
    starts, ends = out["starts"], out["ends"]
    if not starts or out["rc"] != proc["exit"]:
        raise BenchError(f"measured process made {len(starts)} points, exit {proc['exit']}")
    m = {
        **proc,
        "traced": traced,
        "env": out["env"],
        "trace": out.get("trace"),
        "points": len(starts),
        "setup_s": starts[0] - proc["t0"],
        "points_per_s": len(starts) / (ends[-1] - starts[0]),
        "point_ms": [(e - s) * 1e3 for s, e in zip(starts, ends)],
        "errored": 0,
        "report_failed": 0,
    }
    if workload.kind == "cli":
        raw = (work / "report.json").read_bytes()
        try:
            doc = json.loads(raw)
            m["problems"] = check_report(workload, inputs["rows"], doc, proc["exit"])
            m["errored"] = doc["summary"]["points_errored"]
            m["report_failed"] = doc["summary"]["points_failed"]
        except (KeyError, TypeError, ValueError) as exc:
            m["problems"] = [f"malformed report: {type(exc).__name__}: {exc}"]
        m["digest"] = hashlib.sha256(_WALL_TIME_LINE.sub(b"", raw)).hexdigest()
        m["report_bytes"] = len(raw)
        m["report_write_s"] = out["main_end"] - out["run_scenario_end"]
    else:
        m["problems"] = []
        if not out["max_rel_dev"] <= LIBRARY_TOL:
            m["problems"].append(
                f"tensor_bundle vs closed_form_bundle {out['max_rel_dev']:.3e} > {LIBRARY_TOL:.0e}"
            )
        m["digest"] = out["digest"]
    if traced:
        shutil.copyfile(timing, WORK / f"spans-{workload.name}.json")
    return m


def layer_metrics(traced: list, untraced: list, runs: list) -> dict:
    """Per-layer metrics from the traced processes of a run."""
    points = sum(m["points"] for m in traced)
    calls, poly = Counter(), Counter()
    self_ms = defaultdict(list)  # layer -> self ms per point, one per process
    once_ms = defaultdict(list)  # cli.load_scenario / sample_points, per process
    terms = evaluates = 0
    for m in traced:
        spans = m["trace"]["spans"]
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _point in spans:
            if parent >= 0:
                child_s[parent] += end - start
        own = defaultdict(float)
        for (name, start, end, _parent, _point), kids in zip(spans, child_s):
            calls[name] += 1
            own[name] += end - start - kids
        for name in (*LAYERS, "cli.evaluate_point"):
            self_ms[name].append(own[name] * 1e3 / m["points"])
        for name in ("cli.load_scenario", "cli.sample_points"):
            once_ms[name].append(own[name] * 1e3)
        poly.update({int(k): v for k, v in m["trace"]["poly_mul"].items()})
        terms += m["trace"]["mul_terms"]
        evaluates += m["trace"]["evaluate_calls"]
    base = statistics.median(m["run_s"] for m in untraced)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls_per_pt"] = calls[layer] / points
        out[f"{layer}.self_ms_per_pt"] = statistics.median(self_ms[layer])
    for k in range(5):
        out[f"backend.poly_mul.calls_per_pt.o{k}"] = poly[k] / points
    out["backend.mul_terms_per_pt"] = terms / points
    out["expressions.Expression.evaluate.calls_per_pt"] = evaluates / points
    out["cli.load_scenario_ms"] = statistics.median(once_ms["cli.load_scenario"])
    out["cli.sample_points_ms"] = statistics.median(once_ms["cli.sample_points"])
    out["cli.evaluate_point.self_ms_per_pt"] = statistics.median(self_ms["cli.evaluate_point"])
    out["cli.report_write_s"] = statistics.median(m.get("report_write_s", 0.0) for m in runs)
    out["cli.report_bytes_per_pt"] = statistics.median(
        m.get("report_bytes", 0) / m["points"] for m in runs
    )
    out.update(shares(runs))
    out["trace_overhead"] = statistics.median(m["run_s"] for m in traced) / base
    out["trace_overhead.base_run_s"] = base
    return out


def shares(runs) -> dict:
    """Points recorded with an error, and points the report marks failed plus
    every point of a run that failed the output check, over points attempted."""
    attempted = sum(m["points"] for m in runs)
    failed = sum(m["points"] if m["problems"] else m["report_failed"] for m in runs)
    return {
        "error_share": sum(m["errored"] for m in runs) / attempted,
        "fail_share": failed / attempted,
    }


def end_to_end_metrics(untraced: list, setups: list) -> dict:
    point_ms = [x for m in untraced for x in m["point_ms"]]
    return {
        "setup_s": statistics.median(setups + [m["setup_s"] for m in untraced]),
        "point_ms_p90": statistics.quantiles(point_ms, n=10)[8],
        "peak_rss_mb": statistics.median(m["peak_rss_mb"] for m in untraced),
    }


def unbounded_metrics(untraced: list) -> dict:
    return {
        "run_s": statistics.median(m["run_s"] for m in untraced),
        "points_per_s": statistics.median(m["points_per_s"] for m in untraced),
        "point_ms_p50": statistics.median(x for m in untraced for x in m["point_ms"]),
    }


def stamp(runs) -> dict:
    """Where the numbers come from.  Numbers from two kernel backends are
    never comparable."""
    revision = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        revision = done.stdout.strip() or revision
    envs = {json.dumps(m["env"], sort_keys=True) for m in runs}
    if len(envs) != 1:
        raise BenchError(f"measured processes ran in different environments: {envs}")
    return {**runs[0]["env"], "nproc": len(os.sched_getaffinity(0)), "git_revision": revision}


def run(workload, seed: int, seconds: float, trace: bool, work: Path) -> tuple:
    """Closed loop of measured processes until ``seconds`` have passed.  An
    untraced run follows each measured process with SETUP_PROBES set-up-only
    processes, so that set-up is timed many times across the whole run."""
    inputs = make_inputs(workload, seed)
    if workload.kind == "cli":
        (work / "scenario.json").write_text(json.dumps(inputs["scenario"]))
    else:
        (work / "points.json").write_text(json.dumps(inputs["points"]))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    modes = (False, True) if trace else (False,)
    runs, setups = [], []
    deadline = now() + seconds
    while not runs or now() < deadline:
        for traced in modes:
            m = measure(workload, inputs, work, traced, env)
            if m["digest"] != (runs[0] if runs else m)["digest"]:
                m["problems"].append("output differs from the run's first (wall time aside)")
            runs.append(m)
        if not trace:
            setups += [measure_setup(workload, work, env) for _ in range(SETUP_PROBES)]
    return runs, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "jetfinsler" / "__init__.py").is_file():
        print(f"benchmark error: no jetfinsler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK))
    try:
        runs, setups = run(workload, args.seed, args.seconds, bool(args.trace), work)
        info = stamp(runs)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [m for m in runs if not m["traced"]]
    traced = [m for m in runs if m["traced"]]
    problems = [p for m in runs for p in m["problems"]]
    if args.trace:
        values, declared = layer_metrics(traced, untraced, runs), PER_LAYER
    else:
        values, declared = end_to_end_metrics(untraced, setups), END_TO_END
    if set(values) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(declared))} computed "
                           "but not declared in BENCHMARK.json, or the reverse")

    print(f"workload {workload.name} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced processes, {workload.points} points each")
    print("stamp " + json.dumps(info, sort_keys=True))
    print(f"point latency samples: {sum(m['points'] for m in untraced)}, "
          f"set-up samples: {len(setups) + len(untraced)}")
    shown = values if args.trace else {**values, **unbounded_metrics(untraced), **shares(runs)}
    for name, value in shown.items():
        print(f"  {name:48s} {value:14.6g} {UNITS[name]}")
    for problem in problems[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(m["points"] for m in runs),
        "failed": sum(m["points"] for m in runs if m["problems"]),
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
