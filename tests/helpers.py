"""Shared test utilities: the independent finite-difference oracle, the
per-entry raised vertical Ricci tensor and the environment for CLI
subprocesses."""

from __future__ import annotations

import os
from pathlib import Path

import jetfinsler
from jetfinsler import difftools as dt
from jetfinsler.difftools import PartialSpec


def subprocess_env() -> dict[str, str]:
    """Environment for a child ``python -m jetfinsler.cli``.

    The directory holding the ``jetfinsler`` package this process imported
    goes first on ``PYTHONPATH``, and every inherited entry follows, made
    absolute against the current directory. The child then runs the same code
    as the in-process tests whatever its ``cwd``, also when the suite was
    launched with a relative ``PYTHONPATH=src``.
    """
    env = dict(os.environ)
    package_root = str(Path(jetfinsler.__file__).resolve().parents[1])
    inherited = [
        os.path.abspath(entry)
        for entry in env.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    env["PYTHONPATH"] = os.pathsep.join([package_root, *inherited])
    return env


def central_difference(field, coords, spec, step=1e-5):
    """Plain second-order central differences, orders 1 and 2 only.

    Kept deliberately independent of the package's differentiation paths: it
    evaluates the field at shifted float coordinates and nothing else.
    """
    spec = PartialSpec.coerce(spec)
    coords = tuple(float(v) for v in coords)
    idx = spec.indices
    if len(idx) == 1:
        return (_shift(field, coords, {idx[0]: step}) -
                _shift(field, coords, {idx[0]: -step})) / (2 * step)
    if len(idx) == 2 and idx[0] == idx[1]:
        v = idx[0]
        return (
            _shift(field, coords, {v: step})
            - 2.0 * field(*coords)
            + _shift(field, coords, {v: -step})
        ) / step**2
    if len(idx) == 2:
        a, b = idx
        return (
            _shift(field, coords, {a: step, b: step})
            - _shift(field, coords, {a: step, b: -step})
            - _shift(field, coords, {a: -step, b: step})
            + _shift(field, coords, {a: -step, b: -step})
        ) / (4 * step**2)
    raise ValueError("central_difference supports orders 1 and 2 only")


def _shift(field, coords, offsets):
    shifted = list(coords)
    for v, d in offsets.items():
        shifted[v] += d
    return field(*shifted)


def s_raised(m: int, i: int, y):
    """S^{m(1)(1)}_{(1)(i)}, the raised vertical Ricci tensor of the
    Berwald-Moor metric, entry by entry on fiber components given as floats
    or Taylor values (0-based m, i): the reference of the stacked series."""
    d = 3.0 if m == i else 0.0
    return dt.powf(y[0] * y[1] * y[2], -2.0 / 3.0) * ((1.0 - d) / 3.0) * y[m] / y[i]
