"""The multiplication kernel of the truncated-polynomial arithmetic.

The single hot kernel is the table-driven multiplication of truncated Taylor
coefficient arrays: ``poly_mul`` scatters the products ``a[ia] * b[ib]`` into
the output slots ``ic`` with one ``numpy.bincount``, accumulating them in
table order.  ``Taylor.__mul__`` calls it through this module's attribute, so
a profiler can count products by replacing ``poly_mul`` here.
"""

from __future__ import annotations

import numpy as np


def poly_mul(a, b, ia, ib, ic, n):
    return np.bincount(ic, weights=a[ia] * b[ib], minlength=n)


def current_backend() -> str:
    """The kernel's name, as recorded in a report's ``generator.backend``."""
    return "numpy"
