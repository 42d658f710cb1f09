"""The multiplication kernel of the truncated-polynomial arithmetic.

The single hot kernel is the table-driven multiplication of truncated Taylor
coefficient arrays: ``poly_mul`` scatters the products ``a[ia] * b[ib]`` into
the output slots ``ic``, accumulating each slot from 0.0 in table order.  It
multiplies single series (``Taylor.__mul__``) and stacks of series alike, and
every caller reaches it through this module's attribute, so a profiler can
count all products by replacing ``poly_mul`` here.  Stacks pass the full
table of their order; a ``Taylor`` product passes that table restricted to
the pairs inside the slots its factors depend on (``difftools._mul_table``),
so ``len(ia)`` is the number of multiply-adds a single product makes.
"""

from __future__ import annotations

import numpy as np

_NCOEF1 = 8  # coefficients of an order-1 series in the seven coordinates


def poly_mul(a, b, ia, ib, ic, n):
    """Product of truncated series whose coefficients lie on the last axis;
    leading (tensor) axes of ``a`` and ``b`` are broadcast.

    Every float equals the one of the 1-D product of the two entries.  The
    order-1 table pairs the value of either factor with each coefficient of
    the other, so slot 0 is ``a0*b0 + 0.0`` and slot v is
    ``(a0*b_v + 0.0) + a_v*b0``, computed here with array operations.  At
    other orders one ``bincount`` fills a bin per (entry, slot), each bin
    receiving its terms in table order.
    """
    if a.ndim == 1 and b.ndim == 1:
        return np.bincount(ic, weights=a[ia] * b[ib], minlength=n)
    if n == _NCOEF1:
        out = a[..., :1] * b + 0.0
        out[..., 1:] += a[..., 1:] * b[..., :1]
        return out
    terms = a[..., ia] * b[..., ib]
    entries = terms.size // len(ia)
    bins = (np.arange(0, entries * n, n)[:, None] + ic).ravel()
    out = np.bincount(bins, weights=terms.ravel(), minlength=entries * n)
    return out.reshape(terms.shape[:-1] + (n,))


def current_backend() -> str:
    """The kernel's name, as recorded in a report's ``generator.backend``."""
    return "numpy"
