"""Filtering a full signal with a prepared two-output kernel.

Output pair k comes from the window x[2k .. 2k+m].  When the number of valid
outputs is odd, the signal is completed with a single zero sample and the
last window's second output is discarded, so one uniform kernel serves every
window.

One executor runs each stage once over the whole signal.  Sample j of every
window is the stride-2 column x[j::2], so each ``a_pre`` row is a signed sum
of columns, each diagonal product one vector multiply and each ``a_post`` row
a signed sum of those: P vector multiplies of length ceil((N-m+1)/2) in place
of one Python basic operation per window.  The arithmetic is the kernel's:
float64 arrays in float mode, ``object`` arrays of ``Fraction`` in exact
mode.  The signal enters through ``kernels._coerce``, the one input rule.

Float contract: per element, the executor performs the IEEE operations of
``apply_basic_op`` on that window in the same order, with a - b in place of
a + (-b).  Finite, infinite and signed-zero outputs are therefore
bit-identical to the per-window scalar kernel; a NaN output is NaN at the
same position, but its sign and payload are unspecified.  Overflow and
invalid operations give inf and NaN without warnings, as Python floats do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .kernels import OpCounter, PreparedKernel, _coerce

__all__ = ["fir_filter"]


def _column_sums(rows, columns: list, blank: np.ndarray) -> tuple[list, int]:
    # Signed row sums over whole-signal columns, in ascending column order as
    # apply_basic_op adds them, and the vector additions they took.  a - b
    # equals the scalar kernel's a + (-b) bit for bit outside NaN, and exactly
    # on Fractions.  After the first addition a sum is updated in place; every
    # array returned is new, never a view of ``columns``.  An empty row is a
    # copy of ``blank``, the zero column of the executor's arithmetic.
    sums = []
    adds = 0
    for row in rows:
        if not row:
            sums.append(blank.copy())
            continue
        (j, sign), rest = row[0], row[1:]
        acc = columns[j] if sign > 0 else -columns[j]
        owned = sign < 0
        for j, sign in rest:
            op = np.add if sign > 0 else np.subtract
            acc = op(acc, columns[j], out=acc if owned else None)
            owned = True
            adds += 1
        sums.append(acc if owned else acc.copy())
    return sums, adds


def fir_filter(kernel: PreparedKernel, signal: Sequence,
               counter: OpCounter | None = None) -> list:
    """Compute all N - m + 1 valid outputs via ceil((N-m+1)/2) basic ops.

    Returns a list of Python floats, or of ``Fraction`` in exact mode.
    Raises ValueError when the signal is shorter than the filter and
    TypeError when a sample is not a real number.
    """
    samples = _coerce(signal, kernel.exact)
    m = kernel.plan.m
    n = len(signal)
    if n < m:
        raise ValueError(f"signal has {n} samples, need at least {m}")
    n_out = n - m + 1
    windows = (n_out + 1) // 2
    zero = Fraction(0) if kernel.exact else 0.0
    padded = np.full(2 * windows + m - 1, zero)
    padded[:n] = samples
    columns = [padded[j : j + 2 * windows : 2] for j in range(m + 1)]
    blank = np.full(windows, zero)
    with np.errstate(over="ignore", invalid="ignore"):
        mu, pre_adds = _column_sums(kernel.plan.pre_rows, columns, blank)
        for sk, tk in zip(kernel.s, mu):
            np.multiply(tk, sk, out=tk)  # t_k becomes mu_k = s_k * t_k
        (y0, y1), post_adds = _column_sums(kernel.plan.post_rows, mu, blank)
    if counter is not None:
        counter.pre_adds += pre_adds * windows
        counter.mults += len(mu) * windows
        counter.post_adds += post_adds * windows
    out = np.empty(2 * windows, dtype=padded.dtype)
    out[0::2] = y0
    out[1::2] = y1
    return out[:n_out].tolist()
