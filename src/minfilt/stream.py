"""Filtering a full signal with a prepared two-output kernel.

Output pair k comes from the window x[2k .. 2k+m].  When the number of valid
outputs is odd, the signal is completed with a single zero sample and the
last window's second output is discarded, so one uniform kernel serves every
window.  There are two executors of the same stages:

* float mode runs each stage once over the whole signal.  Sample j of every
  window is the stride-2 column x[j::2], so each ``a_pre`` row is a signed
  sum of columns, each diagonal product one vector multiply and each
  ``a_post`` row a signed sum of those: P vector multiplies of length
  ceil((N-m+1)/2) in place of one Python basic operation per window;
* exact mode calls ``apply_basic_op`` window by window, in ``Fraction``
  arithmetic.  It is the oracle the float executor and the plans are held
  to.

Float contract: per element, the whole-signal executor performs the IEEE
operations of ``apply_basic_op`` on that window in the same order, with
a - b in place of a + (-b).  Finite, infinite and signed-zero outputs are
therefore bit-identical to the per-window scalar kernel; a NaN output is
NaN at the same position, but its sign and payload are unspecified.
Overflow and invalid operations give inf and NaN without warnings, as
Python floats do.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .kernels import OpCounter, PreparedKernel, apply_basic_op

__all__ = ["fir_filter"]


def fir_filter(kernel: PreparedKernel, signal: Sequence,
               counter: OpCounter | None = None) -> list:
    """Compute all N - m + 1 valid outputs via ceil((N-m+1)/2) basic ops.

    Returns a list of Python floats, or of ``Fraction`` in exact mode.
    Raises ValueError when the signal is shorter than the filter.
    """
    m = kernel.plan.m
    n = len(signal)
    if n < m:
        raise ValueError(f"signal has {n} samples, need at least {m}")
    n_out = n - m + 1
    windows = (n_out + 1) // 2
    if kernel.exact:
        return _filter_windows(kernel, signal, n_out, windows, counter)
    return _filter_columns(kernel, signal, n_out, windows, counter)


def _column_sums(rows, columns: list, width: int) -> tuple[list, int]:
    # Signed row sums over whole-signal columns, in ascending column order as
    # apply_basic_op adds them, and the vector additions they took.  a - b
    # equals the scalar kernel's a + (-b) bit for bit outside NaN.  After the
    # first addition a sum is updated in place; every array returned is new,
    # never a view of ``columns``.
    sums = []
    adds = 0
    for row in rows:
        if not row:
            sums.append(np.zeros(width))
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


def _filter_columns(kernel: PreparedKernel, signal: Sequence, n_out: int, windows: int,
                    counter: OpCounter | None) -> list:
    m = kernel.plan.m
    padded = np.zeros(2 * windows + m - 1)
    padded[: len(signal)] = np.asarray(signal, dtype=np.float64)
    columns = [padded[j : j + 2 * windows : 2] for j in range(m + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        mu, pre_adds = _column_sums(kernel.plan.pre_rows, columns, windows)
        for sk, tk in zip(kernel.s, mu):
            np.multiply(tk, sk, out=tk)  # t_k becomes mu_k = s_k * t_k
        (y0, y1), post_adds = _column_sums(kernel.plan.post_rows, mu, windows)
    if counter is not None:
        counter.pre_adds += pre_adds * windows
        counter.mults += len(mu) * windows
        counter.post_adds += post_adds * windows
    out = np.empty(2 * windows)
    out[0::2] = y0
    out[1::2] = y1
    return out[:n_out].tolist()


def _filter_windows(kernel: PreparedKernel, signal: Sequence, n_out: int, windows: int,
                    counter: OpCounter | None) -> list:
    m = kernel.plan.m
    out: list = []
    for k in range(windows):
        window = list(signal[2 * k : 2 * k + m + 1])
        if len(window) < m + 1:
            window.append(0)
        y0, y1 = apply_basic_op(kernel, window, counter)
        out.append(y0)
        if len(out) < n_out:
            out.append(y1)
    return out
