"""Ground-truth FIR filtering by direct summation.

Correlation-style indexing throughout: output[j] = sum_i x[i+j] * w[i], with
no tap reversal, valid positions only (N - m + 1 outputs).  Every equivalence
check in the package compares against this implementation: ``naive_fir`` over a
whole signal, ``apply_basic_op_naive`` over one window of two outputs.
"""

from __future__ import annotations

from typing import Sequence

from .kernels import OpCounter, _coerce

__all__ = ["naive_fir", "apply_basic_op_naive"]


def naive_fir(signal: Sequence, taps: Sequence, exact: bool = False) -> list:
    """Filter a whole signal the obvious way.

    Returns the N - m + 1 valid outputs, summed in index order.  Raises
    ValueError when the signal is shorter than the filter and TypeError when
    a sample or tap is not a real number.
    """
    m = len(taps)
    if m < 1:
        raise ValueError("filter needs at least one tap")
    n = len(signal)
    if n < m:
        raise ValueError(f"signal has {n} samples, need at least {m}")
    w = _coerce(taps, exact).tolist()
    x = _coerce(signal, exact).tolist()
    out = []
    for j in range(n - m + 1):
        acc = x[j] * w[0]
        for i in range(1, m):
            acc = acc + x[i + j] * w[i]
        out.append(acc)
    return out


def apply_basic_op_naive(taps: Sequence, tile: Sequence, exact: bool = False,
                         counter: OpCounter | None = None):
    """Direct evaluation of the two adjacent outputs: 2m multiplications.

    ``naive_fir`` over the one (m+1)-sample window, so summation runs in index
    order.  This is the ground truth the factorized kernels are checked
    against.  Raises ValueError on a wrong window length or an empty filter.
    """
    m = len(taps)
    if len(tile) != m + 1:
        raise ValueError(f"window must have {m + 1} samples, got {len(tile)}")
    y0, y1 = naive_fir(tile, taps, exact)
    if counter is not None:
        counter.mults += 2 * m
        counter.post_adds += 2 * (m - 1)
    return y0, y1
