"""Filtering a full signal with a prepared two-output kernel.

Output pair k comes from the window x[2k .. 2k+m].  When the number of valid
outputs is odd, the signal is completed with a single zero sample and the
last window's second output is discarded, so one uniform kernel serves every
window.

One executor runs each stage once over the whole signal.  Sample j of every
window is the stride-2 column x[j::2], and ``fir_filter`` hands those columns
to ``kernels._stages``, the stage code ``apply_basic_op`` runs on one window's
scalars: each ``a_pre`` row a signed sum of columns, each diagonal product one
vector multiply and each ``a_post`` row a signed sum of those, so P vector
multiplies of length ceil((N-m+1)/2) replace one Python basic operation per
window.  Float mode runs float64 arrays.  Exact mode scales the samples by the
lcm Dx of their denominators and the diagonal constants by the lcm Ds of
theirs, runs the same stages on ``object`` arrays of Python ``int``, and
divides once per output: y = Y / (Ds * Dx), the value ``apply_basic_op``
computes in ``Fraction`` arithmetic.  The signal enters through
``kernels._coerce``, the one input rule.

Float contract: per element, the executor performs the IEEE operations of
``apply_basic_op`` on that window in the same order, because it runs the same
code.  Finite, infinite and signed-zero outputs are therefore bit-identical to
the per-window scalar kernel; a NaN output is NaN at the same position, but
its sign and payload are unspecified.  Overflow and invalid operations give
inf and NaN without warnings, as Python floats do.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .kernels import OpCounter, PreparedKernel, _coerce, _scaled, _stages

__all__ = ["fir_filter"]


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
    s = kernel.s
    if kernel.exact:
        samples, dx = _scaled(samples)
        s, ds = _scaled(s)
        scale = ds * dx
    # object, not int64: the scaled integers are unbounded.
    dtype = object if kernel.exact else np.float64
    padded = np.zeros(2 * windows + m - 1, dtype)
    padded[:n] = samples
    columns = [padded[j : j + 2 * windows : 2] for j in range(m + 1)]
    zero = 0 if kernel.exact else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        # mu stays referenced until the list is built: freed earlier, it lets
        # malloc trim the heap top that the next call then faults back in.
        (y0, y1), mu = _stages(kernel.plan, s, columns, zero, counter, windows)
    out = np.empty(2 * windows, dtype)
    out[0::2] = y0
    out[1::2] = y1
    if kernel.exact:
        return [Fraction(v, scale) for v in out[:n_out].tolist()]
    return out[:n_out].tolist()
