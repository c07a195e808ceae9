"""The executor: a prepared two-output kernel over a whole signal or one window.

Output pair k comes from the window x[2k .. 2k+m].  When the number of valid
outputs is odd, the signal is completed with a single zero sample and the
last window's second output is discarded, so one uniform kernel serves every
window.  ``apply_basic_op`` is the one-window case: a signal of m+1 samples.

``fir_filter`` runs each stage once over the whole signal.  Sample j of every
window is the stride-2 column x[j::2]: each ``a_pre`` row is a signed sum of
columns, each diagonal product one vector multiply and each ``a_post`` row a
signed sum of those, so P vector multiplies of length ceil((N-m+1)/2) replace
one Python basic operation per window.  The signal enters through
``kernels._coerce``, the one input rule, as the arithmetic computes on it.

Float contract: float64 arrays, each row summed in ascending column order,
with a - b where a dense scan forms a + (-b): per window, the IEEE operations
of y = a_post @ (s * (a_pre @ x)) read from the dense rows, in that order.
Finite, infinite and signed-zero outputs are bit-identical to that scan and
do not depend on the signal's length; a NaN output is NaN at the same
position, with sign and payload unspecified.  Overflow and invalid operations
give inf and NaN without warnings, as Python floats do.

Exact contract: ``_coerce`` reads the samples once, as integers scaled by
the lcm Dx of their denominators, and the kernel holds the diagonal as
integers over its ``scale``, twice the lcm of the taps' denominators; the
stages run on ``object`` arrays of Python ``int``, and each output is one
``Fraction``, Y / (scale * Dx), equal to the direct method's.  Every sample
must be finite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .kernels import OpCounter, PreparedKernel, _coerce

__all__ = ["fir_filter", "apply_basic_op"]


def _row_sums(rows, columns) -> tuple[list, int]:
    # Signed sums of the columns over each row in ascending column order, and
    # the additions they took.  The first addition makes a new array and later
    # ones update it in place; a lone term is +col or -col and an empty row new
    # zeros, so every array returned is one the products may scale in place.
    sums = []
    adds = 0
    for row in rows:
        if not row:
            sums.append(np.zeros_like(columns[0]))
            continue
        j, sign = row[0]
        if len(row) == 1:
            sums.append(+columns[j] if sign > 0 else -columns[j])
            continue
        acc = columns[j] if sign > 0 else -columns[j]
        j, sign = row[1]
        acc = acc + columns[j] if sign > 0 else acc - columns[j]
        for j, sign in row[2:]:
            if sign > 0:
                acc += columns[j]
            else:
                acc -= columns[j]
        sums.append(acc)
        adds += len(row) - 1
    return sums, adds


def fir_filter(kernel: PreparedKernel, signal: Sequence,
               counter: OpCounter | None = None) -> list:
    """Compute all N - m + 1 valid outputs via ceil((N-m+1)/2) basic ops.

    Returns a list of Python floats, or of ``Fraction`` in exact mode.
    Raises ValueError when the signal is shorter than the filter or an
    exact-mode sample is inf or NaN, and TypeError when the signal breaks the
    input rule.
    """
    samples, dx = _coerce(signal, kernel.exact)
    plan = kernel.plan
    m = plan.m
    n = len(signal)
    if n < m:
        raise ValueError(f"signal has {n} samples, need at least {m}")
    n_out = n - m + 1
    windows = (n_out + 1) // 2
    # object, not int64: the scaled integers are unbounded.
    dtype = object if kernel.exact else np.float64
    padded = np.zeros(2 * windows + m - 1, dtype)
    padded[:n] = samples
    columns = [padded[j : j + 2 * windows : 2] for j in range(m + 1)]
    with np.errstate(over="ignore", invalid="ignore"):
        mu, pre_adds = _row_sums(plan.pre_rows, columns)
        for k, sk in enumerate(kernel.scaled):
            mu[k] *= sk  # t_k becomes mu_k = s_k * t_k
        (y0, y1), post_adds = _row_sums(plan.post_rows, mu)
    if counter is not None:
        counter.pre_adds += pre_adds * windows
        counter.mults += len(mu) * windows
        counter.post_adds += post_adds * windows
    out = np.empty(2 * windows, dtype)
    out[0::2] = y0
    out[1::2] = y1
    # mu stays referenced until the list is built: freed earlier, it lets
    # malloc trim the heap top that the next call then faults back in.
    if kernel.exact:
        return [Fraction(v, kernel.scale * dx) for v in out[:n_out].tolist()]
    return out[:n_out].tolist()


def apply_basic_op(kernel: PreparedKernel, tile: Sequence, counter: OpCounter | None = None):
    """Compute the two adjacent outputs for one (m+1)-sample window.

    ``fir_filter`` over that window: t = a_pre @ x (additions only), mu = s *
    t (exactly P multiplications), y = a_post @ mu (additions only).  Raises
    ValueError on a wrong window length or an exact-mode sample that is inf
    or NaN, and TypeError when the window breaks the input rule.
    """
    if len(tile) != kernel.plan.m + 1:
        raise ValueError(f"window must have {kernel.plan.m + 1} samples, got {len(tile)}")
    return tuple(fir_filter(kernel, tile, counter))
