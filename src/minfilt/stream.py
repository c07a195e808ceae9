"""The executor: a prepared two-output kernel over a whole signal or one window.

Output pair k comes from the window x[2k .. 2k+m].  When the number of valid
outputs is odd, the signal is completed with a single zero sample and the
last window's second output is discarded, so one uniform kernel serves every
window.  ``apply_basic_op`` is the one-window case: a signal of m+1 samples.

``fir_filter`` computes on every window at once.  Sample j of every
window is the stride-2 column x[j::2], row j of one (m+1, W) view of the
signal: each ``a_pre`` row is a signed sum of columns, each diagonal product
one vector multiply and each ``a_post`` row a signed sum of those, so P
vector multiplies of length W = ceil((N-m+1)/2) replace one Python basic
operation per window.  The signal enters through ``kernels._coerce``, the
one input rule, as the arithmetic computes on it.  A contiguous float64
signal with an even number of outputs needs no padding zero, so the stages
read it in place; no stage writes to its columns.  Every pre-sum, in both
forms and both arithmetics, is ``kernels._run_sums``, the routine the batched
diagonal uses too.  There are two forms, picked by W alone:

* a call of fewer than ``_BATCH_WINDOWS`` windows runs ``_batched``: each
  stage as a few numpy calls over all rows, read from the plan's cached
  schedule.  That is one call per term for each run of same-shaped pre rows
  into one (P, W) array, one broadcast multiply, and per output row one
  gather of its signed terms and one fold.  On a short call the cost is
  numpy calls, not arithmetic: at m = 1024 this makes a few dozen of them,
  against ~5,000 row by row.  All P products are live at once, which at
  that length costs less than the calls saved;
* longer calls run product by product, as the paper's pipeline does: for k
  in ascending order, product k's pre-sum (its sparse row as one run, one
  vector operation per row term), its scaling in place by s_k, and its fold
  into each output row that uses it (the schedule's ``fold``).  The sum is
  then dropped, unless an output row starts with it, so one W-long
  temporary is live at a time, not P, and malloc hands the array just
  freed, still in cache, to the next product; the time saved is allocation
  and cache, not multiplications.  Output rows take their terms in
  ascending product order, so each is still a left fold in row order.

Both forms give the same bits (the batched fold adds -b where the product
loop subtracts b, the same IEEE result) and the schedule's operation counts.

Admission rule: a plan runs only if it passes the row checks that
``validate_plan`` reports first: m >= 1, at least one diagonal term, one
``a_pre`` row per term, two ``a_post`` rows, and every ``a_pre``, ``a_post``
and diagonal row has at least one entry, each +-1, at strictly ascending
indices inside its matrix.  So every product has a pre-sum and a constant
and every output an adder, and no stage handles an empty row.  A plan
computes that verdict once (``plan._row_faults``), and every entry point
reads it.  ``validate_plan`` reports its faults.  ``precompute_diagonal``
checks it before it sums a row, and ``fir_filter`` when it builds the
plan's schedule, so a kernel built directly is held to it too.  Each raises
ValueError with the first fault, in every form, in both arithmetics and on
any taps, so no row the stages would misread (an entry of 2 read as 1, a
stored 0 subtracted, a repeated index summed twice, index -1 wrapped) gives
a constant or an output.  The correctness identity is left to
``validate_plan``; no stage reads ``blocks``.

Float contract: float64 arrays, each row summed in ascending column order,
with a - b where a dense scan forms a + (-b) and b - a where it forms
-a + b: per window, the IEEE operations of y = a_post @ (s * (a_pre @ x))
read from the dense rows, in that order.
Finite, infinite and signed-zero outputs are bit-identical to that scan and
do not depend on the signal's length; a NaN output is NaN at the same
position, with sign and payload unspecified.  Overflow and invalid operations
give inf and NaN without warnings, as Python floats do.

Exact contract: ``_coerce`` reads the samples once, as integers scaled by
the lcm Dx of their denominators, and the kernel holds the diagonal as
integers S over its ``scale``, twice the lcm of the taps' denominators.  The
stages run on int64 arrays when no value they make can overflow, and on
``object`` arrays of Python ``int`` otherwise.  The bound is read from the
plan's rows: a pre-sum adds at most the longest ``a_pre`` row's count of
samples, and an output's partial sum at most the longest ``a_post`` row's
count of products, so with G the product of those two lengths every input,
pre-sum, product and partial sum lies within
G * max(1, max|S|) * max(1, max|X|) of zero, on the scaled integers X.
int64 runs when that is at most 2**63 - 1; the dtype is the only difference,
so both forms run one body in all three dtypes.  Each output is one
``Fraction``, Y / (scale * Dx), equal to the direct method's.  Every sample
must be finite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .kernels import OpCounter, PreparedKernel, _coerce, _run_sums

__all__ = ["fir_filter", "apply_basic_op"]

# Calls with fewer windows than this run each stage as a few numpy calls over
# all rows (``_batched``); longer calls run product by product, one numpy call
# per row term, which at that length keeps one window-long array live.
_BATCH_WINDOWS = 256


def _batched(schedule, kernel: PreparedKernel, columns: np.ndarray) -> list:
    # The three stages over all rows at once, from the plan's schedule, in the
    # dtype of `columns` (row j is sample j of every window): per row and
    # window the values of the product loop.  Returns the two output rows.
    windows = columns.shape[1]
    t = _run_sums(schedule.pre, columns, np.empty((kernel.plan.p, windows), columns.dtype))
    t *= kernel._array[:, None]
    ys = []
    for products, negative in schedule.post:
        terms = t.take(products, 0)
        if negative is not None:
            np.negative(terms, terms, where=negative)
        # Each column is a left fold of its terms.  With two windows or more,
        # reduce adds the rows in order, from the first (from its +0.0 identity,
        # -0.0 terms would sum to +0.0); on one window it sums pairwise, and
        # accumulate does not.
        if windows == 1:
            ys.append(np.add.accumulate(terms)[-1])
        else:
            ys.append(np.add.reduce(terms, 0, initial=None))
    return ys


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
    schedule = plan._schedule  # built once per plan; raises if the rule rejects its rows
    if not kernel.exact:
        dtype = np.float64
    else:
        # int64 when the plan's row growth proves it holds every value the stages
        # make (2**63 - 1 is its largest value), object otherwise.
        bound = schedule.growth * kernel._max_scaled * max(1, max(samples), -min(samples))
        dtype = np.int64 if bound < 2**63 else object
    if n == 2 * windows + m - 1 and not kernel.exact and samples.flags.c_contiguous:
        padded = samples  # no zero to append: read in place, as no stage writes to it
    else:
        padded = np.zeros(2 * windows + m - 1, dtype)
        padded[:n] = samples
    step = padded.strides[0]
    # Row j is padded[j::2], sample j of every window.
    columns = np.ndarray((m + 1, windows), dtype, padded, 0, (step, 2 * step))
    with np.errstate(over="ignore", invalid="ignore"):
        if windows < _BATCH_WINDOWS:
            ys = _batched(schedule, kernel, columns)
        else:
            ys = [None, None]
            for row, sk, uses in zip(plan.pre_rows, kernel.scaled, schedule.fold):
                t = _run_sums(((..., row),), columns, np.empty(windows, dtype))
                t *= sk  # t_k becomes mu_k = s_k * t_k
                for r, sign in uses:
                    y = ys[r]
                    if y is not None:
                        if sign > 0:
                            y += t
                        else:
                            y -= t
                    elif sign < 0:
                        ys[r] = -t
                    else:  # the row starts with t itself, or a copy if row 0 took it
                        ys[r] = +t if t is ys[0] else t
                del t  # unless a row took it, freed for the next sum to reuse
    if counter is not None:
        counter.pre_adds += schedule.pre_adds * windows
        counter.mults += plan.p * windows
        counter.post_adds += schedule.post_adds * windows
    out = np.empty(2 * windows, dtype)
    out[0::2], out[1::2] = ys
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
