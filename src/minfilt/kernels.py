"""Execution of kernel plans on input windows.

Samples and taps pass ``_coerce``, the one input rule: a 1-D sequence of
``numbers.Real``, else TypeError.  Two scalar modes share one code path:

* float mode (default): IEEE double arithmetic, summation in matrix-row index
  order so results are bit-reproducible across runs;
* exact mode: ``fractions.Fraction`` arithmetic.  Every constant the plans
  produce is a tap combination divided by at most one factor of two, so all
  values stay dyadic rationals and equality checks against the direct method
  are exact.

``apply_basic_op`` is the per-window scalar kernel, the reference the
executor is held to; ``fir_filter`` does not call it but runs the same stages
over the whole signal at once, in either arithmetic (see ``stream``).  Exact
outputs are the same ``Fraction`` values.  Float finite, infinite and
signed-zero outputs are bit-identical to this kernel's, and a NaN output is
NaN at the same position, with sign and payload unspecified.

``OpCounter`` instruments the very path that computes the result, split by
stage, and each stage adds its counts once, when it ends: the products are
the length of ``mu``, and each addition of ``a_pre`` and ``a_post`` is
tallied by the row sum that makes it.  In the whole-signal executor one
vector operation over W windows counts as W scalar operations.  The counted
arithmetic is thus the shipped arithmetic.  Sign flips on ternary-matrix
entries are not multiplications and are not counted.  The direct method
(``reference.apply_basic_op_naive``) counts its 2m products and 2(m-1)
additions from its loop shape: two outputs of m products summed in order.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from numbers import Real
from typing import Sequence

import numpy as np

from .plan import KernelPlan

__all__ = [
    "OpCounter",
    "PreparedKernel",
    "precompute_diagonal",
    "apply_basic_op",
    "is_dyadic",
]


@dataclass(kw_only=True)
class OpCounter:
    """Running tally of scalar operations, per stage.

    ``pre_adds`` are the additions of ``a_pre``, ``mults`` the diagonal
    products and ``post_adds`` the additions of ``a_post``; the direct method
    counts its output adders as ``post_adds``.  ``adds`` is their total.
    """

    pre_adds: int = 0
    mults: int = 0
    post_adds: int = 0

    @property
    def adds(self) -> int:
        return self.pre_adds + self.post_adds


def _coerce(values: Sequence, exact: bool) -> np.ndarray:
    # Float mode: a float64 ndarray, a 1-D float64 one as is.  Exact mode: an object
    # ndarray of the caller's own items as Fraction (numpy would round [2**63 + 1, -1]).
    if not exact:
        array = np.asarray(values)
        if array.ndim == 1 and array.dtype.kind in "biuf":
            return array.astype(np.float64, copy=False)
    items = values.tolist() if isinstance(values, np.ndarray) else values
    items = [v.item() if isinstance(v, np.generic) else v for v in items]
    if bad := sorted(t.__name__ for t in set(map(type, items)) if not issubclass(t, Real)):
        raise TypeError(f"samples and taps must be real numbers, got {', '.join(bad)}")
    if exact:
        return np.array([Fraction(v) for v in items], dtype=object)
    return np.array(items, dtype=np.float64)


@dataclass(frozen=True)
class PreparedKernel:
    """A plan bound to one set of taps, diagonal already evaluated.

    Immutable; safe to share between threads and reuse across windows.
    """

    plan: KernelPlan
    s: tuple
    exact: bool


def precompute_diagonal(plan: KernelPlan, taps: Sequence, exact: bool = False) -> PreparedKernel:
    """Evaluate the diagonal constants for the given taps.

    The halved terms divide by two once; in float mode that division is itself
    exact, so each constant is correctly rounded.  Raises ValueError when the
    tap count does not match the plan and TypeError when a tap is not a real
    number.  Each constant starts from zero and adds its taps in ascending
    index order.
    """
    if len(taps) != plan.m:
        raise ValueError(f"plan is for {plan.m} taps, got {len(taps)}")
    w = _coerce(taps, exact).tolist()
    zero = Fraction(0) if exact else 0.0
    s = []
    for term in plan.diag:
        total = zero
        for i, c in term.row:
            total = total + w[i] if c > 0 else total - w[i]
        s.append(total / 2 if term.halved else total)
    return PreparedKernel(plan, tuple(s), exact)


def _apply_ternary(rows, vec, zero):
    # Signed row sums in ascending column order, and the additions they took.
    out = []
    adds = 0
    for row in rows:
        acc = None
        for j, sign in row:
            term = vec[j] if sign > 0 else -vec[j]
            if acc is None:
                acc = term
            else:
                acc = acc + term
                adds += 1
        out.append(zero if acc is None else acc)
    return out, adds


def apply_basic_op(kernel: PreparedKernel, tile: Sequence, counter: OpCounter | None = None):
    """Compute the two adjacent outputs for one (m+1)-sample window.

    Evaluates t = a_pre @ x (additions only), mu = s * t (exactly P scalar
    multiplications), y = a_post @ mu (additions only).  Raises ValueError on
    a wrong window length and TypeError when a sample is not a real number.
    """
    plan = kernel.plan
    if len(tile) != plan.m + 1:
        raise ValueError(f"window must have {plan.m + 1} samples, got {len(tile)}")
    x = _coerce(tile, kernel.exact).tolist()
    zero = Fraction(0) if kernel.exact else 0.0

    t, pre_adds = _apply_ternary(plan.pre_rows, x, zero)
    mu = [sk * tk for sk, tk in zip(kernel.s, t)]
    y, post_adds = _apply_ternary(plan.post_rows, mu, zero)
    if counter is not None:
        counter.pre_adds += pre_adds
        counter.mults += len(mu)
        counter.post_adds += post_adds
    return y[0], y[1]


def is_dyadic(value) -> bool:
    """True when the value is an exact rational with a power-of-two denominator."""
    if isinstance(value, Fraction):
        d = value.denominator
        return d & (d - 1) == 0
    return isinstance(value, int)
