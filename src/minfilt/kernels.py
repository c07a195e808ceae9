"""Execution of kernel plans on input windows.

Samples and taps pass ``_coerce``, the one input rule: a 1-D sequence of
``numbers.Real``, else TypeError.  Two scalar modes share one code path:

* float mode (default): IEEE double arithmetic, summation in matrix-row index
  order so results are bit-reproducible across runs;
* exact mode: rational values, exact to the last digit.  Every constant the
  plans produce is a signed tap sum divided by at most one factor of two, so
  with D the lcm of the taps' denominators, 2D times each constant is an
  integer.  ``precompute_diagonal`` sums the taps as integers scaled by D and
  divides once per constant; ``fir_filter`` runs its stages on ``int``s
  scaled likewise and divides once per output.  Equality checks against the
  direct method are exact.

``apply_basic_op`` is the per-window scalar kernel.  It and ``fir_filter``
run one stage routine, ``_stages``: on one window's scalars here, on
whole-signal columns there (see ``stream``).  Each row is summed in ascending
column order, with a - b where a dense scan forms a + (-b): the same bits
outside a NaN.  Float finite, infinite and signed-zero outputs of the two are
bit-identical, and a NaN output is NaN at the same position, with sign and
payload unspecified.  Exact outputs are the same values, each one ``Fraction``.

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

import math
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
    # Only an ndarray reaches numpy before the type check: np.asarray of a ragged
    # list raises ValueError, or warns on older numpy.
    if isinstance(values, np.ndarray):
        if not exact and values.ndim == 1 and values.dtype.kind in "biuf":
            return values.astype(np.float64, copy=False)
        values = values.tolist()
    if exact:
        # Numpy scalars as the Python numbers they hold: Fraction(np.int64(v)) wraps.
        values = [v.item() if isinstance(v, np.generic) else v for v in values]
    kinds = set(map(type, values))
    if bad := sorted(t.__name__ for t in kinds if not issubclass(t, (Real, np.bool_))):
        raise TypeError(f"samples and taps must be real numbers, got {', '.join(bad)}")
    if exact:
        # np.longdouble stays itself through .item(); its ratio is exact.
        return np.array([Fraction(*v.as_integer_ratio()) if isinstance(v, np.floating)
                         else Fraction(v) for v in values], dtype=object)
    return np.array(values, dtype=np.float64)


def _scaled(fractions) -> tuple[list, int]:
    # The values times D as Python ints, and D, the lcm of their denominators.
    scale = math.lcm(*(f.denominator for f in fractions))
    return [f.numerator * (scale // f.denominator) for f in fractions], scale


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

    Each constant starts from zero and adds its signed taps in ascending
    index order.  In float mode a halved term divides that sum by two, which
    rounds only when the half is subnormal; a sum that overflows to +-inf is
    redone on the halved taps, so a finite halved sum is not lost.  In exact
    mode the taps are scaled to integers by the lcm D of their denominators,
    and each constant is one ``Fraction`` of its integer sum over D, or over
    2D when halved.  Raises ValueError when the tap count does not match the
    plan and TypeError when a tap is not a real number.
    """
    if len(taps) != plan.m:
        raise ValueError(f"plan is for {plan.m} taps, got {len(taps)}")
    w = _coerce(taps, exact).tolist()
    if exact:
        w, scale = _scaled(w)
    zero = 0 if exact else 0.0
    s = []
    for term in plan.diag:
        total = zero
        for i, c in term.row:
            total = total + w[i] if c > 0 else total - w[i]
        if exact:
            s.append(Fraction(total, 2 * scale if term.halved else scale))
        elif term.halved and math.isinf(total):
            # Redo the overflowed sum on the halved taps.  Some are nonzero,
            # so starting from the first one, not from +0.0, changes no bit.
            s.append(_row_sums([term.row], [v / 2 for v in w], zero)[0][0])
        else:
            s.append(total / 2 if term.halved else total)
    return PreparedKernel(plan, tuple(s), exact)


def _row_sums(rows, vec, zero) -> tuple[list, int]:
    # Signed sums of vec over each row in ascending column order, and the
    # additions they took, alike on scalars and numpy columns.  The first
    # addition makes a new value and later ones update it in place; a lone
    # term is +vec[j] or -vec[j], so every array returned is a new one.
    sums = []
    adds = 0
    for row in rows:
        if not row:
            sums.append(zero)
            continue
        j, sign = row[0]
        if len(row) == 1:
            sums.append(+vec[j] if sign > 0 else -vec[j])
            continue
        acc = vec[j] if sign > 0 else -vec[j]
        j, sign = row[1]
        acc = acc + vec[j] if sign > 0 else acc - vec[j]
        for j, sign in row[2:]:
            if sign > 0:
                acc += vec[j]
            else:
                acc -= vec[j]
        sums.append(acc)
        adds += len(row) - 1
    return sums, adds


def _stages(plan: KernelPlan, s, x, zero, counter: OpCounter | None, width: int):
    # a_pre row sums, the P products in place, a_post row sums, each operation
    # counted ``width`` times; mu is returned so a caller may keep it alive.
    mu, pre_adds = _row_sums(plan.pre_rows, x, zero)
    for k, sk in enumerate(s):
        mu[k] *= sk  # t_k becomes mu_k = s_k * t_k
    y, post_adds = _row_sums(plan.post_rows, mu, zero)
    if counter is not None:
        counter.pre_adds += pre_adds * width
        counter.mults += len(mu) * width
        counter.post_adds += post_adds * width
    return y, mu


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
    y, _ = _stages(plan, kernel.s, x, zero, counter, 1)
    return y[0], y[1]


def is_dyadic(value) -> bool:
    """True when the value is an exact rational with a power-of-two denominator."""
    if isinstance(value, Fraction):
        d = value.denominator
        return d & (d - 1) == 0
    return isinstance(value, int)
