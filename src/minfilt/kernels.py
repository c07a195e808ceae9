"""Diagonal constants, the input rule and operation counting.

Samples and taps pass ``_coerce``, the one input rule: ``numbers.Real`` in a
1-D ndarray or a sequence other than str, bytes, bytearray or memoryview,
else TypeError.
Entry points that take the length first, all but ``fir_filter``, leave
Python's own TypeError on an input that has none, such as a generator.  Exact
mode also needs every value finite: inf or NaN raises ValueError.  Two
arithmetics share one code path:

* float mode (default): IEEE double arithmetic, summation in matrix-row index
  order so results are bit-reproducible across runs.  Each value becomes one
  float64 as numpy converts it, so an int beyond float range raises
  OverflowError, as ``float()`` does.  ``precompute_diagonal`` makes plain
  sums from +0.0, halved where the term says, in one of two forms with the
  same bits, picked by the plan's diagonal term count P: from
  ``_BATCH_TERMS`` = 112 terms ``_run_sums`` over the runs of the diagonal
  rows in the plan's cached schedule; below it, where those numpy calls
  cost more than the terms, a Python loop.  ``_run_sums`` is the one
  vectorised routine that sums signed rows: every pre-sum of the executor,
  in both its forms and both arithmetics, the batched diagonal and its
  overflow redo.  One tail then applies the non-finite rule to both: a
  halved sum that overflows is redone over its own row's halved taps, so
  the diagonal is linear in the plan, and a NaN constant is the first NaN
  its sum becomes.  The kernel keeps the diagonal as the float64 array the
  batched executor multiplies by;
* exact mode: rational values, exact to the last digit.  ``_coerce`` reads
  each value once, through its own ``as_integer_ratio()`` (a
  ``numbers.Rational`` without one through its numerator and denominator; any
  other Real without one is the rule's TypeError), and returns Python
  ints scaled by D, the lcm of the denominators, with D.  Every constant the
  plans produce is a signed tap sum divided by at most one factor of two, so
  2D times each constant is an integer: ``precompute_diagonal`` sums the
  scaled taps and keeps the diagonal as those integers over 2D, the form
  ``fir_filter`` multiplies by, so it divides nothing; the batched executor
  reads them as one ``object`` array of Python ints.  Equality checks
  against the direct method are exact.

The executor, ``stream``, states its float and exact contracts.

``OpCounter`` counts the path that computes the result, split by stage, once
per call: the products are the plan's P per window, and the additions of each
``a_pre`` and ``a_post`` row are len(row) - 1, tallied once by the plan's
schedule, as both executor forms make them.  One vector operation over W
windows counts as W scalar operations.  Sign flips on ternary-matrix entries
are not multiplications and are not counted.  The direct method
(``reference.apply_basic_op_naive``) counts its 2m products and 2(m-1)
additions from its loop shape: two outputs of m products summed in order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational, Real

import numpy as np

from .plan import KernelPlan

__all__ = [
    "OpCounter",
    "PreparedKernel",
    "precompute_diagonal",
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


def _coerce(values: Sequence, exact: bool) -> tuple:
    # The values as callers compute on them, and the scale D they were multiplied by.
    # Float mode: a float64 ndarray (a 1-D float64 one as is) and 1.  Exact mode: Python
    # ints from each value's own integer ratio, and D, the lcm of the denominators;
    # numpy would round [2**63 + 1, -1], np.longdouble stays itself through .item(),
    # and inf and NaN have no ratio.  Only a 1-D ndarray reaches numpy before the type
    # check: np.asarray of a ragged list raises ValueError.  Any other container the
    # rule does not admit is checked as one value, so its type names the TypeError.
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if not exact and values.dtype.kind in "biuf":
            return values.astype(np.float64, copy=False), 1
        values = values.tolist()
    elif not isinstance(values, Sequence) or isinstance(values, (str, bytes, bytearray, memoryview)):
        values = [values]
    kinds = set(map(type, values))
    if bad := sorted(t.__name__ for t in kinds if not issubclass(t, (Real, np.bool_))):
        raise TypeError(f"samples and taps must be real numbers in a 1-D sequence, got {', '.join(bad)}")
    if not exact:
        return np.array(values, dtype=np.float64), 1
    try:
        ratios = [_ratio(v) for v in values]
    except (OverflowError, ValueError):
        raise ValueError("exact mode needs finite samples and taps, got inf or NaN") from None
    scale = math.lcm(*(d for _, d in ratios))
    return [n * (scale // d) for n, d in ratios], scale


def _ratio(v) -> tuple:
    # One value's integer ratio: its own as_integer_ratio(), else a Rational's
    # numerator and denominator; any other Real breaks the rule.
    v = v.item() if isinstance(v, np.generic) else v
    if hasattr(v, "as_integer_ratio"):
        return v.as_integer_ratio()
    if isinstance(v, Rational):
        return Fraction(v.numerator, v.denominator).as_integer_ratio()
    raise TypeError(f"exact mode: samples and taps must be real numbers with an integer ratio, "
                    f"got {type(v).__name__}")


@dataclass(frozen=True)
class PreparedKernel:
    """A plan bound to one set of taps, diagonal already evaluated.

    ``scaled`` is the diagonal in the form ``_coerce`` gives inputs and
    ``fir_filter`` multiplies by: in float mode the floats, with ``scale`` 1;
    in exact mode Python ints over ``scale`` = 2D, where D is the lcm of the
    taps' denominators.  The batched executor multiplies by the same values
    as one read-only array, ``_array``: float64, or ``object`` in exact
    mode.  ``s`` is the diagonal itself: ``scaled`` in float mode, each
    ``Fraction(v, scale)`` in exact mode.  Immutable; safe to share between
    threads and reuse across windows.
    """

    plan: KernelPlan
    scaled: tuple
    scale: int
    exact: bool

    @property
    def s(self) -> tuple:
        return tuple(Fraction(v, self.scale) for v in self.scaled) if self.exact else self.scaled

    @cached_property
    def _array(self) -> np.ndarray:
        # ``scaled`` as the read-only array the batched executor multiplies by:
        # float64, or in exact mode ``object`` whatever the ints' size, where
        # numpy alone picks int64, uint64 or object by magnitude.  Outside the
        # fields, so equality, hashing and repr never see it;
        # precompute_diagonal stores the float array it made here.
        return _read_only(np.array(self.scaled, object if self.exact else None))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Float diagonals of plans with at least this many terms are summed as a few
# numpy calls over all terms (``_run_sums``); smaller plans, and exact mode,
# sum each term in a Python loop, which costs less below it.
_BATCH_TERMS = 112


def _run_sums(runs, columns: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The signed sums of runs into the rows of `out` they slice, each from its
    # first term in ascending column order, a - entry subtracted; a run with
    # no terms sums to zero and rows in no run keep what `out` holds.  A run
    # is a (rows, terms) pair and a term a (columns, sign) pair, indexing axis
    # 0: the runs of a schedule (``plan._runs``) slice one value per row (the
    # diagonal) or one window per column (the executor's a_pre stage), and
    # ``(..., row)`` sums one sparse row into all of `out`, column by column.
    # The first two terms make one ufunc call, -a + b as b - a, the same IEEE
    # result; -a - b negates first, as -(a + b) differs on signed zeros.  A
    # lone first term is copied, so every sum is an array of its own.
    for rows, terms in runs:
        run = out[rows]
        if not terms:
            run[...] = 0
            continue
        a, sign = terms[0]
        if len(terms) > 1 and (sign > 0 or terms[1][1] > 0):
            b, second = terms[1]
            if sign < 0:  # -a + b as b - a
                a, b = b, a
            (np.add if sign == second else np.subtract)(columns[a], columns[b], run)
            rest = terms[2:]
        else:
            (np.positive if sign > 0 else np.negative)(columns[a], run)
            rest = terms[1:]
        for cols, sign in rest:
            (np.add if sign > 0 else np.subtract)(run, columns[cols], run)
    return out


def _first_nan(row, taps) -> float:
    # The row's float sum from +0.0, stopped at the first NaN it becomes.  Of
    # NaN + NaN, CPython's add keeps the second NaN until the interpreter
    # specializes it and the first after, and numpy's loops keep either, by
    # where the term falls in them; a sum that stops there adds no two NaNs.
    total = 0.0
    for i, c in row:
        total = total + taps[i] if c > 0 else total - taps[i]
        if total != total:
            break
    return total


def _finish_float(plan: KernelPlan, w: np.ndarray, total: np.ndarray) -> np.ndarray:
    # The float non-finite rule, on plain sums from +0.0 halved where their
    # term says.  A halved sum that overflowed is redone on its row's halved
    # taps; the redo sums every row again, so it stays linear in the plan.  A
    # NaN constant is summed again up to the first NaN it becomes.
    if np.isfinite(total).all():
        return total
    schedule = plan._schedule  # raises if the row rule rejects the plan
    over = schedule.halved & np.isinf(total)
    if over.any():
        with np.errstate(over="ignore", invalid="ignore"):
            total[over] = _run_sums(schedule.diag, w / 2, np.zeros(plan.p))[over]
    nan = np.flatnonzero(np.isnan(total)).tolist()
    if nan:
        taps = w.tolist()
        for k in nan:
            total[k] = _first_nan(plan.diag[k].row, taps)
    return total


def precompute_diagonal(plan: KernelPlan, taps: Sequence, exact: bool = False) -> PreparedKernel:
    """Evaluate the diagonal constants for the given taps.

    Each constant starts from zero and adds its signed taps in ascending
    index order.  In float mode a halved term divides that sum by two, which
    rounds only when the half is subnormal; a sum that overflows to +-inf is
    redone on the row's own halved taps, so a finite halved sum is not lost
    and the redo costs one row, not m taps.  A NaN constant is the first NaN
    its sum becomes, whatever the interpreter's state.  In exact mode the
    taps are scaled to integers by the lcm D of their denominators, and each
    constant is its integer sum over 2D: the sum itself when halved, twice
    it if not.

    The plain sums come in one of two forms with the same bits.  A float
    plan of at least ``_BATCH_TERMS`` diagonal terms runs ``_run_sums`` over
    the runs of same-shaped diagonal rows in the plan's cached schedule, as
    the executor's a_pre stage reads the samples; smaller plans, and exact
    mode, sum each term in a Python loop, which costs less there.  Every
    float diagonal then passes one tail, which leaves finite constants as
    they are and applies the overflow and NaN rules to the rest, reading
    the plan's schedule.  The kernel keeps the float diagonal as the
    float64 array the batched executor multiplies by.

    Raises ValueError when the tap count does not match the plan, the plan
    breaks the executor's row rule where it is checked (a diagonal index at
    or past m; a wide float plan, or a float plan with a non-finite
    constant, is checked whole, as ``stream`` admits plans) or an
    exact-mode tap is inf or NaN, and TypeError when the taps break the
    input rule.
    """
    if len(taps) != plan.m:
        raise ValueError(f"plan is for {plan.m} taps, got {len(taps)}")
    w, scale = _coerce(taps, exact)
    if exact or plan.p < _BATCH_TERMS:
        values = w if exact else w.tolist()
        s = []
        try:
            for term in plan.diag:
                total = 0 if exact else 0.0
                for i, c in term.row:
                    total = total + values[i] if c > 0 else total - values[i]
                if exact:
                    s.append(total if term.halved else 2 * total)
                else:
                    s.append(total / 2 if term.halved else total)
        except IndexError:
            plan._schedule  # a diag index past m: raises the row rule's ValueError
            raise
        if exact:
            return PreparedKernel(plan, tuple(s), 2 * scale, True)
        total = np.array(s)
    else:
        schedule = plan._schedule  # raises if the row rule rejects the plan
        with np.errstate(over="ignore", invalid="ignore"):
            total = _run_sums(schedule.diag, w, np.zeros(plan.p))
            # A sum from its first term differs from one from +0.0 only
            # where it is -0.0 (or NaN, which the tail sums again).
            total += 0.0
            np.divide(total, 2, total, where=schedule.halved)
    total = _finish_float(plan, w, total)
    kernel = PreparedKernel(plan, tuple(total.tolist()), 1, False)
    kernel.__dict__["_array"] = _read_only(total)  # what the cached property would build
    return kernel


def is_dyadic(value) -> bool:
    """True when the value is an exact rational with a power-of-two denominator."""
    if not isinstance(value, Rational):
        return False
    d = value.denominator
    return d & (d - 1) == 0
