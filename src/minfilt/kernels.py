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
  OverflowError, as ``float()`` does;
* exact mode: rational values, exact to the last digit.  ``_coerce``
  returns Python ints scaled by D, the lcm of the denominators, with D.  An
  integer ndarray, or a sequence whose values are all ``int``, is read as it
  is, with D = 1.  Any other input reads each value once, through its own
  ``as_integer_ratio()`` (a ``numbers.Rational`` without one through its
  numerator and denominator; any other Real without one is the rule's
  TypeError).  Equality checks against the direct method are exact.

Two routines sum signed rows: ``_run_sums``, the one vectorised routine
(every pre-sum of the executor, in both its forms and both arithmetics, and
the batched diagonal), and ``_row_sum``, the one Python-scalar routine.
``precompute_diagonal`` states the diagonal's rules: its two forms and its
non-finite rule.  It admits plans by the executor's row rule (see ``stream``).

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
    # ints and D, the lcm of the denominators.  An integer ndarray and a sequence of
    # ints (bool is not int here) are their own integers, with D = 1; other values
    # pass each its own integer ratio: numpy would round [2**63 + 1, -1],
    # np.longdouble stays itself through .item(), and inf and NaN have no ratio.
    # Only a 1-D ndarray reaches numpy before the type check: np.asarray of a ragged
    # list raises ValueError.  Any other container the rule does not admit is checked
    # as one value, so its type names the TypeError.
    if isinstance(values, np.ndarray) and values.ndim == 1:
        if not exact and values.dtype.kind in "biuf":
            return values.astype(np.float64, copy=False), 1
        if exact and values.dtype.kind in "iu":
            return values.tolist(), 1
        values = values.tolist()
    elif not isinstance(values, Sequence) or isinstance(values, (str, bytes, bytearray, memoryview)):
        values = [values]
    kinds = set(map(type, values))
    if bad := sorted(t.__name__ for t in kinds if not issubclass(t, (Real, np.bool_))):
        raise TypeError(f"samples and taps must be real numbers in a 1-D sequence, got {', '.join(bad)}")
    if not exact:
        return np.array(values, dtype=np.float64), 1
    if kinds == {int}:
        return list(values), 1
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
    as one read-only array, ``_array``: float64, or in exact mode int64 when
    every constant fits it and ``object`` otherwise.  ``s`` is the diagonal
    itself: ``scaled`` in float mode, each ``Fraction(v, scale)`` in exact
    mode.  Immutable; safe to share between threads and reuse across
    windows.
    """

    plan: KernelPlan
    scaled: tuple
    scale: int
    exact: bool

    @property
    def s(self) -> tuple:
        return tuple(Fraction(v, self.scale) for v in self.scaled) if self.exact else self.scaled

    @cached_property
    def _max_scaled(self) -> int:
        # max(1, max|S|) over the exact ``scaled`` integers: the diagonal's factor
        # in fir_filter's int64 bound.
        return max([1, *map(abs, self.scaled)])

    @cached_property
    def _array(self) -> np.ndarray:
        # ``scaled`` as the read-only array the batched executor multiplies by:
        # float64, or in exact mode int64 when every constant fits it (2**63 - 1
        # is its largest value) and ``object`` otherwise; numpy alone would pick
        # uint64 for some ints, which turns int64 products into floats.  Stages
        # on ``object`` read int64 constants as Python ints.  Both caches sit
        # outside the fields, so equality, hashing and repr never see them;
        # precompute_diagonal stores the float array it made here.
        if not self.exact:
            return _read_only(np.array(self.scaled))
        return _read_only(np.array(self.scaled, np.int64 if self._max_scaled < 2**63 else object))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# Float diagonals of plans with at least this many terms are summed as a few
# numpy calls over all terms (``_run_sums``); smaller plans, and exact mode,
# sum each term with ``_row_sum``, which costs less below it.
_BATCH_TERMS = 112


def _run_sums(runs, columns: np.ndarray, out: np.ndarray) -> np.ndarray:
    # The signed sums of runs into the rows of `out` they slice, each from its
    # first term in ascending column order, a - entry subtracted.  A run is a
    # (rows, terms) pair and a term a (columns, sign) pair, indexing axis
    # 0: the runs of a schedule (``plan._runs``) write each row of `out` once,
    # one value per row (the diagonal) or one window per column (the
    # executor's a_pre stage), so `out` may start empty, and ``(..., row)``
    # sums one sparse row into all of `out`, column by column.
    # The first two terms make one ufunc call, -a + b as b - a, the same IEEE
    # result; -a - b negates first, as -(a + b) differs on signed zeros.  A
    # lone first term is copied, so every sum is an array of its own.
    for rows, terms in runs:
        run = out[rows]
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


def _row_sum(row, values, total):
    # The row's signed sum of `values` from `total`: +v or -v in ascending
    # index order, stopped at the first NaN it becomes.  Of NaN + NaN,
    # CPython's add keeps the second NaN until the interpreter specializes it
    # and the first after, and numpy's loops keep either, by where the term
    # falls in them; a sum that stops there adds no two NaNs.  An exact sum,
    # of Python ints, never stops.
    for i, c in row:
        total = total + values[i] if c > 0 else total - values[i]
        if total != total:
            break
    return total


def _finish_float(plan: KernelPlan, w: np.ndarray, total: np.ndarray) -> np.ndarray:
    # The non-finite rule of precompute_diagonal, one constant at a time.
    if np.isfinite(total).all():
        return total
    taps, bad = w.tolist(), np.flatnonzero(~np.isfinite(total))
    halves = [t / 2 for t in taps]
    for k, v in zip(bad.tolist(), total[bad].tolist()):
        term = plan.diag[k]
        if v != v:  # summed again, up to the first NaN it becomes
            total[k] = _row_sum(term.row, taps, 0.0)
        elif term.halved:  # an overflowed halved sum, redone on halved taps
            total[k] = _row_sum(term.row, halves, 0.0)
    return total


def precompute_diagonal(plan: KernelPlan, taps: Sequence, exact: bool = False) -> PreparedKernel:
    """Evaluate the diagonal constants for the given taps.

    Each constant is its row's signed tap sum, from zero in ascending index
    order, halved where its term says.  Exact mode scales the taps to
    integers by the lcm D of their denominators; every constant is then an
    integer over 2D, its sum when halved and twice it if not, which
    ``fir_filter`` multiplies by as it is.  Equal to the direct method, it
    needs no other rule.

    Float mode sums from +0.0 and halves by dividing by two, which rounds
    only when the half is subnormal.  The plain sums come in one of two forms
    with the same bits, picked by the plan's diagonal term count P: from
    ``_BATCH_TERMS`` terms, ``_run_sums`` over the runs of the diagonal rows
    in the plan's cached schedule, as the executor's a_pre stage reads the
    samples; below it, where those numpy calls cost more than the terms,
    ``_row_sum`` per term, as in exact mode.  One tail then applies the
    non-finite rule to both, one constant at a time.  A halved sum that
    overflows to +-inf is redone with ``_row_sum`` over its row's halved
    taps, so a finite halved constant is not lost and the diagonal stays
    linear in the plan.  A NaN constant is the first NaN its sum becomes,
    whatever the interpreter's state.  The kernel keeps the float diagonal as
    the float64 array the batched executor multiplies by.

    Raises ValueError when the plan breaks the executor's row rule (see
    ``stream``), the tap count does not match the plan or an exact-mode tap
    is inf or NaN, and TypeError when the taps break the input rule.
    """
    plan._admit()
    if len(taps) != plan.m:
        raise ValueError(f"plan is for {plan.m} taps, got {len(taps)}")
    w, scale = _coerce(taps, exact)
    if exact or plan.p < _BATCH_TERMS:
        values, zero = (w, 0) if exact else (w.tolist(), 0.0)
        pairs = zip([_row_sum(term.row, values, zero) for term in plan.diag], plan.diag)
        if exact:
            return PreparedKernel(plan, tuple([v if t.halved else 2 * v for v, t in pairs]), 2 * scale, True)
        total = np.array([v / 2 if t.halved else v for v, t in pairs])
    else:
        schedule = plan._schedule
        with np.errstate(over="ignore", invalid="ignore"):
            total = _run_sums(schedule.diag, w, np.empty(plan.p))
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
