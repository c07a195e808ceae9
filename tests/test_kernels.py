"""Diagonal precomputation, basic-operation execution, operation counting."""

import json
import math
import os
import pickle
import struct
import subprocess
import sys
import time
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from numbers import Rational, Real
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from minfilt import (
    DiagonalTerm,
    KernelPlan,
    OpCounter,
    PreparedKernel,
    apply_basic_op,
    apply_basic_op_naive,
    count_proposed,
    fir_filter,
    generate_plan,
    is_dyadic,
    naive_fir,
    plan_to_json,
    precompute_diagonal,
    validate_plan,
)
from minfilt import kernels
from minfilt.kernels import _BATCH_TERMS
from minfilt.stream import _BATCH_WINDOWS

BOUND = 2**20
# The smallest tap count whose plan has _BATCH_TERMS diagonal terms or more:
# its float diagonal is the batched form, and the one below it the loop.
BATCH_M = next(m for m in range(1, 4 * _BATCH_TERMS) if generate_plan(m).p >= _BATCH_TERMS)


def test_diagonal_three_tap_example():
    kernel = precompute_diagonal(generate_plan(3), [2, 4, 6], exact=True)
    assert kernel.s == (Fraction(2), Fraction(6), Fraction(2), Fraction(6))


def test_diagonal_five_tap_all_ones():
    kernel = precompute_diagonal(generate_plan(5), [1, 1, 1, 1, 1], exact=True)
    assert kernel.s == (
        Fraction(1), Fraction(3, 2), Fraction(1, 2), Fraction(1),
        Fraction(1), Fraction(2), Fraction(1),
    )


def test_diagonal_float_mode():
    kernel = precompute_diagonal(generate_plan(3), [2, 4, 6])
    assert kernel.s == (2.0, 6.0, 2.0, 6.0)
    # Both forms give kernel.s as a tuple of Python floats.  Only the batched
    # form builds the plan's schedule: the loop form, on plans where building
    # it costs more than the loop, leaves a fresh plan without one.
    for m in (3, BATCH_M - 1, BATCH_M):
        plan = generate_plan(m)
        kernel = precompute_diagonal(plan, np.arange(m))
        assert type(kernel.s) is tuple and all(type(v) is float for v in kernel.s)
        assert ("_schedule" in vars(plan)) == (m == BATCH_M)


def test_row_rule_verdict_is_computed_once_per_plan():
    # validate_plan computes the plan's row verdict; precompute_diagonal and
    # fir_filter read the cached one.  The small float diagonal still builds
    # no schedule; the call builds it.
    plan = generate_plan(11)
    verdict = KernelPlan._row_faults
    with mock.patch.object(verdict, "func", wraps=verdict.func) as spy:
        assert validate_plan(plan).ok
        kernel = precompute_diagonal(plan, np.arange(1.0, 12.0))
        assert "_schedule" not in vars(plan)
        fir_filter(kernel, np.arange(40.0))
    assert spy.call_count == 1 and plan._row_faults == ()
    assert "_schedule" in vars(plan)


def test_exact_diagonal_is_integers_over_one_scale():
    # The exact diagonal is held as ints over scale = 2D, the form fir_filter
    # multiplies by, so integer taps make no Fraction in precompute_diagonal or
    # fir_filter.  kernel.s gives the same values as Fractions.
    with mock.patch("minfilt.kernels.Fraction", wraps=Fraction) as made:
        kernel = precompute_diagonal(generate_plan(11), list(range(-5, 6)), exact=True)
        fir_filter(kernel, list(range(26)))
    assert made.call_count == 0
    taps = [Fraction(1, 3), 0.25, 7]
    kernel = precompute_diagonal(generate_plan(3), taps, exact=True)
    assert kernel.scale == 2 * math.lcm(*(Fraction(v).denominator for v in taps))
    assert all(type(v) is int for v in kernel.scaled)
    assert kernel.s == tuple(Fraction(v, kernel.scale) for v in kernel.scaled)
    assert kernel.s == (Fraction(1, 3), Fraction(91, 24), Fraction(85, 24), Fraction(7))


def test_diagonal_rejects_wrong_tap_count():
    with pytest.raises(ValueError):
        precompute_diagonal(generate_plan(3), [1, 2])


def test_apply_worked_example():
    kernel = precompute_diagonal(generate_plan(3), [1, 1, 1])
    assert apply_basic_op(kernel, [1, 2, 3, 4]) == (6.0, 9.0)
    exact = precompute_diagonal(generate_plan(3), [1, 1, 1], exact=True)
    assert apply_basic_op(exact, [1, 2, 3, 4]) == (Fraction(6), Fraction(9))


def test_apply_delta_taps():
    kernel = precompute_diagonal(generate_plan(3), [1, 0, 0], exact=True)
    assert apply_basic_op(kernel, [5, 7, 0, 0]) == (5, 7)


def test_apply_box_five_taps():
    kernel = precompute_diagonal(generate_plan(5), [1, 1, 1, 1, 1], exact=True)
    assert apply_basic_op(kernel, [1, 1, 1, 1, 1, 1]) == (5, 5)


def test_apply_rejects_wrong_window_length():
    kernel = precompute_diagonal(generate_plan(3), [1, 1, 1])
    with pytest.raises(ValueError):
        apply_basic_op(kernel, [1, 2, 3])


def test_naive_worked_example():
    assert apply_basic_op_naive([1, 1, 1], [1, 2, 3, 4]) == (6.0, 9.0)


def test_naive_one_hot_taps():
    # w = e_k reads the window at offsets k and k+1.
    rng = np.random.default_rng(7)
    x = rng.integers(-50, 51, size=8).tolist()
    for k in range(7):
        w = [0] * 7
        w[k] = 1
        assert apply_basic_op_naive(w, x, exact=True) == (x[k], x[k + 1])


def test_naive_rejects_wrong_window_length():
    with pytest.raises(ValueError):
        apply_basic_op_naive([1, 1, 1], [1, 2, 3, 4, 5])
    # An empty filter has a one-sample window but no direct method.
    with pytest.raises(ValueError):
        apply_basic_op_naive([], [1.0])


def test_exact_equivalence_random_trials():
    rng = np.random.default_rng(20260401)
    for m in range(1, 12):
        plan = generate_plan(m)
        for _ in range(100):
            w = rng.integers(-BOUND, BOUND + 1, size=m).tolist()
            x = rng.integers(-BOUND, BOUND + 1, size=m + 1).tolist()
            kernel = precompute_diagonal(plan, w, exact=True)
            assert apply_basic_op(kernel, x) == apply_basic_op_naive(w, x, exact=True)


def test_five_tap_plan_matches_naive_on_many_draws():
    rng = np.random.default_rng(55)
    plan = generate_plan(5)
    for _ in range(1000):
        w = rng.integers(-BOUND, BOUND + 1, size=5).tolist()
        x = rng.integers(-BOUND, BOUND + 1, size=6).tolist()
        kernel = precompute_diagonal(plan, w, exact=True)
        assert apply_basic_op(kernel, x) == apply_basic_op_naive(w, x, exact=True)


def test_float_equivalence_random_trials():
    rng = np.random.default_rng(99)
    for m in (3, 5, 7, 9, 11):
        plan = generate_plan(m)
        for _ in range(100):
            w = rng.integers(-BOUND, BOUND + 1, size=m).tolist()
            x = rng.integers(-BOUND, BOUND + 1, size=m + 1).tolist()
            got = apply_basic_op(precompute_diagonal(plan, w), x)
            want = apply_basic_op_naive(w, x)
            for g, v in zip(got, want):
                assert abs(g - v) <= 1e-12 * max(abs(g), abs(v), 1.0)


def test_instrumented_counts_three_taps():
    kernel = precompute_diagonal(generate_plan(3), [1, 1, 1])
    counter = OpCounter()
    apply_basic_op(kernel, [1, 2, 3, 4], counter)
    assert (counter.mults, counter.adds) == (4, 8)
    counter = OpCounter()
    apply_basic_op_naive([1, 1, 1], [1, 2, 3, 4], counter=counter)
    assert (counter.mults, counter.adds) == (6, 4)


def test_instrumented_counts_general_sizes():
    for m in range(1, 17):
        plan = generate_plan(m)
        counter = OpCounter()
        apply_basic_op(precompute_diagonal(plan, [1] * m), list(range(m + 1)), counter)
        assert counter.mults == plan.p
        counter = OpCounter()
        apply_basic_op_naive([1] * m, list(range(m + 1)), counter=counter)
        assert counter.mults == 2 * m
        assert counter.adds == 2 * (m - 1)


def test_counts_do_not_depend_on_values():
    plan = generate_plan(9)
    for seed in (1, 2, 3):
        rng = np.random.default_rng(seed)
        w = rng.integers(-BOUND, BOUND + 1, size=9).tolist()
        x = rng.integers(-BOUND, BOUND + 1, size=10).tolist()
        counter = OpCounter()
        apply_basic_op(precompute_diagonal(plan, w), x, counter)
        assert (counter.mults, counter.adds) == (12, 28)


def test_linearity_in_the_window():
    rng = np.random.default_rng(3)
    plan = generate_plan(7)
    w = rng.integers(-100, 101, size=7).tolist()
    kernel = precompute_diagonal(plan, w, exact=True)
    for _ in range(50):
        x = rng.integers(-100, 101, size=8).tolist()
        z = rng.integers(-100, 101, size=8).tolist()
        a = int(rng.integers(-9, 10))
        b = int(rng.integers(-9, 10))
        mixed = [a * xi + b * zi for xi, zi in zip(x, z)]
        yx = apply_basic_op(kernel, x)
        yz = apply_basic_op(kernel, z)
        assert apply_basic_op(kernel, mixed) == (
            a * yx[0] + b * yz[0],
            a * yx[1] + b * yz[1],
        )


def test_adjacent_windows_share_an_output():
    # y1 of the window at j equals y0 of the window at j + 1.
    rng = np.random.default_rng(4)
    for m in (3, 5, 7):
        w = rng.integers(-100, 101, size=m).tolist()
        x = rng.integers(-100, 101, size=m + 2).tolist()
        kernel = precompute_diagonal(generate_plan(m), w, exact=True)
        assert apply_basic_op(kernel, x[: m + 1])[1] == apply_basic_op(kernel, x[1:])[0]


def test_diagonal_constants_are_dyadic():
    # Integer taps only ever divide by a single factor of two.
    rng = np.random.default_rng(5)
    for m in range(1, 17):
        w = rng.integers(-BOUND, BOUND + 1, size=m).tolist()
        kernel = precompute_diagonal(generate_plan(m), w, exact=True)
        assert all(is_dyadic(v) for v in kernel.s)


def test_is_dyadic():
    assert is_dyadic(Fraction(3, 8))
    assert is_dyadic(Fraction(5, 1))
    assert is_dyadic(7)
    assert not is_dyadic(Fraction(1, 3))
    assert not is_dyadic(0.5)
    assert is_dyadic(np.int64(4))
    assert is_dyadic(np.int64(3))
    assert is_dyadic(Q(3, 8))
    assert not is_dyadic(Q(1, 3))


SPECIAL_TAPS = [0.0, -0.0, float("inf"), -float("inf"), float("nan"),
                5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0, -2.5]


def bits(v):
    return struct.pack("<d", v)


def dense_scan(w, coeffs, keep_nan=False):
    # With keep_nan, a sum that is NaN stays the first NaN it became.
    total = 0.0
    for wi, c in zip(w, coeffs):
        if keep_nan and total != total:
            break
        if c > 0:
            total = total + wi
        elif c < 0:
            total = total - wi
    return total


def dense_diagonal(dense, taps, keep_nan=False):
    # The dense recipe: each constant from +0.0 over all m coefficients, and a
    # halved one whose sum is +-inf scanned again over all m halved taps.
    want = []
    for term in dense:
        total = dense_scan(taps, term["coeffs"], keep_nan)
        if term["halved"]:
            halves = [wi / 2 for wi in taps]
            total = dense_scan(halves, term["coeffs"], keep_nan) if math.isinf(total) else total / 2
        want.append(total)
    return want


def test_diagonal_bits_match_dense_recipe_on_special_taps():
    # Each constant starts from +0.0 and adds or subtracts its taps in
    # ascending index order, so signed zeros, infinities, NaN and subnormals
    # land exactly where the dense-coefficient scan puts them.  A halved term
    # whose sum is +-inf sums the halved taps instead.
    rng = np.random.default_rng(11)
    assert generate_plan(BATCH_M - 1).p < _BATCH_TERMS <= generate_plan(BATCH_M).p
    for m in list(range(1, 17)) + [BATCH_M - 1, BATCH_M, 64]:
        plan = generate_plan(m)
        dense = json.loads(plan_to_json(plan))["diag"]
        for _ in range(10):
            taps = rng.choice(SPECIAL_TAPS, size=m).tolist()
            got = precompute_diagonal(plan, taps).s
            assert [bits(v) for v in got] == [bits(v) for v in dense_diagonal(dense, taps)]


def test_halved_overflow_at_m1024_matches_dense_recipe():
    # The redo of an overflowed halved sum reads only its own row's taps; at
    # m = 1024 it still gives the bits of the dense recipe, which halves all
    # m taps.  Every draw overflows at least one halved sum.
    m = 1024
    plan = generate_plan(m)
    dense = json.loads(plan_to_json(plan))["diag"]
    rng = np.random.default_rng(15)
    draws = [[1e308] * m, [-1e308] * m]
    draws += [rng.choice(SPECIAL_TAPS + [1e308] * 6 + [-1e308] * 6, size=m).tolist()
              for _ in range(4)]
    for taps in draws:
        overflowed = [t for t in dense if t["halved"] and math.isinf(dense_scan(taps, t["coeffs"]))]
        assert overflowed
        got = precompute_diagonal(plan, taps).s
        assert [bits(v) for v in got] == [bits(v) for v in dense_diagonal(dense, taps)]


def test_batched_diagonal_on_a_hand_built_plan():
    # Above _BATCH_TERMS, with a plain and a halved one-term row, a halved
    # row of five terms (a run of its own, summed term by term like every
    # run) and a lone negative term: the bits of the dense recipe on special,
    # normal and overflowing taps.  The kernel equals, hashes and prints as
    # one built from its constants, and keeps them as a read-only array for
    # the executor.
    plan = generate_plan(BATCH_M)
    odd = (DiagonalTerm(((4, 1),), False), DiagonalTerm(((0, 1), (2, -1), (5, 1), (7, -1), (9, 1)), True),
           DiagonalTerm(((3, -1),), False), DiagonalTerm(((BATCH_M - 1, 1),), True))
    plan = replace(plan, diag=odd + plan.diag[len(odd):])
    assert plan.p >= _BATCH_TERMS and not validate_plan(plan).ok
    dense = json.loads(plan_to_json(plan))["diag"]
    # The five-term sum overflows at its second term; its halved sum is 5e307.
    overflow = [1.0] * BATCH_M
    overflow[0], overflow[2], overflow[5], overflow[7], overflow[9] = 1e308, -1e308, -1e308, -1e308, -1e308
    assert precompute_diagonal(plan, overflow).s[1] == 5e307
    rng = np.random.default_rng(20)
    draws = [rng.choice(SPECIAL_TAPS, size=BATCH_M).tolist() for _ in range(20)]
    draws += [overflow, rng.normal(size=BATCH_M).tolist(), [1e308] * BATCH_M, [-1e308] * BATCH_M,
              rng.choice([1e308, -1e308, 1.0], size=BATCH_M).tolist()]
    for taps in draws:
        kernel = precompute_diagonal(plan, taps)
        assert [bits(v) for v in kernel.s] == [bits(v) for v in dense_diagonal(dense, taps)]
        assert kernel._array.tobytes() == np.array(kernel.s).tobytes()
        assert not kernel._array.flags.writeable
        built = PreparedKernel(plan, kernel.scaled, 1, False)
        assert kernel == built and hash(kernel) == hash(built) and repr(kernel) == repr(built)


def test_both_diagonal_forms_give_the_same_bits(monkeypatch):
    # The same plan through the loop and the runs form of the plain sums, each
    # finished by the one float tail: the bits of the dense recipe on special,
    # overflowing and NaN-payload taps, and the kernel keeps its read-only
    # array in both forms.
    nans = [struct.unpack("<d", struct.pack("<Q", q))[0]
            for q in (0x7FF8_0000_0000_0000, 0x7FF8_0000_0000_1234, 0xFFF8_0000_0000_0042)]
    rng = np.random.default_rng(23)
    for m in list(range(1, 17)) + [64, BATCH_M, 1024]:
        plan = generate_plan(m)
        dense = json.loads(plan_to_json(plan))["diag"]
        draws = [rng.choice(SPECIAL_TAPS, size=m).tolist(), [1e308] * m,
                 rng.choice([1e308, -1e308, 1.0], size=m).tolist(),
                 rng.choice(nans + [math.inf, -math.inf, 1e308, 1.0], size=m).tolist()]
        for taps in draws:
            want = [bits(v) for v in dense_diagonal(dense, taps, keep_nan=True)]
            for terms in (1, 10**9):
                monkeypatch.setattr(kernels, "_BATCH_TERMS", terms)
                kernel = precompute_diagonal(plan, taps)
                assert [bits(v) for v in kernel.s] == want
                assert "_array" in vars(kernel)
                assert kernel._array.tobytes() == np.array(kernel.s).tobytes()
                assert not kernel._array.flags.writeable


def test_runs_that_must_split_keep_the_dense_scan_bits():
    # The products in reverse order: pre rows and diag terms reversed, post
    # rows reindexed to match.  The plan is still valid, but its first columns
    # step backwards, so every run of the schedule is one row.  The batched
    # diagonal and batched fir_filter still give the dense scan's bits.
    rng = np.random.default_rng(21)
    finite = [v for v in SPECIAL_TAPS if abs(v) < 1e300]
    for m in (BATCH_M, 1024):
        plan = generate_plan(m)
        p = plan.p
        plan = replace(plan, pre_rows=plan.pre_rows[::-1], diag=plan.diag[::-1],
                       post_rows=tuple(tuple((p - 1 - k, v) for k, v in reversed(row))
                                       for row in plan.post_rows))
        assert validate_plan(plan).ok
        # Its rows are no longer its blocks' templates, so it is not counted.
        with pytest.raises(ValueError, match="templates"):
            count_proposed(plan)
        assert len(plan._schedule.pre) == len(plan._schedule.diag) == p
        doc = json.loads(plan_to_json(plan))
        for values in (SPECIAL_TAPS, finite):
            taps = rng.choice(values, size=m).tolist()
            kernel = precompute_diagonal(plan, taps)
            want = dense_diagonal(doc["diag"], taps, keep_nan=True)
            assert [bits(v) for v in kernel.s] == [bits(v) for v in want]
            signal = rng.choice(values, size=2 * 40 + m - 1)
            got = fir_filter(kernel, signal)
            want = dense_scan_outputs(doc, kernel.s, signal)
            assert [nan_or_bits(v) for v in got] == [nan_or_bits(v) for v in want]


def test_loop_nan_constant_is_the_first_nan_of_its_sum():
    # In a fresh interpreter, whose float add has not specialized, CPython 3.11
    # keeps the second NaN of NaN + NaN.  The loop form still gives the halved
    # constant (w0 + w1 + w2) / 2 the first NaN its sum becomes, as the
    # batched form does.
    code = ("import struct; from minfilt import generate_plan, precompute_diagonal\n"
            "nan = lambda q: struct.unpack('<d', struct.pack('<Q', q))[0]\n"
            "taps = [nan(0x7FF8_0000_0000_1234), nan(0xFFF8_0000_0000_0042), 1.0]\n"
            "print(struct.pack('<d', precompute_diagonal(generate_plan(3), taps).s[1]).hex())")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert struct.unpack("<Q", bytes.fromhex(out.stdout.strip()))[0] == 0x7FF8_0000_0000_1234


def test_row_sum_stops_at_the_first_nan_before_the_add_specializes():
    # Called once in a fresh interpreter, _row_sum's float add is CPython's
    # generic one, which keeps the second NaN of NaN + NaN where it keeps one;
    # only the stop gives the sum the first NaN it becomes.
    code = ("import struct; from minfilt.kernels import _row_sum\n"
            "nan = lambda q: struct.unpack('<d', struct.pack('<Q', q))[0]\n"
            "values = [nan(0x7FF8_0000_0000_1234), -nan(0x7FF8_0000_0000_0042), 1.0]\n"
            "print(struct.pack('<d', _row_sum(((0, 1), (1, 1), (2, 1)), values, 0.0)).hex())")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert struct.unpack("<Q", bytes.fromhex(out.stdout.strip()))[0] == 0x7FF8_0000_0000_1234


def test_batched_nan_constant_is_the_first_nan_of_its_sum():
    # Of NaN + NaN, numpy's loops keep either payload, by where the term falls
    # in them, and CPython's add keeps the second until it specializes, the
    # first after.  The batched form gives each NaN constant the first NaN its
    # sum becomes, on taps that mix NaN payloads and signs.
    nans = [struct.unpack("<d", struct.pack("<Q", q))[0]
            for q in (0x7FF8_0000_0000_0000, 0x7FF8_0000_0000_1234, 0xFFF8_0000_0000_0042)]
    rng = np.random.default_rng(2020)
    for m in (BATCH_M, 1024):
        plan = generate_plan(m)
        dense = json.loads(plan_to_json(plan))["diag"]
        for _ in range(6):
            taps = rng.choice(nans + [math.inf, -math.inf, 1e308, 1.0], size=m).tolist()
            got = precompute_diagonal(plan, taps).s
            assert [bits(v) for v in got] == [bits(v) for v in dense_diagonal(dense, taps, keep_nan=True)]


def test_diagonal_index_past_the_taps_raises_the_row_rule_error():
    # A diag index at or past m is the executor's ValueError, naming the fault
    # as validate_plan does, in both arithmetics and both diagonal forms.
    for m in (3, BATCH_M):
        plan = generate_plan(m)
        bad = replace(plan, diag=(DiagonalTerm(((m, 1),), False),) + plan.diag[1:])
        fault = f"dimension violation: diag term 0 has an index outside [0, {m})"
        assert fault in validate_plan(bad).failures
        for exact in (False, True):
            with pytest.raises(ValueError) as info:
                precompute_diagonal(bad, list(range(1, m + 1)), exact=exact)
            assert str(info.value) == "plan rows do not fit its matrices: " + fault


def test_non_finite_constant_admits_a_small_plan_by_the_row_rule():
    # A small float plan with a non-finite constant goes through the float
    # tail; it raises the row rule's ValueError for index -1 rather than
    # wrapping to the last tap, as it does on finite taps and a wide plan does.
    plan = generate_plan(3)
    bad = replace(plan, diag=(DiagonalTerm(((-1, 1),), False),) + plan.diag[1:])
    assert plan.p < _BATCH_TERMS
    fault = validate_plan(bad).failures[0]
    assert fault == "dimension violation: diag term 0 has an index outside [0, 3)"
    with pytest.raises(ValueError) as info:
        precompute_diagonal(bad, [math.inf, 1.0, 1.0])
    assert str(info.value) == "plan rows do not fit its matrices: " + fault


def test_diagonal_admits_plans_by_the_row_rule():
    # Each diag row fault is the row rule's ValueError, naming the fault
    # validate_plan reports first, in both diagonal forms and both
    # arithmetics, on finite and non-finite taps.  Summed as written, all but
    # the second would give constants: at m = 3 on taps 1, 2, 3, index -1
    # wraps to 3.0, an entry of 2 reads as 1.0, a stored 0 subtracts to -1.0,
    # a repeated index sums to 2.0 and an empty row sums to 0.0.
    for m in (3, BATCH_M):
        plan = generate_plan(m)
        faults = [
            (((-1, 1),), f"dimension violation: diag term 0 has an index outside [0, {m})"),
            (((m, 1),), f"dimension violation: diag term 0 has an index outside [0, {m})"),
            (((0, 2),), "ternary-entry violation: diag term 0 has an entry outside {-1, 0, +1}"),
            (((0, 1), (1, 0)), "sparse-row violation: diag term 0 stores a zero entry"),
            (((0, 1), (0, 1)), "sparse-row violation: diag term 0 indices do not strictly ascend"),
            ((), "sparse-row violation: diag term 0 is empty"),
        ]
        draws = [list(range(1, m + 1)), [math.inf] + [1.0] * (m - 1), [1.0] * (m - 1) + [math.nan]]
        for row, fault in faults:
            bad = replace(plan, diag=(DiagonalTerm(row, False),) + plan.diag[1:])
            assert validate_plan(bad).failures[0] == fault
            for taps in draws:
                for exact in (False, True):
                    with pytest.raises(ValueError) as info:
                        precompute_diagonal(bad, taps, exact=exact)
                    assert str(info.value) == "plan rows do not fit its matrices: " + fault


def test_halved_overflow_retry_is_linear_in_the_plan():
    # Every halved sum of 1e308 taps overflows and is redone; the redo reads
    # one row, so it costs about what the first sum did, not a pass over all
    # m taps per term.  Best of 5 interleaved runs each, for the loop form of
    # the plain sums (m = 64, P = 86) and the runs form (m = 4096).
    for m in (64, 4096):
        plan = generate_plan(m)
        huge, finite = [1e308] * m, np.random.default_rng(m).normal(size=m).tolist()
        best = [math.inf, math.inf]
        for _ in range(5):
            for k, taps in enumerate((huge, finite)):
                start = time.perf_counter()
                precompute_diagonal(plan, taps)
                best[k] = min(best[k], time.perf_counter() - start)
        assert best[0] <= 10 * best[1]


def test_halved_sum_overflow_stays_finite():
    # 1e308 + 1e308 overflows, but the halved constant 1e308 does not: it is
    # summed from the halved taps, and the outputs equal the direct method's.
    taps, signal = [1e308, 1e308, -1e308], [1.0, 0.0, 0.0, 1.0, 2.0]
    kernel = precompute_diagonal(generate_plan(3), taps)
    assert all(math.isfinite(v) for v in kernel.s)
    want = naive_fir(signal, taps)
    assert want == [1e308, -1e308, -math.inf]
    assert fir_filter(kernel, signal) == want


def nan_or_bits(v):
    return "nan" if math.isnan(v) else struct.pack("<d", v)


def dense_row_scan(rows, vec):
    # Each dense row summed in ascending column order: its first nonzero term
    # is v or -v, each later one added or subtracted; an empty row is 0.0.
    # The entries of vec may be floats or numpy arrays of them.
    sums = []
    for row in rows:
        acc = None
        for v, c in zip(vec, row):
            if c == 0:
                continue
            if acc is None:
                acc = v if c > 0 else -v
            else:
                acc = acc + v if c > 0 else acc - v
        sums.append(0.0 if acc is None else acc)
    return sums


def dense_scan_outputs(doc, s, signal) -> list:
    """fir_filter's outputs read from a plan document's dense rows.

    Every window at once: column j holds sample j of each window, as a numpy
    array, so each scan operation is one IEEE operation per window.
    """
    m = doc["m"]
    n_out = len(signal) - m + 1
    windows = (n_out + 1) // 2
    x = np.zeros(2 * windows + m - 1)
    x[: len(signal)] = signal
    columns = [x[j : j + 2 * windows : 2] for j in range(m + 1)]
    with np.errstate(all="ignore"):
        mu = [sk * tk for sk, tk in zip(s, dense_row_scan(doc["a_pre"], columns))]
        y0, y1 = dense_row_scan(doc["a_post"], mu)
    out = np.empty(2 * windows)
    out[0::2] = y0
    out[1::2] = y1
    return out[:n_out].tolist()


def test_basic_op_matches_dense_row_scan_on_special_values():
    # apply_basic_op against its definition, read from the dense a_pre and
    # a_post rows of the JSON document: each row summed in ascending column
    # order, each product s_k * t_k.  Bit for bit; a NaN only has to meet a NaN.
    rng = np.random.default_rng(12)
    for m in list(range(1, 17)) + [64]:
        plan = generate_plan(m)
        doc = json.loads(plan_to_json(plan))
        for _ in range(10):
            kernel = precompute_diagonal(plan, rng.choice(SPECIAL_TAPS, size=m).tolist())
            x = rng.choice(SPECIAL_TAPS, size=m + 1).tolist()
            mu = [sk * tk for sk, tk in zip(kernel.s, dense_row_scan(doc["a_pre"], x))]
            want = dense_row_scan(doc["a_post"], mu)
            assert [nan_or_bits(v) for v in apply_basic_op(kernel, x)] == [nan_or_bits(v) for v in want]


def test_whole_signal_matches_dense_row_scan_on_special_values():
    # fir_filter over whole signals, batched below _BATCH_WINDOWS windows and
    # row by row from there, against the dense rows of the JSON document rather
    # than the executor itself.  Odd output counts pad the last window.  Draws
    # from all the special values and from their finite part, so that wide
    # filters also give outputs other than NaN.
    finite = [v for v in SPECIAL_TAPS if abs(v) < 1e300]
    rng = np.random.default_rng(18)
    for m in list(range(1, 17)) + [64, 1024]:
        plan = generate_plan(m)
        doc = json.loads(plan_to_json(plan))
        for windows in (1, 2, 3, _BATCH_WINDOWS - 1, _BATCH_WINDOWS, 2 * _BATCH_WINDOWS + 5):
            for values in (SPECIAL_TAPS, finite):
                n = 2 * windows + m - 1 - int(rng.integers(2))
                kernel = precompute_diagonal(plan, rng.choice(values, size=m).tolist())
                signal = rng.choice(values, size=n)
                got = fir_filter(kernel, signal)
                want = dense_scan_outputs(doc, kernel.s, signal)
                assert [nan_or_bits(v) for v in got] == [nan_or_bits(v) for v in want]


def test_diagonal_rejects_text_taps():
    plan = generate_plan(3)
    for taps, exact in ((["1", "2", "3"], False), ([1, "1/3", 2], True), ([1, 2, b"3"], False)):
        with pytest.raises(TypeError):
            precompute_diagonal(plan, taps, exact=exact)


def test_one_input_rule_at_every_entry_point():
    # m = 3, taps [1, 2, 3]: a sample or tap that is not a numbers.Real is a
    # TypeError from the one input rule in every entry point and both modes,
    # where a parsed string, NaN for None, a dropped imaginary part or numpy's
    # ValueError on a ragged list used to come out.  float32 and longdouble
    # ndarrays are real, and exact mode keeps their values exactly.
    plan = generate_plan(3)
    rejected = (
        ["1", "2", "3", "4"],
        np.array([b"1", b"2", b"3", b"4"]),
        [None, 1, 2, 3],
        np.array([1 + 5j, 2, 3, 4]),
        [Decimal(v) for v in (1, 2, 3, 4)],
        [[1, 2], [3], 4, 5],
    )
    for exact in (False, True):
        kernel = precompute_diagonal(plan, [1, 2, 3], exact=exact)
        for values in rejected:
            calls = (
                lambda: fir_filter(kernel, values),
                lambda: naive_fir(values, [1, 2, 3], exact),
                lambda: naive_fir([1, 2, 3, 4], values[:3], exact),
                lambda: apply_basic_op(kernel, values),
                lambda: apply_basic_op_naive([1, 2, 3], values, exact),
                lambda: precompute_diagonal(plan, values[:3], exact=exact),
            )
            for call in calls:
                with pytest.raises(TypeError, match="must be real numbers"):
                    call()

        for dtype in (np.float32, np.longdouble):
            x, w = np.array([1.5, 2, 3, 4], dtype=dtype), np.array([1, 2, 3], dtype=dtype)
            kernel = precompute_diagonal(plan, w, exact=exact)
            outputs = (fir_filter(kernel, x), naive_fir(x, w, exact), list(apply_basic_op(kernel, x)))
            for out in outputs:
                assert out == ([Fraction(29, 2), Fraction(20)] if exact else [14.5, 20.0])
                assert all(type(v) is (Fraction if exact else float) for v in out)


def test_input_rule_admits_only_sequences_and_1d_arrays():
    # m = 3: a set has no sample order (filtered, it runs in hash order), a
    # dict iterates its keys and bytes, bytearray and memoryview hold text as
    # byte values, so even at the right length each is the input rule's
    # TypeError at every entry point and in both modes.  fir_filter reads no
    # length before the rule, so a generator and a 0-d array get the same
    # TypeError there.
    def containers(values):
        return (set(values), frozenset(values), dict.fromkeys(values),
                bytes(values), bytearray(values), memoryview(bytes(values)))

    plan = generate_plan(3)
    for exact in (False, True):
        kernel = precompute_diagonal(plan, [1, 0, 0], exact=exact)
        for x, w in zip(containers([100, 7, 33, 1]), containers([1, 2, 3])):
            calls = (
                lambda: fir_filter(kernel, x),
                lambda: naive_fir(x, [1, 2, 3], exact),
                lambda: naive_fir([1, 2, 3, 4], w, exact),
                lambda: apply_basic_op(kernel, x),
                lambda: apply_basic_op_naive([1, 2, 3], x, exact),
                lambda: precompute_diagonal(plan, w, exact=exact),
            )
            for call in calls:
                with pytest.raises(TypeError, match=f"must be real numbers.*got {type(x).__name__}"):
                    call()
        for signal, name in (((v for v in [1, 2, 3, 4]), "generator"), (np.array(5.0), "ndarray")):
            with pytest.raises(TypeError, match=f"must be real numbers.*got {name}"):
                fir_filter(kernel, signal)


class Q(Rational):
    """A minimal Rational: a numerator and a denominator, no as_integer_ratio()."""

    def __init__(self, numerator, denominator):
        self._ratio = numerator, denominator

    numerator = property(lambda self: self._ratio[0])
    denominator = property(lambda self: self._ratio[1])


class R(Real):
    """A minimal Real that is not rational: only a float value."""

    def __init__(self, value):
        self._value = value

    def __float__(self):
        return self._value


Q.__abstractmethods__ = R.__abstractmethods__ = frozenset()


def test_rationals_without_integer_ratio_at_every_entry_point():
    # m = 3: a Rational without as_integer_ratio() is read through its
    # numerator and denominator in exact mode and through its own __float__
    # in float mode, so it acts as the Fraction it stands for.  A Real that is
    # not rational has a float value only: float mode takes it, exact mode
    # raises the input rule's TypeError, never AttributeError.
    plan = generate_plan(3)
    as_fraction = lambda vs: [Fraction(v.numerator, v.denominator) if isinstance(v, Q) else v
                              for v in vs]
    for exact in (False, True):
        x, w = [Q(1, 3), 1, 2, 3], [1, Q(-2, 7), 3]
        xf, wf = as_fraction(x), as_fraction(w)
        kernel, kernel_f = precompute_diagonal(plan, w, exact), precompute_diagonal(plan, wf, exact)
        assert kernel.s == kernel_f.s
        assert naive_fir(x, [1, 2, 3], exact) == ([Fraction(25, 3), 14] if exact
                                                  else [8.333333333333334, 14.0])
        pairs = (
            (fir_filter(kernel, x), fir_filter(kernel_f, xf)),
            (naive_fir(x, w, exact), naive_fir(xf, wf, exact)),
            (list(apply_basic_op(kernel, x)), list(apply_basic_op(kernel_f, xf))),
            (list(apply_basic_op_naive(w, x, exact)), list(apply_basic_op_naive(wf, xf, exact))),
        )
        for got, want in pairs:
            assert got == want
            assert all(type(v) is (Fraction if exact else float) for v in got)

        x, w = [R(0.5), 1, 2, 3], [1, R(-0.25), 3]
        kernel = precompute_diagonal(plan, [1, 2, 3], exact=exact)
        calls = (
            lambda: fir_filter(kernel, x),
            lambda: naive_fir(x, [1, 2, 3], exact),
            lambda: naive_fir([1, 2, 3, 4], w, exact),
            lambda: apply_basic_op(kernel, x),
            lambda: apply_basic_op_naive([1, 2, 3], x, exact),
            lambda: precompute_diagonal(plan, w, exact=exact),
        )
        if exact:
            for call in calls:
                with pytest.raises(TypeError, match="must be real numbers.*got R$"):
                    call()
        else:
            xf, wf = [0.5, 1, 2, 3], [1, -0.25, 3]
            assert [call() for call in calls] == [
                fir_filter(kernel, xf), naive_fir(xf, [1, 2, 3]), naive_fir([1, 2, 3, 4], wf),
                apply_basic_op(kernel, xf), apply_basic_op_naive([1, 2, 3], xf),
                precompute_diagonal(plan, wf)]


def test_float_mode_rejects_ints_beyond_float_range():
    # Float mode converts each value to float64 as numpy does, so an int too
    # large for a float raises OverflowError at every entry point, as float()
    # does.  Exact mode reads the same int exactly.
    plan = generate_plan(3)
    kernel = precompute_diagonal(plan, [1, 2, 3])
    x, w = [2**2000, 1, 2, 3], [1, 2, 2**2000]
    calls = (
        lambda: fir_filter(kernel, x),
        lambda: naive_fir(x, [1, 2, 3]),
        lambda: naive_fir([1, 2, 3, 4], w),
        lambda: apply_basic_op(kernel, x),
        lambda: apply_basic_op_naive([1, 2, 3], x),
        lambda: precompute_diagonal(plan, w),
    )
    for call in calls:
        with pytest.raises(OverflowError, match="too large to convert to float"):
            call()
    exact = precompute_diagonal(plan, w, exact=True)
    assert fir_filter(exact, x) == naive_fir(x, w, True) == [3 * 2**2000 + 2, 3 * 2**2000 + 5]


def test_exact_mode_reads_numpy_scalars_in_a_list_exactly():
    # Numpy scalars inside a Python list: each is read through .item() (a
    # longdouble stays itself) and its own integer ratio, never rounded or
    # wrapped on the way.
    signal = [np.int64(2**62 + 1), np.float32(0.1), np.bool_(True),
              np.longdouble(1) / 3, Fraction(1, 7), 2**70]
    taps = [np.float32(-0.3), 2**70 + 1, np.int64(-3), np.bool_(True), np.longdouble(2) / 7]

    def rational(v):
        return Fraction(*v.item().as_integer_ratio()) if isinstance(v, np.generic) else Fraction(v)

    xq, wq = [rational(v) for v in signal], [rational(v) for v in taps]
    want = [sum(xq[i + j] * wq[i] for i in range(5)) for j in range(2)]
    plan = generate_plan(5)
    kernel = precompute_diagonal(plan, taps, exact=True)
    assert kernel.s == tuple(sum(c * wq[i] for i, c in t.row) / (2 if t.halved else 1)
                             for t in plan.diag)
    for got in (fir_filter(kernel, signal), list(apply_basic_op(kernel, signal)),
                naive_fir(signal, taps, exact=True)):
        assert got == want
        assert all(type(v) is Fraction for v in got)


def test_exact_mode_reads_longdouble_exactly():
    # Exact mode takes each np.longdouble through its own integer ratio; float
    # mode rounds it to float64 once.  Where longdouble is wider than float64,
    # 1 + eps differs from its float64 rounding.
    eps = np.finfo(np.longdouble).eps
    x = np.array([1, 2, 3, 4], dtype=np.longdouble) + eps
    w = np.array([1, -2, 3], dtype=np.longdouble) + eps
    xq = [Fraction(*v.as_integer_ratio()) for v in x]
    wq = [Fraction(*v.as_integer_ratio()) for v in w]
    want = [sum(xq[i + j] * wq[i] for i in range(3)) for j in range(2)]

    plan = generate_plan(3)
    kernel = precompute_diagonal(plan, w, exact=True)
    for values in (w, list(w)):
        assert precompute_diagonal(plan, values, exact=True).s == kernel.s
    for signal in (x, list(x)):
        assert naive_fir(signal, w, exact=True) == fir_filter(kernel, signal) == want
        assert naive_fir(signal, w) == fir_filter(precompute_diagonal(plan, w), signal) \
            == naive_fir(x.astype(np.float64), w.astype(np.float64))


def test_exact_mode_rejects_non_finite_at_every_entry_point():
    # m = 3: inf or NaN has no exact value, so every entry point raises one
    # ValueError that names exact mode, for Python, numpy and longdouble
    # values in a list or an ndarray.  Float mode takes them as they are.
    plan = generate_plan(3)
    kernel = precompute_diagonal(plan, [1, 2, 3], exact=True)
    for bad in (math.inf, -math.inf, math.nan):
        for dtype in (np.float64, np.float32, np.longdouble):
            array = np.array([bad, 1, 2, 3], dtype=dtype)
            for values in (array, list(array), [bad, 1, 2, 3]):
                calls = (
                    lambda: fir_filter(kernel, values),
                    lambda: naive_fir(values, [1, 2, 3], True),
                    lambda: naive_fir([1, 2, 3, 4], values[:3], True),
                    lambda: apply_basic_op(kernel, values),
                    lambda: apply_basic_op_naive([1, 2, 3], values, True),
                    lambda: precompute_diagonal(plan, values[:3], exact=True),
                )
                for call in calls:
                    with pytest.raises(ValueError, match="exact mode needs finite"):
                        call()
    float_kernel = precompute_diagonal(plan, [1, 2, math.inf])
    assert math.isnan(fir_filter(float_kernel, [math.nan, 1, 2, 3])[0])


def test_no_entry_point_writes_into_its_inputs():
    # A float64 ndarray reaches the executor without a copy, and with an even
    # output count the stages read it in place; whatever they scale or update
    # in place must be their own arrays.  The fourth signal is
    # _BATCH_WINDOWS windows, the product loop.
    plan = generate_plan(5)
    values = (
        np.array([1.5, -2.0, 0.25, -0.0, 3.0, 7.0, -1.0, 2.0]),
        np.array([2**62, -3, 5, 0, -2**62, 9, 1, -1], dtype=np.int64),
        [1, -2.5, Fraction(1, 3), 0.0, -0.0, 4, 2**70, -1],
        np.random.default_rng(9).standard_normal(2 * _BATCH_WINDOWS + 4),
    )
    for exact in (False, True):
        for signal in values:
            taps, window = signal[2:7].copy(), signal[1:7].copy()
            before = pickle.dumps((signal, taps, window))
            kernel = precompute_diagonal(plan, taps, exact=exact)
            fir_filter(kernel, signal, OpCounter())
            apply_basic_op(kernel, window, OpCounter())
            naive_fir(signal, taps, exact)
            assert pickle.dumps((signal, taps, window)) == before
