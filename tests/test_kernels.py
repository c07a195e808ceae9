"""Diagonal precomputation, basic-operation execution, operation counting."""

import json
import struct
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from minfilt import (
    OpCounter,
    apply_basic_op,
    apply_basic_op_naive,
    fir_filter,
    generate_plan,
    is_dyadic,
    naive_fir,
    plan_to_json,
    precompute_diagonal,
)

BOUND = 2**20


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
    assert all(isinstance(v, float) for v in kernel.s)


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


def test_diagonal_bits_match_dense_recipe_on_special_taps():
    # Each constant starts from +0.0 and adds or subtracts its taps in
    # ascending index order, so signed zeros, infinities, NaN and subnormals
    # land exactly where the dense-coefficient scan puts them.
    specials = [0.0, -0.0, float("inf"), -float("inf"), float("nan"),
                5e-324, -5e-324, 2.2e-308, 1e308, -1e308, 1.0, -2.5]
    rng = np.random.default_rng(11)
    bits = lambda v: struct.pack("<d", v)
    for m in list(range(1, 17)) + [64]:
        plan = generate_plan(m)
        dense = json.loads(plan_to_json(plan))["diag"]
        for _ in range(10):
            taps = rng.choice(specials, size=m).tolist()
            want = []
            for term in dense:
                total = 0.0
                for wi, c in zip(taps, term["coeffs"]):
                    if c > 0:
                        total = total + wi
                    elif c < 0:
                        total = total - wi
                want.append(total / 2 if term["halved"] else total)
            got = precompute_diagonal(plan, taps).s
            assert [bits(v) for v in got] == [bits(v) for v in want]


def test_diagonal_rejects_text_taps():
    plan = generate_plan(3)
    for taps, exact in ((["1", "2", "3"], False), ([1, "1/3", 2], True), ([1, 2, b"3"], False)):
        with pytest.raises(TypeError):
            precompute_diagonal(plan, taps, exact=exact)


def test_one_input_rule_at_every_entry_point():
    # m = 3, taps [1, 2, 3]: a sample or tap that is not a numbers.Real is a
    # TypeError from the one input rule in every entry point and both modes,
    # where a parsed string, NaN for None or a dropped imaginary part used to
    # pass.  A float32 ndarray is real, and exact mode keeps its values exactly.
    plan = generate_plan(3)
    rejected = (
        ["1", "2", "3", "4"],
        np.array([b"1", b"2", b"3", b"4"]),
        [None, 1, 2, 3],
        np.array([1 + 5j, 2, 3, 4]),
        [Decimal(v) for v in (1, 2, 3, 4)],
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

        x, w = np.array([1.5, 2, 3, 4], dtype=np.float32), np.array([1, 2, 3], dtype=np.float32)
        kernel32 = precompute_diagonal(plan, w, exact=exact)
        outputs = (fir_filter(kernel32, x), naive_fir(x, w, exact), list(apply_basic_op(kernel32, x)))
        for out in outputs:
            assert out == ([Fraction(29, 2), Fraction(20)] if exact else [14.5, 20.0])
            assert all(type(v) is (Fraction if exact else float) for v in out)
