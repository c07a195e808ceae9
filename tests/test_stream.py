"""Whole-signal filtering through the two-output kernel."""

import numpy as np
import pytest

from minfilt import (
    OpCounter,
    fir_filter,
    generate_plan,
    naive_fir,
    precompute_diagonal,
)


def test_even_output_count():
    kernel = precompute_diagonal(generate_plan(3), [1, 1, 1])
    assert fir_filter(kernel, [1, 2, 3, 4, 5, 6]) == [6.0, 9.0, 12.0, 15.0]


def test_odd_output_count_discards_padded_tail():
    # Five samples give three outputs; the zero-padded fourth is dropped.
    kernel = precompute_diagonal(generate_plan(3), [1, 2, 3], exact=True)
    assert fir_filter(kernel, [1, 1, 1, 1, 1]) == [6, 6, 6]


def test_signal_equal_to_filter_length():
    kernel = precompute_diagonal(generate_plan(5), [1, 1, 1, 1, 1], exact=True)
    assert fir_filter(kernel, [1, 2, 3, 4, 5]) == [15]


def test_rejects_short_signal():
    kernel = precompute_diagonal(generate_plan(5), [1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        fir_filter(kernel, [1, 2, 3, 4])


def test_float_mode_rejects_complex_signal():
    # Casting to float64 would drop the imaginary parts and give [14.0, 20.0].
    kernel = precompute_diagonal(generate_plan(3), [1, 2, 3])
    signals = (np.array([1 + 5j, 2, 3, 4]), [np.complex128(1 + 5j), 2, 3, 4], [1 + 5j, 2, 3, 4])
    for signal in signals:
        with pytest.raises(TypeError):
            fir_filter(kernel, signal)


def test_matches_reference_for_all_lengths():
    rng = np.random.default_rng(21)
    for m in (3, 5, 7, 9, 11):
        plan = generate_plan(m)
        for n in range(m, m + 21):
            w = rng.integers(-1000, 1001, size=m).tolist()
            x = rng.integers(-1000, 1001, size=n).tolist()
            kernel = precompute_diagonal(plan, w, exact=True)
            assert fir_filter(kernel, x) == naive_fir(x, w, exact=True)


def test_float_mode_matches_reference():
    rng = np.random.default_rng(22)
    for m in (3, 5, 7):
        w = rng.standard_normal(m).tolist()
        x = rng.standard_normal(m + 14).tolist()
        kernel = precompute_diagonal(generate_plan(m), w)
        got = fir_filter(kernel, x)
        want = naive_fir(x, w)
        assert len(got) == len(want)
        for g, v in zip(got, want):
            assert abs(g - v) <= 1e-12 * max(abs(g), abs(v), 1.0)


def test_basic_operation_invocations():
    # ceil((N - m + 1) / 2) windows, each costing exactly P multiplications.
    for m in (3, 5, 7):
        plan = generate_plan(m)
        kernel = precompute_diagonal(plan, [1] * m)
        for n in range(m, m + 9):
            counter = OpCounter()
            fir_filter(kernel, list(range(n)), counter)
            n_out = n - m + 1
            assert counter.mults == plan.p * ((n_out + 1) // 2)
