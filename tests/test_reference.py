"""Direct-summation FIR ground truth."""

import numpy as np
import pytest

from minfilt import (
    apply_basic_op_naive,
    fir_filter,
    generate_plan,
    naive_fir,
    precompute_diagonal,
)


def test_moving_sum_example():
    assert naive_fir([1, 2, 3, 4, 5, 6], [1, 1, 1]) == [6.0, 9.0, 12.0, 15.0]


def test_single_tap_scales_the_signal():
    assert naive_fir([3, 1, 4, 1, 5], [2], exact=True) == [6, 2, 8, 2, 10]


def test_no_tap_reversal():
    # A leading impulse reads w[0] first, so the first output is w[0].
    assert naive_fir([1, 0, 0, 0, 0], [10, 20, 30], exact=True) == [10, 0, 0]


def test_output_length():
    for m in range(1, 8):
        for n in range(m, m + 10):
            assert len(naive_fir(list(range(n)), [1] * m)) == n - m + 1


def test_rejects_short_signal_and_empty_taps():
    with pytest.raises(ValueError):
        naive_fir([1, 2], [1, 1, 1])
    with pytest.raises(ValueError):
        naive_fir([1, 2, 3], [])


def test_exact_mode_returns_exact_types():
    out = naive_fir([1, 2, 3, 4], [1, 1, 1], exact=True)
    assert out == [6, 9]
    assert all(not isinstance(v, float) for v in out)

    # numpy integers, alone or in an ndarray, must not wrap once products
    # pass 2**63, in the reference or the executor.
    x, w = [2**40] * 3 + [1], [2**40, 1, 1]
    want = [2**80 + 2**41, 2**80 + 2**40 + 1]
    for signal, taps in ((np.array(x), np.array(w)), (list(np.array(x)), list(np.array(w))),
                         (np.array(x), w)):
        kernel = precompute_diagonal(generate_plan(3), taps, exact=True)
        assert naive_fir(signal, taps, exact=True) == fir_filter(kernel, signal) == want


def test_windows_match_the_two_output_primitive():
    rng = np.random.default_rng(11)
    for m in (3, 5, 7):
        w = rng.integers(-50, 51, size=m).tolist()
        x = rng.integers(-50, 51, size=m + 9).tolist()
        y = naive_fir(x, w, exact=True)
        for j in range(len(y) - 1):
            window = x[j : j + m + 1]
            assert apply_basic_op_naive(w, window, exact=True) == (y[j], y[j + 1])
