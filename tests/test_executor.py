"""The whole-signal executor against itself one window at a time.

``fir_filter`` runs one stage pipeline in both arithmetics, and
``apply_basic_op`` is that pipeline on one window: float outputs of a whole
signal must match it window by window bit for bit, exact outputs must stay
``Fraction`` and equal the direct method, and in both modes the operation
counts must equal the per-window sum.
"""

import functools
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from minfilt import (
    DiagonalTerm,
    KernelPlan,
    OpCounter,
    PreparedKernel,
    apply_basic_op,
    fir_filter,
    generate_plan,
    naive_fir,
    plan_to_json,
    precompute_diagonal,
    validate_plan,
)
from minfilt import stream
from minfilt.stream import _BATCH_WINDOWS
from test_kernels import dense_scan_outputs, nan_or_bits

plan_for = functools.lru_cache(maxsize=None)(generate_plan)


def per_window(kernel, signal, counter=None) -> list:
    """fir_filter as one apply_basic_op per window, the last zero-padded."""
    m = kernel.plan.m
    n_out = len(signal) - m + 1
    x = list(signal) + [0] * (n_out % 2)
    out = []
    for k in range((n_out + 1) // 2):
        out.extend(apply_basic_op(kernel, x[2 * k : 2 * k + m + 1], counter))
    return out[:n_out]


def assert_same_bits_nan_by_position(got, want):
    """Bit-identical outputs, except that a NaN only has to meet a NaN."""
    assert len(got) == len(want)
    g = np.array(got, dtype=np.float64)
    w = np.array(want, dtype=np.float64)
    nan = np.isnan(w)
    assert (np.isnan(g) == nan).all()
    assert (g[~nan].view(np.uint64) == w[~nan].view(np.uint64)).all()


def test_nonfinite_contract():
    inf, nan = math.inf, math.nan
    cases = [
        # Finite taps whose halved sums overflow: the constants are summed
        # from halved taps, so the outputs stay finite where the direct
        # method's do.
        (3, [1e308, 1e308, -1e308], [1.0, 0.0, 0.0, 1.0, 2.0]),
        # Infinite and NaN samples spread through the windows.
        (5, [1.0, -2.0, 0.5, 3.0, -1.0], [0.0, inf, 1.0, -inf, 2.0, nan, 3.0, 4.0, 5.0]),
        (11, [0.25] * 11, [inf] + [1.0] * 20 + [-inf]),
        # Signed zeros must keep their sign.
        (1, [1.0], [-0.0, 0.0, -0.0]),
        (4, [-0.0, 1.0, 0.0, -1.0], [-0.0] * 9),
    ]
    saw_nan = saw_inf = saw_negzero = False
    for m, taps, signal in cases:
        kernel = precompute_diagonal(generate_plan(m), taps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fir_filter(kernel, signal)
        want = per_window(kernel, signal)
        assert_same_bits_nan_by_position(got, want)
        saw_nan |= any(math.isnan(v) for v in got)
        saw_inf |= any(math.isinf(v) for v in got)
        saw_negzero |= any(v == 0 and math.copysign(1, v) < 0 for v in got)
    assert saw_nan and saw_inf and saw_negzero


def test_hand_built_plan_with_shared_and_empty_rows():
    # Two products read the same lone sample: the executor must not scale one
    # shared array twice.  An empty a_pre row and an empty a_post row break
    # the row rule: a product with no pre-sum, an output with no adder.  Each
    # raises the rule's ValueError in both arithmetics.
    base = generate_plan(1)
    plan = KernelPlan(
        m=1,
        blocks=base.blocks,
        pre_rows=(((0, 1),), ((0, 1),)),
        post_rows=(((0, 1),), ((1, 1),)),
        diag=(DiagonalTerm(((0, 1),), False),) * 2,
    )
    assert plan.a_pre.tolist() == [[1, 0], [1, 0]]
    assert plan.a_post.tolist() == [[1, 0], [0, 1]]
    empty_pre = replace(plan, pre_rows=plan.pre_rows + ((),), diag=plan.diag + plan.diag[:1])
    no_y1 = replace(plan, post_rows=(((0, 1),), ()))
    signal = [1.0, 2.0, -0.5, 4.0, 8.0]
    prefix = "plan rows do not fit its matrices: "
    for exact, kind in ((False, float), (True, Fraction)):
        kernel = precompute_diagonal(plan, [3.0], exact=exact)
        got = fir_filter(kernel, signal)
        assert got == per_window(kernel, signal) == [3.0, 3.0, -1.5, -1.5, 24.0]
        assert all(type(v) is kind for v in got)

        for bad, label in ((empty_pre, "a_pre row 2"), (no_y1, "a_post row 1")):
            with pytest.raises(ValueError) as info:
                precompute_diagonal(bad, [3.0], exact=exact)
            assert str(info.value) == prefix + f"sparse-row violation: {label} is empty"

    # A lone negative pre term, a post row that starts with a product
    # negated, and pre rows that start (-,+), (+,-) and (-,-), which the pre
    # stage starts in one operation each: -a + b as b - a, the same IEEE
    # result, while -a - b must not become -(a + b).  The signal's +-0.0
    # samples make signed zero products, so y1 = -mu_2 + mu_5 shows the sign
    # of a zero mu_5, which differs from -(a + b) for a = +-0.0, b = -+0.0.
    # Both forms, on 3 windows and on _BATCH_WINDOWS, bit-equal to the dense
    # scan and counted per row.
    lone = replace(plan, pre_rows=(((0, 1),), ((1, -1),), ((1, 1),), ((0, -1), (1, 1)), ((0, 1), (1, -1)),
                                   ((0, -1), (1, -1))),
                   post_rows=(((0, 1), (1, 1), (2, 1), (3, 1), (4, 1)), ((2, -1), (5, 1))),
                   diag=(DiagonalTerm(((0, 1),), False),) * 6)
    doc = json.loads(plan_to_json(lone))
    rng = np.random.default_rng(3)
    for windows in (3, _BATCH_WINDOWS):
        signal = rng.choice([-0.0, 0.0, 1.5, -2.0, math.inf, -math.inf, math.nan], size=2 * windows)
        for tap in (-0.5, 3.0):
            kernel = precompute_diagonal(lone, [tap])
            counter = OpCounter()
            got = fir_filter(kernel, signal, counter)
            want = dense_scan_outputs(doc, kernel.s, signal)
            assert [nan_or_bits(v) for v in got] == [nan_or_bits(v) for v in want]
            assert counter == OpCounter(pre_adds=3 * windows, mults=6 * windows, post_adds=5 * windows)
        exact = precompute_diagonal(lone, [Fraction(-1, 2)], exact=True)
        finite = [0 if math.isnan(v) or math.isinf(v) else v for v in signal]
        assert fir_filter(exact, finite) == per_window(exact, finite)


def test_product_loop_fold_edges():
    # Long calls run product by product, folding each scaled pre-sum into
    # the output rows that use it.  Plans that pass the row rule but not the
    # identity: both output rows start at product 0 (one with -1, or both
    # with +1, where two rows holding that one array would each take the
    # other's later terms); product 2 is in neither row; product 1 is a lone
    # negative pre term whose tap is negative.
    # Float outputs are bit-equal to the dense scan, exact ones to the
    # per-window op and the dense rows in Fraction arithmetic, and the counts
    # are the rows' own.
    base = generate_plan(2)
    plan = KernelPlan(
        m=2,
        blocks=base.blocks,
        pre_rows=(((0, 1), (2, -1)), ((1, -1),), ((0, 1), (1, 1)), ((1, 1), (2, 1))),
        post_rows=(((0, 1), (1, 1), (3, 1)), ((0, -1), (1, 1), (3, -1))),
        diag=(DiagonalTerm(((0, 1),), False), DiagonalTerm(((1, 1),), False),
              DiagonalTerm(((0, 1), (1, 1)), True), DiagonalTerm(((0, 1), (1, -1)), False)),
    )
    both_plus = replace(plan, post_rows=(((0, 1), (3, 1)), ((0, 1), (1, -1))))
    rng = np.random.default_rng(22)
    specials = [-0.0, 0.0, 1.5, -2.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
    for hand, post_adds in ((plan, 4), (both_plus, 2)):
        assert not validate_plan(hand).ok
        doc = json.loads(plan_to_json(hand))
        for windows in (_BATCH_WINDOWS, 2 * _BATCH_WINDOWS + 5):
            counts = OpCounter(pre_adds=3 * windows, mults=4 * windows,
                               post_adds=post_adds * windows)
            for taps in ([1.5, -0.5], [-2.0, -0.25]):
                signal = rng.choice(specials, size=2 * windows + 1)
                kernel = precompute_diagonal(hand, taps)
                counter = OpCounter()
                got = fir_filter(kernel, signal, counter)
                want = dense_scan_outputs(doc, kernel.s, signal)
                assert [nan_or_bits(v) for v in got] == [nan_or_bits(v) for v in want]
                assert counter == counts

                exact = precompute_diagonal(hand, [Fraction(v) for v in taps], exact=True)
                finite = rng.integers(-9, 10, size=2 * windows + 1).tolist()
                counter = OpCounter()
                got = fir_filter(exact, finite, counter)
                a_pre, a_post = hand.a_pre.astype(object), hand.a_post.astype(object)
                s = np.array(exact.s, dtype=object)
                dense = [a_post @ (s * (a_pre @ np.array(finite[2 * k : 2 * k + 3], dtype=object)))
                         for k in range(windows)]
                assert all(type(v) is Fraction for v in got)
                assert got == per_window(exact, finite) == [y for pair in dense for y in pair]
                assert counter == counts


def test_product_loop_keeps_one_window_long_array_live():
    # The long form keeps one scaled pre-sum live at a time, not all P of
    # them: at 4096 windows the traced peak of a call is about the same at
    # m = 101 (P = 135) as at m = 11 (P = 15).  Keeping all P sums live gave
    # 4795 KB against 929 KB.
    rng = np.random.default_rng(5)
    peaks = {}
    for m in (11, 101):
        kernel = precompute_diagonal(plan_for(m), rng.standard_normal(m))
        signal = rng.standard_normal(2 * 4096 + m - 1)
        fir_filter(kernel, signal)  # builds the plan's schedule outside the trace
        tracemalloc.start()
        try:
            fir_filter(kernel, signal)
            peaks[m] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[101] <= 1.25 * peaks[11]


def test_plan_whose_rows_do_not_fit_raises_in_both_forms():
    # Taps [1, 2, 3] over samples 1, 2, ... give 14, 20, 26, ...  Each case
    # breaks one row rule: read as the stages read it, an entry of 2 counts as
    # 1, a stored 0 is subtracted, a repeated index is summed twice, index -1
    # wraps to the last column, a missing diagonal term leaves a product
    # unscaled, an empty row sums to zero (an empty first a_pre row gave 16,
    # 20, 28, 32 on samples 1..6) and an index past its matrix fails inside
    # numpy; a plan with no products gave zeros in one form and IndexError in
    # the other.  Each is one ValueError whose fault is the one validate_plan
    # reports: the executor and the validator share one row rule.
    # precompute_diagonal raises it in both arithmetics; a kernel built
    # directly on the bad plan, with the good plan's constants, raises it on 3
    # windows and on _BATCH_WINDOWS or more.
    plan = generate_plan(3)
    assert fir_filter(precompute_diagonal(plan, [1, 2, 3]), [1, 2, 3, 4, 5]) == [14.0, 20.0, 26.0]
    pre, post, diag = plan.pre_rows, plan.post_rows, plan.diag

    def first_pre(row):
        return replace(plan, pre_rows=(row,) + pre[1:])

    cases = [
        (first_pre(((-1, 1), (2, -1))), "a_pre row 0 has an index"),
        (first_pre(((0, 2), (2, -1))), "a_pre row 0 has an entry outside"),
        (first_pre(((0, 1), (1, 0), (2, -1))), "a_pre row 0 stores a zero"),
        (first_pre(((0, 1), (0, 1), (2, -1))), "a_pre row 0 indices do not strictly ascend"),
        (first_pre(((2, -1), (0, 1))), "a_pre row 0 indices do not strictly ascend"),
        (replace(plan, diag=diag[:-1]), "a_pre shape (4, 4), expected (3, 4)"),
        (replace(plan, post_rows=(post[0] + ((4, 1),), post[1])), "a_post row 0 has an index"),
        (replace(plan, post_rows=(((0, 2),) + post[0][1:], post[1])), "a_post row 0 has an entry outside"),
        (replace(plan, diag=(DiagonalTerm(((0, 2),), False),) + diag[1:]), "diag term 0 has an entry outside"),
        (replace(plan, diag=(DiagonalTerm(((-1, 1),), False),) + diag[1:]), "diag term 0 has an index"),
        (first_pre(()), "sparse-row violation: a_pre row 0 is empty"),
        (replace(plan, post_rows=(post[0], ())), "sparse-row violation: a_post row 1 is empty"),
        (replace(plan, diag=(DiagonalTerm((), False),) + diag[1:]), "sparse-row violation: diag term 0 is empty"),
        (replace(generate_plan(1), pre_rows=(), post_rows=((), ()), diag=()),
         "a plan needs at least one diagonal term"),
    ]
    prefix = "plan rows do not fit its matrices: "
    for bad, message in cases:
        failures = validate_plan(bad).failures
        calls = [(fir_filter, list(range(1, n + 1))) for n in (5, 2 * _BATCH_WINDOWS + 2)]
        calls.append((apply_basic_op, list(range(1, bad.m + 2))))
        for exact in (False, True):
            with pytest.raises(ValueError) as info:
                precompute_diagonal(bad, [1, 2, 3][: bad.m], exact=exact)
            assert str(info.value) == prefix + failures[0]
            good = precompute_diagonal(plan, [1, 2, 3], exact=exact)
            kernel = PreparedKernel(bad, good.scaled, good.scale, exact)
            for call, samples in calls:
                with pytest.raises(ValueError, match=re.escape(message)) as info:
                    call(kernel, samples)
                text = str(info.value)
                assert text.startswith(prefix) and text[len(prefix):] in failures


# Values: mostly moderate, sometimes extreme or non-finite.
values = st.one_of(st.floats(-1e6, 1e6), st.floats(width=64))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.one_of(st.integers(1, 40), st.just(1024)),
       extra=st.integers(0, 64),
       kind=st.sampled_from(["list", "int-list", "ndarray", "fraction-list"]))
def test_float_whole_signal_equals_per_window_runs(data, m, extra, kind):
    taps = data.draw(arrays(np.float64, m, elements=values))
    if kind == "int-list":
        signal = data.draw(arrays(np.int64, m + extra,
                                  elements=st.integers(-2**62, 2**62))).tolist()
    elif kind == "fraction-list":
        # Mostly not dyadic, so each sample is rounded to float on the way in.
        signal = data.draw(st.lists(st.fractions(-2**62, 2**62, max_denominator=3**20),
                                    min_size=m + extra, max_size=m + extra))
    else:
        signal = data.draw(arrays(np.float64, m + extra, elements=values))
        if kind == "list":
            signal = signal.tolist()
    kernel = precompute_diagonal(plan_for(m), taps.tolist())

    counter, window_counter = OpCounter(), OpCounter()
    got = fir_filter(kernel, signal, counter)
    want = per_window(kernel, signal, window_counter)

    assert type(got) is list and all(type(v) is float for v in got)
    assert_same_bits_nan_by_position(got, want)
    assert counter == window_counter


@settings(max_examples=40, deadline=None)
@given(data=st.data(), m=st.integers(1, 40), extra=st.integers(0, 64),
       kind=st.sampled_from(["list", "int-list", "ndarray", "fraction-list"]))
def test_exact_mode_stays_exact(data, m, extra, kind):
    ints = st.integers(-2**20, 2**20)
    n = m + extra
    taps = data.draw(st.lists(ints, min_size=m, max_size=m))
    if kind == "list":
        signal = data.draw(st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n))
    elif kind == "int-list":
        signal = data.draw(st.lists(ints, min_size=n, max_size=n))
    elif kind == "ndarray":
        signal = data.draw(arrays(np.int64, n, elements=ints))
    else:
        signal = [Fraction(k, 3) for k in data.draw(st.lists(ints, min_size=n, max_size=n))]
    kernel = precompute_diagonal(plan_for(m), taps, exact=True)

    counter, window_counter = OpCounter(), OpCounter()
    got = fir_filter(kernel, signal, counter)
    want = per_window(kernel, signal, window_counter)

    assert all(type(v) is Fraction for v in got)
    assert got == want == naive_fir(signal, taps, exact=True)
    assert counter == window_counter


# Zero, or 1e-100 <= |v| <= 1e6 with mixed magnitudes, so no product underflows.
mixed = st.one_of(st.just(0.0), st.floats(1e-100, 1e6), st.floats(-1e6, -1e-100))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), m=st.one_of(st.integers(1, 40), st.just(1024)),
       extra=st.integers(0, 64))
def test_float_executor_error_against_direct_method(data, m, extra):
    # The bound scales with sum|w| * max|x|, not with |y| or sum|w_i x_i|:
    # the PAIR2 block cancels x[t+1] * w[t] terms, so an output can be far
    # smaller than the values the kernel adds on the way.
    taps = data.draw(arrays(np.float64, m, elements=mixed))
    signal = data.draw(arrays(np.float64, m + extra, elements=mixed))
    got = fir_filter(precompute_diagonal(plan_for(m), taps.tolist()), signal)
    want = naive_fir(signal, taps)

    bound = 1e-12 * np.abs(taps).sum() * np.abs(signal).max()
    assert len(got) == len(want)
    assert all(abs(g - h) <= bound for g, h in zip(got, want))


def wide_floats(rng, n) -> list:
    """Floats with exponents spread over +-1000."""
    return [math.ldexp(rng.uniform(-1, 1), int(e)) for e in rng.integers(-1000, 1000, n)]


def integer_path_cases():
    rng = np.random.default_rng(17)
    subnormals = [5e-324, -5e-324, -1e-310]
    extremes = [2**63 - 1, -2**63, 2**63 - 1, 1, -2**63, 0, 2**63 - 1, -1]
    yield "wide-floats", wide_floats(rng, 10) + [5e-324], wide_floats(rng, 23) + subnormals
    yield "wide-floats-m7", subnormals + wide_floats(rng, 4), subnormals + wide_floats(rng, 20)
    yield "thirds-sevenths", [Fraction(int(k), 3) for k in rng.integers(-99, 99, 5)], \
        [Fraction(int(k), 7) for k in rng.integers(-99, 99, 30)]
    yield "int64-ndarray", np.array(extremes[:3]), np.array(extremes * 3)
    yield "int64-list", extremes[:3], extremes * 3
    yield "m1", [Fraction(-5, 3)], [Fraction(int(k), 7) for k in rng.integers(-99, 99, 9)]
    yield "m1024", rng.integers(-2**20, 2**20, 1024), \
        [Fraction(int(k), 3) for k in rng.integers(-2**20, 2**20, 1024 + 9)]


def fraction_diagonal(plan, taps) -> list:
    """The diagonal summed in Fraction arithmetic, each row in index order."""
    w = [Fraction(v) for v in (taps.tolist() if isinstance(taps, np.ndarray) else taps)]
    s = []
    for term in plan.diag:
        total = Fraction(0)
        for i, c in term.row:
            total = total + w[i] if c > 0 else total - w[i]
        s.append(total / 2 if term.halved else total)
    return s


@pytest.mark.parametrize("name, taps, signal", list(integer_path_cases()),
                         ids=[case[0] for case in integer_path_cases()])
def test_exact_integer_path_on_wide_denominators(name, taps, signal):
    # Exact mode scales taps and samples to integers by the lcm of their
    # denominators (up to 2^1074 for subnormals) and divides once per output.
    plan = plan_for(len(taps))
    kernel = precompute_diagonal(plan, taps, exact=True)
    assert type(kernel.s) is tuple and all(type(v) is Fraction for v in kernel.s)
    assert list(kernel.s) == fraction_diagonal(plan, taps)

    # The signal as given takes the batched form; repeated to _BATCH_WINDOWS
    # windows, the product loop.
    n = 2 * _BATCH_WINDOWS + plan.m - 1
    long = np.resize(signal, n) if isinstance(signal, np.ndarray) else (signal * n)[:n]
    for samples in signal, long:
        got = fir_filter(kernel, samples)
        assert all(type(v) is Fraction for v in got)
        assert got == naive_fir(samples, taps, exact=True)


def stage_dtypes(kernel, signal) -> set:
    """The dtypes of the columns one fir_filter call sums its pre rows over."""
    with mock.patch.object(stream, "_run_sums", wraps=stream._run_sums) as spy:
        fir_filter(kernel, signal)
    return {call.args[1].dtype for call in spy.call_args_list}


@pytest.mark.parametrize("windows", [3, _BATCH_WINDOWS], ids=["batched", "product-loop"])
def test_exact_stages_run_on_int64_only_under_the_bound(windows):
    # Exact stages run on int64 when G * max(1, max|S|) * max(1, max|X|) fits
    # it, G being the longest a_post row times the longest a_pre row, and on
    # object otherwise.  m = 1 has one-term rows, so G = 1, and a tap of 1 is
    # S = 2 over scale 2: a sample of 2**62 makes the product 2**63.
    int64, obj = np.dtype(np.int64), np.dtype(object)
    one = precompute_diagonal(plan_for(1), [1], exact=True)
    assert one.scaled == (2, 2) and one._array.dtype == int64
    over = [2**62, -2**62] * windows
    assert stage_dtypes(one, over) == {obj}
    assert fir_filter(one, over) == [Fraction(2**62), Fraction(-2**62)] * windows
    under = [2**62 - 1, -(2**62 - 1)] * windows  # 2 * (2**62 - 1) = 2**63 - 2
    assert stage_dtypes(one, under) == {int64}
    assert fir_filter(one, under) == naive_fir(under, [1], exact=True)

    # The same edge on plans with longer rows, at the largest |x| the bound
    # admits and one above it, with the extremes at both signs.
    rng = np.random.default_rng(26)
    for m in 2, 3, 11:
        plan = plan_for(m)
        growth = max(map(len, plan.post_rows)) * max(map(len, plan.pre_rows))
        assert plan._schedule.growth == growth
        taps = rng.integers(-2**20, 2**20, m).tolist()
        kernel = precompute_diagonal(plan, taps, exact=True)
        top = (2**63 - 1) // (growth * max(map(abs, kernel.scaled)))
        for x, dtype in (top, int64), (top + 1, obj):
            signal = rng.choice([x, -x, x - 1, 0], 2 * windows + m - 1)
            signal[rng.integers(0, len(signal))] = x
            assert stage_dtypes(kernel, signal) == {dtype}
            assert fir_filter(kernel, signal) == naive_fir(signal, taps, exact=True)

    # A uint64 sample past int64 takes object; bool samples are 0 and 1.
    taps = [3, -1, 2]
    kernel = precompute_diagonal(plan_for(3), taps, exact=True)
    for signal, dtype in ((np.array([2**64 - 1, 0, 7] * windows + [1, 2], np.uint64), obj),
                          (rng.integers(0, 2, 2 * windows + 2).astype(bool), int64)):
        assert stage_dtypes(kernel, signal) == {dtype}
        assert fir_filter(kernel, signal) == naive_fir(signal, taps, exact=True)

    # A constant past int64 keeps the kernel's array, and every stage, on object.
    wide = precompute_diagonal(plan_for(1), [2**62], exact=True)
    assert wide._array.dtype == obj
    assert stage_dtypes(wide, [1, -1] * windows) == {obj}
    assert fir_filter(wide, [1, -1] * windows) == [Fraction(2**62), Fraction(-2**62)] * windows
