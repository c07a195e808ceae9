"""Hardware-style multiplier and adder counting."""

from dataclasses import replace

import numpy as np
import pytest

from minfilt import (
    Block,
    BlockKind,
    DiagonalTerm,
    KernelPlan,
    OpCounter,
    apply_basic_op,
    apply_basic_op_naive,
    count_naive,
    count_proposed,
    fir_filter,
    generate_plan,
    naive_fir,
    plan_from_json,
    plan_to_json,
    precompute_diagonal,
    savings_report,
    validate_plan,
)
from minfilt.plan import _stamp


def test_naive_counts():
    assert count_naive(3).multipliers == 6
    assert dict(count_naive(3).adders) == {3: 2}
    assert count_naive(11).multipliers == 22
    assert dict(count_naive(11).adders) == {11: 2}
    assert count_naive(1).multipliers == 2
    assert dict(count_naive(1).adders) == {}


def test_naive_rejects_nonpositive():
    with pytest.raises(ValueError):
        count_naive(0)


def test_proposed_published_histograms():
    expected = {
        3: (4, {2: 4, 3: 2}),
        5: (7, {2: 6, 5: 2}),
        7: (10, {2: 8, 3: 6}),
        9: (12, {2: 12, 3: 8}),
        11: (15, {2: 16, 3: 6, 4: 2}),
    }
    for m, (mults, hist) in expected.items():
        got = count_proposed(generate_plan(m))
        assert got.multipliers == mults
        assert dict(got.adders) == hist


def test_proposed_small_and_irregular_sizes():
    assert count_proposed(generate_plan(1)).multipliers == 2
    assert dict(count_proposed(generate_plan(1)).adders) == {}
    assert dict(count_proposed(generate_plan(2)).adders) == {2: 4}
    assert dict(count_proposed(generate_plan(4)).adders) == {2: 6, 3: 2}


def test_proposed_multipliers_equal_plan_products():
    for m in range(1, 33):
        plan = generate_plan(m)
        assert count_proposed(plan).multipliers == plan.p


def test_proposed_counts_loaded_plans_as_generated():
    for m in range(1, 65):
        plan = generate_plan(m)
        assert count_proposed(plan_from_json(plan_to_json(plan))) == count_proposed(plan)


def _exact_output_is_direct(plan):
    rng = np.random.default_rng(plan.m)
    w = rng.integers(-1000, 1001, size=plan.m).tolist()
    x = rng.integers(-1000, 1001, size=plan.m + 9).tolist()
    return fir_filter(precompute_diagonal(plan, w, exact=True), x) == naive_fir(x, w, exact=True)


def test_proposed_rejects_blocks_that_misname_the_rows():
    # Rows of PAIR2@0 + PAIR2@2 under the blocks WINO3@0 + PASS1@3: the rows
    # are exact and run, but the named templates' two 3-input adders are not
    # in their dataflow, whose own templates give ten 2-input adders.
    rows = _stamp(4, (Block(BlockKind.PAIR2, 0), Block(BlockKind.PAIR2, 2)))
    plan = replace(rows, blocks=generate_plan(4).blocks)
    assert validate_plan(plan).ok
    assert _exact_output_is_direct(plan)
    with pytest.raises(ValueError, match="templates"):
        count_proposed(plan)
    assert dict(count_proposed(rows).adders) == {2: 10}


def test_proposed_rejects_extra_products_on_one_block():
    # One tap, three products: w0/2 * x0 twice and w0 * x1.  Correct, but not
    # the two products of the PASS1 block it names.
    half, whole = DiagonalTerm(((0, 1),), True), DiagonalTerm(((0, 1),), False)
    plan = KernelPlan(1, (Block(BlockKind.PASS1, 0),), (((0, 1),), ((0, 1),), ((1, 1),)),
                      (((0, 1), (1, 1)), ((2, 1),)), (half, half, whole))
    assert validate_plan(plan).ok
    assert _exact_output_is_direct(plan)
    with pytest.raises(ValueError, match="templates"):
        count_proposed(plan)


def test_adder_capacity_matches_instrumented_additions():
    # sum((fan_in - 1) * count) must equal one window's executed additions.
    for m in range(1, 17):
        plan = generate_plan(m)
        counter = OpCounter()
        apply_basic_op(precompute_diagonal(plan, [1] * m), [1] * (m + 1), counter)
        assert count_proposed(plan).scalar_additions == counter.adds

        counter = OpCounter()
        apply_basic_op_naive([1] * m, [1] * (m + 1), counter=counter)
        assert count_naive(m).scalar_additions == counter.adds


def _row_additions(matrix) -> int:
    return sum(int(np.count_nonzero(row)) - 1 for row in np.asarray(matrix))


def test_per_stage_counts_match_matrix_rows_and_cost_model():
    # Pre-adds and post-adds per window are the row nnz - 1 of a_pre and
    # a_post, on one window and on a whole signal, in both arithmetics.
    for m in range(1, 33):
        plan = generate_plan(m)
        pre, post = _row_additions(plan.a_pre), _row_additions(plan.a_post)
        assert pre + post == count_proposed(plan).scalar_additions
        for exact in (False, True):
            kernel = precompute_diagonal(plan, [1] * m, exact=exact)
            counter = OpCounter()
            apply_basic_op(kernel, list(range(m + 1)), counter)
            assert (counter.pre_adds, counter.mults, counter.post_adds) == (pre, plan.p, post)
            windows = 5
            counter = OpCounter()
            fir_filter(kernel, list(range(m + 2 * windows - 1)), counter)
            assert (counter.pre_adds, counter.mults, counter.post_adds) == (
                pre * windows, plan.p * windows, post * windows)


def test_direct_method_additions_are_output_adders():
    counter = OpCounter()
    apply_basic_op_naive([1] * 5, [1] * 6, counter=counter)
    assert (counter.pre_adds, counter.mults, counter.post_adds) == (0, 10, 8)


def test_histogram_is_sorted_and_positive():
    for m in range(1, 33):
        hist = count_proposed(generate_plan(m)).adders
        assert list(hist) == sorted(hist)
        assert all(v > 0 for v in hist.values())
        assert all(k >= 2 for k in hist)


def test_savings_published_rows():
    rows = savings_report([3, 5, 7, 9, 11])
    assert [(r.m, r.naive_multipliers, r.proposed_multipliers) for r in rows] == [
        (3, 6, 4),
        (5, 10, 7),
        (7, 14, 10),
        (9, 18, 12),
        (11, 22, 15),
    ]
    assert [r.savings_pct for r in rows] == [33.3, 30.0, 28.6, 33.3, 31.8]
    # Every published size saves approximately 30 percent; the 7-tap row is
    # the low point at 28.6.
    for row in rows:
        assert 28.0 <= row.savings_pct <= 34.0
