"""End-to-end acceptance checks, one per shipped claim.

Each check prints a single PASS or FAIL line (shown under ``pytest -s``; the
same verdicts appear as test results either way).  Integer claims are asserted
exactly; float agreement uses a 1e-12 relative tolerance.
"""

import json
import time

import numpy as np

from minfilt import (
    OpCounter,
    apply_basic_op,
    apply_basic_op_naive,
    count_proposed,
    fir_filter,
    generate_plan,
    naive_fir,
    plan_from_json,
    plan_to_json,
    precompute_diagonal,
    savings_report,
)
from minfilt.cli import main as cli_main

BOUND = 2**20
PUBLISHED_SIZES = (3, 5, 7, 9, 11)


def _criterion(label, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}  ({time.perf_counter() - start:.2f}s)")


def _trials(m, count=1000):
    # Shared draw schedule so the exact and float checks see the same inputs.
    rng = np.random.default_rng([2026, m])
    for _ in range(count):
        w = rng.integers(-BOUND, BOUND + 1, size=m).tolist()
        x = rng.integers(-BOUND, BOUND + 1, size=m + 1).tolist()
        yield w, x


def test_criterion_1_multiplier_counts():
    def body():
        for m, p in zip(PUBLISHED_SIZES, (4, 7, 10, 12, 15)):
            plan = generate_plan(m)
            assert plan.p == p
            assert count_proposed(plan).multipliers == p

    _criterion("criterion 1: products per window are 4/7/10/12/15 for m=3/5/7/9/11", body)


def test_criterion_2_multiplier_savings():
    def body():
        rows = savings_report(list(PUBLISHED_SIZES))
        assert [r.savings_pct for r in rows] == [33.3, 30.0, 28.6, 33.3, 31.8]
        # Approximately 30 percent at every size; the exact values above are
        # the binding claim, the band is a sanity wrapper around them.
        for row in rows:
            assert 28.0 <= row.savings_pct <= 34.0

    _criterion("criterion 2: savings 33.3/30.0/28.6/33.3/31.8 pct, approximately 30 pct each", body)


def test_criterion_3_three_tap_factorization():
    def body():
        plan = generate_plan(3)
        assert plan.a_pre.tolist() == [
            [1, 0, -1, 0],
            [0, 1, 1, 0],
            [0, -1, 1, 0],
            [0, 1, 0, -1],
        ]
        assert plan.a_post.tolist() == [[1, 1, 1, 0], [0, 1, -1, -1]]
        diag = json.loads(plan_to_json(plan))["diag"]
        assert [(t["coeffs"], t["halved"]) for t in diag] == [
            ([1, 0, 0], False),
            ([1, 1, 1], True),
            ([1, -1, 1], True),
            ([0, 0, 1], False),
        ]

    _criterion("criterion 3: the 3-tap plan matches the published factorization entry for entry", body)


def test_criterion_4_exact_equivalence():
    def body():
        for m in range(1, 17):
            plan = generate_plan(m)
            for w, x in _trials(m):
                kernel = precompute_diagonal(plan, w, exact=True)
                assert apply_basic_op(kernel, x) == apply_basic_op_naive(w, x, exact=True)

    _criterion("criterion 4: exact mode equals the direct method bit for bit, m=1..16 x 1000 trials", body)


def test_criterion_5_float_equivalence():
    def body():
        for m in range(1, 17):
            plan = generate_plan(m)
            for w, x in _trials(m):
                got = apply_basic_op(precompute_diagonal(plan, w), x)
                want = apply_basic_op_naive(w, x)
                for g, v in zip(got, want):
                    assert abs(g - v) <= 1e-12 * max(abs(g), abs(v), 1.0)

    _criterion("criterion 5: float mode agrees within 1e-12 relative error on the same trials", body)


def test_criterion_6_adder_histograms(tmp_path):
    def body():
        expected = {
            3: {2: 4, 3: 2},
            5: {2: 6, 5: 2},
            7: {2: 8, 3: 6},
            9: {2: 12, 3: 8},
            11: {2: 16, 3: 6, 4: 2},
        }
        # m = 7, 9, 11 match the published rows outright; the published m = 3
        # and m = 5 rows disagree with each other in the five-input column,
        # so those two are pinned to the derived histograms and the table
        # command must surface the published row next to them.
        for m, hist in expected.items():
            plan = generate_plan(m)
            cost = count_proposed(plan)
            assert dict(cost.adders) == hist
            counter = OpCounter()
            apply_basic_op(precompute_diagonal(plan, [1] * m), [1] * (m + 1), counter)
            assert cost.scalar_additions == counter.adds

        table = tmp_path / "table.tsv"
        assert cli_main(["table", "-o", str(table)]) == 0
        text = table.read_text()
        assert "# published values (as printed)" in text
        assert "2*" in text and "-*" in text

    _criterion("criterion 6: adder histograms match, capacity equals executed adds, discrepancy surfaced", body)


def test_criterion_7_streaming_equivalence():
    def body():
        rng = np.random.default_rng(777)
        for m in PUBLISHED_SIZES:
            plan = generate_plan(m)
            for n in range(m, m + 21):
                w = rng.integers(-BOUND, BOUND + 1, size=m).tolist()
                x = rng.integers(-BOUND, BOUND + 1, size=n).tolist()
                kernel = precompute_diagonal(plan, w, exact=True)
                assert fir_filter(kernel, x) == naive_fir(x, w, exact=True)

    _criterion("criterion 7: whole-signal filtering matches the direct method, N=m..m+20", body)


def test_criterion_8_instrumented_arithmetic():
    def body():
        for m in PUBLISHED_SIZES:
            plan = generate_plan(m)
            counter = OpCounter()
            apply_basic_op(precompute_diagonal(plan, [1] * m), list(range(m + 1)), counter)
            assert counter.mults == plan.p
            naive = OpCounter()
            apply_basic_op_naive([1] * m, list(range(m + 1)), counter=naive)
            assert naive.mults == 2 * m

    _criterion("criterion 8: instrumented multiplications are exactly P per window, 2m direct", body)


def test_criterion_9_serialization_round_trip():
    def body():
        for m in range(1, 17):
            text = plan_to_json(generate_plan(m))
            assert plan_to_json(plan_from_json(text)) == text

    _criterion("criterion 9: plan JSON round-trips byte-identically for m=1..16", body)
