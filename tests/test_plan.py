"""Block decomposition, plan matrices, validation, JSON round-trips."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from minfilt import (
    Block,
    BlockKind,
    DiagonalTerm,
    count_proposed,
    decompose,
    generate_plan,
    plan_from_json,
    plan_to_json,
    validate_plan,
)


def layout(m):
    return [(b.kind.value, b.tap_offset) for b in decompose(m)]


def unit(m, i):
    return [1 if j == i else 0 for j in range(m)]


def dense_diag(plan):
    # The dense (coeffs, halved) pairs of the plan's JSON document.
    return [(t["coeffs"], t["halved"]) for t in json.loads(plan_to_json(plan))["diag"]]


def with_entry(rows, r, e, entry):
    # The sparse rows with entry e of row r replaced.
    row = rows[r][:e] + (entry,) + rows[r][e + 1:]
    return rows[:r] + (row,) + rows[r + 1:]


def test_decompose_published_sizes():
    assert layout(3) == [("wino3", 0)]
    assert layout(5) == [("wino3", 0), ("pair2", 3)]
    assert layout(7) == [("wino3", 0), ("pass1", 3), ("wino3", 4)]
    assert layout(9) == [("wino3", 0), ("wino3", 3), ("wino3", 6)]
    assert layout(11) == [("wino3", 0), ("wino3", 3), ("wino3", 6), ("pair2", 9)]


def test_decompose_small_and_irregular_sizes():
    assert layout(1) == [("pass1", 0)]
    assert layout(2) == [("pair2", 0)]
    assert layout(4) == [("wino3", 0), ("pass1", 3)]
    assert layout(6) == [("wino3", 0), ("wino3", 3)]
    assert layout(10) == [("wino3", 0), ("wino3", 3), ("wino3", 6), ("pass1", 9)]


def test_decompose_rejects_nonpositive():
    for m in (0, -1, -7):
        with pytest.raises(ValueError):
            decompose(m)


def test_blocks_tile_tap_range_once():
    for m in range(1, 65):
        covered = []
        for b in decompose(m):
            covered.extend(range(b.tap_offset, b.tap_offset + b.tap_count))
        assert sorted(covered) == list(range(m))


def test_product_count_formula():
    # m == 7 reorders its blocks but keeps the same product count.
    for m in range(1, 65):
        p = sum(b.product_count for b in decompose(m))
        assert p == 4 * (m // 3) + (0, 2, 3)[m % 3]
        assert generate_plan(m).p == p


def test_three_tap_plan_matrices():
    plan = generate_plan(3)
    assert plan.a_pre.tolist() == [
        [1, 0, -1, 0],
        [0, 1, 1, 0],
        [0, -1, 1, 0],
        [0, 1, 0, -1],
    ]
    assert plan.a_post.tolist() == [[1, 1, 1, 0], [0, 1, -1, -1]]
    assert dense_diag(plan) == [
        ([1, 0, 0], False),
        ([1, 1, 1], True),
        ([1, -1, 1], True),
        ([0, 0, 1], False),
    ]
    assert plan.pre_rows[0] == ((0, 1), (2, -1))
    assert plan.diag[2].row == ((0, 1), (1, -1), (2, 1))


def test_single_tap_plan_is_passthrough():
    plan = generate_plan(1)
    assert plan.p == 2
    assert plan.a_pre.tolist() == [[1, 0], [0, 1]]
    assert plan.a_post.tolist() == [[1, 0], [0, 1]]
    assert dense_diag(plan) == [([1], False), ([1], False)]


def test_seven_tap_diag_layout():
    # The lone middle tap w[3] feeds two plain products between the 3-tap groups.
    plan = generate_plan(7)
    assert [t.halved for t in plan.diag] == [
        False, True, True, False,
        False, False,
        False, True, True, False,
    ]
    coeffs = [c for c, _ in dense_diag(plan)]
    assert coeffs[0] == unit(7, 0)
    assert coeffs[4] == unit(7, 3)
    assert coeffs[5] == unit(7, 3)
    assert coeffs[7] == [0, 0, 0, 0, 1, 1, 1]
    assert coeffs[8] == [0, 0, 0, 0, 1, -1, 1]


def test_matrices_are_ternary():
    for m in range(1, 65):
        plan = generate_plan(m)
        for mat in (plan.a_pre, plan.a_post):
            assert int(np.abs(mat.astype(np.int64)).max()) <= 1
        for coeffs, _ in dense_diag(plan):
            assert set(coeffs) <= {-1, 0, 1}


def test_matrices_are_read_only():
    plan = generate_plan(5)
    with pytest.raises(ValueError):
        plan.a_pre[0, 0] = 0
    with pytest.raises(ValueError):
        plan.a_post[0, 0] = 0


def test_dense_forms_reject_entries_outside_int8():
    # One rule on every numpy: numpy < 2 would wrap 300 to 44 in an int8
    # matrix and numpy 2 raises OverflowError.  Coefficients obey it too.
    plan = generate_plan(3)
    big_pre = replace(plan, pre_rows=with_entry(plan.pre_rows, 0, 0, (0, 300)))
    with pytest.raises(ValueError, match="outside int8"):
        big_pre.a_pre
    big_coeff = replace(plan, diag=(DiagonalTerm(((0, 300),), False),) + plan.diag[1:])
    for bad in (big_pre, big_coeff):
        with pytest.raises(ValueError, match="outside int8"):
            plan_to_json(bad)


def test_dense_forms_are_not_kept_by_the_plan():
    # A plan stores only its sparse rows: at m = 3000 the dense a_pre alone
    # is 12 MB, and reading it must leave nothing behind on the plan.
    plan = generate_plan(3000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            assert plan.a_pre.shape == (plan.p, 3001) and plan.a_post.shape == (2, plan.p)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 1e6, grown


def test_validate_generated_plans():
    for m in range(1, 17):
        report = validate_plan(generate_plan(m))
        assert report.ok, report.failures


def test_validate_flags_nonternary_entry():
    plan = generate_plan(3)
    report = validate_plan(replace(plan, pre_rows=with_entry(plan.pre_rows, 0, 0, (0, 2))))
    assert not report.ok
    assert any("ternary" in msg for msg in report.failures)

    terms = list(plan.diag)
    terms[1] = DiagonalTerm(((1, 2),), False)
    report = validate_plan(replace(plan, diag=tuple(terms)))
    assert report.failures == [
        "ternary-entry violation: diag term 1 has an entry outside {-1, 0, +1}"
    ]

    # A stored row holds +-1 only: the executors would subtract a stored 0.
    report = validate_plan(replace(plan, post_rows=with_entry(plan.post_rows, 1, 0, (1, 0))))
    assert report.failures == ["sparse-row violation: a_post row 1 stores a zero entry"]

    # Indices strictly ascend: a repeated or reordered index would make the
    # dense matrix differ from the rows the executors run.
    for row in (((0, 1), (0, 1)), ((2, -1), (0, 1))):
        report = validate_plan(replace(plan, pre_rows=(row,) + plan.pre_rows[1:]))
        assert report.failures == ["sparse-row violation: a_pre row 0 indices do not strictly ascend"]
    terms = list(plan.diag)
    terms[3] = DiagonalTerm(((2, 1), (1, 1)), False)
    report = validate_plan(replace(plan, diag=tuple(terms)))
    assert report.failures == ["sparse-row violation: diag term 3 indices do not strictly ascend"]


def test_validate_flags_bad_shape():
    plan = generate_plan(3)
    report = validate_plan(replace(plan, m=0))
    assert report.failures == ["tap count must be >= 1, got 0"]
    report = validate_plan(replace(plan, post_rows=plan.post_rows[:1]))
    assert not report.ok
    assert any("dimension" in msg for msg in report.failures)

    # Too few or too many rows are reported as the dense shape; nothing raises.
    # An extra empty row is also reported as empty.
    for rows, extra in ((plan.pre_rows[:1], []), ((), []),
                        (plan.pre_rows + ((),), ["sparse-row violation: a_pre row 4 is empty"])):
        report = validate_plan(replace(plan, pre_rows=rows))
        assert report.failures == [
            f"dimension violation: a_pre shape {(len(rows), 4)}, expected (4, 4)", *extra
        ]

    # Every index lies inside its dense matrix: samples < m+1, products < p,
    # taps < m.  Out of range, the executors would raise IndexError.
    report = validate_plan(replace(plan, pre_rows=with_entry(plan.pre_rows, 3, 1, (4, -1))))
    assert report.failures == ["dimension violation: a_pre row 3 has an index outside [0, 4)"]
    report = validate_plan(replace(plan, post_rows=with_entry(plan.post_rows, 1, 2, (4, -1))))
    assert report.failures == ["dimension violation: a_post row 1 has an index outside [0, 4)"]
    report = validate_plan(replace(plan, pre_rows=with_entry(plan.pre_rows, 0, 0, (-1, 1))))
    assert report.failures == ["dimension violation: a_pre row 0 has an index outside [0, 4)"]
    terms = list(plan.diag)
    terms[2] = DiagonalTerm(((0, 1), (3, 1)), False)
    report = validate_plan(replace(plan, diag=tuple(terms)))
    assert report.failures == ["dimension violation: diag term 2 has an index outside [0, 3)"]


def test_validate_flags_identity_violation():
    # A sign flip keeps every structural invariant but breaks the arithmetic.
    plan = generate_plan(3)
    report = validate_plan(replace(plan, pre_rows=with_entry(plan.pre_rows, 0, 0, (0, -1))))
    assert not report.ok
    assert any("identity" in msg for msg in report.failures)


def test_validate_flags_bad_halving():
    # A halved term the identity cannot prove is an identity violation, and
    # rows that are not the blocks' templates are not counted.
    plan = generate_plan(3)
    terms = list(plan.diag)
    terms[0] = DiagonalTerm(terms[0].row, True)
    bad = replace(plan, diag=tuple(terms))
    assert validate_plan(bad).failures == [
        "correctness-identity violation: y0 has coefficient 0.5 on w[0]*x[0], expected 1"
    ]
    with pytest.raises(ValueError, match="templates"):
        count_proposed(bad)


def test_validate_flags_overlapping_blocks():
    # validate_plan proves the rows, which are still correct; the blocks only
    # name the templates that count_proposed counts, and these do not match.
    plan = generate_plan(5)
    bad = replace(plan, blocks=(Block(BlockKind.WINO3, 0), Block(BlockKind.PAIR2, 2)))
    assert validate_plan(bad).ok
    with pytest.raises(ValueError, match="templates"):
        count_proposed(bad)


def test_validate_bounds_the_tap_range_by_the_plan():
    # Eight tap terms cannot carry 10**15 taps: reported before range(m).
    report = validate_plan(replace(generate_plan(3), m=10**15))
    assert report.failures == [
        "correctness-identity violation: the diagonal terms name fewer than m = 1000000000000000 taps"
    ]


def test_json_round_trip_is_byte_identical():
    for m in range(1, 17):
        text = plan_to_json(generate_plan(m))
        assert plan_to_json(plan_from_json(text)) == text


def test_json_document_fields():
    doc = json.loads(plan_to_json(generate_plan(3)))
    assert list(doc) == ["m", "blocks", "a_pre", "a_post", "diag"]
    assert doc["m"] == 3
    assert doc["blocks"] == [{"kind": "wino3", "offset": 0}]
    assert doc["a_post"] == [[1, 1, 1, 0], [0, 1, -1, -1]]
    assert doc["diag"][1] == {"coeffs": [1, 1, 1], "halved": True}


def test_json_round_trip_preserves_semantics():
    plan = generate_plan(11)
    loaded = plan_from_json(plan_to_json(plan))
    assert loaded.m == plan.m
    assert loaded.blocks == plan.blocks
    assert np.array_equal(loaded.a_pre, plan.a_pre)
    assert np.array_equal(loaded.a_post, plan.a_post)
    assert loaded.diag == plan.diag
    assert validate_plan(loaded).ok
    # Plans are values: a loaded plan equals and hashes like the original.
    for m in list(range(1, 65)) + [1024]:
        plan = generate_plan(m)
        loaded = plan_from_json(plan_to_json(plan))
        assert loaded == plan
        assert hash(loaded) == hash(plan)


def _edited_plan3(*path_and_value) -> str:
    # The m = 3 plan document with the entry at the key path set to the value.
    *path, key, value = path_and_value
    doc = json.loads(plan_to_json(generate_plan(3)))
    target = doc
    for k in path:
        target = target[k]
    target[key] = value
    return json.dumps(doc)


def test_json_rejects_malformed_documents():
    doc = json.loads(plan_to_json(generate_plan(3)))
    doc["a_pre"][0][0] = 300  # outside int8
    texts = ["", "not json", "[]", '{"m": 3}', '{"m": 1e400}', json.dumps(doc)]
    # Value types plan_to_json never writes are malformed, not coerced.
    texts += [
        _edited_plan3("a_pre", 0, 0, 1.5),
        _edited_plan3("a_post", 0, 0, True),
        _edited_plan3("diag", 0, "coeffs", 0, 1.9),
        _edited_plan3("diag", 0, "coeffs", 0, 300),  # outside int8, like any entry
        _edited_plan3("m", 3.7),
        _edited_plan3("diag", 1, "halved", "false"),
        _edited_plan3("blocks", 0, "offset", "0"),
    ]
    # A layout with no sparse-row meaning is malformed: a matrix that is not
    # a list of rows, an a_pre row not m+1 wide, an a_post row not one entry
    # per diagonal term, a coeffs list not m long.
    texts += [
        _edited_plan3("a_pre", [1, 0, -1, 0]),
        _edited_plan3("a_pre", 1),
        _edited_plan3("a_post", {"0": [1, 1, 1, 0]}),
        _edited_plan3("a_pre", 1, [0, 1, 1]),
        _edited_plan3("a_post", 0, [1, 1, 1]),
        _edited_plan3("a_post", 1, [0, 1, -1, -1, 0]),
        _edited_plan3("diag", 0, "coeffs", [1, 0]),
        _edited_plan3("diag", 0, "coeffs", 1),
    ]
    for text in texts:
        with pytest.raises(ValueError, match="malformed"):
            plan_from_json(text)


def test_json_loads_invalid_plans_for_validation():
    # Integer documents with the right widths load whatever they mean, so
    # validate_plan can report an entry of 2 or a wrong row count.
    cases = [
        (_edited_plan3("a_pre", 0, 0, 2), "ternary-entry"),
        (_edited_plan3("diag", 0, "coeffs", 0, 2), "ternary-entry"),
        (_edited_plan3("a_pre", [[1, 0, -1, 0]]), "a_pre shape (1, 4), expected (4, 4)"),
        (_edited_plan3("a_post", [[1, 1, 1, 0]]), "a_post shape (1, 4), expected (2, 4)"),
    ]
    for text, message in cases:
        report = validate_plan(plan_from_json(text))
        assert any(message in msg for msg in report.failures), report.failures
    # A huge m with empty rows is reported without building anything m long.
    huge = {"m": 10**15, "blocks": [{"kind": "wino3", "offset": 0}],
            "a_pre": [], "a_post": [[], []], "diag": []}
    assert validate_plan(plan_from_json(json.dumps(huge))).failures == [
        "a plan needs at least one diagonal term",
        "sparse-row violation: a_post row 0 is empty",
        "sparse-row violation: a_post row 1 is empty",
    ]


def test_validate_flags_every_single_sign_flip():
    # Every nonzero of a_pre and a_post carries weight in the identity, so
    # negating any one of them must be reported as an identity violation.
    for m in range(1, 13):
        plan = generate_plan(m)
        for name in ("pre_rows", "post_rows"):
            rows = getattr(plan, name)
            for r, row in enumerate(rows):
                for e, (c, v) in enumerate(row):
                    bad = with_entry(rows, r, e, (c, -v))
                    report = validate_plan(replace(plan, **{name: bad}))
                    assert any("identity" in msg for msg in report.failures), (m, name, r, c)


def test_validate_large_plan():
    assert validate_plan(generate_plan(1024)).ok


def test_plan_storage_is_linear():
    # A plan stores sparse rows only, so generating and validating m = 3000
    # stays far below the ~113 MB that dense matrices and m-long coefficient
    # tuples for its 4000 products would take.
    tracemalloc.start()
    try:
        assert validate_plan(generate_plan(3000)).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6, peak
