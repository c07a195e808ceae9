"""Construction of minimal-multiplication plans for the basic filtering operation.

The basic operation takes an (m+1)-sample window x and an m-tap filter w and
produces the two adjacent FIR outputs

    y0 = sum_i x[i] * w[i],      y1 = sum_i x[i+1] * w[i].

A :class:`KernelPlan` expresses this as y = a_post @ diag(s) @ a_pre @ x where
a_pre and a_post contain only entries from {-1, 0, +1} (so they cost additions,
never multiplications) and s is a vector of constants precomputed from the taps.
The number of diagonal entries P is the number of scalar multiplications per
window, and it is smaller than the 2m of the direct method.

Plans are assembled from three block templates, each a local recipe for a
contiguous run of taps, kept as data in ``_TEMPLATES``: ``a_pre`` rows over
the block's taps+1 samples, ``a_post`` rows over its products and one
diagonal recipe per product.  No row has more than three nonzeros, so plans
and templates store only each row's nonzero (index, value) pairs.

* ``WINO3`` covers 3 taps with 4 products.  This is Winograd's classic trick
  for two adjacent 3-tap outputs: with t the first tap index,

      mu1 = (x[t] - x[t+2]) * w[t]
      mu2 = (x[t+1] + x[t+2]) * (w[t] + w[t+1] + w[t+2]) / 2
      mu3 = (x[t+2] - x[t+1]) * (w[t] - w[t+1] + w[t+2]) / 2
      mu4 = (x[t+1] - x[t+3]) * w[t+2]

  and the block's two partial outputs are mu1+mu2+mu3 and mu2-mu3-mu4.

* ``PAIR2`` covers 2 taps with 3 products (the two-tap analogue of the same
  idea): mu_a = (x[t] - x[t+1])*w[t], mu_b = x[t+1]*(w[t] + w[t+1]),
  mu_c = (x[t+2] - x[t+1])*w[t+1]; partials are mu_a+mu_b and mu_b+mu_c.

* ``PASS1`` covers 1 tap with 2 plain products x[t]*w[t] and x[t+1]*w[t].

``decompose`` tiles the tap range greedily with WINO3 blocks and closes the
remainder with one PASS1 or PAIR2 block, so any tap count m >= 1 is supported
with P = 4*(m // 3) + (0, 2, 3)[m % 3] products.  Special cases are named
data: ``_LAYOUT_OVERRIDES`` holds the m = 7 layout, and ``cost._FUSED_OUTPUT``
the block shape whose outputs are fused adders.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate, compress
from typing import NamedTuple

import numpy as np

__all__ = [
    "BlockKind", "Block", "DiagonalTerm", "KernelPlan", "ValidationReport",
    "decompose", "generate_plan", "validate_plan", "plan_to_json", "plan_from_json",
]


class BlockKind(Enum):
    WINO3 = "wino3"
    PASS1 = "pass1"
    PAIR2 = "pair2"


# The nonzero (index, value) pairs of one matrix row, in ascending index order.
_Row = tuple[tuple[int, int], ...]


class _Template(NamedTuple):
    taps: int
    a_pre: tuple[_Row, ...]               # products rows over taps + 1 samples
    a_post: tuple[_Row, ...]              # 2 rows over products
    diag: tuple[tuple[_Row, bool], ...]   # (row over taps, halved) per product


_TEMPLATES = {
    BlockKind.WINO3: _Template(
        taps=3,
        a_pre=(((0, 1), (2, -1)), ((1, 1), (2, 1)), ((1, -1), (2, 1)), ((1, 1), (3, -1))),
        a_post=(((0, 1), (1, 1), (2, 1)), ((1, 1), (2, -1), (3, -1))),
        diag=((((0, 1),), False), (((0, 1), (1, 1), (2, 1)), True),
              (((0, 1), (1, -1), (2, 1)), True), (((2, 1),), False)),
    ),
    BlockKind.PASS1: _Template(
        taps=1,
        a_pre=(((0, 1),), ((1, 1),)),
        a_post=(((0, 1),), ((1, 1),)),
        diag=((((0, 1),), False), (((0, 1),), False)),
    ),
    BlockKind.PAIR2: _Template(
        taps=2,
        a_pre=(((0, 1), (1, -1)), ((1, 1),), ((1, -1), (2, 1))),
        a_post=(((0, 1), (1, 1)), ((1, 1), (2, 1))),
        diag=((((0, 1),), False), (((0, 1), (1, 1)), False), (((1, 1),), False)),
    ),
}

# Tap counts laid out other than greedily: m = 7 puts its leftover tap
# between the two 3-tap groups, matching the published 7-tap layout.
_LAYOUT_OVERRIDES = {7: (BlockKind.WINO3, BlockKind.PASS1, BlockKind.WINO3)}


@dataclass(frozen=True)
class Block:
    """One contiguous run of taps handled by a single factorization template."""

    kind: BlockKind
    tap_offset: int

    @property
    def template(self) -> _Template:
        return _TEMPLATES[self.kind]

    @property
    def tap_count(self) -> int:
        return self.template.taps

    @property
    def product_count(self) -> int:
        return len(self.template.a_pre)


@dataclass(frozen=True)
class DiagonalTerm:
    """Symbolic recipe for one diagonal constant.

    ``row`` holds the (tap index, coefficient) pairs of the term's nonzero
    coefficients, each +-1, in ascending index order.  The constant is
    sum(c * w[i] for i, c in row), divided by two when ``halved``.  The
    templates halve only the three-tap combinations (w[a] +/- w[a+1] +
    w[a+2]) / 2; ``validate_plan`` admits any halved term the identity proves.
    """

    row: _Row
    halved: bool


@dataclass(frozen=True)
class KernelPlan:
    """Factorization of the basic operation for one tap count, as sparse rows.

    ``pre_rows`` holds p rows over the m+1 window samples, ``post_rows`` two
    rows over the p products and ``diag`` p terms; a row is a tuple of
    (index, +-1) pairs in ascending index order, checked by ``validate_plan``.
    Plans are immutable, hashable values, safe to share across threads.  The
    rows are a plan's only stored data: each read of ``a_pre`` or ``a_post``
    builds a fresh read-only int8 matrix from them, which the plan does not
    keep.  Two values are derived on first use and cached outside the fields,
    so equality, hashing and ``dataclasses.replace`` never see them: the
    row rule's verdict (``_row_faults``), and, for a plan the rule admits,
    one schedule: the runs of same-shaped rows that the batched executor and
    the batched diagonal read and the per-product output terms that the
    product loop folds.
    """

    m: int
    blocks: tuple[Block, ...]
    pre_rows: tuple[_Row, ...]
    post_rows: tuple[_Row, ...]
    diag: tuple[DiagonalTerm, ...]

    @property
    def p(self) -> int:
        """Number of products (scalar multiplications) per window."""
        return len(self.diag)

    @property
    def a_pre(self) -> np.ndarray:
        return _dense(self.pre_rows, self.m + 1)

    @property
    def a_post(self) -> np.ndarray:
        return _dense(self.post_rows, self.p)

    @cached_property
    def _row_faults(self) -> tuple[str, ...]:
        # The row rule's verdict, computed once per plan (see ``stream``): at
        # least one tap and one product, one a_pre row per diagonal term, two
        # a_post rows, and each row sound.
        if self.m < 1:
            return (f"tap count must be >= 1, got {self.m}",)
        p = len(self.diag)
        fail = [] if p else ["a plan needs at least one diagonal term"]
        if len(self.pre_rows) != p:
            fail.append(f"dimension violation: a_pre shape {(len(self.pre_rows), self.m + 1)}, expected {(p, self.m + 1)}")
        if len(self.post_rows) != 2:
            fail.append(f"dimension violation: a_post shape {(len(self.post_rows), p)}, expected {(2, p)}")
        for name, rows, width in (
            ("a_pre row", self.pre_rows, self.m + 1),
            ("a_post row", self.post_rows, p),
            ("diag term", [term.row for term in self.diag], self.m),
        ):
            for k, row in enumerate(rows):
                fault = _row_fault(row, width)
                if fault:
                    fail.append(fault.format(f"{name} {k}"))
        return tuple(fail)

    def _admit(self) -> None:
        # The row rule's one raise, before any stage reads the rows.
        if self._row_faults:
            raise ValueError(f"plan rows do not fit its matrices: {self._row_faults[0]}")

    @cached_property
    def _schedule(self) -> _Schedule:
        return _make_schedule(self)


# Runs of same-shaped rows (``_runs``): per run a (rows slice, terms) pair, each
# term a (columns slice, sign) pair.
_Runs = tuple[tuple[slice, tuple[tuple[slice, int], ...]], ...]


class _Schedule(NamedTuple):
    # A plan's rows as the batched stages read them.  ``pre`` and ``diag`` hold
    # the runs of the a_pre rows and of the diagonal rows (``_runs``);
    # ``halved`` marks the halved terms.  ``post`` holds per output row the
    # product of each term in order and a (terms, 1) mask of the negative
    # ones, or None when there are none.  ``fold`` is the same a_post rows
    # read per product, for the product-by-product form: the (output row,
    # sign) of each term on that product, in ascending row order.  ``growth``
    # is G = longest a_post row * longest a_pre row: no pre-sum, product or
    # partial output sum exceeds G * max|s| * max|x|.
    pre: _Runs
    diag: _Runs
    halved: np.ndarray
    post: tuple[tuple[np.ndarray, np.ndarray | None], ...]
    fold: tuple[tuple[tuple[int, int], ...], ...]
    pre_adds: int   # additions per window, as the rows define them
    post_adds: int
    growth: int


def _make_schedule(plan: KernelPlan) -> _Schedule:
    # Linear in the plan; raises the row rule's first fault.
    plan._admit()
    post = tuple((np.array([k for k, _ in row], np.intp),
                  np.array([[v < 0] for _, v in row]) if any(v < 0 for _, v in row) else None)
                 for row in plan.post_rows)
    fold = [()] * plan.p
    for r, row in enumerate(plan.post_rows):
        for k, v in row:
            fold[k] += ((r, v),)
    adds = [sum(len(row) - 1 for row in rows) for rows in (plan.pre_rows, plan.post_rows)]
    longest = [max(map(len, rows)) for rows in (plan.pre_rows, plan.post_rows)]
    return _Schedule(_runs(plan.pre_rows), _runs([term.row for term in plan.diag]),
                     np.array([term.halved for term in plan.diag]), post,
                     tuple(fold), *adds, longest[0] * longest[1])


def _runs(rows) -> _Runs:
    # The rows as runs of one shape whose row index and first column both step
    # evenly, each row in exactly one run: a run's row slice picks its sums and
    # each term's column slice the columns it adds (sign +1) or subtracts (-1)
    # there.  Rows are grouped by shape (each index relative to the row's first)
    # and by the distance to the previous row of that shape, which keeps apart
    # runs that interleave, as a template's two rows of one shape do; each group
    # splits greedily.
    groups: dict = {}
    last: dict = {}
    for k, row in enumerate(rows):
        c = row[0][0]
        shape = tuple([(j - c, v) for j, v in row])
        groups.setdefault((shape, k - last.get(shape, k)), []).append((k, c))
        last[shape] = k
    runs = []
    for (shape, _), points in groups.items():
        i = 0
        while i < len(points):
            (k, c), n, dk, dc = points[i], 1, 1, 1
            if i + 1 < len(points) and points[i + 1][1] > c:
                dk, dc = points[i + 1][0] - k, points[i + 1][1] - c
                while i + n < len(points) and points[i + n] == (k + n * dk, c + n * dc):
                    n += 1
            terms = tuple((slice(c + o, c + o + (n - 1) * dc + 1, dc), v) for o, v in shape)
            runs.append((slice(k, k + (n - 1) * dk + 1, dk), terms))
            i += n
    return tuple(runs)


def _int8(row: _Row) -> _Row:
    # The one entry rule of every dense row, in memory or in a document, checked
    # before numpy sees it: numpy < 2 wraps 300 to 44, numpy 2 raises OverflowError.
    if any(not -128 <= v <= 127 for _, v in row):
        raise ValueError(f"a matrix row has an entry outside int8: {row}")
    return row


def _dense(rows, width: int) -> np.ndarray:
    # The only dense form of sparse rows: a fresh read-only int8 matrix.
    matrix = np.zeros((len(rows), width), dtype=np.int8)
    for r, row in enumerate(rows):
        for j, v in _int8(row):
            matrix[r, j] = v
    matrix.flags.writeable = False
    return matrix


def decompose(m: int) -> list[Block]:
    """Tile the tap range [0, m) with blocks.

    Greedy: WINO3 blocks first, then one PASS1 (1 tap left) or PAIR2 (2 taps
    left) closing block, unless ``_LAYOUT_OVERRIDES`` names the layout.
    """
    if m < 1:
        raise ValueError(f"tap count must be >= 1, got {m}")
    closing = ((), (BlockKind.PASS1,), (BlockKind.PAIR2,))[m % 3]
    kinds = _LAYOUT_OVERRIDES.get(m, (BlockKind.WINO3,) * (m // 3) + closing)
    offsets = accumulate((_TEMPLATES[kind].taps for kind in kinds), initial=0)
    return [Block(kind, t) for kind, t in zip(kinds, offsets)]


def _stamp(m: int, blocks) -> KernelPlan:
    # The m-tap plan whose rows are the blocks' templates at their offsets, as
    # ``generate_plan`` describes; each block's template is read once.
    placed = [(b.tap_offset, b.template) for b in blocks]
    firsts = list(accumulate((len(t.a_pre) for _, t in placed), initial=0))
    # A pass per matrix keeps its rows together in memory for the executors
    # (m = 1024 calls ran ~10% slower interleaved); tuple([...]) is faster here.
    pre = [tuple([(j + t0, v) for j, v in row]) for t0, t in placed for row in t.a_pre]
    post = [tuple([(k + r, v) for (_, t), r in zip(placed, firsts) for k, v in t.a_post[out]])
            for out in range(2)]
    diag = [DiagonalTerm(tuple([(i + t0, c) for i, c in row]), halved)
            for t0, t in placed for row, halved in t.diag]
    return KernelPlan(m, tuple(blocks), tuple(pre), tuple(post), tuple(diag))


def generate_plan(m: int) -> KernelPlan:
    """Build the full factorization plan for an m-tap filter.

    Each block's template rows are stamped at its tap offset and, in
    ``post_rows``, at its first product index, so building takes O(P).
    """
    return _stamp(m, decompose(m))


@dataclass
class ValidationReport:
    """Outcome of ``validate_plan``; failures are collected, never raised."""

    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _row_fault(row: _Row, width: int) -> str | None:
    # An empty row, or the first departure from +-1 entries at strictly ascending indices
    # in [0, width), as a template for the row's label: executors start each row from its
    # first term, subtract any entry not +1 and index views by j.
    if not row:
        return "sparse-row violation: {} is empty"
    last = -1
    for j, v in row:
        if abs(v) > 1:
            return "ternary-entry violation: {} has an entry outside {{-1, 0, +1}}"
        if v == 0:
            return "sparse-row violation: {} stores a zero entry"
        if not 0 <= j < width:
            return f"dimension violation: {{}} has an index outside [0, {width})"
        if j <= last:
            return "sparse-row violation: {} indices do not strictly ascend"
        last = j
    return None


def _check_identity(plan: KernelPlan, fail: list[str]) -> None:
    # y_r = sum_k a_post[r,k] * s_k * (a_pre @ x)_k with 2*s_k = sum_i c_k[i]*w[i],
    # c_k the coefficients, doubled unless halved.  The plan is exact iff the
    # doubled coefficient of w[i]*x[j] in y_r is 2 when j == i + r, else 0.
    # Only nonzero products are visited, so the cost is linear in the plan.
    diag, pre = plan.diag, plan.pre_rows
    # An exact plan names every tap, so this check first bounds range(m) by
    # the plan's size (m may come from a document).
    if sum(len(term.row) for term in diag) < plan.m:
        fail.append(f"correctness-identity violation: the diagonal terms name fewer than m = {plan.m} taps")
        return
    doubled: Counter[tuple[int, int, int]] = Counter()
    for r, post in enumerate(plan.post_rows):
        for k, a in post:
            term = diag[k]
            scale = a if term.halved else 2 * a
            for i, c in term.row:
                for j, b in pre[k]:
                    doubled[r, i, j] += scale * c * b
    for r in range(2):
        for i in range(plan.m):
            doubled[r, i, i + r] -= 2
    wrong = [key for key, v in doubled.items() if v]
    if wrong:
        r, i, j = min(wrong)
        want = int(j == i + r)
        got = doubled[r, i, j] / 2 + want
        fail.append(
            f"correctness-identity violation: y{r} has coefficient {got:g} on "
            f"w[{i}]*x[{j}], expected {want}"
        )


def validate_plan(plan: KernelPlan) -> ValidationReport:
    """Check the row rule, then the correctness identity.

    Every row fault is reported: the checks the executor admits plans by
    (entries, dimensions, indices).  The identity is checked only on rows
    the rule admits.  It is proven from the plan's integers, not sampled, and
    the first (output, tap, sample) that differs is reported.  ``blocks`` is
    not read: the rows alone decide what the plan computes, and
    ``cost.count_proposed`` checks the blocks against the rows it counts.
    """
    failures = list(plan._row_faults)
    if not failures:
        _check_identity(plan, failures)
    return ValidationReport(failures)


def plan_to_json(plan: KernelPlan) -> str:
    """Serialize to the canonical single-line JSON document.

    The document holds the dense matrices and coefficient lists.  Key order
    and separators are fixed, so serialize -> parse -> serialize is
    byte-identical.
    """
    coeffs = _dense([t.row for t in plan.diag], plan.m).tolist()
    doc = {
        "m": plan.m,
        "blocks": [{"kind": b.kind.value, "offset": b.tap_offset} for b in plan.blocks],
        "a_pre": plan.a_pre.tolist(),
        "a_post": plan.a_post.tolist(),
        "diag": [{"coeffs": c, "halved": t.halved} for c, t in zip(coeffs, plan.diag)],
    }
    return json.dumps(doc, separators=(",", ":"))


def _typed(value, kind: type):
    # The exact type: a bool is an int to Python, but not a JSON integer.
    if type(value) is not kind:
        raise ValueError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _rows_from_json(matrix, width: int) -> tuple[_Row, ...]:
    # Dense JSON rows of `width` int8 integers, all that _dense writes, as sparse rows.
    rows = []
    for values in _typed(matrix, list):
        if len(_typed(values, list)) != width:
            raise ValueError(f"expected rows of {width} entries, got one of {len(values)}")
        if not set(map(type, values)) <= {int}:
            bad = next(v for v in values if type(v) is not int)
            raise ValueError(f"entry {bad!r} is not a JSON integer")
        rows.append(_int8(tuple([(j, values[j]) for j in compress(range(width), values)])))
    return tuple(rows)


def plan_from_json(text: str) -> KernelPlan:
    """Parse a plan document.

    Only the schema is enforced here; semantic invariants are left to
    ``validate_plan`` so that a corrupted document can still be loaded and
    reported on.  The schema admits exactly what ``plan_to_json`` writes: JSON
    integers (not booleans) for ``m`` and offsets, JSON integers within int8
    for matrix entries and coefficients alike, JSON booleans for ``halved``,
    ``a_pre`` and ``a_post`` as lists of rows m+1 and p entries wide (p
    diagonal terms) and m-long ``coeffs`` lists.  Anything else raises
    ValueError, so a coefficient of 300 is malformed while one of 2 loads and
    is reported by ``validate_plan``.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed plan document: {exc}") from exc
    try:
        m = _typed(doc["m"], int)
        blocks = tuple(Block(BlockKind(b["kind"]), _typed(b["offset"], int)) for b in doc["blocks"])
        terms = _typed(doc["diag"], list)
        rows = _rows_from_json([t["coeffs"] for t in terms], m)
        diag = tuple(DiagonalTerm(row, _typed(t["halved"], bool)) for row, t in zip(rows, terms))
        pre_rows = _rows_from_json(doc["a_pre"], m + 1)
        post_rows = _rows_from_json(doc["a_post"], len(diag))
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed plan document: {exc}") from exc
    return KernelPlan(m, blocks, pre_rows, post_rows, diag)
