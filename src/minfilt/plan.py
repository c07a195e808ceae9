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
diagonal recipe per product.

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
from typing import NamedTuple

import numpy as np

__all__ = [
    "BlockKind",
    "Block",
    "DiagonalTerm",
    "KernelPlan",
    "ValidationReport",
    "decompose",
    "generate_plan",
    "validate_plan",
    "plan_to_json",
    "plan_from_json",
]


class BlockKind(Enum):
    WINO3 = "wino3"
    PASS1 = "pass1"
    PAIR2 = "pair2"


class _Template(NamedTuple):
    a_pre: tuple[tuple[int, ...], ...]       # products x (taps + 1)
    a_post: tuple[tuple[int, ...], ...]      # 2 x products
    diag: tuple[tuple[tuple[int, ...], bool], ...]  # (coeffs over taps, halved)


_TEMPLATES = {
    BlockKind.WINO3: _Template(
        a_pre=((1, 0, -1, 0), (0, 1, 1, 0), (0, -1, 1, 0), (0, 1, 0, -1)),
        a_post=((1, 1, 1, 0), (0, 1, -1, -1)),
        diag=(((1, 0, 0), False), ((1, 1, 1), True), ((1, -1, 1), True), ((0, 0, 1), False)),
    ),
    BlockKind.PASS1: _Template(
        a_pre=((1, 0), (0, 1)),
        a_post=((1, 0), (0, 1)),
        diag=(((1,), False), ((1,), False)),
    ),
    BlockKind.PAIR2: _Template(
        a_pre=((1, -1, 0), (0, 1, 0), (0, -1, 1)),
        a_post=((1, 1, 0), (0, 1, 1)),
        diag=(((1, 0), False), ((1, 1), False), ((0, 1), False)),
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
        return len(self.template.a_pre[0]) - 1

    @property
    def product_count(self) -> int:
        return len(self.template.a_pre)


@dataclass(frozen=True)
class DiagonalTerm:
    """Symbolic recipe for one diagonal constant.

    The constant is (sum_i coeffs[i] * w[i]), divided by two when ``halved``.
    Coefficients are restricted to {-1, 0, +1}; halving only occurs for the
    three-tap combinations (w[a] +/- w[a+1] + w[a+2]) / 2.
    """

    coeffs: tuple[int, ...]
    halved: bool


@dataclass(frozen=True)
class KernelPlan:
    """Factorization of the basic operation for one tap count.

    The plan is a plain data container; ``validate_plan`` checks its
    invariants.  ``a_pre`` has shape (p, m+1), ``a_post`` shape (2, p), and
    ``diag`` holds p terms.  Instances returned by ``generate_plan`` and
    ``plan_from_json`` carry read-only matrices and are safe to share across
    threads.  ``pre_rows``, ``post_rows`` and ``diag_rows`` are derived from
    the matrices and coefficients on first use and kept, so a plan must not
    be changed after it has been used.
    """

    m: int
    blocks: tuple[Block, ...]
    a_pre: np.ndarray
    a_post: np.ndarray
    diag: tuple[DiagonalTerm, ...]

    @property
    def p(self) -> int:
        """Number of products (scalar multiplications) per window."""
        return len(self.diag)

    @cached_property
    def pre_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Nonzero (sample index, sign) pairs of each ``a_pre`` row, in index order."""
        return _sparse_rows(self.a_pre)

    @cached_property
    def post_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Nonzero (product index, sign) pairs of each ``a_post`` row, in index order."""
        return _sparse_rows(self.a_post)

    @cached_property
    def diag_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Nonzero (tap index, coefficient) pairs of each diagonal term, in index order."""
        return tuple(
            tuple((i, int(c)) for i, c in enumerate(term.coeffs) if c) for term in self.diag
        )


def _sparse_rows(matrix: np.ndarray) -> tuple[tuple[tuple[int, int], ...], ...]:
    rows: list[list[tuple[int, int]]] = [[] for _ in range(matrix.shape[0])]
    rr, cc = np.nonzero(matrix)
    for r, c, v in zip(rr.tolist(), cc.tolist(), matrix[rr, cc].tolist()):
        rows[r].append((c, v))
    return tuple(tuple(row) for row in rows)


def decompose(m: int) -> list[Block]:
    """Tile the tap range [0, m) with blocks.

    Greedy: WINO3 blocks first, then one PASS1 (1 tap left) or PAIR2 (2 taps
    left) closing block, unless ``_LAYOUT_OVERRIDES`` names the layout.
    """
    if m < 1:
        raise ValueError(f"tap count must be >= 1, got {m}")
    closing = ((), (BlockKind.PASS1,), (BlockKind.PAIR2,))[m % 3]
    kinds = _LAYOUT_OVERRIDES.get(m, (BlockKind.WINO3,) * (m // 3) + closing)
    blocks = []
    t = 0
    for kind in kinds:
        blocks.append(Block(kind, t))
        t += blocks[-1].tap_count
    return blocks


def generate_plan(m: int) -> KernelPlan:
    """Build the full factorization plan for an m-tap filter."""
    blocks = decompose(m)
    p = sum(b.product_count for b in blocks)
    a_pre = np.zeros((p, m + 1), dtype=np.int8)
    a_post = np.zeros((2, p), dtype=np.int8)
    diag: list[DiagonalTerm] = []

    r = 0
    for block in blocks:
        t, template = block.tap_offset, block.template
        rows = slice(r, r + block.product_count)
        a_pre[rows, t : t + block.tap_count + 1] = template.a_pre
        a_post[:, rows] = template.a_post
        diag += [
            DiagonalTerm((0,) * t + local + (0,) * (m - t - len(local)), halved)
            for local, halved in template.diag
        ]
        r = rows.stop

    a_pre.flags.writeable = False
    a_post.flags.writeable = False
    return KernelPlan(m, tuple(blocks), a_pre, a_post, tuple(diag))


@dataclass
class ValidationReport:
    """Outcome of ``validate_plan``; failures are collected, never raised."""

    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def _check_structure(plan: KernelPlan, fail: list[str]) -> None:
    if plan.m < 1:
        fail.append(f"tap count must be >= 1, got {plan.m}")
        return

    covered = []
    for block in plan.blocks:
        covered.extend(range(block.tap_offset, block.tap_offset + block.tap_count))
    if sorted(covered) != list(range(plan.m)):
        fail.append(f"blocks do not tile the tap range [0, {plan.m}) exactly once")

    p = sum(b.product_count for b in plan.blocks)
    if len(plan.diag) != p:
        fail.append(f"dimension violation: {len(plan.diag)} diagonal terms, blocks need {p}")
    if plan.a_pre.ndim != 2 or plan.a_pre.shape != (p, plan.m + 1):
        fail.append(f"dimension violation: a_pre shape {plan.a_pre.shape}, expected {(p, plan.m + 1)}")
    if plan.a_post.ndim != 2 or plan.a_post.shape != (2, p):
        fail.append(f"dimension violation: a_post shape {plan.a_post.shape}, expected {(2, p)}")

    for name in ("pre", "post"):
        # A matrix that is not 2-D has failed the dimension check and has no rows.
        if getattr(plan, f"a_{name}").ndim != 2:
            continue
        if any(abs(v) > 1 for row in getattr(plan, f"{name}_rows") for _, v in row):
            fail.append(f"ternary-entry violation: a_{name} has an entry outside {{-1, 0, +1}}")

    for k, (term, row) in enumerate(zip(plan.diag, plan.diag_rows)):
        if len(term.coeffs) != plan.m:
            fail.append(f"dimension violation: diag term {k} has {len(term.coeffs)} coefficients, expected {plan.m}")
            continue
        if any(abs(c) > 1 for _, c in row):
            fail.append(f"ternary-entry violation: diag term {k} coefficient outside {{-1, 0, +1}}")
        if term.halved and not _is_halvable(row):
            fail.append(f"diag term {k} is halved but is not of the form (w[a] +/- w[a+1] + w[a+2]) / 2")


def _is_halvable(row: tuple[tuple[int, int], ...]) -> bool:
    # The sparse row must be exactly ((a, 1), (a+1, +-1), (a+2, 1)).
    if len(row) != 3:
        return False
    (a, first), (b, middle), (c, last) = row
    return (b, c) == (a + 1, a + 2) and first == last == 1 and middle in (-1, 1)


def _check_identity(plan: KernelPlan, fail: list[str]) -> None:
    # y_r = sum_k a_post[r,k] * s_k * (a_pre @ x)_k with 2*s_k = sum_i c_k[i]*w[i],
    # c_k the coefficients, doubled unless halved.  The plan is exact iff the
    # doubled coefficient of w[i]*x[j] in y_r is 2 when j == i + r, else 0.
    # Only nonzero products are visited, so the cost is linear in the plan.
    doubled: Counter[tuple[int, int, int]] = Counter()
    for r, post in enumerate(plan.post_rows):
        for k, a in post:
            scale = a if plan.diag[k].halved else 2 * a
            for i, c in plan.diag_rows[k]:
                for j, b in plan.pre_rows[k]:
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
    """Check every structural invariant plus the correctness identity.

    Structural failures (ternary entries, dimensions, block tiling, halving
    recipe) are all reported; the identity is only checked when the structure
    is sound enough to evaluate.  It is proven from the plan's integers, not
    sampled, and the first (output, tap, sample) that differs is reported.
    """
    failures: list[str] = []
    _check_structure(plan, failures)
    if not failures:
        _check_identity(plan, failures)
    return ValidationReport(failures)


def plan_to_json(plan: KernelPlan) -> str:
    """Serialize to the canonical single-line JSON document.

    Key order and separators are fixed, so serialize -> parse -> serialize is
    byte-identical.
    """
    doc = {
        "m": plan.m,
        "blocks": [{"kind": b.kind.value, "offset": b.tap_offset} for b in plan.blocks],
        "a_pre": plan.a_pre.tolist(),
        "a_post": plan.a_post.tolist(),
        "diag": [
            {"coeffs": [int(c) for c in t.coeffs], "halved": t.halved} for t in plan.diag
        ],
    }
    return json.dumps(doc, separators=(",", ":"))


def _typed(value, kind: type):
    # The exact type: a bool is an int to Python, but not a JSON integer.
    if type(value) is not kind:
        raise ValueError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def _int8_matrix(rows) -> np.ndarray:
    # Any rectangular nesting loads, so that validate_plan can report its shape.
    cells = np.array(rows, dtype=object)
    for v in cells.flat:
        if type(v) is not int or not -128 <= v <= 127:
            raise ValueError(f"matrix entry {v!r} is not a JSON integer in int8")
    matrix = cells.astype(np.int8)
    matrix.flags.writeable = False
    return matrix


def plan_from_json(text: str) -> KernelPlan:
    """Parse a plan document.

    Only the schema is enforced here; semantic invariants are left to
    ``validate_plan`` so that a corrupted document can still be loaded and
    reported on.  The schema admits exactly the value types ``plan_to_json``
    writes: JSON integers (not booleans) for ``m``, offsets, matrix entries
    and coefficients, with matrix entries in int8, and JSON booleans for
    ``halved``.  Anything else raises ValueError.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed plan document: {exc}") from exc
    try:
        m = _typed(doc["m"], int)
        blocks = tuple(
            Block(BlockKind(b["kind"]), _typed(b["offset"], int)) for b in doc["blocks"]
        )
        a_pre = _int8_matrix(doc["a_pre"])
        a_post = _int8_matrix(doc["a_post"])
        diag = tuple(
            DiagonalTerm(tuple(_typed(c, int) for c in t["coeffs"]), _typed(t["halved"], bool))
            for t in doc["diag"]
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ValueError(f"malformed plan document: {exc}") from exc
    return KernelPlan(m, blocks, a_pre, a_post, diag)
