"""Fully parallel hardware cost of the naive and factorized basic operations.

Counting conventions, matched to the block dataflow diagrams:

* one multiplier per scalar product (naive: 2m, factorized: P);
* adders are fused multi-input blocks counted at their full fan-in, not
  decomposed into two-input chains.  A fan-in-f adder performs f - 1 scalar
  additions, which ties the histogram to the instrumented kernel: the total
  adder capacity sum((f - 1) * count) equals the additions one window
  actually executes;
* constants derived from the taps, halved sums included, are precomputed off
  the datapath and cost nothing here.

Every adder is derived from the fan-in (row nonzeros) of the block
templates: each ``a_pre`` or ``a_post`` row with fan-in f > 1 is one f-input
adder, and multi-block plans combine one partial per block in two fan-in-B
adders (B = block count).  The block shapes in ``_FUSED_OUTPUT`` instead sum
every product of an output in one adder: WINO3 + PAIR2 has two 5-input
adders, which is how the published 5-tap dataflow draws it.

So ``count_proposed`` counts only a plan whose rows are its blocks'
templates stamped at their offsets, as in every generated plan and its JSON
document; on any other plan it raises ValueError, since the templates would
not describe the additions its rows run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .plan import KernelPlan, _stamp, decompose

__all__ = ["OpCount", "SavingsRow", "count_naive", "count_proposed", "savings_report"]

# Sorted block kinds of the plans whose outputs are single fused adders.
_FUSED_OUTPUT = frozenset({("pair2", "wino3")})


@dataclass(frozen=True)
class OpCount:
    """Multiplier count plus adder histogram keyed by fan-in."""

    multipliers: int
    adders: Mapping[int, int]

    @property
    def scalar_additions(self) -> int:
        """Scalar additions per window implied by the adder capacity."""
        return sum((fan_in - 1) * count for fan_in, count in self.adders.items())


def _histogram(counts: Mapping[int, int]) -> Mapping[int, int]:
    # A row with fan-in 1 passes its one input on and needs no adder.
    return MappingProxyType({f: n for f, n in sorted(counts.items()) if f > 1})


def count_naive(m: int) -> OpCount:
    """Direct method: 2m multipliers and two m-input output adders."""
    if m < 1:
        raise ValueError(f"tap count must be >= 1, got {m}")
    return OpCount(2 * m, _histogram({m: 2}))


def count_proposed(plan: KernelPlan) -> OpCount:
    """Adder histogram and multiplier count of the factorized dataflow.

    Raises ValueError unless the plan's rows are exactly its blocks'
    templates stamped at their offsets, as ``generate_plan`` builds them.
    """
    if plan != _stamp(plan.m, plan.blocks):
        raise ValueError("count_proposed: the plan's rows are not its blocks' templates at their offsets")
    templates = [b.template for b in plan.blocks]
    fan_ins = [len(row) for t in templates for row in t.a_pre]
    if tuple(sorted(b.kind.value for b in plan.blocks)) in _FUSED_OUTPUT:
        fan_ins += [sum(len(t.a_post[r]) for t in templates) for r in range(2)]
    else:
        fan_ins += [len(row) for t in templates for row in t.a_post]
        if len(templates) > 1:
            fan_ins += [len(templates)] * 2
    return OpCount(plan.p, _histogram(Counter(fan_ins)))


@dataclass(frozen=True)
class SavingsRow:
    m: int
    naive_multipliers: int
    proposed_multipliers: int
    savings_pct: float


def savings_report(m_list: list[int]) -> list[SavingsRow]:
    """Multiplier savings of the factorized method, one row per tap count."""
    rows = []
    for m in m_list:
        p = sum(b.product_count for b in decompose(m))
        naive = count_naive(m)
        pct = round((1 - p / naive.multipliers) * 100, 1)
        rows.append(SavingsRow(m, naive.multipliers, p, pct))
    return rows
