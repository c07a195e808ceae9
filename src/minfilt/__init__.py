"""Minimal-multiplication FIR basic operations.

Factorizes the two-adjacent-output filtering step y = a_post @ diag(s) @
a_pre @ x so an m-tap filter needs fewer scalar multiplications than the
direct 2m, keeps an exact-arithmetic verification path, and models the fully
parallel hardware cost.
"""

from .cost import OpCount, SavingsRow, count_naive, count_proposed, savings_report
from .kernels import (
    OpCounter,
    PreparedKernel,
    apply_basic_op,
    is_dyadic,
    precompute_diagonal,
)
from .plan import (
    Block,
    BlockKind,
    DiagonalTerm,
    KernelPlan,
    ValidationReport,
    decompose,
    generate_plan,
    plan_from_json,
    plan_to_json,
    validate_plan,
)
from .reference import apply_basic_op_naive, naive_fir
from .stream import fir_filter

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockKind",
    "DiagonalTerm",
    "KernelPlan",
    "OpCount",
    "OpCounter",
    "PreparedKernel",
    "SavingsRow",
    "ValidationReport",
    "apply_basic_op",
    "apply_basic_op_naive",
    "count_naive",
    "count_proposed",
    "decompose",
    "fir_filter",
    "generate_plan",
    "is_dyadic",
    "naive_fir",
    "plan_from_json",
    "plan_to_json",
    "precompute_diagonal",
    "savings_report",
    "validate_plan",
]
