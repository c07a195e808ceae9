"""The package's public names, gathered from its modules' ``__all__`` lists."""

import minfilt
from minfilt import cost, kernels, plan, reference, stream

PUBLIC_NAMES = [
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


def test_public_names_are_listed_once():
    assert sorted(minfilt.__all__) == PUBLIC_NAMES
    assert len(set(minfilt.__all__)) == len(minfilt.__all__)


def test_public_names_are_the_module_objects():
    owners = {name: mod for mod in (cost, kernels, plan, reference, stream) for name in mod.__all__}
    assert sorted(owners) == PUBLIC_NAMES
    for name, mod in owners.items():
        assert getattr(minfilt, name) is getattr(mod, name), name
