"""Exact-arithmetic verification: equality you can trust bit for bit.

Every plan constant is a signed sum of taps divided by at most one factor of
two, so in exact arithmetic the factorized kernel must equal the direct
method exactly, not merely within a tolerance.  That turns verification into
a pure yes or no question.  One random signal asks it of the shipped
executor, fir_filter, against the direct method, naive_fir; validate_plan
answers it for the plan itself, by proof from the plan's integer rows.
"""

from dataclasses import replace
from fractions import Fraction

import numpy as np

from minfilt import (
    fir_filter,
    generate_plan,
    is_dyadic,
    naive_fir,
    precompute_diagonal,
    validate_plan,
)

plan = generate_plan(5)
taps = [3, -7, 11, 5, -2]
kernel = precompute_diagonal(plan, taps, exact=True)

print(f"taps w = {taps}")
print("exact diagonal constants:")
for k, v in enumerate(kernel.s):
    print(f"  s[{k}] = {v}   dyadic: {is_dyadic(v)}")
print()
print("Halved constants like", Fraction(3, 2), "stay dyadic, so float mode")
print("rounds each constant once and integer inputs lose nothing at all.")
print()

rng = np.random.default_rng(12345)
windows = 2000
w = rng.integers(-2**20, 2**20 + 1, size=5).tolist()
x = rng.integers(-2**20, 2**20 + 1, size=5 + 2 * windows - 2).tolist()
y = fir_filter(precompute_diagonal(plan, w, exact=True), x)
assert y == naive_fir(x, w, exact=True)
print(f"{len(y)} outputs, {windows} windows of one random integer signal:")
print("fir_filter == naive_fir, every bit equal.")
print()

report = validate_plan(plan)
print(f"validate_plan(generate_plan(5)).ok = {report.ok}")

(j, sign), *rest = plan.pre_rows[0]
bad_rows = (((j, -sign), *rest),) + plan.pre_rows[1:]
report = validate_plan(replace(plan, pre_rows=bad_rows))
print("After flipping one matrix sign (structurally still legal):")
for msg in report.failures:
    print(f"  {msg}")
print()
print("Structural checks pass the flipped plan; the exact identity catches it")
print("and names the first tap-sample product whose coefficient is wrong.")
