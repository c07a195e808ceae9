"""Anatomy of one basic operation: two adjacent 3-tap outputs, four products.

The direct method computes y0 = x0*w0 + x1*w1 + x2*w2 and
y1 = x1*w0 + x2*w1 + x3*w2 with six multiplications.  The factorized kernel
gets the same pair with four, by trading multiplications for additions and
for constants precomputed from the taps.
"""

from minfilt import (
    OpCounter,
    apply_basic_op,
    apply_basic_op_naive,
    generate_plan,
    precompute_diagonal,
)

plan = generate_plan(3)

print("The 3-tap plan factors the two-output window product as")
print("y = a_post @ diag(s) @ a_pre @ x, with ternary matrices:")
print()
print("a_pre (rows form the multiplier inputs from the window x):")
print(plan.a_pre)
print()
print("a_post (rows combine the products into y0 and y1):")
print(plan.a_post)
print()
print("The plan stores only each row's nonzero (index, sign) pairs; the")
print("matrices above are derived from them.  a_pre rows as stored:")
for k, row in enumerate(plan.pre_rows):
    print(f"  t[{k}]: {row}")
print()
print("Diagonal recipes (nonzero (tap index, coefficient) pairs, halved flag):")
for k, term in enumerate(plan.diag):
    print(f"  s[{k}]: row={term.row}  halved={term.halved}")
print()

taps = [2.0, -1.0, 0.5]
window = [1.0, 2.0, 3.0, 4.0]
kernel = precompute_diagonal(plan, taps)
print(f"taps w = {taps}")
print(f"window x = {window}")
print(f"precomputed diagonal s = {kernel.s}")
print()

counter = OpCounter()
y = apply_basic_op(kernel, window, counter)
print(f"factorized outputs:  y = {y}")
print(f"factorized cost:     {counter.mults} multiplications, {counter.adds} additions")

counter = OpCounter()
y_direct = apply_basic_op_naive(taps, window, counter=counter)
print(f"direct outputs:      y = {y_direct}")
print(f"direct cost:         {counter.mults} multiplications, {counter.adds} additions")
print()
assert y == y_direct
print("Same outputs, four multiplications instead of six.")
print("The extra additions are the price, and they are cheaper in hardware.")
