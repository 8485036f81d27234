"""
A tower of finite fields: arithmetic, traces, and the Frobenius map
===================================================================

Everything downstream (cosets, repair plans, bandwidth accounting)
rests on one object: a field F = GF(q^t) sitting above its subfield
B = GF(q).  This script pokes at the tower GF(9) over GF(3) until the
moving parts are visible.
"""

from tracerepair import construct_field

# p=3, m=1, t=2: B = GF(3), F = GF(9).
ctx = construct_field(3, 1, 2)
print(f"F = GF({ctx.order}) over B = GF({ctx.q}), characteristic {ctx.p}")
print(f"modulus polynomial encoding: {ctx.modulus}")
print(f"primitive element w = {ctx.primitive_element}")
print()

# Elements are ints: the base-p digits are the polynomial coefficients.
# 5 = 1*3 + 2 stands for x + 2.  Arithmetic never leaves the ints.
a, b = 5, 7
print(f"{a} + {b} = {ctx.add(a, b)}")
print(f"{a} * {b} = {ctx.mul(a, b)}")
print(f"{a}^-1  = {ctx.inv(a)}, check: {ctx.mul(a, ctx.inv(a))}")
print()

# Every nonzero element is a power of w, so multiplication is just
# addition of logs.  Addition goes through logs too: with
# zech(e) = log(1 + w^e), x + y = x * (1 + y/x) is
# w^(log x + zech(log y - log x)).  zech(e) is "-" where 1 + w^e = 0.
print("e  w^e   log(w^e)  zech(e)")
for e in range(ctx.order - 1):
    x = ctx.exp(e)
    one_plus_x = ctx.add(1, x)
    zech = "-" if one_plus_x == 0 else ctx.log(one_plus_x)
    print(f"{e}   {x:3d}   {ctx.log(x)}         {zech}")
print()

# The trace maps F onto B by summing Frobenius conjugates:
# trace(x) = x + x^q + ... + x^(q^(t-1)).  It is B-linear and every
# fiber has the same size q^(t-1).
print("trace values:")
for x in range(ctx.order):
    tr = ctx.trace(x)
    assert ctx.in_base_field(tr)
    print(f"  trace({x}) = {tr}")
from collections import Counter
fibers = Counter(ctx.trace(x) for x in range(ctx.order))
print(f"fiber sizes: {dict(sorted(fibers.items()))}")
print()

# B itself is exactly the set of Frobenius fixed points: 0 and the
# powers of w^s, s = (q^t - 1)/(q - 1).
fixed = sorted(x for x in range(ctx.order) if ctx.frobenius(x) == x)
s = (ctx.order - 1) // (ctx.q - 1)
powers = sorted([0] + [ctx.exp(j * s) for j in range(ctx.q - 1)])
print(f"Frobenius fixed points: {fixed}")
print(f"0 and powers of w^{s}:   {powers}")
