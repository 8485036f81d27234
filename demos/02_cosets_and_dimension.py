"""
Cyclotomic cosets and how many helpers a repair can skip
========================================================

For a full-length Reed-Solomon code over GF(q^t) the exponents
0 .. q^t - 2 split into orbits under multiplication by q.  Which
orbits survive a degree filter determines d, the dimension of the
space of check vectors usable for repair, and d is exactly the number
of helper nodes the repair scheme may ignore.
"""

from tracerepair import (brute_dim, construct_field, enumerate_cosets,
                         filter_cosets)

q, t = 3, 2
cc = enumerate_cosets(q, t)


def reach(coset):
    """The largest k whose filter keeps the coset, 0 if none does."""
    return max((k for k in range(1, q ** t) if coset in filter_cosets(cc, k).selected),
               default=0)


# d(k) is the total size of the cosets whose reach is at least k.
print(f"orbits of x -> {q}x mod {q**t - 1}, with their reach:")
for coset in cc.cosets:
    elements = ','.join(map(str, sorted(coset.elements)))
    print(f"  rep {coset.rep}: {{{elements}}}  reach {reach(coset)}")
print()

for k in (1, 2, 3, 4):
    fc = filter_cosets(cc, k)
    kept = [sorted(c.elements) for c in fc.selected]
    print(f"k={k}: kept {kept}, d={fc.dim}")
print()

# The closed-form count must agree with a rank computation that knows
# nothing about cosets.  brute_dim builds the k*t linear constraints
# on check vectors over B and reads the nullity off a row reduction.
ctx = construct_field(3, 1, 2)
print("k   formula   brute force")
for k in range(1, ctx.order):
    d = filter_cosets(cc, k).dim
    bd = brute_dim(ctx, k)
    assert d == bd
    print(f"{k}   {d}         {bd}")
print()

# Each surviving dimension is a helper skipped, so the download is
# n - 1 - d base-field symbols against k*t for the natural bound.
n = ctx.order
print("k   download n-1-d   bound k*t")
for k in range(1, n - n // ctx.q + 1):
    d = filter_cosets(cc, k).dim
    print(f"{k}   {n - 1 - d}                {k * t}")

# A bigger tower to show the same shape at scale: GF(64) over GF(8).
cc64 = enumerate_cosets(8, 2)
print()
print("GF(64)/GF(8):")
for k in (1, 10, 30, 56):
    print(f"  k={k:2d}: d={filter_cosets(cc64, k).dim}")
