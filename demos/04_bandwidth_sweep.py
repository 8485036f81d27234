"""
Repair bandwidth across code rates
==================================

One table per tower: for each message length k, the download cost of
classical repair, of full-trace repair, and of the windowed scheme,
all in base-field symbols.  The windowed column equals n - 1 - d, so
it collapses back onto full-trace exactly when the check-vector space
dries up.
"""

from tracerepair import (bandwidth_table, construct_field, enumerate_cosets,
                         filter_cosets, gw_max_k)


def sweep(p, m, t):
    ctx = construct_field(p, m, t)
    cc = enumerate_cosets(ctx.q, ctx.t)
    kmax = gw_max_k(ctx)
    bits = ctx.bits_per_symbol
    print(f"GF({ctx.order}) over GF({ctx.q}), n = {ctx.order}, "
          f"k up to {kmax}, {bits} bits per GF({ctx.q}) symbol")
    print("   k  classical  full-trace  windowed   saved")
    for row in bandwidth_table(ctx, kmax):
        d = filter_cosets(cc, row.k).dim
        note = "" if d else "   (no window left)"
        print(f"  {row.k:2d}  {row.classical:9d}  {row.gw:10d}  "
              f"{row.ours:8d}  {row.gw - row.ours:6d}{note}")
    print()


# The small tower first: every row is checkable by hand.
sweep(3, 1, 2)

# GF(16) over GF(4): the savings persist through most of the range.
sweep(2, 2, 2)

# The headline tower, GF(64) over GF(8).  Low-rate codes skip dozens
# of helpers; by k = 56 the window is gone and the windowed scheme
# quietly matches full-trace while still beating classical.
sweep(2, 3, 2)
