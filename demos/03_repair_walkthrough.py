"""
Repairing one erased Reed-Solomon symbol, step by step
======================================================

A codeword over GF(9) loses the symbol at position 0.  The classical
fix downloads k full symbols.  Here we walk the trace route instead:
every helper ships a single GF(3) symbol, a whole window of helpers
ships nothing at all, and one precomputed sum over the helpers fills
the gap.
The same plan then repairs a second, nonzero position.
"""

from tracerepair import (build_plan, combine, encode, enumerate_cosets,
                         erase, filter_cosets, construct_field, gw_max_k,
                         position_point, repair_pipeline)
from tracerepair.oracle import classical_repair

ctx = construct_field(3, 1, 2)
k = 3

cw = encode(ctx, (5, 2, 7))
print(f"message (5, 2, 7)  ->  codeword {cw.values}")
lost = erase(cw, 0)
print(f"erased position 0, true value {cw.values[0]}")
print()

# The plan fixes which helpers stay silent.  Each exponent a of the
# surviving cosets gives one check, sum_e w^(a*e) * trace(f(w^e)/w^e) = 0.
fc = filter_cosets(enumerate_cosets(ctx.q, ctx.t), k)
plan = build_plan(ctx, fc, r=0)
checks = [a for coset in fc.selected for a in coset.elements]
print(f"d = {plan.dim} checks, exponents A = {checks}")
print(f"silent window: w^e for e in {plan.omitted_exps}")
print(f"helpers contacted: w^e for e in {plan.helper_exps}, "
      f"{len(plan.helper_exps)} of {ctx.order - 1}")
print()

# Step 1: the helper at w^e sends trace(f(w^e)/w^e), one GF(3) symbol
# instead of one GF(9) symbol.  The downloads are listed in helper order.
downloaded = [ctx.trace(ctx.mul(lost.value_at(e + 1), ctx.inv(ctx.exp(e))))
              for e in plan.helper_exps]
print(f"downloaded traces: {downloaded}")

# Step 2: the d checks pin down what the silent window would have sent,
# so it sends nothing.  Shown here from the codeword itself, for display.
silent = [ctx.trace(ctx.mul(cw.values[e + 1], ctx.inv(ctx.exp(e))))
          for e in plan.omitted_exps]
print(f"silent window would have sent: {silent}")

# Step 3: with all n-1 traces, f(0) = -sum_e w^e * trace(f(w^e)/w^e).
# The window's traces are linear in the downloads, so combine takes their
# part of that sum from the downloads alone, one coefficient per helper
# fixed by the plan, and adds the helpers' part.
value = combine(plan, downloaded)
full = 0
for e, tau in zip(plan.helper_exps + plan.omitted_exps, downloaded + silent):
    full = ctx.sub(full, ctx.mul(ctx.exp(e), tau))
print(f"rebuilt f(0) = {value}, from all n-1 traces {full}, truth {cw.values[0]}")
assert value == full == cw.values[0]
print()

# The packaged pipeline does the same and reports the bill.
value2, report = repair_pipeline(ctx, k, 0, lost)
assert value2 == cw.values[0]
bits = ctx.bits_per_symbol
print(f"trace repair:    {report.b_symbols} GF(3) symbols = {report.bits} bits")

# Classical repair reads k full symbols from any k live positions.
helpers = [1, 2, 3]
classical = classical_repair(lost, helpers)
assert classical == cw.values[0]
print(f"classical:       {k} GF(9) symbols = {k * ctx.t * bits} bits")

# Trace repair without the silent window (every helper answers) is
# the prior-art baseline; it works for any k up to the same cap.
print(f"full-trace:      {ctx.order - 1} GF(3) symbols = "
      f"{(ctx.order - 1) * bits} bits")
print(f"(cap on k for trace repair here: {gw_max_k(ctx)})")
print()

# Nothing above depends on the erased point being 0.  At x0, the helper
# at w^e is read in place at x0 + w^e and ships trace(f(x0 + w^e)/w^e),
# and f(x0) = -sum_e w^e * trace(f(x0 + w^e)/w^e); the same plan serves.
pos = 5
value3, report = repair_pipeline(ctx, k, 0, erase(cw, pos), plan)
assert value3 == cw.values[pos]
print(f"erased position {pos} (point {position_point(ctx, pos)}): "
      f"rebuilt {value3}, truth {cw.values[pos]}, {report.b_symbols} GF(3) symbols")
