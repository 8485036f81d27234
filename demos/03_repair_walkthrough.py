"""
Repairing one erased Reed-Solomon symbol, step by step
======================================================

A codeword over GF(9) loses the symbol at position 0.  The classical
fix downloads k full symbols.  Here we walk the trace route instead:
every helper ships a single GF(3) symbol, a whole window of helpers
ships nothing at all, and linear algebra over the tower fills the gap.
"""

from tracerepair import (build_plan, classical_repair, encode,
                         enumerate_cosets, erase_zero, filter_cosets,
                         construct_field, gw_finish, gw_max_k,
                         recover_missing_traces, repair_pipeline)

ctx = construct_field(3, 1, 2)
k = 3

cw = encode(ctx, (5, 2, 7))
print(f"message (5, 2, 7)  ->  codeword {cw.values}")
lost = erase_zero(cw)
print(f"erased position 0, true value {cw.values[0]}")
print()

# The plan fixes which helpers stay silent.  Each exponent a of the
# surviving cosets gives one check, sum_e w^(a*e) * trace(f(w^e)/w^e) = 0.
fc = filter_cosets(enumerate_cosets(ctx.q, ctx.t), k)
plan = build_plan(ctx, fc, r=0)
checks = [a for coset in fc.selected for a in coset.elements]
print(f"d = {plan.dim} checks, exponents A = {checks}")
print(f"silent window: points {plan.omitted}")
print(f"helpers contacted: {len(plan.helpers)} of {ctx.order - 1}")
print()

# Step 1: each contacted helper at point a sends trace(f(a)/a), one
# GF(3) symbol instead of one GF(9) symbol.
downloaded = {}
for e in plan.helper_exps:
    a = ctx.exp(e)
    downloaded[a] = ctx.trace(ctx.mul(lost.value_at(e + 1), ctx.inv(a)))
print(f"downloaded traces: {downloaded}")

# Step 2: the d checks pin down the silent window's traces.
recovered = recover_missing_traces(plan, downloaded)
print(f"recovered window:  {recovered}")

# Step 3: with all n-1 traces in hand, f(0) = -sum_a a * trace(f(a)/a)
# produces the erased value exactly.
full = dict(downloaded)
full.update(recovered)
value = gw_finish(ctx, full, k)
print(f"rebuilt f(0) = {value}, truth {cw.values[0]}")
assert value == cw.values[0]
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
