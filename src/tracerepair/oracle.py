"""Brute-force cross-checks, independent of the coset machinery.

The repair-space dimension is recomputed here straight from its
definition: a vector supported on the nonzero points with entries
b_a / a, b_a in B, that annihilates every monomial codeword of degree
below k.  Expanding each F-linear condition into t B-linear ones gives a
(k t) x (n - 1) system over B whose nullity must match the coset count.
Nothing from cosets.py or repair.py is consulted on the way.

The paper's B-valued check vectors live here too, as the reference for
the repair plan.  Each selected coset with s exponents gives s trace
polynomials, sum over j of c^(q^j) x^(a q^j), one per shift power c.
Stacked, their values at the nonzero points form T = V M, where M holds
the monomial rows omega^(a e) for a in A and V is block-diagonal and
invertible.  The plan solves with M's window block E alone;
verify_factorization checks T restricted to the window equals V E.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from . import linalg
from .cosets import FilteredCosets, enumerate_cosets, filter_cosets
from .field import FieldTower, construct_field
from .repair import RepairPlan, build_plan, repair_pipeline
from .rs import encode, erase_zero

# The field/k matrix exercised by the verify command: (p, m, t).
VERIFICATION_FIELDS = (
    (2, 1, 2),   # GF(4)  / GF(2)
    (3, 1, 2),   # GF(9)  / GF(3)
    (2, 2, 2),   # GF(16) / GF(4)
    (2, 1, 3),   # GF(8)  / GF(2)
    (2, 1, 4),   # GF(16) / GF(2)
    (5, 1, 2),   # GF(25) / GF(5)
    (2, 3, 2),   # GF(64) / GF(8)
)

_BRUTE_LIMIT = 1 << 12


def brute_dim(ctx: FieldTower, k: int) -> int:
    """Nullity over B of the dual-membership system, from first principles."""
    n = ctx.order
    if n > _BRUTE_LIMIT:
        raise ValueError(f"field of order {n} too large for brute force")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    mod = n - 1
    rows = []
    for j in range(k):
        # condition sum_a (b_a / a) a^j = 0, i.e. coefficients a^(j-1)
        coords = [ctx.base_coords(ctx.exp(e * (j - 1) % mod)) for e in range(mod)]
        for l in range(ctx.t):
            rows.append([coords[e][l] for e in range(mod)])
    return mod - linalg.rank(ctx, rows)


def rank_over_base(ctx: FieldTower, mat) -> int:
    """Rank of a matrix whose entries must all lie in B."""
    for row in mat:
        for x in row:
            if not ctx.in_base_field(x):
                raise ValueError(f"entry {x} is not in the base field")
    return linalg.rank(ctx, mat)


def brute_repair_check(ctx: FieldTower, k: int, r: int, trials: int | None = None,
                       seed: int = 0, exhaustive_limit: int = 20000) -> bool:
    """Encode, erase, repair, compare; over all messages or a random sample.

    With trials=None the message space is swept exhaustively when it has
    at most exhaustive_limit elements, else 1000 seeded random messages.
    """
    n = ctx.order
    cc = enumerate_cosets(ctx.q, ctx.t)
    plan = build_plan(ctx, filter_cosets(cc, k), r)
    if trials is None and n ** k <= exhaustive_limit:
        messages = itertools.product(range(n), repeat=k)
    else:
        rng = random.Random(seed)
        count = trials if trials is not None else 1000
        messages = (tuple(rng.randrange(n) for _ in range(k)) for _ in range(count))
    for msg in messages:
        cw = encode(ctx, msg)
        got, _ = repair_pipeline(ctx, k, r, erase_zero(cw), plan=plan)
        if got != cw.values[0]:
            return False
    return True


@dataclass(frozen=True)
class TracePoly:
    """B-valued polynomial attached to one coset and one shift.

    terms are (exponent, coefficient) pairs; the exponents run over the
    coset and the coefficients are the matching Frobenius conjugates of
    the shift power.
    """

    terms: tuple[tuple[int, int], ...]

    def eval(self, ctx: FieldTower, x: int) -> int:
        acc = 0
        add, mul, pw = ctx.add, ctx.mul, ctx.pow
        for e, c in self.terms:
            acc = add(acc, mul(c, pw(x, e)))
        return acc


def trace_poly(ctx: FieldTower, fc: FilteredCosets, i: int, shift: int) -> TracePoly:
    """Check polynomial for selected coset i at the given shift."""
    coset = fc.selected[i]
    if not 0 <= shift < coset.size:
        raise ValueError(f"shift must be in [0, {coset.size - 1}], got {shift}")
    mod = ctx.order - 1
    q = ctx.q
    # The shift base must come from GF(q^s), the subfield a size-s coset
    # is stable under, or the polynomial leaves B on evaluation; omega to
    # this stride generates that subfield (for s = t it is omega itself).
    stride = mod // (q ** coset.size - 1)
    terms = []
    qj = 1
    for e in coset.elements:
        terms.append((e, ctx.exp(shift * stride * qj % mod)))
        qj = qj * q % mod
    return TracePoly(tuple(terms))


def check_polys(ctx: FieldTower, fc: FilteredCosets) -> tuple[TracePoly, ...]:
    """The d stacked check polynomials, coset by coset, shift by shift."""
    return tuple(trace_poly(ctx, fc, i, shift)
                 for i, coset in enumerate(fc.selected) for shift in range(coset.size))


def trace_matrix(ctx: FieldTower, fc: FilteredCosets) -> list[list[int]]:
    """T: the check polynomials evaluated at omega^e, column e, e < n - 1."""
    points = [ctx.exp(e) for e in range(ctx.order - 1)]
    return [[poly.eval(ctx, x) for x in points] for poly in check_polys(ctx, fc)]


def vander_blocks(ctx: FieldTower, fc: FilteredCosets) -> list[list[int]]:
    """V in T = V M: each row holds its polynomial's coefficients in its coset's block."""
    d = fc.dim
    rows = []
    base = 0
    for i, coset in enumerate(fc.selected):
        for shift in range(coset.size):
            row = [0] * d
            for j, (_, c) in enumerate(trace_poly(ctx, fc, i, shift).terms):
                row[base + j] = c
            rows.append(row)
        base += coset.size
    return rows


def verify_factorization(plan: RepairPlan) -> bool:
    """Check T restricted to the plan's window equals V E, entry by entry."""
    if plan.dim == 0:
        return True
    ctx = plan.ctx
    prod = linalg.mat_mul(ctx, vander_blocks(ctx, plan.cosets), plan.window_powers)
    window = plan.omitted
    for poly, prow in zip(check_polys(ctx, plan.cosets), prod):
        if [poly.eval(ctx, x) for x in window] != prow:
            return False
    return True


def equivalence_report(fields=VERIFICATION_FIELDS, perturb: int = 0) -> list[dict]:
    """Formula vs brute-force dimension for every k of every field.

    perturb shifts the formula value and exists only so the verify
    command's failure path can be exercised.
    """
    rows = []
    for p, m, t in fields:
        ctx = construct_field(p, m, t)
        cc = enumerate_cosets(ctx.q, ctx.t)
        for k in range(1, ctx.order):
            formula = filter_cosets(cc, k).dim + perturb
            oracle = brute_dim(ctx, k)
            rows.append({
                "p": p, "m": m, "t": t, "k": k,
                "formula": formula, "oracle": oracle,
                "ok": formula == oracle,
            })
    return rows
