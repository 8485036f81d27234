"""Brute-force cross-checks, independent of the coset machinery.

The repair-space dimension is recomputed here straight from its
definition: a vector supported on the nonzero points with entries
b_a / a, b_a in B, that annihilates every monomial codeword of degree
below k.  Pairing each F-linear condition with omega^l, l < t, under
the trace form, which is nondegenerate, expands it into t B-linear ones
and gives a (k t) x (n - 1) system over B whose nullity must match the
coset count.  Nothing from cosets.py or repair.py is consulted on the way.

The paper's B-valued check vectors live here too, as the reference for
the repair plan.  Each selected coset with s exponents gives s trace
polynomials, sum over j of c^(q^j) x^(a q^j), one per shift power c.
Stacked, their values at the nonzero points form T = V M, where M holds
the monomial rows omega^(a e) for a in A and V is block-diagonal and
invertible.  The plan's share rests on M's window block E alone;
window_block rebuilds E from the plan's window and cosets,
verify_factorization checks T restricted to the window equals V E,
and reference_traces recovers the window's traces by elimination.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .cosets import FilteredCosets, enumerate_cosets, filter_cosets
from .field import FieldTower, check_order_limit, construct_field
from .repair import RepairPlan, build_plan, repair_pipeline
from .rs import Codeword, encode, erase, position_point

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
_EXHAUSTIVE_LIMIT = 20000

# Largest tower order equivalence_report accepts.  It runs brute_dim for
# every k, and that time grows like n^4: on a 2-vCPU host `tracerepair
# verify` took 1.9-3.1 s on the GF(64) towers, 6.9-9.1 s on the GF(81)
# towers and 57 s on GF(125), and did not finish in 10 minutes on GF(343).
VERIFY_LIMIT = 81


# Scalar add/mul/inv linear algebra: the oracle checks the repair path
# through it and so shares no kernel with that path.  rank serves F and,
# unchanged, B-valued matrices, since B is closed under the field operations.

def mat_mul(ctx, a, b) -> list:
    add, mul = ctx.add, ctx.mul
    cols = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(orow)
    return out


def rank(ctx, mat) -> int:
    if not mat:
        return 0
    a = [list(row) for row in mat]
    nrows, ncols = len(a), len(a[0])
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        inv_p = inv(prow[col])
        for i in range(r + 1, nrows):
            row = a[i]
            if not row[col]:
                continue
            f = mul(row[col], inv_p)
            for j in range(col, ncols):
                if prow[j]:
                    row[j] = sub(row[j], mul(f, prow[j]))
        r += 1
        if r == nrows:
            break
    return r


def brute_dim(ctx: FieldTower, k: int) -> int:
    """Nullity over B of the dual-membership system, from first principles.

    Row (j, l) pairs condition j < k, sum_a (b_a / a) a^j = 0, with omega^l
    under the trace: its entry at a is trace(omega^l a^(j-1)).
    """
    n = ctx.order
    if n > _BRUTE_LIMIT:
        raise ValueError(f"field of order {n} too large for brute force")
    if type(k) is not int or not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k!r}")
    mod = n - 1
    rows = [[ctx.trace(ctx.exp(l + e * (j - 1))) for e in range(mod)]
            for j in range(k) for l in range(ctx.t)]
    return mod - rank(ctx, rows)


def rank_over_base(ctx: FieldTower, mat) -> int:
    """Rank of a matrix whose rows share one length and whose entries lie in B."""
    if not isinstance(mat, (list, tuple)) or not all(isinstance(row, (list, tuple))
                                                    for row in mat):
        raise ValueError("a matrix is a list of rows, each a list of entries")
    if len({len(row) for row in mat}) > 1:
        raise ValueError("matrix rows must all have the same length")
    for row in mat:
        for x in row:
            if not (type(x) is int and 0 <= x < ctx.order and ctx.in_base_field(x)):
                raise ValueError(f"entry {x!r} is not in the base field")
    return rank(ctx, mat)


def brute_repair_check(ctx: FieldTower, k: int, r: int, trials: int | None = None,
                       seed: int = 0) -> bool:
    """Encode, erase, repair, compare; over all messages or a random sample.

    With trials=None the message space is swept exhaustively when it has
    at most _EXHAUSTIVE_LIMIT elements, else 1000 seeded random messages.
    """
    if trials is not None and (type(trials) is not int or trials < 1):
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    n = ctx.order
    cc = enumerate_cosets(ctx.q, ctx.t)
    plan = build_plan(ctx, filter_cosets(cc, k), r)
    if trials is None and n ** k <= _EXHAUSTIVE_LIMIT:
        messages = itertools.product(range(n), repeat=k)
    else:
        rng = random.Random(seed)
        count = trials if trials is not None else 1000
        messages = (tuple(rng.randrange(n) for _ in range(k)) for _ in range(count))
    for msg in messages:
        cw = encode(ctx, msg)
        got, _ = repair_pipeline(ctx, k, r, erase(cw, 0), plan=plan)
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
    if type(i) is not int or not 0 <= i < len(fc.selected):
        raise ValueError(f"coset index must be in [0, {len(fc.selected)}), got {i!r}")
    coset = fc.selected[i]
    if type(shift) is not int or not 0 <= shift < coset.size:
        raise ValueError(f"shift must be in [0, {coset.size - 1}], got {shift!r}")
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


def window_block(plan: RepairPlan) -> list[list[int]]:
    """E: the monomial rows omega^(a e) over the plan's window exponents e, a in A."""
    ctx = plan.ctx
    return [[ctx.exp(a * e) for e in plan.omitted_exps]
            for coset in plan.cosets.selected for a in coset.elements]


@lru_cache(maxsize=8)
def _block_inverse(ctx: FieldTower, exps: tuple) -> tuple:
    """The inverse of (omega^(a c)), a in exps and c < d, by Gauss-Jordan elimination.

    Kept for the last few (tower, A), so a sweep over every r eliminates once.
    """
    d = len(exps)
    add, mul, neg, inv, exp = ctx.add, ctx.mul, ctx.neg, ctx.inv, ctx.exp
    rows = [[exp(a * c) for c in range(d)] + [int(i == j) for j in range(d)]
            for i, a in enumerate(exps)]
    for col in range(d):
        piv = next(i for i in range(col, d) if rows[i][col])
        rows[col], rows[piv] = rows[piv], rows[col]
        f = inv(rows[col][col])
        prow = rows[col] = [mul(f, x) for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                g = neg(row[col])
                rows[i] = [add(x, mul(g, y)) for x, y in zip(row, prow)]
    return tuple(tuple(row[d:]) for row in rows)


def reference_traces(plan: RepairPlan, downloaded) -> list:
    """The full trace vector from the helpers' traces, by scalar elimination.

    downloaded lists the traces in plan.helper_exps order.  The window's
    traces x solve window_block(plan) x = b, b_a = -sum over helpers e of
    omega^(a e) tau_e.  Row a of that block is omega^(a r) times row a
    of the block at r = 0, whose inverse, taken once per tower and A,
    serves every r.  Entry e of the result is tau_e.
    """
    ctx, helpers = plan.ctx, plan.helper_exps
    if not isinstance(downloaded, (list, tuple)) or len(downloaded) != len(helpers):
        raise ValueError("downloaded traces must list the helpers in helper_exps order")
    add, mul, exp = ctx.add, ctx.mul, ctx.exp
    exps = tuple(a for coset in plan.cosets.selected for a in coset.elements)
    # omega^(-a r) b_a
    scaled = []
    for a in exps:
        acc = 0
        for e, v in zip(helpers, downloaded):
            acc = add(acc, mul(exp(a * (e - plan.r)), v))
        scaled.append(ctx.neg(acc))
    x = []
    for row in _block_inverse(ctx, exps):
        acc = 0
        for y, b in zip(row, scaled):
            acc = add(acc, mul(y, b))
        x.append(acc)
    traces = [0] * (ctx.order - 1)
    for e, v in zip(helpers + plan.omitted_exps, [*downloaded, *x]):
        traces[e] = v
    return traces


def verify_factorization(plan: RepairPlan) -> bool:
    """Check T restricted to the plan's window equals V E, entry by entry."""
    ctx = plan.ctx
    prod = mat_mul(ctx, vander_blocks(ctx, plan.cosets), window_block(plan))
    window = [ctx.exp(e) for e in plan.omitted_exps]
    for poly, prow in zip(check_polys(ctx, plan.cosets), prod):
        if [poly.eval(ctx, x) for x in window] != prow:
            return False
    return True


def equivalence_report(fields=VERIFICATION_FIELDS) -> list[dict]:
    """Formula vs brute-force dimension for every k of every field.

    A tower of order above VERIFY_LIMIT raises ValueError before any
    field is built.
    """
    fields = list(fields)
    for p, m, t in fields:
        check_order_limit(p, m * t, VERIFY_LIMIT, "verify")
    rows = []
    for p, m, t in fields:
        ctx = construct_field(p, m, t)
        cc = enumerate_cosets(ctx.q, ctx.t)
        for k in range(1, ctx.order):
            formula = filter_cosets(cc, k).dim
            oracle = brute_dim(ctx, k)
            rows.append({
                "p": p, "m": m, "t": t, "k": k,
                "formula": formula, "oracle": oracle,
                "ok": formula == oracle,
            })
    return rows


def classical_repair(cw: Codeword, helper_positions) -> int:
    """Recover the value at 0 by Lagrange interpolation from k full symbols."""
    ctx = cw.ctx
    helpers = list(helper_positions)
    if len(set(helpers)) != len(helpers):
        raise ValueError("helper positions must be distinct")
    if len(helpers) != cw.k:
        raise ValueError(f"need exactly {cw.k} helper positions, got {len(helpers)}")
    points = []
    for j in helpers:
        if j in cw.erased:
            raise ValueError(f"position {j} is erased")
        points.append(position_point(ctx, j))
    add, mul, sub, div = ctx.add, ctx.mul, ctx.sub, ctx.div
    acc = 0
    for i, j in enumerate(helpers):
        xi = points[i]
        w = 1
        for l, xl in enumerate(points):
            if l == i:
                continue
            w = mul(w, div(sub(0, xl), sub(xi, xl)))
        acc = add(acc, mul(cw.values[j], w))
    return acc
