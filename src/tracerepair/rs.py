"""Full-length Reed-Solomon words with a single erasure.

The evaluation set is all of F in a fixed order: position 0 holds the
value at the field element 0, position j >= 1 holds the value at
omega^(j-1).  Encoding sums powers of omega: with c_i = omega^(l_i),
f(omega^j) = sum over nonzero c_i of omega^(i j + l_i), one
FieldTower.sum_powers call per point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldTower


def position_point(ctx: FieldTower, j: int):
    """Field element evaluated at position j."""
    if not 0 <= j < ctx.order:
        raise ValueError(f"position {j} out of range")
    return 0 if j == 0 else ctx.exp(j - 1)


@dataclass(frozen=True, eq=False)
class Codeword:
    ctx: FieldTower
    k: int
    values: tuple[int, ...]
    erased: frozenset[int]

    def __post_init__(self):
        vals, n = self.values, self.n
        if len(vals) != n or not 0 <= min(vals) <= max(vals) < n:
            raise ValueError(f"a codeword holds {n} field elements in [0, {n})")

    @property
    def n(self) -> int:
        return self.ctx.order

    def value_at(self, j: int) -> int:
        if not 0 <= j < len(self.values):
            raise ValueError(f"position {j} out of range")
        if j in self.erased:
            raise ValueError(f"position {j} is erased")
        return self.values[j]


def encode(ctx: FieldTower, coeffs) -> Codeword:
    """Evaluate the polynomial with the given coefficients on all of F.

    coeffs lists the k coefficients in ascending degree order.
    """
    coeffs = tuple(coeffs)
    k = len(coeffs)
    if not 1 <= k <= ctx.order:
        raise ValueError(f"message length must be in [1, {ctx.order}]")
    if any(not 0 <= c < ctx.order for c in coeffs):
        raise ValueError("coefficient out of range")
    mod = ctx.order - 1
    terms = [(i, ctx.log(c)) for i, c in enumerate(coeffs) if c]
    values = [coeffs[0]] + [ctx.sum_powers([i * j % mod + lc for i, lc in terms])
                            for j in range(mod)]
    return Codeword(ctx, k, tuple(values), frozenset())


def erase(cw: Codeword, j: int) -> Codeword:
    if j in cw.erased:
        raise ValueError(f"position {j} already erased")
    if not 0 <= j < cw.n:
        raise ValueError(f"position {j} out of range")
    return Codeword(cw.ctx, cw.k, cw.values, cw.erased | {j})


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
