"""Full-length Reed-Solomon words with a single erasure.

The evaluation set is all of F in a fixed order: position 0 holds the
value at the field element 0, position j >= 1 holds the value at
omega^(j-1).  Positions 1 .. N, N = |F| - 1, are therefore the length-N
cyclic transform of the coefficients, f(omega^j) = sum over i of
c_i omega^(i j).  Encoding computes it by mixed-radix decimation in time
over the prime factors of N: a length-L transform with radix p, the
smallest prime factor of L, splits the coefficients by residue mod p,
transforms the p strided subsequences of length L/p, and combines them
with one FieldTower.sum_powers call of at most p terms per output.  A
transform of prime length, or of a subsequence with no more nonzero
entries than its radix, is evaluated directly, one sum_powers call over
the nonzero entries per point.  The cost is about N times the sum of
the prime factors of N, against N k for evaluating point by point.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import FieldTower, _prime_factors


def position_point(ctx: FieldTower, j: int):
    """Field element evaluated at position j."""
    if type(j) is not int or not 0 <= j < ctx.order:
        raise ValueError(f"position {j!r} out of range")
    return 0 if j == 0 else ctx.exp(j - 1)


@dataclass(frozen=True, eq=False)
class Codeword:
    ctx: FieldTower
    k: int
    values: tuple[int, ...]
    erased: frozenset[int]

    def __post_init__(self):
        vals, n = self.values, self.n
        if type(self.k) is not int or not 1 <= self.k <= n:
            raise ValueError(f"message length must be an integer in [1, {n}], got {self.k!r}")
        if len(vals) != n or not all(type(v) is int and 0 <= v < n for v in vals):
            raise ValueError(f"a codeword holds {n} field elements in [0, {n})")
        if not all(type(j) is int and 0 <= j < n for j in self.erased):
            raise ValueError(f"erased positions must lie in [0, {n})")

    @property
    def n(self) -> int:
        return self.ctx.order

    def value_at(self, j: int) -> int:
        if type(j) is not int or not 0 <= j < len(self.values):
            raise ValueError(f"position {j!r} out of range")
        if j in self.erased:
            raise ValueError(f"position {j} is erased")
        return self.values[j]


def _transform(ctx: FieldTower, logs: list[int], step: int) -> list[int]:
    """sum over u of a_u omega^(step u j) for j < L = len(logs), L step = N.

    logs[u] is the discrete log of a_u, or -1 where a_u = 0.
    """
    mod = ctx.order - 1
    size = len(logs)
    nonzero = [(step * u, lu) for u, lu in enumerate(logs) if lu >= 0]
    radix = min(_prime_factors(size), default=size)
    if radix == size or len(nonzero) <= radix:
        return [ctx.sum_powers([su * j % mod + lu for su, lu in nonzero])
                for j in range(size)]
    # a_(radix v + s) for s < radix, transformed with omega^(step radix)
    subs = [[ctx.log(v) if v else -1 for v in _transform(ctx, logs[s::radix], step * radix)]
            for s in range(radix)]
    sub_size = size // radix
    out = []
    for j in range(size):
        m = j % sub_size
        out.append(ctx.sum_powers([step * s * j % mod + sub[m]
                                   for s, sub in enumerate(subs) if sub[m] >= 0]))
    return out


def encode(ctx: FieldTower, coeffs) -> Codeword:
    """Evaluate the polynomial with the given coefficients on all of F.

    coeffs lists the k coefficients in ascending degree order.  The
    values at the nonzero points are one cyclic transform (see the module
    docstring); with k = n the coefficient of x^N joins that of x^0 there,
    since omega^N = 1.
    """
    coeffs = tuple(coeffs)
    k = len(coeffs)
    if not 1 <= k <= ctx.order:
        raise ValueError(f"message length must be in [1, {ctx.order}]")
    if any(type(c) is not int or not 0 <= c < ctx.order for c in coeffs):
        raise ValueError(f"coefficients must be integers in [0, {ctx.order})")
    mod = ctx.order - 1
    cyclic = list(coeffs[:mod]) + [0] * (mod - k)
    if k > mod:
        cyclic[0] = ctx.add(coeffs[0], coeffs[mod])
    values = _transform(ctx, [ctx.log(c) if c else -1 for c in cyclic], 1)
    return Codeword(ctx, k, (coeffs[0], *values), frozenset())


def erase(cw: Codeword, j: int) -> Codeword:
    if type(j) is not int:
        raise ValueError(f"position must be an integer, got {j!r}")
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
