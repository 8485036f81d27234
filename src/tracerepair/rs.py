"""Full-length Reed-Solomon words with a single erasure.

The evaluation set is all of F in a fixed order: position 0 holds the
value at the field element 0, position j >= 1 holds the value at
omega^(j-1).  Positions 1 .. N, N = |F| - 1, are therefore the length-N
cyclic transform of the coefficients, f(omega^j) = sum over i of
c_i omega^(i j), which FieldTower.transform computes in about N times
the sum of the prime factors of N terms, against N k for evaluating
point by point.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .field import FieldTower


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
    values = ctx.transform([ctx.log(c) if c else -1 for c in cyclic])
    return Codeword(ctx, k, (coeffs[0], *values), frozenset())


def erase(cw: Codeword, j: int) -> Codeword:
    """cw with position j erased too; its values were checked when cw was built."""
    if type(j) is not int:
        raise ValueError(f"position must be an integer, got {j!r}")
    if j in cw.erased:
        raise ValueError(f"position {j} already erased")
    if not 0 <= j < cw.n:
        raise ValueError(f"position {j} out of range")
    out = copy.copy(cw)
    object.__setattr__(out, "erased", cw.erased | {j})
    return out
