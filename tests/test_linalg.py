from __future__ import annotations

import random

import pytest

from tracerepair import linalg
from tracerepair.field import construct_field
from tracerepair.linalg import SingularMatrixError
from tracerepair.oracle import rank


def test_identity(gf9) -> None:
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rank(gf9, ident) == 4


def test_singular_raises(gf9, gf16_over_gf2) -> None:
    # exponents 1 and 9 name the same node w^1 in GF(9)
    for cosets in ([(2, 6), (2, 6)], [(1, 3), (0,), (9, 3)]):
        with pytest.raises(SingularMatrixError):
            linalg.LUFactorization(gf9, cosets, 0)
    # not a coset, or a coset listed out of Frobenius order
    for ctx, cosets in ((gf9, [(1,)]), (gf9, [(1, 2)]), (gf16_over_gf2, [(1, 4, 2, 8)])):
        with pytest.raises(ValueError, match="q-cyclotomic"):
            linalg.LUFactorization(ctx, cosets, 0)
    # exponent 1, or 9 = 1 mod 8, would make w a node; so would 1 at t = 1
    for ctx, cosets in ((gf9, [(2, 6), (1, 3)]), (gf9, [(9, 3)]),
                        (construct_field(5, 1, 1), [(1,)])):
        with pytest.raises(ValueError, match="exponent 1"):
            linalg.LUFactorization(ctx, cosets, 0)


def test_rank_of_dependent_rows(gf9) -> None:
    row = [gf9.exp(e) for e in range(5)]
    scaled = [gf9.mul(gf9.exp(3), x) for x in row]
    assert rank(gf9, [row, scaled]) == 1
    assert rank(gf9, [[0, 0], [0, 0]]) == 0


def test_rank_plus_nullity_bound(gf9) -> None:
    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(9) for _ in range(cols)] for _ in range(rows)]
        r = rank(gf9, a)
        assert 0 <= r <= min(rows, cols)


def test_vandermonde_invertible(gf9) -> None:
    # distinct nonzero points give a nonsingular Vandermonde
    pts = [gf9.exp(e) for e in (0, 2, 3, 6)]
    v = [[gf9.pow(x, i) for i in range(4)] for x in pts]
    assert rank(gf9, v) == 4
