from __future__ import annotations

import random

import pytest

from tracerepair import linalg
from tracerepair.linalg import SingularMatrixError


def _random_matrix(ctx, rng, n):
    return [[rng.randrange(ctx.order) for _ in range(n)] for _ in range(n)]


def test_identity(gf9) -> None:
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert linalg.rank(gf9, ident) == 4
    assert linalg.LUFactorization(gf9, ident).solve([5, 0, 7, 1]) == [5, 0, 7, 1]


def test_solve_roundtrip(gf9, gf64_over_gf8) -> None:
    rng = random.Random(42)
    for ctx in (gf9, gf64_over_gf8):
        for n in (1, 2, 3, 5):
            # rejection-sample invertible matrices
            while True:
                a = _random_matrix(ctx, rng, n)
                if linalg.rank(ctx, a) == n:
                    break
            x = [rng.randrange(ctx.order) for _ in range(n)]
            b = [row[0] for row in linalg.mat_mul(ctx, a, [[v] for v in x])]
            assert linalg.LUFactorization(ctx, a).solve(b) == x


def test_singular_raises(gf9) -> None:
    a = [[1, 1], [1, 1]]
    with pytest.raises(SingularMatrixError):
        linalg.LUFactorization(gf9, a)


def test_rank_of_dependent_rows(gf9) -> None:
    row = [gf9.exp(e) for e in range(5)]
    scaled = [gf9.mul(gf9.exp(3), x) for x in row]
    assert linalg.rank(gf9, [row, scaled]) == 1
    assert linalg.rank(gf9, [[0, 0], [0, 0]]) == 0


def test_rank_plus_nullity_bound(gf9) -> None:
    rng = random.Random(3)
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = [[rng.randrange(9) for _ in range(cols)] for _ in range(rows)]
        r = linalg.rank(gf9, a)
        assert 0 <= r <= min(rows, cols)


def test_vandermonde_invertible(gf9) -> None:
    # distinct nonzero points give a nonsingular Vandermonde
    pts = [gf9.exp(e) for e in (0, 2, 3, 6)]
    v = [[gf9.pow(x, i) for i in range(4)] for x in pts]
    assert linalg.rank(gf9, v) == 4
