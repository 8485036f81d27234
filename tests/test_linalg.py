from __future__ import annotations

import random

import pytest

from tracerepair import linalg
from tracerepair.linalg import SingularMatrixError
from tracerepair.oracle import rank


def test_identity(gf9) -> None:
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rank(gf9, ident) == 4


def test_singular_raises(gf9) -> None:
    # exponents 1 and 9 name the same node w^1 in GF(9)
    for exps in ([2, 2], [1, 0, 9]):
        with pytest.raises(SingularMatrixError):
            linalg.LUFactorization(gf9, exps, 0)


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
