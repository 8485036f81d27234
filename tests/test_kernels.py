"""Property tests: the sum_powers kernel and the LU against scalar arithmetic."""

from __future__ import annotations

from functools import reduce

from hypothesis import given
from hypothesis import strategies as st

from tracerepair import linalg
from tracerepair.field import construct_field
from tracerepair.oracle import mat_mul

# p = 2 and odd-p towers, B = GF(p) and B larger than GF(p).
KERNEL_TOWERS = ((2, 1, 3), (2, 2, 2), (2, 1, 6), (2, 5, 2),
                 (3, 1, 2), (3, 2, 2), (3, 1, 5), (5, 1, 2), (7, 1, 3))
LU_TOWERS = ((2, 2, 2), (5, 1, 2), (7, 1, 3))

_fields = {}


def _field(tower):
    if tower not in _fields:
        _fields[tower] = construct_field(*tower)
    return _fields[tower]


def _element(ctx):
    # zero is drawn often, so the branches for zero (log -1) are covered
    return st.one_of(st.just(0), st.integers(0, ctx.order - 1))


@st.composite
def _exponents(draw):
    ctx = _field(draw(st.sampled_from(KERNEL_TOWERS)))
    mod = ctx.order - 1
    exps = draw(st.lists(st.integers(0, 2 * mod - 1), max_size=12))
    # w^e + w^(e + log(-1)) = 0: sums that cancel mid-chain
    half = 0 if ctx.p == 2 else mod // 2
    for e in draw(st.lists(st.integers(0, mod - 1), max_size=3)):
        i = draw(st.integers(0, len(exps)))
        exps[i:i] = [e, e + half]
    return ctx, exps


@given(_exponents())
def test_sum_powers_matches_scalar_add(case) -> None:
    ctx, exps = case
    assert ctx.sum_powers(exps) == reduce(ctx.add, map(ctx.exp, exps), 0)


@st.composite
def _window(draw):
    """Distinct exponents, a window start r, a right-hand side and a solution."""
    ctx = _field(draw(st.sampled_from(LU_TOWERS)))
    mod = ctx.order - 1
    exps = draw(st.lists(st.integers(0, mod - 1), min_size=1, max_size=6, unique=True))
    r = draw(st.integers(0, mod - 1))
    rhs = draw(st.lists(_element(ctx), min_size=len(exps), max_size=len(exps)))
    sol = draw(st.lists(_element(ctx), min_size=len(exps), max_size=len(exps)))
    return ctx, exps, r, rhs, sol


@given(_window())
def test_lu_round_trip(case) -> None:
    ctx, exps, r, rhs, sol = case
    mat = [[ctx.pow(ctx.exp(a), r + c) for c in range(len(exps))] for a in exps]
    lu = linalg.LUFactorization(ctx, exps, r)
    x = lu.solve(rhs)
    assert mat_mul(ctx, mat, [[v] for v in x]) == [[v] for v in rhs]
    # a solution with zeros drives the zero-log path of both substitutions
    b = [row[0] for row in mat_mul(ctx, mat, [[v] for v in sol])]
    assert lu.solve(b) == sol
