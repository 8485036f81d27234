"""Property tests: the log-domain kernels and the LU against scalar arithmetic."""

from __future__ import annotations

from functools import reduce

from hypothesis import given
from hypothesis import strategies as st

from tracerepair import linalg
from tracerepair.field import construct_field

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
    # zero is drawn often, so the zero-operand branches are covered
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
def _rows(draw):
    ctx = _field(draw(st.sampled_from(KERNEL_TOWERS)))
    size = draw(st.integers(0, 8))
    xs = draw(st.lists(_element(ctx), min_size=size, max_size=size))
    ys = draw(st.lists(_element(ctx), min_size=size, max_size=size))
    c = draw(st.integers(0, ctx.order - 2))
    # y = w^c x makes ys - w^c xs cancel at the flagged entries
    flags = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    ys = [ctx.mul(ctx.exp(c), x) if f else y for x, y, f in zip(xs, ys, flags)]
    return ctx, xs, ys, c


@given(_rows())
def test_axpy_matches_scalar(case) -> None:
    ctx, xs, ys, c = case
    want = [ctx.sub(y, ctx.mul(ctx.exp(c), x)) for x, y in zip(xs, ys)]
    assert ctx.axpy(ys, c, ctx.neg_logs(xs)) == want


@given(_rows())
def test_dot_matches_scalar(case) -> None:
    ctx, xs, ys, _ = case
    want = ctx.neg(reduce(ctx.add, map(ctx.mul, xs, ys), 0))
    assert ctx.dot(ctx.neg_logs(xs), ys) == want
    # x + (-x) along a row
    assert ctx.dot(ctx.neg_logs(xs + xs), ys + [ctx.neg(y) for y in ys]) == 0


@st.composite
def _invertible(draw):
    """P L U with L unit lower and U upper with a nonzero diagonal."""
    ctx = _field(draw(st.sampled_from(LU_TOWERS)))
    n = draw(st.integers(1, 6))
    nonzero = st.integers(1, ctx.order - 1)
    low = [[draw(_element(ctx)) if j < i else int(i == j) for j in range(n)]
           for i in range(n)]
    up = [[draw(nonzero) if j == i else draw(_element(ctx)) if j > i else 0
           for j in range(n)] for i in range(n)]
    perm = draw(st.permutations(range(n)))
    lu = linalg.mat_mul(ctx, low, up)
    mat = [lu[i] for i in perm]
    rhs = draw(st.lists(_element(ctx), min_size=n, max_size=n))
    return ctx, mat, rhs


@given(_invertible())
def test_lu_round_trip(case) -> None:
    ctx, mat, rhs = case
    assert linalg.rank(ctx, mat) == len(mat)
    x = linalg.LUFactorization(ctx, mat).solve(rhs)
    assert linalg.mat_mul(ctx, mat, [[v] for v in x]) == [[v] for v in rhs]
