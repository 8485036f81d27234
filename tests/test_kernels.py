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
    return ctx, xs, ys


def _operands(ctx, xs):
    return [ctx.log(ctx.neg(x)) if x else -1 for x in xs]


@given(_rows())
def test_dot_matches_scalar(case) -> None:
    ctx, xs, ys = case
    want = ctx.neg(reduce(ctx.add, map(ctx.mul, xs, ys), 0))
    assert ctx.dot(_operands(ctx, xs), ys) == want
    # x + (-x) along a row
    assert ctx.dot(_operands(ctx, xs + xs), ys + [ctx.neg(y) for y in ys]) == 0


@st.composite
def _window(draw):
    """Distinct exponents, a window start r and a right-hand side."""
    ctx = _field(draw(st.sampled_from(LU_TOWERS)))
    mod = ctx.order - 1
    exps = draw(st.lists(st.integers(0, mod - 1), min_size=1, max_size=6, unique=True))
    r = draw(st.integers(0, mod - 1))
    rhs = draw(st.lists(_element(ctx), min_size=len(exps), max_size=len(exps)))
    return ctx, exps, r, rhs


@given(_window())
def test_lu_round_trip(case) -> None:
    ctx, exps, r, rhs = case
    mat = [[ctx.pow(ctx.exp(a), r + c) for c in range(len(exps))] for a in exps]
    x = linalg.LUFactorization(ctx, exps, r).solve(rhs)
    assert linalg.mat_mul(ctx, mat, [[v] for v in x]) == [[v] for v in rhs]
