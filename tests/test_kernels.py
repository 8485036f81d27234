"""Property tests: the field's private _sum_products kernel, as a sum of powers
and as a sum of products, and the window's share against scalar arithmetic."""

from __future__ import annotations

from functools import reduce
from types import SimpleNamespace

from hypothesis import given
from hypothesis import strategies as st

from tracerepair import linalg
from tracerepair.cosets import enumerate_cosets
from tracerepair.field import construct_field
from tracerepair.oracle import reference_traces

# p = 2 and odd-p towers, B = GF(p) and B larger than GF(p).
KERNEL_TOWERS = ((2, 1, 3), (2, 2, 2), (2, 1, 6), (2, 5, 2),
                 (3, 1, 2), (3, 2, 2), (3, 1, 5), (5, 1, 2), (7, 1, 3))
# coset sizes 1 and 2; 1, 2 and 4; 1, 2, 3 and 6; 1 and 3
LU_TOWERS = ((2, 2, 2), (5, 1, 2), (2, 1, 4), (2, 1, 6), (7, 1, 3))

_fields = {}


def _field(tower):
    if tower not in _fields:
        _fields[tower] = construct_field(*tower)
    return _fields[tower]


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
    assert ctx._sum_products(exps, [0] * len(exps)) == reduce(ctx.add, map(ctx.exp, exps), 0)


@st.composite
def _log_pairs(draw):
    """Pairs of logs below N or 2 N for 0: 2 N on either side and on both,
    and for odd p pairs whose products cancel."""
    ctx = _field(draw(st.sampled_from(KERNEL_TOWERS)))
    mod, zero = ctx.order - 1, 2 * (ctx.order - 1)
    log = st.one_of(st.just(zero), st.integers(0, mod - 1))
    pairs = draw(st.lists(st.tuples(log, log), max_size=12))
    pairs += draw(st.lists(st.sampled_from([(zero, 0), (0, zero), (zero, zero)]), max_size=3))
    if ctx.p != 2:
        # w^x w^y + w^x w^(y + N/2) = 0
        for x, y in draw(st.lists(st.tuples(st.integers(0, mod - 1), st.integers(0, mod - 1)),
                                  max_size=3)):
            pairs += [(x, y), (x, (y + mod // 2) % mod)]
    pairs = draw(st.permutations(pairs))
    return ctx, [x for x, _ in pairs], [y for _, y in pairs]


@given(_log_pairs())
def test_sum_products_matches_scalar_add_and_mul(case) -> None:
    ctx, xs, ys = case
    zero = 2 * (ctx.order - 1)

    def value(lg):
        return 0 if lg == zero else ctx.exp(lg)

    want = reduce(ctx.add, [ctx.mul(value(x), value(y)) for x, y in zip(xs, ys)], 0)
    assert ctx._sum_products(xs, ys) == want


@st.composite
def _window(draw):
    """A stand-in plan over any union of a tower's cosets without exponent 1,
    with its window and helpers, and B-valued helper traces, zeros included."""
    ctx = _field(draw(st.sampled_from(LU_TOWERS)))
    cc = enumerate_cosets(ctx.q, ctx.t)
    cosets = draw(st.lists(st.sampled_from([c for c in cc.cosets if 1 not in c.elements]),
                           max_size=5, unique=True))
    mod, d = ctx.order - 1, sum(c.size for c in cosets)
    r = draw(st.integers(0, mod - 1))
    # the fields reference_traces reads; no filter selects such a union for one k
    plan = SimpleNamespace(ctx=ctx, r=r, cosets=SimpleNamespace(selected=tuple(cosets)),
                           omitted_exps=tuple((r + c) % mod for c in range(d)),
                           helper_exps=tuple(e for e in range(mod) if (e - r) % mod >= d))
    base = [v for v in range(ctx.order) if ctx.in_base_field(v)]
    size = len(plan.helper_exps)
    return plan, draw(st.lists(st.one_of(st.just(0), st.sampled_from(base)),
                               min_size=size, max_size=size))


@given(_window())
def test_lu_round_trip(trace_logs, case) -> None:
    """The share is the window's part of the finish, -sum of omega^e tau_e
    over the window traces the oracle's elimination recovers."""
    plan, downloaded = case
    ctx = plan.ctx
    traces = reference_traces(plan, downloaded)
    want = ctx.neg(reduce(ctx.add, (ctx.mul(ctx.exp(e), traces[e])
                                    for e in plan.omitted_exps), 0))
    share = linalg.LUFactorization(ctx, plan.cosets.selected, plan.r, plan.helper_exps)
    assert share.solve(trace_logs(ctx, downloaded)) == want
