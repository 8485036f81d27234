from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracerepair import linalg, repair
from tracerepair.cosets import enumerate_cosets, filter_cosets
from tracerepair.field import construct_field
from tracerepair.oracle import (VERIFICATION_FIELDS, rank, rank_over_base,
                                reference_traces, trace_matrix, trace_poly,
                                vander_blocks, verify_factorization, window_block)
from tracerepair.repair import (bandwidth_table, build_plan, combine, gw_finish,
                                gw_max_k, plan_from_dict, plan_to_dict,
                                recover_missing_traces, repair_at,
                                repair_pipeline)
from tracerepair.rs import encode, erase, position_point


def _plan(ctx, k, r):
    return build_plan(ctx, filter_cosets(enumerate_cosets(ctx.q, ctx.t), k), r)


def _direct_traces(ctx, cw):
    """The trace vector of cw at 0: entry e is trace(f(omega^e) / omega^e)."""
    return [ctx.trace(ctx.mul(cw.values[e + 1], ctx.inv(ctx.exp(e))))
            for e in range(ctx.order - 1)]


# -- trace polynomials (the oracle's check vectors) -----------------

def test_gf9_trace_poly_golden(gf9) -> None:
    fc = filter_cosets(enumerate_cosets(3, 2), 3)
    w = gf9.exp
    # coset {2,6}: shifts 0 and 1
    assert trace_poly(gf9, fc, 0, 0).terms == ((2, 1), (6, 1))
    assert trace_poly(gf9, fc, 0, 1).terms == ((2, w(1)), (6, w(3)))
    # coset {4}: single conjugate
    assert trace_poly(gf9, fc, 1, 0).terms == ((4, 1),)


def test_trace_poly_shift_range(gf9) -> None:
    fc = filter_cosets(enumerate_cosets(3, 2), 3)
    for shift in (2, -1, 1.0, True):
        with pytest.raises(ValueError, match="shift"):
            trace_poly(gf9, fc, 0, shift)
    # -1 must not pick the last coset, nor 5 raise IndexError
    for i in (5, 2, -1, 0.0, True):
        with pytest.raises(ValueError, match="coset index"):
            trace_poly(gf9, fc, i, 0)


def test_trace_polys_are_base_field_valued(gf4, gf9, gf8, gf16_over_gf4,
                                           gf16_over_gf2, gf25, gf64_over_gf8) -> None:
    for ctx in (gf4, gf9, gf8, gf16_over_gf4, gf16_over_gf2, gf25, gf64_over_gf8):
        cc = enumerate_cosets(ctx.q, ctx.t)
        for k in {1, 2, gw_max_k(ctx)}:
            fc = filter_cosets(cc, k)
            for i, coset in enumerate(fc.selected):
                for shift in range(coset.size):
                    poly = trace_poly(ctx, fc, i, shift)
                    for x in range(ctx.order):
                        assert ctx.in_base_field(poly.eval(ctx, x))


def test_small_coset_uses_stabilizer_subfield_base(gf16_over_gf2) -> None:
    # coset {5,10} has size 2 inside t=4; its shift base is omega^5,
    # a generator of GF(4), not omega itself
    ctx = gf16_over_gf2
    fc = filter_cosets(enumerate_cosets(2, 4), 2)
    assert fc.selected[1].elements == (5, 10)
    poly = trace_poly(ctx, fc, 1, 1)
    assert poly.terms == ((5, ctx.exp(5)), (10, ctx.exp(10)))
    for x in range(ctx.order):
        assert ctx.in_base_field(poly.eval(ctx, x))


def test_trace_poly_at_zero(gf9) -> None:
    cc = enumerate_cosets(3, 2)
    # k >= 2: all exponents positive, value 0 at 0
    fc = filter_cosets(cc, 3)
    assert trace_poly(gf9, fc, 0, 0).eval(gf9, 0) == 0
    # k = 1 keeps the {0} coset whose polynomial is the constant 1
    fc1 = filter_cosets(cc, 1)
    assert trace_poly(gf9, fc1, 0, 0).eval(gf9, 0) == 1


def test_per_coset_rows_independent(gf9, gf64_over_gf8) -> None:
    # the s_i shifts of one coset give linearly independent rows over B
    for ctx, k in ((gf9, 3), (gf64_over_gf8, 10)):
        fc = filter_cosets(enumerate_cosets(ctx.q, ctx.t), k)
        for i, coset in enumerate(fc.selected):
            rows = []
            for shift in range(coset.size):
                poly = trace_poly(ctx, fc, i, shift)
                rows.append([poly.eval(ctx, ctx.exp(e)) for e in range(ctx.order - 1)])
            assert rank_over_base(ctx, rows) == coset.size


def test_stacked_rows_have_rank_d(gf9) -> None:
    cc = enumerate_cosets(3, 2)
    for k in range(1, 7):
        fc = filter_cosets(cc, k)
        if fc.dim:
            assert rank_over_base(gf9, trace_matrix(gf9, fc)) == fc.dim


def test_rows_annihilate_codewords_exhaustive(gf9) -> None:
    rows = trace_matrix(gf9, filter_cosets(enumerate_cosets(3, 2), 3))
    for coeffs in itertools.product(range(9), repeat=3):
        cw = encode(gf9, coeffs)
        for row in rows:
            acc = 0
            for e in range(8):
                a = gf9.exp(e)
                w = gf9.div(row[e], a)
                acc = gf9.add(acc, gf9.mul(w, cw.values[e + 1]))
            # position 0 contributes nothing: the check vector is 0 there
            assert acc == 0


def test_rows_annihilate_codewords_random(gf64_over_gf8) -> None:
    ctx = gf64_over_gf8
    rows = trace_matrix(ctx, filter_cosets(enumerate_cosets(8, 2), 10))
    rng = random.Random(17)
    for _ in range(30):
        coeffs = tuple(rng.randrange(64) for _ in range(10))
        cw = encode(ctx, coeffs)
        for row in rows:
            acc = 0
            for e in range(63):
                a = ctx.exp(e)
                acc = ctx.add(acc, ctx.mul(ctx.div(row[e], a), cw.values[e + 1]))
            assert acc == 0


# -- plan construction ----------------------------------------------

def test_plan_shape_gf9_k3(gf9) -> None:
    plan = _plan(gf9, 3, 0)
    assert plan.dim == 3
    assert plan.omitted_exps == (0, 1, 2)
    assert plan.helper_exps == (3, 4, 5, 6, 7)


def test_plan_factor_matrices_gf9_k3(gf9) -> None:
    w = gf9.exp
    plan = _plan(gf9, 3, 0)
    assert window_block(plan) == [
        [1, w(2), w(4)],
        [1, w(6), w(12)],
        [1, w(4), w(8)],
    ]


def test_window_wraps_around(gf9) -> None:
    plan = _plan(gf9, 3, 7)
    assert plan.omitted_exps == (7, 0, 1)
    assert verify_factorization(plan)


def test_factorization_identity_sampled(gf9, gf16_over_gf4) -> None:
    for ctx, kmax in ((gf9, 6), (gf16_over_gf4, 12)):
        for k in (1, kmax // 2, kmax):
            for r in (0, ctx.order - 2):
                assert verify_factorization(_plan(ctx, k, r))


def test_factor_matrices_invertible(gf9, gf64_over_gf8) -> None:
    for ctx, ks in ((gf9, range(1, 7)), (gf64_over_gf8, (1, 10, 30))):
        for k in ks:
            plan = _plan(ctx, k, 2)
            if plan.dim:
                assert rank(ctx, vander_blocks(ctx, plan.cosets)) == plan.dim
                assert rank(ctx, window_block(plan)) == plan.dim


def test_combine_matches_reference_every_plan(gf9, gf16_over_gf4, gf64_over_gf8) -> None:
    """combine on random B-valued downloads, which no codeword need explain,
    is minus the sum of omega^e tau_e over the oracle's full trace vector."""
    rng = random.Random(17)
    for ctx in (gf9, gf16_over_gf4, gf64_over_gf8):
        cc = enumerate_cosets(ctx.q, ctx.t)
        base = [v for v in range(ctx.order) if ctx.in_base_field(v)]
        every = range(ctx.order - 1)
        for k in range(1, gw_max_k(ctx) + 1):
            fc = filter_cosets(cc, k)
            for r in every:
                plan = build_plan(ctx, fc, r)
                downloaded = [rng.choice(base) for _ in plan.helper_exps]
                want = gw_finish(ctx, every, reference_traces(plan, downloaded))
                assert combine(plan, downloaded) == want, (ctx, k, r)


def test_plan_and_repair_gf4096_within_bound() -> None:
    # d = 1086: a dense elimination of the window block takes about a minute
    # in pure Python; the plan's share is c d integer adds and one transform
    ctx = construct_field(2, 6, 2)
    k = gw_max_k(ctx) // 2
    rng = random.Random(29)
    t0 = time.perf_counter()
    plan = _plan(ctx, k, rng.randrange(ctx.order - 1))
    # encoding costs one term per nonzero coefficient, so keep a few
    coeffs = [0] * k
    for i in rng.sample(range(k), 4):
        coeffs[i] = rng.randrange(1, ctx.order)
    cw = encode(ctx, coeffs)
    position = rng.randrange(ctx.order)
    got, report = repair_at(ctx, k, plan.r, erase(cw, position), position, plan=plan)
    elapsed = time.perf_counter() - t0
    assert plan.dim == 1086
    assert got == cw.values[position]
    assert report.b_symbols == ctx.order - 1 - plan.dim
    assert elapsed < 10.0, elapsed


def test_degenerate_plan_no_window(gf4) -> None:
    plan = _plan(gf4, 2, 0)
    assert plan.dim == 0
    assert plan.omitted_exps == ()
    assert plan.helper_exps == (0, 1, 2)
    assert verify_factorization(plan)
    truth = _direct_traces(gf4, encode(gf4, (3, 2)))
    assert reference_traces(plan, truth) == truth
    assert recover_missing_traces(plan, truth) == 0
    assert combine(plan, truth) == 3


def test_build_plan_validates(gf9) -> None:
    cc = enumerate_cosets(3, 2)
    with pytest.raises(ValueError):
        build_plan(gf9, filter_cosets(cc, 7), 0)   # beyond the trace-repair bound
    with pytest.raises(ValueError):
        build_plan(gf9, filter_cosets(cc, 3), 8)   # r out of range
    for r in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            build_plan(gf9, filter_cosets(cc, 3), r)
    with pytest.raises(ValueError):
        build_plan(gf9, filter_cosets(enumerate_cosets(2, 2), 1), 0)  # wrong field


@settings(max_examples=60)
@given(st.data())
def test_plan_and_repair_refuse_malformed_or_out_of_range_arguments(gf16_over_gf4,
                                                                    data) -> None:
    """A float, a bool or an out-of-range int for r, k or the position is a
    ValueError from build_plan and repair_at, never a TypeError, IndexError
    or KeyError."""
    ctx = gf16_over_gf4
    n, cc = ctx.order, enumerate_cosets(ctx.q, ctx.t)
    k, r, pos = 6, 2, 4
    cw = erase(encode(ctx, tuple(range(1, k + 1))), pos)
    plan = _plan(ctx, k, r)

    def bad(lo, hi):
        """Anything but an int in [lo, hi]."""
        return data.draw(st.one_of(st.floats(), st.booleans(), st.integers(lo, hi).map(float),
                                   st.integers(max_value=lo - 1), st.integers(min_value=hi + 1)))

    bad_k, bad_r, bad_pos = bad(1, gw_max_k(ctx)), bad(0, n - 2), bad(0, n - 1)
    calls = (
        lambda: build_plan(ctx, filter_cosets(cc, bad_k), r),
        lambda: build_plan(ctx, filter_cosets(cc, k), bad_r),
        lambda: repair_at(ctx, bad_k, r, cw, pos),
        lambda: repair_at(ctx, k, bad_r, cw, pos),
        lambda: repair_at(ctx, k, r, cw, bad_pos),
        lambda: repair_at(ctx, bad_k, r, cw, pos, plan=plan),
        lambda: repair_at(ctx, k, bad_r, cw, pos, plan=plan),
        lambda: repair_at(ctx, k, r, cw, bad_pos, plan=plan),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()
    assert repair_at(ctx, k, r, cw, pos, plan=plan)[0] == encode(ctx, range(1, k + 1)).values[pos]


def test_gw_bound(gf9, gf4, gf64_over_gf8) -> None:
    assert gw_max_k(gf9) == 6
    assert gw_max_k(gf4) == 2
    assert gw_max_k(gf64_over_gf8) == 56


# -- trace recovery -------------------------------------------------

def _window_part(plan, truth) -> int:
    """The window's part of the finish, -sum over the window of omega^e tau_e."""
    return gw_finish(plan.ctx, plan.omitted_exps, [truth[e] for e in plan.omitted_exps])


def test_recover_matches_direct_traces_exhaustive(gf9) -> None:
    """The oracle recovers the true window, and the plan's share is its part of the finish."""
    plan = _plan(gf9, 3, 0)
    for coeffs in itertools.product(range(9), repeat=3):
        cw = encode(gf9, coeffs)
        truth = _direct_traces(gf9, cw)
        downloaded = [truth[e] for e in plan.helper_exps]
        assert reference_traces(plan, downloaded) == truth
        assert recover_missing_traces(plan, downloaded) == _window_part(plan, truth)


def test_recover_matches_direct_traces_random(gf64_over_gf8) -> None:
    ctx = gf64_over_gf8
    rng = random.Random(23)
    for k, r in ((1, 0), (10, 40), (30, 62)):
        plan = _plan(ctx, k, r)
        for _ in range(60):
            cw = encode(ctx, tuple(rng.randrange(64) for _ in range(k)))
            truth = _direct_traces(ctx, cw)
            downloaded = [truth[e] for e in plan.helper_exps]
            assert reference_traces(plan, downloaded) == truth
            assert recover_missing_traces(plan, downloaded) == _window_part(plan, truth)


def test_recover_requires_exact_helper_cover(gf9) -> None:
    plan = _plan(gf9, 3, 0)
    cw = encode(gf9, (1, 2, 3))
    truth = _direct_traces(gf9, cw)
    downloaded = [truth[e] for e in plan.helper_exps]
    short = downloaded[:-1]
    extra = truth  # covers the window too
    # the old contract, {point: trace} over the helpers, is no sequence of traces
    by_point = {gf9.exp(e): truth[e] for e in plan.helper_exps}
    for bad in (short, extra, by_point):
        with pytest.raises(ValueError, match="helper_exps order"):
            combine(plan, bad)


def test_one_factorization_per_plan_one_solve_per_repair(gf64_over_gf8,
                                                          monkeypatch) -> None:
    ctx = gf64_over_gf8
    calls = []
    real_init = linalg.LUFactorization.__init__
    real_solve = linalg.LUFactorization.solve

    def init(self, *args):
        calls.append("factor")
        real_init(self, *args)

    def solve(self, rhs):
        calls.append("solve")
        return real_solve(self, rhs)

    monkeypatch.setattr(linalg.LUFactorization, "__init__", init)
    monkeypatch.setattr(linalg.LUFactorization, "solve", solve)
    plan = _plan(ctx, 10, 5)
    assert calls == ["factor"]
    cw = encode(ctx, tuple(range(10)))
    got, _ = repair_pipeline(ctx, 10, 5, erase(cw, 0), plan=plan)
    assert got == cw.values[0]
    assert calls == ["factor", "solve"]


# GF(64)/GF(2) at k = 1 selects cosets of every size: 1, 2, 3 and 6
@pytest.mark.parametrize("p,m,t,k", [(2, 3, 2, 10), (2, 1, 4, 1), (2, 1, 6, 1),
                                     (7, 1, 3, 147), (3, 1, 2, 2)])
def test_repair_is_one_solve_and_two_sums(p, m, t, k, monkeypatch) -> None:
    """A repair solves once and hands sum_powers two calls of at most n - 1 - d terms."""
    ctx = construct_field(p, m, t)
    plan = _plan(ctx, k, 5)
    calls = []
    real_sum = ctx.sum_powers
    real_solve = linalg.LUFactorization.solve

    def sum_powers(exps):
        calls.append(len(exps))
        return real_sum(exps)

    def solve(self, traces):
        calls.append("solve")
        return real_solve(self, traces)

    # encoding sums powers too, so it runs before the patch
    cw = encode(ctx, tuple(range(1, k + 1)))
    monkeypatch.setattr(ctx, "sum_powers", sum_powers)
    monkeypatch.setattr(linalg.LUFactorization, "solve", solve)
    got, _ = repair_pipeline(ctx, k, 5, erase(cw, 0), plan=plan)
    assert got == cw.values[0]
    assert calls[0] == "solve" and len(calls) == 3
    assert all(0 < size <= ctx.order - 1 - plan.dim for size in calls[1:])


@pytest.mark.parametrize("p,m,t,k", [(2, 1, 4, 2), (2, 1, 4, 4), (2, 3, 2, 10)])
def test_recover_refuses_non_base_download(p, m, t, k, monkeypatch) -> None:
    ctx = construct_field(p, m, t)
    plan = _plan(ctx, k, 3)
    bad = [x for x in range(ctx.order) if not ctx.in_base_field(x)]
    cw = encode(ctx, tuple(range(1, k + 1)))
    truth = _direct_traces(ctx, cw)

    def no_log(x):
        raise AssertionError("log taken before the base-field check")

    monkeypatch.setattr(ctx, "log", no_log)
    for i, e in enumerate(plan.helper_exps):
        downloaded = [truth[h] for h in plan.helper_exps]
        downloaded[i] = bad[i % len(bad)]
        with pytest.raises(ValueError, match=rf"helper w\^{e} "):
            combine(plan, downloaded)


def _recover_digest(p, m, t, k, r, draws=3):
    """SHA-256 of the oracle's window traces on seeded B-valued downloads.

    The downloads are not traces of a codeword, so every window value
    depends on every check and on the whole solve.
    """
    ctx = construct_field(p, m, t)
    plan = _plan(ctx, k, r)
    rng = random.Random(p * 10007 + m * 101 + t * 11 + k)
    s = (ctx.order - 1) // (ctx.q - 1)
    base = [0] + [ctx.exp(j * s) for j in range(ctx.q - 1)]
    out = []
    for _ in range(draws):
        traces = reference_traces(plan, [rng.choice(base) for _ in plan.helper_exps])
        out.append(sorted((ctx.exp(e), traces[e]) for e in plan.omitted_exps))
    sizes = sorted({c.size for c in plan.cosets.selected})
    return sizes, hashlib.sha256(repr(out).encode()).hexdigest()


# Digests captured from the plan's own window solve, before the check sums
# were folded by Frobenius; the oracle's elimination gives the same traces.
@pytest.mark.parametrize("p,m,t,k,r,sizes,digest", [
    (2, 1, 6, 1, 17, [1, 2, 3, 6],
     "ac46ae4745caef68b3945eadb9ee98d34943c50bc3ea3d2d0e6319c2c0c0bd4e"),
    (2, 1, 6, 8, 40, [2, 3, 6],
     "0cab367782aea671169ed0d70dcc04c16df86e2933b685a6f88470970fc2251d"),
    (2, 2, 4, 96, 200, [1, 2, 4],
     "e00ad7e157022ee93f3300cc51effa490ddb1acbccf7ae20b2a0684dddcfd6f5"),
    (3, 1, 5, 81, 230, [1, 5],
     "47e6c9ffe3b996f657472b5e384093ee170ae2b880be4527c23433ba39afecb4"),
    (7, 1, 3, 147, 5, [1, 3],
     "9e1a48556067a858e8515a1a43f240ae038da9d39c756376290b11251ad80be7"),
])
def test_recover_golden_all_coset_sizes(p, m, t, k, r, sizes, digest) -> None:
    assert _recover_digest(p, m, t, k, r) == (sizes, digest)


# -- the exponent-indexed contracts, as properties ------------------

# B = GF(p) and larger, p = 2 and odd, up to the odd-p GF(343)/GF(7)
CONTRACT_TOWERS = ((3, 1, 2), (2, 2, 2), (5, 1, 2), (2, 3, 2), (7, 1, 3))


@cache
def _contract_plan(tower, k, r):
    return _plan(construct_field(*tower), k, r)


@st.composite
def _trace_vectors(draw):
    """A plan with random k and r, and the true trace vector of a codeword at 0."""
    tower = draw(st.sampled_from(CONTRACT_TOWERS))
    ctx = construct_field(*tower)
    k = draw(st.integers(1, gw_max_k(ctx)))
    plan = _contract_plan(tower, k, draw(st.integers(0, ctx.order - 2)))
    coeffs = draw(st.lists(st.integers(0, ctx.order - 1), min_size=k, max_size=k))
    return plan, coeffs, _direct_traces(ctx, encode(ctx, coeffs))


@settings(max_examples=60)
@given(_trace_vectors())
def test_recover_and_finish_give_back_the_truth(case) -> None:
    plan, coeffs, truth = case
    downloaded = [truth[e] for e in plan.helper_exps]
    share = recover_missing_traces(plan, downloaded)
    assert share == _window_part(plan, truth)
    assert plan.ctx.add(share, gw_finish(plan.ctx, plan.helper_exps, downloaded)) == coeffs[0]


@settings(max_examples=60)
@given(_trace_vectors(), st.data())
def test_recover_and_finish_refuse_malformed_vectors(case, data) -> None:
    plan, _, truth = case
    ctx, n = plan.ctx, plan.ctx.order
    outsiders = [x for x in range(n) if not ctx.in_base_field(x)]
    # an integral float passes the range check, and True passes every check
    # but the type check
    bad_value = st.one_of(st.integers(max_value=-1), st.integers(min_value=n),
                          st.sampled_from(outsiders), st.integers(0, n - 1).map(float),
                          st.floats(), st.booleans())
    vec = [truth[e] for e in plan.helper_exps]
    size = len(vec)
    length = data.draw(st.integers(0, size + 3).filter(lambda x: x != size))
    bad = list(vec)
    bad[data.draw(st.integers(0, size - 1))] = data.draw(bad_value)
    # the old contract: the same traces keyed by their points
    by_point = {ctx.exp(e): truth[e] for e in plan.helper_exps}
    for wrong in ((vec * 2 + [0] * 3)[:length], by_point, bad, iter(vec), set(vec), None):
        # ValueError, never IndexError, KeyError or TypeError
        with pytest.raises(ValueError):
            combine(plan, wrong)


@settings(max_examples=60)
@given(st.sampled_from(VERIFICATION_FIELDS), st.data())
def test_combine_gives_back_the_stored_symbol(tower, data) -> None:
    """combine on the true helper traces at any position is the erased symbol."""
    ctx = construct_field(*tower)
    n = ctx.order
    k = data.draw(st.integers(1, gw_max_k(ctx)))
    plan = _contract_plan(tower, k, data.draw(st.integers(0, n - 2)))
    cw = encode(ctx, data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k)))
    position = data.draw(st.integers(0, n - 1))
    x0 = position_point(ctx, position)
    traces = []
    for e in plan.helper_exps:
        x = ctx.add(x0, ctx.exp(e))
        value = cw.values[ctx.log(x) + 1 if x else 0]
        traces.append(ctx.trace(ctx.mul(value, ctx.inv(ctx.exp(e)))))
    assert combine(plan, traces) == cw.values[position]


# -- finishing ------------------------------------------------------

def test_gw_finish_exhaustive_small_k(gf9) -> None:
    for k in (1, 2, 3):
        for coeffs in itertools.product(range(9), repeat=k):
            cw = encode(gf9, coeffs)
            assert gw_finish(gf9, range(8), _direct_traces(gf9, cw)) == cw.values[0]


def test_gw_finish_random_large_k(gf9, gf64_over_gf8) -> None:
    rng = random.Random(31)
    for ctx, ks in ((gf9, (4, 5, 6)), (gf64_over_gf8, (56,))):
        for k in ks:
            for _ in range(300 if ctx is gf9 else 100):
                cw = encode(ctx, tuple(rng.randrange(ctx.order) for _ in range(k)))
                truth = _direct_traces(ctx, cw)
                assert gw_finish(ctx, range(ctx.order - 1), truth) == cw.values[0]


@pytest.mark.parametrize("bad", [9, -1, 10 ** 6])
def test_out_of_range_traces_refused(gf9, bad) -> None:
    plan = _plan(gf9, 3, 0)
    truth = _direct_traces(gf9, encode(gf9, (5, 2, 7)))
    for i, e in enumerate(plan.helper_exps):
        downloaded = [truth[h] for h in plan.helper_exps]
        downloaded[i] = bad
        with pytest.raises(ValueError, match=rf"helper w\^{e} "):
            combine(plan, downloaded)


@pytest.mark.parametrize("p,m,t", [(3, 1, 2), (2, 2, 2)])
def test_gw_finish_refuses_traces_outside_base(p, m, t) -> None:
    ctx = construct_field(p, m, t)
    plan = _plan(ctx, 3, 0)
    truth = _direct_traces(ctx, encode(ctx, (5, 2, 7)))
    downloaded = [truth[e] for e in plan.helper_exps]
    assert combine(plan, downloaded) == 5
    outsider = next(x for x in range(ctx.order) if not ctx.in_base_field(x))
    for i in range(len(downloaded)):
        traces = list(downloaded)
        traces[i] = outsider
        with pytest.raises(ValueError, match="base field"):
            combine(plan, traces)


def test_gw_finish_validates(gf9) -> None:
    plan = _plan(gf9, 2, 0)
    truth = _direct_traces(gf9, encode(gf9, (1, 2)))
    downloaded = [truth[e] for e in plan.helper_exps]
    assert combine(plan, downloaded) == 1
    # too short, too long (the whole trace vector), and the old contract
    # {point: trace}, whose keys read as traces would give a wrong value
    by_point = {gf9.exp(e): truth[e] for e in plan.helper_exps}
    for bad in (downloaded[:-1], downloaded + [0], truth, by_point):
        with pytest.raises(ValueError, match="helper_exps order"):
            combine(plan, bad)
    # with t = 1 every key lies in B, so only the dict's type gives it away
    gf5 = construct_field(5, 1, 1)
    plan = _plan(gf5, 2, 0)
    truth = _direct_traces(gf5, encode(gf5, (1, 2)))
    with pytest.raises(ValueError, match="helper_exps order"):
        combine(plan, {gf5.exp(e): truth[e] for e in plan.helper_exps})


# -- full pipeline --------------------------------------------------

def test_pipeline_gf9_golden(gf9) -> None:
    cw = encode(gf9, (5, 2, 7))
    got, report = repair_pipeline(gf9, 3, 0, erase(cw, 0))
    assert got == cw.values[0]
    assert report.helpers_contacted == 5
    assert report.b_symbols == 5
    assert report.bits == 10


def test_pipeline_k1_two_helpers(gf9) -> None:
    cw = encode(gf9, (8,))
    got, report = repair_pipeline(gf9, 1, 3, erase(cw, 0))
    assert got == 8
    assert report.b_symbols == 2


def test_pipeline_degenerate_plain_gw(gf4) -> None:
    cw = encode(gf4, (3, 2))
    got, report = repair_pipeline(gf4, 2, 0, erase(cw, 0))
    assert got == 3
    assert report.b_symbols == 3  # no omissions: every helper ships one bit


def test_pipeline_window_invariance(gf9) -> None:
    cw = erase(encode(gf9, (4, 0, 2)), 0)
    results = {repair_pipeline(gf9, 3, r, cw)[0] for r in range(8)}
    assert results == {4}


def test_pipeline_with_prebuilt_plan(gf9) -> None:
    plan = _plan(gf9, 2, 5)
    for coeffs in itertools.product(range(9), repeat=2):
        cw = encode(gf9, coeffs)
        got, _ = repair_pipeline(gf9, 2, 5, erase(cw, 0), plan=plan)
        assert got == coeffs[0]


def test_pipeline_validates(gf9, gf4) -> None:
    cw = encode(gf9, (1, 2, 3))
    with pytest.raises(ValueError, match="exactly one position"):
        repair_pipeline(gf9, 3, 0, cw)  # nothing erased
    with pytest.raises(ValueError, match="exactly one position"):
        repair_pipeline(gf9, 3, 0, erase(erase(cw, 0), 4))
    with pytest.raises(ValueError):
        repair_pipeline(gf9, 2, 0, erase(cw, 0))  # wrong k
    with pytest.raises(ValueError):
        repair_pipeline(gf9, 3, 1, erase(cw, 0), plan=_plan(gf9, 3, 0))
    other = encode(gf4, (1, 2))
    with pytest.raises(ValueError):
        repair_pipeline(gf9, 2, 0, erase(other, 0))


def test_pipeline_refuses_non_int_k_r_and_position(gf9) -> None:
    cw = encode(gf9, (1, 2, 3))
    lost = erase(cw, 0)
    plan = _plan(gf9, 3, 0)
    for prebuilt in (None, plan):
        for k, r in ((3, 0.0), (3, False), (3.0, 0), (True, 0)):
            with pytest.raises(ValueError):
                repair_pipeline(gf9, k, r, lost, plan=prebuilt)
            with pytest.raises(ValueError):
                repair_at(gf9, k, r, lost, 0, prebuilt)
    with pytest.raises(ValueError, match="not '3'"):
        repair_pipeline(gf9, "3", 0, lost, plan=plan)
    # {1} == {True} == {1.0}, so only the type tells these from position 1
    for position in (True, 1.0):
        with pytest.raises(ValueError, match="must be erased"):
            repair_at(gf9, 3, 0, erase(cw, 1), position, plan)
    assert repair_at(gf9, 3, 0, erase(cw, 1), 1, plan)[0] == cw.values[1]


def test_pipeline_refuses_plan_over_another_field(gf16_over_gf2, gf16_over_gf4,
                                                   gf9) -> None:
    for k in (1, 2, 3, 4):
        cw = erase(encode(gf16_over_gf4, tuple(range(1, k + 1))), 0)
        with pytest.raises(ValueError, match="plan built over a different field"):
            repair_pipeline(gf16_over_gf4, k, 3, cw, plan=_plan(gf16_over_gf2, k, 3))
    cw = erase(encode(gf9, (1, 2, 3)), 0)
    with pytest.raises(ValueError, match="plan built over a different field"):
        repair_pipeline(gf9, 3, 3, cw, plan=_plan(gf16_over_gf4, 3, 3))


def test_pipeline_repairs_any_single_erasure(gf9, gf64_over_gf8) -> None:
    rng = random.Random(43)
    for ctx, k in ((gf9, 3), (gf64_over_gf8, 10)):
        plan = _plan(ctx, k, 4)
        cw = encode(ctx, tuple(rng.randrange(ctx.order) for _ in range(k)))
        for pos in range(1, ctx.order):
            got, _ = repair_pipeline(ctx, k, 4, erase(cw, pos), plan=plan)
            assert got == cw.values[pos]


def test_repair_at_builds_no_codeword(gf9, monkeypatch) -> None:
    def no_codeword(*args, **kwargs):
        raise AssertionError("repair built a codeword")

    monkeypatch.setattr(repair, "Codeword", no_codeword)
    cw = encode(gf9, (2, 7, 1))
    for pos in (1, 5, 8):
        assert repair_at(gf9, 3, 1, erase(cw, pos), pos)[0] == cw.values[pos]


def test_repair_at_shifted_position(gf9) -> None:
    rng = random.Random(41)
    for pos in (1, 4, 8):
        coeffs = tuple(rng.randrange(9) for _ in range(3))
        cw = encode(gf9, coeffs)
        got, report = repair_at(gf9, 3, 2, erase(cw, pos), pos)
        assert got == cw.values[pos]
        assert report.b_symbols == 5


def test_repair_at_position_zero_delegates(gf9) -> None:
    cw = encode(gf9, (6, 1, 0))
    got, _ = repair_at(gf9, 3, 0, erase(cw, 0), 0)
    assert got == 6


# -- bandwidth accounting -------------------------------------------

def test_bandwidth_table_gf9(gf9) -> None:
    rows = bandwidth_table(gf9, 6)
    assert [(r.k, r.classical, r.gw, r.ours) for r in rows] == [
        (1, 2, 8, 2),
        (2, 4, 8, 3),
        (3, 6, 8, 5),
        (4, 8, 8, 7),
        (5, 10, 8, 7),
        (6, 12, 8, 8),
    ]
    # the coset collection stands in for the tower
    assert bandwidth_table(enumerate_cosets(3, 2), 6) == rows


def test_bandwidth_table_validates(gf9) -> None:
    for tower in (gf9, enumerate_cosets(3, 2)):
        with pytest.raises(ValueError):
            bandwidth_table(tower, 0)
        with pytest.raises(ValueError):
            bandwidth_table(tower, 7)
        for k_max in (2.0, 2.5, True):
            with pytest.raises(ValueError, match="k_max must be"):
                bandwidth_table(tower, k_max)


# -- serialization --------------------------------------------------

def test_plan_document_roundtrip(gf9, monkeypatch) -> None:
    plan = _plan(gf9, 3, 5)
    doc = plan_to_dict(plan)
    assert doc["p"] == 3 and doc["m"] == 1 and doc["t"] == 2
    assert doc["d"] == 3
    assert doc["omitted"] == [5, 6, 7]
    assert doc["cosets"] == [[2, 6], [4]]
    # survives JSON text round trip, deriving the window and helpers once
    layouts = []
    layout = repair._layout
    monkeypatch.setattr(repair, "_layout", lambda *a: layouts.append(a) or layout(*a))
    back = plan_from_dict(json.loads(json.dumps(doc)))
    assert plan_to_dict(back) == doc
    assert len(layouts) == 1


def test_plan_document_tamper_detected(gf9) -> None:
    doc = plan_to_dict(_plan(gf9, 3, 5))
    without_k = {key: v for key, v in doc.items() if key != "k"}
    cases = [
        ({**doc, "d": 4}, "'d'"),
        ({}, "'p'"),
        (without_k, "'k'"),
        ({**doc, "k": "3"}, "'k'"),
        ({**doc, "r": True}, "'r'"),
        ([], "JSON object"),
    ]
    for bad, field in cases:
        with pytest.raises(ValueError, match=field):
            plan_from_dict(bad)


def _no_build(*args):
    raise AssertionError("window block built for a malformed document")


def test_tampered_document_refused_before_the_build(monkeypatch) -> None:
    """GF(4096)/GF(2) at k = 1 has d = 4094: a stored d = 0 costs no build."""
    monkeypatch.setattr(linalg.LUFactorization, "__init__", _no_build)
    doc = {"p": 2, "m": 1, "t": 12, "k": 1, "r": 0, "d": 0,
           "omitted": [], "helpers": list(range(4095)), "cosets": []}
    with pytest.raises(ValueError, match="'d'"):
        plan_from_dict(doc)


# documents come from the first towers; the others have other orders, so
# no document of a first tower is consistent over one of them
DOC_TOWERS = ((3, 1, 2), (2, 2, 2), (2, 3, 2))
FOREIGN_TOWERS = ((2, 1, 2), (2, 1, 3), (3, 1, 3), (5, 1, 2), (2, 5, 2), (2, 6, 2))
INT_KEYS = ("p", "m", "t", "k", "r", "d")
LIST_KEYS = ("omitted", "helpers", "cosets")


@st.composite
def _malformed_documents(draw):
    tower = draw(st.sampled_from(DOC_TOWERS))
    ctx = construct_field(*tower)
    n, kmax = ctx.order, gw_max_k(ctx)
    doc = plan_to_dict(_contract_plan(tower, draw(st.integers(1, kmax)),
                                      draw(st.integers(0, n - 2))))
    key = draw(st.sampled_from(INT_KEYS + LIST_KEYS))
    value = doc[key]
    kind = draw(st.sampled_from(("missing", "type", "range", "tower")))
    if kind == "missing":
        del doc[key]
    elif kind == "tower":
        doc.update(zip("pmt", draw(st.sampled_from(FOREIGN_TOWERS))))
    elif kind == "type":
        wrong = st.one_of(st.booleans(), st.floats(), st.none(), st.text(max_size=2),
                          st.just(str(value)), st.just(tuple(value) if key in LIST_KEYS
                                                       else float(value)))
        if key in LIST_KEYS and value:
            # one entry of the list, or of a coset in it, of the wrong type
            i = draw(st.integers(0, len(value) - 1))
            entry = value[i]
            value[i] = draw(st.one_of(wrong, st.just([float(x) for x in entry]))
                            if key == "cosets" else st.one_of(wrong, st.just(float(entry))))
            doc[key] = draw(st.one_of(st.just(value), wrong))
        else:
            doc[key] = draw(wrong)
    else:
        foreign = {
            "p": st.sampled_from((-3, 0, 1, 4, 6, 9)),
            "m": st.integers(-3, 0),
            "t": st.integers(-3, 0),
            "k": st.one_of(st.integers(max_value=0), st.integers(kmax + 1, n + 5)),
            "r": st.one_of(st.integers(max_value=-1), st.integers(n - 1, 2 * n)),
            "d": st.integers(-5, n + 5).filter(lambda d: d != value),
        }
        if key in foreign:
            doc[key] = draw(foreign[key])
        else:
            # a foreign entry: one added, one dropped, or one out of range
            entries = list(value)
            how = draw(st.sampled_from(("add", "drop", "replace") if entries else ("add",)))
            if how == "add":
                entries.insert(draw(st.integers(0, len(entries))), draw(st.integers(-n, 2 * n)))
            else:
                i = draw(st.integers(0, len(entries) - 1))
                if how == "drop":
                    del entries[i]
                else:
                    entries[i] = draw(st.sampled_from((-1, n - 1, n, [n], [])))
            doc[key] = entries
    return doc


@settings(max_examples=150)
@given(_malformed_documents())
def test_malformed_plan_documents_are_refused(doc) -> None:
    """A missing key, a wrong type or bool, or an out-of-range or foreign
    value is a ValueError before any window block is built, never a
    KeyError, TypeError or IndexError."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg.LUFactorization, "__init__", _no_build)
        with pytest.raises(ValueError):
            plan_from_dict(doc)
