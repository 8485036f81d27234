from __future__ import annotations

import itertools
import json
import random

import pytest

from tracerepair import linalg
from tracerepair.cosets import enumerate_cosets, filter_cosets
from tracerepair.oracle import (rank_over_base, trace_matrix, trace_poly,
                                vander_blocks, verify_factorization)
from tracerepair.repair import (bandwidth_table, build_plan, gw_finish,
                                gw_max_k, plan_from_dict, plan_to_dict,
                                recover_missing_traces, repair_at,
                                repair_pipeline)
from tracerepair.rs import encode, erase, erase_zero


def _plan(ctx, k, r):
    return build_plan(ctx, filter_cosets(enumerate_cosets(ctx.q, ctx.t), k), r)


def _direct_traces(ctx, cw):
    out = {}
    for e in range(ctx.order - 1):
        a = ctx.exp(e)
        out[a] = ctx.trace(ctx.mul(cw.values[e + 1], ctx.inv(a)))
    return out


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
    with pytest.raises(ValueError):
        trace_poly(gf9, fc, 0, 2)
    with pytest.raises(IndexError):
        trace_poly(gf9, fc, 5, 0)


def test_trace_polys_are_base_field_valued(gf4, gf9, gf8, gf16_over_gf4,
                                           gf16_over_gf2, gf25, gf64_over_gf8) -> None:
    for ctx in (gf4, gf9, gf8, gf16_over_gf4, gf16_over_gf2, gf25, gf64_over_gf8):
        cc = enumerate_cosets(ctx.q, ctx.t)
        for k in {1, 2, gw_max_k(ctx)}:
            fc = filter_cosets(cc, k)
            for i, coset in enumerate(fc.selected):
                for shift in range(coset.size):
                    poly = trace_poly(ctx, fc, i, shift)
                    for x in ctx.elements():
                        assert ctx.in_base_field(poly.eval(ctx, x))


def test_small_coset_uses_stabilizer_subfield_base(gf16_over_gf2) -> None:
    # coset {5,10} has size 2 inside t=4; its shift base is omega^5,
    # a generator of GF(4), not omega itself
    ctx = gf16_over_gf2
    fc = filter_cosets(enumerate_cosets(2, 4), 2)
    assert fc.selected[1].elements == (5, 10)
    poly = trace_poly(ctx, fc, 1, 1)
    assert poly.terms == ((5, ctx.exp(5)), (10, ctx.exp(10)))
    for x in ctx.elements():
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
    assert plan.omitted == (1, gf9.exp(1), gf9.exp(2))
    assert len(plan.helper_exps) == 5


def test_plan_factor_matrices_gf9_k3(gf9) -> None:
    w = gf9.exp
    plan = _plan(gf9, 3, 0)
    assert plan.window_powers == (
        (1, w(2), w(4)),
        (1, w(6), w(12)),
        (1, w(4), w(8)),
    )


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
                assert linalg.rank(ctx, vander_blocks(ctx, plan.cosets)) == plan.dim
                assert linalg.rank(ctx, [list(r) for r in plan.window_powers]) == plan.dim


def test_degenerate_plan_no_window(gf4) -> None:
    plan = _plan(gf4, 2, 0)
    assert plan.dim == 0
    assert plan.omitted == ()
    assert len(plan.helper_exps) == 3
    assert verify_factorization(plan)


def test_build_plan_validates(gf9) -> None:
    cc = enumerate_cosets(3, 2)
    with pytest.raises(ValueError):
        build_plan(gf9, filter_cosets(cc, 7), 0)   # beyond the trace-repair bound
    with pytest.raises(ValueError):
        build_plan(gf9, filter_cosets(cc, 3), 8)   # r out of range
    with pytest.raises(ValueError):
        build_plan(gf9, filter_cosets(enumerate_cosets(2, 2), 1), 0)  # wrong field


def test_gw_bound(gf9, gf4, gf64_over_gf8) -> None:
    assert gw_max_k(gf9) == 6
    assert gw_max_k(gf4) == 2
    assert gw_max_k(gf64_over_gf8) == 56


# -- trace recovery -------------------------------------------------

def test_recover_matches_direct_traces_exhaustive(gf9) -> None:
    plan = _plan(gf9, 3, 0)
    for coeffs in itertools.product(range(9), repeat=3):
        cw = encode(gf9, coeffs)
        truth = _direct_traces(gf9, cw)
        downloaded = {a: truth[a] for a in plan.helpers}
        got = recover_missing_traces(plan, downloaded)
        assert got == {a: truth[a] for a in plan.omitted}


def test_recover_matches_direct_traces_random(gf64_over_gf8) -> None:
    ctx = gf64_over_gf8
    rng = random.Random(23)
    for k, r in ((1, 0), (10, 40), (30, 62)):
        plan = _plan(ctx, k, r)
        for _ in range(60):
            cw = encode(ctx, tuple(rng.randrange(64) for _ in range(k)))
            truth = _direct_traces(ctx, cw)
            got = recover_missing_traces(plan, {a: truth[a] for a in plan.helpers})
            assert got == {a: truth[a] for a in plan.omitted}


def test_recover_requires_exact_helper_cover(gf9) -> None:
    plan = _plan(gf9, 3, 0)
    cw = encode(gf9, (1, 2, 3))
    truth = _direct_traces(gf9, cw)
    short = {a: truth[a] for a in plan.helpers[:-1]}
    with pytest.raises(ValueError):
        recover_missing_traces(plan, short)
    extra = dict(truth)  # covers the window too
    with pytest.raises(ValueError):
        recover_missing_traces(plan, extra)


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
    got, _ = repair_pipeline(ctx, 10, 5, erase_zero(cw), plan=plan)
    assert got == cw.values[0]
    assert calls == ["factor", "solve"]


# -- finishing ------------------------------------------------------

def test_gw_finish_exhaustive_small_k(gf9) -> None:
    for k in (1, 2, 3):
        for coeffs in itertools.product(range(9), repeat=k):
            cw = encode(gf9, coeffs)
            assert gw_finish(gf9, _direct_traces(gf9, cw), k) == cw.values[0]


def test_gw_finish_random_large_k(gf9, gf64_over_gf8) -> None:
    rng = random.Random(31)
    for ctx, ks in ((gf9, (4, 5, 6)), (gf64_over_gf8, (56,))):
        for k in ks:
            for _ in range(300 if ctx is gf9 else 100):
                cw = encode(ctx, tuple(rng.randrange(ctx.order) for _ in range(k)))
                assert gw_finish(ctx, _direct_traces(ctx, cw), k) == cw.values[0]


def test_gw_finish_validates(gf9) -> None:
    cw = encode(gf9, (1, 2))
    truth = _direct_traces(gf9, cw)
    with pytest.raises(ValueError):
        gw_finish(gf9, truth, 7)  # beyond the bound
    partial = dict(truth)
    partial.popitem()
    with pytest.raises(ValueError):
        gw_finish(gf9, partial, 2)


# -- full pipeline --------------------------------------------------

def test_pipeline_gf9_golden(gf9) -> None:
    cw = encode(gf9, (5, 2, 7))
    got, report = repair_pipeline(gf9, 3, 0, erase_zero(cw))
    assert got == cw.values[0]
    assert report.helpers_contacted == 5
    assert report.b_symbols == 5
    assert report.bits == 10


def test_pipeline_k1_two_helpers(gf9) -> None:
    cw = encode(gf9, (8,))
    got, report = repair_pipeline(gf9, 1, 3, erase_zero(cw))
    assert got == 8
    assert report.b_symbols == 2


def test_pipeline_degenerate_plain_gw(gf4) -> None:
    cw = encode(gf4, (3, 2))
    got, report = repair_pipeline(gf4, 2, 0, erase_zero(cw))
    assert got == 3
    assert report.b_symbols == 3  # no omissions: every helper ships one bit


def test_pipeline_window_invariance(gf9) -> None:
    cw = erase_zero(encode(gf9, (4, 0, 2)))
    results = {repair_pipeline(gf9, 3, r, cw)[0] for r in range(8)}
    assert results == {4}


def test_pipeline_with_prebuilt_plan(gf9) -> None:
    plan = _plan(gf9, 2, 5)
    for coeffs in itertools.product(range(9), repeat=2):
        cw = encode(gf9, coeffs)
        got, _ = repair_pipeline(gf9, 2, 5, erase_zero(cw), plan=plan)
        assert got == coeffs[0]


def test_pipeline_validates(gf9, gf4) -> None:
    cw = encode(gf9, (1, 2, 3))
    with pytest.raises(ValueError):
        repair_pipeline(gf9, 3, 0, cw)  # nothing erased
    with pytest.raises(ValueError):
        repair_pipeline(gf9, 2, 0, erase_zero(cw))  # wrong k
    with pytest.raises(ValueError):
        repair_pipeline(gf9, 3, 1, erase_zero(cw), plan=_plan(gf9, 3, 0))
    other = encode(gf4, (1, 2))
    with pytest.raises(ValueError):
        repair_pipeline(gf9, 2, 0, erase_zero(other))


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
    got, _ = repair_at(gf9, 3, 0, erase_zero(cw), 0)
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


def test_bandwidth_table_validates(gf9) -> None:
    with pytest.raises(ValueError):
        bandwidth_table(gf9, 0)
    with pytest.raises(ValueError):
        bandwidth_table(gf9, 7)


# -- serialization --------------------------------------------------

def test_plan_document_roundtrip(gf9) -> None:
    plan = _plan(gf9, 3, 5)
    doc = plan_to_dict(plan)
    assert doc["p"] == 3 and doc["m"] == 1 and doc["t"] == 2
    assert doc["d"] == 3
    assert doc["omitted"] == [5, 6, 7]
    assert doc["cosets"] == [[2, 6], [4]]
    # survives JSON text round trip
    back = plan_from_dict(json.loads(json.dumps(doc)))
    assert plan_to_dict(back) == doc


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
