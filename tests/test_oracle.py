from __future__ import annotations

import random
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracerepair import oracle
from tracerepair.cosets import enumerate_cosets, filter_cosets
from tracerepair.field import construct_field
from tracerepair.oracle import (VERIFICATION_FIELDS, VERIFY_LIMIT, brute_dim,
                                brute_repair_check, conjugate_trace,
                                equivalence_report, rank, rank_over_base)
from tracerepair.repair import build_plan, combine, gw_max_k
from tracerepair.rs import Codeword, encode


@pytest.mark.parametrize("tower", VERIFICATION_FIELDS + ((7, 1, 3), (3, 1, 5),
                                                       (2, 2, 4), (2, 5, 2)))
def test_trace_table_and_base_test_match_the_conjugates(tower) -> None:
    """The field's trace-log table and its log test for B, against x^q.

    Entry i is log Tr(w^i), or the sentinel 2 (order - 1) where the
    trace is 0.
    """
    ctx = construct_field(*tower)
    table = ctx._trace_log
    assert len(table) == ctx.order - 1
    for i, lt in enumerate(table):
        tr = conjugate_trace(ctx, ctx.exp(i))
        assert lt == (ctx.log(tr) if tr else 2 * (ctx.order - 1)) and ctx.in_base_field(tr)
    for x in range(ctx.order):
        assert ctx.trace(x) == conjugate_trace(ctx, x)
        assert ctx.in_base_field(x) == (ctx.pow(x, ctx.q) == x)


def test_brute_dim_gf9_known_values(gf9) -> None:
    assert brute_dim(gf9, 3) == 3
    assert [brute_dim(gf9, k) for k in range(1, 9)] == [6, 5, 3, 1, 1, 0, 0, 0]


def test_brute_dim_gf4(gf4) -> None:
    assert brute_dim(gf4, 1) == 1
    assert brute_dim(gf4, 2) == 0


def test_brute_dim_validates(gf9) -> None:
    with pytest.raises(ValueError):
        brute_dim(gf9, 0)
    with pytest.raises(ValueError):
        brute_dim(gf9, 9)
    for k in (1.5, 3.0, True):  # not even True, equal to 1, is a message length
        with pytest.raises(ValueError, match="k must be"):
            brute_dim(gf9, k)
    big = types.SimpleNamespace(order=1 << 13)
    with pytest.raises(ValueError):
        brute_dim(big, 1)


def test_formula_matches_oracle_small_fields(gf4, gf9, gf8, gf16_over_gf2) -> None:
    for ctx in (gf4, gf9, gf8, gf16_over_gf2):
        cc = enumerate_cosets(ctx.q, ctx.t)
        for k in range(1, ctx.order):
            assert filter_cosets(cc, k).dim == brute_dim(ctx, k), (ctx, k)


def test_identity(gf9) -> None:
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert rank(gf9, ident) == 4


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


def test_rank_over_base(gf9) -> None:
    ident = [[1, 0], [0, 1]]
    assert rank_over_base(gf9, ident) == 2
    assert rank_over_base(gf9, [[0, 0]]) == 0
    # entries are GF(3) constants; [[1,2],[2,1]] is singular there (det = -3)
    assert rank_over_base(gf9, [[1, 2], [2, 1]]) == 1
    assert rank_over_base(gf9, [[1, 2], [0, 1]]) == 2


def test_rank_over_base_rejects_outsiders(gf9) -> None:
    with pytest.raises(ValueError):
        rank_over_base(gf9, [[gf9.exp(1), 0]])
    for mat in ([[9]], [[1, 9]], [[-1]], [[1.0]], [[0, True]]):
        with pytest.raises(ValueError):
            rank_over_base(gf9, mat)


def test_rank_over_base_rejects_ragged_rows(gf9) -> None:
    for mat in ([[1, 0], [1]], [[1], [1, 0]], [[1, 2], []]):
        with pytest.raises(ValueError, match="same length"):
            rank_over_base(gf9, mat)
    # rows that are not sequences, or no matrix at all
    for mat in ([1, 2], [[1, 0], 2], 3):
        with pytest.raises(ValueError, match="list of rows"):
            rank_over_base(gf9, mat)


def test_repair_round_trip_every_field(gf4, gf9, gf8, gf16_over_gf4,
                                       gf16_over_gf2, gf25, gf64_over_gf8) -> None:
    # light pass over the whole matrix; the acceptance suite goes deeper
    for ctx in (gf4, gf9, gf8, gf16_over_gf4, gf16_over_gf2, gf25, gf64_over_gf8):
        kmax = gw_max_k(ctx)
        for k in sorted({1, 2, kmax}):
            trials = None if ctx.order ** k <= 1000 else 40
            assert brute_repair_check(ctx, k, r=k % (ctx.order - 1), trials=trials,
                                      seed=13), (ctx, k)


def test_brute_repair_check_exhaustive_mode(gf4) -> None:
    # 16 messages, swept exhaustively by default
    assert brute_repair_check(gf4, 2, 0)


@pytest.mark.parametrize("trials", [0, -5, 1.5, True])
def test_brute_repair_check_refuses_no_trials(gf9, trials) -> None:
    with pytest.raises(ValueError, match="trials"):
        brute_repair_check(gf9, 3, 0, trials=trials)


def test_equivalence_report_clean() -> None:
    rows = equivalence_report(fields=((2, 1, 2), (3, 1, 2)))
    assert len(rows) == 3 + 8
    assert all(r["ok"] for r in rows)


def test_equivalence_report_fault_injection(monkeypatch) -> None:
    real = oracle.filter_cosets

    def off_by_one(cc, k):
        # a FilteredCosets derives its dim, so the wrong one needs a stand-in
        return types.SimpleNamespace(dim=real(cc, k).dim + 1)

    monkeypatch.setattr(oracle, "filter_cosets", off_by_one)
    rows = equivalence_report(fields=((2, 1, 2),))
    assert all(not r["ok"] for r in rows)


def test_equivalence_report_refuses_large_tower_first(monkeypatch) -> None:
    assert all(p ** (m * t) <= VERIFY_LIMIT for p, m, t in VERIFICATION_FIELDS)

    def no_build(*args):
        raise AssertionError("field built before the size check")

    monkeypatch.setattr(oracle, "construct_field", no_build)
    # the over-limit tower comes last: nothing runs before the refusal
    for big in ((5, 1, 3), (2, 7, 1), (2, 1, 10 ** 9)):
        with pytest.raises(ValueError, match="verify limit"):
            equivalence_report(fields=((2, 1, 2), big))


@settings(max_examples=60)
@given(st.one_of(st.floats(), st.booleans(), st.integers(-2, 10).map(float)))
def test_malformed_scalars_are_refused(gf9, bad) -> None:
    """A float or bool where the library wants an integer is a ValueError,
    never a TypeError or IndexError, and is never read as the integer it
    equals."""
    fc = filter_cosets(enumerate_cosets(gf9.q, gf9.t), 3)
    cw = encode(gf9, (5, 2, 7))
    calls = (
        lambda: Codeword(gf9, bad, cw.values, frozenset()),
        lambda: Codeword(gf9, 3, (bad, *cw.values[1:]), frozenset()),
        lambda: cw.value_at(bad),
        lambda: combine(build_plan(gf9, fc, 0), [bad, 0, 0, 0, 0]),
        lambda: brute_dim(gf9, bad),
        lambda: brute_repair_check(gf9, 3, 0, trials=bad),
        lambda: rank_over_base(gf9, [[1, bad]]),
        lambda: oracle.trace_poly(gf9, fc, bad, 0),
        lambda: oracle.trace_poly(gf9, fc, 0, bad),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()
