from __future__ import annotations

import dataclasses
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracerepair import oracle
from tracerepair.cosets import enumerate_cosets, filter_cosets
from tracerepair.oracle import (VERIFICATION_FIELDS, VERIFY_LIMIT, brute_dim,
                                brute_repair_check, equivalence_report,
                                rank_over_base)
from tracerepair.repair import gw_finish, gw_max_k
from tracerepair.rs import Codeword, encode


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
        fc = real(cc, k)
        return dataclasses.replace(fc, dim=fc.dim + 1)

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
        lambda: gw_finish(gf9, [0] * 8, bad),
        lambda: brute_dim(gf9, bad),
        lambda: brute_repair_check(gf9, 3, 0, trials=bad),
        lambda: rank_over_base(gf9, [[1, bad]]),
        lambda: oracle.trace_poly(gf9, fc, bad, 0),
        lambda: oracle.trace_poly(gf9, fc, 0, bad),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()
