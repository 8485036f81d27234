from __future__ import annotations

import dataclasses
import types

import pytest

from tracerepair import oracle
from tracerepair.cosets import enumerate_cosets, filter_cosets
from tracerepair.oracle import (VERIFICATION_FIELDS, VERIFY_LIMIT, brute_dim,
                                brute_repair_check, equivalence_report,
                                rank_over_base)
from tracerepair.repair import gw_max_k


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
    for mat in ([[9]], [[1, 9]], [[-1]]):
        with pytest.raises(ValueError):
            rank_over_base(gf9, mat)


def test_rank_over_base_rejects_ragged_rows(gf9) -> None:
    for mat in ([[1, 0], [1]], [[1], [1, 0]], [[1, 2], []]):
        with pytest.raises(ValueError, match="same length"):
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


@pytest.mark.parametrize("trials", [0, -5])
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
