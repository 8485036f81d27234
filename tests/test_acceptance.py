"""Acceptance gate: one test per shipped guarantee.

Each test prints a single line

    acceptance <n> <name>: PASS|FAIL <detail>

before asserting, so a bare ``pytest tests/test_acceptance.py -s`` reads
as a checklist.  Runtime bounds are part of the guarantee and are
asserted alongside the values.
"""

from __future__ import annotations

import itertools
import random
import time

from tracerepair.cosets import enumerate_cosets, filter_cosets, repair_space_dim
from tracerepair.field import construct_field
from tracerepair.oracle import (VERIFICATION_FIELDS, brute_dim,
                                brute_repair_check, rank_over_base,
                                trace_matrix, trace_poly, verify_factorization)
from tracerepair.repair import (bandwidth_table, build_plan, gw_max_k,
                                repair_pipeline)
from tracerepair.rs import encode, erase_zero


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"acceptance {num} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _best_of(fn, repeats: int = 3) -> tuple[float, object]:
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, result


def test_criterion_1_coset_enumeration_golden() -> None:
    elapsed, cc = _best_of(lambda: enumerate_cosets(3, 2))
    got = [set(c.elements) for c in cc.cosets]
    ok = got == [{0}, {1, 3}, {2, 6}, {4}, {5, 7}] and elapsed < 1e-3
    _report(1, "coset-enumeration-golden", ok,
            f"cosets={got} elapsed={elapsed * 1e3:.3f}ms")


def test_criterion_2_dimension_golden() -> None:
    cc = enumerate_cosets(3, 2)
    elapsed, fc = _best_of(lambda: filter_cosets(cc, 3))
    selected = [set(c.elements) for c in fc.selected]
    ok = fc.dim == 3 and selected == [{2, 6}, {4}] and elapsed < 1e-3
    _report(2, "dimension-golden", ok,
            f"d={fc.dim} selected={selected} elapsed={elapsed * 1e3:.3f}ms")


def test_criterion_3_pipeline_bandwidth_golden(gf9) -> None:
    cw = encode(gf9, (5, 2, 7))
    gone = erase_zero(cw)
    elapsed, got = _best_of(lambda: repair_pipeline(gf9, 3, 0, gone))
    value, rep = got
    row = bandwidth_table(gf9, 3)[2]
    bits = gf9.bits_per_symbol
    ok = (value == cw.values[0]
          and rep.b_symbols == 5 and rep.bits == 10
          and row.classical * bits == 12 and row.gw * bits == 16
          and elapsed < 10e-3)
    _report(3, "pipeline-bandwidth-golden", ok,
            f"ours={rep.bits}b classical={row.classical * bits}b "
            f"gw={row.gw * bits}b elapsed={elapsed * 1e3:.2f}ms")


def test_criterion_4_dimension_oracle_all_fields() -> None:
    t0 = time.perf_counter()
    bad = []
    cells = 0
    for p, m, t in VERIFICATION_FIELDS:
        ctx = construct_field(p, m, t)
        cc = enumerate_cosets(ctx.q, ctx.t)
        for k in range(1, ctx.order):
            cells += 1
            if repair_space_dim(cc, k) != brute_dim(ctx, k):
                bad.append((p, m, t, k))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 30
    _report(4, "dimension-oracle-all-fields", ok,
            f"cells={cells} mismatches={bad} elapsed={elapsed:.2f}s")


def test_criterion_5_factorization_all_windows(gf9, gf16_over_gf4) -> None:
    t0 = time.perf_counter()
    bad = []
    checked = 0
    for ctx, kmax in ((gf9, 6), (gf16_over_gf4, 12)):
        cc = enumerate_cosets(ctx.q, ctx.t)
        for k in range(1, kmax + 1):
            fc = filter_cosets(cc, k)
            for r in range(ctx.order - 1):
                checked += 1
                if not verify_factorization(build_plan(ctx, fc, r)):
                    bad.append((ctx.q, ctx.t, k, r))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 10
    _report(5, "window-factorization-all-r", ok,
            f"plans={checked} mismatches={bad} elapsed={elapsed:.2f}s")


def test_criterion_6_end_to_end_repair(gf4, gf9, gf64_over_gf8) -> None:
    t0 = time.perf_counter()
    failures = []
    repairs = 0

    for k in (1, 2):  # GF(4), every message, every window
        for r in range(3):
            cc = enumerate_cosets(2, 2)
            plan = build_plan(gf4, filter_cosets(cc, k), r)
            for coeffs in itertools.product(range(4), repeat=k):
                cw = encode(gf4, coeffs)
                got, _ = repair_pipeline(gf4, k, r, erase_zero(cw), plan=plan)
                repairs += 1
                if got != cw.values[0]:
                    failures.append(("gf4", k, r, coeffs))

    cc9 = enumerate_cosets(3, 2)
    for k in (1, 2, 3, 4):  # GF(9), exhaustive
        plan = build_plan(gf9, filter_cosets(cc9, k), 0)
        for coeffs in itertools.product(range(9), repeat=k):
            cw = encode(gf9, coeffs)
            got, _ = repair_pipeline(gf9, k, 0, erase_zero(cw), plan=plan)
            repairs += 1
            if got != cw.values[0]:
                failures.append(("gf9", k, coeffs))
    for k in (5, 6):  # GF(9), sampled
        repairs += 10_000
        if not brute_repair_check(gf9, k, 0, trials=10_000, seed=90 + k):
            failures.append(("gf9-random", k))

    for k in (1, 10, 30, 56):  # GF(64)/GF(8), sampled
        repairs += 1000
        if not brute_repair_check(gf64_over_gf8, k, k % 63, trials=1000, seed=k):
            failures.append(("gf64", k))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60
    _report(6, "end-to-end-repair", ok,
            f"repairs={repairs} failures={failures} elapsed={elapsed:.1f}s")


def test_criterion_7_bandwidth_dominance(gf64_over_gf8) -> None:
    t0 = time.perf_counter()
    cc = enumerate_cosets(8, 2)
    rows = bandwidth_table(gf64_over_gf8, 56)
    bad = []
    for row in rows:
        d = repair_space_dim(cc, row.k)
        if row.ours > row.classical or row.ours > row.gw:
            bad.append(row)
        if d >= 1 and not row.ours < row.gw:
            bad.append(row)
    elapsed = time.perf_counter() - t0
    ok = len(rows) == 56 and not bad and elapsed < 1
    _report(7, "bandwidth-dominance", ok,
            f"rows={len(rows)} violations={bad} elapsed={elapsed * 1e3:.1f}ms")


def test_criterion_8_download_bound_sweep() -> None:
    t0 = time.perf_counter()
    bad = []
    for p, m, t in VERIFICATION_FIELDS:
        q = p ** m
        n = q ** t
        cc = enumerate_cosets(q, t)
        for k in range(1, n - n // q + 1):
            if n - 1 - repair_space_dim(cc, k) > k * t:
                bad.append((p, m, t, k))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 1
    _report(8, "download-bound-sweep", ok,
            f"violations={bad} elapsed={elapsed * 1e3:.1f}ms")


def test_criterion_9_property_suites(gf9, gf64_over_gf8) -> None:
    t0 = time.perf_counter()
    problems = []

    # (a) base-field valuedness, exhaustive over every point
    for p, m, t in VERIFICATION_FIELDS:
        ctx = construct_field(p, m, t)
        cc = enumerate_cosets(ctx.q, ctx.t)
        for k in sorted({1, 2, gw_max_k(ctx)}):
            fc = filter_cosets(cc, k)
            for i, coset in enumerate(fc.selected):
                for shift in range(coset.size):
                    poly = trace_poly(ctx, fc, i, shift)
                    if not all(ctx.in_base_field(poly.eval(ctx, x))
                               for x in ctx.elements()):
                        problems.append(("valuedness", p, m, t, k, i, shift))

    # (b) over a thousand check-vector/codeword inner products, all zero
    ctx = gf64_over_gf8
    rows = trace_matrix(ctx, filter_cosets(enumerate_cosets(8, 2), 10))
    rng = random.Random(99)
    products = 0
    for _ in range(25):
        cw = encode(ctx, tuple(rng.randrange(64) for _ in range(10)))
        for row in rows:
            acc = 0
            for e in range(63):
                a = ctx.exp(e)
                acc = ctx.add(acc, ctx.mul(ctx.div(row[e], a), cw.values[e + 1]))
            products += 1
            if acc:
                problems.append(("dual", products))
    if products < 1000:
        problems.append(("dual-count", products))

    # (c) stacked rows have rank d over B
    for ctx2, ks in ((gf9, range(1, 7)), (gf64_over_gf8, (1, 10, 30))):
        cc2 = enumerate_cosets(ctx2.q, ctx2.t)
        for k in ks:
            fc2 = filter_cosets(cc2, k)
            if fc2.dim and rank_over_base(ctx2, trace_matrix(ctx2, fc2)) != fc2.dim:
                problems.append(("rank", ctx2.q, k))

    # (d) recovered value does not depend on the window position
    rng = random.Random(7)
    for k in (1, 3, 6):
        coeffs = tuple(rng.randrange(9) for _ in range(k))
        cw = encode(gf9, coeffs)
        gone = erase_zero(cw)
        got = {repair_pipeline(gf9, k, r, gone)[0] for r in range(8)}
        if got != {cw.values[0]}:
            problems.append(("window", k, got))

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 30
    _report(9, "property-suites", ok,
            f"products={products} problems={problems} elapsed={elapsed:.1f}s")
