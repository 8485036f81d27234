from __future__ import annotations

import ast
import random
import sys
from collections import Counter
from pathlib import Path

import pytest

import tracerepair
from tracerepair import linalg
from tracerepair.field import FieldTower, construct_field
from tracerepair.oracle import VERIFICATION_FIELDS


def _base_field(ctx) -> list[int]:
    """B as 0 and the powers of w^s, s = (n - 1)/(q - 1), in that order."""
    s = (ctx.order - 1) // (ctx.q - 1)
    return [0] + [ctx.exp(j * s) for j in range(ctx.q - 1)]


def test_basic_parameters(gf4, gf9, gf64_over_gf8) -> None:
    assert (gf4.q, gf4.order) == (2, 4)
    assert (gf9.q, gf9.order) == (3, 9)
    assert (gf64_over_gf8.q, gf64_over_gf8.order) == (8, 64)


def test_construction_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        construct_field(4, 1, 1)  # not prime
    with pytest.raises(ValueError):
        construct_field(2, 0, 2)
    with pytest.raises(ValueError):
        construct_field(2, 1, 21)  # 2^21 over the table limit
    # the size check runs first: trial division of this p takes seconds
    with pytest.raises(ValueError, match="table limit"):
        construct_field(100000000000031, 1, 1)
    with pytest.raises(ValueError, match="table limit"):
        construct_field(3, 1, 10 ** 9)  # refused without computing 3^(10^9)


def test_construction_deterministic() -> None:
    a = construct_field(3, 1, 2)
    b = construct_field(3, 1, 2)
    assert a.modulus == b.modulus
    assert a.primitive_element == b.primitive_element
    assert a._antilog == b._antilog


def test_log_antilog_roundtrip(gf9, gf64_over_gf8) -> None:
    for ctx in (gf9, gf64_over_gf8):
        seen = set()
        for e in range(ctx.order - 1):
            x = ctx.exp(e)
            assert ctx.log(x) == e
            seen.add(x)
        assert seen == set(range(1, ctx.order))


def test_primitive_element_order(gf9, gf16_over_gf4, gf25) -> None:
    for ctx in (gf9, gf16_over_gf4, gf25):
        n1 = ctx.order - 1
        assert ctx.pow(ctx.primitive_element, n1) == 1
        for d in range(1, n1):
            if n1 % d == 0 and d < n1:
                assert ctx.pow(ctx.primitive_element, d) != 1 or d == n1


def test_mul_via_exponents(gf9) -> None:
    # omega^3 * omega^6 wraps to omega^1
    assert gf9.mul(gf9.exp(3), gf9.exp(6)) == gf9.exp(1)
    assert gf9.mul(0, gf9.exp(5)) == 0


def test_additive_structure(gf9, gf25) -> None:
    for ctx in (gf9, gf25):
        for x in range(ctx.order):
            assert ctx.add(x, ctx.neg(x)) == 0
            assert ctx.add(x, 0) == x
            assert ctx.sub(x, x) == 0
        # commutativity + associativity spot checks on the full square
        for x in range(ctx.order):
            for y in range(ctx.order):
                assert ctx.add(x, y) == ctx.add(y, x)


def _digit_add(x: int, y: int, p: int) -> int:
    z, mult = 0, 1
    while x or y:
        z += (x % p + y % p) % p * mult
        x, y, mult = x // p, y // p, mult * p
    return z


def _digit_neg(x: int, p: int) -> int:
    z, mult = 0, 1
    while x:
        z += (-x) % p * mult
        x, mult = x // p, mult * p
    return z


@pytest.mark.parametrize("p,m,t", [(3, 1, 2), (5, 1, 2), (3, 1, 3), (3, 1, 5)])
def test_add_is_digitwise_exhaustive(p, m, t) -> None:
    ctx = construct_field(p, m, t)
    for x in range(ctx.order):
        nx = _digit_neg(x, p)
        assert ctx.neg(x) == nx
        for y in range(ctx.order):
            assert ctx.add(x, y) == _digit_add(x, y, p)
            assert ctx.sub(y, x) == _digit_add(y, nx, p)


@pytest.mark.parametrize("p,m,t", [(7, 1, 3), (3, 2, 3), (3, 1, 7), (5, 1, 5)])
def test_add_is_digitwise_sampled(p, m, t) -> None:
    ctx = construct_field(p, m, t)
    rng = random.Random(ctx.order)
    for _ in range(3000):
        x, y = rng.randrange(ctx.order), rng.randrange(ctx.order)
        nx = _digit_neg(x, p)
        assert ctx.neg(x) == nx
        for a, b in ((x, y), (y, x), (x, 0), (0, y), (x, nx), (nx, x)):
            assert ctx.add(a, b) == _digit_add(a, b, p)
        assert ctx.sub(x, y) == _digit_add(x, _digit_neg(y, p), p)
        assert ctx.add(x, nx) == 0


def test_distributivity_exhaustive_gf9(gf9) -> None:
    for x in range(gf9.order):
        for y in range(gf9.order):
            for z in (0, 1, gf9.exp(3)):
                lhs = gf9.mul(x, gf9.add(y, z))
                rhs = gf9.add(gf9.mul(x, y), gf9.mul(x, z))
                assert lhs == rhs


def test_inverse(gf9) -> None:
    assert gf9.inv(gf9.exp(5)) == gf9.exp(3)
    for x in range(1, gf9.order):
        assert gf9.mul(x, gf9.inv(x)) == 1
    with pytest.raises(ZeroDivisionError):
        gf9.inv(0)
    with pytest.raises(ZeroDivisionError):
        gf9.pow(0, -1)


def test_pow_edge_cases(gf9) -> None:
    assert gf9.pow(0, 0) == 1
    assert gf9.pow(0, 5) == 0
    assert gf9.pow(gf9.exp(1), 8) == 1


def test_trace_values(gf4, gf9) -> None:
    # trace of 1 is t mod p (as a base-field constant)
    assert gf4.trace(1) == 0          # 2 mod 2
    assert gf9.trace(1) == 2          # 2 mod 3
    assert gf9.trace(0) == 0


def test_trace_lands_in_base_field(gf9, gf8, gf16_over_gf4, gf64_over_gf8) -> None:
    for ctx in (gf9, gf8, gf16_over_gf4, gf64_over_gf8):
        for x in range(ctx.order):
            assert ctx.in_base_field(ctx.trace(x))


def test_trace_uniform_fibers(gf9, gf16_over_gf4) -> None:
    # every base-field value is hit exactly q^(t-1) times
    for ctx in (gf9, gf16_over_gf4):
        counts = Counter(ctx.trace(x) for x in range(ctx.order))
        expect = ctx.order // ctx.q
        assert set(counts) == set(_base_field(ctx))
        assert all(c == expect for c in counts.values())


def test_trace_is_b_linear(gf9) -> None:
    bvals = _base_field(gf9)
    for x in range(gf9.order):
        for y in range(gf9.order):
            assert gf9.trace(gf9.add(x, y)) == gf9.add(gf9.trace(x), gf9.trace(y))
        for b in bvals:
            assert gf9.trace(gf9.mul(b, x)) == gf9.mul(b, gf9.trace(x))


def test_frobenius_fixes_exactly_base_field(gf9, gf16_over_gf4, gf64_over_gf8) -> None:
    for ctx in (gf9, gf16_over_gf4, gf64_over_gf8):
        fixed = {x for x in range(ctx.order) if ctx.frobenius(x) == x}
        assert fixed == set(_base_field(ctx))
        assert len(fixed) == ctx.q
        # Frobenius is a bijection of F
        assert len({ctx.frobenius(x) for x in range(ctx.order)}) == ctx.order


def test_base_field_is_power_subgroup(gf9, gf64_over_gf8) -> None:
    # 0 and the powers of w^s are q distinct elements, closed under the
    # field operations: the subfield B
    for ctx in (gf9, gf64_over_gf8):
        base = set(_base_field(ctx))
        assert len(base) == ctx.q
        for x in base:
            assert ctx.neg(x) in base
            if x:
                assert ctx.inv(x) in base
            for y in base:
                assert ctx.add(x, y) in base
                assert ctx.mul(x, y) in base


def test_trivial_tower_t1() -> None:
    ctx = construct_field(3, 1, 1)
    for x in range(ctx.order):
        assert ctx.trace(x) == x
        assert ctx.in_base_field(x)


def test_field_and_linalg_are_leaf_modules(monkeypatch) -> None:
    # neither module imports another module of the package ...
    src = Path(tracerepair.__file__).resolve().parent
    for name in ("field.py", "linalg.py"):
        for node in ast.walk(ast.parse((src / name).read_text())):
            if isinstance(node, ast.ImportFrom):
                assert node.level == 0, name
                assert not (node.module or "").startswith("tracerepair"), name
            elif isinstance(node, ast.Import):
                assert not any(a.name.startswith("tracerepair") for a in node.names), name

    # ... and building a tower runs no linear algebra
    def no_lu(self, *args):
        raise AssertionError("LU factorization during field construction")

    monkeypatch.setattr(linalg.LUFactorization, "__init__", no_lu)
    for p, m, t in VERIFICATION_FIELDS:
        assert construct_field(p, m, t).order == p ** (m * t)


def test_package_imports_only_itself_and_the_standard_library() -> None:
    src = Path(tracerepair.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [] if node.level else [node.module]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            for name in names:
                assert name.partition(".")[0] in sys.stdlib_module_names, (path.name, name)
