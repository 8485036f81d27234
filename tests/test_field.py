from __future__ import annotations

import ast
import hashlib
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tracerepair
from tracerepair import linalg
from tracerepair.field import TABLE_LIMIT, FieldTower, construct_field, is_prime
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
    for args in ((2.0, 1, 2), (2, 1.5, 2), (2, 1, 2.0), (2, True, 2), (True, 1, 1)):
        with pytest.raises(ValueError, match="must be integers"):
            construct_field(*args)


def test_construction_deterministic() -> None:
    a = construct_field(3, 1, 2)
    b = construct_field(3, 1, 2)
    assert a.modulus == b.modulus
    assert a.primitive_element == b.primitive_element
    assert a._antilog == b._antilog


# SHA-256 of repr((modulus, primitive element, _antilog up to 2 N, _log,
# _zech)), the tables as lists, _zech None for p = 2.  Computed with the
# earlier construction, which multiplied digit lists, so the
# shift-and-reduce walk must reproduce its tables exactly.
TABLE_DIGESTS = {
    (2, 1, 1): "a370499fc1a922e9ff7c7001703de4285b4866037e2333b5a4636adc5ae3dd6d",
    (2, 1, 2): "3a04a3e517b98e8ec20de6a428256739e5e44e3d939004ded47b04b1eb953936",
    (2, 3, 2): "9bf60258288461bb576f468fddd10b9145f05335421093cf65a5ed7c60477f22",
    (2, 4, 2): "39a6c0caf97cb074bdc60f3c5b51027ceef22a1f5d57b8cd48487a7f6f92b230",
    (2, 2, 4): "39a6c0caf97cb074bdc60f3c5b51027ceef22a1f5d57b8cd48487a7f6f92b230",
    (2, 5, 2): "ffddbddde99f61afb4da449fd02aa9dead9234261ee47c8d7935fba2ba24a35d",
    (2, 6, 2): "733c80330f1ce8d497df4496a3340ab9020e64be385de04d4eca758a7592ff09",
    (2, 4, 4): "e40b1ef588177d11dbb61d5b2a7c6064108e95bbd123552eea4422a1583c479a",
    (3, 1, 1): "cd3b023a6580c8eff4a47d4288cc4087f945a854e8fa46dd28d360a814a005e1",
    (7, 1, 1): "66d6e939c09fe2122cd98bf268885a2a9667471397c8c4342e7254aabec928b7",
    (41, 1, 1): "3991a59d452e5d2f0f7c531c6f8bdc802aaeb4d2f45de51f05cf1daf55d3b1d6",
    (3, 1, 2): "9e67130087306a47ed512b51df0c9d17f8f3e51ef90664665961a09f95f71c60",
    (5, 1, 2): "3dd77b7291b078db29b150322e4926354e1739af5090c3b7e2ce866e84eda648",
    (13, 1, 2): "e7868e2234f9fd409245633b2d53b5951dbb0625849c19250d3b7280ddefaa5f",
    (17, 1, 2): "77252d899eb2092b82792db1120e7d366a17c11ba27c49665ce36637d4ec0f4d",
    (37, 1, 2): "1b92c1383c2e259d8b2fb969d18566f0d5cdc08ca59acaa9712e4118aac9e4c3",
    (101, 1, 2): "851d76ef2164f5ec46f4160b76116ff9634f5651de27b869caae4edac12e39e5",
    (7, 1, 3): "ae85f626b4dff95e51878e4d31d4a34da52112bfcb93545677ace5e6910a011d",
    (13, 1, 3): "e82adcb3026213f7ee8a0b655902dd7ba70864a42d8acbc443f7f90b630a4ab2",
    (31, 1, 3): "dd348061e91a621d5d043e3158eb76b4a6c504d6a5c32190217e6e701c2af995",
    (5, 1, 4): "fc6889ecac116de495db5a07829be74f7c17631c3329e36a70686c443fd7b6a8",
    (11, 1, 4): "618dede1f7392d5381a2344664113924a8831a91d4d49d42f06be51af0e8e1d1",
    (3, 1, 5): "984981547a424a8c4a0faf22437c46522f374dda9c9e05a2346fc5ef38808bc2",
    (3, 2, 5): "91e74b16d423471a414511e8b1b359041e4d0fdd77306833da629ce46755243e",
}


@pytest.mark.parametrize("tower", sorted(TABLE_DIGESTS))
def test_tables_match_golden_digests(tower) -> None:
    """x primitive (GF(64), g = 2) or not (GF(256), g = 3), degree 1 to 10,
    p from 2 to 101, and GF(2^16)."""
    ctx = construct_field(*tower)
    mod = ctx.order - 1
    # the antilog's zero tail past the doubled powers is pinned on its own
    zech = getattr(ctx, "_zech", None)
    tables = (ctx.modulus, ctx.primitive_element, list(ctx._antilog[:2 * mod]),
              list(ctx._log), None if zech is None else list(zech))
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == TABLE_DIGESTS[tower]
    assert ctx._antilog[2 * mod:] == (0,) * (2 * mod + 1)


def _schoolbook_mul(x: int, y: int, modulus, p: int) -> int:
    """x y modulo the modulus by digit lists, independent of the construction."""
    xs, ys = _digits_of(x, p), _digits_of(y, p)
    prod = [0] * (len(xs) + len(ys))
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            prod[i + j] += a * b
    degree = len(modulus) - 1
    for i in reversed(range(degree, len(prod))):
        c = prod[i] % p
        for j, f in enumerate(modulus):
            prod[i - degree + j] -= c * f
    return sum(c % p * p ** i for i, c in enumerate(prod[:degree]))


def _digits_of(x: int, p: int) -> list[int]:
    out = []
    while x:
        x, r = divmod(x, p)
        out.append(r)
    return out


@settings(max_examples=150)
@given(st.integers(-3, 45), st.integers(-2, 6), st.integers(-2, 6))
@example(2, 1, 21)                # 2^21: one degree over the limit
@example(2, 3, 7)
@example(1031, 1, 2)              # the smallest p with p^2 over the limit
@example(1048583, 1, 1)           # the smallest prime over the limit
@example(1048576, 1, 1)
@example(3, 1, 13)
@example(0, 1, 1)
@example(1, 1, 1)
@example(-7, 1, 2)
@example(9, 1, 2)                 # a prime power is not a prime
@example(2, 0, 3)
@example(2, 3, -1)
@example(1009, 1, 1)              # degree 1: plain products mod p
@example(41, 1, 1)
@example(37, 1, 2)                # p over 36
@example(101, 1, 2)
@example(13, 1, 4)                # degree 4, digits up to 12
@example(3, 2, 5)                 # a primitive element of 4 digits
def test_construct_field_returns_a_tower_or_refuses(p, m, t) -> None:
    """Any ints give a tower or ValueError, and a tower's walk agrees with
    schoolbook products."""
    if m >= 1 and t >= 1 and is_prime(p) and 1 << 16 < p ** (m * t) <= TABLE_LIMIT:
        return  # admitted but slow to build; the examples cover the paths
    try:
        ctx = construct_field(p, m, t)
    except ValueError:
        return
    n = p ** (m * t)
    assert ctx.order == n and ctx.modulus[-1] == 1 and len(ctx.modulus) == m * t + 1
    antilog = ctx._antilog[:n - 1]
    assert sorted(antilog) == list(range(1, n))
    assert all(ctx._log[x] == e for e, x in enumerate(antilog))
    g = ctx.primitive_element
    assert ctx.exp(1) == g
    rng = random.Random(n)
    for e in rng.sample(range(n - 1), min(n - 1, 40)):
        assert ctx.exp(e + 1) == _schoolbook_mul(antilog[e], g, ctx.modulus, p)


def test_log_antilog_roundtrip(gf9, gf64_over_gf8) -> None:
    for ctx in (gf9, gf64_over_gf8):
        seen = set()
        for e in range(ctx.order - 1):
            x = ctx.exp(e)
            assert ctx.log(x) == e
            seen.add(x)
        assert seen == set(range(1, ctx.order))


def test_log_refuses_non_elements(gf9) -> None:
    # a negative int, a bool or an int past the table is no element, so
    # none of them reads the log table
    for x in (-1, True, 9, 1.0, "1"):
        with pytest.raises(ValueError, match="not an element"):
            gf9.log(x)
    with pytest.raises(ValueError, match="log of zero"):
        gf9.log(0)


def test_arithmetic_refuses_non_elements(gf9, gf16_over_gf4) -> None:
    # a negative int, a bool, the order itself, a float or a string is no
    # element, in either operand; 0 stays an element and keeps its own error
    for ctx in (gf9, gf16_over_gf4):
        for bad in (-1, True, ctx.order, 1.0, "1"):
            calls = [(ctx.neg, bad), (ctx.inv, bad), (ctx.frobenius, bad), (ctx.pow, bad, 2)]
            for op in (ctx.add, ctx.sub, ctx.mul, ctx.div):
                calls += [(op, bad, 1), (op, 1, bad), (op, 0, bad)]
            calls += [(op, bad, 0) for op in (ctx.add, ctx.sub, ctx.mul)]
            for op, *args in calls:
                with pytest.raises(ValueError, match="not an element"):
                    op(*args)
        # an exponent is an int and not a bool, also where the base is 0
        for bad in (1.5, "1", True, None):
            for op, *args in ((ctx.exp, bad), (ctx.pow, 1, bad), (ctx.pow, 0, bad)):
                with pytest.raises(ValueError, match="exponent must be an integer"):
                    op(*args)
        with pytest.raises(ZeroDivisionError):
            ctx.inv(0)
        with pytest.raises(ZeroDivisionError):
            ctx.div(1, 0)
        with pytest.raises(ZeroDivisionError):
            ctx.pow(0, -1)


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


def test_trace_values(gf4, gf9, gf16_over_gf4) -> None:
    # trace of 1 is t mod p (as a base-field constant)
    assert gf4.trace(1) == 0          # 2 mod 2
    assert gf9.trace(1) == 2          # 2 mod 3
    assert gf9.trace(0) == 0
    # only an int in [0, order) is an element: no negative index reads the tables
    for x in (-1, -5, -16, 16, 1.0, True, "1"):
        with pytest.raises(ValueError, match="not an element"):
            gf16_over_gf4.trace(x)
        with pytest.raises(ValueError, match="not an element"):
            gf16_over_gf4.in_base_field(x)


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


def test_package_modules_use_every_name_they_import() -> None:
    # a deletion that leaves an import behind fails here; __init__ imports
    # only to re-export, and __future__ imports are directives
    src = Path(tracerepair.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {alias.asname or alias.name.partition(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_package_defines_no_private_name_it_never_uses() -> None:
    # a private function, class, method or module constant that nothing in
    # src/ reads is dead code; the public surface is pinned in test_public_api
    src = Path(tracerepair.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    defined = []
    for tree in trees:
        for node in tree.body:
            body = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *body]:
                if isinstance(item, (ast.FunctionDef, ast.ClassDef)):
                    defined.append(item.name)
                elif isinstance(item, ast.Assign) and item is node:
                    defined += [t.id for t in item.targets if isinstance(t, ast.Name)]
    private = [name for name in defined if name.startswith("_") and not name.startswith("__")]
    read = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    assert len(private) >= 20, private
    assert [name for name in private if name not in read] == []
