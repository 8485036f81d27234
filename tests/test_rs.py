from __future__ import annotations

import itertools
import random
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracerepair.field import construct_field, is_prime
from tracerepair.rs import (Codeword, classical_repair, encode, erase,
                            position_point)


def test_position_indexing(gf9) -> None:
    assert position_point(gf9, 0) == 0
    for j in range(1, 9):
        assert position_point(gf9, j) == gf9.exp(j - 1)
    with pytest.raises(ValueError):
        position_point(gf9, 9)


def test_encode_zero_and_constant(gf9) -> None:
    zero = encode(gf9, (0, 0, 0))
    assert set(zero.values) == {0}
    const = encode(gf9, (7,))
    assert set(const.values) == {7}
    assert const.k == 1


def test_encode_monomial_example(gf9) -> None:
    # f(x) = x^2 evaluated at omega^3 lands at position 4
    cw = encode(gf9, (0, 0, 1))
    assert cw.values[4] == gf9.exp(6)
    assert cw.values[0] == 0


def test_encode_validates(gf9) -> None:
    with pytest.raises(ValueError):
        encode(gf9, ())
    with pytest.raises(ValueError):
        encode(gf9, (0,) * 10)
    with pytest.raises(ValueError):
        encode(gf9, (9,))
    for coeffs in ((1.5, 2), (True, 2), (1, 2.0)):
        with pytest.raises(ValueError, match="must be integers"):
            encode(gf9, coeffs)


def test_erasure_bookkeeping(gf9) -> None:
    cw = encode(gf9, (1, 2))
    gone = erase(cw, 0)
    assert gone.erased == {0}
    assert cw.erased == frozenset()  # original untouched
    with pytest.raises(ValueError):
        gone.value_at(0)
    assert gone.value_at(3) == cw.values[3]
    with pytest.raises(ValueError):
        erase(gone, 0)


def test_erase_and_position_point_refuse_non_int_positions(gf9) -> None:
    cw = encode(gf9, (1, 2))
    for j in (1.5, 1.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            erase(cw, j)
        with pytest.raises(ValueError, match="out of range"):
            position_point(gf9, j)


def test_value_at_refuses_positions_outside_the_code(gf9) -> None:
    cw = encode(gf9, (5, 2, 7))
    assert cw.value_at(8) == cw.values[8]
    for j in (-1, 9, 1.5, 1.0, True):
        with pytest.raises(ValueError, match="out of range"):
            cw.value_at(j)


# a float or bool symbol is refused here, not once a repair reads it
@pytest.mark.parametrize("bad", [-1, 9, 1.5, 4.0, True])
def test_codeword_refuses_values_outside_the_field(gf9, bad) -> None:
    cw = erase(encode(gf9, (5, 2, 7)), 0)
    for pos in (2, 4):
        values = list(cw.values)
        values[pos] = bad
        with pytest.raises(ValueError, match="holds 9 field elements"):
            replace(cw, values=tuple(values))
    for values in (cw.values[:-1], cw.values + (0,)):
        with pytest.raises(ValueError, match="holds 9 field elements"):
            Codeword(gf9, 3, values, frozenset())


def test_codeword_refuses_message_lengths_and_erasures_out_of_range(gf9) -> None:
    values = encode(gf9, (5, 2, 7)).values
    for k in (0, -1, 10):
        with pytest.raises(ValueError, match="message length"):
            Codeword(gf9, k, values, frozenset())
    for erased in ({99}, {9}, {-1}, {2, 1.0}, {True}):
        with pytest.raises(ValueError, match="erased positions"):
            Codeword(gf9, 3, values, frozenset(erased))
    assert Codeword(gf9, 9, values, frozenset({0, 8})).erased == {0, 8}


def test_erase_arbitrary_position(gf9) -> None:
    cw = encode(gf9, (1, 2, 3))
    gone = erase(cw, 5)
    assert gone.erased == {5}
    with pytest.raises(ValueError):
        gone.value_at(5)


def test_classical_repair_gf9(gf9) -> None:
    rng = random.Random(11)
    for _ in range(50):
        coeffs = tuple(rng.randrange(9) for _ in range(3))
        cw = erase(encode(gf9, coeffs), 0)
        helpers = rng.sample(range(1, 9), 3)
        assert classical_repair(cw, helpers) == coeffs[0]


def test_classical_repair_every_helper_subset(gf4) -> None:
    for coeffs in itertools.product(range(4), repeat=2):
        cw = erase(encode(gf4, coeffs), 0)
        for helpers in itertools.combinations(range(1, 4), 2):
            assert classical_repair(cw, helpers) == coeffs[0]


def test_classical_repair_k1(gf9) -> None:
    cw = erase(encode(gf9, (6,)), 0)
    assert classical_repair(cw, [4]) == 6


def test_classical_repair_validates(gf9) -> None:
    cw = erase(encode(gf9, (1, 2, 3)), 0)
    with pytest.raises(ValueError):
        classical_repair(cw, [1, 2])          # too few
    with pytest.raises(ValueError):
        classical_repair(cw, [1, 1, 2])       # duplicate
    with pytest.raises(ValueError):
        classical_repair(cw, [0, 1, 2])       # erased helper


@pytest.mark.parametrize("p,m,t", [(2, 2, 2), (3, 1, 2), (5, 1, 2), (3, 1, 5),
                                   (7, 1, 3)])
def test_codeword_agrees_with_direct_evaluation(p, m, t) -> None:
    ctx = construct_field(p, m, t)
    n = ctx.order
    rng = random.Random(5)
    nonzero = lambda count: tuple(rng.randrange(1, n) for _ in range(count))
    messages = [
        tuple(rng.randrange(n) for _ in range(4)),
        (0, 0) + nonzero(3),                  # leading zeros
        nonzero(3) + (0, 0),                  # trailing zeros
        (0,) * 5,
        tuple(rng.randrange(n) for _ in range(n)),  # k = n
    ]
    for coeffs in messages:
        cw = encode(ctx, coeffs)
        for j in range(n):
            x = position_point(ctx, j)
            val = 0
            for i, c in enumerate(coeffs):
                val = ctx.add(val, ctx.mul(c, ctx.pow(x, i)))
            assert cw.values[j] == val, (coeffs, j)


def _per_point(ctx, coeffs) -> tuple[int, ...]:
    """Codeword by the per-point formula encode used before the transform.

    With c_i = omega^(l_i), f(omega^j) = sum over nonzero c_i of
    omega^(i j + l_i), one sum_powers call per point; i = N wraps to 0.
    """
    mod = ctx.order - 1
    terms = [(i, ctx.log(c)) for i, c in enumerate(coeffs) if c]
    return (coeffs[0],) + tuple(ctx.sum_powers([i * j % mod + lc for i, lc in terms])
                                for j in range(mod))


# N = 1, the primes 3, 7 and 31, 63 = 3^2 7 and 728 = 2^3 7 13
@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (2, 1, 2), (2, 1, 3), (2, 1, 5),
                                   (2, 1, 6), (3, 1, 6)])
def test_transform_agrees_with_per_point_formula(p, m, t) -> None:
    ctx = construct_field(p, m, t)
    n = ctx.order
    rng = random.Random(9)
    nonzero = lambda count: tuple(rng.randrange(1, n) for _ in range(count))
    for k in sorted({1, 2, n}):
        half = k // 2
        messages = [
            tuple(rng.randrange(n) for _ in range(k)),
            nonzero(k),
            (0,) * half + nonzero(k - half),   # leading zeros
            nonzero(k - half) + (0,) * half,   # trailing zeros
            (0,) * (k - 1) + nonzero(1),
            nonzero(1) + (0,) * (k - 1),
        ]
        for coeffs in messages:
            assert encode(ctx, coeffs).values == _per_point(ctx, coeffs), (k, coeffs)


# every field of order at most 729; encode depends on F alone, not on B
SMALL_FIELDS = tuple((p, 1, e) for p in range(2, 730) if is_prime(p)
                     for e in range(1, 10) if p ** e <= 729)


@cache
def _field(tower):
    return construct_field(*tower)


@settings(max_examples=60)
@given(data=st.data())
def test_transform_property(data) -> None:
    ctx = _field(data.draw(st.sampled_from(SMALL_FIELDS)))
    n = ctx.order
    k = data.draw(st.integers(1, n))
    element = st.one_of(st.just(0), st.integers(0, n - 1))
    coeffs = tuple(data.draw(st.lists(element, min_size=k, max_size=k)))
    assert encode(ctx, coeffs).values == _per_point(ctx, coeffs)


def test_encode_cost_follows_the_prime_factors() -> None:
    """One k = 496 encode over GF(1024)/GF(32) hands sum_powers about N (3 + 11 + 31) terms.

    N = 1023 = 3 * 11 * 31; the per-point formula hands it N k, about 507k.
    A message with no more nonzero coefficients than the radix 3 is
    evaluated point by point, N k terms.  The tower is built here, so the
    counting wrapper dies with it.
    """
    ctx = construct_field(2, 5, 2)
    kernel = ctx.sum_powers
    handed = []

    def counted(exps):
        handed.append(len(exps))
        return kernel(exps)

    def terms(coeffs) -> int:
        handed.clear()
        ctx.sum_powers = counted
        values = encode(ctx, coeffs).values
        del ctx.sum_powers
        assert values == _per_point(ctx, coeffs)
        return sum(handed)

    coeffs = tuple(random.Random(3).randrange(1, 1024) for _ in range(496))
    assert 0 < terms(coeffs) <= 1023 * (3 + 11 + 31) + 1023
    for k in (1, 2, 3):
        assert terms(coeffs[:k]) == 1023 * k
