from __future__ import annotations

import copy
import gc
import hashlib
import itertools
import random
import tracemalloc
from dataclasses import replace
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracerepair import field
from tracerepair.cosets import enumerate_cosets, filter_cosets
from tracerepair.field import construct_field, is_prime
from tracerepair.oracle import classical_repair
from tracerepair.repair import build_plan, gw_max_k, plan_to_dict, repair_at
from tracerepair.rs import Codeword, encode, erase, position_point


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


@pytest.mark.parametrize("tower", [(3, 1, 2), (2, 3, 2), (7, 1, 3)])
def test_encode_skips_the_check_a_caller_gets(tower, monkeypatch) -> None:
    """encode's codeword is not checked again; one a caller builds still is.

    With Codeword's check patched to raise, encode still returns the
    codeword it returns unpatched, field for field as Codeword(...) builds
    it over the same values.  A caller's bad value or erased position is
    refused, by Codeword(...) and by dataclasses.replace alike.
    """
    ctx = construct_field(*tower)
    n, msg = ctx.order, (5, 0, 3, 1)
    want = encode(ctx, msg)

    def no_check(self):
        raise AssertionError("encode checked its codeword again")

    with monkeypatch.context() as patch:
        patch.setattr(Codeword, "__post_init__", no_check)
        cw = encode(ctx, msg)
    built = Codeword(ctx, 4, want.values, frozenset())
    assert type(cw) is Codeword
    assert vars(cw) == vars(built) == vars(want)
    assert erase(cw, 3).value_at(4) == built.values[4]
    for bad in (-1, n, 1.0, True):
        values = (bad,) + cw.values[1:]
        with pytest.raises(ValueError, match=f"holds {n} field elements"):
            Codeword(ctx, 4, values, frozenset())
        with pytest.raises(ValueError, match=f"holds {n} field elements"):
            replace(cw, values=values)
    for erased in ({n}, {-1}, {True}):
        with pytest.raises(ValueError, match="erased positions"):
            Codeword(ctx, 4, cw.values, frozenset(erased))
        with pytest.raises(ValueError, match="erased positions"):
            replace(cw, erased=frozenset(erased))


def test_erase_arbitrary_position(gf9) -> None:
    cw = encode(gf9, (1, 2, 3))
    gone = erase(cw, 5)
    assert gone.erased == {5}
    with pytest.raises(ValueError):
        gone.value_at(5)


def test_erase_does_not_check_the_values_again(gf9) -> None:
    """A Codeword's values are checked once, when it is built; erase keeps them."""

    class CountingTuple(tuple):
        passes = 0

        def __iter__(self):
            CountingTuple.passes += 1
            return super().__iter__()

    cw = encode(gf9, (1, 2, 3))
    built = Codeword(gf9, 3, CountingTuple(cw.values), frozenset())
    assert CountingTuple.passes == 1
    gone = erase(erase(built, 5), 0)
    assert CountingTuple.passes == 1
    assert gone.values is built.values and gone.erased == {0, 5} and built.erased == set()
    for j in (5.0, True, -1, 9):
        with pytest.raises(ValueError, match="position"):
            erase(built, j)
    with pytest.raises(ValueError, match="already erased"):
        erase(gone, 5)


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


def test_encode_work_follows_the_prime_factors(monkeypatch) -> None:
    """An encode over GF(1024)/GF(32) makes at most 31 + 11 + 3 column passes.

    N = 1023 = 3 * 11 * 31, and every pass runs over all N outputs, so the
    work is about N (3 + 11 + 31) terms, where the per-point formula takes
    N k, about 507k at k = 496.  Column 0 of each level has no twiddle and
    is a gather; every other column that is not all zero is one twiddled
    pass, a call of the field module's pass function, which the test
    counts, and sum_powers is not called at all.  The leaves have radix 31
    and their columns are runs of 33 consecutive coefficients, so a
    k = 496 message skips 15 of them.  A message of k <= 3 coefficients
    fills only column 0 at the leaves and one level up, and k columns at
    the top, whose columns are the coefficients mod 3.  The tower is built
    here, so the patches die with it.
    """
    ctx = construct_field(2, 5, 2)
    passes = []

    def counted(real):
        def twiddled_pass(*args):
            passes.append(real.__name__)
            return real(*args)
        return twiddled_pass

    def no_sum(exps):
        raise AssertionError("the transform called sum_powers")

    def twiddled_passes(coeffs) -> int:
        passes.clear()
        with monkeypatch.context() as patch:
            patch.setattr(ctx, "sum_powers", no_sum)
            for name in ("_xor_pass", "_zech_pass"):
                patch.setattr(field, name, counted(getattr(field, name)))
            values = encode(ctx, coeffs).values
        assert values == _per_point(ctx, coeffs)
        return len(passes)

    coeffs = tuple(random.Random(3).randrange(1, 1024) for _ in range(496))
    assert twiddled_passes(coeffs) == 15 + 10 + 2
    assert 3 + twiddled_passes(coeffs) <= 31 + 11 + 3
    for k in (1, 2, 3):
        assert twiddled_passes(coeffs[:k]) == k - 1


def _log_vectors(ctx, rng):
    """All-zero, single-nonzero (first, last, random slot) and fully dense logs."""
    mod = ctx.order - 1
    single = []
    for u in sorted({0, mod - 1, rng.randrange(mod)}):
        logs = [-1] * mod
        logs[u] = rng.randrange(mod)
        single.append(logs)
    return [[-1] * mod, *single, [rng.randrange(mod) for _ in range(mod)]]


# N = 1 (GF(2)) and 2 (GF(3)); prime N = 7, 31, 127; p = 2 with m > 1: 15 = 3 5,
# 63 = 3^2 7, 255 = 3 5 17 and 4095 = 3^2 5 7 13; odd p: 8 = 2^3, 26 = 2 13
@pytest.mark.parametrize("p,m,t", [(2, 1, 1), (3, 1, 1), (2, 1, 3), (2, 1, 5), (2, 1, 7),
                                   (2, 2, 2), (2, 3, 2), (2, 2, 4), (2, 4, 2),
                                   (3, 1, 2), (3, 1, 3), (5, 1, 2)])
def test_transform_edge_cases_match_the_per_point_formula(p, m, t) -> None:
    ctx = construct_field(p, m, t)
    for logs in _log_vectors(ctx, random.Random(p * 100 + m * 10 + t)):
        coeffs = tuple(ctx.exp(lu) if lu >= 0 else 0 for lu in logs)
        assert ctx.transform(coeffs) == list(_per_point(ctx, coeffs)[1:]), logs


@pytest.mark.parametrize("p,m,t", [(2, 5, 2), (2, 6, 2)])
def test_transform_dense_input_matches_the_per_point_formula(p, m, t) -> None:
    ctx = construct_field(p, m, t)
    rng = random.Random(17)
    coeffs = tuple(rng.randrange(ctx.order) for _ in range(ctx.order - 1))
    assert ctx.transform(coeffs) == list(_per_point(ctx, coeffs)[1:])


def test_transform_refuses_a_wrong_length(gf9) -> None:
    for coeffs in ([0] * 3, [1] * 7, [1] * 9, []):
        with pytest.raises(ValueError, match="takes 8 coefficients"):
            gf9.transform(coeffs)
    assert gf9.transform([0] * 8) == [0] * 8


# SHA-256 over encode's values of one seeded message at each k in
# (1, 2, gw_max_k // 2, gw_max_k, n), computed with the recursive transform
# the column passes replaced; any later change to the transform must match.
ENCODE_DIGESTS = {
    (2, 5, 2): "e49ec018f02ec35214b6d7e27891967741c6e8dd9973adee8ebd1120aa471fc1",
    (7, 1, 3): "21f61df07ea1c724d2ea100177d7371e45feaedf2c2e35e34b2d01f17d9c9731",
    (3, 1, 2): "9d105c5c1bd1c37f867367387ab71e5d555862cb7b85d3721cb9daaec8f024b1",
    (2, 3, 2): "2b6fdbe50fb0ffc43e1a0f36c42f40b7a934ff4e1b51b117d16b969b19797533",
    (2, 2, 4): "3aceac5b6f074e9a89f41166f1341ed769394320555113957ddd552a2468a155",
    (2, 4, 2): "3ddcb501c2308a7a46089013339b0eadb87f49bc5b4c4ef0df95532321fc2b8d",
    (3, 1, 5): "1248378b499b59f078243dacaa4a85820d0b1cea9cb105c567c1bc1ef09c41dc",
}


def _encode_digest(ctx, tower) -> str:
    n, top = ctx.order, gw_max_k(ctx)
    rng = random.Random(repr(tower))
    digest = hashlib.sha256()
    for k in (1, 2, top // 2, top, n):
        digest.update(repr(encode(ctx, [rng.randrange(n) for _ in range(k)]).values).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("tower", sorted(ENCODE_DIGESTS))
def test_encode_golden_digest(tower) -> None:
    assert _encode_digest(construct_field(*tower), tower) == ENCODE_DIGESTS[tower]


def _plan(ctx, r=0):
    return build_plan(ctx, filter_cosets(enumerate_cosets(ctx.q, ctx.t), gw_max_k(ctx) // 2), r)


# p = 2 and odd p; every level of both keeps its twiddle lists
@pytest.mark.parametrize("tower", [(2, 5, 2), (7, 1, 3)])
def test_transform_schedule_is_built_once(tower, monkeypatch) -> None:
    """After the first transform nothing of the schedule is built again.

    Factoring N, building the schedule or a twiddle list raises once the
    first plan is built, and a later encode and plan still give the
    golden digest and the same plan, share included.
    """
    ctx = construct_field(*tower)
    first = _plan(ctx)

    def boom(*args):
        raise AssertionError("the schedule was built again")

    for owner, name in ((field, "_prime_factors"), (field, "_twiddles"),
                        (field.FieldTower, "_build_schedule")):
        monkeypatch.setattr(owner, name, boom)
    assert _encode_digest(ctx, tower) == ENCODE_DIGESTS[tower]
    again = _plan(ctx)
    assert plan_to_dict(again) == plan_to_dict(first)
    assert again._share._share == first._share._share
    cw = encode(ctx, range(1, gw_max_k(ctx) // 2 + 1))
    assert repair_at(ctx, again.k, 0, erase(cw, 5), 5, again)[0] == cw.values[5]


# both keep the padded antilog and the twiddles; odd p keeps its two
# Zech tables too, hence the higher bound
@pytest.mark.parametrize("tower,bound", [((3, 1, 7), 2.05), ((2, 6, 2), 0.75)])
def test_transform_schedule_footprint(tower, bound) -> None:
    """The schedule's memory over the tower's own tables, by tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        ctx = construct_field(*tower)
        built = tracemalloc.get_traced_memory()[0]
        ctx._build_schedule()
        scheduled = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tower_bytes, schedule_bytes = built - start, scheduled - built
    assert schedule_bytes <= bound * tower_bytes, schedule_bytes / tower_bytes


# p = 2 with the leaves' twiddles kept; N = 31 and 26 = 2 13, whose
# leaves (radix above 2 sqrt(N)) make their twiddles in each pass
@pytest.mark.parametrize("tower", [(2, 3, 2), (2, 1, 5), (3, 1, 3), (7, 1, 3)])
def test_transform_calls_leave_the_schedule_unchanged(tower) -> None:
    """Encodes, plans and transforms of every density, interleaved on one tower.

    Each result equals the per-point formula, or for a plan a plan built
    on a fresh tower, and the schedule after them equals a copy taken
    after the first call.
    """
    ctx = construct_field(*tower)
    mod, n = ctx.order - 1, ctx.order
    rng = random.Random(repr(tower))
    fresh = construct_field(*tower)

    def check_encode():
        coeffs = tuple(rng.randrange(n) for _ in range(rng.randrange(1, n + 1)))
        assert encode(ctx, coeffs).values == _per_point(ctx, coeffs)

    def check_plan():
        r = rng.randrange(mod)
        assert _plan(ctx, r)._share._share == _plan(fresh, r)._share._share

    def check_transform(logs):
        coeffs = tuple(ctx.exp(lu) if lu >= 0 else 0 for lu in logs)
        assert ctx.transform(coeffs) == list(_per_point(ctx, coeffs)[1:])

    check_encode()
    snapshot = copy.deepcopy(ctx._schedule)
    for logs in _log_vectors(ctx, rng):
        check_plan()
        check_encode()
        check_transform(logs)
    check_plan()
    assert ctx._schedule == snapshot
