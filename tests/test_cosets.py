from __future__ import annotations

from dataclasses import replace

import pytest

from tracerepair.cosets import (CosetCollection, FilteredCosets, dimension_profile,
                                enumerate_cosets, filter_cosets)
from tracerepair.field import is_prime

SEVEN_FIELDS = ((2, 2), (3, 2), (4, 2), (2, 3), (2, 4), (5, 2), (8, 2))


def test_gf9_cosets_golden() -> None:
    cc = enumerate_cosets(3, 2)
    assert [c.elements for c in cc.cosets] == [(0,), (1, 3), (2, 6), (4,), (5, 7)]


def test_small_binary_cosets() -> None:
    assert [c.elements for c in enumerate_cosets(2, 2).cosets] == [(0,), (1, 2)]
    # orbit order follows repeated multiplication, not sorting
    assert [c.elements for c in enumerate_cosets(2, 3).cosets] == [(0,), (1, 2, 4), (3, 6, 5)]


def test_enumerate_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        enumerate_cosets(6, 2)  # not a prime power
    with pytest.raises(ValueError):
        enumerate_cosets(3, 0)
    with pytest.raises(ValueError, match="table limit"):
        enumerate_cosets(2, 21)  # 2^21 over the table limit
    for q, t in ((4.0, 2), (4, 2.0), (4, True), (True, 3)):
        with pytest.raises(ValueError, match="must be integers"):
            enumerate_cosets(q, t)


@pytest.mark.parametrize("q,t", SEVEN_FIELDS)
def test_partition_properties(q, t) -> None:
    cc = enumerate_cosets(q, t)
    mod = q ** t - 1
    all_elems = [e for c in cc.cosets for e in c.elements]
    assert sorted(all_elems) == list(range(mod))
    for c in cc.cosets:
        assert c.rep == min(c.elements)
        assert t % c.size == 0
        # closure under multiplication by q
        assert {e * q % mod for e in c.elements} == set(c.elements)
        # orbit order: each element is q times the previous
        for a, b in zip(c.elements, c.elements[1:]):
            assert b == a * q % mod
    # collections are ordered by representative
    reps = [c.rep for c in cc.cosets]
    assert reps == sorted(reps)


def test_gf9_filter_golden_k3() -> None:
    cc = enumerate_cosets(3, 2)
    fc = filter_cosets(cc, 3)
    assert [c.elements for c in fc.selected] == [(2, 6), (4,)]
    assert [c.elements for c in fc.removed] == [(0,), (1, 3), (5, 7)]
    assert fc.dim == 3


def test_gf9_dim_series() -> None:
    cc = enumerate_cosets(3, 2)
    assert [filter_cosets(cc, k).dim for k in range(1, 9)] == [6, 5, 3, 1, 1, 0, 0, 0]


def test_k1_keeps_zero_coset() -> None:
    cc = enumerate_cosets(3, 2)
    fc = filter_cosets(cc, 1)
    assert [c.rep for c in fc.selected] == [0, 2, 4, 5]
    assert [c.rep for c in fc.removed] == [1]
    assert fc.dim == 6


def test_gf4_degenerates() -> None:
    cc = enumerate_cosets(2, 2)
    assert filter_cosets(cc, 1).dim == 1
    assert filter_cosets(cc, 2).dim == 0


def test_gf64_over_gf8_extremes() -> None:
    cc = enumerate_cosets(8, 2)
    assert filter_cosets(cc, 1).dim == 61
    assert filter_cosets(cc, 56).dim == 0


@pytest.mark.parametrize("q,t", SEVEN_FIELDS)
def test_filter_invariants(q, t) -> None:
    cc = enumerate_cosets(q, t)
    n = q ** t
    for k in range(1, n):
        fc = filter_cosets(cc, k)
        assert set(fc.selected) | set(fc.removed) == set(cc.cosets)
        assert not set(fc.selected) & set(fc.removed)
        assert fc.dim == sum(c.size for c in fc.selected)
        for c in fc.selected:
            assert 1 not in c.elements
            if k >= 2:
                assert c.rep != 0
                assert max(c.elements) <= n - k
        # no more cosets are lost than k
        assert len(fc.removed) <= k


@pytest.mark.parametrize("q,t", SEVEN_FIELDS)
def test_selection_shrinks_as_k_grows(q, t) -> None:
    cc = enumerate_cosets(q, t)
    n = q ** t
    prev = None
    for k in range(2, n):
        fc = filter_cosets(cc, k)
        reps = {c.rep for c in fc.selected}
        if prev is not None:
            assert reps <= prev[0]
            assert fc.dim <= prev[1]
        prev = (reps, fc.dim)


def test_filter_k_out_of_range() -> None:
    cc = enumerate_cosets(3, 2)
    with pytest.raises(ValueError):
        filter_cosets(cc, 0)
    with pytest.raises(ValueError):
        filter_cosets(cc, 9)
    for k in (2.5, 2.0, True):
        with pytest.raises(ValueError, match="must be an integer"):
            filter_cosets(cc, k)


def test_records_derive_their_fields() -> None:
    """A record cannot carry a selection, d or coset list of its own, so a
    plan's window cannot disagree with its nodes."""
    cc = enumerate_cosets(3, 2)
    fc = filter_cosets(cc, 3)
    with pytest.raises(TypeError):
        FilteredCosets(cc, 3, fc.selected, fc.removed, fc.dim - 1)
    with pytest.raises(TypeError):
        CosetCollection(3, 2, cc.cosets)
    with pytest.raises(ValueError):
        replace(fc, dim=fc.dim + 1)
    with pytest.raises(ValueError):
        replace(fc, selected=fc.selected + fc.removed[-1:])
    assert replace(fc, k=2) == filter_cosets(cc, 2)
    assert CosetCollection(3, 2) == cc and FilteredCosets(cc, 3) == fc


def test_two_element_field_refused() -> None:
    cc = enumerate_cosets(2, 1)
    with pytest.raises(ValueError):
        filter_cosets(cc, 1)
    with pytest.raises(ValueError):
        dimension_profile(cc)


# (16, 2) and (32, 2) are perfbench towers: a cold_repair one and the steady_repair one
@pytest.mark.parametrize("q,t", SEVEN_FIELDS + ((3, 5), (7, 3), (4, 4), (16, 2), (32, 2)))
def test_dimension_profile_matches_filter(q, t) -> None:
    cc = enumerate_cosets(q, t)
    assert dimension_profile(cc) == tuple(filter_cosets(cc, k).dim for k in range(1, q ** t))


def _assert_paper_bound(p: int, m: int, t: int) -> None:
    """For 1 <= k <= n - n/q (the largest k the trace finish serves),
    n - 1 - d(k) <= k t, and d(k) never increases with k."""
    q, n = p ** m, p ** (m * t)
    dims = dimension_profile(enumerate_cosets(q, t))
    assert len(dims) == n - 1
    assert all(a >= b for a, b in zip(dims, dims[1:])), (p, m, t)
    for k in range(1, n - n // q + 1):
        assert n - 1 - dims[k - 1] <= k * t, (p, m, t, k)


def test_paper_bound_on_every_small_tower() -> None:
    """Trace repair never downloads more than classical repair's k t
    symbols, on every (p, m, t) with 3 <= p^(m t) <= 2^12."""
    towers = [(p, m, t) for p in range(2, 1 << 12) if is_prime(p)
              for m in range(1, 13) for t in range(1, 13) if 3 <= p ** (m * t) <= 1 << 12]
    assert len(towers) == 660
    for tower in towers:
        _assert_paper_bound(*tower)


def test_paper_bound_past_2_12() -> None:
    """The same bound on every proper tower (t >= 2) with
    2^12 < p^(m t) <= 2^16."""
    towers = [(p, m, t) for p in range(2, 1 << 8) if is_prime(p)
              for m in range(1, 9) for t in range(2, 17) if 1 << 12 < p ** (m * t) <= 1 << 16]
    assert len(towers) == 69
    for tower in towers:
        _assert_paper_bound(*tower)
