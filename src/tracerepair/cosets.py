"""q-ary cyclotomic cosets and the repair-space dimension count.

Pure integer arithmetic on exponents modulo q^t - 1; no field tables are
needed here.  The dimension of the space of usable repair vectors for a
given message length k falls out of a filtering rule on the cosets, and
equals the number of helper symbols the repair scheme gets to skip.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import _prime_factors


def _is_prime_power(n: int) -> bool:
    return n >= 2 and len(_prime_factors(n)) == 1


@dataclass(frozen=True)
class Coset:
    """One orbit of multiplication by q on Z/(q^t - 1)."""

    rep: int
    elements: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CosetCollection:
    q: int
    t: int
    cosets: tuple[Coset, ...]
    index_by_element: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return self.q ** self.t - 1

    def coset_of(self, e: int) -> Coset:
        return self.cosets[self.index_by_element[e % self.modulus]]


@dataclass(frozen=True)
class FilteredCosets:
    """Cosets surviving the degree and coefficient constraints for one k."""

    collection: CosetCollection
    k: int
    selected: tuple[Coset, ...]
    removed: tuple[Coset, ...]
    dim: int


def enumerate_cosets(q: int, t: int) -> CosetCollection:
    """Partition {0, ..., q^t - 2} into orbits under multiplication by q.

    Each orbit is listed starting from its smallest element and following
    repeated multiplication by q; orbits are ordered by that smallest
    element.
    """
    if t < 1:
        raise ValueError("t must be positive")
    if not _is_prime_power(q):
        raise ValueError(f"q must be a prime power, got {q}")
    mod = q ** t - 1
    index = [-1] * mod
    cosets = []
    for a in range(mod):
        if index[a] >= 0:
            continue
        orbit = [a]
        e = a * q % mod
        while e != a:
            orbit.append(e)
            e = e * q % mod
        idx = len(cosets)
        for e in orbit:
            index[e] = idx
        cosets.append(Coset(a, tuple(orbit)))
    return CosetCollection(q, t, tuple(cosets), tuple(index))


def filter_cosets(cc: CosetCollection, k: int) -> FilteredCosets:
    """Keep the cosets whose exponents are usable for message length k.

    The coset containing 1 is always dropped.  For k >= 2 the coset {0}
    and every coset reaching past q^t - k are dropped as well.
    """
    n = cc.modulus + 1
    if n < 3:
        raise ValueError("field must have at least 3 elements")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    selected, removed = [], []
    for c in cc.cosets:
        if 1 in c.elements:
            removed.append(c)
        elif k >= 2 and (c.rep == 0 or max(c.elements) > n - k):
            removed.append(c)
        else:
            selected.append(c)
    dim = sum(c.size for c in selected)
    return FilteredCosets(cc, k, tuple(selected), tuple(removed), dim)


def repair_space_dim(cc: CosetCollection, k: int) -> int:
    """Number of helper symbols the repair scheme can omit at length k."""
    return filter_cosets(cc, k).dim
