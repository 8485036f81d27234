"""q-ary cyclotomic cosets and the repair-space dimension count.

Pure integer arithmetic on exponents modulo q^t - 1; no field tables are
needed here.  The records derive their fields, so none can carry a copy
that disagrees: CosetCollection(q, t) its cosets, and
FilteredCosets(collection, k) the cosets usable for message length k and
their total size d, the number of helper symbols the repair skips.

The rule gives each coset C one number, its reach: the largest k for
which C is usable.  The coset of 1 has reach 0, {0} has reach 1, and
any other coset has reach n - max C, with n = q^t.  So
d(k) = sum of |C| over the cosets with reach(C) >= k.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from .field import _prime_factors, check_table_limit


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
    """The orbits of multiplication by q on Z/(q^t - 1), computed from q and t.

    Each orbit is listed from its smallest element by repeated
    multiplication by q; orbits are ordered by that smallest element.
    """

    q: int
    t: int
    cosets: tuple[Coset, ...] = field(init=False)

    def __post_init__(self):
        q, t = self.q, self.t
        if type(q) is not int or type(t) is not int:
            raise ValueError(f"q and t must be integers, got {q!r}, {t!r}")
        if t < 1:
            raise ValueError("t must be positive")
        check_table_limit(q, t)
        if not _is_prime_power(q):
            raise ValueError(f"q must be a prime power, got {q}")
        mod = q ** t - 1
        visited = [False] * mod
        cosets = []
        for a in range(mod):
            if visited[a]:
                continue
            orbit = [a]
            e = a * q % mod
            while e != a:
                orbit.append(e)
                e = e * q % mod
            for e in orbit:
                visited[e] = True
            cosets.append(Coset(a, tuple(orbit)))
        object.__setattr__(self, "cosets", tuple(cosets))

    @property
    def modulus(self) -> int:
        return self.q ** self.t - 1


def _reach(c: Coset, n: int) -> int:
    """The largest k for which c survives the filter, n = q^t."""
    if c.rep == 1:
        return 0
    return 1 if c.rep == 0 else n - max(c.elements)


@dataclass(frozen=True)
class FilteredCosets:
    """The cosets usable for message length k, those whose reach is at
    least k, computed from the collection and k; dim is their total size."""

    collection: CosetCollection
    k: int
    selected: tuple[Coset, ...] = field(init=False)
    removed: tuple[Coset, ...] = field(init=False)
    dim: int = field(init=False)

    def __post_init__(self):
        n, k = self.collection.modulus + 1, self.k
        if n < 3:
            raise ValueError("field must have at least 3 elements")
        if type(k) is not int:
            raise ValueError(f"k must be an integer, got {k!r}")
        if not 1 <= k <= n - 1:
            raise ValueError(f"k must be in [1, {n - 1}], got {k}")
        selected, removed = [], []
        for c in self.collection.cosets:
            (selected if _reach(c, n) >= k else removed).append(c)
        object.__setattr__(self, "selected", tuple(selected))
        object.__setattr__(self, "removed", tuple(removed))
        object.__setattr__(self, "dim", sum(c.size for c in selected))


def enumerate_cosets(q: int, t: int) -> CosetCollection:
    """Partition {0, ..., q^t - 2} into orbits under multiplication by q."""
    return CosetCollection(q, t)


def filter_cosets(cc: CosetCollection, k: int) -> FilteredCosets:
    """Keep the cosets whose exponents are usable for message length k."""
    return FilteredCosets(cc, k)


def dimension_profile(cc: CosetCollection) -> tuple[int, ...]:
    """filter_cosets(cc, k).dim for k = 1, ..., q^t - 1, in one pass.

    The cosets are bucketed by reach, and every dimension is one suffix
    sum over the buckets.
    """
    n = cc.modulus + 1
    if n < 3:
        raise ValueError("field must have at least 3 elements")
    size_by_reach = [0] * n
    for c in cc.cosets:
        size_by_reach[_reach(c, n)] += c.size
    at_least = list(accumulate(reversed(size_by_reach)))[::-1]  # at_least[k]: reach >= k
    return tuple(at_least[1:])
