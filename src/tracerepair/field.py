"""Arithmetic for the field tower GF(p) <= B <= F.

B = GF(p^m) and F = GF(p^(m*t)) share one representation: an element of
F is an integer in [0, p^(m*t)) whose base-p digits are the coefficients
of a residue polynomial modulo a fixed irreducible polynomial of degree
m*t over GF(p).  B is never built separately; it is the subset of F
fixed by the Frobenius map x -> x^q with q = p^m, so B-arithmetic is
ordinary F-arithmetic on B-valued integers and no embedding bookkeeping
exists anywhere.

Multiplication, inversion and powering run on discrete-log tables over a
fixed primitive element; addition is digit-wise modulo p (XOR when
p = 2).  Construction is deterministic: the modulus is the monic
irreducible polynomial of degree m*t with the smallest integer encoding,
and the primitive element is the smallest integer of multiplicative
order p^(m*t) - 1.  Two towers built from the same (p, m, t) therefore
agree element by element.
"""

from __future__ import annotations

from . import linalg

# Hard cap on table size; q^t above this is refused at construction.
TABLE_LIMIT = 1 << 20

# Small fields get dense addition/negation tables instead of digit loops.
_ADD_TABLE_LIMIT = 2048


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 in ascending order, by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


def _digits(x: int, p: int) -> list[int]:
    out = []
    while x:
        x, r = divmod(x, p)
        out.append(r)
    return out


def _undigits(ds, p: int) -> int:
    x = 0
    for c in reversed(ds):
        x = x * p + c
    return x


def _poly_rem(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of a modulo b over GF(p); coefficient lists, ascending."""
    a = list(a)
    db = len(b) - 1
    inv_lead = pow(b[-1], -1, p)
    while len(a) - 1 >= db and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) - 1 < db:
            break
        f = a[-1] * inv_lead % p
        shift = len(a) - 1 - db
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                prod[i + j] = (prod[i + j] + ca * cb) % p
    return _poly_rem(prod, mod, p)


def _find_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Monic irreducible of given degree over GF(p), smallest encoding first."""
    if degree == 1:
        return (0, 1)
    for enc in range(p ** degree):
        cand = _digits(enc, p)
        cand += [0] * (degree - len(cand)) + [1]
        if cand[0] == 0:
            continue  # divisible by x
        reducible = False
        for dd in range(1, degree // 2 + 1):
            for denc in range(p ** dd):
                div = _digits(denc, p)
                div += [0] * (dd - len(div)) + [1]
                if not _poly_rem(cand, div, p):
                    reducible = True
                    break
            if reducible:
                break
        if not reducible:
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")


class FieldTower:
    """GF(p^(m*t)) with its base subfield GF(p^m) carried along.

    Elements are plain ints.  All public operations (add, mul, trace,
    base_coords, ...) take and return such ints; callers never touch the
    polynomial representation.
    """

    def __init__(self, p: int, m: int, t: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if m < 1 or t < 1:
            raise ValueError("m and t must be positive")
        degree = m * t
        order = p ** degree
        if order > TABLE_LIMIT:
            raise ValueError(f"field of order {order} exceeds table limit {TABLE_LIMIT}")
        self.p = p
        self.m = m
        self.t = t
        self.q = p ** m          # size of the base field B
        self.degree = degree
        self.order = order       # size of F; code length n
        self.modulus = _find_irreducible(p, degree)

        self._build_tables()

        # stride of B inside the multiplicative group of F
        self.subfield_stride = (order - 1) // (self.q - 1)
        self.bits_per_symbol = (self.q - 1).bit_length()

        self.power_basis = tuple(self.exp(i) for i in range(t))
        self.dual_basis = self._compute_dual_basis()

    # -- construction ------------------------------------------------

    def _raw_mul(self, x: int, y: int) -> int:
        mod = list(self.modulus)
        r = _poly_mulmod(_digits(x, self.p), _digits(y, self.p), mod, self.p)
        return _undigits(r, self.p)

    def _raw_pow(self, x: int, e: int) -> int:
        acc = 1
        base = x
        while e:
            if e & 1:
                acc = self._raw_mul(acc, base)
            base = self._raw_mul(base, base)
            e >>= 1
        return acc

    def _find_primitive(self) -> int:
        group = self.order - 1
        if group == 1:
            return 1
        checks = [group // f for f in _prime_factors(group)]
        for cand in range(2, self.order):
            if all(self._raw_pow(cand, c) != 1 for c in checks):
                return cand
        raise AssertionError("no primitive element found")

    def _build_tables(self):
        order = self.order
        self.primitive_element = self._find_primitive()
        antilog = [0] * (order - 1)
        log = [-1] * order
        acc = 1
        for e in range(order - 1):
            antilog[e] = acc
            log[acc] = e
            acc = self._raw_mul(acc, self.primitive_element)
        if acc != 1:
            raise AssertionError("primitive element order mismatch")
        self._antilog = antilog
        self._log = log

        p = self.p
        if p == 2:
            self._add_table = None
            self._neg_table = None
        elif order <= _ADD_TABLE_LIMIT:
            self._add_table = [
                [self._add_digits(x, y) for y in range(order)] for x in range(order)
            ]
            self._neg_table = [self._neg_digits(x) for x in range(order)]
        else:
            self._add_table = None
            self._neg_table = [self._neg_digits(x) for x in range(order)]

    def _add_digits(self, x: int, y: int) -> int:
        p = self.p
        z = 0
        mult = 1
        while x or y:
            z += (x % p + y % p) % p * mult
            x //= p
            y //= p
            mult *= p
        return z

    def _neg_digits(self, x: int) -> int:
        p = self.p
        z = 0
        mult = 1
        while x:
            c = x % p
            if c:
                z += (p - c) * mult
            x //= p
            mult *= p
        return z

    def _compute_dual_basis(self) -> tuple[int, ...]:
        # Gram matrix of the power basis under the trace form, inverted
        # exactly; entries stay inside B throughout.
        t = self.t
        u = self.power_basis
        gram = [[self.trace(self.mul(u[i], u[j])) for j in range(t)] for i in range(t)]
        ginv = linalg.invert(self, gram)
        dual = []
        for j in range(t):
            v = 0
            for l in range(t):
                v = self.add(v, self.mul(ginv[l][j], u[l]))
            dual.append(v)
        return tuple(dual)

    # -- arithmetic --------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if self._add_table is not None:
            return self._add_table[x][y]
        return self._add_digits(x, y)

    def neg(self, x: int) -> int:
        if self.p == 2:
            return x
        if self._neg_table is not None:
            return self._neg_table[x]
        return self._neg_digits(x)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._antilog[(self._log[x] + self._log[y]) % (self.order - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of zero")
        return self._antilog[-self._log[x] % (self.order - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def pow(self, x: int, e: int) -> int:
        if x == 0:
            if e < 0:
                raise ZeroDivisionError("inverse of zero")
            return 1 if e == 0 else 0
        return self._antilog[self._log[x] * e % (self.order - 1)]

    def exp(self, e: int) -> int:
        """Power of the primitive element, exponent taken mod q^t - 1."""
        return self._antilog[e % (self.order - 1)]

    def log(self, x: int) -> int:
        if x == 0:
            raise ValueError("log of zero")
        return self._log[x]

    # -- tower structure ---------------------------------------------

    def frobenius(self, x: int) -> int:
        """x^q, the generator of Gal(F/B)."""
        if x == 0:
            return 0
        return self._antilog[self._log[x] * self.q % (self.order - 1)]

    def trace(self, x: int) -> int:
        """Trace from F down to B: sum of the t Frobenius conjugates."""
        acc = x
        conj = x
        for _ in range(self.t - 1):
            conj = self.frobenius(conj)
            acc = self.add(acc, conj)
        return acc

    def in_base_field(self, x: int) -> bool:
        return self.frobenius(x) == x

    def base_field_elements(self) -> list[int]:
        s = self.subfield_stride
        return [0] + [self._antilog[j * s] for j in range(self.q - 1)]

    def base_coords(self, x: int) -> tuple[int, ...]:
        """Coordinates of x over B in the power basis.

        Returns t elements of B with x == sum(c_l * power_basis[l]).
        """
        return tuple(self.trace(self.mul(v, x)) for v in self.dual_basis)

    def from_base_coords(self, coords) -> int:
        x = 0
        for c, u in zip(coords, self.power_basis):
            x = self.add(x, self.mul(c, u))
        return x

    def elements(self) -> range:
        return range(self.order)

    def nonzero_elements(self) -> range:
        return range(1, self.order)

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, t={self.t})"


def construct_field(p: int, m: int, t: int) -> FieldTower:
    """Build the tower GF(p) <= GF(p^m) <= GF(p^(m*t))."""
    return FieldTower(p, m, t)
