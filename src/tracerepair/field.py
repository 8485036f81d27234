"""Arithmetic for the field tower GF(p) <= B <= F.

B = GF(p^m) and F = GF(p^(m*t)) share one representation: an element of
F is an integer in [0, p^(m*t)) whose base-p digits are the coefficients
of a residue polynomial modulo a fixed irreducible polynomial of degree
m*t over GF(p).  B is never built separately; it is the subset of F
fixed by the Frobenius map x -> x^q with q = p^m, so B-arithmetic is
ordinary F-arithmetic on B-valued integers and no embedding bookkeeping
exists anywhere.

Multiplication, inversion and powering run on discrete-log tables over
a fixed primitive element w; the antilog table is stored twice over, so
a sum of two logs indexes it without reduction.  Addition is digit-wise
modulo p on the encoding.  For p = 2 that is XOR.  For odd p it is
computed as x + y = x * (1 + y/x) with Zech logarithms,
zech[i] = log(1 + w^i) (-1 where 1 + w^i = 0), built in one pass over
the antilog table because adding 1 changes only the lowest base-p digit;
negation multiplies by -1 = w^((p^(m*t) - 1)/2).  The integer encoding
is the same for every p, so results match digit-wise arithmetic exactly.

The one vector kernel, sum_powers, works on discrete logs straight from
the tables, with no method call per element: a sum of powers of w is an
XOR-reduce for p = 2 and a Zech chain on the log of the running sum for
odd p.  It serves the two sums of a repair, the window's share and the
Guruswami-Wootters finish, and every step of transform, the length-N
cyclic transform sum over u of a_u w^(u j), N = p^(m*t) - 1.  That
transform encodes a codeword and builds a plan's share.  It runs by
mixed-radix decimation in time over the prime factors of N: a length-L
transform with radix p', the smallest prime factor of L, splits its
input by residue mod p', transforms the p' strided subsequences of
length L/p', and combines them with one sum_powers call of at most p'
terms per output.  A transform of prime length, or of a subsequence
with no more nonzero entries than its radix, is evaluated directly, one
sum_powers call over the nonzero entries per point.  The cost is about
N times the sum of the prime factors of N.

Construction is deterministic: the modulus is the monic irreducible
polynomial of degree m*t with the smallest integer encoding, found by
trial division (carry-less on bit masks for p = 2), and the primitive
element is the smallest integer of multiplicative order p^(m*t) - 1.
Two towers built from the same (p, m, t) therefore agree element by
element.  No product of two polynomials is formed.  A product is
Horner's rule over one factor's digits, each step a shift by one digit
with the digit pushed out folded back through the modulus from a table
of p entries: a shift and an XOR on the bit mask for p = 2, and for odd
p a shift of digit lanes packed into one int, all reduced mod p at
once by one Barrett step.  Candidates for w are tested by
square-and-multiply, skipping GF(p) when m*t > 1; then one walk of
p^(m*t) - 1 steps, each a product by w's few digits, fills the log and
antilog tables.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

# Hard cap on table size; q^t above this is refused at construction.
TABLE_LIMIT = 1 << 20


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


def check_order_limit(base: int, exponent: int, limit: int, kind: str) -> None:
    """Refuse base^exponent > limit without computing a huge power."""
    if base >= 2 and (exponent > limit.bit_length() or base ** exponent > limit):
        raise ValueError(f"order {base}^{exponent} exceeds {kind} limit {limit}")


def check_table_limit(base: int, exponent: int) -> None:
    """Refuse a field larger than TABLE_LIMIT before any table is built."""
    check_order_limit(base, exponent, TABLE_LIMIT, "table")


def check_tower(p: int, m: int, t: int) -> None:
    """Refuse (p, m, t) naming no tower that can be built, cheapest check first."""
    if any(type(x) is not int for x in (p, m, t)):
        raise ValueError(f"p, m and t must be integers, got {p!r}, {m!r}, {t!r}")
    if m < 1 or t < 1:
        raise ValueError("m and t must be positive")
    check_table_limit(p, m * t)  # before the trial division in is_prime
    if not is_prime(p):
        raise ValueError(f"p must be prime, got {p}")


def _digits(x: int, p: int) -> list[int]:
    out = []
    while x:
        x, r = divmod(x, p)
        out.append(r)
    return out


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


def _clmod(a: int, b: int) -> int:
    """Remainder of a modulo b over GF(2), polynomials as bit masks."""
    n = b.bit_length()
    while a.bit_length() >= n:
        a ^= b << a.bit_length() - n
    return a


def _find_irreducible(p: int, degree: int) -> tuple[int, ...]:
    """Monic irreducible of given degree over GF(p), smallest encoding first."""
    if degree == 1:
        return (0, 1)
    if p == 2:
        # constant term 1, so x and its multiples never divide
        for low in range(1, 1 << degree, 2):
            f = 1 << degree | low
            if all(_clmod(f, d) for d in range(3, 2 << degree // 2, 2)):
                return tuple(f >> i & 1 for i in range(degree + 1))
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


def _arithmetic(p: int, modulus: tuple[int, ...]):
    """(pack, times, unpack): multiplication in GF(p)[x] / modulus.

    pack turns an integer encoding into a working form and unpack turns
    it back; times(b) returns multiplication by a nonzero working form b.
    That runs Horner's rule over the digits of b, top first, and each
    step multiplies the running product by x: its digits move up one
    place, and the digit pushed out at x^degree comes back through the
    modulus, read from a table over its p values.
    """
    degree = len(modulus) - 1
    if degree == 1:
        return int, lambda b: lambda a: a * b % p, int
    if p == 2:
        # the working form is the encoding, bit i the digit of x^i
        top = degree - 1
        low = (1 << top) - 1
        over = (0, sum(c << i for i, c in enumerate(modulus[:-1])))

        def times(b):
            bits = bin(b)[3:]  # after the leading 1

            def mul(a):
                r = a
                for c in bits:
                    r = (r & low) << 1 ^ over[r >> top]
                    if c == "1":
                        r ^= a
                return r
            return mul

        return int, times, int
    # Odd p: digit j sits in lane j, bits [width j, width (j + 1)) of one
    # int.  Each of at most `degree` Horner steps adds below p^2 to a
    # lane, so a product's lanes stay below 2^bits, and one Barrett step
    # reduces them all: a lane's quotient by p is (lane * magic) >> shift,
    # exact while lane * p < 2^shift, read from one product of the whole
    # int.  The lanes are wide enough that no product spills into the next.
    bits = (degree * p * p).bit_length()
    shift = bits + p.bit_length()
    width = max(2 * bits + 2, (degree * p ** degree).bit_length())
    lane = (1 << width) - 1
    magic = (1 << shift) // p + 1
    quotients = sum(lane >> shift << width * j for j in range(degree))
    top = width * (degree - 1)
    low = (1 << top) - 1
    over = [sum(-c * f % p << width * j for j, f in enumerate(modulus[:-1]))
            for c in range(p)]
    # lane degree - 1 of r * places is the encoding, sum of digit_j p^j
    places = sum(p ** j << width * (degree - 1 - j) for j in range(degree))

    def pack(x):
        return sum(x // p ** j % p << width * j for j in range(degree))

    def times(b):
        digits = [b >> width * j & lane for j in range(degree)]
        while not digits[-1]:
            digits.pop()

        def mul(a):
            r = 0
            for c in reversed(digits):
                r = ((r & low) << width) + over[(r >> top) % p] + c * a
            return r - (r * magic >> shift & quotients) * p
        return mul

    return pack, times, lambda r: r * places >> top & lane


class FieldTower:
    """GF(p^(m*t)) with its base subfield GF(p^m) carried along.

    Elements are plain ints.  All public operations (add, mul, trace,
    ...) take and return such ints; callers never touch the polynomial
    representation.
    """

    def __init__(self, p: int, m: int, t: int):
        check_tower(p, m, t)
        degree = m * t
        order = p ** degree
        self.p = p
        self.m = m
        self.t = t
        self.q = p ** m          # size of the base field B
        self.degree = degree
        self.order = order       # size of F; code length n
        self.modulus = _find_irreducible(p, degree)

        self._build_tables()
        self.bits_per_symbol = (self.q - 1).bit_length()

    # -- construction ------------------------------------------------

    def _build_tables(self):
        p, order = self.p, self.order
        pack, times, unpack = _arithmetic(p, self.modulus)
        one = pack(1)

        def power(x, e):
            acc, by_x = one, times(x)
            for c in bin(e)[2:]:
                acc = times(acc)(acc)
                if c == "1":
                    acc = by_x(acc)
            return acc

        # the smallest integer of full order: 1 in GF(2), and no element
        # of GF(p) when the degree exceeds 1, since its order divides p - 1
        group = order - 1
        checks = [group // f for f in _prime_factors(group)]
        self.primitive_element = next(
            c for c in range(p if self.degree > 1 else 1, order)
            if all(power(pack(c), e) != one for e in checks))

        antilog = [0] * group
        log = [-1] * order
        step = times(pack(self.primitive_element))
        acc = one
        for e in range(group):
            x = unpack(acc)
            antilog[e] = x
            log[x] = e
            acc = step(acc)
        if acc != one:
            raise AssertionError("primitive element order mismatch")
        self._log = log
        self._antilog = antilog + antilog
        if p == 2:
            self._log_minus_one = 0
        else:
            # log[0] == -1 marks 1 + w^i == 0; doubled like the antilog
            # table, so a difference of two doubled logs indexes it
            zech = [log[v - v % p + (v + 1) % p] for v in antilog]
            self._zech = zech + zech
            self._log_minus_one = (order - 1) // 2

    # -- arithmetic --------------------------------------------------

    def add(self, x: int, y: int) -> int:
        if self.p == 2:
            return x ^ y
        if x == 0:
            return y
        if y == 0:
            return x
        lx = self._log[x]
        # a negative index wraps mod 2 (order - 1), the length of _zech
        z = self._zech[self._log[y] - lx]
        return 0 if z < 0 else self._antilog[lx + z]

    def neg(self, x: int) -> int:
        if self.p == 2 or x == 0:
            return x
        return self._antilog[self._log[x] + self._log_minus_one]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._antilog[self._log[x] + self._log[y]]

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

    # -- vector kernel (see the module docstring) --------------------

    def sum_powers(self, exps) -> int:
        """Sum of w^e over exponents e in [0, 2 (order - 1))."""
        antilog = self._antilog
        if self.p == 2:
            return reduce(xor, map(antilog.__getitem__, exps), 0)
        # Zech chain on the log of the running sum, -1 while it is zero:
        # w^s + w^e = w^(s + zech[e - s])
        zech, mod = self._zech, self.order - 1
        acc = -1
        for e in exps:
            if acc < 0:
                acc = e
            else:
                z = zech[e - acc]
                acc = -1 if z < 0 else (acc + z) % mod
        return 0 if acc < 0 else antilog[acc]

    def transform(self, logs: list[int], step: int = 1) -> list[int]:
        """sum over u of a_u w^(step u j) for j < L = len(logs), L step = order - 1.

        logs[u] is the discrete log of a_u, or -1 where a_u = 0.
        """
        mod = self.order - 1
        size = len(logs)
        nonzero = [(step * u, lu) for u, lu in enumerate(logs) if lu >= 0]
        radix = min(_prime_factors(size), default=size)
        if radix == size or len(nonzero) <= radix:
            return [self.sum_powers([su * j % mod + lu for su, lu in nonzero])
                    for j in range(size)]
        # a_(radix v + s) for s < radix, transformed with w^(step radix)
        subs = [[self._log[v] for v in self.transform(logs[s::radix], step * radix)]
                for s in range(radix)]
        sub_size = size // radix
        out = []
        for j in range(size):
            m = j % sub_size
            out.append(self.sum_powers([step * s * j % mod + sub[m]
                                        for s, sub in enumerate(subs) if sub[m] >= 0]))
        return out

    def logs_minus_one(self) -> list[int]:
        """log(w^i - 1) for i < order - 1; -1 at i = 0, where w^0 - 1 = 0.

        Subtracting 1 lowers the lowest base-p digit only, so one pass
        over the antilog table builds the list, as it builds the Zech table.
        """
        p, log = self.p, self._log
        return [log[v - v % p + (v - 1) % p] for v in self._antilog[:self.order - 1]]

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

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, t={self.t})"


def construct_field(p: int, m: int, t: int) -> FieldTower:
    """Build the tower GF(p) <= GF(p^m) <= GF(p^(m*t))."""
    return FieldTower(p, m, t)
