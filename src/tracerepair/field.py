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

The trace to B is a table of logs indexed by log, log Tr(w^i) at i and
the sentinel 2 N (N = p^(m*t) - 1) where the trace is 0, so a repair's
download goes from a log to a log in one read, and trace(x) reads it
at log x.  The trace is GF(p)-linear, so it fills by linearity: from
the m*t values Tr(p^j), each the sum of the t Frobenius conjugates of
the basis element x^j, one digit place at a time over the elements (an
XOR of the table with itself shifted for p = 2, the p multiples of
Tr(p^j) added to it for odd p), about p^(m*t) adds in all, and its logs
are then read out in log order.  B-membership is a log test: x != 0
lies in B exactly when log x is a multiple of N/(q - 1).

The vector kernels work on discrete logs straight from the tables, with
no method call per element.  sum_powers sums powers of w: an XOR-reduce
for p = 2, a Zech chain on the log of the running sum for odd p.
sum_products, a repair's two sums, sums w^x w^y over pairs of logs, 2 N
standing for 0: for p = 2 an XOR-reduce of the transform's antilog, 0
from 2 N to 4 N, at x + y, with no test per pair; for odd p sum_powers
over the x + y below 2 N.  logs_plus gives log(x + w^e) for a list of
exponents e by one table read each: log(x XOR w^e) for p = 2, and for
odd p the Zech read log x + zech(e - log x).  It places a repair's
helpers for odd p, the points x0 + w^e, and with x = -1 gives a plan's
log(w^i - 1).

transform is the length-N cyclic transform, sum over u of a_u w^(u j),
N = p^(m*t) - 1, from N field elements to N.  It encodes a codeword and
builds a plan's share.  It runs by mixed-radix decimation in time over
the prime factors of N, taken with multiplicity, largest at the leaves,
as an iterative loop over levels from the leaves up.  A level of radix
p' holds all of its subproblems in one length-N list, subproblem-outer,
so the p' columns it combines are contiguous slices.  Each column is
laid out in output order by repeating slices of it, a copy in C.
Column 0 becomes the accumulator; for each other column one list
comprehension over all N outputs adds the column entry times its
twiddle into it, and an all-zero column is skipped, so the zero tail
of a short message costs no pass at the leaves.  For p = 2 the
accumulator is values, and a column turns to logs, 0 a log sentinel,
just before its pass XORs in an antilog read per term; odd p turns its
input to logs once, adds by Zech through two tables and reads the
output through the antilog.  The cost is about N times the sum of the
prime factors of N, with no kernel call per output.  What depends on
the tower alone, the schedule, is built on the first call and kept:
the factors of N, the padded antilog, odd p's two tables, and each
level's twiddles, whose entries point into one sequence of N ints.  A
level whose twiddles would hold more than 4 N entries, a radix above
about 2 sqrt(N) at the leaves, makes each column's in its pass instead.
Later calls only run passes.  The schedule is all tuples: no call can
change it, and the garbage collector does not walk a tuple of ints.

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


def _tiled(col: list, radix: int, sub: int) -> list:
    """A column in output order: each run of sub entries, radix times over.

    Output sigma radix sub + j of a level reads column entry
    sigma sub + j % sub.  Each run is one slice repeated, so the copy
    runs in C.
    """
    out = []
    for o in range(0, len(col), sub):
        out += col[o:o + sub] * radix
    return out


def _twiddles(values: tuple, parts: int, s: int, span: int) -> tuple:
    """Column s's twiddle logs at a level: w^(parts s j) for output j < span."""
    mod = len(values)
    return tuple([values[parts * s * j % mod] for j in range(span)])


def _xor_pass(acc, column, twiddles, antilog):
    """One twiddled column pass for p = 2: acc[o] XOR w^(column[o] + twiddles[o])."""
    return [a ^ antilog[c + t] for a, c, t in zip(acc, column, twiddles)]


def _zech_pass(acc, column, twiddles, plus, norm):
    """One twiddled column pass for odd p, on logs: a Zech add through two tables."""
    return [norm[a + plus[c + t - a]] for a, c, t in zip(acc, column, twiddles)]


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
        self._schedule = None   # the transform's, built on its first call
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
        # x != 0 is in B = GF(q) exactly when its log is a multiple of this
        self._base_step = group // (self.q - 1)
        # the trace is GF(p)-linear: fill its table digit place by digit
        # place from the values at the basis elements p^j
        table = [0]
        for j in range(self.degree):
            b = self._conjugate_sum(p ** j)
            if p == 2:
                table += [v ^ b for v in table]
            else:
                mults = [self.mul(c, b) for c in range(p)]
                table = [self.add(v, m) for m in mults for v in table]
        # _trace_log[i] = log Tr(w^i), the log table's int, or one shared 2 N for 0
        zero = 2 * group
        self._trace_log = tuple([log[v] if (v := table[x]) else zero for x in antilog])

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
        if self._element(x) == 0:
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

    def sum_products(self, xs, ys) -> int:
        """Sum of w^x w^y over pairs of logs, each below order - 1 or 2 (order - 1) for 0."""
        if self.p == 2:
            antilog = (self._schedule or self._build_schedule())[1]
            return reduce(xor, [antilog[x + y] for x, y in zip(xs, ys)], 0)
        zero = 2 * (self.order - 1)
        return self.sum_powers([s for x, y in zip(xs, ys) if (s := x + y) < zero])

    def transform(self, coeffs: list[int]) -> list[int]:
        """sum over u < N of a_u w^(u j) for each j < N = order - 1.

        coeffs holds the N field elements a_u.  The levels run from the
        leaves up on the tower's schedule (see the module docstring).
        """
        zero, antilog, plus, norm, values, levels = self._schedule or self._build_schedule()
        if len(coeffs) != self.order - 1:
            raise ValueError(f"a transform takes {self.order - 1} coefficients, got {len(coeffs)}")
        log, p2 = self._log, self.p == 2
        # cur holds the outputs of `parts` subproblems of length `sub`, values
        # for p = 2 and logs for odd p, subproblem-outer, at the leaves the
        # inputs.  Those numbered sigma + parts s, s < radix, make a subproblem
        # of the level above, and column s is the slice of cur from s parts sub.
        cur = list(coeffs) if p2 else [log[v] if v else zero for v in coeffs]
        for radix, parts, sub, twiddles in levels:
            length = parts * sub
            # column 0 has no twiddle: tiled, it is the accumulator
            acc = _tiled(cur[:length], radix, sub)
            for s in range(1, radix):
                col = cur[s * length:(s + 1) * length]
                if col.count(0 if p2 else zero) == length:
                    continue
                tw = twiddles[s - 1] if twiddles else _twiddles(values, parts, s, radix * sub)
                if p2:
                    col = [log[v] if v else zero for v in col]
                    acc = _xor_pass(acc, _tiled(col, radix, sub), tw * parts, antilog)
                else:
                    acc = _zech_pass(acc, _tiled(col, radix, sub), tw * parts, plus, norm)
            cur = acc
        return cur if p2 else [antilog[lu] for lu in cur]

    def _build_schedule(self) -> tuple:
        """What transform reads besides its input; built on its first call.

        The sentinel log of 0, the antilog padded with 0 past it, odd p's
        two Zech tables, the N twiddle values, and per level from the
        leaves up (radix, parts, sub, twiddles), twiddles holding one
        tuple of span = radix sub logs per column s >= 1, or None where
        each pass makes its own: output j of a subproblem takes its
        column entry times w^(parts s j).  They point into the one tuple
        of values, so they cost a pointer per entry.  Every part is a
        tuple, so no call can change it, and the garbage collector stops
        tracking a tuple of ints: it adds nothing to a collection.
        """
        mod = self.order - 1
        # the log of 0 inside the transform, past every log and log sum
        zero = 2 * mod if self.p == 2 else 3 * mod
        antilog = tuple(self._antilog) + (0,) * (2 * mod + 1)   # 0 from 2 mod to 4 mod
        # 0, 1, ..., mod - 1 as the log table's own ints, so no new int object
        exps = tuple([self._log[x] for x in self._antilog[:mod]])
        if self.p == 2:
            plus, norm, values = None, None, exps
        else:
            # w^a + w^e = w^norm[a + plus[e + zero - a]] for a term's log e:
            #   a, e nonzero: the index lies in (2 mod, 5 mod), zech[e - a],
            #                 or -mod where w^a + w^e = 0, wrapping into norm's zero tail;
            #   e zero:       in (5 mod, 7 mod), 0, so the sum is w^a;
            #   a zero:       in [0, 2 mod), e % mod - zero, so the sum is w^e;
            #   both zero:    in [3 mod, 4 mod), and norm sends zero + zech to zero.
            # The twiddles carry the + zero.
            zech = tuple([z if z >= 0 else -mod for z in self._zech[:mod]])
            plus = tuple(range(-zero, -2 * mod)) * 2 + zech * 3 + (0,) * (2 * mod)
            norm = exps * 2 + (zero,) * (2 * mod)
            values = tuple(range(zero, zero + mod))
        levels, parts, sub = [], mod, 1
        for f in reversed(_prime_factors(mod)):
            while parts % f == 0:
                parts //= f
                span = f * sub
                # a radix above about 2 sqrt(N) at the leaves would keep
                # about radix^2 entries; its passes make their own
                twiddles = (tuple(_twiddles(values, parts, s, span) for s in range(1, f))
                            if (f - 1) * span <= 4 * mod else None)
                levels.append((f, parts, sub, twiddles))
                sub = span
        self._schedule = (zero, antilog, plus, norm, values, tuple(levels))
        return self._schedule

    def logs_plus(self, x: int, exps) -> list[int]:
        """log(x + w^e) for each exponent e in [0, order - 1); -1 where x + w^e = 0."""
        log = self._log
        if self.p == 2:
            antilog = self._antilog
            return [log[x ^ antilog[e]] for e in exps]
        if x == 0:
            return list(exps)
        # x + w^e = w^lx (1 + w^(e - lx)), one Zech read
        lx, zech, mod = log[x], self._zech, self.order - 1
        return [-1 if (z := zech[e - lx]) < 0 else (lx + z) % mod for e in exps]

    # -- tower structure ---------------------------------------------

    def frobenius(self, x: int) -> int:
        """x^q, the generator of Gal(F/B)."""
        if x == 0:
            return 0
        return self._antilog[self._log[x] * self.q % (self.order - 1)]

    def _conjugate_sum(self, x: int) -> int:
        """Sum of the t Frobenius conjugates of x; fills the trace table."""
        acc = conj = x
        for _ in range(self.t - 1):
            conj = self.frobenius(conj)
            acc = self.add(acc, conj)
        return acc

    def _element(self, x: int) -> int:
        if type(x) is not int or not 0 <= x < self.order:
            raise ValueError(f"{x!r} is not an element of GF({self.order})")
        return x

    def trace(self, x: int) -> int:
        """Trace from F down to B, read from the table built at construction."""
        lt = self._trace_log[self._log[x]] if self._element(x) else -1
        return self._antilog[lt] if 0 <= lt < self.order - 1 else 0

    def in_base_field(self, x: int) -> bool:
        return self._element(x) == 0 or self._log[x] % self._base_step == 0

    def __repr__(self):
        return f"FieldTower(p={self.p}, m={self.m}, t={self.t})"


def construct_field(p: int, m: int, t: int) -> FieldTower:
    """Build the tower GF(p) <= GF(p^m) <= GF(p^(m*t))."""
    return FieldTower(p, m, t)
