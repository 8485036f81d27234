"""Exact dense linear algebra over a finite field context.

Matrices are lists of row lists of field elements (ints).  Every routine
takes the field as its first argument.  The LU factorization serves the
repair plan: build_plan factors the window block once, in closed form
from Newton's form of a Vandermonde matrix, and recover_missing_traces
solves with it once per repair through the field's dot kernel.  rank
and mat_mul stay scalar add/mul/inv code, so the oracle that checks the
repair path through them shares no kernel with it.  rank serves F and,
unchanged, B-valued matrices, since B is closed under the field
operations.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    pass


def mat_mul(ctx, a, b) -> list:
    add, mul = ctx.add, ctx.mul
    cols = list(zip(*b))
    out = []
    for row in a:
        orow = []
        for col in cols:
            acc = 0
            for x, y in zip(row, col):
                if x and y:
                    acc = add(acc, mul(x, y))
            orow.append(acc)
        out.append(orow)
    return out


class LUFactorization:
    """E = LU of the block E[i][c] = w^(a_i (r + c)) for distinct exponents a_i.

    E is a Vandermonde matrix in the nodes z_i = w^(a_i), row i scaled
    by D_i = z_i^r, so Newton's form (Bjorck and Pereyra, Math. Comp.
    1970) factors it with no elimination: E = (D N) C, where
    N[i][j] = prod over k < j of (z_i - z_k) is lower triangular and
    C[j][c] = h_(c-j)(z_0, ..., z_j), the complete homogeneous symmetric
    polynomial, is unit upper triangular.  With Delta = diag(D N), the
    factors are L = D N Delta^-1 and U = Delta C, in O(d^2) field
    operations.  Solves are exact and performed per right-hand side by
    forward and back substitution; no inverse matrix is ever formed.
    Row i holds L's entries left of the diagonal and U's from it on, as
    an operand row (log(-x) per entry, see FieldTower.dot), so each
    substitution step is one dot.
    """

    def __init__(self, ctx, exps, r):
        z = [ctx.exp(a) for a in exps]
        n = len(z)
        if len(set(z)) != n:
            raise SingularMatrixError("exponents must be distinct mod the group order")
        add, mul, inv, neg, log = ctx.add, ctx.mul, ctx.inv, ctx.neg, ctx.log
        neg_z = [neg(x) for x in z]
        a = []
        inv_diag = []
        neg_inv_diag = []
        c_row = [1] + [0] * n   # h_m() of no nodes: h_0 = 1, zero above
        for i, (ai, zi) in enumerate(zip(exps, z)):
            # dn runs through D_i N[i][j], j <= i, ending at Delta_i
            dn = ctx.exp(ai * r)
            row = []
            for j in range(i):
                row.append(log(mul(dn, neg_inv_diag[j])))
                dn = mul(dn, add(zi, neg_z[j]))
            inv_diag.append(inv(dn))
            neg_inv_diag.append(neg(inv_diag[-1]))
            # C's row i from row i - 1: h_m(..z_i) = h_m(..z_(i-1)) + z_i h_(m-1)(..z_i)
            h = [1]
            for prev in c_row[1:-1]:
                h.append(add(prev, mul(zi, h[-1])))
            c_row = h
            s = neg(dn)
            row += [log(mul(s, x)) if x else -1 for x in h]
            a.append(row)
        self._ctx = ctx
        self._a = a
        self._inv_diag = inv_diag
        self.n = n

    def solve(self, rhs) -> list:
        ctx = self._ctx
        a = self._a
        n = self.n
        if len(rhs) != n:
            raise ValueError("rhs length mismatch")
        add, mul, dot = ctx.add, ctx.mul, ctx.dot
        # forward: L y = rhs, unit diagonal; zip stops at column i
        y = []
        for i in range(n):
            y.append(add(rhs[i], dot(a[i], y)))
        # back: U x = y, with x built from the last entry down
        x = []
        for i in range(n - 1, -1, -1):
            x.append(mul(add(y[i], dot(a[i][:i:-1], x)), self._inv_diag[i]))
        x.reverse()
        return x


def rank(ctx, mat) -> int:
    if not mat:
        return 0
    a = [list(row) for row in mat]
    nrows, ncols = len(a), len(a[0])
    mul, sub, inv = ctx.mul, ctx.sub, ctx.inv
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, nrows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        prow = a[r]
        inv_p = inv(prow[col])
        for i in range(r + 1, nrows):
            row = a[i]
            if not row[col]:
                continue
            f = mul(row[col], inv_p)
            for j in range(col, ncols):
                if prow[j]:
                    row[j] = sub(row[j], mul(f, prow[j]))
        r += 1
        if r == nrows:
            break
    return r
