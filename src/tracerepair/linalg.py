"""Exact dense linear algebra over a finite field context.

Matrices are lists of row lists of field elements (ints).  Every routine
takes the field as its first argument.  The LU factorization serves the
repair plan: build_plan factors the window block once and
recover_missing_traces solves with it once per repair.  It runs on
log-domain rows through the field's vector kernels (neg_logs, axpy,
dot); rank and mat_mul stay scalar add/mul/inv code, so the oracle
that checks the repair path through them shares no kernel with it.
Every routine serves F and, unchanged, B-valued matrices, since B is
closed under the field operations.
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
    """PA = LU with pivoting on the first nonzero entry per column.

    Solves are exact and performed per right-hand side by forward and
    back substitution; no inverse matrix is ever formed.  Each row of
    the factors is kept as an operand row (see FieldTower.neg_logs) from
    the step it becomes the pivot, so elimination is one axpy per row
    and each substitution step is one dot.
    """

    def __init__(self, ctx, mat):
        n = len(mat)
        a = [list(row) for row in mat]
        if any(len(row) != n for row in a):
            raise ValueError("matrix must be square")
        perm = list(range(n))
        inv_diag = []
        mul, inv, log = ctx.mul, ctx.inv, ctx.log
        for col in range(n):
            piv = next((r for r in range(col, n) if a[r][col]), None)
            if piv is None:
                raise SingularMatrixError(f"singular at column {col}")
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                perm[col], perm[piv] = perm[piv], perm[col]
            inv_p = inv(a[col][col])
            inv_diag.append(inv_p)
            a[col] = prow = ctx.neg_logs(a[col])
            tail = prow[col + 1:]
            for r in range(col + 1, n):
                row = a[r]
                if not row[col]:
                    continue
                f = mul(row[col], inv_p)
                row[col] = f
                row[col + 1:] = ctx.axpy(row[col + 1:], log(f), tail)
        self._ctx = ctx
        self._a = a
        self._inv_diag = inv_diag
        self._perm = perm
        self.n = n

    def solve(self, rhs) -> list:
        ctx = self._ctx
        a = self._a
        n = self.n
        if len(rhs) != n:
            raise ValueError("rhs length mismatch")
        add, mul, dot = ctx.add, ctx.mul, ctx.dot
        # forward: L y = P rhs, unit diagonal; zip stops at column i
        y = []
        for i, p in enumerate(self._perm):
            y.append(add(rhs[p], dot(a[i], y)))
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
