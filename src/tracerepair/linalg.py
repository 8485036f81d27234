"""The window block's LU factorization over a finite field context.

build_plan factors the window block once, in closed form from Newton's
form of a Vandermonde matrix, and recover_missing_traces solves with it
once per repair through the field's sum_powers kernel.  The scalar
rank and mat_mul that check it live in the oracle, which shares no
kernel with the repair path.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    pass


class LUFactorization:
    """LU factors of the block E[i][c] = w^(a_i (r + c)) for distinct exponents a_i.

    E is a Vandermonde matrix in the nodes z_i = w^(a_i), row i scaled
    by D_i = z_i^r, so Newton's form (Bjorck and Pereyra, Math. Comp.
    1970) factors it with no elimination, in O(d^2) field operations:
    E = L C with L = D N, where N[i][j] = prod over k < j of
    (z_i - z_k) is lower triangular and C[j][c] = h_(c-j)(z_0, ..., z_j),
    the complete homogeneous symmetric polynomial, is unit upper
    triangular.  Row i holds the logs of L's entries left of the
    diagonal (never zero, as the nodes are distinct), then the logs of
    C's entries right of it (-1 for zero); L's diagonal is kept
    inverted.  Solves are exact and performed per right-hand side by
    forward and back substitution, each step one sum_powers over
    log-factor plus log-unknown; no inverse matrix is ever formed.
    """

    def __init__(self, ctx, exps, r):
        z = [ctx.exp(a) for a in exps]
        n = len(z)
        if len(set(z)) != n:
            raise SingularMatrixError("exponents must be distinct mod the group order")
        add, mul, sub, inv, log = ctx.add, ctx.mul, ctx.sub, ctx.inv, ctx.log
        a = []
        inv_diag = []
        c_row = [1] + [0] * n   # h_m() of no nodes: h_0 = 1, zero above
        for i, (ai, zi) in enumerate(zip(exps, z)):
            # ln runs through L[i][j], j <= i, ending at L[i][i]
            ln = ctx.exp(ai * r)
            row = []
            for zj in z[:i]:
                row.append(log(ln))
                ln = mul(ln, sub(zi, zj))
            inv_diag.append(inv(ln))
            # C's row i from row i - 1: h_m(..z_i) = h_m(..z_(i-1)) + z_i h_(m-1)(..z_i)
            h = [1]
            for prev in c_row[1:-1]:
                h.append(add(prev, mul(zi, h[-1])))
            c_row = h
            row += [log(x) if x else -1 for x in h[1:]]
            a.append(row)
        self._ctx = ctx
        self._a = a
        self._inv_diag = inv_diag
        self.n = n

    def solve(self, rhs) -> list:
        ctx = self._ctx
        n = self.n
        if len(rhs) != n:
            raise ValueError("rhs length mismatch")
        mul, sub, log, sum_powers = ctx.mul, ctx.sub, ctx.log, ctx.sum_powers
        # forward: L y = rhs, into x with the logs in lx; zip stops at column i
        x, lx = [], []
        for row, b, inv_d in zip(self._a, rhs, self._inv_diag):
            v = mul(sub(b, sum_powers([lf + lv for lf, lv in zip(row, lx) if lv >= 0])), inv_d)
            x.append(v)
            lx.append(log(v) if v else -1)
        # back: C x = y in place from the last entry down; C[i][i + 1:] is row i from i on
        for i in range(n - 1, -1, -1):
            v = sub(x[i], sum_powers([lf + lv for lf, lv in zip(self._a[i][i:], lx[i + 1:])
                                      if lf >= 0 and lv >= 0]))
            x[i] = v
            lx[i] = log(v) if v else -1
        return x

