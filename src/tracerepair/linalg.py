"""The window block's inverse, restricted to the coset leaders.

build_plan builds it once, by synthetic division of the polynomial
with the window block's nodes as roots, and recover_missing_traces
solves with it once per repair through the field's sum_powers kernel
and the trace.  The scalar rank and mat_mul that check it live in the
oracle, which shares no kernel with the repair path.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    pass


class LUFactorization:
    """Solves E x = b, E[a][c] = w^(a (r + c)), for x in B^d from b's leader entries.

    The rows a run over a union A of q-cyclotomic cosets, each listed a,
    a q, a q^2, ... from its leader a; d = |A| and c is the number of
    cosets.  E is a Vandermonde matrix in the nodes w^a, row a scaled by
    w^(a r), so by Lagrange interpolation column a of E^-1 holds
    w^(-a r) [z^j] Q_a(z) / P'(w^a), with P(z) the product over A of
    (z - w^a) and Q_a = P / (z - w^a) (Bjorck and Pereyra, Math. Comp.
    1970).  P has coefficients in B, so x -> x^q maps Q_a onto Q_(a q).
    When x lies in B, b_(a q) = b_a^q, so the terms of x_j from a coset
    C are the conjugates of its leader's, and they sum to their trace
    from GF(q^s) down to B, s = |C|.  With lambda_s any element of trace
    1 from F to GF(q^s),

        x_j = trace(sum over cosets C of Q_C[j] u_C),
        u_C = lambda_s w^(-a r) b_a / P'(w^a),  a the leader of C,

    d c terms and d traces per solve, against the d^2 terms of an LU
    factorization's forward and back substitution.  Row j holds the
    logs of the Q_C[j] over the cosets (-1 for zero), the int objects
    the log table holds, and r enters only through one scale log per
    coset.  The class keeps the name of the LU factorization it
    replaced, because the benchmark's layer names still refer to it.
    """

    def __init__(self, ctx, cosets, r):
        mod, q = ctx.order - 1, ctx.q
        exps = [a % mod for coset in cosets for a in coset]
        d = len(exps)
        if len(set(exps)) != d:
            raise SingularMatrixError("exponents must be distinct mod the group order")
        # distinct, and each listed a, a q, a q^2, ... back to a: each is a's coset
        if [a * q % mod for a in exps] != [b % mod for c in cosets for b in c[1:] + c[:1]]:
            raise ValueError("cosets must be q-cyclotomic, each listed from its leader")
        add, mul, neg, exp, log = ctx.add, ctx.mul, ctx.neg, ctx.exp, ctx.log
        # P's coefficients, constant term first, one factor z - w^a at a time
        poly = [1]
        for mz in map(neg, map(exp, exps)):
            poly.append(0)
            for j in range(len(poly) - 1, 0, -1):
                poly[j] = add(poly[j - 1], mul(mz, poly[j]))
            poly[0] = mul(mz, poly[0])
        # Q_C = P / (z - w^a) from the top down, Q_C[j - 1] = P[j] + w^a Q_C[j],
        # for every coset at once; row j holds the logs of the Q_C[j]
        leaders = [coset[0] for coset in cosets]
        row = [0] * len(cosets)   # Q_C[d - 1] = 1 = w^0
        rows = [row] if cosets else []
        for pj in reversed(poly[1:-1]):
            row = [log(x) if (x := add(pj, exp(a + lq)) if lq >= 0 else pj) else -1
                   for a, lq in zip(leaders, row)]
            rows.append(row)
        rows.reverse()
        # P'(w^a), from P' = sum of j P[j] z^(j - 1), j taken mod p
        p = ctx.p
        deriv = [(j - 1, log(mul(j % p, x))) for j, x in enumerate(poly) if j % p and x]
        lambdas = {ctx.t: 0}   # logs of the lambda_s; lambda_t = 1
        scales = []
        for coset in cosets:
            s = len(coset)
            if s not in lambdas:
                # w^i / y has trace 1 when w^i has trace y != 0
                i, y = next((i, y) for i in range(mod) if (y := _trace_to(ctx, exp(i), s)))
                lambdas[s] = (i - log(y)) % mod
            a = coset[0]
            deriv_at_a = ctx.sum_powers([lp + a * j % mod for j, lp in deriv])
            scales.append((lambdas[s] - a * r - log(deriv_at_a)) % mod)
        self._ctx = ctx
        self._rows = rows
        self._scales = scales

    def solve(self, leads) -> list:
        """x in window order from b's entries at the coset leaders, in coset order."""
        ctx = self._ctx
        if len(leads) != len(self._scales):
            raise ValueError("one right-hand side per coset leader")
        log, mod = ctx.log, ctx.order - 1
        # log u_C, -1 where the leader's entry is 0
        lu = [(scale + log(b)) % mod if b else -1 for scale, b in zip(self._scales, leads)]
        sum_powers, trace = ctx.sum_powers, ctx.trace
        return [trace(sum_powers([lq + lb for lq, lb in zip(row, lu) if lq >= 0 and lb >= 0]))
                for row in self._rows]


def _trace_to(ctx, x, s):
    """The trace of x from F down to GF(q^s), s dividing t."""
    acc, step = 0, ctx.q ** s
    for _ in range(ctx.t // s):
        acc = ctx.add(acc, x)
        x = ctx.pow(x, step)
    return acc

