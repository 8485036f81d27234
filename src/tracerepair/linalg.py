"""The window's share of a repair, one coefficient per helper, built once per plan.

Recovering the window's traces and the Guruswami-Wootters finish are
both linear in the helpers' traces, so the window's part of f(x0) is
one sum over the helpers with coefficients fixed by the plan.
build_plan builds them here, in closed form and in discrete logs, and
recover_missing_traces applies them once per repair through the
field's sum_powers kernel.  The scalar elimination that checks them
lives in the oracle, which shares no kernel with the repair path.
"""

from __future__ import annotations


class SingularMatrixError(ValueError):
    pass


class LUFactorization:
    """The window's share of f(x0), s_((e - r) mod N) per helper e, as logs.

    The rows a of the window block E[a][c] = w^(a (r + c)), c < d, run
    over a union A of q-cyclotomic cosets, each listed a, a q, a q^2, ...
    from its leader; d = |A| and N = order - 1.  The window's traces x
    solve E x = b, b_a = -sum over helpers e of w^(a e) tau_e, and the
    finish adds -sum over c of w^(r + c) x_c to f(x0).  That is
    sum over helpers e of s_((e - r) mod N) tau_e, s_j the sum over a of
    mu_a w^(a j), where sum over a of mu_a w^(a c) = w^(r + c) for c < d:
    a transposed Vandermonde system in the nodes w^a, solved by
    interpolation at w (Bjorck and Pereyra, Math. Comp. 1970),

        mu_a = w^r P(w) / (P'(w^a) (w - w^a)),  P(z) = product over A of (z - w^a).

    With L[i] = log(w^i - 1), log(w - w^a) = a + L[1 - a], log P(w) is
    their sum over A, and log P'(w^a) is the sum over b != a of
    b + L[a - b].  P has coefficients in B, so P'(w^(a q)) = P'(w^a)^q,
    and only the c coset leaders need that sum: c d integer adds.  Then
    s is one length-N transform of the mu, and w may not be a node: A
    must not hold 1, whose coset the filter always drops.

    The class keeps the name of the LU factorization it replaced,
    because the benchmark's layer names refer to it: linalg.lu_factor
    times this build, inside build_plan, and linalg.lu_solve times
    solve, the one sum of n - 1 - d terms per repair.
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
        if 1 % mod in exps:
            raise ValueError("exponent 1 would make w a node")
        minus_one = ctx.logs_minus_one()
        twice = minus_one + minus_one   # twice[a + N - b] = L[a - b], a and b in [0, N)
        negs = [mod - b for b in exps]
        to_w = [a + minus_one[(1 - a) % mod] for a in exps]   # log(w - w^a)
        top = r + sum(to_w)   # log w^r P(w)
        total = sum(exps)
        mu = [-1] * mod   # log mu_a at a, -1 off A
        i = 0
        for coset in cosets:
            a = exps[i]
            # log P'(w^a) at the leader; the b = a term adds L[0] = -1
            deriv = total - a + 1 + sum([twice[a + nb] for nb in negs])
            for _ in coset:
                mu[exps[i]] = (top - deriv - to_w[i]) % mod
                deriv = deriv * q % mod
                i += 1
        s, log = ctx.transform(mu), ctx.log
        self._ctx = ctx
        self._share = [log(v) if (v := s[(e - r) % mod]) else -1
                       for e in range(mod) if (e - r) % mod >= d]

    def solve(self, traces) -> int:
        """The window's share of f(x0) from the helpers' traces, in helper order."""
        log = self._ctx.log
        return self._ctx.sum_powers([ls + log(v) for ls, v in zip(self._share, traces)
                                     if v and ls >= 0])
