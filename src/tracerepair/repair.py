"""Single-erasure repair of any position from base-field traces.

The erased position holds f(x0).  Helpers and window are named by
exponent, as in the paper: the helper at x0 + omega^e normally ships
one B-symbol, tau_e = trace(f(x0 + omega^e) / omega^e), and the
Guruswami-Wootters recombination f(x0) = -sum over e of omega^e * tau_e
rebuilds the erased value.  Nothing depends on where x0 lies: the
helper traces of f at x0 are those of g(x) = f(x0 + x) at 0, and g has
the degree of f, so one plan serves every position.

The selected cyclotomic cosets give a set A of exponents, and for each
a in A the codeword satisfies the check

    sum over e of omega^(a e) * tau_e = 0.

A window of d = |A| consecutive powers of the primitive element can
therefore have its traces reconstructed from everyone else instead of
downloaded: the window block E = (omega^(a (r + c))) is a Vandermonde
matrix in the distinct nodes omega^a, row a scaled by omega^(a r).
Every downloaded tau_e lies in B, so the check sum at a q is the q-th
power of the one at a, and each selected coset needs its sum at its
first exponent, its leader, only.  The plan keeps E's inverse on the
leaders' columns, one synthetic division of the polynomial with the
nodes as roots per coset, and each repair takes every window trace as
one trace down to B of a sum over the c selected cosets: d c terms.
The check sums are taken by baby steps and giant steps over a split
N = n - 1 = R L that the plan picks; L = 1 is one direct sum per
coset.  With d = 0 the window and E are empty.  The finish is minus
the same sum at a = 1 over the trace vector, entry e tau_e.  combine
runs recover_missing_traces and then gw_finish on the helpers' traces,
and refuses a download outside B, which the fold would turn wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .cosets import (CosetCollection, FilteredCosets, dimension_profile,
                     enumerate_cosets, filter_cosets)
from .field import FieldTower, _prime_factors, construct_field
from .rs import Codeword, position_point


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """Everything fixed once (field, k, window start r) is chosen."""

    ctx: FieldTower
    cosets: FilteredCosets
    k: int
    r: int
    dim: int
    omitted_exps: tuple[int, ...]   # window order, may wrap
    helper_exps: tuple[int, ...]    # ascending
    _e_lu: object = dc_field(repr=False)
    _stride: int = dc_field(repr=False)   # R of the check sums' split


def gw_max_k(ctx: FieldTower | CosetCollection) -> int:
    """Largest message length the trace recombination can finish.

    Only q and t are read, so the tower's coset collection serves too.
    """
    n = ctx.q ** ctx.t
    return n - n // ctx.q


# One sum_powers call costs about as much as 8 of the terms handed to it:
# about 0.8 us against 0.1 us a term at GF(1024), CPython 3.11 on a Xeon.
_CALL_TERMS = 8


def _check_sum_stride(mod: int, helpers: int, cosets: int) -> int:
    """The divisor R of N = mod whose split makes the check sums cheapest.

    With L = N / R the split hands sum_powers L h + c min(R, h) terms in
    N + c calls, h helpers and c selected cosets; L = 1 is the direct sums,
    c h terms in c calls.
    """
    divisors = [1]
    for f in _prime_factors(mod):
        powers = [1]
        while mod % (powers[-1] * f) == 0:
            powers.append(powers[-1] * f)
        divisors = [x * y for x in divisors for y in powers]

    def cost(stride):
        steps = mod // stride
        baby = steps * helpers + _CALL_TERMS * mod if steps > 1 else 0
        return baby + cosets * (min(stride, helpers) + _CALL_TERMS)

    return min(divisors, key=cost)


def _layout(ctx: FieldTower, fc: FilteredCosets, r: int) -> tuple[tuple, tuple]:
    """Check fc and r; the window {omega^r, ..., omega^(r+d-1)} and helpers by exponent."""
    if fc.collection.q != ctx.q or fc.collection.t != ctx.t:
        raise ValueError("coset collection does not match field")
    if fc.k > gw_max_k(ctx):
        raise ValueError(f"k must be at most {gw_max_k(ctx)} for trace repair, got {fc.k}")
    d, mod = fc.dim, ctx.order - 1
    if type(r) is not int:
        raise ValueError(f"r must be an integer, got {r!r}")
    if not 0 <= r < mod:
        raise ValueError(f"r must be in [0, {mod - 1}], got {r}")
    return (tuple((r + c) % mod for c in range(d)),
            tuple(e for e in range(mod) if (e - r) % mod >= d))


def build_plan(ctx: FieldTower, fc: FilteredCosets, r: int) -> RepairPlan:
    """Fix the omitted window and invert its block."""
    return _plan(ctx, fc, r, *_layout(ctx, fc, r))


def _plan(ctx: FieldTower, fc: FilteredCosets, r: int, omitted, helpers) -> RepairPlan:
    # E: rows omega^(a (r + c)), c < d, one per a in A
    return RepairPlan(ctx, fc, fc.k, r, fc.dim, omitted, helpers,
                      linalg.LUFactorization(ctx, [c.elements for c in fc.selected], r),
                      _check_sum_stride(ctx.order - 1, len(helpers), len(fc.selected)))


def recover_missing_traces(plan: RepairPlan, downloaded) -> list:
    """Fill in the window: the full trace vector from the helpers' traces.

    downloaded lists the traces in plan.helper_exps order; entry e of
    the result is tau_e.  Anything but a list or tuple of the right length
    raises ValueError, as does a trace outside B or no field element at
    all, naming its helper: the Frobenius fold below holds only in B.
    """
    ctx = plan.ctx
    if not isinstance(downloaded, (list, tuple)) or len(downloaded) != len(plan.helper_exps):
        raise ValueError("downloaded traces must list the helpers in helper_exps order")
    for e, v in zip(plan.helper_exps, downloaded):
        if not (type(v) is int and 0 <= v < ctx.order and ctx.in_base_field(v)):
            raise ValueError(f"trace from helper w^{e} is not in the base field")
    mod, stride = ctx.order - 1, plan._stride
    steps = mod // stride
    logs = [(e, ctx.log(v)) for e, v in zip(plan.helper_exps, downloaded) if v]
    # The check sum S_a = sum over e of omega^(a e) * tau_e, split at
    # N = R L (Cooley and Tukey 1965).  Baby steps: write e = u + s with
    # s = e mod R; u is a multiple of R, so omega^(a u) depends on a mod L
    # only, and B_s[m] = sum over e = s (mod R) of omega^(u m) * tau_e is
    # one sum_powers call for each s < R and m < L.  Giant steps:
    # S_a = sum over s of omega^(a s) * B_s[a mod L], at most R terms.
    # With L = 1, B_s[0] is tau_s and the giant steps are the direct sums.
    # baby[m] lists (s, log B_s[m]) over the nonzero B_s[m], and
    # twiddles[m][j] is log omega^(u m) for u = R j.
    if steps == 1:
        baby = [logs]
    else:
        groups = [[] for _ in range(stride)]
        for e, lv in logs:
            groups[e % stride].append((e // stride, lv))
        baby = [[] for _ in range(steps)]
        twiddles = [[stride * (j * m % steps) for j in range(steps)] for m in range(steps)]
        sum_powers, log = ctx.sum_powers, ctx.log
        for s, group in enumerate(groups):
            for row, tw in zip(baby, twiddles):
                v = sum_powers([tw[j] + lv for j, lv in group])
                if v:
                    row.append((s, log(v)))
    # A coset is listed a, a q, a q^2, ..., and each tau_e is fixed by
    # x -> x^q, so S_(a q) = S_a^q: the giant step runs at the coset's
    # first exponent only, and the solve needs no other.
    leads = [ctx.neg(ctx.sum_powers([a * s % mod + lb for s, lb in baby[a % steps]]))
             for a in (coset.elements[0] for coset in plan.cosets.selected)]
    traces = [0] * mod
    for e, v in zip(plan.helper_exps + plan.omitted_exps,
                    [*downloaded, *plan._e_lu.solve(leads)]):
        traces[e] = v
    return traces


def gw_finish(ctx: FieldTower, traces) -> int:
    """Recombine the trace vector that recover_missing_traces returns into f(x0).

    Entry e of traces is tau_e = trace(f(x0 + omega^e) / omega^e), in B.
    Expanding f(x0) over the dual basis and exchanging the sums gives
    f(x0) = -sum over e of omega^e * tau_e, the check sum at 1 negated.
    """
    return ctx.neg(ctx.sum_powers([e + ctx.log(v) for e, v in enumerate(traces) if v]))


def combine(plan: RepairPlan, traces) -> int:
    """f(x0) from the helpers' traces, listed in plan.helper_exps order.

    Anything but a list or tuple of that length, or a trace outside B, raises ValueError.
    """
    return gw_finish(plan.ctx, recover_missing_traces(plan, traces))


@dataclass(frozen=True)
class BandwidthReport:
    helpers_contacted: int
    b_symbols: int
    bits: int


def repair_pipeline(ctx: FieldTower, k: int, r: int, cw: Codeword,
                    plan: RepairPlan | None = None) -> tuple[int, BandwidthReport]:
    """Repair the one erased position of cw, touching only helper traces.

    With x0 the erased point, the helper at exponent e is read in place
    at x0 + omega^e and ships tau_e = trace(f(x0 + omega^e) / omega^e);
    combine recovers the window's traces from the others and returns
    f(x0) = -sum over e of omega^e * tau_e.
    Returns the recovered value and the download accounting.  A prebuilt
    plan for the same (k, r) may be passed to amortise setup across many
    erasures, at any positions.
    """
    if cw.ctx is not ctx:
        raise ValueError("codeword built over a different field")
    if type(k) is not int or cw.k != k:
        raise ValueError(f"codeword has message length {cw.k}, not {k!r}")
    if len(cw.erased) != 1:
        raise ValueError("exactly one position must be erased")
    if plan is None:
        cc = enumerate_cosets(ctx.q, ctx.t)
        plan = build_plan(ctx, filter_cosets(cc, k), r)
    elif plan.ctx is not ctx:
        raise ValueError("plan built over a different field")
    elif plan.k != k or plan.r != r or type(r) is not int:
        raise ValueError("plan does not match requested (k, r)")

    (position,) = cw.erased
    x0 = position_point(ctx, position)
    add, mul, inv, log, trace = ctx.add, ctx.mul, ctx.inv, ctx.log, ctx.trace
    downloaded = []
    for e in plan.helper_exps:
        a = ctx.exp(e)
        x = add(x0, a)
        downloaded.append(trace(mul(cw.value_at(log(x) + 1 if x else 0), inv(a))))
    nsym = len(plan.helper_exps)
    return combine(plan, downloaded), BandwidthReport(nsym, nsym, nsym * ctx.bits_per_symbol)


def repair_at(ctx: FieldTower, k: int, r: int, cw: Codeword, position: int,
              plan: RepairPlan | None = None) -> tuple[int, BandwidthReport]:
    """Repair cw at position, which must be its one erasure.

    The value is f(x0) = -sum over e of omega^e * tau_e at the
    position's point x0, as computed by repair_pipeline.
    """
    if type(position) is not int or cw.erased != {position}:
        raise ValueError(f"exactly position {position!r} must be erased")
    return repair_pipeline(ctx, k, r, cw, plan)


@dataclass(frozen=True)
class BandwidthRow:
    k: int
    classical: int
    gw: int
    ours: int


def bandwidth_table(ctx: FieldTower | CosetCollection,
                    k_max: int) -> tuple[BandwidthRow, ...]:
    """Download counts in B-symbols for k = 1 .. k_max, scheme by scheme.

    Only q, t and the cosets are read, so the tower's coset collection
    may stand in for the tower, and then no field tables are built.
    """
    if type(k_max) is not int or not 1 <= k_max <= gw_max_k(ctx):
        raise ValueError(f"k_max must be in [1, {gw_max_k(ctx)}], got {k_max}")
    cc = ctx if isinstance(ctx, CosetCollection) else enumerate_cosets(ctx.q, ctx.t)
    dims = dimension_profile(cc)
    n = cc.modulus + 1
    return tuple(BandwidthRow(k, k * cc.t, n - 1, n - 1 - dims[k - 1])
                 for k in range(1, k_max + 1))


# -- plan serialization ---------------------------------------------

def plan_to_dict(plan: RepairPlan) -> dict:
    """Portable summary of a plan; field elements as discrete-log exponents."""
    ctx = plan.ctx
    return {
        "p": ctx.p,
        "m": ctx.m,
        "t": ctx.t,
        "k": plan.k,
        "r": plan.r,
        "d": plan.dim,
        "omitted": list(plan.omitted_exps),
        "helpers": list(plan.helper_exps),
        "cosets": [list(c.elements) for c in plan.cosets.selected],
    }


def plan_from_dict(doc: dict) -> RepairPlan:
    """Rebuild a plan from its summary and cross-check the stored fields.

    A malformed document raises ValueError naming the offending field,
    before the O(d^2) build of the window block's inverse.
    """
    if not isinstance(doc, dict):
        raise ValueError("plan document must be a JSON object")
    for key in ("p", "m", "t", "k", "r", "d", "omitted", "helpers", "cosets"):
        if key not in doc:
            raise ValueError(f"plan document missing {key!r}")
        if key in ("p", "m", "t", "k", "r") and type(doc[key]) is not int:
            raise ValueError(f"plan document field {key!r} must be an integer")
    ctx = construct_field(doc["p"], doc["m"], doc["t"])
    fc = filter_cosets(enumerate_cosets(ctx.q, ctx.t), doc["k"])
    omitted, helpers = _layout(ctx, fc, doc["r"])
    derived = {"d": fc.dim, "omitted": list(omitted), "helpers": list(helpers),
               "cosets": [list(c.elements) for c in fc.selected]}
    for key, want in derived.items():
        # repr, unlike ==, tells 1 from True and from 1.0
        if repr(doc[key]) != repr(want):
            raise ValueError(f"plan document inconsistent at {key!r}")
    return _plan(ctx, fc, doc["r"], omitted, helpers)
