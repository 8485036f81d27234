"""Single-erasure repair of the value at 0 from base-field traces.

Every helper normally ships one B-symbol, the trace of its value scaled
by the inverse evaluation point.  The selected cyclotomic cosets give a
set A of exponents, and for each a in A the codeword satisfies the
check

    sum over e of omega^(a e) * tau_e = 0,   tau_e = trace(f(omega^e) / omega^e).

A window of d = |A| consecutive powers of the primitive element can
therefore have its traces reconstructed from everyone else instead of
downloaded: the window block E = (omega^(a (r + c))) is a Vandermonde
matrix in the distinct nodes omega^a, so it is LU-factored once per
plan and each repair costs one forward and one back substitution.  The
remaining n - 1 - d traces are finished into the erased value by the
Guruswami-Wootters recombination f(0) = -sum over a of a * tau_a.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .cosets import FilteredCosets, enumerate_cosets, filter_cosets
from .field import FieldTower, construct_field
from .rs import Codeword, position_point


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """Everything fixed once (field, k, window start r) is chosen."""

    ctx: FieldTower
    cosets: FilteredCosets
    k: int
    r: int
    dim: int
    omitted_exps: tuple[int, ...]               # window order, may wrap
    helper_exps: tuple[int, ...]                # ascending
    window_powers: tuple[tuple[int, ...], ...]  # E: rows omega^(a (r + c)), a in A
    _e_lu: object = dc_field(repr=False, default=None)

    @property
    def omitted(self) -> tuple[int, ...]:
        return tuple(self.ctx.exp(e) for e in self.omitted_exps)

    @property
    def helpers(self) -> tuple[int, ...]:
        return tuple(self.ctx.exp(e) for e in self.helper_exps)


def gw_max_k(ctx: FieldTower) -> int:
    """Largest message length the trace recombination can finish."""
    return ctx.order - ctx.order // ctx.q


def build_plan(ctx: FieldTower, fc: FilteredCosets, r: int) -> RepairPlan:
    """Fix the omitted window {omega^r, ..., omega^(r+d-1)} and factor it."""
    if fc.collection.q != ctx.q or fc.collection.t != ctx.t:
        raise ValueError("coset collection does not match field")
    k = fc.k
    if k > gw_max_k(ctx):
        raise ValueError(f"k must be at most {gw_max_k(ctx)} for trace repair, got {k}")
    n = ctx.order
    if not 0 <= r <= n - 2:
        raise ValueError(f"r must be in [0, {n - 2}], got {r}")
    d = fc.dim
    mod = n - 1

    omitted_exps = tuple((r + c) % mod for c in range(d))
    window = set(omitted_exps)
    helper_exps = tuple(e for e in range(mod) if e not in window)

    if d == 0:
        return RepairPlan(ctx, fc, k, r, 0, omitted_exps, helper_exps, ())

    window_rows = tuple(
        tuple(ctx.exp(a * (r + c) % mod) for c in range(d))
        for coset in fc.selected for a in coset.elements
    )
    return RepairPlan(ctx, fc, k, r, d, omitted_exps, helper_exps, window_rows,
                      linalg.LUFactorization(ctx, window_rows))


def recover_missing_traces(plan: RepairPlan, downloaded) -> dict:
    """Reconstruct the window traces from the downloaded ones.

    Returns {point: trace} for the d window points.
    """
    ctx = plan.ctx
    helpers = plan.helpers
    if set(downloaded) != set(helpers):
        raise ValueError("downloaded traces must cover exactly the helper set")
    if plan.dim == 0:
        return {}
    add, exp, log = ctx.add, ctx.exp, ctx.log
    # omega^(a e) * tau_e is one antilog lookup once log tau_e is known.
    logs = []
    for e, a in zip(plan.helper_exps, helpers):
        v = downloaded[a]
        if v:
            logs.append((e, log(v)))
    rhs = []
    for coset in plan.cosets.selected:
        for a in coset.elements:
            acc = 0
            for e, lv in logs:
                acc = add(acc, exp(a * e + lv))
            rhs.append(ctx.neg(acc))
    window = plan._e_lu.solve(rhs)
    entries = {}
    for a, v in zip(plan.omitted, window):
        if not ctx.in_base_field(v):
            raise AssertionError("recovered trace left the base field")
        entries[a] = v
    return entries


def gw_finish(ctx: FieldTower, traces, k: int) -> int:
    """Recombine a full trace vector {point: trace} into the erased value f(0).

    Expanding f(0) over the dual basis and exchanging the sums gives
    f(0) = -sum over a of a * trace(f(a) / a).
    """
    if k > gw_max_k(ctx):
        raise ValueError(f"k must be at most {gw_max_k(ctx)} for trace repair, got {k}")
    entries = dict(traces)
    if len(entries) != ctx.order - 1 or 0 in entries:
        raise ValueError("need traces for every nonzero point")
    add, mul = ctx.add, ctx.mul
    acc = 0
    for a, fa in entries.items():
        acc = add(acc, mul(a, fa))
    return ctx.neg(acc)


@dataclass(frozen=True)
class BandwidthReport:
    helpers_contacted: int
    b_symbols: int
    bits: int


def repair_pipeline(ctx: FieldTower, k: int, r: int, cw: Codeword,
                    plan: RepairPlan | None = None) -> tuple[int, BandwidthReport]:
    """Repair the erased value at 0, touching only helper traces.

    Returns the recovered value and the download accounting.  A prebuilt
    plan for the same (k, r) may be passed to amortise setup across many
    erasures.
    """
    if cw.ctx is not ctx:
        raise ValueError("codeword built over a different field")
    if cw.k != k:
        raise ValueError(f"codeword has message length {cw.k}, not {k}")
    if cw.erased != {0}:
        raise ValueError("exactly position 0 must be erased")
    if plan is None:
        cc = enumerate_cosets(ctx.q, ctx.t)
        plan = build_plan(ctx, filter_cosets(cc, k), r)
    elif plan.k != k or plan.r != r:
        raise ValueError("plan does not match requested (k, r)")

    mul, inv, trace = ctx.mul, ctx.inv, ctx.trace
    entries = {}
    for e in plan.helper_exps:
        a = ctx.exp(e)
        entries[a] = trace(mul(cw.value_at(e + 1), inv(a)))

    entries.update(recover_missing_traces(plan, entries))
    f0 = gw_finish(ctx, entries, k)
    nsym = len(plan.helper_exps)
    report = BandwidthReport(nsym, nsym, nsym * ctx.bits_per_symbol)
    return f0, report


def repair_at(ctx: FieldTower, k: int, r: int, cw: Codeword, position: int,
              plan: RepairPlan | None = None) -> tuple[int, BandwidthReport]:
    """Repair an arbitrary erased position by shifting it onto 0.

    Substituting x + a for x re-indexes the codeword so the erased point
    lands at 0; the plan itself is unchanged.
    """
    if cw.erased != {position}:
        raise ValueError(f"exactly position {position} must be erased")
    if position == 0:
        return repair_pipeline(ctx, k, r, cw, plan)
    a = position_point(ctx, position)
    values = []
    for j in range(ctx.order):
        b = ctx.add(position_point(ctx, j), a)
        src = 0 if b == 0 else ctx.log(b) + 1
        values.append(0 if src == position else cw.values[src])
    shifted = Codeword(ctx, cw.k, tuple(values), frozenset({0}))
    return repair_pipeline(ctx, k, r, shifted, plan)


@dataclass(frozen=True)
class BandwidthRow:
    k: int
    classical: int
    gw: int
    ours: int


def bandwidth_table(ctx: FieldTower, k_max: int) -> tuple[BandwidthRow, ...]:
    """Download counts in B-symbols for k = 1 .. k_max, scheme by scheme."""
    if not 1 <= k_max <= gw_max_k(ctx):
        raise ValueError(f"k_max must be in [1, {gw_max_k(ctx)}], got {k_max}")
    cc = enumerate_cosets(ctx.q, ctx.t)
    n = ctx.order
    rows = []
    for k in range(1, k_max + 1):
        d = filter_cosets(cc, k).dim
        rows.append(BandwidthRow(k, k * ctx.t, n - 1, n - 1 - d))
    return tuple(rows)


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

    A malformed document raises ValueError naming the offending field.
    """
    if not isinstance(doc, dict):
        raise ValueError("plan document must be a JSON object")
    for key in ("p", "m", "t", "k", "r", "d", "omitted", "helpers", "cosets"):
        if key not in doc:
            raise ValueError(f"plan document missing {key!r}")
    for key in ("p", "m", "t", "k", "r"):
        if type(doc[key]) is not int:
            raise ValueError(f"plan document field {key!r} must be an integer")
    ctx = construct_field(doc["p"], doc["m"], doc["t"])
    cc = enumerate_cosets(ctx.q, ctx.t)
    plan = build_plan(ctx, filter_cosets(cc, doc["k"]), doc["r"])
    stored = plan_to_dict(plan)
    for key in ("d", "omitted", "helpers", "cosets"):
        if stored[key] != doc[key]:
            raise ValueError(f"plan document inconsistent at {key!r}")
    return plan
