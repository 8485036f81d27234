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
The window's traces are linear in the helpers' traces, and so is
their part of the finish.  So the plan holds that part as one
coefficient per helper, s_((e - r) mod N), N = n - 1, built in closed
form (linalg), and a repair takes it as one sum over the helpers:
recover_missing_traces returns the sum of s_((e - r) mod N) tau_e;
gw_finish returns minus the sum of omega^e tau_e over the same helpers,
and a repair adds the two.  With d = 0 the window is empty and its
share is 0.  Both sums take the traces as logs, 2 N for a zero trace,
and run as the field's private _sum_products.  combine, which takes traces from
a caller, first refuses any outside B, which no helper sends, then
takes their logs once; the pipeline's own download is logs already.

Every per-helper step of a repair is a table read, with no field method
call per helper.  The download reads helper e's value v at the slot of
x0 + omega^e, log(x0 XOR omega^e) + 1 for p = 2, and ships the trace of
v / omega^e as its log, the trace-log table's entry at log v - e.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .cosets import (CosetCollection, FilteredCosets, dimension_profile,
                     enumerate_cosets, filter_cosets)
from .field import FieldTower, construct_field
from .rs import Codeword, position_point


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """Everything fixed once (field, k, window start r) is chosen.

    Built from the tower, its FilteredCosets for k and r alone: k, dim,
    the window, the helpers and the window's share are derived here, so
    no field can disagree with the others.
    """

    ctx: FieldTower
    cosets: FilteredCosets
    k: int = dc_field(init=False)
    r: int
    dim: int = dc_field(init=False)
    omitted_exps: tuple[int, ...] = dc_field(init=False)   # window order, may wrap
    helper_exps: tuple[int, ...] = dc_field(init=False)    # ascending
    _share: object = dc_field(init=False, repr=False)   # the window's share, per helper

    def __post_init__(self):
        ctx, fc, r = self.ctx, self.cosets, self.r
        if not isinstance(ctx, FieldTower) or not isinstance(fc, FilteredCosets):
            raise ValueError("a plan takes a FieldTower and FilteredCosets")
        omitted, helpers = _layout(ctx, fc, r)
        object.__setattr__(self, "k", fc.k)
        object.__setattr__(self, "dim", fc.dim)
        object.__setattr__(self, "omitted_exps", omitted)
        object.__setattr__(self, "helper_exps", helpers)
        object.__setattr__(self, "_share", linalg.LUFactorization(ctx, fc.selected, r, helpers))


def gw_max_k(ctx: FieldTower | CosetCollection) -> int:
    """Largest message length the trace recombination can finish.

    Only q and t are read, so the tower's coset collection serves too;
    anything else raises ValueError.
    """
    if not isinstance(ctx, (FieldTower, CosetCollection)):
        raise ValueError(f"expected a FieldTower or a CosetCollection, got {type(ctx).__name__}")
    n = ctx.q ** ctx.t
    return n - n // ctx.q


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
    """Fix the omitted window and build its share of the repair."""
    return RepairPlan(ctx, fc, r)


def _check_shape(plan: RepairPlan, traces) -> None:
    """Refuse anything but a plan, and anything but one trace per helper in a list or tuple."""
    if not isinstance(plan, RepairPlan):
        raise ValueError(f"plan must be a RepairPlan, got {type(plan).__name__}")
    if not isinstance(traces, (list, tuple)) or len(traces) != len(plan.helper_exps):
        raise ValueError("downloaded traces must list the helpers in helper_exps order")


def recover_missing_traces(plan: RepairPlan, tlogs) -> int:
    """The window's share of f(x0) from the logs of the helpers' traces.

    tlogs lists log tau_e in plan.helper_exps order, 2 N for tau_e = 0.
    Anything but a plan, or anything but a list or tuple of the right
    length, raises ValueError.  The entries are not read here: combine
    takes them from traces it checked, and the pipeline's are trace-log
    table entries.  The share is the sum over helpers e of
    s_((e - r) mod N) tau_e, the plan's one solve.
    """
    _check_shape(plan, tlogs)
    return plan._share.solve(tlogs)


def gw_finish(ctx: FieldTower, exps, tlogs) -> int:
    """The Guruswami-Wootters finish over the traces tau_e at exponents e.

    tau_e = trace(f(x0 + omega^e) / omega^e), in B, given by its log,
    2 (n - 1) for 0.  Expanding f(x0) over the dual basis and exchanging
    the sums gives f(x0) = -sum over every e < n - 1 of omega^e * tau_e;
    this is that sum's part over the exponents given.
    """
    return ctx.neg(ctx._sum_products(exps, tlogs))


def combine(plan: RepairPlan, traces) -> int:
    """f(x0) from the helpers' traces, listed in plan.helper_exps order.

    The window's share plus the helpers' part of the finish.  Anything
    but a plan, anything but a list or tuple of that length, or a trace
    outside B, or no field element at all, raises ValueError before
    either sum, naming the helper that sent it.
    """
    _check_shape(plan, traces)
    ctx = plan.ctx
    order, log, step, zero = ctx.order, ctx._log, ctx._base_step, ctx._log_zero
    for e, v in zip(plan.helper_exps, traces):
        # ctx.in_base_field's log test, inline: no method call per helper
        if not (type(v) is int and 0 <= v < order and (v == 0 or log[v] % step == 0)):
            raise ValueError(f"trace from helper w^{e} is not in the base field")
    tlogs = [log[v] if v else zero for v in traces]
    return ctx.add(recover_missing_traces(plan, tlogs), gw_finish(ctx, plan.helper_exps, tlogs))


@dataclass(frozen=True)
class BandwidthReport:
    helpers_contacted: int
    b_symbols: int
    bits: int


def repair_pipeline(ctx: FieldTower, k: int, r: int, cw: Codeword,
                    plan: RepairPlan) -> tuple[int, BandwidthReport]:
    """Repair the one erased position of cw, touching only helper traces.

    With x0 the erased point, the helper at exponent e is read in place
    at x0 + omega^e and ships tau_e = trace(f(x0 + omega^e) / omega^e),
    by table reads only: the slot, from the log table for p = 2 and the
    field's _logs_plus for odd p, then log tau_e, the trace-log table's
    entry at log v - e for the value v there, 2 (n - 1) for v = 0.  The
    window's share of the helpers' traces plus the finish is
    f(x0) = -sum over e of omega^e * tau_e.
    Returns the recovered value and the download accounting.  plan is
    build_plan's for (k, r); the caller builds it once for every erasure.
    """
    if cw.ctx is not ctx:
        raise ValueError("codeword built over a different field")
    if type(k) is not int or cw.k != k:
        raise ValueError(f"codeword has message length {cw.k}, not {k!r}")
    if len(cw.erased) != 1:
        raise ValueError("exactly one position must be erased")
    if not isinstance(plan, RepairPlan):
        raise ValueError(f"plan must be a RepairPlan, got {type(plan).__name__}")
    if plan.ctx is not ctx:
        raise ValueError("plan built over a different field")
    if plan.k != k or plan.r != r or type(r) is not int:
        raise ValueError("plan does not match requested (k, r)")

    (position,) = cw.erased
    helpers = plan.helper_exps
    values, log, tlog, zero = cw.values, ctx._log, ctx._trace_log, ctx._log_zero
    x0 = position_point(ctx, position)
    # Helper e sits at slot log(x0 + w^e) + 1, or at slot 0 where that
    # point is 0 (log[0] and _logs_plus give -1 there).  x0 + w^e != x0, and
    # cw has exactly one erasure, at x0, so no read below touches an erased
    # slot.  log v - e lies in (-N, N), and a negative index wraps mod N.
    if ctx.p == 2:
        antilog = ctx._antilog
        tlogs = [tlog[log[v] - e] if (v := values[log[x0 ^ antilog[e]] + 1]) else zero
                 for e in helpers]
    else:
        tlogs = [tlog[log[v] - e] if (v := values[ls + 1]) else zero
                 for e, ls in zip(helpers, ctx._logs_plus(x0, helpers))]
    # combine without its B test and its logs: every entry is a trace-log table's
    value = ctx.add(recover_missing_traces(plan, tlogs), gw_finish(ctx, helpers, tlogs))
    nsym = len(helpers)
    return value, BandwidthReport(nsym, nsym, nsym * ctx.bits_per_symbol)


def repair_at(ctx: FieldTower, k: int, r: int, cw: Codeword, position: int,
              plan: RepairPlan) -> tuple[int, BandwidthReport]:
    """Repair cw at position, which must be its one erasure, with plan.

    The value is f(x0) = -sum over e of omega^e * tau_e at the
    position's point x0, as repair_pipeline computes it with plan.
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
    before the plan's share is built.
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
    return RepairPlan(ctx, fc, doc["r"])
