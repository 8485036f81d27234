"""Single-erasure repair of the value at 0 from base-field traces.

Every helper normally ships one B-symbol, the trace of its value scaled
by the inverse evaluation point.  The selected cyclotomic cosets give a
d-dimensional space of base-field-valued check vectors, and a window of
d consecutive powers of the primitive element can have its traces
reconstructed from everyone else instead of downloaded.  The remaining
n - 1 - d traces are finished into the erased value by the
Guruswami-Wootters recombination over the dual basis.

The reconstruction solves T_I x = -(T_rest f_rest) through the exact
factorization T_I = V E, with V block-diagonal per coset (Vandermonde in
the Frobenius conjugates of the coset's shift base) and E a row-scaled
Vandermonde in the coset exponents.  Both factors are LU-factored once
per plan; repairs then cost two substitutions per erasure and no inverse
is ever materialised.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .cosets import FilteredCosets, enumerate_cosets, filter_cosets
from .field import FieldTower, construct_field
from .rs import Codeword, erase_zero, position_point


@dataclass(frozen=True)
class TracePoly:
    """B-valued polynomial attached to one coset and one shift.

    terms are (exponent, coefficient) pairs; the exponents run over the
    coset and the coefficients are the matching Frobenius conjugates of
    the shift power.
    """

    terms: tuple[tuple[int, int], ...]

    def eval(self, ctx: FieldTower, x: int) -> int:
        acc = 0
        add, mul, pw = ctx.add, ctx.mul, ctx.pow
        for e, c in self.terms:
            acc = add(acc, mul(c, pw(x, e)))
        return acc


def _shift_stride(ctx: FieldTower, coset_size: int) -> int:
    """Discrete log of the shift base for a coset of this size.

    Coefficients must come from GF(q^s), the subfield a size-s coset is
    stable under, or the polynomial leaves B on evaluation; omega to
    this stride generates that subfield.  For s = t the stride is 1 and
    the base is the primitive element itself.
    """
    return (ctx.order - 1) // (ctx.q ** coset_size - 1)


def trace_poly(ctx: FieldTower, fc: FilteredCosets, i: int, shift: int) -> TracePoly:
    """Basis polynomial for selected coset i at the given shift."""
    coset = fc.selected[i]
    if not 0 <= shift < coset.size:
        raise ValueError(f"shift must be in [0, {coset.size - 1}], got {shift}")
    mod = ctx.order - 1
    q = ctx.q
    stride = _shift_stride(ctx, coset.size)
    terms = []
    qj = 1
    for e in coset.elements:
        terms.append((e, ctx.exp(shift * stride * qj % mod)))
        qj = qj * q % mod
    return TracePoly(tuple(terms))


@dataclass(frozen=True, eq=False)
class RepairPlan:
    """Everything fixed once (field, k, window start r) is chosen."""

    ctx: FieldTower
    cosets: FilteredCosets
    k: int
    r: int
    dim: int
    row_labels: tuple[tuple[int, int], ...]     # (selected coset index, shift)
    polys: tuple[TracePoly, ...]
    trace_matrix: tuple[tuple[int, ...], ...]   # dim rows, column e = value at omega^e
    omitted_exps: tuple[int, ...]               # window order, may wrap
    helper_exps: tuple[int, ...]                # ascending
    vander_blocks: tuple[tuple[int, ...], ...]  # block-diagonal factor V
    window_powers: tuple[tuple[int, ...], ...]  # coset-point power factor E
    _v_lu: object = dc_field(repr=False, default=None)
    _e_lu: object = dc_field(repr=False, default=None)

    @property
    def omitted(self) -> tuple[int, ...]:
        return tuple(self.ctx.exp(e) for e in self.omitted_exps)

    @property
    def helpers(self) -> tuple[int, ...]:
        return tuple(self.ctx.exp(e) for e in self.helper_exps)

    def verify_factorization(self) -> bool:
        """Check T restricted to the window equals V E, entry by entry."""
        if self.dim == 0:
            return True
        prod = linalg.mat_mul(self.ctx, self.vander_blocks, self.window_powers)
        for row, prow in zip(self.trace_matrix, prod):
            for c, e in enumerate(self.omitted_exps):
                if row[e] != prow[c]:
                    return False
        return True


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

    row_labels = []
    polys = []
    for ci, coset in enumerate(fc.selected):
        for shift in range(coset.size):
            row_labels.append((ci, shift))
            polys.append(trace_poly(ctx, fc, ci, shift))
    trace_matrix = tuple(
        tuple(poly.eval(ctx, ctx.exp(e)) for e in range(mod)) for poly in polys
    )

    omitted_exps = tuple((r + c) % mod for c in range(d))
    window = set(omitted_exps)
    helper_exps = tuple(e for e in range(mod) if e not in window)

    if d == 0:
        return RepairPlan(ctx, fc, k, r, 0, tuple(row_labels), tuple(polys),
                          trace_matrix, omitted_exps, helper_exps, (), ())

    # V: one block per coset; block column j holds the powers of the
    # j-th Frobenius conjugate of the coset's shift base.
    vander = [[0] * d for _ in range(d)]
    base = 0
    q = ctx.q
    for coset in fc.selected:
        s = coset.size
        stride = _shift_stride(ctx, s)
        for shift in range(s):
            qj = 1
            for j in range(s):
                vander[base + shift][base + j] = ctx.exp(shift * stride * qj % mod)
                qj = qj * q % mod
        base += s
    vander = tuple(tuple(row) for row in vander)

    # E: row per (coset, conjugate) with entries (omega^a)^(r+c).
    window_rows = []
    for coset in fc.selected:
        for a in coset.elements:
            window_rows.append(tuple(ctx.exp(a * (r + c) % mod) for c in range(d)))
    window_rows = tuple(window_rows)

    v_lu = linalg.LUFactorization(ctx, vander)
    e_lu = linalg.LUFactorization(ctx, window_rows)
    return RepairPlan(ctx, fc, k, r, d, tuple(row_labels), tuple(polys),
                      trace_matrix, omitted_exps, helper_exps,
                      vander, window_rows, v_lu, e_lu)


@dataclass(eq=False)
class TraceVector:
    """The n - 1 base-field values trace(f(a)/a), keyed by the point a."""

    entries: dict
    provenance: dict  # point -> "downloaded" | "recovered"


def recover_missing_traces(plan: RepairPlan, downloaded) -> TraceVector:
    """Reconstruct the window traces from the downloaded ones."""
    ctx = plan.ctx
    if isinstance(downloaded, TraceVector):
        downloaded = downloaded.entries
    helpers = plan.helpers
    if set(downloaded) != set(helpers):
        raise ValueError("downloaded traces must cover exactly the helper set")
    if plan.dim == 0:
        return TraceVector({}, {})
    add, mul, neg = ctx.add, ctx.mul, ctx.neg
    rhs = []
    for row in plan.trace_matrix:
        acc = 0
        for e, a in zip(plan.helper_exps, helpers):
            c = row[e]
            v = downloaded[a]
            if c and v:
                acc = add(acc, mul(c, v))
        rhs.append(neg(acc))
    y = plan._v_lu.solve(rhs)
    window = plan._e_lu.solve(y)
    entries = {}
    for a, v in zip(plan.omitted, window):
        if not ctx.in_base_field(v):
            raise AssertionError("recovered trace left the base field")
        entries[a] = v
    return TraceVector(entries, {a: "recovered" for a in entries})


def gw_finish(ctx: FieldTower, traces, k: int) -> int:
    """Recombine a full trace vector into the erased value f(0)."""
    if k > gw_max_k(ctx):
        raise ValueError(f"k must be at most {gw_max_k(ctx)} for trace repair, got {k}")
    entries = traces.entries if isinstance(traces, TraceVector) else dict(traces)
    if len(entries) != ctx.order - 1 or 0 in entries:
        raise ValueError("need traces for every nonzero point")
    add, mul, neg, trace = ctx.add, ctx.mul, ctx.neg, ctx.trace
    f0 = 0
    for u, v in zip(ctx.power_basis, ctx.dual_basis):
        acc = 0
        for a, fa in entries.items():
            if fa:
                acc = add(acc, mul(trace(mul(u, a)), fa))
        f0 = add(f0, mul(neg(acc), v))
    return f0


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
    provenance = {a: "downloaded" for a in entries}

    recovered = recover_missing_traces(plan, entries)
    entries.update(recovered.entries)
    provenance.update(recovered.provenance)

    f0 = gw_finish(ctx, TraceVector(entries, provenance), k)
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
    """Rebuild a plan from its summary and cross-check the stored fields."""
    ctx = construct_field(doc["p"], doc["m"], doc["t"])
    cc = enumerate_cosets(ctx.q, ctx.t)
    plan = build_plan(ctx, filter_cosets(cc, doc["k"]), doc["r"])
    stored = plan_to_dict(plan)
    for key in ("d", "omitted", "helpers", "cosets"):
        if stored[key] != doc[key]:
            raise ValueError(f"plan document inconsistent at {key!r}")
    return plan
