"""Command-line front end.

Subcommands: cosets, dim, plan, repair, bandwidth, verify.  All output
is byte-deterministic for a fixed invocation; randomised paths take an
explicit --seed.  Exit codes: 0 success, 1 verification mismatch,
2 usage error.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys

from .cosets import enumerate_cosets, filter_cosets
from .field import check_tower, construct_field
from .oracle import VERIFICATION_FIELDS, brute_repair_check, equivalence_report
from .repair import (bandwidth_table, build_plan, gw_max_k, plan_to_dict,
                     repair_pipeline)
from .rs import encode, erase


def fmt_elem(ctx, x: int) -> str:
    return "0" if x == 0 else f"w^{ctx.log(x)}"


def _fmt_coset(c) -> str:
    return "{" + ",".join(str(e) for e in sorted(c.elements)) + "}"


def _cosets_for(args):
    check_tower(args.p, args.m, args.t)
    return enumerate_cosets(args.p ** args.m, args.t)


def cmd_cosets(args, out) -> int:
    cc = _cosets_for(args)
    if args.format == "json":
        print(json.dumps([sorted(c.elements) for c in cc.cosets]), file=out)
    else:
        for c in cc.cosets:
            print(_fmt_coset(c), file=out)
    return 0


def cmd_dim(args, out) -> int:
    fc = filter_cosets(_cosets_for(args), args.k)
    if args.format == "json":
        doc = {
            "k": fc.k,
            "d": fc.dim,
            "selected": [sorted(c.elements) for c in fc.selected],
            "removed": [sorted(c.elements) for c in fc.removed],
        }
        print(json.dumps(doc), file=out)
    else:
        print(f"k = {fc.k}", file=out)
        print(f"d = {fc.dim}", file=out)
        print("selected: " + " ".join(_fmt_coset(c) for c in fc.selected), file=out)
        print("removed: " + " ".join(_fmt_coset(c) for c in fc.removed), file=out)
    return 0


def _plan_for(args):
    """The plan for (k, r) over the tower the arguments name."""
    ctx = construct_field(args.p, args.m, args.t)
    return build_plan(ctx, filter_cosets(enumerate_cosets(ctx.q, ctx.t), args.k), args.r)


def cmd_plan(args, out) -> int:
    print(json.dumps(plan_to_dict(_plan_for(args)), indent=2), file=out)
    return 0


def cmd_repair(args, out) -> int:
    # the plan refuses a bad k or r and draws no random numbers, so it
    # comes before the message, which draws k of them
    plan = _plan_for(args)
    ctx = plan.ctx
    rng = random.Random(args.seed)
    cw = encode(ctx, tuple(rng.randrange(ctx.order) for _ in range(args.k)))
    got, report = repair_pipeline(ctx, args.k, args.r, erase(cw, 0), plan)
    match = got == cw.values[0]
    if args.format == "json":
        doc = {
            "recovered": fmt_elem(ctx, got),
            "match": match,
            "helpers": report.helpers_contacted,
            "b_symbols": report.b_symbols,
            "bits": report.bits,
        }
        print(json.dumps(doc), file=out)
    else:
        print(f"recovered = {fmt_elem(ctx, got)}", file=out)
        print(f"match = {str(match).lower()}", file=out)
        print(f"helpers = {report.helpers_contacted}", file=out)
        print(f"b_symbols = {report.b_symbols}", file=out)
        print(f"bits = {report.bits}", file=out)
    return 0 if match else 1


def cmd_bandwidth(args, out) -> int:
    cc = _cosets_for(args)  # the rows need no field tables
    k_max = args.k_max if args.k_max is not None else gw_max_k(cc)
    rows = bandwidth_table(cc, k_max)
    print("k,classical,gw,ours", file=out)
    for row in rows:
        print(f"{row.k},{row.classical},{row.gw},{row.ours}", file=out)
    return 0


def cmd_verify(args, out) -> int:
    if args.p is not None:
        fields = [(args.p, args.m, args.t)]
    else:
        fields = list(VERIFICATION_FIELDS)
    rows = equivalence_report(fields)
    ok = all(r["ok"] for r in rows)

    checks = []
    for p, m, t in fields:
        ctx = construct_field(p, m, t)
        kmax = gw_max_k(ctx)
        for k in sorted({1, max(1, kmax // 2), kmax}):
            trials = None if ctx.order ** k <= 2000 else 50
            passed = brute_repair_check(ctx, k, 0, trials=trials, seed=args.seed)
            checks.append({"p": p, "m": m, "t": t, "k": k, "ok": passed})
    ok = ok and all(c["ok"] for c in checks)

    if args.format == "json":
        print(json.dumps({"rows": rows, "repair_checks": checks, "ok": ok}), file=out)
    else:
        for r in rows:
            flag = "ok" if r["ok"] else "MISMATCH"
            print(f"p={r['p']} m={r['m']} t={r['t']} k={r['k']} "
                  f"formula={r['formula']} oracle={r['oracle']} {flag}", file=out)
        for c in checks:
            flag = "ok" if c["ok"] else "FAIL"
            print(f"repair p={c['p']} m={c['m']} t={c['t']} k={c['k']} {flag}", file=out)
        print("all checks passed" if ok else "verification FAILED", file=out)
    return 0 if ok else 1


def _field_args(sp, required=True):
    sp.add_argument("--p", type=int, required=required)
    sp.add_argument("--m", type=int, required=required)
    sp.add_argument("--t", type=int, required=required)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="tracerepair")
    ap.add_argument("--output", help="write to this path instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("cosets", help="cyclotomic cosets of the exponent ring")
    _field_args(sp)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_cosets)

    sp = sub.add_parser("dim", help="repair-space dimension for one k")
    _field_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_dim)

    sp = sub.add_parser("plan", help="serialize the repair plan for (k, r)")
    _field_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.set_defaults(func=cmd_plan)

    sp = sub.add_parser("repair", help="round-trip a random codeword repair")
    _field_args(sp)
    sp.add_argument("--k", type=int, required=True)
    sp.add_argument("--r", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_repair)

    sp = sub.add_parser("bandwidth", help="per-k download counts as CSV")
    _field_args(sp)
    sp.add_argument("--k-max", type=int, default=None)
    sp.set_defaults(func=cmd_bandwidth)

    sp = sub.add_parser("verify", help="formula vs brute-force cross-check")
    _field_args(sp, required=False)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify" and len({args.p is None, args.m is None, args.t is None}) != 1:
        print("error: --p, --m, --t must be given together", file=sys.stderr)
        return 2
    try:
        if not args.output:
            return args.func(args, sys.stdout)
        # the file is opened only once the command has returned, so a
        # refused command leaves an existing file as it was
        buf = io.StringIO()
        code = args.func(args, buf)
        try:
            with open(args.output, "w", newline="\n") as out:
                out.write(buf.getvalue())
        except OSError as exc:
            raise ValueError(f"cannot write {args.output}: {exc.strerror}") from exc
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
