"""Repair benchmark for the tracerepair package.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload steady_repair --seed 1 --seconds 10 --trace 0

Imports tracerepair from the checkout's ``src`` directory, runs one
workload from ``workloads.py`` for ``--seconds`` seconds in a single
thread, checks every op, and prints one line per metric followed by a
last line of JSON: ``{"correct", "attempted", "failed", "metrics"}``.
Metric names, units and directions come from ``BENCHMARK.json``.

The timed loop runs the workload's fixed list of op inputs in whole
passes.  ``--trace 0`` measures the end-to-end metrics: set-up is
repeated and its median reported, then every op of the loop runs on the
package and on a frozen reference copy of it (``reference/``), back to
back, and the timings are reported as ratios of the two.  A shared
host's speed can drift by up to 2x for seconds at a time; both sides of
a pair feel the same drift, so the ratio stays put where a raw time
does not.  The package's raw latencies are printed and recorded too,
without a bound.  ``--trace 1`` gives the per-layer split instead:
set-up once, then traced and untraced passes in turn, then a counting
pass for field operations.  A layer whose callable is absent or never
called has the value null.  A result file with the run's provenance
(and, traced, every span) is written under ``perfbench/results/``.
Exit status: 0 when every op was correct, 1 when any op failed, 2 on a
usage error or a missing source tree.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "tracerepair"
MIN_PASSES = 4   # so a traced run has two traced and two untraced passes
MIN_TAIL = 100   # samples behind a p90: 10 of them beyond it

def load_package():
    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no {PACKAGE} source under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import tracerepair
    return tracerepair


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def load_reference():
    """The frozen copy of the package that end-to-end runs time every op against."""
    sys.path.insert(0, str(Path(__file__).resolve().parent / "reference"))
    import tracerepair_ref
    return tracerepair_ref


def run_op(workload, i: int, x, rec, tracer=None) -> int:
    """Input i once; returns 1 when the op failed, else 0.

    The op's whole time is filed as kind ``op``.  With a tracer, the op's
    spans carry the input's index.
    """
    rec.input = i
    if tracer is not None:
        tracer.op = i
    t0 = perf_counter()
    try:
        workload.op(x, rec)
    except Exception as exc:  # noqa: BLE001 -- every failure is counted
        print(f"{workload.tr.__name__}: input {i} failed: {exc!r}", file=sys.stderr)
        return 1
    rec.time("op", t0)
    return 0


def run_pass(workload, inputs, rec, tracer=None) -> int:
    """Every input once, in order; returns how many ops failed."""
    return sum(run_op(workload, i, x, rec, tracer) for i, x in enumerate(inputs))


def run_paired_pass(sides, inputs, j: int) -> int:
    """Every input once on each (workload, recorder) side, back to back.

    The side that goes first alternates from input to input and from pass
    to pass.  Returns how many ops failed on either side.
    """
    failed = 0
    for i, x in enumerate(inputs):
        for workload, rec in (sides if (i + j) % 2 == 0 else sides[::-1]):
            failed += run_op(workload, i, x, rec)
    return failed


def run_loop(seconds: float, one_pass):
    """Closed loop of whole passes until the deadline, at least MIN_PASSES.

    ``one_pass(j)`` runs the j-th pass and returns its failures.
    Returns (passes, failed).
    """
    passes = failed = 0
    deadline = perf_counter() + seconds
    while passes < MIN_PASSES or perf_counter() < deadline:
        failed += one_pass(passes)
        passes += 1
    return passes, failed


def latencies(rec):
    """Median, and p90 where MIN_TAIL samples allow, of each kind of timed call.

    Returns the values and each one's sample count.
    """
    values, counts = {}, {}
    for kind in rec.ms:
        if kind == "op":
            continue
        xs = rec.samples(kind)
        values[f"{kind}_ms_p50"] = statistics.median(xs)
        if len(xs) >= MIN_TAIL:
            values[f"{kind}_ms_p90"] = statistics.quantiles(xs, n=10)[-1]
        counts[f"{kind}_ms_p50"] = counts[f"{kind}_ms_p90"] = f"n = {len(xs)}"
    return values, counts


def end_to_end(tr, make, rng, seconds: float):
    """Set-ups (median reported), then timed passes paired with the reference.

    ``make(package)`` gives the workload on a package.  Every op of the
    loop runs on the package under test and on the reference copy, back
    to back.  A ``*_time_vs_ref`` metric is the package's total time in
    that kind of call over the reference's: a drift in the host's speed
    slows both sides alike.  Peak memory is taken after the package's
    set-ups, before the reference is set up.  The package's own raw
    latencies and rate are printed and recorded without a bound.
    """
    work, ref = make(tr), make(load_reference())
    setup_s = []
    for _ in range(work.setups):
        state = rng.getstate()
        t0 = perf_counter()
        work.setup(rng)
        setup_s.append(perf_counter() - t0)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The reference repeats the package's last set-up, input for input.
    ref_rng = random.Random()
    ref_rng.setstate(state)
    ref.setup(ref_rng)
    inputs = work.inputs(rng)
    rec, ref_rec = workloads.Recorder(), workloads.Recorder()
    passes, failed = run_loop(
        seconds, lambda j: run_paired_pass(((work, rec), (ref, ref_rec)), inputs, j))

    def vs_ref(kind):
        return sum(rec.samples(kind)) / sum(ref_rec.samples(kind))

    ops = rec.samples("op")
    metrics = {
        "repair_time_vs_ref": vs_ref("repair"),
        "op_time_vs_ref": vs_ref("op"),
        "setup_s": statistics.median(setup_s),
        "download_symbols_per_repair": statistics.fmean(rec.download),
        "peak_rss_mib": peak_rss_mib,
    }
    counts = {
        "repair_time_vs_ref": f"{len(rec.samples('repair'))} pairs",
        "op_time_vs_ref": f"{len(ops)} pairs",
        "setup_s": f"median of {len(setup_s)}",
    }
    raw, raw_counts = latencies(rec)
    raw["ops_per_s"] = len(ops) / sum(ops) * 1e3
    raw_counts["ops_per_s"] = "package time only"
    extra = {"samples_ms": rec.ms, "reference_samples_ms": ref_rec.ms,
             "setup_ms": [s * 1e3 for s in setup_s]}
    return 2 * passes * len(inputs), failed, metrics | raw, counts | raw_counts, extra


def per_layer(tr, workload, rng, count_rng, seconds: float):
    """One traced set-up, the passes traced and untraced in turn, counts.

    A layer's ``*_ms`` metric is its mean self time per call over the
    traced set-up and passes, or None when it was never called.  The
    tracing overhead compares the repair p50 over the traced passes with
    that over the untraced ones between them, so a drift in the host's
    speed falls on both.  Coverage is the pass spans' self time over the
    traced passes' wall time.
    """
    tracer = tracing.Tracer()
    with tracing.instrument(PACKAGE, tracer) as absent:
        workload.setup(rng)
    inputs = workload.inputs(rng)
    plain, traced = workloads.Recorder(), workloads.Recorder()
    traced_s = 0.0

    def one_pass(j):
        nonlocal traced_s
        if j % 2 == 0:
            return run_pass(workload, inputs, plain)
        with tracing.instrument(PACKAGE, tracer):
            t0 = perf_counter()
            failed = run_pass(workload, inputs, traced, tracer)
            traced_s += perf_counter() - t0
        return failed

    passes, failed = run_loop(seconds, one_pass)

    callers = {name: caller for name, _, _, caller in tracing.TARGETS}
    selfs = tracer.self_times()
    calls, self_s, loop_calls = Counter(), Counter(), Counter()
    loop_self = 0.0
    for span, dt in zip(tracer.spans, selfs):
        if span.op != "setup":
            loop_calls[span.name] += 1
            loop_self += dt
        caller = callers.get(span.name)
        if caller is None or span.parent >= 0 and tracer.spans[span.parent].name == caller:
            calls[span.name] += 1
            self_s[span.name] += dt

    metrics = {f"{name}_ms": (self_s[name] / calls[name] * 1e3 if calls[name] else None)
               for name in callers}
    metrics.update(count_pass(tr, workload, count_rng))
    base = statistics.median(plain.samples("repair"))
    metrics.update({
        "repair.window_d": statistics.fmean(traced.window_d),
        "repair.plan_builds_per_repair":
            loop_calls["repair.build_plan"] / max(loop_calls["repair.shift"], 1),
        "trace.overhead_pct":
            (statistics.median(traced.samples("repair")) - base) / base * 100,
        "trace.coverage_pct": loop_self / traced_s * 100,
    })
    extra = {
        "absent": absent,
        "calls": calls,
        "spans": [list(s) for s in tracer.spans],
    }
    return passes * len(inputs), failed, metrics, {}, extra


def count_pass(tr, workload, rng):
    """Field operations per plan build and per repair, means over the cases.

    An operation the field does not have counts as None.
    """
    per_plan, per_repair = [], []
    for s, cw, pos in workload.counting_cases(rng):
        with tracing.counting(s.ctx) as counts:
            plan = tr.build_plan(s.ctx, s.fc, s.r)
        per_plan.append(counts)
        s = dataclasses.replace(s, plan=plan)
        with tracing.counting(s.ctx) as counts:
            workloads.read(tr, s, cw, pos, workloads.Recorder())
        per_repair.append(counts)

    def mean(op, samples):
        return statistics.fmean(c[op] for c in samples) if op in samples[0] else None

    out = {f"field.{op}_per_repair": mean(op, per_repair) for op in tracing.COUNTED_OPS}
    out["field.mul_per_plan"] = mean("mul", per_plan)
    return out


def main(argv=None, toy: bool = False) -> int:
    """Run one workload; ``toy`` shrinks every tower to GF(9)/GF(3)."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tr = load_package()

    def make(package):
        return workloads.WORKLOADS[args.workload](package, toy)

    rng = random.Random(args.seed)
    if args.trace:
        # The counting pass draws from its own stream, so its counts do not
        # depend on how many ops the timed loop got through.
        count_rng = random.Random(f"count:{args.seed}")
        attempted, failed, values, counts, extra = per_layer(tr, make(tr), rng, count_rng,
                                                             args.seconds)
    else:
        attempted, failed, values, counts, extra = end_to_end(tr, make, rng, args.seconds)

    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec[kind]}
    if set(declared) - set(values):
        raise RuntimeError(f"metrics {sorted(set(declared) - set(values))} "
                           f"of BENCHMARK.json {kind} were not measured")
    # An end-to-end run also gives the package's raw latencies and rate,
    # which BENCHMARK.json does not bound.
    shown = {name: declared.get(name) or (("1/s", "higher") if name == "ops_per_s"
                                          else ("ms", "lower"))
             for name in values}

    for name, (unit, better) in shown.items():
        if values[name] is None:
            print(f"{name} = absent")
            continue
        notes = [f"{better} is better"]
        if name in counts:
            notes.append(counts[name])
        if name not in declared:
            notes.append("no bound")
        print(f"{name} = {values[name]:.6g} {unit} ({', '.join(notes)})")
    print(f"failed_ops_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops failed)")
    if extra.get("absent"):
        print("absent: " + " ".join(extra["absent"]))

    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    record = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "toy": toy,
        "python": platform.python_version(), "platform": platform.platform(),
        "cpu_count": os.cpu_count(), "commit": git_commit(),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit, "better": better,
                           "samples": counts.get(name)}
                    for name, (unit, better) in shown.items()},
        **extra,
    }
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in declared.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
