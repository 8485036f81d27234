"""Span recording and field-operation counting for the traced run.

Spans are recorded by replacing public callables of the tracerepair
package with wrappers, in every package namespace that binds them, so a
call the package makes internally (repair_at -> repair_pipeline ->
recover_missing_traces -> LUFactorization.solve) still nests under its
caller.  Nothing inside the package is edited; the replacement lasts for
one ``instrument`` block.

Field-operation counts come from a separate pass (``counting``) that
wraps one FieldTower instance's methods, so counting never inflates
span times.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, namedtuple
from contextlib import contextmanager
from time import perf_counter

# (span name, module under the package, callable or Class.method, caller).
# A layer's metric counts only the spans called from ``caller`` when one is
# given: the LU also runs inside construct_field (the dual basis), and the
# layers measured here are the plan's factorisations and the repair's solves.
TARGETS = (
    ("field.construct", "field", "construct_field", None),
    ("cosets.enumerate", "cosets", "enumerate_cosets", None),
    ("cosets.filter", "cosets", "filter_cosets", None),
    ("rs.encode", "rs", "encode", None),
    ("repair.build_plan", "repair", "build_plan", None),
    ("repair.shift", "repair", "repair_at", None),
    ("repair.download", "repair", "repair_pipeline", None),
    ("repair.recover", "repair", "recover_missing_traces", None),
    ("repair.gw_finish", "repair", "gw_finish", None),
    ("linalg.lu_factor", "linalg", "LUFactorization.__init__", "repair.build_plan"),
    ("linalg.lu_solve", "linalg", "LUFactorization.solve", "repair.recover"),
)

COUNTED_OPS = ("mul", "add", "trace")

Span = namedtuple("Span", "name start end parent op")


class Tracer:
    """In-memory span log; spans of one op share the current ``op`` id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = "setup"
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = Span(name, start, end, parent, self.op)

        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.end - s.start
        return [s.end - s.start - c for s, c in zip(self.spans, covered)]


def _resolve(package: str, module: str, path: str):
    """(owner, attribute name, original) or None when any part is missing."""
    try:
        owner = importlib.import_module(f"{package}.{module}")
    except ModuleNotFoundError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    orig = getattr(owner, attr, None)
    return None if orig is None else (owner, attr, orig)


@contextmanager
def instrument(package: str, tracer: Tracer):
    """Wrap every target for the duration of the block.

    Yields the span names whose target does not exist in this version of
    the package; those are reported as absent instead of failing.
    """
    undo, absent = [], []
    try:
        for span, module, path, _ in TARGETS:
            found = _resolve(package, module, path)
            if found is None:
                absent.append(span)
                continue
            owner, attr, orig = found
            wrapped = tracer.wrap(span, orig)
            holders = [m for name, m in list(sys.modules.items())
                       if name == package or name.startswith(package + ".")]
            if not isinstance(owner, type(sys)):
                holders.append(owner)
            for holder in holders:
                for name, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, name, wrapped)
                        undo.append((holder, name, orig))
        yield absent
    finally:
        for holder, name, orig in reversed(undo):
            setattr(holder, name, orig)


@contextmanager
def counting(ctx):
    """Count calls of ctx.mul, ctx.add and ctx.trace, internal calls included.

    The wrappers are instance attributes, so they see the calls the
    field's own methods make through ``self`` as well.  An operation the
    field does not have gets no key in the yielded counts.
    """
    names = [n for n in COUNTED_OPS if hasattr(ctx, n)]
    counts = Counter(dict.fromkeys(names, 0))
    shadowed = {n: vars(ctx)[n] for n in names if n in vars(ctx)}

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    for name in names:
        setattr(ctx, name, counted(name, getattr(ctx, name)))
    try:
        yield counts
    finally:
        for name in names:
            if name in shadowed:
                setattr(ctx, name, shadowed[name])
            else:
                delattr(ctx, name)
