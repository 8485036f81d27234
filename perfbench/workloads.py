"""The benchmark's workloads, their inputs and their correctness checks.

Every workload is a closed loop with one client: the next op starts when
the previous one has returned.  After set-up a workload draws a fixed
list of op inputs (towers, messages, positions, window starts) from the
seeded ``random.Random`` passed in; the package only ever receives those
generated values.  The timed loop runs the whole list again and again, in
passes, so every input is timed many times across the run and its best
time is known.  Every op checks its own output; a wrong symbol raises
``CheckError``.

Towers are (p, m, t) for GF(p^(m t)) over B = GF(p^m).  Each uses the
message length k = gw_max_k // 2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

STEADY_TOWER = (2, 5, 2)       # GF(1024) / GF(32)
WRITE_MIX_TOWER = (7, 1, 3)    # GF(343) / GF(7): odd p, t = 3
COLD_TOWERS = (
    (3, 1, 2),   # GF(9)   / GF(3)
    (2, 3, 2),   # GF(64)  / GF(8)
    (2, 2, 4),   # GF(256) / GF(4)
    (2, 4, 2),   # GF(256) / GF(16)
    (3, 1, 5),   # GF(243) / GF(3)
    (7, 1, 3),   # GF(343) / GF(7)
)
TOY_TOWER = (3, 1, 2)          # GF(9) / GF(3), for the smoke test

WORDS = 4   # live codewords a set-up encodes


class CheckError(AssertionError):
    """An op returned a wrong result."""


@dataclass
class Recorder:
    """Samples of one run: ms per kind of call and op input, downloads in B-symbols.

    ``input`` is the index of the op input being run; each timing is filed
    under it, so repeats of one input can be compared.
    """

    ms: dict = field(default_factory=dict)
    download: list = field(default_factory=list)
    window_d: list = field(default_factory=list)
    input: int = -1

    def time(self, kind: str, t0: float) -> None:
        self.ms.setdefault(kind, {}).setdefault(self.input, []).append(
            (perf_counter() - t0) * 1e3)

    def samples(self, kind: str) -> list:
        """Every time of one kind, in ms."""
        return [x for xs in self.ms.get(kind, {}).values() for x in xs]


@dataclass
class Prepared:
    """A tower with its plan and live codewords, built by a cold start."""

    ctx: object
    k: int
    fc: object
    r: int
    plan: object
    words: list


def digit_sum(p: int, values) -> int:
    """Sum of field elements as base-p digit vectors, independent of the package."""
    values = list(values)
    total, place = 0, 1
    while any(values):
        total += sum(v % p for v in values) % p * place
        values = [v // p for v in values]
        place *= p
    return total


def check_repair(expected: int, got: int, b_symbols: int, n: int, d: int,
                 k: int, t: int) -> None:
    """The recovered symbol is the stored one and the download is n - 1 - d.

    With d > 0 the download must also beat classical repair (k t symbols)
    and full-trace repair (n - 1 symbols).
    """
    if got != expected:
        raise CheckError(f"recovered {got}, stored {expected}")
    if b_symbols != n - 1 - d:
        raise CheckError(f"downloaded {b_symbols} symbols, expected {n - 1 - d}")
    if d > 0 and not b_symbols < min(k * t, n - 1):
        raise CheckError(f"download {b_symbols} does not beat k t = {k * t} and n - 1 = {n - 1}")


def message(ctx, k: int, rng) -> list:
    return [rng.randrange(ctx.order) for _ in range(k)]


def write(tr, ctx, msg: list, rec: Recorder):
    """Encode msg; checks f(0) and f(1) against the message."""
    t0 = perf_counter()
    cw = tr.encode(ctx, msg)
    rec.time("encode", t0)
    if cw.values[0] != msg[0] or cw.values[1] != digit_sum(ctx.p, msg):
        raise CheckError("codeword does not evaluate the message at 0 and 1")
    return cw


def read(tr, s: Prepared, cw, pos: int, rec: Recorder) -> None:
    """Erase one position of cw, repair it and check the result."""
    damaged = tr.erase(cw, pos)
    t0 = perf_counter()
    got, report = tr.repair_at(s.ctx, s.k, s.r, damaged, pos, s.plan)
    rec.time("repair", t0)
    rec.download.append(report.b_symbols)
    rec.window_d.append(s.fc.dim)
    check_repair(cw.values[pos], got, report.b_symbols, s.ctx.order, s.fc.dim,
                 s.k, s.ctx.t)


def seeded_draw(rng, r: int | None = None):
    """A draw for cold_start: window start r (seeded when None), message, position."""
    def draw(ctx, k):
        start = rng.randrange(ctx.order - 1) if r is None else r
        return start, message(ctx, k, rng), rng.randrange(ctx.order)
    return draw


def cold_start(tr, tower, draw, rec: Recorder) -> Prepared:
    """From tower parameters to one checked repaired symbol.

    ``draw(ctx, k)`` gives the window start r, the message and the
    position to repair.  Records the whole chain as one cold_repair time.
    """
    t0 = perf_counter()
    ctx = tr.construct_field(*tower)
    k = tr.gw_max_k(ctx) // 2
    fc = tr.filter_cosets(tr.enumerate_cosets(ctx.q, ctx.t), k)
    r, msg, pos = draw(ctx, k)
    plan = tr.build_plan(ctx, fc, r)
    s = Prepared(ctx, k, fc, r, plan, [write(tr, ctx, msg, rec)])
    read(tr, s, s.words[0], pos, rec)
    rec.time("cold_repair", t0)
    return s


class SteadyRepair:
    """repair_at with a prebuilt plan on GF(1024)/GF(32); nothing else timed.

    An input is a live codeword and the position to repair in it.
    """

    tower = STEADY_TOWER
    setups = 3
    n_inputs = 20

    def __init__(self, tr, toy: bool):
        self.tr = tr
        if toy:
            self.tower = TOY_TOWER
        self.state = None

    def setup(self, rng) -> None:
        self.state = None   # free the previous plan: peak memory holds one
        rec = Recorder()
        s = cold_start(self.tr, self.tower, seeded_draw(rng, r=0), rec)
        s.words += [write(self.tr, s.ctx, message(s.ctx, s.k, rng), rec)
                    for _ in range(WORDS - 1)]
        self.state = s

    def inputs(self, rng) -> list:
        return [(rng.randrange(WORDS), rng.randrange(self.state.ctx.order))
                for _ in range(self.n_inputs)]

    def op(self, x, rec: Recorder) -> None:
        word, pos = x
        read(self.tr, self.state, self.state.words[word], pos, rec)

    def counting_cases(self, rng):
        s = self.state
        cw = write(self.tr, s.ctx, message(s.ctx, s.k, rng), Recorder())
        yield s, cw, rng.randrange(s.ctx.order)


class WriteMix(SteadyRepair):
    """Writes and reads alternate on GF(343)/GF(7) with a prebuilt plan.

    A write input is a message and the ring slot it overwrites, oldest
    first; a read input is a slot and the position to repair in it.
    """

    tower = WRITE_MIX_TOWER
    setups = 9   # cheap, so more set-up samples
    n_inputs = 48   # 24 writes and 24 reads

    def inputs(self, rng) -> list:
        s = self.state
        xs = []
        for j in range(self.n_inputs // 2):
            xs.append(("write", j % WORDS, message(s.ctx, s.k, rng)))
            xs.append(("read", rng.randrange(WORDS), rng.randrange(s.ctx.order)))
        return xs

    def op(self, x, rec: Recorder) -> None:
        s = self.state
        kind, slot, arg = x
        if kind == "write":
            s.words[slot] = write(self.tr, s.ctx, arg, rec)
        else:
            read(self.tr, s, s.words[slot], arg, rec)


class ColdRepair:
    """Every op starts from tower parameters; one input per tower.

    An input is a tower with its window start, message and position.
    Set-up is one warm-up rotation, which also learns each tower's order
    and k for drawing the inputs.
    """

    setups = 3

    def __init__(self, tr, toy: bool):
        self.tr = tr
        self.towers = (TOY_TOWER,) if toy else COLD_TOWERS
        self.shapes = []

    def setup(self, rng) -> None:
        self.shapes = []
        for tower in self.towers:
            s = cold_start(self.tr, tower, seeded_draw(rng), Recorder())
            self.shapes.append((s.ctx.order, s.k))

    def inputs(self, rng) -> list:
        return [(tower, rng.randrange(order - 1), [rng.randrange(order) for _ in range(k)],
                 rng.randrange(order))
                for tower, (order, k) in zip(self.towers, self.shapes)]

    def op(self, x, rec: Recorder) -> None:
        tower, r, msg, pos = x
        cold_start(self.tr, tower, lambda ctx, k: (r, msg, pos), rec)

    def counting_cases(self, rng):
        for tower in self.towers:
            s = cold_start(self.tr, tower, seeded_draw(rng), Recorder())
            yield s, s.words[0], rng.randrange(s.ctx.order)


WORKLOADS = {
    "steady_repair": SteadyRepair,
    "cold_repair": ColdRepair,
    "write_mix": WriteMix,
}
