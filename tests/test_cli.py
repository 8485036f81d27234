from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tracerepair import cli, oracle
from tracerepair.cli import main
from tracerepair.field import TABLE_LIMIT, FieldTower, is_prime


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cosets_text(capsys) -> None:
    code, out, _ = run(capsys, "cosets", "--p", "3", "--m", "1", "--t", "2")
    assert code == 0
    assert out == "{0}\n{1,3}\n{2,6}\n{4}\n{5,7}\n"


def test_cosets_sorted_within(capsys) -> None:
    code, out, _ = run(capsys, "cosets", "--p", "2", "--m", "1", "--t", "3")
    assert code == 0
    assert out == "{0}\n{1,2,4}\n{3,5,6}\n"


def test_cosets_json(capsys) -> None:
    code, out, _ = run(capsys, "cosets", "--p", "3", "--m", "1", "--t", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == [[0], [1, 3], [2, 6], [4], [5, 7]]


def test_dim_text(capsys) -> None:
    code, out, _ = run(capsys, "dim", "--p", "3", "--m", "1", "--t", "2", "--k", "3")
    assert code == 0
    assert "d = 3" in out
    assert "selected: {2,6} {4}" in out


def test_dim_json(capsys) -> None:
    code, out, _ = run(capsys, "dim", "--p", "3", "--m", "1", "--t", "2", "--k", "3",
                       "--format", "json")
    doc = json.loads(out)
    assert doc == {"k": 3, "d": 3, "selected": [[2, 6], [4]],
                   "removed": [[0], [1, 3], [5, 7]]}


def test_plan_document(capsys) -> None:
    code, out, _ = run(capsys, "plan", "--p", "3", "--m", "1", "--t", "2",
                       "--k", "3", "--r", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 3 and doc["k"] == 3 and doc["r"] == 0
    assert doc["d"] == 3
    assert doc["omitted"] == [0, 1, 2]
    assert doc["helpers"] == [3, 4, 5, 6, 7]
    assert doc["cosets"] == [[2, 6], [4]]


def test_repair_gf9(capsys) -> None:
    code, out, _ = run(capsys, "repair", "--p", "3", "--m", "1", "--t", "2",
                       "--k", "3", "--seed", "7", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["b_symbols"] == 5
    assert doc["bits"] == 10
    assert doc["recovered"] == "0" or doc["recovered"].startswith("w^")


def test_repair_degenerate_gf4(capsys) -> None:
    code, out, _ = run(capsys, "repair", "--p", "2", "--m", "1", "--t", "2",
                       "--k", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["b_symbols"] == 3


def test_repair_gf64(capsys) -> None:
    code, out, _ = run(capsys, "repair", "--p", "2", "--m", "3", "--t", "2",
                       "--k", "56", "--seed", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["match"] is True
    assert doc["b_symbols"] == 63  # d = 0 at k = 56


def test_repair_refuses_k_and_r_before_drawing_the_message(capsys, monkeypatch) -> None:
    # k = 7 exceeds the trace-repair bound 6 on GF(9); 10^12 random draws would hang
    def no_encode(*args):
        raise AssertionError("message drawn and encoded before k and r were checked")

    monkeypatch.setattr(cli, "encode", no_encode)
    for k, r, refusal in (("7", "0", "k must be"), (str(10 ** 12), "0", "k must be"),
                          ("3", "8", "r must be")):
        code, out, err = run(capsys, "repair", "--p", "3", "--m", "1", "--t", "2",
                             "--k", k, "--r", r)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and refusal in err


def test_bandwidth_csv(capsys) -> None:
    code, out, _ = run(capsys, "bandwidth", "--p", "3", "--m", "1", "--t", "2",
                       "--k-max", "6")
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "k,classical,gw,ours"
    assert lines[3] == "3,6,8,5"
    assert lines[-1] == ""  # single trailing LF
    assert "\r" not in out


def test_bandwidth_default_k_max(capsys) -> None:
    code, out, _ = run(capsys, "bandwidth", "--p", "2", "--m", "3", "--t", "2")
    assert code == 0
    lines = [l for l in out.split("\n") if l]
    assert len(lines) == 57  # header + k = 1..56
    assert lines[1] == "1,2,63,2"
    assert lines[56] == "56,112,63,63"


def test_bandwidth_builds_no_tables(capsys, monkeypatch) -> None:
    def no_tables(*args):
        raise AssertionError("field tables built for bandwidth")

    monkeypatch.setattr(FieldTower, "__init__", no_tables)
    code, out, _ = run(capsys, "bandwidth", "--p", "3", "--m", "1", "--t", "2",
                       "--k-max", "2")
    assert (code, out) == (0, "k,classical,gw,ours\n1,2,8,2\n2,4,8,3\n")
    code, out, err = run(capsys, "bandwidth", "--p", "3", "--m", "1", "--t", "2",
                         "--k-max", "7")
    assert (code, out, err) == (2, "", "error: k_max must be in [1, 6], got 7\n")


def test_bandwidth_deterministic(capsys) -> None:
    _, first, _ = run(capsys, "bandwidth", "--p", "2", "--m", "2", "--t", "2")
    _, second, _ = run(capsys, "bandwidth", "--p", "2", "--m", "2", "--t", "2")
    assert first == second


def test_output_file(tmp_path, capsys) -> None:
    path = tmp_path / "table.csv"
    code, out, _ = run(capsys, "--output", str(path), "bandwidth",
                       "--p", "3", "--m", "1", "--t", "2", "--k-max", "2")
    assert code == 0
    assert out == ""
    assert path.read_bytes() == b"k,classical,gw,ours\n1,2,8,2\n2,4,8,3\n"


def test_output_path_that_cannot_be_opened(tmp_path, capsys) -> None:
    for path in (tmp_path / "missing" / "x.txt", tmp_path):
        code, out, err = run(capsys, "--output", str(path), "dim",
                             "--p", "3", "--m", "1", "--t", "2", "--k", "3")
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err


def test_verify_single_field(capsys) -> None:
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "1", "--t", "2")
    assert code == 0
    lines = [l for l in out.split("\n") if l.startswith("p=")]
    assert len(lines) == 8  # k = 1..8
    assert all(l.endswith(" ok") for l in lines)
    assert "all checks passed" in out


def test_verify_fault_injection(capsys, monkeypatch) -> None:
    # the brute-force side is shifted: filter_cosets also feeds the repair
    # checks, where a wrong dimension stops the run instead of failing a row
    real = oracle.brute_dim
    monkeypatch.setattr(oracle, "brute_dim", lambda ctx, k: real(ctx, k) + 1)
    code, out, _ = run(capsys, "verify", "--p", "3", "--m", "1", "--t", "2")
    assert code == 1
    lines = [l for l in out.split("\n") if l.startswith("p=")]
    assert len(lines) == 8 and all(l.endswith(" MISMATCH") for l in lines)
    assert "verification FAILED" in out
    # no hidden switch is left to fake a failure
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--inject-fault"])
    assert exc.value.code == 2


def test_verify_json(capsys) -> None:
    code, out, _ = run(capsys, "verify", "--p", "2", "--m", "1", "--t", "2",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert len(doc["rows"]) == 3


def test_verify_refuses_large_tower_at_once(capsys) -> None:
    # GF(343): the brute-force sweep would run for many minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--p", "7", "--m", "1", "--t", "3")
    assert time.perf_counter() - start < 5
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "verify limit 81" in err


def test_verify_partial_field_flags(capsys) -> None:
    code, _, err = run(capsys, "verify", "--p", "3")
    assert code == 2
    assert "together" in err


def test_usage_error_nonprime(capsys) -> None:
    code, _, err = run(capsys, "cosets", "--p", "6", "--m", "1", "--t", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("command", [["cosets"], ["dim", "--k", "3"]])
def test_usage_error_over_table_limit(capsys, command) -> None:
    # refused by size before trial division of p, which would take seconds
    code, out, err = run(capsys, *command, "--p", "100000000000031", "--m", "1", "--t", "1")
    assert code == 2
    assert out == ""
    assert "error:" in err and "table limit" in err


def test_usage_error_bad_k(capsys) -> None:
    code, _, err = run(capsys, "dim", "--p", "3", "--m", "1", "--t", "2", "--k", "9")
    assert code == 2
    assert "error:" in err


def _run_module(*argv):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "tracerepair", *argv], cwd=root,
                          env=env, capture_output=True, timeout=60)


def test_module_entry_point(capsys) -> None:
    argv = ("dim", "--p", "3", "--m", "1", "--t", "2", "--k", "3")
    _, out, _ = run(capsys, *argv)
    proc = _run_module(*argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out.encode()
    assert _run_module("cosets", "--p", "6", "--m", "1", "--t", "2").returncode == 2


def test_usage_error_missing_args() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--p", "3"])
    assert exc.value.code == 2


def test_usage_error_unknown_command() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


# Golden bytes on odd-p towers beyond GF(9); captured before odd-p addition
# moved to Zech logarithms, so they pin the arithmetic bit for bit.

def test_repair_golden_gf343(capsys) -> None:
    code, out, _ = run(capsys, "repair", "--p", "7", "--m", "1", "--t", "3",
                       "--k", "147", "--r", "5", "--seed", "3", "--format", "json")
    assert code == 0
    assert out == ('{"recovered": "w^212", "match": true, "helpers": 279, '
                   '"b_symbols": 279, "bits": 837}\n')


def test_plan_golden_gf243(capsys) -> None:
    code, out, _ = run(capsys, "plan", "--p", "3", "--m", "1", "--t", "5",
                       "--k", "40", "--r", "9")
    assert code == 0
    doc = json.loads(out)
    assert doc["d"] == 121
    assert doc["omitted"] == list(range(9, 130))
    assert len(doc["cosets"]) == 25
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d5289b95b069a4edf16d3f2875db645ba46a40ef208e27aad267e6092d17bbcc")


# -- any integers on the command line -------------------------------

def _order(p, m, t):
    """p^(m t), or None where the tower is refused before any size is computed."""
    if p < 2 or m < 1 or t < 1 or m * t > 20:   # 2^21 > TABLE_LIMIT
        return None
    return p ** (m * t)


def _integers(lo, hi):
    """Mostly in [lo, hi], else small, negative or huge."""
    within = st.integers(lo, hi)
    return st.one_of(within, within, within, st.integers(-3, 300),
                     st.integers(-10 ** 30, 10 ** 30))


SMALL_TOWERS = [(p, m, t) for p in (2, 3, 5, 7, 11, 13) for m in range(1, 9)
                for t in range(1, 9) if p ** (m * t) <= 256]


@st.composite
def _tower(draw):
    """A tower of order at most 256, or integers naming none of order in (256, TABLE_LIMIT]."""
    if draw(st.booleans()):
        return draw(st.sampled_from(SMALL_TOWERS))
    p, m, t = draw(_integers(2, 13)), draw(_integers(1, 9)), draw(_integers(1, 9))
    order = _order(p, m, t)
    assume(order is None or order <= 256 or order > TABLE_LIMIT)
    return p, m, t


@st.composite
def _argv(draw):
    """Any subcommand but verify on _tower's integers; verify only where it refuses at once."""
    p, m, t = draw(_tower())
    order = _order(p, m, t)
    command = draw(st.sampled_from(("cosets", "dim", "plan", "repair", "bandwidth", "verify")))
    flags = {"p": p, "m": m, "t": t}
    if command == "verify":
        # a tower it accepts is swept by brute force, which takes seconds
        whole = not (order and order <= oracle.VERIFY_LIMIT and is_prime(p))
        keep = draw(st.sets(st.sampled_from("pmt"), min_size=1, max_size=3 if whole else 2))
        flags = {key: flags[key] for key in "pmt" if key in keep}
    if command in ("dim", "plan", "repair"):
        flags["k"] = draw(_integers(1, 12))
    if command in ("plan", "repair"):
        flags["r"] = draw(_integers(0, 12))
    if command in ("repair", "verify"):
        flags["seed"] = draw(_integers(0, 5))
    if command == "bandwidth" and draw(st.booleans()):
        flags["k-max"] = draw(_integers(1, 12))
    return [command] + [x for key, value in flags.items() for x in (f"--{key}", str(value))]


@settings(max_examples=200)
@given(_argv())
def test_any_integer_arguments_exit_0_1_or_2(argv) -> None:
    """Negative, huge or out-of-range integers are refused with exit 2, never
    a KeyError, IndexError or TypeError."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2), argv
