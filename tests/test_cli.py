"""CLI contract: outputs, determinism, exit codes."""

import argparse
import ast
import collections
import contextlib
import dataclasses
import hashlib
import importlib.util
import inspect
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import opstats
from opstats import checks, cli, opart, qnum, stats, xfer
from opstats.checks import CHECKS, CheckResult
from opstats.cli import GF_FAMILIES, _emit_results, build_parser, main
from opstats.opart import (
    OrderedPartition,
    enumerate_op,
    enumerate_p,
    format_partition,
    iter_blocks_all,
)
from opstats.ring import DEFAULT, SeriesInA, format_poly
from opstats.stats import block_stats
from opstats.xfer import WeightSpec

import cache_equivalence
import parse_equivalence


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_stats_worked_example(capsys):
    code, out, _ = run(capsys, "stats", "6,8/5/1,4,7/3,9/2")
    assert code == 0
    assert "ros_i:  4 4 | 3 | 0 2 2 | 1 1 | 0" in out
    assert "los_i:  0 0 | 0 | 0 0 2 | 1 3 | 1" in out
    assert "rsb_i:  2 1 | 2 | 0 1 1 | 0 0 | 0" in out
    assert "perm=54132" in out
    assert "bInv=4" in out and "bMaj=5" in out
    assert "inv=8" in out and "cinv=2" in out


def test_bij_both_directions(capsys):
    code, out, _ = run(capsys, "bij", "--inverse", "6/3,5,7/1,4,10/9/2,8")
    assert code == 0
    assert out.strip() == "NNNOOESSES\t1,2,1,2,1,1,1,2,4,1"
    code, out, _ = run(
        capsys, "bij", "--forward", "NNNOOESSES", "--xi", "1,2,1,2,1,1,1,2,4,1"
    )
    assert code == 0
    assert out.strip() == "6/3,5,7/1,4,10/9/2,8"


def test_bij_usage_errors(capsys):
    code, _, err = run(capsys, "bij", "--forward", "NN")
    assert code == 2 and "xi" in err
    code, _, err = run(capsys, "bij", "--forward", "NN", "--xi", "1,9")
    assert code == 2
    for xi in ("1,,2", ""):
        assert run(capsys, "bij", "--forward", "NN", "--xi", xi) == (
            2, "", f"error: --xi takes comma-separated integers; '' in {xi!r} is not one\n")
    # --inverse goes one way only: --forward or --xi with it is an error,
    # not ignored
    for extra in (("--forward", "N"), ("--xi", "1"), ("--forward", "N", "--xi", "1")):
        assert run(capsys, "bij", "--inverse", "1/2", *extra) == (
            2, "", "error: --inverse takes no --forward or --xi\n")


def test_bij_forward_reports_the_walk_error_first(capsys):
    # xi_2 = 5 is outside 1..2 too, but the walk ends below height 0
    assert run(capsys, "bij", "--forward", "ESS", "--xi", "1,5,1") == (
        2, "", "error: not a walk to (3,0): ESS\n")
    assert run(capsys, "bij", "--forward", "EE", "--xi", "1,3") == (
        2, "", "error: choice xi_2=3 outside 1..2 for E at (1, 0)\n")


def test_enum_and_counts(capsys):
    code, out, _ = run(capsys, "enum", "--n", "2", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["2/1", "1/2"]  # new singleton sweeps gaps left to right
    code, out, _ = run(capsys, "enum", "--n", "4", "--count-only")
    assert code == 0
    assert out.splitlines()[-1] == "total\t75"
    code, out, _ = run(capsys, "enum", "--n", "4", "--k", "2", "--count-only",
                       "--format", "records")
    assert json.loads(out.splitlines()[0]) == {"n": 4, "k": 2, "count": 14}
    code, out, _ = run(capsys, "enum", "--n", "4", "--k", "2", "--inv-free",
                       "--count-only")
    assert out.strip() == "2\t7"
    code, out, _ = run(capsys, "enum", "--n", "3", "--k", "2", "--inv-free")
    assert sorted(out.splitlines()) == ["1,2/3", "1,3/2", "1/2,3"]


def test_enum_count_only_range(capsys):
    for argv, message in ((["--n", "-1"], "no ordered partitions"),
                          (["--n", "3", "--k", "5"], "no ordered partitions"),
                          (["--n", "3", "--inv-free"], "--inv-free needs --k")):
        for extra in (["--count-only"], []):
            code, out, err = run(capsys, "enum", *argv, *extra)
            assert code == 2 and out == "", argv + extra
            assert message in err


def test_enum_count_only_deep_rows(capsys):
    code, out, _ = run(capsys, "enum", "--n", "1500", "--k", "1", "--count-only")
    assert (code, out) == (0, "1\t1\n")


#: One argv per bounded command, ending at the bounded value, with its bound.
CLI_BOUNDS = [
    (["enum", "--n"], 10),
    (["dist", "--k", "2", "--stat", "inv", "--n"], 10),
    (["gf", "Q", "--k", "1", "--order"], 13),
    (["gf", "Q", "--k"], 4),
    (["gf", "Qz", "--k"], 5),
    (["gf", "f", "--k"], 16),
    (["det", "M", "--n"], 8),
    (["qnum", "stirling", "--n-max"], 20),
    (["verify", "zz", "--n-max"], 20),
    (["conjecture", "--n-max"], 9),
]


def test_every_desk_bound_refuses_in_one_form(capsys):
    for argv, bound in CLI_BOUNDS:
        code, out, err = run(capsys, *argv, str(bound + 1))
        assert (code, out) == (2, ""), argv
        assert re.fullmatch(rf"error: .*\b{bound + 1}\b.* exceeds its desk bound \S+ <= {bound}; "
                            "pass --force-large\n", err), (argv, err)
    # and as a real process, whose exit status is the one a shell sees
    root = pathlib.Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    done = subprocess.run([sys.executable, "-m", "opstats", "enum", "--n", "11"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout) == (2, "")
    assert "exceeds its desk bound n <= 10; pass --force-large" in done.stderr


def test_a_held_value_never_skips_a_refusal(capsys, monkeypatch):
    # a series computed past a desk bound with --force-large stays held, and
    # the same call without the flag is still refused, with the one message
    def refused(argv, message):
        assert run(capsys, "gf", *argv, "--force-large")[0] == 0, argv
        assert run(capsys, "gf", *argv) == (2, "", f"error: {message}; pass --force-large\n"), argv

    xfer._HELD.clear()
    refused(["Qz", "--k", "6", "--order", "2"],
            "the transfer series at k=6 exceeds its desk bound k <= 5")
    refused(["f", "--k", "17"], "the closed form f at k=17 exceeds its desk bound k <= 16")
    # a closed form held from order k on: f at k = 3 past a lowered bound
    monkeypatch.setattr(xfer, "CLOSED_K_BOUND", 2)
    refused(["f", "--k", "3", "--order", "4"],
            "the closed form f at k=3 exceeds its desk bound k <= 2")
    assert ("closed", "f", 3) in xfer._HELD.entries


def _enum_reference(n, k, inv_free, fmt):
    """The stdout of ``enum``, built from the partition objects."""
    stream = enumerate_p(n, k) if inv_free else enumerate_op(n, k)
    if fmt == "records":
        lines = [json.dumps({"n": n, "k": pi.k, "partition": format_partition(pi)})
                 for pi in stream]
    else:
        lines = [format_partition(pi) for pi in stream]
    return "".join(line + "\n" for line in lines)


def _not_on_the_enum_path(*args, **kwargs):
    raise AssertionError("enum builds text without partition objects")


def test_enum_stdout_bytes(capsys, monkeypatch):
    cases = [(n, k, inv_free, fmt)
             for n in range(7) for fmt in ("table", "records")
             for k in [None, *range(n + 1)] for inv_free in (False, True)
             if not (inv_free and k is None)]
    want = {case: _enum_reference(*case) for case in cases}
    for name in ("enumerate_op", "enumerate_p", "format_partition"):
        monkeypatch.setattr(opart, name, _not_on_the_enum_path)
    for (n, k, inv_free, fmt), text in want.items():
        argv = ["enum", "--n", str(n), "--format", fmt]
        argv += [] if k is None else ["--k", str(k)]
        argv += ["--inv-free"] if inv_free else []
        assert run(capsys, *argv) == (0, text, ""), argv
    assert want[0, None, False, "table"] == "\n"
    assert want[0, 0, True, "records"] == '{"n": 0, "k": 0, "partition": ""}\n'
    assert all(want[n, 0, inv_free, fmt] == ""
               for n in range(1, 7) for inv_free in (False, True) for fmt in ("table", "records"))


def test_enum_holds_each_small_level_once(capsys):
    # the cases of test_enum_stdout_bytes, each cold (hold cleared) then warm
    cases = [(n, k, inv_free, fmt)
             for n in range(7) for fmt in ("table", "records")
             for k in [None, *range(n + 1)] for inv_free in (False, True)
             if not (inv_free and k is None)]

    def argv(n, k, inv_free, fmt):
        return ["enum", "--n", str(n), "--format", fmt,
                *([] if k is None else ["--k", str(k)]), *(["--inv-free"] if inv_free else [])]

    for case in cases:
        cli._enum_text.cache_clear()
        cold = run(capsys, *argv(*case))
        assert cold[0] == 0 and run(capsys, *argv(*case)) == cold, case
    # none for --count-only, one per level asked for with n <= KEEP_N, none past it
    cli._enum_text.cache_clear()
    for case in cases:
        assert run(capsys, *argv(*case), "--count-only")[0] == 0, case
    assert cli._enum_text.cache_info().currsize == 0
    for case in cases + cases:
        run(capsys, *argv(*case))
    assert cli._enum_text.cache_info().currsize == len(cases)
    assert stats.KEEP_N == 6 and run(capsys, "enum", "--n", "7")[0] == 0
    assert cli._enum_text.cache_info().currsize == len(cases)
    # a filled hold refuses what it always refused, before any lookup
    for words, message in (("--n 3 --inv-free", "--inv-free needs --k"),
                           ("--n 3 --k 4", "no ordered partitions for n=3, k=4"),
                           ("--n -1", "no ordered partitions for n=-1")):
        code, out, err = run(capsys, "enum", *words.split())
        assert (code, out) == (2, "") and message in err, words
    assert cli._enum_text.cache_info().currsize == len(cases)


def test_enum_hold_stays_small():
    # every table level with n <= KEEP_N, held as text
    cli._enum_text.cache_clear()
    tracemalloc.start()
    try:
        for n in range(stats.KEEP_N + 1):
            for k in [None, *range(n + 1)]:
                for inv_free in (False,) if k is None else (False, True):
                    cli._enum_text(n, k, inv_free, "table")
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 200_000


def test_enum_hold_is_filled_safely_by_racing_threads():
    keys = [(n, k, inv_free, "table") for n in range(6)
            for k in [None, *range(n + 1)] for inv_free in (False, True)
            if not (inv_free and k is None)]
    cli._enum_text.cache_clear()
    want = [cli._enum_text(*key) for key in keys]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        cli._enum_text.cache_clear()
        start = threading.Barrier(8)
        results, errors = [], []

        def work(i):
            start.wait(timeout=10)
            try:
                order = keys[::-1] if i % 2 else keys
                got = {key: cli._enum_text(*key) for key in order}
                results.append([got[key] for key in keys])
            except Exception as exc:  # collected and asserted below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(results) == 8 and all(r == want for r in results)
        assert cli._enum_text.cache_info().currsize == len(keys)
    finally:
        sys.setswitchinterval(old)


class _Writes(io.StringIO):
    """A stdout that counts the lines of each write."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def write(self, text):
        self.lines.append(text.count("\n"))
        return super().write(text)


def test_enum_progress_and_chunks(capsys, monkeypatch):
    writes = _Writes()
    with contextlib.redirect_stdout(writes):
        assert main(["enum", "--n", "7"]) == 0
    assert sum(writes.lines) == 47_293 == len(writes.getvalue().splitlines())
    assert len(writes.lines) > 1 and max(writes.lines) <= cli.CHUNK_LINES
    assert capsys.readouterr().err == ""
    code, out, _ = run(capsys, "enum", "--n", "6")
    monkeypatch.setattr(cli, "PROGRESS_INTERVAL", 1000)
    assert run(capsys, "enum", "--n", "6") == (
        code, out, "".join(f"... {i} partitions\n" for i in range(1000, 5000, 1000)))


def _enum_writes(capsys, argv):
    """(the line count of each stdout write, stderr, stdout) of one ``enum`` call."""
    writes = _Writes()
    with contextlib.redirect_stdout(writes):
        assert main(argv) == 0, argv
    return writes.lines, capsys.readouterr().err, writes.getvalue()


def test_enum_writes_a_held_level_as_it_streams_it(capsys, monkeypatch):
    # under each chunk size and progress interval, a held level, cold then
    # warm, goes out in the same writes, notes and bytes as the same level
    # streamed (KEEP_N below every n); the empty level k = 0 writes nothing
    levels = [[], *(["--k", str(k)] for k in range(6)), ["--format", "records"]]
    for chunk, interval in ((10_000, 1_000_000), (7, 100), (3, 3), (1, 5), (13, 26)):
        monkeypatch.setattr(cli, "CHUNK_LINES", chunk)
        monkeypatch.setattr(cli, "PROGRESS_INTERVAL", interval)
        for words in levels:
            argv = ["enum", "--n", "5", *words]
            with monkeypatch.context() as patched:
                patched.setattr(stats, "KEEP_N", -1)
                streamed = _enum_writes(capsys, argv)
            cli._enum_text.cache_clear()
            cold = _enum_writes(capsys, argv)
            assert cold == streamed == _enum_writes(capsys, argv), (chunk, interval, words)
        assert _enum_writes(capsys, ["enum", "--n", "5", "--k", "0"]) == ([], "", "")


def test_dist(capsys):
    code, out, _ = run(capsys, "dist", "--n", "3", "--k", "2", "--stat", "mak+bInv")
    assert code == 0
    assert out.strip() == "2*q + 3*q^2 + 1*q^3"
    code, out, err = run(capsys, "dist", "--n", "3", "--k", "2", "--stat", "inv-cinv")
    assert code == 0
    assert "negative Laurent exponents" in err
    # an expression whose first term is negative goes in as one --stat=... word
    code, out, err = run(capsys, "dist", "--n", "3", "--k", "2", "--stat=-inv+cinv")
    assert (code, out) == (0, "3*q^-1 + 3*q\n")
    assert "negative Laurent exponents" in err


def test_qnum_table(capsys):
    code, out, _ = run(capsys, "qnum", "stirling", "--n-max", "3")
    assert code == 0
    assert "3\t2\t2*q + 1*q^2" in out.splitlines()
    code, out, _ = run(capsys, "qnum", "eulerian", "--n-max", "3")
    assert "3\t1\t2*q + 2*q^2" in out.splitlines()


#: (argv, exit code, exact stdout, a part of stderr) of paths no other test runs.
PINNED = [
    ("qnum binomial --n-max 3", 0,
     "0\t0\t1\n1\t0\t1\n1\t1\t1\n2\t0\t1\n2\t1\t1 + 1*q\n2\t2\t1\n"
     "3\t0\t1\n3\t1\t1 + 1*q + 1*q^2\n3\t2\t1 + 1*q + 1*q^2\n3\t3\t1\n", ""),
    ("qnum factorial --n-max 3", 0,
     "0\t1\n1\t1\n2\t1 + 1*q\n3\t1 + 2*q + 2*q^2 + 1*q^3\n", ""),
    ("qnum eulerian --n-max 2 --format records", 0,
     '{"n": 1, "k": 0, "value": "1"}\n'
     '{"n": 2, "k": 0, "value": "1"}\n'
     '{"n": 2, "k": 1, "value": "1*q"}\n', ""),
    ("qnum factorial --n-max 1 --format records", 0,
     '{"n": 0, "k": null, "value": "1"}\n{"n": 1, "k": null, "value": "1"}\n', ""),
    ("conjecture --n-max 1 --format records", 0, "".join(
        '{"check": "conjecture-bmaj", "instance": "n=1 k=1 stat=%s", '
        '"status": "MATCH", "empirical": true}\n' % stat
        for stat in ("mak+bMaj", "lmak+bMaj", "cmajLSB")), "EMPIRICAL"),
    ("bij", 2, "", "bij needs --forward STEPS --xi LIST or --inverse PARTITION"),
    ("enum --n 3 --inv-free", 2, "", "--inv-free needs --k"),
]


@pytest.mark.parametrize("argv, code, out, err_part", PINNED, ids=[row[0] for row in PINNED])
def test_pinned_stdout(capsys, argv, code, out, err_part):
    got_code, got_out, got_err = run(capsys, *argv.split())
    assert (got_code, got_out) == (code, out)
    assert err_part in got_err


#: The SHA-256 of the stdout of the two partition-sweep commands, so that a
#: byte change in the sweep checks fails here and not only in the bench.
PINNED_SWEEPS = [
    ("verify thm25 prop22 lemma310 conjecture-bmaj equidist sect23 --n-max 7",
     "013297d0b7504a79997be872a5b6302f2827473ad9beb983240e263f70f53508"),
    ("verify bij --n-max 6", "31106797c9cfbb6df8e9fa906870966fd673ee1ced65680a6667a61010b84106"),
]


@pytest.mark.parametrize("argv, sha", PINNED_SWEEPS, ids=[row[0] for row in PINNED_SWEEPS])
def test_pinned_sweep_stdout(capsys, argv, sha):
    code, out, _ = run(capsys, *argv.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha


def test_closed_stdout_exits_2_quietly():
    root = pathlib.Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    proc = subprocess.Popen([sys.executable, "-m", "opstats", "enum", "--n", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"8/7/6/5/4/3/2/1\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert "Traceback" not in err and "Exception ignored" not in err, err


def test_importing_the_cli_compiles_no_step_code():
    # the value steps are generated on a sweep's first call, never at import
    root = pathlib.Path(__file__).parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    code = ("import opstats.cli\nfrom opstats import stats\n"
            "print(stats._value_steps.cache_info().currsize, hasattr(stats, 'add_singleton'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == b"0 False\n"


def test_qnum_negative_bound_is_a_usage_error(capsys):
    for family in ("stirling", "eulerian", "binomial", "factorial"):
        code, out, err = run(capsys, "qnum", family, "--n-max", "-1")
        assert (code, out) == (2, ""), family
        assert "--n-max must be nonnegative" in err, family


def test_gf_order_and_qnum_n_max_refused_past_their_bounds(capsys, monkeypatch):
    called = []
    for family in GF_FAMILIES:
        monkeypatch.setitem(GF_FAMILIES, family, lambda *a: called.append(a) or SeriesInA([DEFAULT.one]))
    for name in ("q_stirling", "q_eulerian", "q_binomial", "q_factorial"):
        monkeypatch.setattr(qnum, name, lambda *a: called.append(a) or DEFAULT.one)
    past = [("gf", "--order", cli.GF_ORDER_BOUND, family, ["--k", "1"]) for family in GF_FAMILIES]
    past += [("qnum", "--n-max", cli.QNUM_N_BOUND, family, [])
             for family in ("stirling", "eulerian", "binomial", "factorial")]
    for command, option, bound, family, extra in past:
        argv = [command, family, *extra, option, str(bound + 1)]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == (f"error: {command} {option} {bound + 1} exceeds its desk bound "
                       f"{option} <= {bound}; pass --force-large\n"), argv
        assert called == [], argv  # refused before any work
        assert run(capsys, *argv, "--force-large")[0] == 0, argv
        assert called, argv
        called.clear()
        assert run(capsys, *argv[:-1], str(bound))[0] == 0, argv
        called.clear()


def test_gf_and_det(capsys):
    code, out, _ = run(capsys, "gf", "f", "--k", "1", "--order", "3")
    assert code == 0
    assert out.splitlines() == ["a^0\t0", "a^1\t1", "a^2\t1", "a^3\t1"]
    code, out, _ = run(capsys, "det", "P", "--n", "1")
    assert out.strip() == "1*a"
    code, _, err = run(capsys, "det", "Pk", "--n", "2")
    assert code == 2 and "--k" in err
    code, out, err = run(capsys, "det", "Pk", "--n", "2", "--k", "5")
    assert (code, out) == (2, "") and "--k" in err
    # P_0 and ndot_0 are the corners of 1x1 matrices: 0x0, determinant 1
    for matrix in ("P", "ndot"):
        assert run(capsys, "det", matrix, "--n", "0")[:2] == (0, "1\n"), matrix


def test_det_k_is_a_usage_error_outside_pk(capsys, monkeypatch):
    built = []
    for name in xfer.MATRICES:
        monkeypatch.setitem(xfer.MATRICES, name, lambda n, k: built.append(n))
    for name in xfer.MATRICES:
        if name != "Pk":
            code, out, err = run(capsys, "det", name, "--n", "3", "--k", "2")
            assert (code, out) == (2, ""), name
            assert "--k" in err and name in err, name
    assert built == []  # refused before any build


def test_gf_transfer_families_match_determinant_route(capsys):
    specs = {"Q": WeightSpec.seven_variable(), "Qxy": WeightSpec.xytu(), "Qz": WeightSpec.ztu()}
    for family, spec in specs.items():
        for k in range(4):
            code, out, _ = run(capsys, "gf", family, "--k", str(k), "--order", "5")
            want = [f"a^{n}\t{format_poly(c)}"
                    for n, c in enumerate(xfer.q_gf_transfer(k, spec, 5).coeffs)]
            assert (code, out.splitlines()) == (0, want), (family, k)


def test_gf_transfer_bounds_exit_2(capsys, monkeypatch):
    # a negative k is refused before the closed forms build anything
    def unbuilt(*args):
        raise AssertionError("built a closed form for a negative k")

    monkeypatch.setattr(xfer, "pq_factorial", unbuilt)
    for argv in (["Q", "--k", "5"], ["Qxy", "--k", "6"], ["Qz", "--k", "6"],
                 ["Q", "--k", "2", "--order", "-1"], ["Qz", "--k", "-1"],
                 ["f", "--k", "-1"], ["g", "--k", "-1"],
                 ["phi", "--k", "-1"], ["varphi", "--k", "-1"]):
        code, out, err = run(capsys, "gf", *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ")
        if argv[2] == "-1":
            assert "k must be nonnegative" in err, argv


def test_gf_closed_forms_bound_exit_2(capsys, monkeypatch):
    # k = 1100 raised RecursionError (exit 1) before the bound existed
    code, out, err = run(capsys, "gf", "f", "--k", "1100", "--order", "0")
    assert (code, out) == (2, "") and "k <= 16" in err
    monkeypatch.setattr(xfer, "CLOSED_K_BOUND", 2)
    for family in ("f", "g", "phi", "varphi"):
        code, out, err = run(capsys, "gf", family, "--k", "3", "--order", "4")
        assert (code, out) == (2, ""), family
        code, out, _ = run(capsys, "gf", family, "--k", "3", "--order", "4", "--force-large")
        closed = xfer.closed_series(family, 3, 4, force_large=True)
        assert (code, out.splitlines()) == (0, [f"a^{n}\t{c}" for n, c in enumerate(closed.coeffs)])


def test_gf_closed_forms_text_is_pinned(capsys):
    # the stdout of `gf f|g|phi|varphi` for k <= 8 at orders 0, 1, 3, 8 and 10,
    # pinned byte for byte by its sha256
    digest = hashlib.sha256()
    for family in ("f", "g", "phi", "varphi"):
        for k in range(9):
            for order in (0, 1, 3, 8, 10):
                code, out, _ = run(capsys, "gf", family, "--k", str(k), "--order", str(order))
                assert code == 0, (family, k, order)
                digest.update(f"{family} {k} {order}\n{out}".encode())
    assert digest.hexdigest() == "cb4c8f1c66acfd6e9c12ecb8d24e3db36f20bd8b592cd78a2195d17e46f9fa2d"


#: Every command whose stdout is mostly polynomial text, at small sizes:
#: ``gf`` of every family, ``det`` of every matrix, ``qnum`` of every family
#: in both formats and ``dist`` of the bench's query statistics.
TEXT_FORM_ARGVS = [
    *(f"gf {family} --k {k} --order {order}"
      for family in GF_FAMILIES for k in range(4) for order in (2, 4, 6, 8)),
    *(f"det {matrix} --n {n}" for matrix in xfer.MATRICES if matrix != "Pk" for n in range(4)),
    *(f"det Pk --n {n} --k {k}" for n in range(1, 4) for k in range(1, 4)),
    *(f"qnum {family} --n-max 8 --format {fmt}"
      for family in ("stirling", "eulerian", "binomial", "factorial")
      for fmt in ("table", "records")),
    *(f"dist --n {n} --k {k} --stat {expr}"
      for expr in ("mak+bInv", "mak+bInv-inv+cinv", "lmak+bInv", "lmak+bInv-inv+cinv",
                   "cinvLSB", "cinvLSB+inv-cinv", "mak+bMaj", "lmak+bMaj", "cmajLSB",
                   "ros", "los+rcs", "2*inv-cinv", "lsb+rsb", "bExc")
      for n in range(6) for k in range(n + 1)),
]


def test_text_form_stdout_is_pinned(capsys):
    # one sha256 over the exit code and stdout of every TEXT_FORM_ARGVS call,
    # so a byte change anywhere in the polynomial text form fails here
    digest = hashlib.sha256()
    for argv in TEXT_FORM_ARGVS:
        code, out, _ = run(capsys, *argv.split())
        assert code == 0, argv
        digest.update(f"{argv}\n{out}".encode())
    assert len(TEXT_FORM_ARGVS) == 451
    assert digest.hexdigest() == "c876284fdf4326231ab576218acf19288d8a81e00cc21a4ac020ac04aa081c49"


def test_exponent_range_exits_2(capsys, monkeypatch):
    # a^(2^62) leaves the exponent range: an error, never a wrapped
    # polynomial, and raised before [k]_{t,u}! is built
    def unbuilt(*args):
        raise AssertionError("built [k]! for k = 2**62")

    monkeypatch.setattr(xfer, "pq_factorial", unbuilt)
    for family in ("f", "g", "phi", "varphi"):
        code, out, err = run(capsys, "gf", family, "--k", str(2 ** 62), "--order", "0", "--force-large")
        assert (code, out) == (2, "") and "2**62" in err, family


def test_verify_pass_and_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "zz", "--n-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS zz") for line in lines)
    assert len(lines) == 10
    code, _, err = run(capsys, "verify", "nosuch")
    assert code == 2
    assert "unknown check" in err


def test_verify_resolves_every_name_first(capsys):
    code, out, err = run(capsys, "verify", "thm25", "nosuch")
    assert (code, out) == (2, "")
    assert "unknown check 'nosuch'" in err
    for name in ("cor39", "thm25-series"):
        code, out, err = run(capsys, "verify", "zz", name, "--n-max", "3")
        assert (code, out) == (2, "")
        assert f"check {name!r} does not take --n-max" in err


def test_verify_all_n_max_skips_unbounded_checks(capsys):
    code, out, _ = run(capsys, "verify", "all", "--n-max", "2")
    assert code == 0
    expected = ""
    for name in sorted(CHECKS):
        bound = ["--n-max", "2"] if CHECKS[name].n_bound is not None else []
        expected += run(capsys, "verify", name, *bound)[1]
    assert out == expected


def test_verify_audit_checks_share_one_sweep(capsys, monkeypatch):
    names = ("thm25", "prop22", "lemma310", "conjecture-bmaj", "equidist")
    sweeps = []
    run_audit = checks.run_audit
    monkeypatch.setattr(checks, "run_audit", lambda *a: sweeps.append(a) or run_audit(*a))
    code, together, _ = run(capsys, "verify", *names, "--n-max", "5")
    assert code == 0 and sweeps == [(5, 5)]
    singles = "".join(run(capsys, "verify", name, "--n-max", "5")[1] for name in names)
    assert together == singles


def test_thm25_checker_can_fail(capsys, monkeypatch):
    target = checks._target
    monkeypatch.setattr(checks, "_target", lambda n, k: target(n, k) * DEFAULT.var("q"))
    code, out, err = run(capsys, "verify", "thm25", "--n-max", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines and all(line.startswith("FAIL thm25") for line in lines)
    assert "first failing instance: FAIL thm25 n=1 k=1 stat=mak+bInv" in err


def test_prop22_checker_can_fail(capsys, monkeypatch):
    # lmakP + bInv differs from mak exactly where the partition has a block inversion
    monkeypatch.setitem(stats.TABLE, "lmakP", stats.TABLE["lmakP"] + "+bInv")
    code, out, err = run(capsys, "verify", "prop22", "--n-max", "4")
    assert code == 1
    first = next(
        format_partition(b) for n in range(1, 5) for b in iter_blocks_all(n) if block_stats(b)[0]
    )
    lines = out.splitlines()
    assert lines[0] == "PASS prop22 n=1 all partitions"
    assert lines[1] == f"FAIL prop22 n=2 all partitions  [fails at {first}]"
    assert f"first failing instance: {lines[1]}" in err


def test_transfer_checker_can_fail(capsys, monkeypatch):
    walk = xfer.walk_series
    t1 = DEFAULT.var("t1")

    def perturbed(*args, **kwargs):
        series = walk(*args, **kwargs)
        return SeriesInA([c * t1 if n else c for n, c in enumerate(series.coeffs)])

    monkeypatch.setattr(xfer, "walk_series", perturbed)
    code, out, err = run(capsys, "verify", "transfer", "--n-max", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[:4] == [f"PASS transfer k=0 n={n}" for n in range(4)]
    assert lines[4] == "PASS transfer k=1 n=0"
    assert lines[5] == "FAIL transfer k=1 n=1  [walk got=1*t1 want=1]"
    assert f"first failing instance: {lines[5]}" in err


def test_sect23_checker_can_fail(capsys, monkeypatch):
    q_stirling = checks.qnum.q_stirling
    monkeypatch.setattr(checks.qnum, "q_stirling", lambda n, k: q_stirling(n, k) * DEFAULT.var("q"))
    code, out, err = run(capsys, "verify", "sect23", "--n-max", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL sect23 n=1 k=1 stat=mak  [got=1 want=1*q]"
    assert f"first failing instance: {lines[0]}" in err


def test_thm24_checker_can_fail(capsys, monkeypatch):
    # x and y swapped in phi's enumeration weights
    (label, phi), varphi = checks.THM24
    swapped = {{"x": "y", "y": "x"}.get(v, v): expr for v, expr in phi.items()}
    monkeypatch.setattr(checks, "THM24", ((label, swapped), varphi))
    code, out, err = run(capsys, "verify", "thm24", "--n-max", "3")
    assert code == 1
    first = next(line for line in out.splitlines() if line.startswith("FAIL"))
    assert first == "FAIL thm24 phi k=2 n=2  [got=1*x^2*y*t + 1*x*y^2*u want=1*x^2*y*u + 1*x*y^2*t]"
    assert f"first failing instance: {first}" in err


def test_bij_checker_can_fail(capsys, monkeypatch):
    predictions = checks.step_predictions
    # the slots of step_predictions' tuples at North/East steps and at the others
    new = ("lcs+rcs", "lsb+rsb", "los", "ros")
    enter = ("lcs+rcs", "lsb+rsb", "lsb", "rsb")

    def shifted(key):
        # ``key`` plus 1 in every step prediction that names it
        def shift(kind, pred):
            names = new if kind in "NE" else enter
            return tuple(v + (name == key) for name, v in zip(names, pred))

        return lambda d: [shift(kind, p) for kind, p in zip(d.steps, predictions(d))]

    monkeypatch.setattr(checks, "step_predictions", shifted("ros"))
    code, out, err = run(capsys, "verify", "bij", "--n-max", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "FAIL bij n=1 partitions  [step prediction fails at 1, i=1]"
    assert lines[1] == "PASS bij n=1 diagrams"
    assert f"first failing instance: {lines[0]}" in err
    # every predicted statistic is compared: a shift in any one of them fails
    for key in ("los", "lsb", "rsb", "lcs+rcs", "lsb+rsb"):
        monkeypatch.setattr(checks, "step_predictions", shifted(key))
        code, out, _ = run(capsys, "verify", "bij", "--n-max", "2")
        assert code == 1 and "step prediction fails" in out, key


def test_bij_checker_reports_round_trip_failures(capsys, monkeypatch):
    # a psi that reverses the block order is the identity only for one block
    psi = checks.psi
    monkeypatch.setattr(checks, "psi", lambda d: OrderedPartition(psi(d).blocks[::-1]))
    code, out, err = run(capsys, "verify", "bij", "--n-max", "2")
    assert code == 1
    assert out.splitlines() == [
        "PASS bij n=1 partitions",
        "PASS bij n=1 diagrams",
        "FAIL bij n=2 partitions  [psi(psi_inverse) != id at 2/1]",
        # the diagram side counts the diagrams and does not call psi
        "PASS bij n=2 diagrams",
    ]
    assert "first failing instance: FAIL bij n=2 partitions" in err


def test_bij_checker_compares_forms_with_paths(capsys, monkeypatch):
    # every form reversed: the path of 1's diagram is (0,0), (1,0)
    form = checks._form
    monkeypatch.setattr(checks, "_form", lambda blocks, n: form(blocks, n)[::-1])
    code, out, err = run(capsys, "verify", "bij", "--n-max", "2")
    assert code == 1
    first = "FAIL bij n=1 partitions  [form/path mismatch at 1]"
    assert out.splitlines()[:2] == [first, "PASS bij n=1 diagrams"]
    assert f"first failing instance: {first}" in err


def test_bij_checker_fails_a_psi_inverse_that_is_not_injective(capsys, monkeypatch):
    # every partition goes to the diagram of its blocks in increasing order
    diagram_of = checks._diagram_of

    def merged(pi, rows):
        ordered = OrderedPartition._unchecked(tuple(sorted(pi.blocks)))
        return diagram_of(ordered, stats.coord_rows(ordered))

    monkeypatch.setattr(checks, "_diagram_of", merged)
    code, out, err = run(capsys, "verify", "bij", "--n-max", "3")
    assert code == 1
    first = "FAIL bij n=2 partitions  [psi(psi_inverse) != id at 2/1]"
    assert out.splitlines()[:3] == ["PASS bij n=1 partitions", "PASS bij n=1 diagrams", first]
    assert f"first failing instance: {first}" in err


@pytest.mark.parametrize("change, detail", [
    (lambda ds: ds[:2] + ds[3:], "|diagrams(n=3,k=2)| = 5, want 6"),
    (lambda ds: ds[:3] + ds[2:], "diagram NSE 1,1,1 repeats or is out of order"),
    # the count is right, so only the order of the keys catches the repeat
    (lambda ds: ds[:3] + ds[2:5], "diagram NSE 1,1,1 repeats or is out of order"),
    (lambda ds: ds[::-1], "diagram ENS 1,1,1 repeats or is out of order"),
], ids=["drop", "repeat", "repeat-for-drop", "reverse"])
def test_bij_checker_counts_distinct_diagrams(capsys, monkeypatch, change, detail):
    # enumerate_diagrams yields ``change`` of its diagrams at n=3, k=2
    enumerate_diagrams = checks.enumerate_diagrams
    monkeypatch.setattr(checks, "enumerate_diagrams", lambda n, k: (
        change(list(enumerate_diagrams(n, k))) if (n, k) == (3, 2) else enumerate_diagrams(n, k)
    ))
    code, out, err = run(capsys, "verify", "bij", "--n-max", "3")
    assert code == 1
    first = f"FAIL bij n=3 diagrams  [{detail}]"
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [first]
    assert f"first failing instance: {first}" in err


def test_determinant_checkers_can_fail(capsys, monkeypatch):
    det = xfer.det
    a = DEFAULT.var("a")
    monkeypatch.setattr(xfer, "det", lambda m: det(m) * (1 + a))
    code, out, err = run(capsys, "verify", "detm", "minor1", "--n-max", "2")
    assert code == 1
    lines = out.splitlines()
    assert lines == ["FAIL detm n=1", "FAIL detm n=2", "FAIL minor1 n=1", "FAIL minor1 n=2"]
    assert "first failing instance: FAIL detm n=1" in err
    # the checks on N_n(x,a) and the (z,t,u) transfer matrix
    code, out, _ = run(capsys, "verify", "detn", "minor2", "conj", "--n-max", "2")
    assert code == 1
    first = {}
    for line in out.splitlines():
        if line.startswith("FAIL"):
            first.setdefault(line.split()[1], line)
    assert first == {"detn": "FAIL detn n=1", "minor2": "FAIL minor2 n=1", "conj": "FAIL conj n=1"}
    # main1 compares ratios of determinants, in which a common factor cancels
    monkeypatch.setattr(xfer, "det", lambda m: det(m) + a)
    code, out, _ = run(capsys, "verify", "main1", "--n-max", "2")
    assert (code, out.splitlines()) == (1, ["FAIL main1 n=1 k=1..3", "FAIL main1 n=2 k=1..4"])
    monkeypatch.setattr(xfer, "det", det)
    vector = xfer.eigen_row_vector
    monkeypatch.setattr(xfer, "eigen_row_vector", lambda n, m, k: [v + 1 for v in vector(n, m, k)])
    code, out, err = run(capsys, "verify", "eigen", "--n-max", "3")
    assert code == 1
    assert out.splitlines()[0] == "FAIL eigen n=2 m=1 k=1"
    assert "first failing instance: FAIL eigen n=2 m=1 k=1" in err


def _perturbed(module, name, change):
    """Patch ``module.name`` to return ``change`` of its value."""
    return lambda mp: mp.setattr(module, name, lambda *a, f=getattr(module, name): change(f(*a)))


def _table(key, expr):
    return lambda mp: mp.setitem(stats.TABLE, key, expr)


def _pointwise(check, pairs):
    """Give the pointwise check ``check`` of the audit sweep these pairs."""
    patched = tuple((c, pairs if c == check else p) for c, p in checks.POINTWISE)
    return lambda mp: mp.setattr(checks, "POINTWISE", patched)


Q = DEFAULT.var("q")


def _higher_times_q(series):
    """The a^n coefficients with n >= 1 times q."""
    return SeriesInA([c * Q if n else c for n, c in enumerate(series.coeffs)])


#: One row per check with no other can-fail test: the perturbation of its
#: reference, its n bound (None: unbounded) and its expected first FAIL line.
CAN_FAIL = [
    ("zz", _perturbed(qnum, "q_binomial", lambda v: v * Q), 3,
     "FAIL zz n=1 k=1  [lhs=1 rhs=1*q]"),
    ("eulerian", _perturbed(qnum, "q_eulerian_bruteforce", lambda v: v * Q), 3,
     "FAIL eulerian n=1 k=0"),
    ("equidist", _table("lob", "lcb"), 3, "FAIL equidist n=3 k=2 class={rob,lob,rcs,lcs}"),
    ("lemma310", _table("lsb_tc", stats.TABLE["lsb_tc"] + "+bInv"), 3,
     "FAIL lemma310 n=2 all partitions  [fails at 2/1]"),
    # mak = lmak (lmak for lmak') first fails at n = 3, where the insertion
    # order meets 2,3/1 first; with the appends before the singletons it
    # would be 3/1,2, with the gaps and blocks taken right to left 1/2,3
    ("prop22", _pointwise("prop22", (("mak", "lmak"), ("makP", "lmak"))), 3,
     "FAIL prop22 n=3 all partitions  [fails at 2,3/1]"),
    # cinv = ros_op in place of cinv = los_op
    ("restriction-identities", _pointwise("restriction-identities", (
        ("bInv", "rcs_op"), ("inv", "ros_op"), ("bExc", "lcs_op"), ("cinv", "ros_op"))), 3,
     "FAIL restriction-identities n=2 all partitions  [fails at 2/1]"),
    ("conjecture-bmaj", _table("bMaj", "bmaj+binv"), 3,
     "FAIL conjecture-bmaj n=2 k=2 stat=mak+bMaj  [got=1*q + 1*q^3 want=1*q + 1*q^2]"),
    ("path-counts", _perturbed(checks, "choice_bound", lambda v: v + 1), 3,
     "FAIL path-counts n=1 k=1  [got=2 want=1]"),
    ("cor39", _perturbed(xfer, "closed_series", _higher_times_q), None, "FAIL cor39 f k=1 order=8"),
    ("thm25-series", _perturbed(xfer, "q_specialized_series", _higher_times_q), None,
     "FAIL thm25-series k=1 phi(q,1,1,1)"),
    ("key", _perturbed(xfer, "pq_binomial", lambda v: v + 1), 3, "FAIL key n=2 m=1"),
    # the rows of xfer.DET_IDENTITIES look their closed products up when called
    ("minor1", _perturbed(xfer, "minor1_product", lambda v: v * (1 + DEFAULT.var("a"))), 3,
     "FAIL minor1 n=1"),
]


@pytest.mark.parametrize("name, perturb, n_max, first", CAN_FAIL, ids=[r[0] for r in CAN_FAIL])
def test_checker_can_fail(capsys, monkeypatch, name, perturb, n_max, first):
    argv = ["verify", name] + ([] if n_max is None else ["--n-max", str(n_max)])
    assert run(capsys, *argv)[0] == 0
    perturb(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert next(line for line in out.splitlines() if line.startswith("FAIL")) == first
    assert f"first failing instance: {first}" in err


def test_det_refuses_past_its_bound_before_building(capsys, monkeypatch):
    built = []

    def record(n, k):
        built.append(n)
        return xfer.SymbolicMatrix(())  # 0x0: determinant 1

    for name in xfer.MATRICES:
        monkeypatch.setitem(xfer.MATRICES, name, record)
    for name, bound in xfer.DET_BOUNDS.items():
        k = ["--k", "1"] if name == "Pk" else []
        code, out, err = run(capsys, "det", name, "--n", str(bound + 1), *k)
        assert (code, out) == (2, ""), name
        assert "--force-large" in err and f"n <= {bound}" in err, name
        assert built == [], name
        for argv in (["--n", str(bound)], ["--n", str(bound + 1), "--force-large"]):
            assert run(capsys, "det", name, *argv, *k)[:2] == (0, "1\n"), (name, argv)
        assert built == [bound, bound + 1], name
        built.clear()
        # a negative n is refused before any build, naming --n (not the k of D_k)
        for n in ("-1", "-2"):
            code, out, err = run(capsys, "det", name, "--n", n, *k)
            assert (code, out) == (2, ""), (name, n)
            assert f"--n must be nonnegative, got {n}" in err, (name, n)
        assert built == [], name


def test_verify_negative_bound_is_a_usage_error(capsys):
    # transfer used to fail only after the checks before it had printed
    for argv in (["all"], ["zz"], ["thm25", "transfer"]):
        code, out, err = run(capsys, "verify", *argv, "--n-max", "-1")
        assert (code, out) == (2, ""), argv
        assert "--n-max must be nonnegative" in err


def test_verify_refuses_a_bound_that_checks_nothing(capsys):
    # exit 0 means verified, so a bound under which a check has no instance
    # is refused before any check runs
    for argv, name in (
        (["verify", "thm25", "--n-max", "0"], "thm25"),
        (["verify", "all", "--n-max", "0"], "bij"),
        (["verify", "all", "--n-max", "1"], "eigen"),
        (["verify", "zz", "eigen", "--n-max", "1"], "eigen"),
        (["conjecture", "--n-max", "0"], "conjecture-bmaj"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert f"check {name!r} checks no instance" in err, argv
    assert run(capsys, "verify", "key", "transfer", "thm24", "--n-max", "0")[0] == 0
    # n_min is the least bound with an instance, for every check that takes one
    for name, check in CHECKS.items():
        if check.n_bound is None:
            continue

        def results(n):
            if check.audit:
                return checks.run_audit(n, n)[name]
            return check.run(n_max=n)

        assert results(check.n_min), name
        if check.n_min:
            assert results(check.n_min - 1) == [], name


def test_verify_refuses_past_each_bound_before_running(capsys, monkeypatch):
    ran = []

    def record(**kwargs):
        ran.append(kwargs)
        return []

    monkeypatch.setattr(checks, "run_audit", lambda *a: ran.append(a))
    for name, check in CHECKS.items():
        if check.run is not None:
            monkeypatch.setitem(CHECKS, name, dataclasses.replace(check, run=record))
    for name, check in CHECKS.items():
        if check.n_bound is None:
            continue
        past = check.n_bound + 1
        code, out, err = run(capsys, "verify", name, "--n-max", str(past))
        assert (code, out) == (2, ""), name
        assert (f"check {name!r} at n={past} exceeds its desk bound n <= {check.n_bound}; "
                "pass --force-large") in err
        # after a check that would run at that n, and among all checks
        for argv in (["verify", "key", name], ["verify", "all"]):
            assert run(capsys, *argv, "--n-max", str(past))[:2] == (2, ""), argv
    code, out, err = run(capsys, "conjecture", "--n-max", str(checks.SWEEP_BOUND + 1))
    assert (code, out) == (2, "") and "--force-large" in err
    assert ran == []


def test_force_large_runs_past_a_bound(capsys, monkeypatch):
    wants = {argv: run(capsys, *argv, "--n-max", "3")[:2]
             for argv in (("verify", "zz"), ("verify", "conjecture-bmaj"), ("conjecture",))}
    for name in ("zz", "conjecture-bmaj"):
        monkeypatch.setitem(CHECKS, name, dataclasses.replace(CHECKS[name], n_bound=2))
    for argv, want in wants.items():
        assert run(capsys, *argv, "--n-max", "3")[:2] == (2, ""), argv
        assert run(capsys, *argv, "--n-max", "3", "--force-large")[:2] == want, argv


def _bench_workloads(monkeypatch):
    """bench/workloads.py, loaded from its path."""
    path = pathlib.Path(__file__).parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for its dataclasses
    spec.loader.exec_module(module)
    return module


def test_defaults_and_bench_ops_stay_inside_the_bounds(monkeypatch):
    for name, check in CHECKS.items():
        if check.n_bound is None:
            continue
        if check.audit:
            default = check.n_default
        elif name in xfer.DET_IDENTITIES:
            default = xfer.DET_IDENTITIES[name].n_max
        else:
            default = inspect.signature(check.run).parameters["n_max"].default
        assert default <= check.n_bound, name
    assert build_parser().parse_args(["conjecture"]).n_max <= CHECKS["conjecture-bmaj"].n_bound
    wl = _bench_workloads(monkeypatch)
    for cmd, _, _ in wl.SWEEP + wl.SYMBOLIC_VERIFY:
        args = build_parser().parse_args(cmd.split())
        checks.Verification(args.checks, args.n_max)  # raises past a bound
    sizes = {"gf": [], "qnum": []}
    for op in wl.symbolic_ops(1) + wl.query_ops(1):
        args = build_parser().parse_args(op.argv)
        if args.command in sizes:
            sizes[args.command].append(args.order if args.command == "gf" else args.n_max)
    assert 0 < max(sizes["gf"]) <= cli.GF_ORDER_BOUND
    assert 0 < max(sizes["qnum"]) <= cli.QNUM_N_BOUND
    assert build_parser().parse_args(["gf", "f", "--k", "1"]).order <= cli.GF_ORDER_BOUND
    assert build_parser().parse_args(["qnum", "stirling"]).n_max <= cli.QNUM_N_BOUND


def test_symbolic_gf_text_matches_the_bench_digests(capsys, monkeypatch):
    wl = _bench_workloads(monkeypatch)
    assert len(wl.SYMBOLIC_GF) == 3
    for cmd, sha in wl.SYMBOLIC_GF:
        code, out, _ = run(capsys, *cmd.split())
        assert code == 0 and wl.digest(out) == sha, cmd


def test_dist_kept_levels_print_what_the_definitions_give(capsys, monkeypatch):
    # cold (no kept level, nothing compiled) and warm calls print the same
    # bytes, the sum over OP_6^k of q^composite(pi, expr) with each partition
    # summarized once
    exprs = _bench_workloads(monkeypatch).STAT_EXPRS
    q = DEFAULT.var("q")
    for k in range(7):
        values = [stats.evaluator(exprs)(stats.fields(stats.summarize(pi))) for pi in enumerate_op(6, k)]
        for i, expr in enumerate(exprs):
            argv = ("dist", "--n", "6", "--k", str(k), "--stat", expr)
            stats._kept_level.cache_clear()
            stats._compiled.cache_clear()
            stats._kept_counter.cache_clear()
            cold = run(capsys, *argv)
            assert run(capsys, *argv) == cold, argv
            counts = collections.Counter(v[i] for v in values)
            want = sum((c * q ** e for e, c in counts.items()), DEFAULT.zero)
            assert cold[:2] == (0, format_poly(want) + "\n"), argv


def test_audit_reports_a_step_defect_at_a_partition(capsys, monkeypatch):
    # one STEPS delta broken: the audit counts and the walk that finds the
    # failing partitions both go through the value steps, so each failing
    # pointwise check names a partition at which it fails
    assert run(capsys, "verify", "thm25", "restriction-identities", "--n-max", "3")[0] == 0
    with monkeypatch.context() as mp:
        mp.setitem(stats.STEPS["append"].deltas, "binv", "-left_op+1")
        stats._value_steps.cache_clear()
        stats._kept_level.cache_clear()
        code, out, _ = run(capsys, "verify", "thm25", "restriction-identities", "--n-max", "3")
    stats._value_steps.cache_clear()
    stats._kept_level.cache_clear()
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1 and {line.split()[1] for line in fails} == {"thm25", "restriction-identities"}
    for line in fails:
        if line.startswith("FAIL restriction-identities"):
            n = int(line.split()[2].removeprefix("n="))
            partition = line.split("[fails at ")[1].removesuffix("]")
            assert opart.parse(partition).n == n, line
    assert fails[-2:] == [
        "FAIL restriction-identities n=2 all partitions  [fails at 1,2]",
        "FAIL restriction-identities n=3 all partitions  [fails at 2,3/1]",
    ]


def test_checkers_fail_after_a_warm_run(capsys, monkeypatch):
    # the compiled statistics of a passing run are not reused once TABLE changes
    names = ("prop22", "lemma310", "equidist", "conjecture-bmaj")
    assert run(capsys, "verify", *names, "--n-max", "3")[0] == 0
    perturbations = [
        (name, perturb, first) for name, perturb, _, first in CAN_FAIL if name in names[1:]
    ] + [("prop22", _table("lmakP", stats.TABLE["lmakP"] + "+bInv"),
          "FAIL prop22 n=2 all partitions  [fails at 2/1]")]
    assert len(perturbations) == len(names)
    for name, perturb, first in perturbations:
        with monkeypatch.context() as mp:
            perturb(mp)
            code, out, _ = run(capsys, "verify", name, "--n-max", "3")
        assert code == 1 and next(l for l in out.splitlines() if l.startswith("FAIL")) == first, name
    assert run(capsys, "verify", *names, "--n-max", "3")[0] == 0


def test_bench_selftest_passes():
    # the bench's output parsers can still read every text form
    root = pathlib.Path(__file__).parent.parent
    done = subprocess.run([sys.executable, str(root / "bench" / "selftest.py")],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr


def test_verify_records_format(capsys):
    code, out, _ = run(capsys, "verify", "minor1", "--n-max", "2",
                       "--format", "records")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[0]["check"] == "minor1" and recs[0]["ok"] is True


def test_conjecture_report(capsys):
    code, out, err = run(capsys, "conjecture", "--n-max", "3")
    assert code == 0
    assert "EMPIRICAL" in err
    lines = out.splitlines()
    assert all(line.startswith("MATCH") for line in lines)
    assert any("stat=mak+bMaj" in line for line in lines)


def test_emit_results_failure_exit():
    fake = [CheckResult("demo", "n=1", True), CheckResult("demo", "n=2", False, "boom")]
    assert _emit_results(fake, "table") == 1
    assert _emit_results(fake[:1], "table") == 0


def test_determinism(capsys):
    code1, out1, _ = run(capsys, "gf", "Q", "--k", "2", "--order", "4")
    code2, out2, _ = run(capsys, "gf", "Q", "--k", "2", "--order", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    code1, out1, _ = run(capsys, "enum", "--n", "5")
    code2, out2, _ = run(capsys, "enum", "--n", "5")
    assert out1 == out2


def test_parser_built_once():
    assert build_parser() is build_parser()


def test_usage_error_leaves_parser_reusable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["stats"])
    assert exc.value.code == 2
    assert "required" in capsys.readouterr().err
    code, out, _ = run(capsys, "stats", "6,8/5/1,4,7/3,9/2")
    assert code == 0 and "inv=8" in out and "cinv=2" in out


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "stats", "1/1,2")
    assert code == 2
    assert "error" in err


def test_all_contract_check_names_exist():
    contract = (
        "minor1", "minor2", "main1", "key", "eigen", "conj",
        "thm24", "thm25", "cor39", "zz", "prop22", "lemma310",
        "conjecture-bmaj",
    )
    for name in contract:
        assert name in CHECKS, name


#: Public functions that nothing in the package calls, kept as the reference
#: definitions that tests compare the program's routes with.
REFERENCE_DEFINITIONS = {"opart.classify", "opart.trace"}


def uncalled_functions(trees: dict[str, ast.Module]) -> list[str]:
    """The public module-level functions of ``trees`` (module name to AST)
    that no other code of those modules reaches.  A load reaches a function
    only as that module's function: an import of it (``from .module import
    name``), ``module.name``, or a bare name inside its own module; a bare
    name elsewhere is that module's own, and a recursive call is no caller."""
    reached = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            own = getattr(stmt, "name", None)
            for node in ast.walk(stmt):
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                    reached.update((node.module, alias.name) for alias in node.names)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) \
                        and isinstance(node.value, ast.Name) and node.value.id in trees:
                    reached.add((node.value.id, node.attr))
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own:
                    reached.add((module, node.id))
    return [
        f"{module}.{stmt.name}"
        for module, tree in trees.items()
        for stmt in tree.body
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")
        and (module, stmt.name) not in reached
    ]


def test_every_public_function_has_a_caller_in_the_package():
    # a public module-level function that no other code of the package
    # reaches is exported or is a reference definition; anything else is
    # surface that only tests reach
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(pathlib.Path(opstats.__file__).parent.glob("*.py"))}
    unused = [name for name in uncalled_functions(trees)
              if name.split(".")[1] not in opstats.__all__ and name not in REFERENCE_DEFINITIONS]
    assert unused == []


def test_guard_reaches_a_function_only_through_its_own_module():
    # a same-named local in another module is no caller; an import, an
    # attribute of the module and a bare name inside the module each are
    defining = ast.parse("def form(pi):\n    return pi\n")
    local = ast.parse("def g(forms):\n    return [form for form in forms]\n")
    assert uncalled_functions({"a": defining, "b": local}) == ["a.form", "b.g"]
    for caller in ("from .a import form\n",
                   "from . import a\ndef g(pi):\n    return a.form(pi)\n"):
        assert "a.form" not in uncalled_functions({"a": defining, "b": ast.parse(caller)})
    inside = ast.parse("def form(pi):\n    return pi\ndef h(pi):\n    return form(pi)\n")
    assert uncalled_functions({"a": inside}) == ["a.h"]
    recursive = ast.parse("def form(pi):\n    return form(pi)\n")
    assert uncalled_functions({"a": recursive}) == ["a.form"]


def test_gf_golden_bytes(capsys):
    # canonical term order is a byte-level contract
    code, out, _ = run(capsys, "gf", "f", "--k", "2", "--order", "3")
    assert code == 0
    assert out == (
        "a^0\t0\n"
        "a^1\t0\n"
        "a^2\t1*x*t + 1*x*u\n"
        "a^3\t1*x*t + 1*x*u + 1*x^2*t + 1*x^2*u + 1*x*y*t + 1*x*y*u\n"
    )
    code, out, _ = run(capsys, "gf", "Q", "--k", "2", "--order", "2")
    assert out.splitlines()[-1] == "a^2\t1*t1*t5 + 1*t1*t6"


# -- the exit-code contract over generated argument vectors ------------------------


def call(argv):
    """``main(argv)`` in this process: (exit code, stdout, stderr).  Argparse
    usage errors exit through SystemExit; any other exception propagates."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


#: An n_max that every check refuses, or does not take: none of them runs.
PAST_EVERY_BOUND = 1 + max(c.n_bound for c in CHECKS.values() if c.n_bound is not None)

#: Sizes in and just outside the valid ranges, and malformed numbers.
SIZE = st.one_of(st.integers(-2, 4).map(str), st.sampled_from(["x", "1.5", ""]))
PARTITIONS = st.sampled_from(
    ["1", "2/1", "1,3/2", "6,8/5/1,4,7/3,9/2", "1/1,2", "2/3", "0", "a", "1,,2", "", "1/"])
EXPRS = st.sampled_from(
    ["mak+bInv", "cinvLSB+inv-cinv", "2*inv-cinv", "lmak'", "k", "mak+", "nosuch", "mak bInv", ""])


def _or_past(bound):
    """SIZE, or a size just past ``bound``, which is refused before any work."""
    return st.one_of(SIZE, st.sampled_from([bound + 1, bound + 2]).map(str))


def _option(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]), st.just([flag]))


def _command(name, *parts):
    return st.tuples(st.just([name]), *parts).map(lambda ps: [a for p in ps for a in p])


def _choice(values):
    return st.sampled_from(values).map(lambda v: [v])


FORMAT = _option("--format", st.sampled_from(["table", "records", "xml"]))
ARGV = st.one_of(
    _command("enum", _option("--n", SIZE), _option("--k", SIZE),
             st.sampled_from([[], ["--inv-free"], ["--count-only"]]), FORMAT),
    _command("stats", PARTITIONS.map(lambda p: [p])),
    _command("dist", _option("--n", SIZE), _option("--k", SIZE), _option("--stat", EXPRS)),
    _command("qnum", _choice(["stirling", "eulerian", "binomial", "factorial", "nosuch"]),
             _option("--n-max", _or_past(cli.QNUM_N_BOUND)), FORMAT),
    _command("gf", _choice([*GF_FAMILIES, "nosuch"]), _option("--k", SIZE),
             _option("--order", _or_past(cli.GF_ORDER_BOUND))),
    _command("det", _choice([*xfer.MATRICES, "nosuch"]), _option("--n", SIZE),
             _option("--k", SIZE)),
    _command("verify", st.lists(st.sampled_from([*CHECKS, "all", "nosuch"]), min_size=1,
                                max_size=2),
             st.one_of(st.integers(-1, 3), st.integers(PAST_EVERY_BOUND, 10 ** 6))
             .map(lambda n: ["--n-max", str(n)]), FORMAT),
)


@settings(max_examples=40, deadline=None)
@given(ARGV)
def test_cli_exit_code_contract(argv):
    code, out, err = call(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 2:
        assert out == "", argv
    assert call(argv)[:2] == (code, out), argv


# -- one argparse pass per call -----------------------------------------------


def test_one_pass_parse_matches_argparse_on_fixed_and_random_argvs():
    cases = (parse_equivalence.FIXED_CASES + parse_equivalence.random_cases(1, 300)
             + parse_equivalence.well_formed_cases(2, 300))
    assert parse_equivalence.differences(cases) == []


@settings(max_examples=60, deadline=None)
@given(ARGV)
def test_one_pass_parse_matches_argparse(argv):
    assert parse_equivalence.differences([argv]) == []


def test_cold_and_warm_calls_print_the_same():
    cli._enum_text.cache_clear()
    xfer.out_edges.cache_clear()
    xfer._pencil.cache_clear()
    xfer._HELD.clear()
    assert cache_equivalence.differences(cache_equivalence.CASES) == []


ONE_VALID_CALL_EACH = [
    ["qnum", "stirling", "--n-max", "2"], ["enum", "--n", "2"], ["stats", "2/1"],
    ["dist", "--n", "2", "--k", "1", "--stat", "inv"], ["bij", "--inverse", "2/1"],
    ["gf", "f", "--k", "1", "--order", "2"], ["det", "M", "--n", "1"],
    ["verify", "zz", "--n-max", "2"], ["conjecture", "--n-max", "2"],
]


#: Irregular spellings that the plain reader declines, each parsed by
#: argparse: "=" values, an abbreviation and "--".
DECLINED_EACH = [
    ["dist", "--n=3", "--k=2", "--stat=mak"], ["qnum", "stirling", "--n-m", "3"],
    ["stats", "--", "1,2"],
]


def test_only_a_declined_call_takes_an_argparse_pass(capsys, monkeypatch):
    # a well-formed call is read off its command's plan with no argparse
    # pass; a spelling the reader declines takes argparse's own parse,
    # the top-level parser's pass and its command parser's within it
    progs = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        progs.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    assert sorted(argv[0] for argv in ONE_VALID_CALL_EACH) == sorted(cli.COMMANDS)
    for argv in ONE_VALID_CALL_EACH:
        progs.clear()
        assert main(argv) == 0, argv
        assert progs == [], argv
    for argv in DECLINED_EACH:
        progs.clear()
        assert main(argv) == 0, argv
        assert progs == ["opstats", f"opstats {argv[0]}"], argv


def test_each_command_plan_models_every_action_it_declares():
    # the plans read off COMMANDS agree with the parsers argparse builds from it
    parsers = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices
    assert list(cli._PLANS) == list(parsers) == list(cli.COMMANDS)
    for name, command in parsers.items():
        options, positionals, defaults, required = cli._PLANS[name]
        declared = [a for a in command._actions if not isinstance(a, argparse._HelpAction)]
        assert set(options) == {s for a in declared for s in a.option_strings}, name
        assert [spec[0] for spec in positionals] == [a.dest for a in declared
                                                     if not a.option_strings], name
        assert list(defaults) == ["command", *(a.dest for a in declared), "fn"], name
        assert required == {a.dest for a in declared if a.required and a.option_strings}, name
        specs = {a.dest: (a.dest, a.nargs, a.type, a.choices, a.const) for a in declared}
        assert {spec[0]: spec for spec in [*options.values(), *positionals]} == specs, name
        assert defaults == {"command": None, **{a.dest: a.default for a in declared},
                            "fn": command.get_default("fn")}, name
    # each call gets a namespace and a list of checks of its own
    first, second = (cli._parse(["verify", "zz", "key"]) for _ in range(2))
    assert first == second and first is not second and first.checks is not second.checks


@pytest.mark.parametrize("name, kwargs", [
    ("--n", {"action": "append"}), ("--n", {"action": "count"}), ("--n", {"nargs": "?"}),
    ("--n", {"nargs": 2}), ("--n", {"nargs": "+"}), ("--n", {"default": argparse.SUPPRESS}),
    ("--n", {"dest": "command"}), ("--n", {"dest": "family"}), ("checks", {"nargs": "+"}),
])
def test_a_command_declaring_what_the_plan_does_not_model_has_no_plan(name, kwargs, monkeypatch):
    # _plan refuses the declaration at import, rather than misread it
    monkeypatch.setitem(cli.COMMANDS, "probe", (None, "", (("family", {}),)))
    assert cli._plan("probe")[1] == (("family", None, None, None, None),)
    monkeypatch.setitem(cli.COMMANDS, "probe", (None, "", (("family", {}), (name, kwargs))))
    with pytest.raises(ValueError, match="the plan does not model"):
        cli._plan("probe")


def test_a_well_formed_call_builds_no_parser(capsys):
    # argparse's parser is built only for help, a declined spelling or an error
    cli.build_parser.cache_clear()
    for argv in ONE_VALID_CALL_EACH:
        assert main(argv) == 0, argv
        assert cli.build_parser.cache_info().currsize == 0, argv
    assert main(["dist", "--n=3", "--k=2", "--stat=mak"]) == 0
    assert cli.build_parser.cache_info()[1:] == (1, None, 1)  # misses, maxsize, currsize
    cli.build_parser.cache_clear()
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--help"])
    assert exc.value.code == 0 and "usage: opstats stats" in capsys.readouterr().out
    assert cli.build_parser.cache_info()[1:] == (1, None, 1)
