"""CLI contract: outputs, determinism, exit codes."""

import contextlib
import dataclasses
import hashlib
import importlib.util
import inspect
import io
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opstats import checks, qnum, stats, xfer
from opstats.checks import CHECKS, CheckResult
from opstats.cli import GF_FAMILIES, _emit_results, build_parser, main
from opstats.opart import OrderedPartition, format_partition, iter_blocks_all
from opstats.ring import DEFAULT, SeriesInA, format_poly
from opstats.stats import block_stats
from opstats.xfer import WeightSpec


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
    for argv in (["--n", "-1"], ["--n", "3", "--k", "5"]):
        for extra in (["--count-only"], []):
            code, out, err = run(capsys, "enum", *argv, *extra)
            assert code == 2 and out == "", argv + extra
            assert "no ordered partitions" in err


def test_enum_count_only_deep_rows(capsys):
    code, out, _ = run(capsys, "enum", "--n", "1500", "--k", "1", "--count-only")
    assert (code, out) == (0, "1\t1\n")


def test_enum_bound_exit_code(capsys):
    code, _, err = run(capsys, "enum", "--n", "11")
    assert code == 2
    assert "force-large" in err


def test_dist(capsys):
    code, out, _ = run(capsys, "dist", "--n", "3", "--k", "2", "--stat", "mak+bInv")
    assert code == 0
    assert out.strip() == "2*q + 3*q^2 + 1*q^3"
    code, out, err = run(capsys, "dist", "--n", "3", "--k", "2", "--stat", "inv-cinv")
    assert code == 0
    assert "negative Laurent exponents" in err


def test_qnum_table(capsys):
    code, out, _ = run(capsys, "qnum", "stirling", "--n-max", "3")
    assert code == 0
    assert "3\t2\t2*q + 1*q^2" in out.splitlines()
    code, out, _ = run(capsys, "qnum", "eulerian", "--n-max", "3")
    assert "3\t1\t2*q + 2*q^2" in out.splitlines()


def test_qnum_negative_bound_is_a_usage_error(capsys):
    for family in ("stirling", "eulerian", "binomial", "factorial"):
        code, out, err = run(capsys, "qnum", family, "--n-max", "-1")
        assert (code, out) == (2, ""), family
        assert "--n-max must be nonnegative" in err, family


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


def test_gf_bound_errors_name_the_flag(capsys):
    for argv in (["f", "--k", "17"], ["Q", "--k", "5"]):
        code, out, err = run(capsys, "gf", *argv, "--order", "0")
        assert (code, out) == (2, ""), argv
        assert "--force-large" in err, argv


def test_gf_closed_forms_bound_exit_2(capsys, monkeypatch):
    # k = 1100 raised RecursionError (exit 1) before the bound existed
    code, out, err = run(capsys, "gf", "f", "--k", "1100", "--order", "0")
    assert (code, out) == (2, "") and "closed-form desk bound 16" in err
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
        return SeriesInA(series.registry, [c * t1 if n else c for n, c in enumerate(series.coeffs)])

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

    def shifted(key):
        return lambda d: [{**p, key: p[key] + 1} if key in p else p for p in predictions(d)]

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
    monkeypatch.setattr(xfer, "det", lambda m, method="laplace": det(m, method) * (1 + a))
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
    monkeypatch.setattr(xfer, "det", lambda m, method="laplace": det(m, method) + a)
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
    patched = tuple((c, f, pairs if c == check else p) for c, f, p in checks.POINTWISE)
    return lambda mp: mp.setattr(checks, "POINTWISE", patched)


Q = DEFAULT.var("q")


def _higher_times_q(series):
    """The a^n coefficients with n >= 1 times q."""
    return SeriesInA(series.registry, [c * Q if n else c for n, c in enumerate(series.coeffs)])


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


def test_symbolic_gf_text_matches_the_bench_digests(capsys, monkeypatch):
    wl = _bench_workloads(monkeypatch)
    assert len(wl.SYMBOLIC_GF) == 3
    for cmd, sha in wl.SYMBOLIC_GF:
        code, out, _ = run(capsys, *cmd.split())
        assert code == 0 and wl.digest(out) == sha, cmd


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
             _option("--n-max", SIZE), FORMAT),
    _command("gf", _choice([*GF_FAMILIES, "nosuch"]), _option("--k", SIZE),
             _option("--order", SIZE)),
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
