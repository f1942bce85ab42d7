"""Acceptance suite: every headline identity at its full desk-scale bound.

Each criterion is one test; the -v test line is its pass/fail record, and a
summary line is printed as well.  Exact integer arithmetic throughout, zero
tolerance: every comparison is polynomial equality on the nose.

  1  the six inversion-type distributions equal [k]_q! S_q(n,k), n <= 8
  2  the worked 9-element example reproduces its full statistic table
  3  the walk bijection round-trips both ways with per-step predictions, n <= 7
  4  transfer-matrix series = enumeration (7 variables, k <= 3, n <= 7);
     specialized series = closed product forms through order 8
  5  the four/three-variable closed forms match enumeration, k <= 3, n <= 7
  6  the determinant suite (products, minors, ratio family, key identity,
     eigenvectors, generic-sequence determinant)
  7  the q-binomial / q-Eulerian summation identity, 1 <= k <= n <= 8
  8  mak/lmak dualities and the rewrite identities pointwise, n <= 8;
     the two coordinate equidistribution classes, n <= 7
  9  inversion-free distributions give S_q(n,k) three ways, n <= 8
 10  EMPIRICAL report on the three bMaj distributions, n <= 8
 11  the q-Stirling recurrence values diverge from the variant table entries
"""

import pytest

from opstats import checks, qnum
from opstats.cli import main
from opstats.ring import DEFAULT

Q = DEFAULT.var("q")


@pytest.fixture(scope="module")
def audit():
    # one sweep over all 598k ordered partitions with n <= 8 feeds
    # criteria 1, 8 and 10
    return checks.run_audit(n_max=8, equidist_n_max=7)


def _report(name: str, results):
    bad = checks.first_failure(results)
    assert bad is None, f"{name}: first failure: {bad.line()}"
    print(f"{name}: PASS ({len(results)} instances)")


def test_c01_euler_mahonian_master(audit):
    assert len(audit["thm25"]) == 6 * sum(range(1, 9))
    _report("criterion 1 (six Euler-Mahonian statistics, n<=8)", audit["thm25"])


def test_c02_worked_example_fidelity(capsys):
    code = main(["stats", "6,8/5/1,4,7/3,9/2"])
    out = capsys.readouterr().out
    assert code == 0
    expected_rows = [
        "los_i:  0 0 | 0 | 0 0 2 | 1 3 | 1",
        "ros_i:  4 4 | 3 | 0 2 2 | 1 1 | 0",
        "lob_i:  0 0 | 1 | 2 2 0 | 2 0 | 3",
        "rob_i:  0 0 | 0 | 2 0 0 | 0 0 | 0",
        "lcs_i:  0 0 | 0 | 0 0 1 | 0 3 | 0",
        "rcs_i:  2 3 | 1 | 0 1 1 | 1 1 | 0",
        "lcb_i:  0 0 | 1 | 2 2 1 | 3 0 | 4",
        "rcb_i:  2 1 | 2 | 2 1 1 | 0 0 | 0",
        "lsb_i:  0 0 | 0 | 0 0 1 | 1 0 | 1",
        "rsb_i:  2 1 | 2 | 0 1 1 | 0 0 | 0",
    ]
    for row in expected_rows:
        assert row in out, row
    for item in ("bInv=4", "bMaj=5", "bExc=0", "perm=54132", "inv=8", "cinv=2"):
        assert item in out, item
    print("criterion 2 (worked example fidelity): PASS")


def test_c03_bijection(audit):
    from opstats.opart import format_partition, parse
    from opstats.walks import PathDiagram, parse_steps, psi, psi_inverse

    # the ten-step worked example, both directions
    d = PathDiagram(parse_steps("NNNOOESSES"), (1, 2, 1, 2, 1, 1, 1, 2, 4, 1))
    assert format_partition(psi(d)) == "6/3,5,7/1,4,10/9/2,8"
    assert psi_inverse(parse("6/3,5,7/1,4,10/9/2,8")) == d
    results = checks.check_bijection(n_max=7)
    _report("criterion 3 (bijection: every partition round-trips, diagrams counted, "
            "step tracking, n<=7)", results)
    results = checks.check_path_counts(n_max=8)
    _report("criterion 3 (choice-weighted path counts, n<=8)", results)


def test_c04_transfer_matrix_agreement():
    results = checks.check_transfer_enum(k_max=3, n_max=7)
    _report("criterion 4 (transfer series vs enumeration, 7 vars)", results)
    results = checks.check_cor39(k_max=3, order=8)
    _report("criterion 4 (specialized series vs closed forms, order 8)", results)


def test_c05_closed_forms_match_enumeration():
    results = checks.check_thm24(k_max=3, n_max=7)
    _report("criterion 5 (phi/varphi closed forms vs enumeration)", results)
    results = checks.check_thm25_series(k_max=3, order=8)
    _report("criterion 5 (six single-variable specializations)", results)


def test_c06_determinant_suite():
    for name, results in (
        ("detm", checks.check_det("detm", n_max=3)),
        ("detn", checks.check_det("detn", n_max=3)),
        ("minor1", checks.check_det("minor1", n_max=4)),
        ("minor2", checks.check_det("minor2", n_max=4)),
        ("main1", checks.check_main1(n_max=4)),
        ("key", checks.check_lemma_key(n_max=5)),
        ("eigen", checks.check_eigen(n_max=4)),
        ("conj", checks.check_det("conj", n_max=4)),
    ):
        _report(f"criterion 6 ({name})", results)


def test_c07_summation_identity():
    results = checks.check_zz(n_max=8)
    assert len(results) == 36
    _report("criterion 7 (q-binomial/q-Eulerian identity, n<=8)", results)


def test_c08_pointwise_identities_and_equidistribution(audit):
    _report("criterion 8 (mak/lmak dualities pointwise, n<=8)", audit["prop22"])
    _report("criterion 8 (rewrite identities pointwise, n<=8)", audit["lemma310"])
    _report("criterion 8 (opener-restriction identities, n<=8)", audit["restriction-identities"])
    assert len(audit["equidist"]) == 2 * sum(range(1, 8))
    _report("criterion 8 (equidistribution classes, n<=7)", audit["equidist"])


def test_c09_unordered_interpretations():
    results = checks.check_sect23(n_max=8)
    _report("criterion 9 (S_q(n,k) three ways on inversion-free partitions)", results)


def test_c10_conjecture_report(audit):
    # an empirical report: every instance is listed MATCH/MISMATCH, and the
    # assertion below records that at desk scale all three match
    bmaj = audit["conjecture-bmaj"]
    assert len(bmaj) == 3 * sum(range(1, 9))
    for r in bmaj:
        status = "MATCH" if r.ok else "MISMATCH"
        assert r.check == "conjecture-bmaj"
        if not r.ok:
            print(f"criterion 10 EMPIRICAL {status}: {r.instance}")
    matched = sum(1 for r in bmaj if r.ok)
    print(
        f"criterion 10 (EMPIRICAL bMaj report, n<=8): "
        f"{matched}/{len(bmaj)} instances MATCH"
    )
    assert matched == len(bmaj), "a bMaj mismatch is a headline finding"


def test_c11_documented_erratum():
    # recurrence values
    assert qnum.q_stirling(3, 2) == 2 * Q + Q ** 2
    assert qnum.q_stirling(4, 2) == 3 * Q + 3 * Q ** 2 + Q ** 3
    assert qnum.q_stirling(4, 3) == 3 * Q ** 3 + 2 * Q ** 4 + Q ** 5
    # ... differ from the variant table entries
    assert qnum.q_stirling(3, 2) != 1 + Q + Q ** 2
    assert qnum.q_stirling(4, 2) != 1 + 3 * Q + 2 * Q ** 2 + Q ** 3
    assert qnum.q_stirling(4, 3) != Q ** 2 + 2 * Q ** 3 + 2 * Q ** 4 + Q ** 5
    # ... and are documented
    assert "recurrence" in (qnum.__doc__ or "")
    print("criterion 11 (q-Stirling erratum asserted and documented): PASS")
