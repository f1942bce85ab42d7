"""Show that the benchmark's output checks can fail.

    python3 bench/selftest.py

Runs one op of every kind the workloads use, checks that its real output
passes, then feeds each check a perturbed output and requires a problem
report.  Last, it runs a short op list through ``worker.run_ops`` with one
perturbed expectation, and one op through a CLI whose output the check
cannot parse, and requires each failed op to be counted with a non-zero
``failed_frac``.  Exits 0 when every perturbation is caught.
"""

from __future__ import annotations

import contextlib
import io
import re
import sys

from worker import ROOT, call, run_ops

sys.path.insert(0, str(ROOT / "src"))

import opstats.cli as cli  # noqa: E402

import workloads as wl  # noqa: E402


def bump_first_int(text: str) -> str:
    return re.sub(r"\d+", lambda m: str(int(m.group()) + 1), text, count=1)


def bump_last_line(out: str, after: str = "") -> str:
    """Add one to the first integer of the last line, past ``after``."""
    *head, last = out.rstrip("\n").split("\n")
    pre, sep, post = last.partition(after) if after else ("", "", last)
    return "\n".join([*head, pre + sep + bump_first_int(post)]) + "\n"


def drop_last_line(out: str) -> str:
    return "".join(out.splitlines(keepends=True)[:-1])


def bump_aggregates(out: str) -> str:
    lines = out.split("\n")
    lines[12] = re.sub(r"=(\d+)", lambda m: f"={int(m.group(1)) + 1}", lines[12], count=1)
    return "\n".join(lines)


PARTITION = "6,8/5/1,4,7/3,9/2"
MAIN1_SHA = "366bd6ddf53f97d7"  # stdout digest of ``verify main1``
# The README's bijection example: the inverse of this partition is this diagram.
BIJ_PARTITION, BIJ_DIAGRAM = "6/3,5,7/1,4,10/9/2,8", "NNNOOESSES\t1,2,1,2,1,1,1,2,4,1\n"

CASES = [
    # (op, perturbation name, perturbation)
    (wl.Op(["verify", "main1"], wl.verify_check({"main1": 4}, MAIN1_SHA)),
     "one PASS turned FAIL", lambda out: out.replace("PASS", "FAIL", 1)),
    (wl.Op(["verify", "main1"], wl.verify_check({"main1": 4}, MAIN1_SHA)),
     "one instance missing", drop_last_line),
    (wl.Op(["verify", "main1"], wl.verify_check({"main1": 4}, MAIN1_SHA)),
     "one byte changed", lambda out: out.replace("k=1", "k=0", 1)),
    (wl.Op(["gf", "Qz", "--k", "5", "--order", "8"], wl.gf_check(5, 8, wl.SYMBOLIC_GF[2][1])),
     "a coefficient off by one", lambda out: bump_last_line(out, "\t")),
    (wl.Op(["gf", "phi", "--k", "2", "--order", "5"], wl.gf_check(2, 5)),
     "a coefficient off by one", lambda out: bump_last_line(out, "\t")),
    (wl.Op(["dist", "--n", "5", "--k", "3", "--stat", "mak+bInv"], wl.dist_check(5, 3)),
     "a coefficient off by one", bump_first_int),
    (wl.Op(["enum", "--n", "5", "--k", "3"], wl.enum_check(wl.ordered_count(5, 3))),
     "one partition missing", drop_last_line),
    (wl.Op(["qnum", "eulerian", "--n-max", "6"], wl.qnum_check("eulerian", 6)),
     "a coefficient off by one", lambda out: bump_last_line(out, "\t")),
    (wl.Op(["stats", PARTITION], wl.stats_check(PARTITION)),
     "an aggregate off by one", bump_aggregates),
    (wl.Op(["det", "Az", "--n", "3"], wl.ok_check),
     "an extra line", lambda out: out + "1\n"),
    (wl.bij_roundtrip(BIJ_PARTITION), "the diagram cut short",
     lambda out: out.split("\t")[0][:-1] + "\t" + out.split("\t")[1]),
    (wl.bij_roundtrip(BIJ_PARTITION).then(BIJ_DIAGRAM),
     "another partition", bump_first_int),
]


class ReformattedCli:
    """The CLI with its polynomials printed without ``*``, still exiting 0."""

    @staticmethod
    def main(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        print(out.getvalue().replace("*", ""), end="")
        return rc


def counts_failure(name: str, cli_, ops, failed: int) -> bool:
    result = run_ops(cli_, ops)
    failed_frac = len(result["failures"]) / len(result["latencies"])
    ok = len(result["failures"]) == failed and failed_frac > 0
    print(f"{'ok  ' if ok else 'MISS'} {name}: failed {len(result['failures'])} of "
          f"{len(result['latencies'])}, failed_frac {failed_frac}: {result['failures']}")
    return ok


def main() -> int:
    caught = 0
    for op, name, perturb in CASES:
        rc, out, *_ = call(cli.main, op.argv)
        clean = op.check(rc, out)
        problem = op.check(rc, perturb(out))
        ok = clean is None and problem is not None
        caught += ok
        print(f"{'ok  ' if ok else 'MISS'} {' '.join(op.argv)} / {name}: "
              f"{'clean output passes' if clean is None else 'clean output fails: ' + clean}; "
              f"perturbed -> {problem}")
    # A wrong expectation inside a run counts as one failed op.
    run_ok = counts_failure("run with one wrong expectation", cli, [
        wl.Op(["dist", "--n", "4", "--k", "2", "--stat", "inv"], wl.dist_check(4, 2)),
        wl.Op(["enum", "--n", "4", "--k", "2"], wl.enum_check(wl.ordered_count(4, 2) + 1)),
    ], 1)
    # So does output in a format the check cannot parse.
    run_ok &= counts_failure("run with unreadable output", ReformattedCli, [
        wl.Op(["dist", "--n", "4", "--k", "2", "--stat", "inv"], wl.dist_check(4, 2)),
    ], 1)
    print(f"{caught} of {len(CASES)} perturbations caught")
    return 0 if caught == len(CASES) and run_ok else 1


if __name__ == "__main__":
    sys.exit(main())
