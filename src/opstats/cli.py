"""Command-line front end.

Subcommands: qnum, enum, stats, dist, bij, gf, det, verify, conjecture.
Exit codes: 0 success / all checks verified, 1 verification mismatch,
2 usage error (bad arguments, malformed partition text, bound exceeded
without --force-large).

Identical invocations produce byte-identical output: polynomial terms are
serialized in canonical order and all enumerations run in a fixed order.
Progress/diagnostics go to stderr, results to stdout.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import checks, opart, qnum, stats, walks, xfer
from .ring import format_poly


def _qnum_cmd(args) -> int:
    if args.n_max < 0:
        raise ValueError(f"--n-max must be nonnegative, got {args.n_max}")
    rows = []
    if args.family == "stirling":
        for n in range(0, args.n_max + 1):
            for k in range(0, n + 1):
                rows.append((n, k, qnum.q_stirling(n, k)))
    elif args.family == "eulerian":
        for n in range(1, args.n_max + 1):
            for k in range(0, n):
                rows.append((n, k, qnum.q_eulerian(n, k)))
    elif args.family == "binomial":
        for n in range(0, args.n_max + 1):
            for k in range(0, n + 1):
                rows.append((n, k, qnum.q_binomial(n, k)))
    else:  # factorial
        for n in range(0, args.n_max + 1):
            rows.append((n, None, qnum.q_factorial(n)))
    for n, k, poly in rows:
        if args.format == "records":
            print(json.dumps({"n": n, "k": k, "value": format_poly(poly)}))
        elif k is None:
            print(f"{n}\t{format_poly(poly)}")
        else:
            print(f"{n}\t{k}\t{format_poly(poly)}")
    return 0


def _enum_cmd(args) -> int:
    n = args.n
    opart.check_range(n, args.k)
    if args.count_only:
        ks = [args.k] if args.k is not None else list(range(0, n + 1))
        total = 0
        for k in ks:
            if args.inv_free:
                count = qnum.stirling2(n, k)
            else:
                count = qnum.ordered_partition_count(n, k)
            total += count
            if args.format == "records":
                print(json.dumps({"n": n, "k": k, "count": count}))
            else:
                print(f"{k}\t{count}")
        if args.k is None and args.format != "records":
            print(f"total\t{total}")
        return 0
    if args.inv_free:
        if args.k is None:
            raise ValueError("--inv-free enumeration needs --k")
        stream = opart.enumerate_p(n, args.k, force_large=args.force_large)
    else:
        stream = opart.enumerate_op(n, args.k, force_large=args.force_large)
    emitted = 0
    for pi in stream:
        text = opart.format_partition(pi)
        if args.format == "records":
            print(json.dumps({"n": n, "k": pi.k, "partition": text}))
        else:
            print(text)
        emitted += 1
        if emitted % 1_000_000 == 0:
            print(f"... {emitted} partitions", file=sys.stderr)
    return 0


def _stats_cmd(args) -> int:
    pi = opart.parse(args.partition)
    print(stats.stat_table(pi))
    return 0


def _dist_cmd(args) -> int:
    poly = stats.distribution(args.n, args.k, args.stat, force_large=args.force_large)
    if poly.min_exponent("q") < 0:
        print("note: distribution has negative Laurent exponents", file=sys.stderr)
    print(format_poly(poly))
    return 0


def _bij_cmd(args) -> int:
    if args.inverse is not None:
        pi = opart.parse(args.inverse)
        d = walks.psi_inverse(pi)
        print("".join(d.steps) + "\t" + ",".join(map(str, d.xi)))
        return 0
    if args.forward is None:
        raise ValueError("bij needs --forward STEPS --xi LIST or --inverse PARTITION")
    if args.xi is None:
        raise ValueError("--forward needs --xi (comma-separated choices)")
    steps = walks.parse_steps(args.forward)
    xi = tuple(int(tok) for tok in args.xi.split(","))
    d = walks.PathDiagram(steps, xi)
    d.validate()
    print(opart.format_partition(walks.psi(d)))
    return 0


def _walk_family(spec):
    """The transfer series under the weights ``spec()``, by the walk iteration."""
    return lambda k, order, force_large: xfer.walk_series(k, spec(), order, force_large)


def _closed_family(family):
    """The closed form ``family``, expanded from its (numerator, denominator) pair."""
    return lambda k, order, force_large: xfer.closed_series(family, k, order, force_large)


#: The series of ``gf``, each a function of (k, order, force_large).  Like
#: every entry of ``xfer.MATRICES``, each looks its ``xfer`` function up when
#: called, so a patched or wrapped function is the one that runs.
GF_FAMILIES = {
    "Q": _walk_family(xfer.WeightSpec.seven_variable),
    "Qxy": _walk_family(xfer.WeightSpec.xytu),
    "Qz": _walk_family(xfer.WeightSpec.ztu),
    **{family: _closed_family(family) for family in xfer.CLOSED_FAMILIES},
}


def _gf_cmd(args) -> int:
    series = GF_FAMILIES[args.family](args.k, args.order, args.force_large)
    for n, c in enumerate(series.coeffs):
        print(f"a^{n}\t{format_poly(c)}")
    return 0


def _det_cmd(args) -> int:
    xfer.check_det_bound(args.matrix, args.n, args.force_large)
    print(format_poly(xfer.det(xfer.MATRICES[args.matrix](args.n, args.k))))
    return 0


def _emit_results(results, fmt: str) -> int:
    ok = True
    for r in results:
        if fmt == "records":
            print(
                json.dumps(
                    {
                        "check": r.check,
                        "instance": r.instance,
                        "ok": r.ok,
                        "detail": r.detail,
                    }
                )
            )
        else:
            print(r.line())
        ok = ok and r.ok
    return 0 if ok else 1


def _verify_cmd(args) -> int:
    plan = checks.Verification(list(args.checks), args.n_max, args.force_large)
    status = 0
    for name, n_max in plan.bounds:
        results = checks.run_check(name, n_max, plan)
        code = _emit_results(results, args.format)
        if code:
            status = 1
            bad = checks.first_failure(results)
            print(f"first failing instance: {bad.line()}", file=sys.stderr)
    return status


def _conjecture_cmd(args) -> int:
    plan = checks.Verification(["conjecture-bmaj"], args.n_max, args.force_large)
    print(
        "EMPIRICAL check of the three bMaj-based distributions against "
        "[k]_q! S_q(n,k); a MATCH line is evidence, not a proof.",
        file=sys.stderr,
    )
    results = checks.run_check("conjecture-bmaj", args.n_max, plan)
    ok = True
    for r in results:
        if args.format == "records":
            print(
                json.dumps(
                    {
                        "check": r.check,
                        "instance": r.instance,
                        "status": "MATCH" if r.ok else "MISMATCH",
                        "empirical": True,
                    }
                )
            )
        else:
            print(("MATCH    " if r.ok else "MISMATCH ") + r.instance)
        ok = ok and r.ok
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls."""
    parser = argparse.ArgumentParser(
        prog="opstats",
        description="Exact statistics on ordered set partitions and their "
        "transfer-matrix identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qnum", help="print q-number tables")
    p.add_argument("family", choices=["stirling", "eulerian", "binomial", "factorial"])
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--format", choices=["table", "records"], default="table")
    p.set_defaults(fn=_qnum_cmd)

    p = sub.add_parser("enum", help="enumerate ordered partitions")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--inv-free", action="store_true",
                   help="only inversion-free (canonically ordered) partitions")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--force-large", action="store_true")
    p.add_argument("--format", choices=["table", "records"], default="table")
    p.set_defaults(fn=_enum_cmd)

    p = sub.add_parser("stats", help="coordinate/composite statistics of one partition")
    p.add_argument("partition", help="machine format, e.g. 6,8/5/1,4,7/3,9/2")
    p.set_defaults(fn=_stats_cmd)

    p = sub.add_parser("dist", help="distribution polynomial of a statistic")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--stat", required=True, help="e.g. mak+bInv or cinvLSB+inv-cinv")
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(fn=_dist_cmd)

    p = sub.add_parser("bij", help="the walk/partition bijection, either way")
    p.add_argument("--forward", metavar="STEPS",
                   help="step letters N,E,S,O; needs --xi")
    p.add_argument("--xi", help="comma-separated choice sequence")
    p.add_argument("--inverse", metavar="PARTITION")
    p.set_defaults(fn=_bij_cmd)

    p = sub.add_parser("gf", help="generating-function series, one a^n per line")
    p.add_argument("family", choices=list(GF_FAMILIES))
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=8)
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(fn=_gf_cmd)

    p = sub.add_parser("det", help="symbolic determinant of a named matrix")
    p.add_argument("matrix", choices=list(xfer.MATRICES))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--force-large", action="store_true")
    p.set_defaults(fn=_det_cmd)

    p = sub.add_parser("verify", help="run named verification suites")
    p.add_argument("checks", nargs="+", metavar="CHECK",
                   help="e.g. thm25 zz minor1 main1 key eigen conj, or all")
    p.add_argument("--n-max", type=int, default=None,
                   help="override the suite's default bound")
    p.add_argument("--force-large", action="store_true",
                   help="run past a check's desk bound")
    p.add_argument("--format", choices=["table", "records"], default="table")
    p.set_defaults(fn=_verify_cmd)

    p = sub.add_parser("conjecture", help="EMPIRICAL bMaj-statistic report")
    p.add_argument("--n-max", type=int, default=8)
    p.add_argument("--force-large", action="store_true")
    p.add_argument("--format", choices=["table", "records"], default="table")
    p.set_defaults(fn=_conjecture_cmd)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
