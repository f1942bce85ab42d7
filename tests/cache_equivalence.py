"""Cold and warm calls of ``cli.main`` print the same bytes.

    PYTHONPATH=src python tests/cache_equivalence.py

Runs each argv of ``CASES`` twice in this one interpreter: the first call
builds the weighted digraphs, pencils, held determinants and series,
q-number rows, text forms and ``enum`` levels that the process keeps, the
second reads them back.  Prints one line per argv
that does not exit 0, whose exit code or stdout differ between the two
calls, or whose first call differs from an earlier run of the same argv,
and a summary line; exits 1 if any does.  It needs neither pytest nor
hypothesis, so it runs under any Python the package supports.
"""

from __future__ import annotations

import contextlib
import io
import platform
import sys

from opstats import cli, xfer

#: ``det`` of every matrix at n = 3 (P_3^k at k = 1..3), the three transfer
#: series at k = 3, every ``gf`` family at k = 3 and orders 8, 2, 6, 4 and 9
#: (a held series read as a prefix, a closed form extended from its held
#: prefix, a walk series computed afresh at a higher order), a table of
#: each q-number family, and q-Stirling tables at n <= 6, then 12, then 6
#: again, in both formats: the held rows are built, widened, and read back
#: from wider rows.  Then ``enum`` at every n <= 6 (``stats.KEEP_N``, the
#: levels whose text is held), without and with each ``--k``, with
#: ``--inv-free`` at each ``--k``, in both formats.
CASES = [
    *(["det", name, "--n", "3"] for name in xfer.MATRICES if name != "Pk"),
    *(["det", "Pk", "--n", "3", "--k", str(k)] for k in (1, 2, 3)),
    *(["gf", family, "--k", "3", "--order", "6"] for family in ("Q", "Qxy", "Qz")),
    *(["gf", family, "--k", "3", "--order", str(order)]
      for family in ("Q", "Qxy", "Qz", *xfer.CLOSED_FAMILIES) for order in (8, 2, 6, 4, 9)),
    *(["qnum", family, "--n-max", "10"]
      for family in ("binomial", "stirling", "eulerian", "factorial")),
    *(["qnum", "stirling", "--n-max", str(n), "--format", fmt]
      for fmt in ("table", "records") for n in (6, 12, 6)),
    *(["enum", "--n", str(n), "--format", fmt, *k, *inv_free]
      for fmt in ("table", "records") for n in range(7)
      for k in [[], *(["--k", str(j)] for j in range(n + 1))]
      for inv_free in ([], ["--inv-free"]) if k or not inv_free),
]


def outcome(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def differences(cases: list[list[str]]) -> list[tuple[list[str], tuple, tuple]]:
    found = []
    first: dict[tuple[str, ...], tuple[int, str]] = {}
    for argv in cases:
        cold, warm = outcome(argv), outcome(argv)
        if cold != warm or cold[0] != 0 or first.setdefault(tuple(argv), cold) != cold:
            found.append((argv, cold, warm))
    return found


def main() -> int:
    found = differences(CASES)
    for argv, cold, warm in found:
        print(f"{argv!r}:\n  cold {cold!r}\n  warm {warm!r}")
    print(f"Python {platform.python_version()}: {len(found)} differences "
          f"over {len(CASES)} argvs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
