"""``cli.main``'s one-pass parse against argparse's own nested parse.

    PYTHONPATH=src python tests/parse_equivalence.py

Parses every argv of ``FIXED_CASES`` and 3 000 seeded random argvs,
built from the commands, options and values of the CLI, both through
``cli._parse`` and through ``build_parser().parse_args``, and compares the
exit code, stdout, stderr and namespace (``vars``) of the two.  Prints one
line per difference and a summary line; exits 1 if any argv differs.  It
needs neither pytest nor hypothesis, so it runs under any Python the
package supports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import platform
import random
import sys

from opstats.cli import _parse, build_parser

#: Argvs that do not start with a command, or that reach argparse's corners:
#: help, ``--``, case, abbreviation, ``=`` values and words left over.
FIXED_CASES = [
    [], ["-h"], ["--help"], ["nosuch"], ["STATS", "1"], ["stats"], ["stats", "-h"],
    ["--", "stats", "1"], ["stats", "--", "1"], ["stats", "1", "2"],
    ["stats", "1,2,3", "--format", "records"], ["dist", "--n=3", "--k=2", "--stat=mak"],
    ["qnum", "stirling", "--n-m", "3"], ["-x", "stats", "1"], ["enum", "--n", "3", "extra"],
]

COMMANDS = ["qnum", "enum", "stats", "dist", "bij", "gf", "det", "verify", "conjecture"]
OPTIONS = ["--n", "--k", "--n-max", "--format", "--stat", "--xi", "--forward", "--inverse",
           "--force-large", "--count-only", "--inv-free", "--order", "--n-m", "--he",
           "-h", "--help", "--", "-x", "--n=3", "--k=", "--format=records"]
VALUES = ["1", "3", "-1", "x", "", "records", "table", "stirling", "binomial", "Q", "f",
          "N", "thm25", "all", "mak+bInv", "1,2/3", "NNSS", "1,1", "stats"]


def outcome(parse, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, vars of the namespace or None) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    namespace, code = None, 0
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


def nested(argv: list[str]) -> argparse.Namespace:
    return build_parser().parse_args(argv)


def random_cases(seed: int, count: int) -> list[list[str]]:
    """``count`` argvs, most of them a command followed by up to six words."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        head = [rng.choice(COMMANDS)] if rng.random() < 0.85 else []
        tail = [rng.choice(rng.choice((OPTIONS, VALUES, COMMANDS))) for _ in range(rng.randint(0, 6))]
        cases.append(head + tail)
    return cases


def differences(cases) -> list[tuple[list[str], tuple, tuple]]:
    """The argvs whose two parses differ, each with both outcomes."""
    found = []
    for argv in cases:
        one_pass, two_pass = outcome(_parse, argv), outcome(nested, argv)
        if one_pass != two_pass:
            found.append((argv, one_pass, two_pass))
    return found


def main() -> int:
    cases = FIXED_CASES + random_cases(1, 3000)
    found = differences(cases)
    for argv, one_pass, two_pass in found:
        print(f"{argv!r}:\n  one pass {one_pass!r}\n  nested   {two_pass!r}")
    print(f"Python {platform.python_version()}: {len(found)} differences "
          f"over {len(cases)} argvs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
