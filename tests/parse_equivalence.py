"""``cli.main``'s parse, by the plain reader or one argparse pass, against
argparse's own nested parse.

    PYTHONPATH=src python tests/parse_equivalence.py

Parses every argv of ``FIXED_CASES``, 3 000 seeded random argvs, built
from the commands, options and values of the CLI, and 3 000 seeded argvs
built from each command's own arguments in ``cli.COMMANDS``, most of them
well formed, both through ``cli._parse`` and through
``build_parser().parse_args``, and compares the exit code, stdout, stderr
and namespace (``vars``) of the two; each namespace must be an
``argparse.Namespace``.  Prints one line per difference and a summary line;
exits 1 if any argv differs.  It needs neither pytest nor hypothesis, so it
runs under any Python the package supports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import platform
import random
import sys

from opstats import cli
from opstats.cli import _parse, build_parser

#: Argvs that do not start with a command, that reach argparse's corners
#: (help, ``--``, case, abbreviation, ``=`` values and words left over), or
#: that the plain reader must decline or read exactly as argparse does: a
#: value starting with "-", a repeated option or flag, a positional after the
#: options, a split "+" list, a missing, unconvertible or unlisted value, an
#: empty positional, and README's expression that starts with "-".
FIXED_CASES = [
    [], ["-h"], ["--help"], ["nosuch"], ["STATS", "1"], ["stats"], ["stats", "-h"],
    ["--", "stats", "1"], ["stats", "--", "1"], ["stats", "1", "2"],
    ["stats", "1,2,3", "--format", "records"], ["dist", "--n=3", "--k=2", "--stat=mak"],
    ["qnum", "stirling", "--n-m", "3"], ["-x", "stats", "1"], ["enum", "--n", "3", "extra"],
    ["enum", "--n", "-1"], ["dist", "--n", "3", "--n", "4", "--k", "1", "--stat", "inv"],
    ["enum", "--n", "3", "--inv-free", "--inv-free", "--k", "2"], ["det", "--n", "2", "M"],
    ["verify", "thm25", "--n-max", "3", "prop22"], ["gf", "Q", "--k"], ["enum", "--n", "x"],
    ["qnum", "stirling", "--format", "xml"], ["stats", ""], ["bij", "--inverse", "--xi", "1"],
    ["dist", "--n", "3", "--k", "2", "--stat", "-inv+cinv"],
    ["dist", "--n", "3", "--k", "2", "--stat=-inv+cinv"],
]

COMMANDS = list(cli.COMMANDS)
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
            args = parse(list(argv))
        except SystemExit as exc:
            code = exc.code
        else:
            assert isinstance(args, argparse.Namespace), (argv, args)
            namespace = vars(args)
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


def well_formed_cases(seed: int, count: int) -> list[list[str]]:
    """``count`` argvs, each a command with its own options (each given 0-2
    times, a value from its choices, a number or ``VALUES``) and positionals,
    in random order.  Most are well formed, so that the plain reader reads
    them; some miss an option, take a bad value, or split, drop or add a
    positional word."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        name = rng.choice(COMMANDS)
        chunks = []
        for argument, keywords in cli.COMMANDS[name][2]:
            pool = ([*keywords["choices"], "nosuch"] if "choices" in keywords
                    else ["0", "2", "3", "x"] if keywords.get("type") is int else VALUES)
            if argument.startswith("-"):
                for _ in range(rng.choice([0, 1, 1, 1, 2])):
                    flag = keywords.get("action") == "store_true"
                    chunks.append([argument, *([] if flag else [rng.choice(pool)])])
            else:
                words = [rng.choice(pool) for _ in range(rng.choice([0, 1, 1, 1, 2]))]
                chunks += [[word] for word in words] if rng.random() < 0.2 else [words]
        rng.shuffle(chunks)
        cases.append([name] + [word for chunk in chunks for word in chunk])
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
    cases = FIXED_CASES + random_cases(1, 3000) + well_formed_cases(2, 3000)
    found = differences(cases)
    for argv, one_pass, two_pass in found:
        print(f"{argv!r}:\n  one pass {one_pass!r}\n  nested   {two_pass!r}")
    print(f"Python {platform.python_version()}: {len(found)} differences "
          f"over {len(cases)} argvs")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
