"""Command-line front end.

Subcommands: qnum, enum, stats, dist, bij, gf, det, verify, conjecture.
Exit codes: 0 success / all checks verified, 1 verification mismatch,
2 usage error (bad arguments, malformed partition text, bound exceeded
without --force-large) or stdout closed by its reader before the output
ended (whatever was written is no result).

Identical invocations produce byte-identical output: polynomial terms are
serialized in canonical order and all enumerations run in a fixed order.
Progress/diagnostics go to stderr, results to stdout.

Each command is declared once, in ``COMMANDS``.  A well-formed call is read
off the plan read from it; any other argv goes to argparse's parser
(``build_parser``, built from the same table only when a call needs it),
which gives every help text, usage and error.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys

from . import checks, opart, qnum, stats, walks, xfer
from .ring import format_poly


#: The largest ``qnum --n-max`` and ``gf --order`` that run without
#: ``--force-large``, each the largest that takes a few seconds on a 2-core
#: Xeon (Python 3.11, whole process).  ``qnum``: eulerian, the slowest
#: table, 0.2 s at 20 and 25 and 1.0-1.2 s at 40 (stirling 0.1-0.3 s up to
#: 25 and 0.6-1.1 s at 40; binomial and factorial 0.1 s at 25 and 0.2-0.3 s
#: at 40), so 20 is no longer the largest that takes a few seconds; the
#: bound is kept so that exit codes stay as they were.  ``gf``: the slowest
#: family at its slowest k within the k bounds takes 1.4 s at order 12,
#: 2.2 s at 13 (phi at k = 8), 5.2 s at 14 (f at k = 8) and 14.5 s at 15
#: (phi at k = 9); Q at k = 4 takes 2.1 s at 13.
QNUM_N_BOUND = 20
GF_ORDER_BOUND = 13


def _qnum_cmd(args) -> int:
    opart.check_desk_bound(f"qnum --n-max {args.n_max}", "--n-max", args.n_max, QNUM_N_BOUND,
                           args.force_large)
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


#: ``enum`` notes its progress on stderr after every this many partitions.
PROGRESS_INTERVAL = 1_000_000

#: ``enum`` writes at most this many lines to stdout at once.
CHUNK_LINES = 10_000


def _enum_lines(nodes, n: int, fmt: str):
    """``enum``'s stdout lines, one per text node of ``opart.iter_text``."""
    if fmt == "records":
        return (json.dumps({"n": n, "k": len(node), "partition": "/".join(node)})
                for node in nodes)
    return map("/".join, nodes)


@functools.lru_cache(maxsize=None)
def _enum_text(n: int, k: int | None, inv_free: bool, fmt: str) -> str:
    """The stdout of ``enum`` for a level with n <= ``stats.KEEP_N``, grown
    once per process and held as one string (every table level together is
    about 0.13 MB)."""
    lines = list(_enum_lines(opart.iter_text(n, k, inv_free), n, fmt))
    return "\n".join(lines) + "\n" if lines else ""


def _enum_cmd(args) -> int:
    n = args.n
    opart.check_range(n, args.k, args.inv_free)
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
    if n <= stats.KEEP_N:  # below opart.DESK_BOUND: the range check is all a held level needs
        text = _enum_text(n, args.k, args.inv_free, args.format)
        lines = text.count("\n")
        chunks = ([(text, lines)] if 0 < lines <= _chunk_size(0)
                  else _joined_chunks(iter(text.splitlines())))
    else:
        nodes = opart.iter_text(n, args.k, args.inv_free, args.force_large)
        chunks = _joined_chunks(_enum_lines(nodes, n, args.format))
    write = sys.stdout.write
    emitted = 0
    for chunk, count in chunks:
        write(chunk)
        emitted += count
        if emitted % PROGRESS_INTERVAL == 0:
            print(f"... {emitted} partitions", file=sys.stderr)
    return 0


def _chunk_size(emitted: int) -> int:
    """The lines of ``enum``'s next chunk after ``emitted``: at most
    CHUNK_LINES, and a chunk ends at every multiple of PROGRESS_INTERVAL,
    where a note goes out."""
    return min(CHUNK_LINES, PROGRESS_INTERVAL - emitted % PROGRESS_INTERVAL)


def _joined_chunks(lines):
    """(text, line count) of each chunk of ``lines``, joined a chunk at a time."""
    emitted = 0
    while chunk := list(itertools.islice(lines, _chunk_size(emitted))):
        emitted += len(chunk)
        yield "\n".join(chunk) + "\n", len(chunk)


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


def _parse_xi(text: str) -> tuple[int, ...]:
    xi = []
    for tok in text.split(","):
        try:
            xi.append(int(tok))
        except ValueError:
            raise ValueError(
                f"--xi takes comma-separated integers; {tok!r} in {text!r} is not one"
            ) from None
    return tuple(xi)


def _bij_cmd(args) -> int:
    if args.inverse is not None:
        if args.forward is not None or args.xi is not None:
            raise ValueError("--inverse takes no --forward or --xi")
        pi = opart.parse(args.inverse)
        d = walks.psi_inverse(pi)
        print("".join(d.steps) + "\t" + ",".join(map(str, d.xi)))
        return 0
    if args.forward is None:
        raise ValueError("bij needs --forward STEPS --xi LIST or --inverse PARTITION")
    if args.xi is None:
        raise ValueError("--forward needs --xi (comma-separated choices)")
    steps = walks.parse_steps(args.forward)
    d = walks.PathDiagram(steps, _parse_xi(args.xi))
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
    opart.check_desk_bound(f"gf --order {args.order}", "--order", args.order, GF_ORDER_BOUND,
                           args.force_large)
    series = GF_FAMILIES[args.family](args.k, args.order, args.force_large)
    for n, c in enumerate(series.coeffs):
        print(f"a^{n}\t{format_poly(c)}")
    return 0


def _det_cmd(args) -> int:
    if args.k is not None and args.matrix != "Pk":
        raise ValueError(f"--k applies only to Pk, not to {args.matrix}")
    opart.check_desk_bound(f"det {args.matrix} --n {args.n}", "--n", args.n,
                           xfer.DET_BOUNDS[args.matrix], args.force_large)
    print(format_poly(xfer.det(xfer.MATRICES[args.matrix](args.n, args.k))))
    return 0


def _emit_results(results, fmt: str) -> int:
    ok = True
    for r in results:
        if fmt == "records":
            print(json.dumps({"check": r.check, "instance": r.instance, "ok": r.ok,
                              "detail": r.detail}))
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
            print(json.dumps({"check": r.check, "instance": r.instance,
                              "status": "MATCH" if r.ok else "MISMATCH", "empirical": True}))
        else:
            print(("MATCH    " if r.ok else "MISMATCH ") + r.instance)
        ok = ok and r.ok
    return 0 if ok else 1


#: ``--force-large`` and ``--format`` as most commands declare them.
_FORCE_LARGE = ("--force-large", {"action": "store_true"})
_FORMAT = ("--format", {"choices": ["table", "records"], "default": "table"})

#: Every command by name: (its function, its help line, its arguments), each
#: argument the (name, keywords) of one ``add_argument`` call.  argparse's
#: parsers and each command's plan for ``_read`` are built from this alone.
COMMANDS = {
    "qnum": (_qnum_cmd, "print q-number tables", (
        ("family", {"choices": ["stirling", "eulerian", "binomial", "factorial"]}),
        ("--n-max", {"type": int, "default": 6}), _FORCE_LARGE, _FORMAT)),
    "enum": (_enum_cmd, "enumerate ordered partitions", (
        ("--n", {"type": int, "required": True}), ("--k", {"type": int}),
        ("--inv-free", {"action": "store_true",
                        "help": "only inversion-free (canonically ordered) partitions"}),
        ("--count-only", {"action": "store_true"}), _FORCE_LARGE, _FORMAT)),
    "stats": (_stats_cmd, "coordinate/composite statistics of one partition", (
        ("partition", {"help": "machine format, e.g. 6,8/5/1,4,7/3,9/2"}),)),
    "dist": (_dist_cmd, "distribution polynomial of a statistic", (
        ("--n", {"type": int, "required": True}), ("--k", {"type": int, "required": True}),
        ("--stat", {"required": True, "help": "e.g. mak+bInv or cinvLSB+inv-cinv"}),
        _FORCE_LARGE)),
    "bij": (_bij_cmd, "the walk/partition bijection, either way", (
        ("--forward", {"metavar": "STEPS", "help": "step letters N,E,S,O; needs --xi"}),
        ("--xi", {"help": "comma-separated choice sequence"}),
        ("--inverse", {"metavar": "PARTITION"}))),
    "gf": (_gf_cmd, "generating-function series, one a^n per line", (
        ("family", {"choices": list(GF_FAMILIES)}), ("--k", {"type": int, "required": True}),
        ("--order", {"type": int, "default": 8}), _FORCE_LARGE)),
    "det": (_det_cmd, "symbolic determinant of a named matrix", (
        ("matrix", {"choices": list(xfer.MATRICES)}), ("--n", {"type": int, "required": True}),
        ("--k", {"type": int, "help": "the column of P_n^k; Pk only"}), _FORCE_LARGE)),
    "verify": (_verify_cmd, "run named verification suites", (
        ("checks", {"nargs": "+", "metavar": "CHECK",
                    "help": "e.g. thm25 zz minor1 main1 key eigen conj, or all"}),
        ("--n-max", {"type": int, "help": "override the suite's default bound"}),
        ("--force-large", {"action": "store_true", "help": "run past a check's desk bound"}),
        _FORMAT)),
    "conjecture": (_conjecture_cmd, "EMPIRICAL bMaj-statistic report", (
        ("--n-max", {"type": int, "default": 8}), _FORCE_LARGE, _FORMAT)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built from ``COMMANDS`` when a call first needs it
    (help, a spelling that ``_read`` declines, an error) and shared by later
    calls."""
    parser = argparse.ArgumentParser(
        prog="opstats",
        description="Exact statistics on ordered set partitions and their "
        "transfer-matrix identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_line, arguments) in COMMANDS.items():
        command = sub.add_parser(name, help=help_line)
        command.set_defaults(fn=fn)
        for argument, keywords in arguments:
            command.add_argument(argument, **keywords)
    return parser


#: The ``add_argument`` keywords that ``_plan`` models, the last two for help alone.
_KEYWORDS = {"action", "nargs", "type", "choices", "default", "required", "help", "metavar"}


def _plan(name: str) -> tuple:
    """What ``_read`` needs of command ``name``, read off its row of ``COMMANDS``:
    its options by string and its positionals in order, each (dest, nargs,
    type, choices, const), a ``store_true`` flag with nargs 0, const True and
    default False; the namespace's defaults in argparse's order, ``command``
    first and ``fn`` last; the dests of its required options.  ValueError,
    rather than a misread, for another keyword or action, a nargs but "+" on
    the only positional, a dest used twice, or a string default that argparse
    would convert or that is none of the choices."""
    fn, _, arguments = COMMANDS[name]
    lone = sum(argument[0] != "-" for argument, _ in arguments) == 1
    options, positionals, defaults, required = {}, [], {"command": None}, []
    for argument, keywords in arguments:
        option, flag = argument[0] == "-", keywords.get("action") == "store_true"
        dest = argument.lstrip("-").replace("-", "_") if option else argument
        nargs = 0 if flag else keywords.get("nargs")
        default = keywords.get("default", False if flag else None)
        if (keywords.keys() - _KEYWORDS or keywords.get("action", "store_true") != "store_true"
                or nargs not in (0, None) and (nargs, option, lone) != ("+", False, True)
                or dest in (*defaults, "fn") or isinstance(default, str)
                and ("type" in keywords or default not in keywords.get("choices", ()))):
            raise ValueError(f"opstats {name}: the plan does not model {argument} {keywords}")
        spec = (dest, nargs, keywords.get("type"), keywords.get("choices"), flag or None)
        if option:
            options[argument] = spec
        else:
            positionals.append(spec)
        defaults[dest] = default
        if keywords.get("required"):
            required.append(dest)
    defaults["fn"] = fn
    return options, tuple(positionals), defaults, frozenset(required)


#: Each command's plan by name, read once off ``COMMANDS``.
_PLANS = {name: _plan(name) for name in COMMANDS}


def _value(word: str, convert, choices):
    """``word`` as argparse stores it: through the action's type, then checked
    against its choices (ValueError for a value outside them)."""
    value = word if convert is None else convert(word)
    if choices is not None and value not in choices:
        raise ValueError(word)
    return value


def _read(name: str, words: list[str]) -> argparse.Namespace | None:
    """The namespace that command ``name``'s parser gives for ``words``, read
    off the command's plan without an argparse pass, or None where the reader
    declines.  It reads exact option strings, flags, ``--opt value`` with a
    value not starting with "-" (a repeated option keeps its last value), and
    the positionals, one word each or a "+" list as one run of adjacent words;
    each value passes its argument's own type and choices, and every required
    option must be given.  It declines anything else: help, "--", "--opt=value",
    an abbreviation, a value starting with "-", a missing, unconvertible or
    unlisted value, a missing, extra or split positional word.  argparse then
    parses the argv, so every usage text, error and exit code is argparse's."""
    options, positionals, defaults, required = _PLANS[name]
    given, loose = {}, []
    i, end = 0, len(words)
    try:
        while i < end:
            word = words[i]
            i += 1
            if word[:1] != "-":
                loose.append(i - 1)
                continue
            option = options.get(word)
            if option is None:
                return None
            dest, nargs, convert, choices, const = option
            if nargs == 0:
                given[dest] = const
                continue
            if i == end or words[i][:1] == "-":
                return None  # no value, or one that argparse may read as an option
            given[dest] = _value(words[i], convert, choices)
            i += 1
        if positionals and positionals[0][1] == "+":
            if not loose or loose[-1] - loose[0] != len(loose) - 1:
                return None
            dest, _, convert, choices, _ = positionals[0]
            given[dest] = [_value(words[j], convert, choices) for j in loose]
        elif len(loose) != len(positionals):
            return None
        else:
            for (dest, _, convert, choices, _), j in zip(positionals, loose):
                given[dest] = _value(words[j], convert, choices)
    except (TypeError, ValueError):
        return None
    if not given.keys() >= required:
        return None
    args = argparse.Namespace()  # filled through its __dict__; Namespace(**kw) sets them one by one
    vars(args).update(defaults, command=name)
    vars(args).update(given)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``: an argv that starts with a command
    name is read by ``_read`` off the command's plan, with no parser built;
    any argv the reader declines, or that starts with no command name, is
    parsed by argparse, which prints the help or the usage error."""
    args = _read(argv[0], argv[1:]) if argv and argv[0] in COMMANDS else None
    return build_parser().parse_args(argv) if args is None else args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        status = args.fn(args)
        sys.stdout.flush()
        return status
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit cannot fail again (the recipe of the Python docs)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    sys.exit(main())
