"""The three benchmark workloads and the checks on their outputs.

A workload is a list of :class:`Op`, each one ``opstats`` command line run
through ``opstats.cli.main`` in-process.  Every op carries its own output
check, computed here and never taken from the program:

* ``sweep`` and ``symbolic`` are fixed op lists; they take no seed.  A
  ``verify`` op must exit 0, print only ``PASS`` lines, print the per-check
  instance counts of the reference commit and print the same bytes.
* ``query`` is drawn from the seed: about 1 700 one-shot calls whose outputs
  are checked by invariants in Python integers (a round trip for ``bij``,
  values at q = 1 for ``dist``, ``gf`` and ``qnum``, line counts for
  ``enum``, row sums for ``stats``).
"""

from __future__ import annotations

import hashlib
import math
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

Check = Callable[[int, str], "str | None"]  # (exit code, stdout) -> problem


@dataclass
class Op:
    argv: list[str]
    check: Check
    #: Builds a follow-up op from this op's stdout (the ``bij`` round trip).
    then: Callable[[str], "Op"] | None = field(default=None, repr=False)


# -- integer references ---------------------------------------------------------


@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """S(n,k) from the explicit alternating sum."""
    if k < 0 or k > n:
        return 0
    return sum((-1) ** j * math.comb(k, j) * (k - j) ** n for j in range(k + 1)) // math.factorial(k)


def ordered_count(n: int, k: int) -> int:
    """|OP_n^k| = k! S(n,k)."""
    return math.factorial(k) * stirling2(n, k)


@lru_cache(maxsize=None)
def eulerian(n: int, k: int) -> int:
    """Permutations of [n] with k descents."""
    if n == 0:
        return int(k == 0)
    if k < 0 or k >= n:
        return 0
    return (k + 1) * eulerian(n - 1, k) + (n - k) * eulerian(n - 1, k - 1)


_TERM_SPLIT = re.compile(r" ([+-]) ")


def value_at_one(text: str) -> int:
    """A polynomial in the CLI's text form evaluated with every variable 1:
    the signed sum of its coefficients."""
    text = text.strip()
    if text == "0":
        return 0
    sign = 1
    if text.startswith("-"):
        sign, text = -1, text[1:]
    parts = _TERM_SPLIT.split(text)
    total = sign * int(parts[0].split("*", 1)[0])
    for op, term in zip(parts[1::2], parts[2::2]):
        c = int(term.split("*", 1)[0])
        total += c if op == "+" else -c
    return total


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- checks ---------------------------------------------------------------------


def verify_check(counts: dict[str, int], sha: str) -> Check:
    """Exit 0, only PASS lines, these per-check instance counts, these bytes."""

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        seen: dict[str, int] = {}
        for line in out.splitlines():
            fields = line.split()
            if len(fields) < 3 or fields[0] != "PASS":
                return f"not a PASS line: {line!r}"
            seen[fields[1]] = seen.get(fields[1], 0) + 1
        if seen != counts:
            return f"instance counts {seen} != {counts}"
        if digest(out) != sha:
            return f"stdout digest {digest(out)} != {sha}"
        return None

    return check


def gf_check(k: int, order: int, sha: str | None = None) -> Check:
    """One line a^n per n <= order; every variable 1 gives k! S(n,k)."""

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        if len(lines) != order + 1:
            return f"{len(lines)} lines, want {order + 1}"
        for n, line in enumerate(lines):
            head, _, poly = line.partition("\t")
            if head != f"a^{n}":
                return f"line {n} is {line!r}"
            if value_at_one(poly) != ordered_count(n, k):
                return f"a^{n} sums to {value_at_one(poly)}, want {ordered_count(n, k)}"
        if sha is not None and digest(out) != sha:
            return f"stdout digest {digest(out)} != {sha}"
        return None

    return check


def dist_check(n: int, k: int) -> Check:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = value_at_one(out)
        return None if got == ordered_count(n, k) else f"q=1 gives {got}, want {ordered_count(n, k)}"

    return check


def enum_check(lines_expected: int) -> Check:
    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = len(out.splitlines())
        return None if got == lines_expected else f"{got} lines, want {lines_expected}"

    return check


def stats_check(partition: str) -> Check:
    """The pi row lists the partition; each aggregate is its row's sum."""
    shown = " | ".join(" ".join(b.split(",")) for b in partition.split("/"))

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        lines = out.splitlines()
        if len(lines) < 13 or lines[0] != f"pi:     {shown}":
            return f"unexpected table head {lines[:1]}"
        sums = {}
        for line in lines[1:11]:
            name, _, cells = line.partition("_i:")
            sums[name] = sum(int(v) for v in cells.replace("|", " ").split())
        aggregates = dict(item.split("=") for item in lines[12].split())
        for name, total in sums.items():
            if int(aggregates.get(name, -1)) != total:
                return f"{name} aggregate {aggregates.get(name)} != row sum {total}"
        return None

    return check


def qnum_check(family: str, n_max: int) -> Check:
    """Each row at q = 1 is S(n,k), the Eulerian number, C(n,k) or n!."""
    if family == "stirling":
        rows = {(n, k): stirling2(n, k) for n in range(n_max + 1) for k in range(n + 1)}
    elif family == "eulerian":
        rows = {(n, k): eulerian(n, k) for n in range(1, n_max + 1) for k in range(n)}
    elif family == "binomial":
        rows = {(n, k): math.comb(n, k) for n in range(n_max + 1) for k in range(n + 1)}
    else:
        rows = {(n,): math.factorial(n) for n in range(n_max + 1)}

    def check(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        got = {}
        for line in out.splitlines():
            *key, poly = line.split("\t")
            got[tuple(int(v) for v in key)] = value_at_one(poly)
        return None if got == rows else f"{family} table at q=1 differs"

    return check


def ok_check(rc: int, out: str) -> str | None:
    """Exit 0 and one polynomial line (``det``: no independent value here)."""
    if rc != 0:
        return f"exit code {rc}"
    lines = out.splitlines()
    if len(lines) != 1:
        return f"{len(lines)} lines, want 1"
    try:
        value_at_one(lines[0])
    except ValueError:
        return f"not a polynomial: {lines[0][:60]!r}"
    return None


def bij_roundtrip(partition: str) -> Op:
    """``bij --inverse`` and then ``bij --forward`` of its output, which must
    give the partition back."""

    def forward(out: str) -> Op:
        steps, _, xi = out.strip().partition("\t")

        def check(rc: int, text: str) -> str | None:
            if rc != 0:
                return f"exit code {rc}"
            return None if text.strip() == partition else f"round trip gave {text.strip()!r}"

        return Op(["bij", "--forward", steps, "--xi", xi], check)

    def check_inverse(rc: int, out: str) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        steps, tab, xi = out.strip().partition("\t")
        n = partition.count(",") + partition.count("/") + 1
        if not tab or len(steps) != n or len(xi.split(",")) != n:
            return f"malformed diagram {out.strip()!r}"
        return None

    return Op(["bij", "--inverse", partition], check_inverse, then=forward)


# -- fixed workloads --------------------------------------------------------------
#
# Per-check instance counts and stdout digests of the reference commit.

SWEEP = [
    (
        "verify thm25 prop22 lemma310 conjecture-bmaj equidist sect23 --n-max 7",
        {"thm25": 168, "prop22": 7, "lemma310": 7, "conjecture-bmaj": 84,
         "equidist": 56, "sect23": 84},
        "013297d0b7504a79",
    ),
    ("verify bij --n-max 6", {"bij": 12}, "31106797c9cfbb6d"),
]

SYMBOLIC_VERIFY = [
    (
        "verify minor1 minor2 conj eigen key detm detn --n-max 5",
        {"minor1": 5, "minor2": 5, "conj": 5, "eigen": 20, "key": 21, "detm": 5, "detn": 5},
        "ab3f453873c8ea08",
    ),
    # main1 stays at its desk bound: at n = 5 it alone takes 12 s.
    (
        "verify main1 cor39 thm25-series transfer thm24",
        {"main1": 4, "cor39": 8, "thm25-series": 24, "transfer": 32, "thm24": 64},
        "a1c094a515ce9753",
    ),
]

#: Every check the fixed workloads run.
CHECKED = sorted({name for _, counts, _ in SWEEP + SYMBOLIC_VERIFY for name in counts})

SYMBOLIC_GF = [
    ("gf Q --k 4 --order 10", "b6595cfa14a49918"),
    ("gf Qxy --k 5 --order 8", "c294be70c6b483a2"),
    ("gf Qz --k 5 --order 8", "daa03622b992d62b"),
]


def sweep_ops(seed: int) -> list[Op]:
    """Deterministic: the seed is not used."""
    return [Op(cmd.split(), verify_check(counts, sha)) for cmd, counts, sha in SWEEP]


def symbolic_ops(seed: int) -> list[Op]:
    """Deterministic: the seed is not used."""
    ops = [Op(cmd.split(), verify_check(counts, sha)) for cmd, counts, sha in SYMBOLIC_VERIFY]
    for cmd, sha in SYMBOLIC_GF:
        argv = cmd.split()
        ops.append(Op(argv, gf_check(int(argv[3]), int(argv[5]), sha)))
    return ops


# -- the seeded query mix ---------------------------------------------------------

STAT_EXPRS = (
    "mak+bInv", "mak+bInv-inv+cinv", "lmak+bInv", "lmak+bInv-inv+cinv",
    "cinvLSB", "cinvLSB+inv-cinv", "mak+bMaj", "lmak+bMaj", "cmajLSB",
    "ros", "los+rcs", "2*inv-cinv", "lsb+rsb", "bExc",
)
GF_FAMILIES = ("Q", "Qxy", "Qz", "f", "g", "phi", "varphi")
DET_MATRICES = ("M", "N", "P", "Pk", "ndot", "A", "Axy", "Az")
QNUM_FAMILIES = ("stirling", "eulerian", "binomial", "factorial")


def random_partition(rng: random.Random, n: int) -> str:
    """An ordered partition of [n] in machine format, blocks sorted."""
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    k = rng.randint(1, n)
    cuts = sorted(rng.sample(range(1, n), k - 1))
    blocks = [sorted(perm[a:b]) for a, b in zip([0, *cuts], [*cuts, n])]
    return "/".join(",".join(map(str, b)) for b in blocks)


def query_ops(seed: int) -> list[Op]:
    """About 1 700 one-shot calls drawn from ``seed``.

    Every size class of every command is called a fixed number of times, and
    ``dist`` below n = 7 with every statistic; the seed draws the partitions,
    the statistic at n = 7 and the call order.  The latency tail is made of
    the larger classes, so fixing them keeps ``query_p99_ms`` from hinging on
    how many large inputs one seed draws.
    """
    rng = random.Random(seed)
    ops: list[Op] = []
    for n in range(1, 10):
        for _ in range(40):
            p = random_partition(rng, n)
            ops.append(Op(["stats", p], stats_check(p)))
        for _ in range(28):
            ops.append(bij_roundtrip(random_partition(rng, n)))
    for n in range(1, 8):
        for k in range(1, n + 1):
            for expr in STAT_EXPRS if n < 7 else [rng.choice(STAT_EXPRS)]:
                ops.append(Op(["dist", "--n", str(n), "--k", str(k), "--stat", expr],
                              dist_check(n, k)))
    for n in range(1, 7):
        for _ in range(5):
            ops.append(Op(["enum", "--n", str(n)],
                          enum_check(sum(ordered_count(n, j) for j in range(n + 1)))))
        for k in range(1, n + 1):
            for _ in range(5):
                ops.append(Op(["enum", "--n", str(n), "--k", str(k)], enum_check(ordered_count(n, k))))
            ops.append(Op(["enum", "--n", str(n), "--k", str(k), "--inv-free"],
                          enum_check(stirling2(n, k))))
    for family in GF_FAMILIES:
        for k in range(3 if family == "Q" else 4):
            for order in (2, 4, 6, 8):
                ops.append(Op(["gf", family, "--k", str(k), "--order", str(order)], gf_check(k, order)))
    for matrix in DET_MATRICES:
        for n in range(1, 4):
            for k in (1, 2, 3) if matrix == "Pk" else (None,):
                argv = ["det", matrix, "--n", str(n)] + ([] if k is None else ["--k", str(k)])
                ops += [Op(argv, ok_check) for _ in range(3)]
    for family in QNUM_FAMILIES:
        for n_max in range(1, 9):
            ops += [Op(["qnum", family, "--n-max", str(n_max)], qnum_check(family, n_max))
                    for _ in range(5)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {"sweep": sweep_ops, "symbolic": symbolic_ops, "query": query_ops}
