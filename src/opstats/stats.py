"""Coordinate and composite statistics on ordered set partitions.

Ten coordinate statistics per element i (block(j) is the position of the
block containing j; open(pi) is the set of block openers, clos(pi) the set of
closers, both including singletons):

    ros_i  # openers j < i in blocks right of block(i)
    rob_i  # openers j > i in blocks right of block(i)
    rcs_i  # closers j < i in blocks right of block(i)
    rcb_i  # closers j > i in blocks right of block(i)
    los_i, lob_i, lcs_i, lcb_i   # same four with "left of block(i)"
    rsb_i  # blocks right of block(i) whose opener is < i and closer is > i
    lsb_i  # same on the left

Aggregates are the sums over i; stat(A) restricts the sum to a set A of
elements.  Block-level statistics use the partial order B > B' iff the opener
of B exceeds the closer of B': bInv counts inverted pairs of block positions,
bExc the ascending comparable pairs, bMaj sums the positions of descents
between adjacent blocks.  inv/cinv are inversions and coinversions of the
induced permutation.

Every derived statistic is defined once, as a row of ``TABLE``: an integer
combination of Summary fields, of earlier rows and of the per-partition
constants nk1 = n(k-1) and k2 = C(k,2).  Expressions such as ``mak+bInv-inv``
are compiled through the table into field coefficients (``linear_form``) and
then into one function of a partition's field tuple (``evaluator`` over
``fields(s)``), or into the value steps of a sweep that counts their values.

Two computation routes are kept deliberately separate.  The definition
route: coord_rows() counts every element's ten coordinates as defined
(``rows[name][i - 1]`` is name_i), block_stats() the block statistics and
opart.inv the inversions; psi_inverse and the bijection check read the rows,
and Summary(blocks) sums them (summarize(), composite(), q_monomial() and the
``stats`` table).  The sweep route walks opart's insertion tree through the
value steps, generated from STEPS, the one statement of each insertion step,
whose nodes carry the values of the sweep's expressions alone
(``value_counts``, ``level_counts``, ``sweep_all``).  The levels with
n <= KEEP_N, which ``enumerated_gf`` keeps for the life of the process, are
counted the same way, with every Summary field as an expression.  Tests pin the value steps
over every field to fields(Summary(blocks)).
"""

from __future__ import annotations

import functools
import itertools
import re
from bisect import bisect_right
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Mapping

from .opart import (
    DESK_BOUND, Blocks, OrderedPartition, check_desk_bound, check_range, grow, grow_all, inv, perm_of,
)
from .ring import DEFAULT, LaurentPoly

COORD_NAMES = ("ros", "rob", "rcs", "rcb", "los", "lob", "lcs", "lcb", "lsb", "rsb")

#: The one definition of every derived statistic (k blocks, n elements).  A
#: row is an integer combination of Summary fields (the ten coordinate sums,
#: their ``_op`` restrictions to open(pi), binv, bexc, bmaj, inv), of earlier
#: rows and of the per-partition constants nk1 = n(k-1) and k2 = C(k,2).
TABLE = {
    "cinv": "k2-inv",
    "bInv": "binv",
    "bExc": "bexc",
    "bMaj": "bmaj",
    "mak": "ros+lcs",
    "lmak": "nk1-los-rcs",
    "makP": "lob+rcb",
    "lmakP": "nk1-lcb-rob",
    "cinvLSB": "lsb+2*k2-bInv",
    "cmajLSB": "lsb+2*k2-bMaj",
    "makBInv": "mak+bInv",
    "lmakBInv": "lmak+bInv",
    "makBMaj": "mak+bMaj",
    "lmakBMaj": "lmak+bMaj",
    # restrictions to the transients and closers (the complement of open(pi))
    "lsb_tc": "lsb-lsb_op",
    "rsb_tc": "rsb-rsb_op",
    "lcsrcs_tc": "lcs-lcs_op+rcs-rcs_op",
    "lsbrsb_op": "lsb_op+rsb_op",
    # exponents of the seven-variable walk monomial
    "t1": "lcs_op+rcs_op",
    "t2": "lcsrcs_tc",
    "t3": "rsb_tc",
    "t4": "lsb_tc",
    "t5": "ros_op",
    "t6": "los_op",
    "t7": "lsbrsb_op",
}

WALK_EXPONENTS = ("t1", "t2", "t3", "t4", "t5", "t6", "t7")


def _blocks_of(pi) -> Blocks:
    return pi.blocks if isinstance(pi, OrderedPartition) else pi


# -- definition-faithful per-element route ------------------------------------


def coord_rows(pi) -> dict[str, list[int]]:
    """All ten coordinate rows straight from their definitions, in one pass
    over (element, other block) pairs; ``rows[name][i - 1]`` is name_i."""
    blocks = _blocks_of(pi)
    n = sum(map(len, blocks))
    rows = {name: [0] * n for name in COORD_NAMES}
    right = (rows["ros"], rows["rob"], rows["rcs"], rows["rcb"], rows["rsb"])
    left = (rows["los"], rows["lob"], rows["lcs"], rows["lcb"], rows["lsb"])
    for p, B in enumerate(blocks):
        o, c = B[0], B[-1]
        for r, A in enumerate(blocks):
            if r == p:
                continue
            # B lies left of the elements of A when p < r, right of them otherwise
            os_, ob, cs, cb, sb = left if p < r else right
            for i in A:
                x = i - 1
                if o < i:
                    os_[x] += 1
                    if i < c:
                        sb[x] += 1
                else:
                    ob[x] += 1
                if c < i:
                    cs[x] += 1
                else:
                    cb[x] += 1
    return rows


def block_stats(pi) -> tuple[int, int, int]:
    """(bInv, bExc, bMaj) under the order B > B' iff opener(B) > closer(B')."""
    blocks = _blocks_of(pi)
    k = len(blocks)
    binv = bexc = bmaj = 0
    for p in range(k):
        op, cp = blocks[p][0], blocks[p][-1]
        for r in range(p + 1, k):
            if op > blocks[r][-1]:
                binv += 1
                if r == p + 1:
                    bmaj += p + 1
            if cp < blocks[r][0]:
                bexc += 1
    return binv, bexc, bmaj


# -- the aggregates of one partition ------------------------------------------

# the coordinate statistics with an ``_op`` field in Summary
_OP_ROWS = ("ros", "rcs", "los", "lcs", "lsb", "rsb")


class Summary:
    """All aggregate statistics of one partition, read off the definitions:
    each coordinate field is its coord_rows row's sum, each ``_op`` field
    (the restriction to open(pi), the openers, singletons included) that
    row's sum at the openers, binv, bexc and bmaj are block_stats and inv is
    opart.inv."""

    __slots__ = (
        "n", "k",
        "ros", "rob", "rcs", "rcb", "los", "lob", "lcs", "lcb", "lsb", "rsb",
        "ros_op", "rcs_op", "los_op", "lcs_op", "lsb_op", "rsb_op",
        "binv", "bexc", "bmaj", "inv", "nk1", "k2",
    )

    def __init__(self, blocks: Blocks):
        _fill(self, blocks, coord_rows(blocks))


def _fill(s: Summary, blocks: Blocks, rows: dict[str, list[int]]) -> None:
    """Set every field of ``s`` from ``rows`` = coord_rows(blocks)."""
    for name, row in rows.items():
        setattr(s, name, sum(row))
    openers = [B[0] - 1 for B in blocks]
    for name in _OP_ROWS:
        row = rows[name]
        setattr(s, name + "_op", sum(row[o] for o in openers))
    s.binv, s.bexc, s.bmaj = block_stats(blocks)
    s.inv = inv(OrderedPartition._unchecked(blocks))
    s.n = n = len(rows["ros"])
    s.k = k = len(blocks)
    # the per-partition constants of TABLE
    s.nk1 = n * (k - 1)
    s.k2 = k * (k - 1) // 2


def summarize(pi) -> Summary:
    return Summary(_blocks_of(pi))


# -- the insertion tree ----------------------------------------------------------
#
# opart builds OP_n by inserting m = n into each partition of [n-1]: as a new
# singleton in each gap, then appended to each block.  Every pair that m's
# insertion adds or changes can be counted from the parent alone, so each
# step kind is written once, in STEPS, as the change of every Summary field
# over a few quantities of the parent and the step.  For each list of groups
# of statistic expressions, value steps over (blocks, values) nodes are
# generated from it, through which every sweep grows opart's tree
# (opart.grow*) and counts, without counting block pairs.  They are checked
# against Summary(blocks), which reads the definitions.
#
# The last level is only counted, and a group whose change under a step
# kind reads m, k, the position and constants alone, and no quantity of the
# parent's blocks, is counted once per parent, not once per child.  The
# children of parents with equal k and equal values of that group have
# equal values at each position, so a histogram of the parents' values,
# keyed by k, spread over that kind's positions after the walk, gives the
# same counts.  This is where the [k]_q factors of the recurrences come
# from: mak+bInv, for one, gains 2k-g at every gap g.


def _above(blocks: Blocks, b: int, c: int) -> tuple[int, int, int]:
    """For block b of ``blocks``, whose closer is c: the elements above c in
    the blocks left of it, the openers above c there, and the openers above
    c right of it."""
    left = left_op = right_op = 0
    for A in blocks[:b]:
        if A[-1] > c:
            if A[0] > c:
                left_op += 1
                left += len(A)
            else:
                left += len(A) - bisect_right(A, c)
    for A in blocks[b + 1:]:
        if A[0] > c:
            right_op += 1
    return left, left_op, right_op


#: Each kind of insertion of m into a partition ``blocks`` of [m-1] with k
#: blocks, at position ``at``, one of ``range(positions)``.  Each of
#: ``quantities`` is (names, source): the source sets those names from
#: blocks, k, m and the position, once ``prelude`` has run.  ``deltas`` gives
#: the change of every Summary field as an integer combination, such as
#: ``k-1-b`` or ``2*k``, of the quantities, m, k, the position and 1.
STEPS = {
    # m as a new singleton block at gap g (0..k).  Each of the k-g blocks
    # right of the gap gives m a smaller opener and closer on its right, and
    # has its opener below m: ros, rcs, their _op restrictions, inv and binv
    # gain k-g.  The g blocks left of it give los, lcs, los_op,
    # lcs_op and bexc.  The ``left`` elements left of the gap see m's block
    # as a bigger opener and closer on their right (rob, rcb); the m-1-left
    # right of it, on their left (lob, lcb).  The parent descents at or right
    # of g move one place right, the pair across the gap is split, and m's
    # block is a descent over the block after it: bmaj changes by ``dbmaj``.
    "singleton": SimpleNamespace(
        at="g",
        positions="k + 1",
        child="blocks[:g] + ((m,),) + blocks[g:]",
        prelude="",
        quantities=(
            (("left",), """\
left = 0
for B in blocks[:g]:
    left += len(B)"""),
            (("dbmaj",), """\
dbmaj = 0
if g < k:
    dbmaj = g + 1
    if g and blocks[g - 1][0] > blocks[g][-1]:
        dbmaj -= g
    for p in range(g, k - 1):
        if blocks[p][0] > blocks[p + 1][-1]:
            dbmaj += 1"""),
        ),
        deltas={
            "n": "1", "k": "1",
            "ros": "k-g", "rob": "left", "rcs": "k-g", "rcb": "left",
            "los": "g", "lob": "m-1-left", "lcs": "g", "lcb": "m-1-left",
            "lsb": "0", "rsb": "0",
            "ros_op": "k-g", "rcs_op": "k-g", "los_op": "g", "lcs_op": "g",
            "lsb_op": "0", "rsb_op": "0",
            "binv": "k-g", "bexc": "g", "bmaj": "dbmaj", "inv": "k-g",
            "nk1": "m+k-1", "k2": "k",
        },
    ),
    # m appended to block b (0..k-1).  m sees the b blocks on its left and
    # the k-1-b on its right with smaller openers and closers (los, lcs, ros,
    # rcs).  Block b's closer c becomes m: each of the ``left`` elements
    # above c in a block left of b moves from rcs to rcb and now lies between
    # block b's opener and closer (rsb); each of the ``right`` ones right of
    # b moves from lcs to lcb and gains lsb; every element above c lies
    # outside block b, so ``right`` is m-1-c-left.  The _op fields follow
    # for the ``left_op`` and ``right_op`` openers above c, and those
    # openers' blocks no longer lie above block b: binv loses the ones left
    # of b (bmaj too, by b, if that block is block b-1) and bexc the ones
    # right.
    "append": SimpleNamespace(
        at="b",
        positions="k",
        child="blocks[:b] + (blocks[b] + (m,),) + blocks[b + 1:]",
        prelude="c = blocks[b][-1]",
        quantities=(
            (("left", "left_op", "right", "right_op"), """\
left, left_op, right_op = _above(blocks, b, c)
right = m - 1 - c - left"""),
            (("dbmaj",), "dbmaj = -b if b and blocks[b - 1][0] > c else 0"),
        ),
        deltas={
            "n": "1", "k": "0",
            "ros": "k-1-b", "rob": "0", "rcs": "k-1-b-left", "rcb": "left",
            "los": "b", "lob": "0", "lcs": "b-right", "lcb": "right",
            "lsb": "right", "rsb": "left",
            "ros_op": "0", "rcs_op": "-left_op", "los_op": "0", "lcs_op": "-right_op",
            "lsb_op": "right_op", "rsb_op": "left_op",
            "binv": "-left_op", "bexc": "-right_op", "bmaj": "dbmaj", "inv": "0",
            "nk1": "k-1", "k2": "0",
        },
    ),
}

def _delta(kind: str, form: Mapping[str, int]) -> dict[str, int]:
    """The change under a ``kind`` step of the integer combination ``form``
    of Summary fields, as a combination of the step's quantities, m, k, its
    position and 1.  A field with no entry in the step raises, rather than
    counting as unchanged."""
    out: dict[str, int] = {}
    for field, c in form.items():
        entry = STEPS[kind].deltas.get(field)
        if entry is None:
            raise ValueError(f"the {kind} step has no entry for the Summary field {field!r}")
        for term in entry.replace("-", "+-").split("+"):
            if term:
                coef, _, atom = term.lstrip("-").rpartition("*")
                d = int(coef) if coef else 1
                if atom.isdigit():
                    d, atom = d * int(atom), "1"
                out[atom] = out.get(atom, 0) + (-c * d if term[0] == "-" else c * d)
    return {atom: d for atom, d in out.items() if d}


def _linear_source(form: Mapping[str, int]) -> str:
    """Source text of an integer combination of names; the name "1" is the
    constant."""
    out = ""
    for name, c in form.items():
        if c:
            a = abs(c)
            term = str(a) if name == "1" else name if a == 1 else f"{a}*{name}"
            out += ("+" if c > 0 else "-") + term
    return out.lstrip("+") or "0"


def _quantity_lines(kind: str, deltas: Iterable[Mapping[str, int]], indent: str) -> list[str]:
    """The lines of a ``kind`` step that compute the quantities ``deltas``
    read."""
    step = STEPS[kind]
    read = set().union(*deltas)
    sources = [source for names, source in step.quantities if read.intersection(names)]
    if sources and step.prelude:
        sources.insert(0, step.prelude)
    return [indent + line for source in sources for line in source.splitlines()]


def _generate(lines: list[str]) -> dict:
    namespace = {"__name__": __name__, "_above": _above}
    exec("\n".join(lines), namespace)
    return namespace


def _tree(groups: tuple[tuple[str | tuple[str, str], ...], ...]) -> tuple[dict, tuple]:
    """The value steps of ``groups`` and the root of their tree, the empty
    partition, at which every field, and so every value, is 0."""
    return _value_steps(groups, tuple(TABLE.items())), ((), (0,) * sum(map(len, groups)))


def _block_count(node) -> int:
    return len(node[0])


def sweep_all(n: int, exprs: Iterable[str | tuple[str, str]]
              ) -> Iterator[tuple[Blocks, tuple[int, ...]]]:
    """Every partition of OP_n with the values of ``exprs`` there (lhs - rhs
    for an ``(lhs, rhs)`` pair), in the order of ``opart.iter_blocks_all(n)``,
    through the value steps."""
    steps, root = _tree((tuple(exprs),))
    return grow_all(n, root, steps["singleton"], steps["append"], _block_count)


def value_counts(n: int, k: int, groups: Iterable[Iterable[str | tuple[str, str]]],
                 inv_free: bool = False) -> list[dict]:
    """For each group of statistic expressions, the number of partitions of
    OP_n^k (of its inversion-free partitions when ``inv_free``) at each value
    of the group: the bare value for a group of one expression, else the
    tuple of its values; an ``(lhs, rhs)`` pair counts as lhs - rhs.

    The levels below n are grown through the value steps; level n itself is
    only counted, from the singleton children of OP_(n-1)^(k-1) and the
    append children of OP_(n-1)^k.  A group whose change under a step kind
    reads only m, k, the position and constants, and no quantity of the
    parent's blocks, is counted once per parent, not once per child: two
    parents with the same k and the same values of that group give children
    with the same values at each position.  So a histogram of the parents'
    values, keyed by k and spread over the kind's positions after the walk,
    gives exactly the counts child by child.  ``level_counts`` counts every
    k of level n in one walk."""
    groups = tuple(map(tuple, groups))
    if not groups:
        return []
    counts = {k: [{} for _ in groups]}
    # every field of the empty partition is 0, and so is every value
    if n == 0:
        if k == 0:
            for c, group in zip(counts[k], groups):
                c[0 if len(group) == 1 else (0,) * len(group)] = 1
        return counts[k]
    steps, root = _tree(groups)
    singleton, append = steps["singleton"], steps["append"]
    parents = itertools.chain(grow(n - 1, k - 1, root, singleton, append, inv_free),
                              grow(n - 1, k, root, singleton, append, inv_free))
    steps["count"](parents, n, counts, inv_free)
    return counts[k]


def level_counts(n: int, groups: Iterable[Iterable[str | tuple[str, str]]]
                 ) -> dict[int, list[dict]]:
    """``value_counts(n, k, groups)`` for each 1 <= k <= n, counted in one
    walk of OP_(n-1), which is grown and never held: a partition of [n-1]
    with j blocks gives its singleton children to k = j+1 and its append
    children to k = j."""
    groups = tuple(map(tuple, groups))
    counts = {k: [{} for _ in groups] for k in range(1, n + 1)}
    if n > 0 and groups:
        steps, root = _tree(groups)
        parents = grow_all(n - 1, root, steps["singleton"], steps["append"], _block_count)
        steps["count"](parents, n, counts, False)
    return counts


@functools.lru_cache(maxsize=64)
def _value_steps(groups: tuple[tuple[str | tuple[str, str], ...], ...], table: tuple) -> dict:
    """For each step kind, the value step over (blocks, values) nodes, whose
    values are those of the expressions of ``groups`` in turn, and
    ``count(nodes, m, counts, inv_free)``.  ``count`` reads nodes that are
    partitions of [m-1] and counts their children without building their
    blocks: a node with j blocks adds 1 to ``counts[j + 1][i]`` at the value
    of group i (the bare value for one expression, else the tuple) of each
    singleton child, and to ``counts[j][i]`` for each append child, for each
    k present in ``counts``.  ``position_only[kind][i]`` is whether group
    i's change under ``kind`` reads no quantity of the parent, so that
    ``count`` counts it once per parent (``value_counts``).  Only the
    quantities that the other groups' changes read are computed."""
    # ``table`` is only part of the key, as for _compiled
    forms = [_form(e) for group in groups for e in group]
    values = "[" + "".join(f"v{i}, " for i in range(len(forms))) + "]"
    spans = [range(start - len(group), start)
             for group, start in zip(groups, itertools.accumulate(map(len, groups)))]

    def key(names: list[str], i: int) -> str:
        """Group i's value, read off one name per expression."""
        span = [names[j] for j in spans[i]]
        return span[0] if len(span) == 1 else "(" + "".join(v + ", " for v in span) + ")"

    parent = [f"v{j}" for j in range(len(forms))]
    counts = "[" + "".join(f"c{i}, " for i in range(len(groups))) + "]"
    lines, hist_lines, walk, spread = [], [], [], []
    position_only = {}
    for kind, step in STEPS.items():
        deltas = [_delta(kind, form) for form in forms]
        new = [_linear_source({f"v{j}": 1, **d}) for j, d in enumerate(deltas)]
        lines += [
            f"def {kind}(node, m, {step.at}):",
            f"    blocks, {values} = node",
            "    k = len(blocks)",
            *_quantity_lines(kind, deltas, "    "),
            f"    return {step.child}, ({''.join(v + ', ' for v in new)})",
        ]
        atoms = {"m", "k", step.at, "1"}
        position_only[kind] = tuple(all(deltas[j].keys() <= atoms for j in span) for span in spans)
        per_parent = [i for i, p in enumerate(position_only[kind]) if p]
        per_child = [i for i, p in enumerate(position_only[kind]) if not p]
        hists = "[" + "".join(f"h{i}, " for i in per_parent) + "]"
        # the inversion-free tree (opart.grow with inv_free) puts a new
        # singleton only in the right-most gap
        first = "k if inv_free else 0" if kind == "singleton" else "0"
        positions = f"for {step.at} in range({first}, {step.positions}):"
        # the block count of the children of a node with k blocks
        child = "k + 1" if kind == "singleton" else "k"
        hist_lines.append(f"    hist_{kind} = [[{'{}, ' * len(per_parent)}] for _ in range(m)]")
        walk += [f"        row = counts.get({child})", "        if row is not None:"]
        if per_parent:
            walk.append(f"            {hists} = hist_{kind}[k]")
            for i in per_parent:
                walk += [f"            v = {key(parent, i)}", f"            h{i}[v] = h{i}.get(v, 0) + 1"]
            spread += [
                f"    for k, {hists} in enumerate(hist_{kind}):",
                f"        row = counts.get({child})",
                "        if row is None:",
                "            continue",
                f"        {counts} = row",
                f"        {positions}",
            ]
            for i in per_parent:
                spread += [
                    f"            for {key(parent, i)}, w in h{i}.items():",
                    f"                v = {key(new, i)}",
                    f"                c{i}[v] = c{i}.get(v, 0) + w",
                ]
        if per_child:
            walk += [f"            {counts} = row", f"            {positions}"]
            read = [deltas[j] for i in per_child for j in spans[i]]
            walk += _quantity_lines(kind, read, "                ")
            for i in per_child:
                walk += [f"                v = {key(new, i)}", f"                c{i}[v] = c{i}.get(v, 0) + 1"]
    namespace = _generate([
        *lines,
        "def count(nodes, m, counts, inv_free):",
        # one histogram per group counted once per parent, for each k of
        # the parents
        *hist_lines,
        f"    for blocks, {values} in nodes:",
        "        k = len(blocks)",
        *walk,
        *spread,
    ])
    namespace["position_only"] = position_only
    return namespace


#: The largest n whose levels ``enumerated_gf`` keeps as field counts: all
#: of OP_n for n <= 6 is 5 316 partitions, about 1.2 MB; OP_7 alone is
#: 47 293, about 11 MB.  ``cli``'s ``enum`` holds the stdout text of the
#: same levels (``cli._enum_text``, about 0.13 MB for every table level).
KEEP_N = 6


@functools.lru_cache(maxsize=None)
def _kept_level(n: int, k: int) -> dict[tuple[int, ...], int]:
    """For 0 <= k <= n <= KEEP_N, the number of partitions of OP_n^k at each
    tuple of Summary fields (``fields``), counted once per process through
    the value steps and kept (at most 28 dicts).  A kept dict is shared
    between callers and threads; it is read-only, as nothing changes it
    after this count."""
    return value_counts(n, k, [Summary.__slots__])[0]


def fields(s: Summary) -> tuple[int, ...]:
    """The fields of ``s`` in ``Summary.__slots__`` order, which the
    functions of ``evaluator`` read."""
    return tuple(getattr(s, f) for f in Summary.__slots__)


def composite(pi, expr: str) -> int:
    """Value of a statistic expression, e.g. ``mak`` or ``lmak+bInv``."""
    return evaluator((expr,))(fields(summarize(pi)))[0]


# -- statistic expressions -------------------------------------------------------

_TERM_RE = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*\*\s*)?([A-Za-z][\w']*)\s*")


def parse_stat_expr(expr: str) -> tuple[tuple[int, str], ...]:
    """Parse e.g. ``mak+bInv-inv+2*cinv`` into ((1,'mak'), (1,'bInv'), ...).

    A name is a row of TABLE or a Summary field.  ``mak'``/``lmak'`` are
    accepted as aliases for makP/lmakP.
    """
    pos = 0
    terms: list[tuple[int, str]] = []
    while pos < len(expr):
        m = _TERM_RE.match(expr, pos)
        if not m:
            raise ValueError(f"cannot parse statistic expression at {expr[pos:]!r}")
        sign, coef, name = m.groups()
        if sign == "" and terms:
            raise ValueError(f"missing +/- before {name!r} in {expr!r}")
        name = {"mak'": "makP", "lmak'": "lmakP"}.get(name, name)
        if name not in TABLE and name not in Summary.__slots__:
            raise ValueError(f"unknown statistic {name!r}")
        c = int(coef) if coef else 1
        terms.append((-c if sign == "-" else c, name))
        pos = m.end()
    if not terms:
        raise ValueError("empty statistic expression")
    return tuple(terms)


def linear_form(expr: str) -> dict[str, int]:
    """The Summary-field coefficients of a statistic expression: each table
    name is replaced by its row until only fields remain."""
    form: dict[str, int] = {}
    for c, name in parse_stat_expr(expr):
        row = linear_form(TABLE[name]) if name in TABLE else {name: 1}
        for f, d in row.items():
            form[f] = form.get(f, 0) + c * d
    return form


def evaluator(exprs: Iterable[str | tuple[str, str]]
              ) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """One function of a partition's field tuple, ``fields(s)``, that returns
    the values of several statistic expressions; an ``(lhs, rhs)`` pair gives
    lhs - rhs, which is 0 exactly where that identity holds.

    The linear forms are compiled into one generated expression over the
    fields: about 1 us per tuple for twenty expressions, against 9 us for a
    loop over coefficients (``enumerated_gf`` inlines the same expressions
    into one loop over a kept level).  Only field names that
    ``parse_stat_expr`` accepted and integers reach it.  Each compiled
    function is kept per process, keyed on the expressions and on the
    contents of TABLE, so a changed row compiles anew.
    """
    return _compiled(tuple(exprs), tuple(TABLE.items()))


@functools.lru_cache(maxsize=256)
def _compiled(exprs: tuple[str | tuple[str, str], ...], table: tuple
              ) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    # ``table`` is TABLE's contents, which linear_form reads; it is only
    # part of the key
    return eval(f"lambda s: ({''.join(source + ', ' for source in _sources(exprs))})", {})


@functools.lru_cache(maxsize=256)
def _kept_counter(exprs: tuple[str | tuple[str, str], ...], table: tuple
                  ) -> Callable[[Mapping[tuple[int, ...], int]], dict]:
    """One generated loop over a kept level: the number of partitions at each
    value of ``exprs`` (the bare value for one expression, else the tuple),
    each field tuple's values read inline and weighted by its count.  Keyed
    like _compiled."""
    sources = _sources(exprs)
    value = sources[0] if len(sources) == 1 else f"({''.join(s + ', ' for s in sources)})"
    return _generate([
        "def count(kept):",
        "    c = {}",
        "    get = c.get",
        "    for s, m in kept.items():",
        f"        v = {value}",
        "        c[v] = get(v, 0) + m",
        "    return c",
    ])["count"]


def _sources(exprs: Iterable[str | tuple[str, str]]) -> list[str]:
    """The source text of each expression over a field tuple ``s``."""
    index = Summary.__slots__.index
    return [_linear_source({f"s[{index(f)}]": c for f, c in _form(e).items()}) for e in exprs]


def _form(expr: str | tuple[str, str]) -> dict[str, int]:
    """The linear form of one expression; an ``(lhs, rhs)`` pair gives
    lhs - rhs."""
    if isinstance(expr, str):
        return linear_form(expr)
    form = linear_form(expr[0])
    for f, d in linear_form(expr[1]).items():
        form[f] = form.get(f, 0) - d
    return form


def enumerated_gf(n: int, k: int, *weights: Mapping[str, str], inv_free: bool = False
                  ) -> list[LaurentPoly]:
    """One polynomial per ``weights`` mapping of variable names to statistic
    expressions: the sum over OP_n^k (over its inversion-free partitions
    when ``inv_free``) of prod_v v^(stat_v).  A full level with n <= KEEP_N
    weights the values at each kept field tuple by its count, in one
    generated loop per mapping; any other is counted by ``value_counts``, one
    group per mapping, in one sweep."""
    groups = [tuple(w.values()) for w in weights]
    if n <= KEEP_N and not inv_free:
        kept = _kept_level(n, k) if 0 <= k <= n else {}
        table = tuple(TABLE.items())
        counts = [_kept_counter(group, table)(kept) for group in groups]
    else:
        counts = value_counts(n, k, groups, inv_free)
    return [DEFAULT.from_counts(list(w), c) for w, c in zip(weights, counts)]


def distribution(n: int, k: int, expr: str, force_large: bool = False) -> LaurentPoly:
    """sum over OP_n^k of q^(expr); negative totals land in negative Laurent
    exponents rather than failing."""
    check_range(n, k)
    check_desk_bound(f"distribution at n={n}", "n", n, DESK_BOUND, force_large)
    return enumerated_gf(n, k, {"q": expr})[0]


def q_monomial(pi) -> LaurentPoly:
    """The seven-variable walk monomial of one partition: each of t1..t7
    raised to its row of TABLE."""
    values = evaluator(WALK_EXPONENTS)(fields(summarize(pi)))
    return DEFAULT.monomial(1, **dict(zip(WALK_EXPONENTS, values)))


# -- display -------------------------------------------------------------------


ROW_ORDER = ("los", "ros", "lob", "rob", "lcs", "rcs", "lcb", "rcb", "lsb", "rsb")


def stat_table(pi: OrderedPartition) -> str:
    """Human-readable table: one row per coordinate statistic, elements in
    block order with | between blocks, then aggregates and composites."""
    rows = coord_rows(pi)
    s = Summary.__new__(Summary)
    _fill(s, pi.blocks, rows)

    def fmt(values: list[int] | None) -> str:
        cells = []
        for b in pi.blocks:
            cells.append(" ".join(str(e if values is None else values[e - 1]) for e in b))
        return " | ".join(cells)

    lines = [f"pi:     {fmt(None)}"]
    for name in ROW_ORDER:
        lines.append(f"{name}_i:  {fmt(rows[name])}")
    lines.append("")
    lines.append("  ".join(f"{name}={getattr(s, name)}" for name in ROW_ORDER))
    sigma = perm_of(pi)
    perm_text = "".join(map(str, sigma)) if pi.k <= 9 else ",".join(map(str, sigma))
    names = ("mak", "makP", "lmak", "lmakP", "cinvLSB", "cmajLSB")
    cinv, *values = evaluator(("cinv", *names))(fields(s))
    lines.append(
        f"perm={perm_text}  inv={s.inv}  cinv={cinv}  "
        f"bInv={s.binv}  bExc={s.bexc}  bMaj={s.bmaj}"
    )
    lines.append("  ".join(f"{name}={v}" for name, v in zip(names, values)))
    return "\n".join(lines)
