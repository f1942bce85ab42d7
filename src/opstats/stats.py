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
then into one function of a Summary (``evaluator``).

Two computation routes are kept deliberately separate.  The definition
route: coord_rows() counts every element's ten coordinates as defined,
block_stats() the block statistics and opart.inv the inversions; coord() and
the bijection check read the rows, and Summary(blocks) sums them (summarize(),
composite(), q_monomial() and the ``stats`` table).  The sweep route:
sweep_all, sweep and sweep_p walk opart's insertion tree and compute each
child's Summary from its parent's through the two step functions
add_singleton and add_to_block.  Tests pin every swept Summary to
Summary(blocks).
"""

from __future__ import annotations

import re
from bisect import bisect_right
from typing import Callable, Iterable, Iterator, Mapping

from .opart import Blocks, OrderedPartition, _check_bound, check_range, grow, grow_all, grow_p, inv, perm_of
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


def _lookup(rows: dict[str, list[int]], i: int, name: str) -> int:
    n = len(rows["ros"])
    if not 1 <= i <= n:
        raise ValueError(f"element {i} out of range 1..{n}")
    if name not in rows:
        raise ValueError(f"unknown coordinate statistic {name!r}")
    return rows[name][i - 1]


def coord(pi, i: int, name: str) -> int:
    """One coordinate statistic straight from its definition."""
    return _lookup(coord_rows(pi), i, name)


def aggregate(pi, name: str) -> int:
    """Sum of a coordinate statistic over all elements."""
    rows = coord_rows(pi)
    return sum(_lookup(rows, i, name) for i in range(1, len(rows["ros"]) + 1))


def restricted(pi, name: str, elements: Iterable[int]) -> int:
    """stat(A): the coordinate sum restricted to a set of elements."""
    rows = coord_rows(pi)
    return sum(_lookup(rows, i, name) for i in set(elements))


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
# insertion adds or changes can be counted from the parent alone, so the two
# step functions below give a child's Summary from its parent's, and the
# sweeps grow opart's tree (opart.grow*) over (blocks, Summary) nodes without
# counting block pairs.  They are checked against Summary(blocks), which reads
# the definitions.

_new = object.__new__


def add_singleton(node: tuple[Blocks, Summary], m: int, g: int) -> tuple[Blocks, Summary]:
    """The child of ``node`` = (blocks, Summary) of a partition of [m-1] with
    m as a new singleton block at gap g (0..k), with the child's Summary.

    Each of the k-g blocks right of the gap gives m a smaller opener and
    closer on its right, and has its opener below m: ros, rcs, their _op
    restrictions, inv and binv gain k-g.  The g blocks left of it give los,
    lcs, los_op, lcs_op and bexc.  The L elements left of the gap see m's
    block as a bigger opener and closer on their right (rob, rcb); the R
    elements right of it, on their left (lob, lcb).  The parent descents at
    or right of g move one place right, the pair across the gap is split,
    and m's block is a descent over the block after it.
    """
    blocks, s = node
    k = s.k
    left = 0
    for B in blocks[:g]:
        left += len(B)
    right = k - g
    bmaj = s.bmaj
    if g < k:
        bmaj += g + 1
        if g and blocks[g - 1][0] > blocks[g][-1]:
            bmaj -= g
        for p in range(g, k - 1):
            if blocks[p][0] > blocks[p + 1][-1]:
                bmaj += 1
    t = _new(Summary)
    t.n = m
    t.k = k + 1
    t.ros = s.ros + right
    t.rob = s.rob + left
    t.rcs = s.rcs + right
    t.rcb = s.rcb + left
    t.los = s.los + g
    t.lob = s.lob + m - 1 - left
    t.lcs = s.lcs + g
    t.lcb = s.lcb + m - 1 - left
    t.lsb = s.lsb
    t.rsb = s.rsb
    t.ros_op = s.ros_op + right
    t.rcs_op = s.rcs_op + right
    t.los_op = s.los_op + g
    t.lcs_op = s.lcs_op + g
    t.lsb_op = s.lsb_op
    t.rsb_op = s.rsb_op
    t.binv = s.binv + right
    t.bexc = s.bexc + g
    t.bmaj = bmaj
    t.inv = s.inv + right
    t.nk1 = m * k
    t.k2 = s.k2 + k
    return blocks[:g] + ((m,),) + blocks[g:], t


def _above(blocks: Blocks, c: int) -> tuple[int, int]:
    """The elements above c in ``blocks``, and the openers above c."""
    elements = openers = 0
    for A in blocks:
        if A[-1] > c:
            if A[0] > c:
                openers += 1
                elements += len(A)
            else:
                elements += len(A) - bisect_right(A, c)
    return elements, openers


def add_to_block(node: tuple[Blocks, Summary], m: int, b: int) -> tuple[Blocks, Summary]:
    """The child of ``node`` = (blocks, Summary) of a partition of [m-1] with
    m appended to block b (0..k-1), with the child's Summary.

    m sees the b blocks on its left and the k-1-b on its right with smaller
    openers and closers (los, lcs, ros, rcs).  Block b's closer c becomes m:
    every element above c in a block left of b moves from rcs to rcb and now
    lies between block b's opener and closer (rsb); right of b it moves from
    lcs to lcb and gains lsb.  The _op fields follow for the openers above
    c, and those openers' blocks no longer lie above block b: binv loses the
    ones left of b (bmaj too, by b, if that block is block b-1) and bexc the
    ones right.
    """
    blocks, s = node
    k = s.k
    B = blocks[b]
    c = B[-1]
    left, left_op = _above(blocks[:b], c)
    right, right_op = _above(blocks[b + 1:], c)
    bmaj = s.bmaj
    if b and blocks[b - 1][0] > c:
        bmaj -= b
    t = _new(Summary)
    t.n = m
    t.k = k
    t.ros = s.ros + k - 1 - b
    t.rob = s.rob
    t.rcs = s.rcs - left + k - 1 - b
    t.rcb = s.rcb + left
    t.los = s.los + b
    t.lob = s.lob
    t.lcs = s.lcs - right + b
    t.lcb = s.lcb + right
    t.lsb = s.lsb + right
    t.rsb = s.rsb + left
    t.ros_op = s.ros_op
    t.rcs_op = s.rcs_op - left_op
    t.los_op = s.los_op
    t.lcs_op = s.lcs_op - right_op
    t.lsb_op = s.lsb_op + right_op
    t.rsb_op = s.rsb_op + left_op
    t.binv = s.binv - left_op
    t.bexc = s.bexc - right_op
    t.bmaj = bmaj
    t.inv = s.inv
    t.nk1 = m * (k - 1)
    t.k2 = s.k2
    return blocks[:b] + (B + (m,),) + blocks[b + 1:], t


_ROOT = ((), Summary(()))


def _width(node: tuple[Blocks, Summary]) -> int:
    return node[1].k


def sweep_all(n: int) -> Iterator[tuple[Blocks, Summary]]:
    """Every partition of OP_n with its Summary, in the order of
    ``opart.iter_blocks_all(n)``."""
    return grow_all(n, _ROOT, add_singleton, add_to_block, _width)


def sweep(n: int, k: int) -> Iterator[tuple[Blocks, Summary]]:
    """OP_n^k with Summaries, in the order of ``opart.iter_blocks(n, k)``."""
    return grow(n, k, _ROOT, add_singleton, add_to_block)


def sweep_p(n: int, k: int) -> Iterator[tuple[Blocks, Summary]]:
    """The inversion-free partitions with Summaries, in the order of
    ``opart.iter_blocks_p(n, k)``."""
    return grow_p(n, k, _ROOT, add_singleton, add_to_block)


def composite(pi, expr: str) -> int:
    """Value of a statistic expression, e.g. ``mak`` or ``lmak+bInv``."""
    return evaluator((expr,))(summarize(pi))[0]


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


def evaluator(exprs: Iterable[str | tuple[str, str]]) -> Callable[[Summary], tuple[int, ...]]:
    """One function of a Summary that returns the values of several statistic
    expressions; an ``(lhs, rhs)`` pair gives lhs - rhs, which is 0 exactly
    where that identity holds.

    The sweeps evaluate up to twenty expressions per partition, so the linear
    forms are compiled into one generated expression over the fields: about
    1 us per partition, against 9 us for a loop over coefficients.  Only
    field names that ``parse_stat_expr`` accepted and integers reach it.
    """
    values = []
    for expr in exprs:
        if isinstance(expr, str):
            form = linear_form(expr)
        else:
            form = linear_form(expr[0])
            for f, d in linear_form(expr[1]).items():
                form[f] = form.get(f, 0) - d
        terms = "".join(
            ("+" if c > 0 else "-") + ("" if abs(c) == 1 else f"{abs(c)}*") + f"s.{f}"
            for f, c in form.items() if c
        )
        values.append(terms.lstrip("+") or "0")
    return eval(f"lambda s: ({''.join(v + ', ' for v in values)})", {})


def enumerated_gf(summaries: Iterable[Summary], *weights: Mapping[str, str]) -> list[LaurentPoly]:
    """One polynomial per ``weights`` mapping of variable names to statistic
    expressions: the sum over ``summaries`` of prod_v v^(stat_v).  One pass
    counts the tuples of all the values; each mapping then reads its own slice
    of every tuple."""
    values = evaluator([expr for w in weights for expr in w.values()])
    counts: dict[tuple[int, ...], int] = {}
    for s in summaries:
        v = values(s)
        counts[v] = counts.get(v, 0) + 1
    out = []
    start = 0
    for w in weights:
        index = [DEFAULT.index(name) for name in w]
        stop = start + len(index)
        width = max(index) + 1
        terms: dict[tuple[int, ...], int] = {}
        for v, c in counts.items():
            key = [0] * width
            for i, e in zip(index, v[start:stop]):
                key[i] = e
            key = tuple(key)
            terms[key] = terms.get(key, 0) + c
        out.append(DEFAULT.poly(terms))
        start = stop
    return out


def distribution(n: int, k: int, expr: str, force_large: bool = False) -> LaurentPoly:
    """sum over OP_n^k of q^(expr); negative totals land in negative Laurent
    exponents rather than failing."""
    check_range(n, k)
    _check_bound(n, force_large)
    return enumerated_gf((s for _, s in sweep(n, k)), {"q": expr})[0]


def q_monomial(pi) -> LaurentPoly:
    """The seven-variable walk monomial of one partition: each of t1..t7
    raised to its row of TABLE."""
    walk = {t: t for t in WALK_EXPONENTS}
    return enumerated_gf((summarize(pi),), walk)[0]


# -- display -------------------------------------------------------------------


ROW_ORDER = ("los", "ros", "lob", "rob", "lcs", "rcs", "lcb", "rcb", "lsb", "rsb")


def stat_table(pi: OrderedPartition) -> str:
    """Human-readable table: one row per coordinate statistic, elements in
    block order with | between blocks, then aggregates and composites."""
    rows = coord_rows(pi)
    s = _new(Summary)
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
    cinv, *values = evaluator(("cinv", *names))(s)
    lines.append(
        f"perm={perm_text}  inv={s.inv}  cinv={cinv}  "
        f"bInv={s.binv}  bExc={s.bexc}  bMaj={s.bmaj}"
    )
    lines.append("  ".join(f"{name}={v}" for name, v in zip(names, values)))
    return "\n".join(lines)


def per_element_sums_ok(pi) -> bool:
    """Every element must see k-1 openings and k-1 closings:
    (los+lob+ros+rob)_i = (lcs+lcb+rcs+rcb)_i = k-1 for all i."""
    rows = coord_rows(pi)
    k1 = len(_blocks_of(pi)) - 1
    opens = zip(rows["los"], rows["lob"], rows["ros"], rows["rob"])
    closes = zip(rows["lcs"], rows["lcb"], rows["rcs"], rows["rcb"])
    return all(sum(o) == k1 and sum(c) == k1 for o, c in zip(opens, closes))
