"""Ordered set partitions of [n] = {1..n}: model, text format, enumeration.

An ordered partition is a sequence of pairwise disjoint nonempty blocks whose
union is [n]; inside a block the elements are kept ascending, but the blocks
themselves carry an arbitrary order (that order is the whole point).  The
machine text format is blocks separated by ``/`` with comma-separated
elements, e.g. ``6,8/5/1,4,7/3,9/2``.

Element classes: the opener / closer of a block is its least / greatest
element; a singleton is the sole element of a one-element block; a strict
opener or closer excludes singletons; a transient is an interior element of a
larger block.  The i-th trace is the restriction of the blocks to {1..i}
(restrictions marked closed when the whole block is inside {1..i}, opened
otherwise, empty ones dropped), and the form is the sequence of
(closed-count, opened-count) pairs of the traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

Blocks = tuple[tuple[int, ...], ...]

#: Full enumeration of OP_n is practical up to n = 10 (~1.1e8 partitions);
#: beyond that callers must opt in explicitly.
DESK_BOUND = 10


class BoundExceeded(ValueError):
    """A request went past a desk bound without force_large: an enumeration,
    a transfer series or closed form, a determinant, a q-number table, a
    check or the permutations of the q-Eulerian brute force."""


def check_desk_bound(subject: str, name: str, value: int, bound: int,
                     force_large: bool = False, lift: str = "--force-large") -> None:
    """Refuse a negative ``value`` (ValueError) and, unless ``force_large``,
    one past ``bound`` (BoundExceeded), naming ``subject``, ``name`` and
    ``lift``, what the caller passes to run it anyway."""
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    if value > bound and not force_large:
        raise BoundExceeded(
            f"{subject} exceeds its desk bound {name} <= {bound}; pass {lift}"
        )


class OrderedPartition:
    """Immutable ordered partition of {1..n}."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        seen: set[int] = set()
        for b in blocks:
            if not b:
                raise ValueError("empty block")
            for e in b:
                if not isinstance(e, int) or e < 1:
                    raise ValueError(f"non-positive element {e!r}")
                if e in seen:
                    raise ValueError(f"element {e} occurs in two blocks")
                seen.add(e)
        n = len(seen)
        if seen and max(seen) != n:
            missing = min(set(range(1, max(seen) + 1)) - seen)
            raise ValueError(f"gap in ground set: element {missing} missing")
        self.blocks = blocks

    @classmethod
    def _unchecked(cls, blocks: Blocks) -> "OrderedPartition":
        self = object.__new__(cls)
        self.blocks = blocks
        return self

    @property
    def n(self) -> int:
        return sum(map(len, self.blocks))

    @property
    def k(self) -> int:
        return len(self.blocks)

    def __eq__(self, other):
        if not isinstance(other, OrderedPartition):
            return NotImplemented
        return self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __str__(self):
        return format_partition(self)

    def __repr__(self):
        return f"OrderedPartition({format_partition(self)!r})"


def parse(text: str) -> OrderedPartition:
    """Parse the machine format ``6,8/5/1,4,7/3,9/2``."""
    text = text.strip()
    if not text:
        raise ValueError("empty partition text")
    blocks = []
    for part in text.split("/"):
        part = part.strip()
        if not part:
            raise ValueError("empty block")
        elems = []
        for tok in part.split(","):
            tok = tok.strip()
            try:
                elems.append(int(tok))
            except ValueError:
                raise ValueError(f"bad element {tok!r}") from None
        blocks.append(elems)
    return OrderedPartition(blocks)


def format_partition(pi: OrderedPartition | Blocks) -> str:
    blocks = pi.blocks if isinstance(pi, OrderedPartition) else pi
    return "/".join(",".join(str(e) for e in b) for b in blocks)


# -- enumeration --------------------------------------------------------------
#
# Element m is inserted into every ordered partition of [m-1]: as a new
# singleton in each of the k+1 gaps (left to right), then appended to each of
# the k blocks (left to right).  This gives a deterministic order that splits
# cleanly by top-level branch for parallel consumption.
#
# grow_all and grow lay this tree out once; grow's ``inv_free`` keeps only
# its inversion-free subtree.  A node is whatever the two child steps make of
# it: ``singleton(node, m, g)`` is the child with m as a new singleton block
# at gap g, ``append(node, m, b)`` the child with m appended to block b.  The
# iter_blocks* enumerators grow bare block tuples; iter_text grows tuples of
# block texts; the stats sweeps grow (blocks, values) pairs, which carry the
# values of the sweep's statistic expressions.


def _singleton(blocks: Blocks, m: int, g: int) -> Blocks:
    return blocks[:g] + ((m,),) + blocks[g:]


def _append(blocks: Blocks, m: int, b: int) -> Blocks:
    return blocks[:b] + (blocks[b] + (m,),) + blocks[b + 1:]


def _singleton_text(node: tuple[str, ...], m: int, g: int) -> tuple[str, ...]:
    return node[:g] + (str(m),) + node[g:]


def _append_text(node: tuple[str, ...], m: int, b: int) -> tuple[str, ...]:
    return node[:b] + (f"{node[b]},{m}",) + node[b + 1:]


def grow_all(n: int, root, singleton, append, width=len) -> Iterator:
    """Every node of depth n below ``root``; ``width(node)`` is its block
    count."""
    if n == 0:
        yield root
        return
    for node in grow_all(n - 1, root, singleton, append, width):
        k = width(node)
        for g in range(k + 1):
            yield singleton(node, n, g)
        for b in range(k):
            yield append(node, n, b)


def grow(n: int, k: int, root, singleton, append, inv_free: bool = False) -> Iterator:
    """The nodes of depth n with k blocks: singleton insertions below those
    of depth n-1 with k-1 blocks, then appends below those with k.  With
    ``inv_free``, the inversion-free subtree: a new singleton only ever goes
    in the right-most gap, so the blocks stay in increasing order of their
    minima."""
    if k < 0 or k > n:
        return
    if n == 0:
        yield root
        return
    for node in grow(n - 1, k - 1, root, singleton, append, inv_free):
        for g in range(k - 1 if inv_free else 0, k):
            yield singleton(node, n, g)
    for node in grow(n - 1, k, root, singleton, append, inv_free):
        for b in range(k):
            yield append(node, n, b)


def iter_blocks_all(n: int) -> Iterator[Blocks]:
    """All of OP_n as raw block tuples (every k), insertion order."""
    return grow_all(n, (), _singleton, _append)


def iter_blocks(n: int, k: int) -> Iterator[Blocks]:
    """OP_n^k as raw block tuples."""
    return grow(n, k, (), _singleton, _append)


def iter_blocks_p(n: int, k: int) -> Iterator[Blocks]:
    """Inversion-free (canonically ordered) partitions: blocks by increasing
    minima; there are S(n,k) of them."""
    return grow(n, k, (), _singleton, _append, inv_free=True)


def check_range(n: int, k: int | None = None, inv_free: bool = False) -> None:
    """Reject n < 0 and a block count outside 0..n (k None: every k), then
    the inversion-free partitions without k."""
    if n < 0 or (k is not None and not 0 <= k <= n):
        raise ValueError(f"no ordered partitions for n={n}, k={k}")
    if inv_free and k is None:
        raise ValueError("the inversion-free enumeration needs k (CLI: --inv-free needs --k)")


def enumerate_op(n: int, k: int | None = None, force_large: bool = False
                 ) -> Iterator[OrderedPartition]:
    """Each element of OP_n^k exactly once (all k when k is None)."""
    check_range(n, k)
    check_desk_bound(f"enumeration at n={n}", "n", n, DESK_BOUND, force_large)
    raw = iter_blocks_all(n) if k is None else iter_blocks(n, k)
    return map(OrderedPartition._unchecked, raw)


def enumerate_p(n: int, k: int, force_large: bool = False) -> Iterator[OrderedPartition]:
    """Unordered partitions of [n] with k blocks, canonical block order."""
    check_range(n, k)
    check_desk_bound(f"enumeration at n={n}", "n", n, DESK_BOUND, force_large)
    return map(OrderedPartition._unchecked, iter_blocks_p(n, k))


def iter_text(n: int, k: int | None = None, inv_free: bool = False,
              force_large: bool = False) -> Iterator[tuple[str, ...]]:
    """The machine text of each partition that ``enumerate_p(n, k)`` (when
    ``inv_free``) or ``enumerate_op(n, k)`` yields, in the same order, as the
    tuple of its block texts: ``"/".join`` of one is ``format_partition`` of
    the partition, and its length is k.  The checks run on the call."""
    check_range(n, k, inv_free)
    check_desk_bound(f"enumeration at n={n}", "n", n, DESK_BOUND, force_large)
    if k is None:
        return grow_all(n, (), _singleton_text, _append_text)
    return grow(n, k, (), _singleton_text, _append_text, inv_free)


# -- element classes, traces, forms -------------------------------------------


@dataclass(frozen=True)
class TypePartition:
    """The type of a partition: strict openers O, transients T, singletons S,
    strict closers C (disjoint, with O+T+S+C = [n] and |O| = |C|)."""

    openers: frozenset[int]
    transients: frozenset[int]
    singletons: frozenset[int]
    closers: frozenset[int]


def classify(pi: OrderedPartition) -> TypePartition:
    openers, transients, singletons, closers = set(), set(), set(), set()
    for b in pi.blocks:
        if len(b) == 1:
            singletons.add(b[0])
        else:
            openers.add(b[0])
            closers.add(b[-1])
            transients.update(b[1:-1])
    return TypePartition(
        frozenset(openers), frozenset(transients),
        frozenset(singletons), frozenset(closers),
    )


def trace(pi: OrderedPartition, i: int) -> tuple[tuple[tuple[int, ...], bool], ...]:
    """The i-th trace: restrictions of the blocks to {1..i} with a closed flag;
    empty restrictions are dropped."""
    if not 0 <= i <= pi.n:
        raise ValueError(f"trace index {i} out of range 0..{pi.n}")
    out = []
    for b in pi.blocks:
        restr = tuple(e for e in b if e <= i)
        if restr:
            out.append((restr, b[-1] <= i))
    return tuple(out)


def _form(blocks: Blocks, n: int) -> tuple[tuple[int, int], ...]:
    """The form of the partition with these blocks of [n]: the (closed,
    opened) block counts of its traces, i = 0..n.  A block's restriction to
    {1..i} is nonempty once its opener is <= i and closed once its closer is
    <= i, so the counts step up at openers and closers."""
    starts = [0] * (n + 1)
    ends = [0] * (n + 1)
    for b in blocks:
        starts[b[0]] += 1
        ends[b[-1]] += 1
    out = [(0, 0)]
    nonempty = closed = 0
    for i in range(1, n + 1):
        nonempty += starts[i]
        closed += ends[i]
        out.append((closed, nonempty - closed))
    return tuple(out)


def perm_of(pi: OrderedPartition) -> tuple[int, ...]:
    """The permutation induced by the block order: position -> rank of the
    block among all blocks sorted by their minima (1-based)."""
    mins = [b[0] for b in pi.blocks]
    rank = {m: r + 1 for r, m in enumerate(sorted(mins))}
    return tuple(rank[m] for m in mins)


def inv(pi: OrderedPartition) -> int:
    sigma = perm_of(pi)
    return sum(
        1
        for i in range(len(sigma))
        for j in range(i + 1, len(sigma))
        if sigma[i] > sigma[j]
    )
