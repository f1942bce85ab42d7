"""Walks in the digraph D_k and the insertion bijection to ordered partitions.

D_k has vertex set {(i,j) : i,j >= 0, i+j <= k} and edges from (i,j) to
(i,j+1) (North), (i+1,j) (East), (i+1,j-1) (South-East, needs j > 0) and to
itself (Null, needs j > 0).  Reading (i,j) as (closed blocks, opened blocks),
the forms of ordered partitions with k blocks are exactly the paths from
(0,0) to (k,0): North opens a block, East drops in a singleton, South-East
closes an opened block, Null inserts a transient.

A path diagram is a path together with a choice sequence xi: at a North/East
step leaving (p,q) the new block/singleton goes into one of the p+q+1 gaps
(counted from the left, 1-based), at a Null/South-East step the element goes
into one of the q opened blocks (again left to right).  The mapping psi plays
the diagram forward into an ordered partition; its inverse reads the step
kinds off the element classes and the choices off los_i (openers/singletons)
and lsb_i (transients/closers).

Steps are encoded by single letters: N, E, S (south-east), O (null).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

from .opart import OrderedPartition
from .stats import coord_rows

NORTH, EAST, SOUTH_EAST, NULL = "N", "E", "S", "O"

Vertex = tuple[int, int]

#: Each step letter: its move (di, dj), and whether its choice is among the
#: p+q+1 gaps (North, East: a new block) or among the q opened blocks (Null,
#: South-East: which then needs q > 0).
_STEPS = {NORTH: (0, 1, True), EAST: (1, 0, True), SOUTH_EAST: (1, -1, False), NULL: (0, 0, False)}

#: The order in which ``enumerate_paths`` tries the steps at each vertex.
STEP_ORDER = (NORTH, EAST, NULL, SOUTH_EAST)


def vertex_count(k: int) -> int:
    return (k + 1) * (k + 2) // 2


def vertex_order(k: int) -> list[Vertex]:
    """Vertices of D_k sorted by (i+j) ascending, then j descending, so the
    list runs (0,0), (0,1), (1,0), (0,2), (1,1), (2,0), ..., (k,0)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    vs = [(i, j) for j in range(k + 1) for i in range(k + 1 - j)]
    vs.sort(key=lambda v: (v[0] + v[1], -v[1]))
    return vs


def step_target(v: Vertex, kind: str) -> Vertex:
    di, dj, _ = _STEPS[kind]
    return (v[0] + di, v[1] + dj)


def step_allowed(v: Vertex, kind: str, k: int) -> bool:
    i, j = v
    di, dj, gap = _STEPS[kind]
    if not gap and j <= 0:
        return False
    ti, tj = i + di, j + dj
    return ti >= 0 and tj >= 0 and ti + tj <= k


def path_vertices(steps: tuple[str, ...]) -> list[Vertex]:
    """Vertex sequence from (0,0); length len(steps)+1."""
    out = [(0, 0)]
    i = j = 0
    for s in steps:
        di, dj, _ = _STEPS[s]
        i += di
        j += dj
        out.append((i, j))
    return out


def enumerate_paths(n: int, k: int) -> Iterator[tuple[str, ...]]:
    """All length-n walks (0,0) -> (k,0) in D_k, depth-first in STEP_ORDER
    (N, E, O, S)."""
    if n < 0 or k < 0:
        raise ValueError("n, k must be nonnegative")

    def rec(v: Vertex, left: int):
        if left == 0:
            if v == (k, 0):
                yield ()
            return
        if k - v[0] > left:  # each remaining closed block costs >= one step
            return
        for kind in STEP_ORDER:
            if step_allowed(v, kind, k):
                for rest in rec(step_target(v, kind), left - 1):
                    yield (kind,) + rest

    return rec((0, 0), n)


def choice_bound(v: Vertex, kind: str) -> int:
    """Number of legal choices for a step of the given kind leaving v."""
    p, q = v
    return p + q + 1 if kind in (NORTH, EAST) else q


@dataclass(frozen=True)
class PathDiagram:
    """A walk plus its choice sequence; always of equal length."""

    steps: tuple[str, ...]
    xi: tuple[int, ...]

    def __post_init__(self):
        if len(self.steps) != len(self.xi):
            raise ValueError("steps and xi must have the same length")

    @property
    def length(self) -> int:
        return len(self.steps)

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        """The vertex sequence from (0,0), len(steps)+1 long.  Raises
        ValueError "not a walk" for an unknown step letter."""
        return self._walk[0]

    @functools.cached_property
    def _walk(self) -> tuple[tuple[Vertex, ...], bool]:
        # One pass along the steps, made once per diagram: the vertices, and
        # whether every choice lies within its bound.  A Null or South-East
        # step that leaves height 0 has at most 0 choices, so it is out of
        # bound too, and validate looks for walk errors only when some
        # choice is.
        vs = [(0, 0)]
        inside = True
        i = j = 0
        try:
            for kind, x in zip(self.steps, self.xi):
                di, dj, gap = _STEPS[kind]
                if not 0 < x <= (i + j + 1 if gap else j):
                    inside = False
                i += di
                j += dj
                vs.append((i, j))
        except KeyError:
            raise ValueError(f"not a walk: {''.join(self.steps)}") from None
        return tuple(vs), inside

    def validate(self, k: int | None = None):
        """Check path validity (within D_k; k defaults to the number of blocks
        the walk closes) and the choice bounds.

        No step lowers i+j, so a walk that ends at (k,0) stays within D_k,
        and it stays at height >= 0 when no Null or South-East step leaves
        height 0: those two conditions are the whole walk rule.  A walk error
        is reported before a choice error."""
        vs, inside = self._walk
        if k is None:
            k = vs[-1][0]
        grounded = not inside and any(
            v[1] <= 0 for v, kind in zip(vs, self.steps) if not _STEPS[kind][2]
        )
        if grounded or vs[-1] != (k, 0):
            raise ValueError(f"not a walk to ({k},0): {''.join(self.steps)}")
        if not inside:
            for idx, (v, kind, x) in enumerate(zip(vs, self.steps, self.xi)):
                bound = choice_bound(v, kind)
                if not 1 <= x <= bound:
                    raise ValueError(
                        f"choice xi_{idx + 1}={x} outside 1..{bound} for {kind} at {v}"
                    )
        return self

    def __str__(self):
        return "".join(self.steps) + " " + ",".join(map(str, self.xi))


def enumerate_diagrams(n: int, k: int) -> Iterator[PathDiagram]:
    """All path diagrams of length n and depth k (choices in product order,
    last step fastest)."""
    for steps in enumerate_paths(n, k):
        vs = path_vertices(steps)
        bounds = [choice_bound(vs[i], kind) for i, kind in enumerate(steps)]
        xi = [1] * n
        while True:
            yield PathDiagram(steps, tuple(xi))
            pos = n - 1
            while pos >= 0 and xi[pos] == bounds[pos]:
                xi[pos] = 1
                pos -= 1
            if pos < 0:
                break
            xi[pos] += 1


def psi(diagram: PathDiagram) -> OrderedPartition:
    """Play a diagram forward: build the traces by inserting 1, 2, ... per the
    step kinds and choices, and return the final partition."""
    diagram.validate()
    blocks: list[list[int]] = []
    opened: list[bool] = []
    for element, (kind, x) in enumerate(zip(diagram.steps, diagram.xi), 1):
        if kind == NORTH or kind == EAST:
            blocks.insert(x - 1, [element])
            opened.insert(x - 1, kind == NORTH)
        else:
            # the x-th of the opened blocks, counted from the left
            pos = opened.index(True)
            for _ in range(x - 1):
                pos = opened.index(True, pos + 1)
            blocks[pos].append(element)
            if kind == SOUTH_EAST:
                opened[pos] = False
    return OrderedPartition._unchecked(tuple(map(tuple, blocks)))


def psi_inverse(pi: OrderedPartition) -> PathDiagram:
    """The unique diagram mapping to pi: step kinds from the element classes,
    choices from los_i + 1 (openers, singletons) or lsb_i + 1 (the rest)."""
    return _diagram_of(pi, coord_rows(pi))


def _diagram_of(pi: OrderedPartition, rows: dict[str, list[int]]) -> PathDiagram:
    # psi_inverse(pi), given the coordinate rows of pi: each element's class
    # read straight off its block
    los = rows["los"]
    steps = [NULL] * len(los)
    xi = [v + 1 for v in rows["lsb"]]
    for b in pi.blocks:
        o = b[0] - 1
        xi[o] = los[o] + 1
        if len(b) == 1:
            steps[o] = EAST
        else:
            steps[o] = NORTH
            steps[b[-1] - 1] = SOUTH_EAST
    return PathDiagram(tuple(steps), tuple(xi))


def step_predictions(diagram: PathDiagram) -> list[tuple[int, int, int, int]]:
    """Predicted coordinate statistics of psi(diagram) at every element, read
    off the diagram's vertices; entry i-1 is read off the i-th step alone:
    its start vertex (p,q), and

      North/East:        (lcs+rcs, lsb+rsb, los, ros)_i = (p, q, xi-1, p+q+1-xi)
      Null/South-East:   (lcs+rcs, lsb+rsb, lsb, rsb)_i = (p, q-1, xi-1, q-xi)
    """
    out = []
    for (p, q), kind, x in zip(diagram.vertices, diagram.steps, diagram.xi):
        if _STEPS[kind][2]:
            out.append((p, q, x - 1, p + q + 1 - x))
        else:
            out.append((p, q - 1, x - 1, q - x))
    return out


def parse_steps(text: str) -> tuple[str, ...]:
    steps = tuple(text.strip().upper())
    for s in steps:
        if s not in _STEPS:
            raise ValueError(f"bad step letter {s!r}; use N, E, S, O")
    return steps
