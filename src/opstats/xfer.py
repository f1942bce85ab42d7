"""Transfer-matrix machinery: weighted adjacency matrices of D_k, exact
symbolic determinants and minors, the walk generating functions and their
closed forms, and verifiers for the determinant identities they rest on.

Weights: a step leaving (i,j) carries

    North/East:        t1^i * t7^j * [i+j+1]_{t5,t6}
    Null/South-East:   t2^i * [j]_{t3,t4}

so that the weight of a walk is the seven-variable monomial of the ordered
partitions sharing its path.  Two specializations recur: the (x,y,t,u) form
(t1=t2=t3=x, t4=y, t5=t, t6=u, t7=y) and the (z,t,u) form (t1=t3=t7=1,
t2=t4=z, t5=t, t6=u).  In the canonical vertex order every edge points
forward, so I - a*A_k is upper triangular; the interesting determinant is the
minor dropping the last row and first column.

Matrix families, each read off the out-edges of D_n as the pencil
diag*I - a*A_n(w) (sizes vertex_count(n) = (n+1)(n+2)/2):

    M_n:   I - a*A_n under the (x,y,t,u) weights, i.e.
           transfer_matrix(n, WeightSpec.xytu())
    N_n(x,a):   x*I - a*A_n with open weight F_(i+j+1), against a generic
                nonvanishing sequence F1, F2, ..., and close weight q^i [j]_q
                (x = 1, F_m = [m]_{t,u}, q = z recovers I - a*A_n under the
                (z,t,u) weights)
    P_n:   M_n minus its last row and first column, its ``corner``
    P_n^k: P_n with its last column replaced by the k-th column of the block
           that sits above the new diagonal block inside P_{n+1}
    ndot_n: the corner of N_n(x,a)

``MATRICES`` names them, with the transfer matrices A, Axy and Az, for the
``det`` command and for ``DET_IDENTITIES``: one row per single-determinant
identity, pairing a matrix (or its corner) with a named closed product such
as ``minor1_product``, which ``verify_det`` compares.  The corner of a 1x1
matrix is the 0x0 matrix, whose determinant is 1, so P_0 and ndot_0 need no
special case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .opart import BoundExceeded
from .qnum import PQContext, pq_binomial, pq_context, pq_factorial, pq_int, q_context
from .ring import DEFAULT, LaurentPoly, SeriesInA, _sum_of_products, ensure_f, series_from_rational
from .walks import (
    EAST, NORTH, NULL, SOUTH_EAST, Vertex, step_allowed, step_target, vertex_count, vertex_order,
)

#: Symbolic transfer matrices stay tractable up to k = 4 with the full seven
#: weight variables (15 x 15) and k = 5 under specializations (21 x 21).
GENERIC_K_BOUND = 4
SPECIALIZED_K_BOUND = 5
#: The closed forms f, g, phi and varphi multiply out k factors of growing
#: size: k = 16 takes about a second, k = 20 over ten.
CLOSED_K_BOUND = 16


class SymbolicMatrix:
    """Dense grid of Laurent polynomials over one registry; ``SymbolicMatrix(())``
    is the 0x0 matrix."""

    __slots__ = ("rows", "cols", "entries", "registry")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        entries = tuple(tuple(row) for row in entries)
        width = len(entries[0]) if entries else 0
        reg = entries[0][0].registry if width else DEFAULT
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged matrix")
            for e in row:
                if e.registry is not reg:
                    raise ValueError("entries from different registries")
        self.entries = entries
        self.rows = len(entries)
        self.cols = width
        self.registry = reg

    def minor(self, i: int, j: int) -> "SymbolicMatrix":
        """Matrix with row i and column j removed (0-based)."""
        return SymbolicMatrix(
            [
                [e for cj, e in enumerate(row) if cj != j]
                for ri, row in enumerate(self.entries)
                if ri != i
            ]
        )

    def row_mul(self, vector: Sequence[LaurentPoly]) -> list[LaurentPoly]:
        """vector (length rows) times the matrix, as a row vector."""
        if len(vector) != self.rows:
            raise ValueError("vector length mismatch")
        reg, entries = self.registry, self.entries
        return [_sum_of_products(reg, ((1, v, row[j]) for v, row in zip(vector, entries)))
                for j in range(self.cols)]

    def __eq__(self, other):
        if not isinstance(other, SymbolicMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)


def corner(m: SymbolicMatrix) -> SymbolicMatrix:
    """m with its last row and first column removed."""
    return m.minor(m.rows - 1, 0)


def _leading(m: SymbolicMatrix, size: int, last: int | None = None) -> SymbolicMatrix:
    """The top-left size x size block of m, with its last column taken from
    column ``last`` of m if given."""
    cols = [*range(size - 1), size - 1 if last is None else last]
    return SymbolicMatrix([[row[c] for c in cols] for row in m.entries[:size]])


def _sign(e: int) -> LaurentPoly:
    """(-1)^e."""
    return DEFAULT.const(-1 if e % 2 else 1)


def _factors(diag: LaurentPoly, ws: Iterable[LaurentPoly]) -> LaurentPoly:
    """prod over w in ws of (diag - a w): the eigenvalue factors of the pencils
    diag*I - a*A_k, and the denominators of the closed forms."""
    a = DEFAULT.var("a")
    return math.prod((diag - a * w for w in ws), start=DEFAULT.one)


# -- determinants --------------------------------------------------------------


def det(m: SymbolicMatrix, method: str = "laplace") -> LaurentPoly:
    """Exact symbolic determinant.

    "laplace" expands along the sparsest remaining row or column (fast on
    the near-triangular matrices here) and memoizes only the branching
    minors, those whose line has two or more nonzero entries.  A minor whose
    line has one entry e is the single product +-e * sub, with sub memoized
    if it branches, so a repeat visit recomputes at most its chain of such
    products down to the next branching minor; storing it instead would keep
    every partial product of a triangular pencil's diagonal alive.  "bareiss"
    is fraction-free elimination with exact division, kept as an
    independent cross-check of the expansion.  The empty 0x0 determinant is 1.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    if method == "laplace":
        return _det_laplace(m)
    if method == "bareiss":
        return _det_bareiss(m)
    raise ValueError(f"unknown determinant method {method!r}")


def _det_laplace(m: SymbolicMatrix) -> LaurentPoly:
    reg = m.registry
    zero, one = reg.zero, reg.one
    entries = m.entries
    memo: dict[tuple[tuple[int, ...], tuple[int, ...]], LaurentPoly] = {}

    def rec(rows: tuple[int, ...], cols: tuple[int, ...]) -> LaurentPoly:
        if not rows:
            return one
        if len(rows) == 1:
            return entries[rows[0]][cols[0]]
        key = (rows, cols)
        cached = memo.get(key)
        if cached is not None:
            return cached
        # pick the sparsest line
        best_count, best_is_row, best_pos = None, True, 0
        for ri, r in enumerate(rows):
            cnt = sum(1 for c in cols if not entries[r][c].is_zero())
            if best_count is None or cnt < best_count:
                best_count, best_is_row, best_pos = cnt, True, ri
                if cnt <= 1:
                    break
        if best_count > 1:
            for cj, c in enumerate(cols):
                cnt = sum(1 for r in rows if not entries[r][c].is_zero())
                if cnt < best_count:
                    best_count, best_is_row, best_pos = cnt, False, cj
                    if cnt <= 1:
                        break
        if best_count == 0:
            return zero
        # the line's nonzero entries as (sign, entry, rows and cols of its minor)
        if best_is_row:
            r = rows[best_pos]
            sub_rows = rows[:best_pos] + rows[best_pos + 1:]
            line = [(-1 if (best_pos + cj) % 2 else 1, entries[r][c],
                     sub_rows, cols[:cj] + cols[cj + 1:])
                    for cj, c in enumerate(cols) if entries[r][c].terms]
        else:
            c = cols[best_pos]
            sub_cols = cols[:best_pos] + cols[best_pos + 1:]
            line = [(-1 if (ri + best_pos) % 2 else 1, entries[r][c],
                     rows[:ri] + rows[ri + 1:], sub_cols)
                    for ri, r in enumerate(rows) if entries[r][c].terms]
        # a generator, so that each minor is computed only as its product is summed
        acc = _sum_of_products(reg, ((sign, e, rec(sr, sc)) for sign, e, sr, sc in line))
        if best_count > 1:
            memo[key] = acc
        return acc

    n = m.rows
    result = rec(tuple(range(n)), tuple(range(n)))
    memo.clear()  # rec refers to itself, so the memo would wait for the cyclic GC
    return result


def _det_bareiss(m: SymbolicMatrix) -> LaurentPoly:
    reg = m.registry
    n = m.rows
    if n == 0:
        return reg.one
    a = [list(row) for row in m.entries]
    sign = 1
    prev = reg.one
    for piv in range(n - 1):
        if a[piv][piv].is_zero():
            for r in range(piv + 1, n):
                if not a[r][piv].is_zero():
                    a[piv], a[r] = a[r], a[piv]
                    sign = -sign
                    break
            else:
                return reg.zero
        pivot = a[piv][piv]
        for r in range(piv + 1, n):
            for c in range(piv + 1, n):
                num = a[r][c] * pivot - a[r][piv] * a[piv][c]
                a[r][c] = num.divexact(prev)
            a[r][piv] = reg.zero
        prev = pivot
    d = a[n - 1][n - 1]
    return -d if sign < 0 else d


# -- weighted adjacency of D_k --------------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """The seven step-weight values (generic variables or a specialization).
    A sequence ``f`` = (F_1, F_2, ...), if given, stands in the open weight
    in place of [m]_{t5,t6}, and t5, t6 are then unused."""

    t: tuple[LaurentPoly, ...]
    generic: bool = False
    f: tuple[LaurentPoly, ...] | None = None

    def __post_init__(self):
        if len(self.t) != 7:
            raise ValueError("a weight spec has exactly seven entries")

    # the (p, q) pairs of [m]_{t5,t6} and [j]_{t3,t4}, built once per spec so
    # that every edge reaches pq_int's cache through the same context
    @cached_property
    def open_ctx(self) -> PQContext:
        return pq_context(self.t[4], self.t[5])

    @cached_property
    def close_ctx(self) -> PQContext:
        return pq_context(self.t[2], self.t[3])

    @classmethod
    def seven_variable(cls) -> "WeightSpec":
        return cls(tuple(DEFAULT.var(f"t{i}") for i in range(1, 8)), generic=True)

    @classmethod
    def xytu(cls) -> "WeightSpec":
        """t1=t2=t3=x, t4=y, t5=t, t6=u, t7=y: the M-matrix weights."""
        x, y, t, u = (DEFAULT.var(v) for v in "xytu")
        return cls((x, x, x, y, t, u, y))

    @classmethod
    def ztu(cls) -> "WeightSpec":
        """t1=t3=t7=1, t2=t4=z, t5=t, t6=u: the specialization of N_n(x,a)
        at x = 1, F_m = [m]_{t,u}, q = z."""
        z, t, u = (DEFAULT.var(v) for v in "ztu")
        one = DEFAULT.one
        return cls((one, z, one, z, t, u, one))

    @classmethod
    def f_sequence(cls, n: int) -> "WeightSpec":
        """The weights of N_n(x,a): open F_(i+j+1), close q^i [j]_q
        (t1=t3=t7=1, t2=t4=q, and F_1..F_n for the open factor)."""
        q, one = DEFAULT.var("q"), DEFAULT.one
        return cls((one, q, one, q, one, one, one), f=tuple(ensure_f(n)))

    def open_weight(self, i: int, j: int) -> LaurentPoly:
        """North/East step leaving (i,j): t1^i t7^j [i+j+1]_{t5,t6}, or
        t1^i t7^j F_(i+j+1) when ``f`` is given."""
        if self.f is None:
            factor = pq_int(i + j + 1, self.open_ctx)
        else:
            factor = self.f[i + j]
        return self.t[0] ** i * self.t[6] ** j * factor

    def close_weight(self, i: int, j: int) -> LaurentPoly:
        """Null/South-East step leaving (i,j): t2^i [j]_{t3,t4}."""
        return self.t[1] ** i * pq_int(j, self.close_ctx)

    def step_weight(self, v: tuple[int, int], kind: str) -> LaurentPoly:
        if kind in (NORTH, EAST):
            return self.open_weight(*v)
        return self.close_weight(*v)


def out_edges(k: int, w: WeightSpec) -> dict[Vertex, list[tuple[Vertex, LaurentPoly]]]:
    """Each vertex of D_k, in the canonical order, with its weighted out-edges
    as (target, step weight) pairs."""
    return {
        v: [
            (step_target(v, kind), w.step_weight(v, kind))
            for kind in (NORTH, EAST, NULL, SOUTH_EAST)
            if step_allowed(v, kind, k)
        ]
        for v in vertex_order(k)
    }


def adjacency(k: int, w: WeightSpec) -> SymbolicMatrix:
    """Weighted adjacency matrix of D_k in the canonical vertex order."""
    edges = out_edges(k, w)
    index = {v: i for i, v in enumerate(edges)}
    grid = [[DEFAULT.zero] * len(index) for _ in index]
    for v, out in edges.items():
        for u, weight in out:
            grid[index[v]][index[u]] = weight
    return SymbolicMatrix(grid)


def _pencil(k: int, w: WeightSpec, diag: LaurentPoly) -> SymbolicMatrix:
    """diag * I - a * A_k(w); upper triangular in the canonical vertex order."""
    a = DEFAULT.var("a")
    adj = adjacency(k, w)
    rows = []
    for i in range(adj.rows):
        row = [-(a * e) if not e.is_zero() else e for e in adj.entries[i]]
        row[i] = row[i] + diag
        rows.append(row)
    return SymbolicMatrix(rows)


def transfer_matrix(k: int, w: WeightSpec) -> SymbolicMatrix:
    """I - a * A_k; upper triangular in the canonical vertex order."""
    return _pencil(k, w, DEFAULT.one)


def _check_k_bound(k: int, w: WeightSpec, force_large: bool) -> None:
    """Reject k < 0, and k above the symbolic desk bound unless forced."""
    bound = GENERIC_K_BOUND if w.generic else SPECIALIZED_K_BOUND
    if k > bound and not force_large:
        raise ValueError(
            f"k={k} exceeds the symbolic desk bound {bound}; "
            "pass force_large=True (CLI: --force-large)"
        )
    if k < 0:
        raise ValueError("k must be nonnegative")


def q_gf_transfer(k: int, w: WeightSpec, order: int, force_large: bool = False) -> SeriesInA:
    """The walk generating function of depth k as a series in a:

        (-1)^(1 + vertex_count(k)) det(I - a A_k ; last row, first column) / det(I - a A_k)

    Its a^n coefficient is the sum of the seven-variable monomials over all
    ordered partitions of [n] with k blocks.
    """
    _check_k_bound(k, w, force_large)
    m = transfer_matrix(k, w)
    denom = det(m)
    numer = _sign(1 + m.rows) * det(corner(m))
    return series_from_rational(numer, denom, order)


def walk_series(k: int, w: WeightSpec, order: int, force_large: bool = False) -> SeriesInA:
    """The series of q_gf_transfer without determinants: its a^n coefficient
    is the (k,0) entry of e_(0,0) A_k^n, the weight sum of the length-n walks
    from (0,0) to (k,0).

    The row vector is pushed along the out-edges one step at a time and kept
    sparse: a vertex (i,j) is dropped once k - i, the East/South-East steps
    it still needs, exceeds the steps left.  Steps sharing a weight (North
    and East, Null and South-East) share one product.
    """
    _check_k_bound(k, w, force_large)
    if order < 0:
        raise ValueError("order must be nonnegative")
    target = (k, 0)
    moves: dict[Vertex, list[tuple[LaurentPoly, list[Vertex]]]] = {}
    for v, out in out_edges(k, w).items():
        by_weight: dict[LaurentPoly, list[Vertex]] = {}
        for u, weight in out:
            by_weight.setdefault(weight, []).append(u)
        moves[v] = list(by_weight.items())
    row = {(0, 0): DEFAULT.one}
    coeffs = [row.get(target, DEFAULT.zero)]
    for left in range(order - 1, -1, -1):
        pushed: dict[Vertex, LaurentPoly] = {}
        for v, value in row.items():
            for weight, targets in moves[v]:
                live = [u for u in targets if k - u[0] <= left]
                if not live:
                    continue
                term = value * weight
                for u in live:
                    pushed[u] = pushed[u] + term if u in pushed else term
        row = pushed
        coeffs.append(row.get(target, DEFAULT.zero))
    return SeriesInA(DEFAULT, coeffs)


# -- closed forms ----------------------------------------------------------------


def _check_closed_k_bound(k: int, force_large: bool) -> None:
    """Reject k < 0, and k above the closed-form desk bound unless forced."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k > CLOSED_K_BOUND and not force_large:
        raise BoundExceeded(
            f"k={k} exceeds the closed-form desk bound {CLOSED_K_BOUND}; "
            "pass force_large=True (CLI: --force-large)"
        )


#: The closed forms of ``closed_pair``, in the order ``gf`` lists them.
CLOSED_FAMILIES = ("f", "g", "phi", "varphi")


def closed_pair(family: str, k: int, force_large: bool = False) -> tuple[LaurentPoly, LaurentPoly]:
    """The closed form ``family`` with k blocks as a (numerator, denominator)
    pair, whose quotient expanded in a is its generating function:

        f:      a^k x^C(k,2) [k]_{t,u}! / prod_{i=1..k} (1 - a [i]_{x,y})
        g:      a^k [k]_{t,u}! / prod_{i=1..k} (1 - a z^(k-i) [i]_z)
        phi:    f under t -> x y t, u -> u y^2, the (mak+bInv, cinvLSB,
                inv, cinv) generating function
        varphi: g under a -> a z^(k-1), z -> 1/z, u -> u/z at once, the
                (lmak+bInv, inv, cinv) generating function

    The substitution for varphi turns each factor of g's denominator into
    1 - a [i]_z and leaves the numerator polynomial in z.
    """
    _check_closed_k_bound(k, force_large)
    if family not in CLOSED_FAMILIES:
        raise ValueError(f"unknown closed form {family!r}")
    a, x, y, z, t, u = (DEFAULT.var(v) for v in "axyztu")
    if family in ("f", "phi"):
        numer = a ** k * x ** math.comb(k, 2) * pq_factorial(k, pq_context("t", "u"))
        xy = pq_context("x", "y")
        denom = _factors(DEFAULT.one, (pq_int(i, xy) for i in range(1, k + 1)))
        if family == "phi":  # f's denominator holds no t or u
            return numer.subs({"t": x * y * t, "u": u * y * y}), denom
        return numer, denom
    numer = a ** k * pq_factorial(k, pq_context("t", "u"))
    zz = pq_context(DEFAULT.one, "z")
    denom = _factors(DEFAULT.one, (z ** (k - i) * pq_int(i, zz) for i in range(1, k + 1)))
    if family == "varphi":
        zi = z.inverse()
        mapping = {"a": a * z ** (k - 1), "z": zi, "u": u * zi}
        return numer.subs(mapping), denom.subs(mapping)
    return numer, denom


def closed_series(family: str, k: int, order: int, force_large: bool = False) -> SeriesInA:
    """The closed form ``family`` of ``closed_pair``, expanded through a^order."""
    return series_from_rational(*closed_pair(family, k, force_large), order)


# -- the matrix families ---------------------------------------------------------


def build_n(n: int) -> SymbolicMatrix:
    """N_n(x, a) = x I - a A_n under the F-sequence weights."""
    return _pencil(n, WeightSpec.f_sequence(n), DEFAULT.var("x"))


def build_p(n: int) -> SymbolicMatrix:
    """P_n: M_n with the last row and first column removed."""
    return corner(transfer_matrix(n, WeightSpec.xytu()))


def build_p_k(n: int, k: int | None) -> SymbolicMatrix:
    """P_n^k: P_n with its right-most column replaced by the k-th column
    (1-based, 1 <= k <= n+2) of the block of P_{n+1} above its new diagonal
    block.  P_n is the top-left block of P_{n+1}, so both are read from one
    P_{n+1}."""
    if n < 1 or k is None or not 1 <= k <= n + 2:
        raise ValueError(f"P_n^k needs n >= 1 and 1 <= k <= n+2, got n={n}, k={k} (CLI: --n, --k)")
    size = vertex_count(n) - 1  # P_n is size x size
    return _leading(build_p(n + 1), size, size + k - 1)


def build_ndot(n: int) -> SymbolicMatrix:
    """N_n(x,a) with the last row and first column removed."""
    return corner(build_n(n))


#: The named matrices, each a function of (n, k) of which only Pk reads k.
#: ``det`` prints their determinants and DET_IDENTITIES reads them.  Like
#: every row of DET_IDENTITIES, each looks its builder up when called, so a
#: patched or wrapped function is the one that runs.
MATRICES: dict[str, Callable[..., SymbolicMatrix]] = {
    "M": lambda n, k=None: transfer_matrix(n, WeightSpec.xytu()),
    "N": lambda n, k=None: build_n(n),
    "P": lambda n, k=None: build_p(n),
    "Pk": lambda n, k=None: build_p_k(n, k),
    "ndot": lambda n, k=None: build_ndot(n),
    "A": lambda n, k=None: transfer_matrix(n, WeightSpec.seven_variable()),
    "Axy": lambda n, k=None: MATRICES["M"](n),
    "Az": lambda n, k=None: transfer_matrix(n, WeightSpec.ztu()),
}

#: The desk bound of the ``det`` command: the largest n it builds each matrix
#: at without ``--force-large``, the largest whose ``det`` takes a few seconds
#: on a 2-core Xeon (Python 3.11, whole process): M 3.9 s at n = 8 and 30 s
#: at 9; A 1.8 s at 6 and 21 s at 7; P 3.6 s at 6 and 57 s at 7; Pk up to
#: 0.6 s at 5 and 8.8 s at 6; ndot 2.4 s at 8 and 12 s at 9; N and Az,
#: triangular, 2.6 s at 13, 3.6-4.5 s at 14 and 13 s at 16.  Peak RSS of
#: the whole process at the bound, before and after the Laplace memo kept
#: only branching minors: N 235 -> 44 MB, ndot 182 -> 65 MB, P 271 -> 140 MB,
#: M 166 -> 66 MB, A 159 -> 96 MB, Az 219 -> 41 MB.
DET_BOUNDS = {"M": 8, "N": 13, "P": 6, "Pk": 5, "ndot": 8, "A": 6, "Axy": 8, "Az": 13}


def check_det_bound(name: str, n: int, force_large: bool = False) -> None:
    """Refuse ``det`` of MATRICES[name] at a negative n, or at n past
    DET_BOUNDS[name] unless forced."""
    if n < 0:
        raise ValueError(f"--n must be nonnegative, got {n}")
    bound = DET_BOUNDS[name]
    if n > bound and not force_large:
        raise BoundExceeded(
            f"det {name} at n={n} exceeds its desk bound n <= {bound}; pass --force-large"
        )


# -- the closed products of the determinant identities ---------------------------


def det_m_product(n: int) -> LaurentPoly:
    """det M_n = prod_{m=1..n} prod_{i=0..m} (1 - a x^i [m-i]_{x,y})."""
    x, xy = DEFAULT.var("x"), pq_context("x", "y")
    return _factors(
        DEFAULT.one, (x ** i * pq_int(m - i, xy) for m in range(1, n + 1) for i in range(m + 1))
    )


def det_n_product(n: int) -> LaurentPoly:
    """det(I - a A_n) under the (z,t,u) weights
    = prod_{m=1..n} prod_{k=0..n-m} (1 - a z^k [m]_z)."""
    z, zz = DEFAULT.var("z"), pq_context(DEFAULT.one, "z")
    return _factors(
        DEFAULT.one, (z ** k * pq_int(m, zz) for m in range(1, n + 1) for k in range(n - m + 1))
    )


def minor1_product(n: int) -> LaurentPoly:
    """det P_n = det(M_n ; last, first) = (-1)^C(n,2) a^n x^C(n,2) [n]_{t,u}!
    prod_{m=1..n-1} prod_{i=1..m} (1 - a x^i [m-i+1]_{x,y})."""
    a, x, xy = DEFAULT.var("a"), DEFAULT.var("x"), pq_context("x", "y")
    return (
        _sign(math.comb(n, 2))
        * a ** n
        * x ** math.comb(n, 2)
        * pq_factorial(n, pq_context("t", "u"))
        * _factors(
            DEFAULT.one,
            (x ** i * pq_int(m - i + 1, xy) for m in range(1, n) for i in range(1, m + 1)),
        )
    )


def minor2_product(n: int) -> LaurentPoly:
    """det(I - a A_n ; last, first) under the (z,t,u) weights
    = (-1)^C(n,2) a^n [n]_{t,u}! prod_{m=1..n-1} prod_{k=1..n-m}
      (1 - a z^(k-1) [m]_z)."""
    a, z, zz = DEFAULT.var("a"), DEFAULT.var("z"), pq_context(DEFAULT.one, "z")
    return (
        _sign(math.comb(n, 2))
        * a ** n
        * pq_factorial(n, pq_context("t", "u"))
        * _factors(
            DEFAULT.one,
            (z ** (k - 1) * pq_int(m, zz) for m in range(1, n) for k in range(1, n - m + 1)),
        )
    )


def conj_product(n: int) -> LaurentPoly:
    """det ndot_n = (-1)^C(n,2) a^n F_n! x^n
    prod_{m=1..n-1} prod_{k=1..n-m} (x - a q^(k-1) [m]_q)."""
    a, x, q = (DEFAULT.var(v) for v in "axq")
    qq = q_context()
    return (
        _sign(math.comb(n, 2))
        * a ** n
        * math.prod(ensure_f(n), start=DEFAULT.one)
        * x ** n
        * _factors(
            x, (q ** (k - 1) * pq_int(m, qq) for m in range(1, n) for k in range(1, n - m + 1))
        )
    )


@dataclass(frozen=True)
class DetIdentity:
    """det of ``MATRICES[matrix](n)``, or of its corner if ``corner``, equals
    ``product(n)``; its check runs 1 <= n <= ``n_max`` by default and, unless
    forced, at n <= ``n_bound``, the n at which its determinant reaches the
    desk bound of ``det``."""

    matrix: str
    product: Callable[[int], LaurentPoly]
    n_max: int
    n_bound: int
    corner: bool = False


#: The single-determinant identities, each with its closed product.  The
#: corner of M_n is P_n and that of N_n is ndot_n; the corner of the
#: triangular Az_n is Hessenberg and has no ``det`` entry: on the machine of
#: DET_BOUNDS its check takes 3.7 s up to n = 7, its determinant 22 s at 8.
DET_IDENTITIES = {
    "detm": DetIdentity("M", lambda n: det_m_product(n), 3, DET_BOUNDS["M"]),
    "detn": DetIdentity("Az", lambda n: det_n_product(n), 3, DET_BOUNDS["Az"]),
    "minor1": DetIdentity("M", lambda n: minor1_product(n), 4, DET_BOUNDS["P"], corner=True),
    "minor2": DetIdentity("Az", lambda n: minor2_product(n), 4, 7, corner=True),
    "conj": DetIdentity("N", lambda n: conj_product(n), 4, DET_BOUNDS["ndot"], corner=True),
}


# -- determinant identity verifiers ------------------------------------------------


def verify_det(name: str, n: int) -> bool:
    """The identity DET_IDENTITIES[name] at n."""
    identity = DET_IDENTITIES[name]
    m = MATRICES[identity.matrix](n)
    return det(corner(m) if identity.corner else m) == identity.product(n)


def verify_main1(n: int) -> bool:
    """The P-family ratio identities, verified in cleared form:

      det P_n = (-1)^(n-1) a x^(n-1) [n]_{t,u}
                prod_{i=1..n-1}(1 - a x^i [n-i]_{x,y}) * det P_{n-1}
      det P_n^k * x^(n(n-1)/2) = det P_n * a x^((k-1)(k-2)/2)
                y^((n+1-k)(n+2-k)/2) [n+1]_{t,u} binom(n+1, k-1)_{x,y}
                                                         for 1 <= k <= n
      det P_n^(n+1) = a y [n+1]_{t,u} [n]_{x,y} * det P_n
      det P_n^(n+2) = 0

    P_{n-1}, P_n and every P_n^k are read out of one P_{n+1}: P_{n-1} and
    P_n are its top-left blocks (P_0 is the 0x0 matrix).  Clearing by
    x^(n(n-1)/2) keeps everything inside the Laurent ring even though the
    stated ratio has a negative x-exponent for small k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a, x, y = (DEFAULT.var(v) for v in "axy")
    tu, xy = pq_context("t", "u"), pq_context("x", "y")
    p_next = build_p(n + 1)
    size = vertex_count(n) - 1
    det_p = det(_leading(p_next, size))
    step = (
        _sign(n - 1)
        * a
        * x ** (n - 1)
        * pq_int(n, tu)
        * _factors(DEFAULT.one, (x ** i * pq_int(n - i, xy) for i in range(1, n)))
    )
    if det_p != step * det(_leading(p_next, vertex_count(n - 1) - 1)):
        return False

    def det_p_k(k):
        return det(_leading(p_next, size, size + k - 1))

    for k in range(1, n + 1):
        lhs = det_p_k(k) * x ** (n * (n - 1) // 2)
        rhs = (
            det_p
            * a
            * x ** ((k - 1) * (k - 2) // 2)
            * y ** ((n + 1 - k) * (n + 2 - k) // 2)
            * pq_int(n + 1, tu)
            * pq_binomial(n + 1, k - 1, xy)
        )
        if lhs != rhs:
            return False
    if det_p_k(n + 1) != a * y * pq_int(n + 1, tu) * pq_int(n, xy) * det_p:
        return False
    return det_p_k(n + 2).is_zero()


def verify_lemma_key(n: int, m: int) -> bool:
    """The alternating-sum identity behind the P-family induction:

      sum_{k=0..m} (-1)^(m-k) x^C(k,2) y^C(n-k,2) binom(n,k)_{x,y}
          prod_{i=0..k-1}(1 - a x^i [n-i]_{x,y})
          prod_{i=k..m-1}(-a x^i [n-i]_{x,y})
      = x^C(m,2) y^C(n-m,2) binom(n,m)_{x,y} prod_{i=1..m}(1 - a x^i [n-i]_{x,y})
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    x, y = DEFAULT.var("x"), DEFAULT.var("y")
    xy = pq_context("x", "y")

    def ws(i, j):  # x^l [n-l]_{x,y} for i <= l < j
        return (x ** ell * pq_int(n - ell, xy) for ell in range(i, j))

    lhs = DEFAULT.zero
    for k in range(m + 1):
        term = (
            _sign(m - k)
            * x ** math.comb(k, 2)
            * y ** math.comb(n - k, 2)
            * pq_binomial(n, k, xy)
            * _factors(DEFAULT.one, ws(0, k))
            * _factors(DEFAULT.zero, ws(k, m))
        )
        lhs = lhs + term
    rhs = (
        x ** math.comb(m, 2)
        * y ** math.comb(n - m, 2)
        * pq_binomial(n, m, xy)
        * _factors(DEFAULT.one, ws(1, m + 1))
    )
    return lhs == rhs


def eigen_row_vector(n: int, m: int, k: int) -> list[LaurentPoly]:
    """The left eigenvector of N_n(x,a) for eigenvalue x - a q^(k-1) [m]_q,
    scaled by [n+1-m-k]_q! so every entry is a Laurent polynomial.

    Entry (i,j) (1 <= j <= i <= n+1, flat index i(i-1)/2 + j):

        (-1)^(i+m+k) q^(-(m+k-1)(i-m-k) + C(j-k,2))
        * F_{m+k} F_{m+k+1} ... F_{i-1}
        * [i-m-k+1]_q [i-m-k+2]_q ... [n+1-m-k]_q
        * binom(m, j-k)_q

    and 0 whenever i < m+k or j-k is outside 0..m.
    """
    ensure_f(max(n, 1))
    q = DEFAULT.var("q")
    qq = q_context()
    out = []
    for i in range(1, n + 2):
        for j in range(1, i + 1):
            if i < m + k or j - k < 0 or j - k > m:
                out.append(DEFAULT.zero)
                continue
            val = _sign(i + m + k) * q ** (-(m + k - 1) * (i - m - k) + math.comb(j - k, 2))
            for ell in range(m + k, i):
                val = val * DEFAULT.var(f"F{ell}")
            for ell in range(i - m - k + 1, n + 2 - m - k):
                val = val * pq_int(ell, qq)
            val = val * pq_binomial(m, j - k, qq)
            out.append(val)
    return out


def verify_eigen(n: int, m: int, k: int) -> bool:
    """Check X * N_n(x,a) = (x - a q^(k-1) [m]_q) * X for the row vector above."""
    if not (1 <= m <= n - 1 and 1 <= k <= n - m):
        raise ValueError("need 1 <= m <= n-1 and 1 <= k <= n-m")
    a, x, q = (DEFAULT.var(v) for v in "axq")
    vec = eigen_row_vector(n, m, k)
    matrix = build_n(n)
    lhs = matrix.row_mul(vec)
    eigenvalue = x - a * q ** (k - 1) * pq_int(m, q_context())
    return all(l == eigenvalue * v for l, v in zip(lhs, vec))


def q_specialized_series(k: int, order: int) -> SeriesInA:
    """a^k q^C(k,2) [k]_q! / prod_{i=1..k}(1 - a [i]_q): by the q-Stirling
    recurrence its a^n coefficient is [k]_q! S_q(n,k)."""
    a, q = DEFAULT.var("a"), DEFAULT.var("q")
    qq = q_context()
    numer = a ** k * q ** math.comb(k, 2) * pq_factorial(k, qq)
    denom = _factors(DEFAULT.one, (pq_int(i, qq) for i in range(1, k + 1)))
    return series_from_rational(numer, denom, order)
