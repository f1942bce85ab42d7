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

Matrix families (square, built by block recursion; sizes arc(n) = (n+1)(n+2)/2):

    M_n:   I - a*A_n under the (x,y,t,u) weights
    N_n(x,a):   x on the diagonal, band -a*q^(i-1)[n+1-i]_q, upper blocks
                -a*F_n against a generic nonvanishing sequence F1, F2, ...
                (x = 1, F_m = [m]_{t,u}, q = z recovers I - a*A_n under the
                (z,t,u) weights)
    P_n:   M_n minus its last row and first column
    P_n^k: P_n with its last column replaced by the k-th column of the block
           that sits above the new diagonal block inside P_{n+1}
    ndot_n: N_n(x,a) minus its last row and first column
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .opart import BoundExceeded
from .qnum import PQContext, pq_factorial, pq_int, pq_binomial
from .ring import DEFAULT, LaurentPoly, SeriesInA, VarRegistry, ensure_f, series_from_rational
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
    """Dense grid of Laurent polynomials over one registry."""

    __slots__ = ("rows", "cols", "entries", "registry")

    def __init__(self, entries: Sequence[Sequence[LaurentPoly]]):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("matrix needs at least one entry")
        reg = entries[0][0].registry
        width = len(entries[0])
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

    def entry(self, i: int, j: int) -> LaurentPoly:
        return self.entries[i][j]

    def minor(self, i: int, j: int) -> "SymbolicMatrix":
        """Matrix with row i and column j removed (0-based)."""
        return SymbolicMatrix(
            [
                [e for cj, e in enumerate(row) if cj != j]
                for ri, row in enumerate(self.entries)
                if ri != i
            ]
        )

    def replace_column(self, j: int, column: Sequence[LaurentPoly]) -> "SymbolicMatrix":
        if len(column) != self.rows:
            raise ValueError("column length mismatch")
        return SymbolicMatrix(
            [
                tuple(column[ri] if cj == j else e for cj, e in enumerate(row))
                for ri, row in enumerate(self.entries)
            ]
        )

    def submatrix(self, rows: Iterable[int], cols: Iterable[int]) -> "SymbolicMatrix":
        rows = tuple(rows)
        cols = tuple(cols)
        return SymbolicMatrix([[self.entries[r][c] for c in cols] for r in rows])

    def row_mul(self, vector: Sequence[LaurentPoly]) -> list[LaurentPoly]:
        """vector (length rows) times the matrix, as a row vector."""
        if len(vector) != self.rows:
            raise ValueError("vector length mismatch")
        zero = self.registry.zero
        out = []
        for j in range(self.cols):
            acc = zero
            for i, v in enumerate(vector):
                if not v.is_zero():
                    e = self.entries[i][j]
                    if not e.is_zero():
                        acc = acc + v * e
            out.append(acc)
        return out

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, SymbolicMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        return "\n".join("[" + ", ".join(str(e) for e in row) + "]" for row in self.entries)


def identity_matrix(n: int, registry: VarRegistry | None = None) -> SymbolicMatrix:
    reg = registry if registry is not None else DEFAULT
    return SymbolicMatrix(
        [[reg.one if i == j else reg.zero for j in range(n)] for i in range(n)]
    )


# -- determinants --------------------------------------------------------------


def det(m: SymbolicMatrix, method: str = "laplace") -> LaurentPoly:
    """Exact symbolic determinant.

    "laplace" expands along the sparsest remaining row or column with
    sub-determinant memoization (fast on the near-triangular matrices here);
    "bareiss" is fraction-free elimination with exact division, kept as an
    independent cross-check of the expansion.  The empty 0x0 determinant is 1.
    """
    if not m.is_square():
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
            memo[key] = zero
            return zero
        acc = zero
        if best_is_row:
            r = rows[best_pos]
            sub_rows = rows[:best_pos] + rows[best_pos + 1:]
            for cj, c in enumerate(cols):
                e = entries[r][c]
                if e.is_zero():
                    continue
                sub = rec(sub_rows, cols[:cj] + cols[cj + 1:])
                term = e * sub
                acc = acc + (term if (best_pos + cj) % 2 == 0 else -term)
        else:
            c = cols[best_pos]
            sub_cols = cols[:best_pos] + cols[best_pos + 1:]
            for ri, r in enumerate(rows):
                e = entries[r][c]
                if e.is_zero():
                    continue
                sub = rec(rows[:ri] + rows[ri + 1:], sub_cols)
                term = e * sub
                acc = acc + (term if (ri + best_pos) % 2 == 0 else -term)
        memo[key] = acc
        return acc

    n = m.rows
    return rec(tuple(range(n)), tuple(range(n)))


def _det_bareiss(m: SymbolicMatrix) -> LaurentPoly:
    reg = m.registry
    n = m.rows
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


def prod_poly(factors: Iterable[LaurentPoly], registry: VarRegistry | None = None) -> LaurentPoly:
    reg = registry if registry is not None else DEFAULT
    out = reg.one
    for f in factors:
        out = out * f
    return out


# -- weighted adjacency of D_k --------------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    """The seven step-weight values (generic variables or a specialization)."""

    t: tuple[LaurentPoly, ...]
    generic: bool = False

    def __post_init__(self):
        if len(self.t) != 7:
            raise ValueError("a weight spec has exactly seven entries")

    @classmethod
    def seven_variable(cls, registry: VarRegistry | None = None) -> "WeightSpec":
        reg = registry if registry is not None else DEFAULT
        return cls(tuple(reg.var(f"t{i}") for i in range(1, 8)), generic=True)

    @classmethod
    def xytu(cls, registry: VarRegistry | None = None) -> "WeightSpec":
        """t1=t2=t3=x, t4=y, t5=t, t6=u, t7=y: the M-matrix weights."""
        reg = registry if registry is not None else DEFAULT
        x, y, t, u = (reg.var(v) for v in "xytu")
        return cls((x, x, x, y, t, u, y))

    @classmethod
    def ztu(cls, registry: VarRegistry | None = None) -> "WeightSpec":
        """t1=t3=t7=1, t2=t4=z, t5=t, t6=u: the N-matrix weights."""
        reg = registry if registry is not None else DEFAULT
        z, t, u = (reg.var(v) for v in "ztu")
        one = reg.one
        return cls((one, z, one, z, t, u, one))

    @property
    def registry(self) -> VarRegistry:
        return self.t[0].registry

    def open_weight(self, i: int, j: int) -> LaurentPoly:
        """North/East step leaving (i,j): t1^i t7^j [i+j+1]_{t5,t6}."""
        ctx = PQContext(self.t[4], self.t[5])
        return self.t[0] ** i * self.t[6] ** j * pq_int(i + j + 1, ctx)

    def close_weight(self, i: int, j: int) -> LaurentPoly:
        """Null/South-East step leaving (i,j): t2^i [j]_{t3,t4}."""
        ctx = PQContext(self.t[2], self.t[3])
        return self.t[1] ** i * pq_int(j, ctx)

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
    grid = [[w.registry.zero] * len(index) for _ in index]
    for v, out in edges.items():
        for u, weight in out:
            grid[index[v]][index[u]] = weight
    return SymbolicMatrix(grid)


def transfer_matrix(k: int, w: WeightSpec) -> SymbolicMatrix:
    """I - a * A_k; upper triangular in the canonical vertex order."""
    reg = w.registry
    a = reg.var("a")
    adj = adjacency(k, w)
    rows = []
    for i in range(adj.rows):
        row = [-(a * e) if not e.is_zero() else e for e in adj.entries[i]]
        row[i] = row[i] + reg.one
        rows.append(row)
    return SymbolicMatrix(rows)


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

        (-1)^(1 + arc(k)) det(I - a A_k ; last row, first column) / det(I - a A_k)

    Its a^n coefficient is the sum of the seven-variable monomials over all
    ordered partitions of [n] with k blocks.
    """
    _check_k_bound(k, w, force_large)
    m = transfer_matrix(k, w)
    nv = vertex_count(k)
    denom = det(m)
    if nv == 1:
        numer = m.registry.one  # empty minor
    else:
        numer = det(m.minor(nv - 1, 0))
    if nv % 2 == 0:
        numer = -numer
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
    reg = w.registry
    target = (k, 0)
    moves: dict[Vertex, list[tuple[LaurentPoly, list[Vertex]]]] = {}
    for v, out in out_edges(k, w).items():
        by_weight: dict[LaurentPoly, list[Vertex]] = {}
        for u, weight in out:
            by_weight.setdefault(weight, []).append(u)
        moves[v] = list(by_weight.items())
    row = {(0, 0): reg.one}
    coeffs = [row.get(target, reg.zero)]
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
        coeffs.append(row.get(target, reg.zero))
    return SeriesInA(reg, coeffs)


# -- closed forms ----------------------------------------------------------------


def _xy_ctx(reg):
    return PQContext(reg.var("x"), reg.var("y"))


def _tu_ctx(reg):
    return PQContext(reg.var("t"), reg.var("u"))


def _z_ctx(reg):
    return PQContext(reg.one, reg.var("z"))


def _check_closed_k_bound(k: int, force_large: bool) -> None:
    if k > CLOSED_K_BOUND and not force_large:
        raise BoundExceeded(
            f"k={k} exceeds the closed-form desk bound {CLOSED_K_BOUND}; "
            "pass force_large=True (CLI: --force-large)"
        )


def closed_f(k: int, order: int, registry: VarRegistry | None = None,
             force_large: bool = False) -> SeriesInA:
    """a^k x^C(k,2) [k]_{t,u}! / prod_{i=1..k} (1 - a [i]_{x,y})."""
    _check_closed_k_bound(k, force_large)
    reg = registry if registry is not None else DEFAULT
    a, x = reg.var("a"), reg.var("x")
    numer = a ** k * x ** math.comb(k, 2) * pq_factorial(k, _tu_ctx(reg))
    denom = prod_poly(
        (reg.one - a * pq_int(i, _xy_ctx(reg)) for i in range(1, k + 1)), reg
    )
    return series_from_rational(numer, denom, order)


def closed_g(k: int, order: int, registry: VarRegistry | None = None,
             force_large: bool = False) -> SeriesInA:
    """a^k [k]_{t,u}! / prod_{i=1..k} (1 - a z^(k-i) [i]_z)."""
    _check_closed_k_bound(k, force_large)
    reg = registry if registry is not None else DEFAULT
    a, z = reg.var("a"), reg.var("z")
    numer = a ** k * pq_factorial(k, _tu_ctx(reg))
    denom = prod_poly(
        (reg.one - a * z ** (k - i) * pq_int(i, _z_ctx(reg)) for i in range(1, k + 1)),
        reg,
    )
    return series_from_rational(numer, denom, order)


def closed_phi(k: int, order: int, registry: VarRegistry | None = None,
               force_large: bool = False) -> SeriesInA:
    """The (mak+bInv, cinvLSB, inv, cinv) generating function with k blocks:
    obtained from closed_f by the substitution t -> x y t, u -> u y^2."""
    reg = registry if registry is not None else DEFAULT
    x, y, t, u = (reg.var(v) for v in "xytu")
    return closed_f(k, order, reg, force_large).subs({"t": x * y * t, "u": u * y * y})


def closed_varphi(k: int, order: int, registry: VarRegistry | None = None,
                  force_large: bool = False) -> SeriesInA:
    """The (lmak+bInv, inv, cinv) generating function with k blocks: closed_g
    with a -> a z^(k-1), z -> 1/z, u -> u/z, applied at the series level.

    The rescaling introduces Laurent powers of z coefficientwise; the final
    series must come out polynomial in z, which is asserted here rather than
    assumed.
    """
    reg = registry if registry is not None else DEFAULT
    z, u = reg.var("z"), reg.var("u")
    base = closed_g(k, order, reg, force_large)
    zi = z.inverse()
    out = base.subs({"z": zi, "u": u * zi}).map_coeffs(
        lambda n, c: z ** (n * (k - 1)) * c
    )
    for n, c in enumerate(out.coeffs):
        if c.min_exponent("z") < 0:
            raise AssertionError(
                f"varphi coefficient a^{n} kept a negative power of z: {c}"
            )
    return out


# -- the recursive matrix families ------------------------------------------------


def arc(n: int) -> int:
    """(n+1)(n+2)/2, the matrix size at level n."""
    return vertex_count(n)


def build_m(n: int, registry: VarRegistry | None = None) -> SymbolicMatrix:
    """M_n by block recursion: M_0 = (1);

        M_n = [ M_{n-1}  Mbar ]      Mbar: zero except its last n rows,
              [ 0        Mhat ]            -a x^(i-1) y^(n-i) [n]_{t,u} at
                                           (i, i), (i, i+1)
        Mhat (n+1 square): delta_ij - a x^(i-1) [n+1-i]_{x,y}
                           (delta_ij + delta_{i+1,j})
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    reg = registry if registry is not None else DEFAULT
    a, x, y = reg.var("a"), reg.var("x"), reg.var("y")
    tu = _tu_ctx(reg)
    xy = _xy_ctx(reg)
    grid = [[reg.one]]
    for m in range(1, n + 1):
        size_prev = arc(m - 1)
        size = arc(m)
        new = [[reg.zero] * size for _ in range(size)]
        for i in range(size_prev):
            for j in range(size_prev):
                new[i][j] = grid[i][j]
        band = a * pq_int(m, tu)
        for i in range(1, m + 1):  # rows of the upper-right block, 1-based
            w = x ** (i - 1) * y ** (m - i) * band
            row = size_prev - m - 1 + i
            new[row][size_prev + i - 1] = -w
            new[row][size_prev + i] = -w
        for i in range(1, m + 2):  # diagonal block, 1-based
            w = a * x ** (i - 1) * pq_int(m + 1 - i, xy)
            new[size_prev + i - 1][size_prev + i - 1] = reg.one - w
            if i <= m:
                new[size_prev + i - 1][size_prev + i] = -w
        grid = new
    return SymbolicMatrix(grid)


def build_n(n: int, registry: VarRegistry | None = None) -> SymbolicMatrix:
    """N_n(x, a) by the same block recursion: N_0 = (x); the diagonal block is
    x delta_ij - a q^(i-1) [n+1-i]_q (delta_ij + delta_{i+1,j}) and the
    upper-right band is -a F_n at (i,i), (i,i+1) for the generic sequence F."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    reg = registry if registry is not None else DEFAULT
    ensure_f(max(n, 1), reg)
    a, x, q = reg.var("a"), reg.var("x"), reg.var("q")
    qq = PQContext(reg.one, q)
    grid = [[x]]
    for m in range(1, n + 1):
        size_prev = arc(m - 1)
        size = arc(m)
        new = [[reg.zero] * size for _ in range(size)]
        for i in range(size_prev):
            for j in range(size_prev):
                new[i][j] = grid[i][j]
        band = a * reg.var(f"F{m}")
        for i in range(1, m + 1):
            row = size_prev - m - 1 + i
            new[row][size_prev + i - 1] = -band
            new[row][size_prev + i] = -band
        for i in range(1, m + 2):
            w = a * q ** (i - 1) * pq_int(m + 1 - i, qq)
            new[size_prev + i - 1][size_prev + i - 1] = x - w
            if i <= m:
                new[size_prev + i - 1][size_prev + i] = -w
        grid = new
    return SymbolicMatrix(grid)


def build_p(n: int, registry: VarRegistry | None = None) -> SymbolicMatrix:
    """P_n: M_n with the last row and first column removed."""
    return build_m(n, registry).minor(arc(n) - 1, 0)


def build_pbar(n: int, registry: VarRegistry | None = None) -> SymbolicMatrix:
    """The block of P_{n+1} above its new diagonal block: the first
    arc(n)-1 rows of the last n+2 columns."""
    p_next = build_p(n + 1, registry)
    kn = arc(n) - 1
    return p_next.submatrix(range(kn), range(kn, p_next.cols))


def build_p_k(n: int, k: int, registry: VarRegistry | None = None) -> SymbolicMatrix:
    """P_n^k: P_n with its right-most column replaced by the k-th column
    (1-based, 1 <= k <= n+2) of build_pbar(n)."""
    if not 1 <= k <= n + 2:
        raise ValueError(f"need 1 <= k <= {n + 2}")
    p = build_p(n, registry)
    col = [build_pbar(n, registry).entry(i, k - 1) for i in range(p.rows)]
    return p.replace_column(p.cols - 1, col)


def build_ndot(n: int, registry: VarRegistry | None = None) -> SymbolicMatrix:
    """N_n(x,a) with the last row and first column removed."""
    return build_n(n, registry).minor(arc(n) - 1, 0)


# -- determinant identity verifiers ------------------------------------------------


def verify_det_m(n: int, registry: VarRegistry | None = None) -> bool:
    """det M_n = prod_{m=1..n} prod_{i=0..m} (1 - a x^i [m-i]_{x,y})."""
    reg = registry if registry is not None else DEFAULT
    a, x = reg.var("a"), reg.var("x")
    xy = _xy_ctx(reg)
    lhs = det(build_m(n, reg))
    rhs = prod_poly(
        (
            reg.one - a * x ** i * pq_int(m - i, xy)
            for m in range(1, n + 1)
            for i in range(m + 1)
        ),
        reg,
    )
    return lhs == rhs


def verify_det_n(n: int, registry: VarRegistry | None = None) -> bool:
    """det(I - a A_n) under the (z,t,u) weights
    = prod_{m=1..n} prod_{k=0..n-m} (1 - a z^k [m]_z)."""
    reg = registry if registry is not None else DEFAULT
    a, z = reg.var("a"), reg.var("z")
    zz = _z_ctx(reg)
    lhs = det(transfer_matrix(n, WeightSpec.ztu(reg)))
    rhs = prod_poly(
        (
            reg.one - a * z ** k * pq_int(m, zz)
            for m in range(1, n + 1)
            for k in range(n - m + 1)
        ),
        reg,
    )
    return lhs == rhs


def verify_minor1(n: int, registry: VarRegistry | None = None) -> bool:
    """det(M_n; last, first) = (-1)^C(n,2) a^n x^C(n,2) [n]_{t,u}!
    prod_{m=1..n-1} prod_{i=1..m} (1 - a x^i [m-i+1]_{x,y})."""
    reg = registry if registry is not None else DEFAULT
    a, x = reg.var("a"), reg.var("x")
    lhs = det(build_p(n, reg))
    sign = -1 if math.comb(n, 2) % 2 else 1
    rhs = (
        reg.const(sign)
        * a ** n
        * x ** math.comb(n, 2)
        * pq_factorial(n, _tu_ctx(reg))
        * prod_poly(
            (
                reg.one - a * x ** i * pq_int(m - i + 1, _xy_ctx(reg))
                for m in range(1, n)
                for i in range(1, m + 1)
            ),
            reg,
        )
    )
    return lhs == rhs


def verify_minor2(n: int, registry: VarRegistry | None = None) -> bool:
    """det(I - a A_n ; last, first) under the (z,t,u) weights
    = (-1)^C(n,2) a^n [n]_{t,u}! prod_{m=1..n-1} prod_{k=1..n-m}
      (1 - a z^(k-1) [m]_z)."""
    reg = registry if registry is not None else DEFAULT
    a, z = reg.var("a"), reg.var("z")
    m = transfer_matrix(n, WeightSpec.ztu(reg))
    lhs = det(m.minor(arc(n) - 1, 0))
    sign = -1 if math.comb(n, 2) % 2 else 1
    rhs = (
        reg.const(sign)
        * a ** n
        * pq_factorial(n, _tu_ctx(reg))
        * prod_poly(
            (
                reg.one - a * z ** (k - 1) * pq_int(mm, _z_ctx(reg))
                for mm in range(1, n)
                for k in range(1, n - mm + 1)
            ),
            reg,
        )
    )
    return lhs == rhs


def verify_main1(n: int, registry: VarRegistry | None = None) -> bool:
    """The P-family ratio identities, verified in cleared form:

      det P_n = (-1)^(n-1) a x^(n-1) [n]_{t,u}
                prod_{i=1..n-1}(1 - a x^i [n-i]_{x,y}) * det P_{n-1}
      det P_n^k * x^(n(n-1)/2) = det P_n * a x^((k-1)(k-2)/2)
                y^((n+1-k)(n+2-k)/2) [n+1]_{t,u} binom(n+1, k-1)_{x,y}
                                                         for 1 <= k <= n
      det P_n^(n+1) = a y [n+1]_{t,u} [n]_{x,y} * det P_n
      det P_n^(n+2) = 0

    Clearing by x^(n(n-1)/2) keeps everything inside the Laurent ring even
    though the stated ratio has a negative x-exponent for small k.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    reg = registry if registry is not None else DEFAULT
    a, x, y = reg.var("a"), reg.var("x"), reg.var("y")
    tu, xy = _tu_ctx(reg), _xy_ctx(reg)
    det_p = det(build_p(n, reg))
    # P_0 is the empty matrix: its determinant is 1
    det_p_prev = det(build_p(n - 1, reg)) if n >= 2 else reg.one
    sign = reg.const(-1 if (n - 1) % 2 else 1)
    step = (
        sign
        * a
        * x ** (n - 1)
        * pq_int(n, tu)
        * prod_poly((reg.one - a * x ** i * pq_int(n - i, xy) for i in range(1, n)), reg)
    )
    if det_p != step * det_p_prev:
        return False
    for k in range(1, n + 1):
        lhs = det(build_p_k(n, k, reg)) * x ** (n * (n - 1) // 2)
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
    if det(build_p_k(n, n + 1, reg)) != a * y * pq_int(n + 1, tu) * pq_int(n, xy) * det_p:
        return False
    return det(build_p_k(n, n + 2, reg)).is_zero()


def verify_lemma_key(n: int, m: int, registry: VarRegistry | None = None) -> bool:
    """The alternating-sum identity behind the P-family induction:

      sum_{k=0..m} (-1)^(m-k) x^C(k,2) y^C(n-k,2) binom(n,k)_{x,y}
          prod_{i=0..k-1}(1 - a x^i [n-i]_{x,y})
          prod_{i=k..m-1}(-a x^i [n-i]_{x,y})
      = x^C(m,2) y^C(n-m,2) binom(n,m)_{x,y} prod_{i=1..m}(1 - a x^i [n-i]_{x,y})
    """
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n")
    reg = registry if registry is not None else DEFAULT
    a, x, y = reg.var("a"), reg.var("x"), reg.var("y")
    xy = _xy_ctx(reg)

    def factor(i):
        return reg.one - a * x ** i * pq_int(n - i, xy)

    def neg_factor(i):
        return -(a * x ** i * pq_int(n - i, xy))

    lhs = reg.zero
    for k in range(m + 1):
        sign = reg.const(-1 if (m - k) % 2 else 1)
        term = (
            sign
            * x ** math.comb(k, 2)
            * y ** math.comb(n - k, 2)
            * pq_binomial(n, k, xy)
            * prod_poly((factor(i) for i in range(k)), reg)
            * prod_poly((neg_factor(i) for i in range(k, m)), reg)
        )
        lhs = lhs + term
    rhs = (
        x ** math.comb(m, 2)
        * y ** math.comb(n - m, 2)
        * pq_binomial(n, m, xy)
        * prod_poly((factor(i) for i in range(1, m + 1)), reg)
    )
    return lhs == rhs


def eigen_row_vector(n: int, m: int, k: int, registry: VarRegistry | None = None
                     ) -> list[LaurentPoly]:
    """The left eigenvector of N_n(x,a) for eigenvalue x - a q^(k-1) [m]_q,
    scaled by [n+1-m-k]_q! so every entry is a Laurent polynomial.

    Entry (i,j) (1 <= j <= i <= n+1, flat index i(i-1)/2 + j):

        (-1)^(i+m+k) q^(-(m+k-1)(i-m-k) + C(j-k,2))
        * F_{m+k} F_{m+k+1} ... F_{i-1}
        * [i-m-k+1]_q [i-m-k+2]_q ... [n+1-m-k]_q
        * binom(m, j-k)_q

    and 0 whenever i < m+k or j-k is outside 0..m.
    """
    reg = registry if registry is not None else DEFAULT
    ensure_f(max(n, 1), reg)
    q = reg.var("q")
    qq = PQContext(reg.one, q)
    out = []
    for i in range(1, n + 2):
        for j in range(1, i + 1):
            if i < m + k or j - k < 0 or j - k > m:
                out.append(reg.zero)
                continue
            sign = reg.const(-1 if (i + m + k) % 2 else 1)
            val = sign * q ** (-(m + k - 1) * (i - m - k) + math.comb(j - k, 2))
            for ell in range(m + k, i):
                val = val * reg.var(f"F{ell}")
            for ell in range(i - m - k + 1, n + 2 - m - k):
                val = val * pq_int(ell, qq)
            val = val * pq_binomial(m, j - k, qq)
            out.append(val)
    return out


def verify_eigen(n: int, m: int, k: int, registry: VarRegistry | None = None) -> bool:
    """Check X * N_n(x,a) = (x - a q^(k-1) [m]_q) * X for the row vector above."""
    if not (1 <= m <= n - 1 and 1 <= k <= n - m):
        raise ValueError("need 1 <= m <= n-1 and 1 <= k <= n-m")
    reg = registry if registry is not None else DEFAULT
    a, x, q = reg.var("a"), reg.var("x"), reg.var("q")
    vec = eigen_row_vector(n, m, k, reg)
    matrix = build_n(n, reg)
    lhs = matrix.row_mul(vec)
    eigenvalue = x - a * q ** (k - 1) * pq_int(m, PQContext(reg.one, q))
    return all(l == eigenvalue * v for l, v in zip(lhs, vec))


def verify_conj(n: int, registry: VarRegistry | None = None) -> bool:
    """det ndot_n = (-1)^(n(n-1)/2) a^n F_n! x^n
    prod_{m=1..n-1} prod_{k=1..n-m} (x - a q^(k-1) [m]_q)."""
    reg = registry if registry is not None else DEFAULT
    ensure_f(max(n, 1), reg)
    a, x, q = reg.var("a"), reg.var("x"), reg.var("q")
    qq = PQContext(reg.one, q)
    lhs = det(build_ndot(n, reg))
    sign = reg.const(-1 if (n * (n - 1) // 2) % 2 else 1)
    rhs = sign * a ** n * x ** n
    for i in range(1, n + 1):
        rhs = rhs * reg.var(f"F{i}")
    rhs = rhs * prod_poly(
        (
            x - a * q ** (kk - 1) * pq_int(mm, qq)
            for mm in range(1, n)
            for kk in range(1, n - mm + 1)
        ),
        reg,
    )
    return lhs == rhs


def q_specialized_series(k: int, order: int, registry: VarRegistry | None = None) -> SeriesInA:
    """a^k q^C(k,2) [k]_q! / prod_{i=1..k}(1 - a [i]_q): by the q-Stirling
    recurrence its a^n coefficient is [k]_q! S_q(n,k)."""
    reg = registry if registry is not None else DEFAULT
    a, q = reg.var("a"), reg.var("q")
    qq = PQContext(reg.one, q)
    numer = a ** k * q ** math.comb(k, 2) * pq_factorial(k, qq)
    denom = prod_poly((reg.one - a * pq_int(i, qq) for i in range(1, k + 1)), reg)
    return series_from_rational(numer, denom, order)
