"""q- and p,q-analogues of the classical counting numbers.

Definitions used throughout:

    [n]_{p,q} = (p^n - q^n)/(p - q) = sum_{i<n} p^{n-1-i} q^i,   [n]_q = [n]_{1,q}
    [n]_{p,q}! = [1][2]...[n]
    binom(n,k)_{p,q} = [n]!/([k]![n-k]!)
                     = p^k binom(n-1,k) + q^(n-k) binom(n-1,k-1)   (the p,q-Pascal rule)

    q-Stirling:   S_q(n,k) = q^(k-1) S_q(n-1,k-1) + [k]_q S_q(n-1,k),
                  S_q(n,k) = delta_{n,k} when n = 0 or k = 0.
    q-Eulerian:   A_q(n,k) = q^k [n-k]_q A_q(n-1,k-1) + [k+1]_q A_q(n-1,k),
                  A_q(1,0) = 1.

A_q(n,k) is also the maj generating function over permutations of [n] with
exactly k descents; q_eulerian_bruteforce computes that sum directly and is
kept independent of the recurrence so the two routes can be checked against
each other.

Note on q-Stirling values: the recurrence above gives S_q(3,2) = 2q + q^2,
S_q(4,2) = 3q + 3q^2 + q^3 and S_q(4,3) = 3q^3 + 2q^4 + q^5.  Tables are
sometimes printed with 1+q+q^2, 1+3q+2q^2+q^3, q^2+2q^3+2q^4+q^5 at these
spots, which is a different normalization inconsistent with the recurrence;
this library follows the recurrence, the convention under which the ordered
set partition distributions computed elsewhere in the package equal
[k]_q! S_q(n,k) exactly.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple

from .opart import check_desk_bound
from .ring import DEFAULT, LaurentPoly, _sum_of_products


@dataclass(frozen=True)
class PQContext:
    """The pair (p, q) over which the two-parameter analogues are formed.
    Equal by value; its hash is computed once, since every cache keyed on a
    context hashes it on each call."""

    p: LaurentPoly
    q: LaurentPoly
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.p, self.q)))

    def __hash__(self) -> int:
        return self._hash


@lru_cache(maxsize=None, typed=True)
def pq_context(p: str | LaurentPoly = "p", q: str | LaurentPoly = "q") -> PQContext:
    """The context of (p, q), each a variable name or a polynomial.  One
    object per argument pair, so the caches keyed on a context find it by
    identity and hash its polynomials once."""
    pv = DEFAULT.var(p) if isinstance(p, str) else p
    qv = DEFAULT.var(q) if isinstance(q, str) else q
    return PQContext(pv, qv)


@lru_cache(maxsize=None)
def q_context() -> PQContext:
    """The single-variable specialization p = 1, one object per process."""
    return PQContext(DEFAULT.one, DEFAULT.var("q"))


@lru_cache(maxsize=None)
def pq_int(n: int, ctx: PQContext) -> LaurentPoly:
    """[n]_{p,q} = sum_{i=0}^{n-1} p^(n-1-i) q^i; [0] = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # all n terms add into one dict; adding them one at a time would copy
    # the growing sum n times
    return _sum_of_products((1, _power(ctx.p, n - 1 - i), _power(ctx.q, i)) for i in range(n))


#: The rule of each held triangle, T(m,j) = left T(m-1,j-1) + up T(m-1,j)
#: with T(0,0) = 1: its family's (offset, left, up), each factor a function
#: of (ctx, m, j).  Row m spans the columns j < m + 1 - offset, since
#: A_q(m,j) = 0 for j >= m >= 1 and every other value is 0 for j > m; a
#: column past the end of row m-1 is 0.  A_q(0,0) = 1 starts the q-Eulerian
#: rows, so that A_q(1,0) = 1; the factorials are the one column
#: [m]! = [m] [m-1]!.
RULES = {
    "stirling": (0, lambda ctx, m, j: _power(ctx.q, j - 1), lambda ctx, m, j: pq_int(j, ctx)),
    "eulerian": (1, lambda ctx, m, j: _power(ctx.q, j) * pq_int(m - j, ctx),
                 lambda ctx, m, j: pq_int(j + 1, ctx)),
    "binomial": (0, lambda ctx, m, j: _power(ctx.q, m - j), lambda ctx, m, j: _power(ctx.p, j)),
    "factorial": (0, None, lambda ctx, m, j: pq_int(m, ctx)),
}


@lru_cache(maxsize=None)
def _power(x: LaurentPoly, e: int) -> LaurentPoly:
    return x ** e


class _Triangle:
    """The rows 0, 1, 2, ... of one triangle of RULES over one context, held
    for the life of the process.

    Row m is an immutable tuple of its first columns, built once from row
    m-1.  It is as wide as the largest column asked of it or of a row below
    it (capped at its span), and widens on demand, keeping the columns it
    has.  Rows are filled under ``_LOCK`` and read without it: a reader sees
    a row before or after it widens, and both hold the same values.  The
    public functions that read a triangle memoize what they read, so only
    their first read of a value comes here.
    """

    def __init__(self, family: str, ctx: PQContext):
        self.offset, self.left, self.up = RULES[family]
        self.ctx = ctx
        self.rows: list[tuple[LaurentPoly, ...]] = [(DEFAULT.one,)]

    def value(self, n: int, k: int) -> LaurentPoly:
        """T(n,k), for a column k in the span of row n."""
        rows = self.rows
        if n < len(rows) and k < len(rows[n]):
            return rows[n][k]
        with _LOCK:
            self._fill(n, k + 1)
        return rows[n][k]

    def _width(self, m: int, w: int) -> int:
        return min(w, m + 1 - self.offset)

    def _terms(self, m: int, j: int, prev: tuple[LaurentPoly, ...]):
        # row m-1 is at least as wide as row m is to be, up to its span, so
        # it has column j-1; column j it has unless j is past its span
        if j:
            yield 1, self.left(self.ctx, m, j), prev[j - 1]
        if j < len(prev):
            yield 1, self.up(self.ctx, m, j), prev[j]

    def _fill(self, n: int, w: int) -> None:
        """Make rows 0..n at least w columns wide, each capped at its span.
        A row that wide has every row below it that wide too, so the rows
        above the highest such row are the ones to build."""
        rows = self.rows
        m = min(n, len(rows) - 1)
        while m and len(rows[m]) < self._width(m, w):
            m -= 1
        for m in range(m + 1, n + 1):
            prev = rows[m - 1]
            held = rows[m] if m < len(rows) else ()
            row = held + tuple(_sum_of_products(self._terms(m, j, prev))
                               for j in range(len(held), self._width(m, w)))
            if m < len(rows):
                rows[m] = row
            else:
                rows.append(row)


#: The held triangles, keyed on (family, context); cleared, they are built
#: afresh on the next read.
_HELD: dict[tuple[str, PQContext], _Triangle] = {}
_LOCK = threading.Lock()


def _held(family: str, ctx: PQContext) -> _Triangle:
    triangle = _HELD.get((family, ctx))
    if triangle is None:
        with _LOCK:
            triangle = _HELD.setdefault((family, ctx), _Triangle(family, ctx))
    return triangle


@lru_cache(maxsize=None)
def pq_factorial(n: int, ctx: PQContext) -> LaurentPoly:
    """[1][2]...[n], one held row per n (no recursion, so any n works)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _held("factorial", ctx).value(n, 0)


@lru_cache(maxsize=None)
def pq_binomial(n: int, k: int, ctx: PQContext) -> LaurentPoly:
    """binom(n,k)_{p,q} by the p,q-Pascal rule over held rows, read at the
    column min(k, n-k) by symmetry."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return _held("binomial", ctx).value(n, min(k, n - k))


def q_int(n: int) -> LaurentPoly:
    return pq_int(n, q_context())


def q_factorial(n: int) -> LaurentPoly:
    return pq_factorial(n, q_context())


def q_binomial(n: int, k: int) -> LaurentPoly:
    return pq_binomial(n, k, q_context())


@lru_cache(maxsize=None)
def q_stirling(n: int, k: int) -> LaurentPoly:
    """S_q(n,k) by the recurrence over held rows (no recursion, so any n
    works)."""
    if n < 0 or k < 0:
        raise ValueError("n, k must be nonnegative")
    if k > n:
        return DEFAULT.zero
    return _held("stirling", q_context()).value(n, k)


@lru_cache(maxsize=None)
def q_eulerian(n: int, k: int) -> LaurentPoly:
    """A_q(n,k) by the recurrence over held rows, like q_stirling."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k >= n:
        return DEFAULT.zero
    return _held("eulerian", q_context()).value(n, k)


EULERIAN_DESK_BOUND = 9


def q_eulerian_bruteforce(n: int, k: int, bound: int = EULERIAN_DESK_BOUND) -> LaurentPoly:
    """Sum of q^maj over permutations of [n] with exactly k descents; n past
    ``bound`` is refused (a larger ``bound`` runs it)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_desk_bound(f"the maj sum over the permutations of [{n}]", "n", n, bound,
                     lift=f"bound={n}")
    counts: dict[int, int] = {}
    for sigma in itertools.permutations(range(1, n + 1)):
        descents = [i + 1 for i in range(n - 1) if sigma[i] > sigma[i + 1]]
        if len(descents) == k:
            maj = sum(descents)
            counts[maj] = counts.get(maj, 0) + 1
    return q_poly_from_exponent_counts(counts)


class ZZResult(NamedTuple):
    ok: bool
    lhs: LaurentPoly
    rhs: LaurentPoly


def check_zz_identity(n: int, k: int) -> ZZResult:
    """Check [k]_q! S_q(n,k) = sum_{m=1}^{k} q^(k(k-m)) binom(n-m, n-k)_q A_q(n, m-1)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    q = DEFAULT.var("q")
    lhs = q_factorial(k) * q_stirling(n, k)
    rhs = DEFAULT.zero
    for m in range(1, k + 1):
        rhs = rhs + q ** (k * (k - m)) * q_binomial(n - m, n - k) * q_eulerian(n, m - 1)
    return ZZResult(lhs == rhs, lhs, rhs)


def stirling2(n: int, k: int) -> int:
    """Integer Stirling numbers of the second kind (independent of q_stirling),
    filled row by row like it."""
    if n < 0 or k < 0 or k > n:
        return 0
    row = [1] + [0] * k  # S(0, j)
    for m in range(1, n + 1):
        lo = max(1, k - (n - m))
        row = [0] * lo + [row[j - 1] + j * row[j] for j in range(lo, k + 1)]
    return row[k]


def ordered_partition_count(n: int, k: int | None = None) -> int:
    """|OP_n^k| = k! S(n,k), or the Fubini number |OP_n| when k is None."""
    if k is not None:
        return math.factorial(k) * stirling2(n, k)
    return sum(ordered_partition_count(n, j) for j in range(n + 1))


def q_poly_from_exponent_counts(counts: Mapping[int, int]) -> LaurentPoly:
    """Build sum_e counts[e] * q^e (exponents may be negative)."""
    return DEFAULT.from_counts(("q",), counts)
