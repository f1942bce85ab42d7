"""q- and p,q-analogues of the classical counting numbers.

Definitions used throughout:

    [n]_{p,q} = (p^n - q^n)/(p - q) = sum_{i<n} p^{n-1-i} q^i,   [n]_q = [n]_{1,q}
    [n]_{p,q}! = [1][2]...[n]
    binom(n,k)_{p,q} = [n]!/([k]![n-k]!)                    (always an exact quotient)

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
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, NamedTuple

from .ring import DEFAULT, LaurentPoly, VarRegistry


@dataclass(frozen=True)
class PQContext:
    """The pair (p, q) over which the two-parameter analogues are formed."""

    p: LaurentPoly
    q: LaurentPoly

    def __post_init__(self):
        if self.p.registry is not self.q.registry:
            raise ValueError("p and q must share a registry")

    @property
    def registry(self) -> VarRegistry:
        return self.p.registry


def pq_context(p: str | LaurentPoly = "p", q: str | LaurentPoly = "q") -> PQContext:
    pv = DEFAULT.var(p) if isinstance(p, str) else p
    qv = DEFAULT.var(q) if isinstance(q, str) else q
    return PQContext(pv, qv)


def q_context() -> PQContext:
    """The single-variable specialization p = 1."""
    return PQContext(DEFAULT.one, DEFAULT.var("q"))


@lru_cache(maxsize=None)
def pq_int(n: int, ctx: PQContext) -> LaurentPoly:
    """[n]_{p,q} = sum_{i=0}^{n-1} p^(n-1-i) q^i; [0] = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    reg = ctx.registry
    total = reg.zero
    for i in range(n):
        total = total + ctx.p ** (n - 1 - i) * ctx.q ** i
    return total


@lru_cache(maxsize=None)
def pq_factorial(n: int, ctx: PQContext) -> LaurentPoly:
    """[1][2]...[n], multiplied out in order (no recursion, so any n works)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = ctx.registry.one
    for m in range(1, n + 1):
        out = out * pq_int(m, ctx)
    return out


@lru_cache(maxsize=None)
def pq_binomial(n: int, k: int, ctx: PQContext) -> LaurentPoly:
    """Exact quotient [n]!/([k]![n-k]!); an inexact division here is a bug."""
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return pq_factorial(n, ctx).divexact(pq_factorial(k, ctx) * pq_factorial(n - k, ctx))


def q_int(n: int) -> LaurentPoly:
    return pq_int(n, q_context())


def q_factorial(n: int) -> LaurentPoly:
    return pq_factorial(n, q_context())


def q_binomial(n: int, k: int) -> LaurentPoly:
    return pq_binomial(n, k, q_context())


@lru_cache(maxsize=None)
def q_stirling(n: int, k: int) -> LaurentPoly:
    """S_q(n,k) by the recurrence, filled row by row (no recursion, so any n
    works).  Row m keeps only the columns S_q(n,k) depends on, k-(n-m)..k."""
    if n < 0 or k < 0:
        raise ValueError("n, k must be nonnegative")
    ctx = q_context()
    reg = ctx.registry
    if k > n:
        return reg.zero
    q = ctx.q
    row = [reg.one] + [reg.zero] * k  # S_q(0, j)
    for m in range(1, n + 1):
        lo = max(1, k - (n - m))
        row = [reg.zero] * lo + [
            q ** (j - 1) * row[j - 1] + pq_int(j, ctx) * row[j] for j in range(lo, k + 1)
        ]
    return row[k]


@lru_cache(maxsize=None)
def q_eulerian(n: int, k: int) -> LaurentPoly:
    """A_q(n,k) by the recurrence, filled row by row like q_stirling.  Row m
    keeps the columns k-(n-m)..k, and A_q(m,j) = 0 for j >= m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if k < 0:
        raise ValueError("k must be nonnegative")
    ctx = q_context()
    reg = ctx.registry
    if k >= n:
        return reg.zero
    q = ctx.q
    row = [reg.one] + [reg.zero] * k  # A_q(1, j)
    for m in range(2, n + 1):
        lo = max(0, k - (n - m))
        new = [reg.zero] * (k + 1)
        for j in range(lo, min(k, m - 1) + 1):
            new[j] = pq_int(j + 1, ctx) * row[j]
            if j:
                new[j] = q ** j * pq_int(m - j, ctx) * row[j - 1] + new[j]
        row = new
    return row[k]


EULERIAN_DESK_BOUND = 9


def q_eulerian_bruteforce(n: int, k: int, bound: int = EULERIAN_DESK_BOUND) -> LaurentPoly:
    """Sum of q^maj over permutations of [n] with exactly k descents."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > bound:
        raise ValueError(f"n={n} exceeds the desk bound {bound}")
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
    reg = DEFAULT
    q = reg.var("q")
    lhs = q_factorial(k) * q_stirling(n, k)
    rhs = reg.zero
    for m in range(1, k + 1):
        rhs = rhs + q ** (k * (k - m)) * q_binomial(n - m, n - k) * q_eulerian(n, m - 1)
    return ZZResult(lhs == rhs, lhs, rhs)


@lru_cache(maxsize=None)
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
    i = DEFAULT.index("q")
    return DEFAULT.poly({(0,) * i + (e,): c for e, c in counts.items() if c})
