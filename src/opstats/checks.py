"""Exhaustive verification suites tying the package together.

Every suite returns a list of :class:`CheckResult`, one per checked instance,
so callers (CLI, acceptance tests) can report the first failing case;
``run_audit``, the one sweep that the audit checks share, returns each
check's list under the check's name.  The enumeration side counts statistic
values over the insertion tree of ``stats``, through the value steps (the
small levels that ``enumerated_gf`` keeps included), and so never counts
block pairs; the targets come from the independent routes (recurrences,
closed forms, symbolic determinants), never from the same sweep.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Callable

from . import qnum, xfer
from .opart import Blocks, OrderedPartition, _form, check_desk_bound, format_partition, iter_blocks_all
from .qnum import q_poly_from_exponent_counts
from .ring import DEFAULT, series_from_rational
from .stats import WALK_EXPONENTS, coord_rows, enumerated_gf, level_counts, sweep_all
from .walks import (
    EAST,
    NORTH,
    STEP_ORDER,
    _diagram_of,
    choice_bound,
    enumerate_diagrams,
    enumerate_paths,
    path_vertices,
    psi,
    step_predictions,
)

#: The six distributions that must all equal [k]_q! S_q(n,k).  The signed
#: corrections are the ones produced by specializing the four-variable
#: generating functions: q^(mak+bInv-inv+cinv) comes from phi(a;q,1,1/q,q),
#: q^(lmak+bInv-inv+cinv) from varphi(a;q,1/q,q), and
#: q^(cinvLSB+inv-cinv) from phi(a;1,q,q,1/q).
SIX_STATS = (
    "mak+bInv",
    "mak+bInv-inv+cinv",
    "lmak+bInv",
    "lmak+bInv-inv+cinv",
    "cinvLSB",
    "cinvLSB+inv-cinv",
)

#: The three empirically checked distributions (block-major-index based).
BMAJ_STATS = ("mak+bMaj", "lmak+bMaj", "cmajLSB")

#: The pointwise identities of the audit sweep, as (check, (lhs, rhs)
#: pairs): Proposition 2.2's dualities, Lemma 3.10's rewrites that match
#: statistics to walk weights, and the restrictions to open(pi).
POINTWISE = (
    ("prop22", (("mak", "lmakP"), ("makP", "lmak"))),
    ("lemma310", (
        ("mak+bInv", "lcs+rcs+rsb_tc+inv"),
        ("lmak+bInv", "nk1-lcsrcs_tc-lsb_tc-cinv"),
        ("cinvLSB", "lsbrsb_op+lsb_tc+inv+2*cinv"),
    )),
    ("restriction-identities", (
        ("bInv", "rcs_op"), ("inv", "ros_op"), ("bExc", "lcs_op"), ("cinv", "los_op"),
    )),
)

#: The two classes of equidistributed coordinate statistics.
EQUIDIST = (("rob", "lob", "rcs", "lcs"), ("ros", "los", "rcb", "lcb"))

#: On inversion-free partitions each of these gives S_q(n,k): label -> statistic.
SECT23 = {"mak": "mak", "lmak": "lmak", "lsb+C(k,2)": "lsb+k2"}

#: The weights of Theorem 2.4's enumeration sums: phi weighs
#: x^(mak+bInv) y^cinvLSB t^inv u^cinv, varphi z^(lmak+bInv) t^inv u^cinv.
THM24 = (
    ("phi", {"x": "makBInv", "y": "cinvLSB", "t": "inv", "u": "cinv"}),
    ("varphi", {"z": "lmakBInv", "t": "inv", "u": "cinv"}),
)


@dataclass
class CheckResult:
    check: str
    instance: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        text = f"{status} {self.check} {self.instance}"
        return f"{text}  [{self.detail}]" if self.detail else text


def first_failure(results: list[CheckResult]) -> CheckResult | None:
    for r in results:
        if not r.ok:
            return r
    return None


def _target(n: int, k: int):
    """[k]_q! S_q(n,k), the Euler-Mahonian target distribution."""
    return qnum.q_factorial(k) * qnum.q_stirling(n, k)


def _gf_results(check: str, n: int, k: int, labels, polys, target) -> list[CheckResult]:
    """One result per statistic: its enumerated polynomial against ``target``."""
    out = []
    for label, got in zip(labels, polys):
        out.append(
            CheckResult(
                check, f"n={n} k={k} stat={label}", got == target,
                "" if got == target else f"got={got} want={target}",
            )
        )
    return out


# -- recurrence-level identities ------------------------------------------------


def check_zz(n_max: int = 8) -> list[CheckResult]:
    """[k]_q! S_q(n,k) against the q-binomial/q-Eulerian sum, all 1<=k<=n<=n_max."""
    out = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            r = qnum.check_zz_identity(n, k)
            detail = "" if r.ok else f"lhs={r.lhs} rhs={r.rhs}"
            out.append(CheckResult("zz", f"n={n} k={k}", r.ok, detail))
    return out


def check_eulerian_bruteforce(n_max: int = 8) -> list[CheckResult]:
    out = []
    for n in range(1, n_max + 1):
        for k in range(0, n):
            # n_max has passed this check's n bound, or was forced past it
            ok = qnum.q_eulerian(n, k) == qnum.q_eulerian_bruteforce(n, k, n_max)
            out.append(CheckResult("eulerian", f"n={n} k={k}", ok))
    return out


# -- enumeration sweeps ----------------------------------------------------------


def run_audit(n_max: int = 8, equidist_n_max: int = 7) -> dict[str, list[CheckResult]]:
    """One pass over every ordered partition with n <= n_max, accumulating the
    six Euler-Mahonian distributions, the three bMaj distributions, the
    pointwise partition identities, and (for n <= equidist_n_max) the
    coordinate-statistic distributions for the two equidistribution classes.
    Returns each audit check's results under its name.
    """
    report: dict[str, list[CheckResult]] = {
        name: [] for name in ("thm25", "conjecture-bmaj", "equidist", *(c for c, _ in POINTWISE))
    }
    coords = EQUIDIST[0] + EQUIDIST[1]
    gfs = SIX_STATS + BMAJ_STATS
    for n in range(1, n_max + 1):
        counts, first_bad = _audit_level(n, gfs + (coords if n <= equidist_n_max else ()))
        for k in sorted(counts):
            target = _target(n, k)
            ck = counts[k]
            polys = [q_poly_from_exponent_counts(c) for c in ck[:len(gfs)]]
            report["thm25"] += _gf_results("thm25", n, k, SIX_STATS, polys, target)
            report["conjecture-bmaj"] += _gf_results(
                "conjecture-bmaj", n, k, BMAJ_STATS, polys[len(SIX_STATS):], target)
            if n <= equidist_n_max:
                dist = dict(zip(coords, ck[len(gfs):]))
                for cls in EQUIDIST:
                    ok = all(dist[nm] == dist[cls[0]] for nm in cls[1:])
                    report["equidist"].append(
                        CheckResult("equidist", f"n={n} k={k} class={{{','.join(cls)}}}", ok)
                    )
        for check, _ in POINTWISE:
            bad = first_bad.get(check)
            report[check].append(
                CheckResult(
                    check, f"n={n} all partitions", bad is None,
                    "" if bad is None else f"fails at {format_partition(bad)}",
                )
            )
    return report


def _audit_level(n: int, exprs: tuple[str, ...]
                 ) -> tuple[dict[int, list[dict[int, int]]], dict[str, Blocks]]:
    """For each 1 <= k <= n, the count of every value of each of ``exprs``
    over OP_n^k, and the first partition of OP_n at which each pointwise
    check of POINTWISE fails.  Every k of level n is counted in one walk of
    level n-1 (``level_counts``), each expression in a dict of its own and
    the lhs - rhs differences of all the pairs jointly; only when some
    difference is nonzero is OP_n walked again, partition by partition,
    through the same value steps, for the failures."""
    pairs = tuple(pair for _, check_pairs in POINTWISE for pair in check_pairs)
    groups = tuple((e,) for e in exprs) + (pairs,)
    counts: dict[int, list[dict[int, int]]] = {}
    fails = False
    for k, (*counts[k], differences) in level_counts(n, groups).items():
        fails = fails or differences.keys() != {(0,) * len(pairs)}
    first_bad: dict[str, Blocks] = {}
    if fails:
        for blocks, d in sweep_all(n, pairs):
            # each check's pairs in its own span of the differences
            start = 0
            for check, check_pairs in POINTWISE:
                stop = start + len(check_pairs)
                if check not in first_bad and any(d[start:stop]):
                    first_bad[check] = blocks
                start = stop
    return counts, first_bad


def check_sect23(n_max: int = 8) -> list[CheckResult]:
    """On inversion-free partitions: sum q^mak = sum q^lmak
    = sum q^(lsb + C(k,2)) = S_q(n,k)."""
    weights = [{"q": expr} for expr in SECT23.values()]
    out = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            polys = enumerated_gf(n, k, *weights, inv_free=True)
            out += _gf_results("sect23", n, k, SECT23, polys, qnum.q_stirling(n, k))
    return out


# -- bijection -------------------------------------------------------------------

#: Each step's rank in STEP_ORDER: ``enumerate_paths`` yields its paths in
#: increasing order of their steps ranked so.
_STEP_RANK = {kind: rank for rank, kind in enumerate(STEP_ORDER)}

#: The coordinate rows that the step predictions are compared with.
_BIJ_ROWS = operator.itemgetter("los", "ros", "lcs", "rcs", "lsb", "rsb")


def check_bijection(n_max: int = 7) -> list[CheckResult]:
    """The bijection psi: OP(n,k) -> Diag(n,k) between ordered partitions and
    path diagrams of length n and depth k, for every n <= n_max.

    The partition side replays psi(psi_inverse(pi)) = pi for every pi, and
    checks pi's form against the path of psi_inverse(pi) and the per-step
    statistic predictions.  The diagram side replays nothing: it counts the
    diagrams of ``enumerate_diagrams(n, k)``, which are distinct because
    each one's key (steps ranked N < E < O < S, xi) is checked to exceed the
    one before it, and compares the count with k! S(n,k).  That proves
    psi_inverse(psi(d)) = d for every diagram d:

    * psi(psi_inverse(pi)) = pi for every pi, so psi_inverse is injective.
    * ``psi`` validates each psi_inverse(pi) as a walk to some (k',0).  The
      walk ends at height 0, so its North and South-East steps pair off, and
      k' = #E + #S = #N + #E, the block count of psi(psi_inverse(pi)) = pi.
      So psi_inverse maps OP(n,k) injectively into Diag(n,k).
    * ``enumerate_diagrams`` takes every allowed step at every vertex and
      every choice within its bound, so it yields all of Diag(n,k).  If it
      yields exactly k! S(n,k) = |OP(n,k)| distinct diagrams, then
      |Diag(n,k)| <= |OP(n,k)|, and the injection psi_inverse is a bijection
      onto Diag(n,k).  psi is then its two-sided inverse.
    """
    out = []
    for n in range(1, n_max + 1):
        bad = None
        for blocks in iter_blocks_all(n):
            pi = OrderedPartition._unchecked(blocks)
            rows = coord_rows(pi)
            d = _diagram_of(pi, rows)
            # psi validates d, which walks its path once; the form comparison
            # and the predictions read the same vertices (n is the size of
            # every partition of the level)
            if psi(d) != pi:
                bad = f"psi(psi_inverse) != id at {pi}"
                break
            if d.vertices != _form(blocks, n):
                bad = f"form/path mismatch at {pi}"
                break
            los, ros, lcs, rcs, lsb, rsb = _BIJ_ROWS(rows)
            # (lcs+rcs, lsb+rsb, los, ros)_i at North/East steps and
            # (lcs+rcs, lsb+rsb, lsb, rsb)_i at the others, as predicted
            want = [
                (lcs[x] + rcs[x], lsb[x] + rsb[x], los[x], ros[x]) if kind in (NORTH, EAST)
                else (lcs[x] + rcs[x], lsb[x] + rsb[x], lsb[x], rsb[x])
                for x, kind in enumerate(d.steps)
            ]
            got = step_predictions(d)
            if got != want:
                x = next((x for x, (g, w) in enumerate(zip(got, want)) if g != w),
                         min(len(got), len(want)))
                bad = f"step prediction fails at {pi}, i={x + 1}"
                break
        out.append(CheckResult("bij", f"n={n} partitions", bad is None, bad or ""))
        bad = None
        for k in range(1, n + 1):
            seen = 0
            last = None
            steps = ranks = None
            for d in enumerate_diagrams(n, k):
                if d.steps is not steps:
                    # the diagrams of one path share its steps
                    steps = d.steps
                    ranks = tuple(map(_STEP_RANK.__getitem__, steps))
                key = (ranks, d.xi)
                if last is not None and key <= last:
                    bad = f"diagram {d} repeats or is out of order"
                    break
                last = key
                seen += 1
            if bad:
                break
            expected = qnum.ordered_partition_count(n, k)
            if seen != expected:
                bad = f"|diagrams(n={n},k={k})| = {seen}, want {expected}"
                break
        out.append(CheckResult("bij", f"n={n} diagrams", bad is None, bad or ""))
    return out


def check_path_counts(n_max: int = 8) -> list[CheckResult]:
    """Sum over paths of the product of per-step choice counts = k! S(n,k)."""
    out = []
    for n in range(1, n_max + 1):
        for k in range(0, n + 1):
            total = 0
            for steps in enumerate_paths(n, k):
                vs = path_vertices(steps)
                w = 1
                for i, kind in enumerate(steps):
                    w *= choice_bound(vs[i], kind)
                total += w
            expected = qnum.ordered_partition_count(n, k)
            out.append(
                CheckResult(
                    "path-counts", f"n={n} k={k}", total == expected,
                    "" if total == expected else f"got={total} want={expected}",
                )
            )
    return out


# -- transfer matrix vs enumeration ----------------------------------------------


def check_transfer_enum(k_max: int = 3, n_max: int = 7) -> list[CheckResult]:
    """a^n coefficient of the seven-variable transfer series, by the
    determinant ratio and by the walk iteration, against the enumerated
    monomial sum, for k <= k_max, n <= n_max.  The detail of a failure names
    each route that disagrees with the enumeration."""
    out = []
    walk = {t: t for t in WALK_EXPONENTS}
    w = xfer.WeightSpec.seven_variable()
    for k in range(0, k_max + 1):
        routes = (
            ("determinant", xfer.q_gf_transfer(k, w, n_max)),
            ("walk", xfer.walk_series(k, w, n_max)),
        )
        for n in range(0, n_max + 1):
            (want,) = enumerated_gf(n, k, walk)
            wrong = [
                f"{route} got={series.coefficient(n)} want={want}"
                for route, series in routes
                if series.coefficient(n) != want
            ]
            out.append(CheckResult("transfer", f"k={k} n={n}", not wrong, "; ".join(wrong)))
    return out


def check_cor39(k_max: int = 3, order: int = 8) -> list[CheckResult]:
    """Transfer series under the two specializations against the closed forms
    f and g."""
    out = []
    for k in range(0, k_max + 1):
        for family, spec in (("f", xfer.WeightSpec.xytu()), ("g", xfer.WeightSpec.ztu())):
            ok = xfer.q_gf_transfer(k, spec, order) == xfer.closed_series(family, k, order)
            out.append(CheckResult("cor39", f"{family} k={k} order={order}", ok))
    return out


def check_thm24(k_max: int = 3, n_max: int = 7) -> list[CheckResult]:
    """The closed forms phi and varphi against the four- and three-variable
    enumeration sums."""
    out = []
    for k in range(0, k_max + 1):
        series = (xfer.closed_series("phi", k, n_max), xfer.closed_series("varphi", k, n_max))
        for n in range(0, n_max + 1):
            wants = enumerated_gf(n, k, *(w for _, w in THM24))
            for (label, _), gf, want in zip(THM24, series, wants):
                got = gf.coefficient(n)
                out.append(
                    CheckResult(
                        "thm24", f"{label} k={k} n={n}", got == want,
                        "" if got == want else f"got={got} want={want}",
                    )
                )
    return out


def check_thm25_series(k_max: int = 3, order: int = 8) -> list[CheckResult]:
    """All six single-variable specializations of phi/varphi against the
    q-Stirling series (the generating-function half of the master check).
    Each specialization is substituted into the closed form's (numerator,
    denominator) pair, which is then expanded."""
    out = []
    q = DEFAULT.var("q")
    one = DEFAULT.one
    qi = q.inverse()
    cases = [
        ("phi(q,1,1,1)", "phi", {"x": q, "y": one, "t": one, "u": one}),
        ("phi(1,q,1,1)", "phi", {"x": one, "y": q, "t": one, "u": one}),
        ("phi(q,1,1/q,q)", "phi", {"x": q, "y": one, "t": qi, "u": q}),
        ("phi(1,q,q,1/q)", "phi", {"x": one, "y": q, "t": q, "u": qi}),
        ("varphi(q,1,1)", "varphi", {"z": q, "t": one, "u": one}),
        ("varphi(q,1/q,q)", "varphi", {"z": q, "t": qi, "u": q}),
    ]
    for k in range(0, k_max + 1):
        target = xfer.q_specialized_series(k, order)
        pairs = {family: xfer.closed_pair(family, k) for family in ("phi", "varphi")}
        for label, family, mapping in cases:
            numer, denom = (p.subs(mapping) for p in pairs[family])
            ok = series_from_rational(numer, denom, order) == target
            out.append(CheckResult("thm25-series", f"k={k} {label}", ok))
    return out


# -- determinant suite -------------------------------------------------------------


def check_det(name: str, n_max: int | None = None) -> list[CheckResult]:
    """The single-determinant identity ``name`` of xfer.DET_IDENTITIES for
    1 <= n <= n_max (None: the identity's own bound)."""
    if n_max is None:
        n_max = xfer.DET_IDENTITIES[name].n_max
    return [CheckResult(name, f"n={n}", xfer.verify_det(name, n)) for n in range(1, n_max + 1)]


def check_main1(n_max: int = 4) -> list[CheckResult]:
    return [
        CheckResult("main1", f"n={n} k=1..{n + 2}", xfer.verify_main1(n))
        for n in range(1, n_max + 1)
    ]


def check_lemma_key(n_max: int = 5) -> list[CheckResult]:
    return [
        CheckResult("key", f"n={n} m={m}", xfer.verify_lemma_key(n, m))
        for n in range(0, n_max + 1)
        for m in range(0, n + 1)
    ]


def check_eigen(n_max: int = 4) -> list[CheckResult]:
    return [
        CheckResult("eigen", f"n={n} m={m} k={k}", xfer.verify_eigen(n, m, k))
        for n in range(2, n_max + 1)
        for m in range(1, n)
        for k in range(1, n - m + 1)
    ]


# -- named dispatch ------------------------------------------------------------------


@dataclass(frozen=True)
class Check:
    """How ``verify`` runs one check.  ``run`` is called with no arguments, or
    with an n bound as the keyword ``n_max``.  ``n_bound`` is the largest
    n_max it runs at without ``--force-large``; None means it takes no n_max.
    ``n_min`` is the smallest n_max at which it checks an instance.  An
    ``audit`` check instead reads its own results, under its name, from the
    run_audit sweep it shares with the other audit checks; ``n_default`` is
    its n bound."""

    run: Callable[..., list[CheckResult]] | None = None
    n_bound: int | None = None
    audit: bool = False
    n_default: int = 8
    n_min: int = 1


#: The n bound of every check that sweeps ordered partitions: run_audit(9, 7)
#: takes 13 s of CPU over the 7 087 261 partitions at n = 9 (2-core Xeon,
#: Python 3.11, one process); sect23, transfer and thm24 take 0.2-0.3 s at
#: n = 9.
SWEEP_BOUND = 9

#: Each check's n bound: the largest n at which it takes under about 4 s,
#: run alone from a fresh process on that machine, or about a minute for the
#: partition sweeps:
#:   zz 0.5-0.8 s at n = 20 and 0.6-0.9 s at 21 (the bound is kept so that
#:   exit codes stay as they were);  path-counts 0.9 s at 11 and 4.2 s at
#:   12;  bij 1.8-2.2 s at 7 and 20-22 s at 8 (3 runs each);
#:   eulerian, its permutations' own bound qnum.EULERIAN_DESK_BOUND (4.5 s
#:   at 9);  main1 0.53-0.55 s and 37 MB at 5 and 6.5-8.2 s and 163 MB
#:   at 6, whose determinants are of P_6-sized blocks of one P_7 (3 runs
#:   each, whole process, peak RSS);  key 3.3 s at 15 and 4.8 s at 16;
#:   eigen 3.0 s at 12 and 5.5 s at 13;  the determinant checks, the n of
#:   xfer.DET_IDENTITIES at which their determinants reach xfer.DET_BOUNDS.
CHECKS = {
    "zz": Check(check_zz, n_bound=20),
    "thm25": Check(audit=True, n_bound=SWEEP_BOUND),
    "thm25-series": Check(check_thm25_series),
    "prop22": Check(audit=True, n_bound=SWEEP_BOUND),
    "lemma310": Check(audit=True, n_bound=SWEEP_BOUND),
    "equidist": Check(audit=True, n_bound=SWEEP_BOUND, n_default=7),
    "sect23": Check(check_sect23, n_bound=SWEEP_BOUND),
    "conjecture-bmaj": Check(audit=True, n_bound=SWEEP_BOUND),
    "restriction-identities": Check(audit=True, n_bound=SWEEP_BOUND),
    "bij": Check(check_bijection, n_bound=8),
    "path-counts": Check(check_path_counts, n_bound=11),
    "transfer": Check(check_transfer_enum, n_bound=SWEEP_BOUND, n_min=0),
    "cor39": Check(check_cor39),
    "thm24": Check(check_thm24, n_bound=SWEEP_BOUND, n_min=0),
    "eulerian": Check(check_eulerian_bruteforce, n_bound=qnum.EULERIAN_DESK_BOUND),
    "main1": Check(check_main1, n_bound=5),
    "key": Check(check_lemma_key, n_bound=15, n_min=0),
    "eigen": Check(check_eigen, n_bound=12, n_min=2),
    **{
        name: Check(functools.partial(check_det, name), n_bound=identity.n_bound)
        for name, identity in xfer.DET_IDENTITIES.items()
    },
}


class Verification:
    """The checks of one ``verify`` call, resolved before any of them runs.

    ``bounds`` lists each name with the n bound it runs at (None: its
    default).  ``["all"]`` names every check and gives n_max only to those
    that take one.  An n_max below a check's ``n_min``, at which it would
    check nothing, is refused before any check runs, and so is one past its
    ``n_bound`` unless ``force_large``.  The audit checks share one
    run_audit sweep, made when the first of them runs and kept only by this
    object.
    """

    def __init__(self, names: list[str], n_max: int | None = None,
                 force_large: bool = False):
        if n_max is not None and n_max < 0:
            raise ValueError(f"--n-max must be nonnegative, got {n_max}")
        every = names == ["all"]
        self.bounds: list[tuple[str, int | None]] = []
        for name in sorted(CHECKS) if every else names:
            check = CHECKS.get(name)
            if check is None:
                raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
            if check.n_bound is None:
                if n_max is not None and not every:
                    raise ValueError(f"check {name!r} does not take --n-max")
                self.bounds.append((name, None))
                continue
            if n_max is not None and n_max < check.n_min:
                raise ValueError(
                    f"check {name!r} checks no instance at n <= {n_max}; "
                    f"--n-max must be at least {check.n_min}"
                )
            if n_max is not None:
                check_desk_bound(f"check {name!r} at n={n_max}", "n", n_max, check.n_bound,
                                 force_large)
            self.bounds.append((name, n_max))
        audit = {
            name: CHECKS[name].n_default if bound is None else bound
            for name, bound in self.bounds if CHECKS[name].audit
        }
        self._sweep = (max(audit.values(), default=0), audit.get("equidist", 0))
        self._report: dict[str, list[CheckResult]] | None = None

    def audit(self) -> dict[str, list[CheckResult]]:
        if self._report is None:
            self._report = run_audit(*self._sweep)
        return self._report


def run_check(name: str, n_max: int | None = None,
              shared: Verification | None = None) -> list[CheckResult]:
    """Run one check at n bound ``n_max`` (None: its default).  An audit check
    reads the sweep of ``shared``, or makes its own."""
    if shared is None:
        shared = Verification([name], n_max)
    check = CHECKS[name]
    if check.audit:
        return shared.audit()[name]
    return check.run() if n_max is None else check.run(n_max=n_max)
