"""Exhaustive verification suites tying the package together.

Every suite returns a list of :class:`CheckResult`, one per checked instance,
so callers (CLI, acceptance tests) can report the first failing case.  The
enumeration side reads every partition's statistics from the insertion-tree
sweeps of ``stats``, which compute each Summary from its parent's; the
targets come from the independent routes (recurrences, closed forms, symbolic
determinants), never from the same sweep.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

from . import qnum, xfer
from .opart import Blocks, OrderedPartition, form, format_partition, iter_blocks_all
from .qnum import q_poly_from_exponent_counts
from .ring import DEFAULT
from .stats import (
    WALK_EXPONENTS,
    coord_rows,
    enumerated_gf,
    evaluator,
    sweep,
    sweep_all,
    sweep_p,
)
from .walks import (
    EAST,
    NORTH,
    _diagram_of,
    choice_bound,
    enumerate_diagrams,
    enumerate_paths,
    path_vertices,
    psi,
    psi_inverse,
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

#: The pointwise identities of the audit sweep, as (check, AuditReport field,
#: (lhs, rhs) pairs): Proposition 2.2's dualities, Lemma 3.10's rewrites that
#: match statistics to walk weights, and the restrictions to open(pi).
POINTWISE = (
    ("prop22", "prop22", (("mak", "lmakP"), ("makP", "lmak"))),
    ("lemma310", "lemma310", (
        ("mak+bInv", "lcs+rcs+rsb_tc+inv"),
        ("lmak+bInv", "nk1-lcsrcs_tc-lsb_tc-cinv"),
        ("cinvLSB", "lsbrsb_op+lsb_tc+inv+2*cinv"),
    )),
    ("restriction-identities", "restrictions", (
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
            ok = qnum.q_eulerian(n, k) == qnum.q_eulerian_bruteforce(n, k)
            out.append(CheckResult("eulerian", f"n={n} k={k}", ok))
    return out


# -- enumeration sweeps ----------------------------------------------------------


@dataclass
class AuditReport:
    """Everything a full sweep over OP_n (n <= n_max) establishes."""

    n_max: int
    equidist_n_max: int
    six: list[CheckResult] = field(default_factory=list)
    bmaj: list[CheckResult] = field(default_factory=list)
    prop22: list[CheckResult] = field(default_factory=list)
    lemma310: list[CheckResult] = field(default_factory=list)
    restrictions: list[CheckResult] = field(default_factory=list)
    equidist: list[CheckResult] = field(default_factory=list)


def run_audit(n_max: int = 8, equidist_n_max: int = 7) -> AuditReport:
    """One pass over every ordered partition with n <= n_max, accumulating the
    six Euler-Mahonian distributions, the three bMaj distributions, the
    pointwise partition identities, and (for n <= equidist_n_max) the
    coordinate-statistic distributions for the two equidistribution classes.
    """
    report = AuditReport(n_max, equidist_n_max)
    coords = EQUIDIST[0] + EQUIDIST[1]
    values = evaluator(SIX_STATS + BMAJ_STATS + coords)
    # the lhs - rhs differences of every pair in one tuple, each check's
    # pairs in its span [start, stop) of it
    differences = evaluator([pair for _, _, pairs in POINTWISE for pair in pairs])
    spans = []
    stop = 0
    for check, _, pairs in POINTWISE:
        spans.append((check, stop, stop + len(pairs)))
        stop += len(pairs)
    for n in range(1, n_max + 1):
        # the coordinate values are counted only when zip reaches them
        width = len(SIX_STATS) + len(BMAJ_STATS) + (len(coords) if n <= equidist_n_max else 0)
        counts: dict[int, list[dict[int, int]]] = {}
        first_bad: dict[str, Blocks] = {}
        for blocks, s in sweep_all(n):
            ck = counts.get(s.k)
            if ck is None:
                ck = counts[s.k] = [{} for _ in range(width)]
            for c, v in zip(ck, values(s)):
                c[v] = c.get(v, 0) + 1
            d = differences(s)
            if any(d):
                for check, start, stop in spans:
                    if check not in first_bad and any(d[start:stop]):
                        first_bad[check] = blocks
        for k in sorted(counts):
            target = _target(n, k)
            ck = counts[k]
            polys = [q_poly_from_exponent_counts(c) for c in ck[:len(SIX_STATS) + len(BMAJ_STATS)]]
            report.six += _gf_results("thm25", n, k, SIX_STATS, polys, target)
            report.bmaj += _gf_results("conjecture-bmaj", n, k, BMAJ_STATS, polys[len(SIX_STATS):], target)
            if n <= equidist_n_max:
                dist = dict(zip(coords, ck[len(SIX_STATS) + len(BMAJ_STATS):]))
                for cls in EQUIDIST:
                    ok = all(dist[nm] == dist[cls[0]] for nm in cls[1:])
                    report.equidist.append(
                        CheckResult("equidist", f"n={n} k={k} class={{{','.join(cls)}}}", ok)
                    )
        for check, field_name, _ in POINTWISE:
            bad = first_bad.get(check)
            getattr(report, field_name).append(
                CheckResult(
                    check, f"n={n} all partitions", bad is None,
                    "" if bad is None else f"fails at {format_partition(bad)}",
                )
            )
    return report


def check_sect23(n_max: int = 8) -> list[CheckResult]:
    """On inversion-free partitions: sum q^mak = sum q^lmak
    = sum q^(lsb + C(k,2)) = S_q(n,k)."""
    weights = [{"q": expr} for expr in SECT23.values()]
    out = []
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            polys = enumerated_gf((s for _, s in sweep_p(n, k)), *weights)
            out += _gf_results("sect23", n, k, SECT23, polys, qnum.q_stirling(n, k))
    return out


# -- bijection -------------------------------------------------------------------


def check_bijection(n_max: int = 7) -> list[CheckResult]:
    """Round trips both ways, form/path agreement, and the per-step statistic
    predictions, for every partition and every diagram with n <= n_max."""
    out = []
    for n in range(1, n_max + 1):
        bad = None
        for blocks in iter_blocks_all(n):
            pi = OrderedPartition._unchecked(blocks)
            rows = coord_rows(pi)
            d = _diagram_of(pi, rows)
            if psi(d) != pi:
                bad = f"psi(psi_inverse) != id at {pi}"
                break
            if tuple(path_vertices(d.steps)) != form(pi):
                bad = f"form/path mismatch at {pi}"
                break
            los, ros, lcs, rcs, lsb, rsb = (
                rows[name] for name in ("los", "ros", "lcs", "rcs", "lsb", "rsb")
            )
            for x, (kind, pred) in enumerate(zip(d.steps, step_predictions(d))):
                if kind in (NORTH, EAST):
                    ok = pred["los"] == los[x] and pred["ros"] == ros[x]
                else:
                    ok = pred["lsb"] == lsb[x] and pred["rsb"] == rsb[x]
                if not (ok and pred["lcs+rcs"] == lcs[x] + rcs[x]
                        and pred["lsb+rsb"] == lsb[x] + rsb[x]):
                    bad = f"step prediction fails at {pi}, i={x + 1}"
                    break
            if bad:
                break
        out.append(CheckResult("bij", f"n={n} partitions", bad is None, bad or ""))
        bad = None
        for k in range(1, n + 1):
            seen = 0
            for d in enumerate_diagrams(n, k):
                if psi_inverse(psi(d)) != d:
                    bad = f"psi_inverse(psi) != id at {d}"
                    break
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
            (want,) = enumerated_gf((s for _, s in sweep(n, k)), walk)
            wrong = [
                f"{route} got={series.coefficient(n)} want={want}"
                for route, series in routes
                if series.coefficient(n) != want
            ]
            out.append(CheckResult("transfer", f"k={k} n={n}", not wrong, "; ".join(wrong)))
    return out


def check_cor39(k_max: int = 3, order: int = 8) -> list[CheckResult]:
    """Transfer series under the two specializations against closed_f/closed_g."""
    out = []
    for k in range(0, k_max + 1):
        got = xfer.q_gf_transfer(k, xfer.WeightSpec.xytu(), order)
        ok = got.agrees_with(xfer.closed_f(k, order), order)
        out.append(CheckResult("cor39", f"f k={k} order={order}", ok))
        got = xfer.q_gf_transfer(k, xfer.WeightSpec.ztu(), order)
        ok = got.agrees_with(xfer.closed_g(k, order), order)
        out.append(CheckResult("cor39", f"g k={k} order={order}", ok))
    return out


def check_thm24(k_max: int = 3, n_max: int = 7) -> list[CheckResult]:
    """closed_phi / closed_varphi against the four- and three-variable
    enumeration sums."""
    out = []
    for k in range(0, k_max + 1):
        series = (xfer.closed_phi(k, n_max), xfer.closed_varphi(k, n_max))
        for n in range(0, n_max + 1):
            wants = enumerated_gf((s for _, s in sweep(n, k)), *(w for _, w in THM24))
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
    q-Stirling series (the generating-function half of the master check)."""
    out = []
    reg = DEFAULT
    q = reg.var("q")
    one = reg.one
    qi = q.inverse()
    for k in range(0, k_max + 1):
        target = xfer.q_specialized_series(k, order)
        phi = xfer.closed_phi(k, order)
        varphi = xfer.closed_varphi(k, order)
        cases = [
            ("phi(q,1,1,1)", phi.subs({"x": q, "y": one, "t": one, "u": one})),
            ("phi(1,q,1,1)", phi.subs({"x": one, "y": q, "t": one, "u": one})),
            ("phi(q,1,1/q,q)", phi.subs({"x": q, "y": one, "t": qi, "u": q})),
            ("phi(1,q,q,1/q)", phi.subs({"x": one, "y": q, "t": q, "u": qi})),
            ("varphi(q,1,1)", varphi.subs({"z": q, "t": one, "u": one})),
            ("varphi(q,1/q,q)", varphi.subs({"z": q, "t": qi, "u": q})),
        ]
        for label, series in cases:
            ok = series.agrees_with(target, order)
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
    """How ``verify`` runs one check.  ``run`` is called with no arguments, or,
    if ``bound``, with its n bound as the keyword ``n_max``.  An audit check
    instead reads the AuditReport field ``audit`` of the sweep it shares with
    the other audit checks; ``n_default`` is its n bound."""

    run: Callable[..., list[CheckResult]] | None = None
    bound: bool = True
    audit: str | None = None
    n_default: int = 8


CHECKS = {
    "zz": Check(check_zz),
    "thm25": Check(audit="six"),
    "thm25-series": Check(check_thm25_series, bound=False),
    "prop22": Check(audit="prop22"),
    "lemma310": Check(audit="lemma310"),
    "equidist": Check(audit="equidist", n_default=7),
    "sect23": Check(check_sect23),
    "conjecture-bmaj": Check(audit="bmaj"),
    "bij": Check(check_bijection),
    "path-counts": Check(check_path_counts),
    "transfer": Check(check_transfer_enum),
    "cor39": Check(check_cor39, bound=False),
    "thm24": Check(check_thm24),
    "eulerian": Check(check_eulerian_bruteforce),
    "main1": Check(check_main1),
    "key": Check(check_lemma_key),
    "eigen": Check(check_eigen),
    **{name: Check(functools.partial(check_det, name)) for name in xfer.DET_IDENTITIES},
}


class Verification:
    """The checks of one ``verify`` call, resolved before any of them runs.

    ``bounds`` lists each name with the n bound it runs at (None: its
    default).  ``["all"]`` names every check and gives n_max only to those
    with an n bound.  The audit checks share one run_audit sweep, made when
    the first of them runs and kept only by this object.
    """

    def __init__(self, names: list[str], n_max: int | None = None):
        if n_max is not None and n_max < 0:
            raise ValueError(f"--n-max must be nonnegative, got {n_max}")
        every = names == ["all"]
        self.bounds: list[tuple[str, int | None]] = []
        for name in sorted(CHECKS) if every else names:
            check = CHECKS.get(name)
            if check is None:
                raise ValueError(f"unknown check {name!r}; known: {', '.join(sorted(CHECKS))}")
            if n_max is not None and not check.bound and not every:
                raise ValueError(f"check {name!r} does not take --n-max")
            self.bounds.append((name, n_max if check.bound else None))
        audit = {
            name: CHECKS[name].n_default if bound is None else bound
            for name, bound in self.bounds if CHECKS[name].audit
        }
        self._sweep = (max(audit.values(), default=0), audit.get("equidist", 0))
        self._report: AuditReport | None = None

    def audit(self) -> AuditReport:
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
        return getattr(shared.audit(), check.audit)
    return check.run() if n_max is None else check.run(n_max=n_max)
