"""Statistics: the worked example table, identities, distributions."""

import collections
import functools
import tracemalloc

import pytest

from opstats import checks, stats
from opstats.opart import (
    OrderedPartition,
    enumerate_op,
    enumerate_p,
    grow,
    inv,
    iter_blocks,
    iter_blocks_all,
    iter_blocks_p,
    parse,
)
from opstats.qnum import q_factorial, q_stirling
from opstats.ring import DEFAULT
from opstats.stats import (
    COORD_NAMES,
    Summary,
    WALK_EXPONENTS,
    block_stats,
    composite,
    coord_rows,
    distribution,
    enumerated_gf,
    evaluator,
    fields,
    level_counts,
    parse_stat_expr,
    q_monomial,
    stat_table,
    summarize,
    sweep_all,
    value_counts,
)

PI = parse("6,8/5/1,4,7/3,9/2")
ORDER = (6, 8, 5, 1, 4, 7, 3, 9, 2)  # elements in block order

# the full coordinate table of the worked example
TABLE = {
    "los": (0, 0, 0, 0, 0, 2, 1, 3, 1),
    "ros": (4, 4, 3, 0, 2, 2, 1, 1, 0),
    "lob": (0, 0, 1, 2, 2, 0, 2, 0, 3),
    "rob": (0, 0, 0, 2, 0, 0, 0, 0, 0),
    "lcs": (0, 0, 0, 0, 0, 1, 0, 3, 0),
    "rcs": (2, 3, 1, 0, 1, 1, 1, 1, 0),
    "lcb": (0, 0, 1, 2, 2, 1, 3, 0, 4),
    "rcb": (2, 1, 2, 2, 1, 1, 0, 0, 0),
    "lsb": (0, 0, 0, 0, 0, 1, 1, 0, 1),
    "rsb": (2, 1, 2, 0, 1, 1, 0, 0, 0),
}


def restricted(rows: dict[str, list[int]], name: str, elements) -> int:
    """stat(A): the sum of a coordinate row over a set A of elements."""
    return sum(rows[name][i - 1] for i in elements)


def per_element_sums_ok(blocks) -> bool:
    """Every element sees k-1 openings and k-1 closings:
    (los+lob+ros+rob)_i = (lcs+lcb+rcs+rcb)_i = k-1 for all i."""
    rows = coord_rows(blocks)
    k1 = len(blocks) - 1
    opens = zip(rows["los"], rows["lob"], rows["ros"], rows["rob"])
    closes = zip(rows["lcs"], rows["lcb"], rows["rcs"], rows["rcb"])
    return all(sum(o) == k1 and sum(c) == k1 for o, c in zip(opens, closes))


def test_worked_example_table():
    rows = coord_rows(PI)
    for name, row in TABLE.items():
        got = tuple(rows[name][e - 1] for e in ORDER)
        assert got == row, name


def test_per_element_sum_identity():
    assert per_element_sums_ok(PI.blocks)
    for blocks in iter_blocks_all(5):
        assert per_element_sums_ok(blocks)


def test_aggregates_and_restrictions():
    rows = coord_rows(PI)
    assert sum(rows["ros"]) == 17
    assert sum(rows["lcs"]) == 4
    assert composite(PI, "mak") == 21
    assert restricted(rows, "rsb", {4, 7, 8, 9}) == 3  # transients and closers
    assert restricted(rows, "ros", ()) == 0


def test_worked_example_summary():
    # every Summary field from the literal table above: each aggregate is its
    # row's sum, each _op field that row's sum at the openers 6, 5, 1, 3, 2
    at = {e: x for x, e in enumerate(ORDER)}
    want = {name: sum(row) for name, row in TABLE.items()}
    for name in ("ros", "rcs", "los", "lcs", "lsb", "rsb"):
        want[name + "_op"] = sum(TABLE[name][at[o]] for o in (6, 5, 1, 3, 2))
    want.update(binv=4, bexc=0, bmaj=5, inv=8, n=9, k=5, nk1=36, k2=10)
    s = summarize(PI)
    assert {f: getattr(s, f) for f in stats.Summary.__slots__} == want


def test_block_stats_example():
    assert block_stats(PI) == (4, 0, 5)  # bInv, bExc, bMaj
    assert block_stats(parse("1,2,3")) == (0, 0, 0)


def test_composites_example():
    assert composite(PI, "makBInv") == 25
    assert composite(PI, "cinvLSB") == 3 + (10 - 4) + 10
    assert composite(PI, "lmakP") == 36 - (13 + 2)
    assert composite(PI, "lmakP") == composite(PI, "mak")
    assert composite(PI, "makP") == composite(PI, "lmak")
    assert composite(PI, "inv") == 8
    assert composite(PI, "cinv") == 2
    assert composite(PI, "cmajLSB") == 3 + (10 - 5) + 10


def test_open_restriction_identities():
    # bInv = rcs(openers), inv = ros(openers), bExc = lcs(openers),
    # cinv = los(openers)
    value = evaluator(("cinv",))
    for blocks in iter_blocks_all(5):
        s = summarize(blocks)
        (s_cinv,) = value(fields(s))
        assert s.binv == s.rcs_op
        assert s.inv == s.ros_op
        assert s.bexc == s.lcs_op
        assert s_cinv == s.los_op


def test_mak_lmak_dualities():
    values = evaluator(("mak", "lmakP", "makP", "lmak"))
    for blocks in iter_blocks_all(5):
        mak, lmakp, makp, lmak = values(fields(summarize(blocks)))
        assert mak == lmakp
        assert makp == lmak


REWRITE_NAMES = ("mak", "lmak", "cinv", "rsb_tc", "lsb_tc", "lcsrcs_tc", "lsbrsb_op")


def assert_rewrites(s, values):
    mak, lmak, cinv_, rsb_tc, lsb_tc, lcsrcs_tc, lsbrsb_op = values(fields(s))
    k2 = s.k * (s.k - 1) // 2
    assert mak + s.binv == (s.lcs + s.rcs) + rsb_tc + s.inv
    assert lmak + s.binv == s.n * (s.k - 1) - lcsrcs_tc - lsb_tc - cinv_
    assert s.lsb + (k2 - s.binv) + k2 == lsbrsb_op + lsb_tc + s.inv + 2 * cinv_


def test_rewrite_identities():
    # the three rewrites used to match the walk weights
    values = evaluator(REWRITE_NAMES)
    for blocks in iter_blocks_all(5):
        assert_rewrites(summarize(blocks), values)


def definition_values(blocks) -> dict[str, int]:
    """inv and every row of the composite table, from the definition routes
    alone: coord sums and restrictions, block_stats and the induced
    permutation."""
    pi = OrderedPartition._unchecked(blocks)
    n, k = pi.n, pi.k
    rows = coord_rows(blocks)
    total = {nm: sum(rows[nm]) for nm in COORD_NAMES}
    openers = {b[0] for b in blocks}
    op = {nm: restricted(rows, nm, openers) for nm in COORD_NAMES}
    tc = {nm: restricted(rows, nm, set(range(1, n + 1)) - openers) for nm in COORD_NAMES}
    binv, bexc, bmaj = block_stats(blocks)
    k2 = k * (k - 1) // 2
    mak = total["ros"] + total["lcs"]
    lmak = n * (k - 1) - total["los"] - total["rcs"]
    return {
        "inv": inv(pi), "cinv": k2 - inv(pi), "bInv": binv, "bExc": bexc, "bMaj": bmaj,
        "mak": mak, "lmak": lmak,
        "makP": total["lob"] + total["rcb"],
        "lmakP": n * (k - 1) - total["lcb"] - total["rob"],
        "cinvLSB": total["lsb"] + (k2 - binv) + k2,
        "cmajLSB": total["lsb"] + (k2 - bmaj) + k2,
        "makBInv": mak + binv, "lmakBInv": lmak + binv,
        "makBMaj": mak + bmaj, "lmakBMaj": lmak + bmaj,
        "lsb_tc": tc["lsb"], "rsb_tc": tc["rsb"],
        "lcsrcs_tc": tc["lcs"] + tc["rcs"], "lsbrsb_op": op["lsb"] + op["rsb"],
        "t1": op["lcs"] + op["rcs"], "t2": tc["lcs"] + tc["rcs"],
        "t3": tc["rsb"], "t4": tc["lsb"], "t5": op["ros"], "t6": op["los"],
        "t7": op["lsb"] + op["rsb"],
    }


def test_table_matches_definition_route():
    names = ("inv", *stats.TABLE)
    values = evaluator(names)
    assert set(definition_values(PI.blocks)) == set(names)
    for n in range(1, 6):
        for blocks in iter_blocks_all(n):
            got = dict(zip(names, values(fields(summarize(blocks)))))
            assert got == definition_values(blocks), blocks


def test_q_monomial_examples():
    reg = DEFAULT
    assert q_monomial(parse("1/2")) == reg.monomial(1, t1=1, t6=1)
    assert q_monomial(parse("2/1")) == reg.monomial(1, t1=1, t5=1)
    assert q_monomial(parse("1")) == reg.one
    assert q_monomial(parse("1,2")) == reg.one
    assert evaluator(WALK_EXPONENTS)(fields(summarize(parse("1/2")))) == (1, 0, 0, 0, 0, 1, 0)


def test_distribution_examples():
    q = DEFAULT.var("q")
    assert distribution(2, 2, "mak+bInv") == q + q ** 2
    assert distribution(3, 2, "mak+bInv") == 2 * q + 3 * q ** 2 + q ** 3
    assert distribution(3, 2, "mak+bInv") == q_factorial(2) * q_stirling(3, 2)
    for n in range(1, 6):
        assert distribution(n, 1, "makBInv") == DEFAULT.one
        assert distribution(n, 1, "cinvLSB") == DEFAULT.one


def test_distribution_allows_negative_exponents():
    # inv - cinv alone goes negative on canonical partitions with k >= 2
    poly = distribution(3, 2, "inv-cinv")
    assert any(v < 0 for e, _ in poly.sorted_terms() for v in e)


def test_enumerated_gf_matches_definition_route():
    reg = DEFAULT
    exprs = ("mak+bInv", "2*inv-cinv", "lsb+rsb")  # the second goes negative
    assert evaluator([])(fields(summarize(PI))) == ()
    for n in range(6):
        for k in range(n + 1):
            for inv_free, enum in ((False, enumerate_op), (True, enumerate_p)):
                parts = list(enum(n, k))
                singles = [enumerated_gf(n, k, {"q": e}, inv_free=inv_free)[0] for e in exprs]
                for e, got in zip(exprs, singles):
                    want = sum((reg.monomial(1, q=composite(pi, e)) for pi in parts), reg.zero)
                    assert got == want, (n, k, inv_free, e)
                assert enumerated_gf(n, k, *({"q": e} for e in exprs), inv_free=inv_free) == singles
                assert enumerated_gf(n, k, inv_free=inv_free) == []
                (joint,) = enumerated_gf(n, k, {"x": "mak", "y": "bInv"}, inv_free=inv_free)
                assert joint == sum(
                    (reg.monomial(1, x=composite(pi, "mak"), y=composite(pi, "bInv")) for pi in parts),
                    reg.zero,
                )


def test_parse_stat_expr():
    assert parse_stat_expr("mak+bInv") == ((1, "mak"), (1, "bInv"))
    assert parse_stat_expr("mak+bInv-inv+2*cinv") == (
        (1, "mak"), (1, "bInv"), (-1, "inv"), (2, "cinv"),
    )
    assert parse_stat_expr("lmak'") == ((1, "lmakP"),)
    with pytest.raises(ValueError):
        parse_stat_expr("mak+")
    with pytest.raises(ValueError):
        parse_stat_expr("nosuch")
    with pytest.raises(ValueError):
        parse_stat_expr("mak bInv")
    assert composite(parse("2/1"), "inv-cinv") == 1


def test_stat_table_contains_paper_rows():
    text = stat_table(PI)
    assert "ros_i:  4 4 | 3 | 0 2 2 | 1 1 | 0" in text
    assert "lsb_i:  0 0 | 0 | 0 0 1 | 1 0 | 1" in text
    assert "perm=54132" in text
    assert "bInv=4" in text and "bMaj=5" in text and "bExc=0" in text
    assert "inv=8" in text and "cinv=2" in text
    assert "mak=21" in text


def test_equidistribution_small():
    from collections import Counter

    for n in range(1, 6):
        for k in range(1, n + 1):
            dists = {nm: Counter() for nm in COORD_NAMES}
            for blocks in iter_blocks(n, k):
                s = summarize(blocks)
                for nm in COORD_NAMES:
                    dists[nm][getattr(s, nm)] += 1
            assert dists["rob"] == dists["lob"] == dists["rcs"] == dists["lcs"]
            assert dists["ros"] == dists["los"] == dists["rcb"] == dists["lcb"]


# -- randomized larger partitions ------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


def insert(blocks, pos):
    """The insertion move ``pos`` of the enumeration on a partition of [m-1]
    with k blocks: m as a new singleton in gap ``pos`` if pos <= k, else
    appended to block pos-k-1."""
    m = sum(map(len, blocks)) + 1
    k = len(blocks)
    if pos <= k:
        return blocks[:pos] + ((m,),) + blocks[pos:]
    i = pos - k - 1
    return blocks[:i] + (blocks[i] + (m,),) + blocks[i + 1:]


@st.composite
def random_moves(draw, max_n=8):
    """The insertion moves of a random ordered partition of [n], n <= max_n:
    one ``insert`` position for each of 1..n."""
    n = draw(st.integers(1, max_n))
    moves = [0]
    k = 1
    for _ in range(2, n + 1):
        pos = draw(st.integers(0, 2 * k))
        moves.append(pos)
        k += pos <= k
    return moves


def replay(moves):
    blocks = ()
    for pos in moves:
        blocks = insert(blocks, pos)
    return blocks


def random_blocks(max_n=8):
    """A random ordered partition, built by the same insertion moves the
    enumeration uses: element m goes into a gap as a singleton or onto an
    existing block."""
    return random_moves(max_n).map(replay)


@settings(max_examples=60, deadline=None)
@given(random_blocks())
def test_random_partition_invariants(blocks):
    s = summarize(blocks)
    assert per_element_sums_ok(blocks)
    # dualities and rewrites
    mak, lmakp, makp, lmak = evaluator(("mak", "lmakP", "makP", "lmak"))(fields(s))
    assert mak == lmakp and makp == lmak
    assert_rewrites(s, evaluator(REWRITE_NAMES))


@settings(max_examples=60, deadline=None)
@given(random_blocks(max_n=7))
def test_random_partition_round_trip(blocks):
    from opstats.walks import psi, psi_inverse

    pi = OrderedPartition._unchecked(blocks)
    assert psi(psi_inverse(pi)) == pi


# -- the insertion-tree sweeps ---------------------------------------------------

FIELDS = stats.Summary.__slots__


@functools.cache
def summary_fields(n: int, k: int) -> dict[tuple, tuple[int, ...]]:
    """fields(Summary(blocks)) for each blocks of OP_n^k, in enumeration
    order, built once per test session."""
    return {blocks: fields(Summary(blocks)) for blocks in iter_blocks(n, k)}


def field_steps():
    """The value steps whose values are every Summary field, in FIELDS
    order, and their root, the fields of the empty partition."""
    steps = stats._value_steps((FIELDS,), tuple(stats.TABLE.items()))
    return steps, ((), fields(summarize(())))


def test_sweeps_follow_the_enumeration_and_match_summary():
    # the value steps over every field, at every k, against
    # fields(Summary(blocks)), which reads the definitions, and the values of
    # sweep_all(n, exprs) against evaluator over those fields
    exprs = ("mak+bInv", ("bInv", "rcs_op"), "inv-cinv")
    values = evaluator(exprs)
    steps, root = field_steps()
    for n in range(8):
        swept = list(sweep_all(n, exprs))
        assert [blocks for blocks, _ in swept] == list(iter_blocks_all(n)), n
        want = {b: f for k in range(n + 1) for b, f in summary_fields(n, k).items()}
        for blocks, v in swept:
            assert v == values(want[blocks]), blocks
        for k in range(-1, n + 2):
            grown = list(grow(n, k, root, steps["singleton"], steps["append"]))
            assert [blocks for blocks, _ in grown] == list(iter_blocks(n, k)), (n, k)
            for blocks, f in grown:
                assert f == want[blocks], blocks


def test_kept_levels_match_summary():
    for n in range(stats.KEEP_N + 1):
        for k in range(n + 1):
            kept = stats._kept_level(n, k)
            assert stats._kept_level(n, k) is kept, (n, k)
            want = collections.Counter(fields(summarize(b)) for b in iter_blocks(n, k))
            assert kept == want, (n, k)


def test_large_levels_are_not_kept():
    stats._kept_level.cache_clear()
    for k in range(8):
        distribution(7, k, "mak+bInv")
    # nor are the inversion-free levels and the empty ones
    assert enumerated_gf(6, 3, {"q": "mak"}, inv_free=True) == [q_stirling(6, 3)]
    assert enumerated_gf(2, 3, {"q": "mak"}) == enumerated_gf(3, -1, {"q": "mak"}) == [DEFAULT.zero]
    assert stats._kept_level.cache_info().currsize == 0
    distribution(6, 3, "mak+bInv")
    assert stats._kept_level.cache_info().currsize == 1


def test_value_steps_match_summary_fields():
    # every field and every row, a zero form, one that goes negative and an
    # (lhs, rhs) pair: the value steps node by node, and the last-level
    # counts of them all as one group, against evaluator over
    # fields(Summary(blocks))
    exprs = FIELDS + tuple(stats.TABLE) + ("0*mak", "inv-cinv", ("mak", "lmak"))
    values = evaluator(exprs)
    steps = stats._value_steps((exprs,), tuple(stats.TABLE.items()))
    root = ((), values(fields(summarize(()))))
    for n in range(8):
        for k in range(n + 1):
            want = [(blocks, values(f)) for blocks, f in summary_fields(n, k).items()]
            assert list(grow(n, k, root, steps["singleton"], steps["append"])) == want, (n, k)
            assert value_counts(n, k, [exprs]) == [collections.Counter(v for _, v in want)], (n, k)


def audit_groups(*extra):
    """The groups that the audit counts, as ``checks._audit_level`` forms
    them at an n with the equidist coordinates, and ``extra``."""
    pairs = tuple(pair for _, check_pairs in checks.POINTWISE for pair in check_pairs)
    exprs = checks.SIX_STATS + checks.BMAJ_STATS + checks.EQUIDIST[0] + checks.EQUIDIST[1]
    return tuple((e,) for e in exprs + extra) + (pairs,)


def definition_counts(groups, n, k, inv_free=False):
    """The counts of ``groups`` over OP_n^k (its inversion-free part when
    ``inv_free``) by evaluator over fields(Summary(blocks))."""
    values = evaluator(e for group in groups for e in group)
    want = [collections.Counter() for _ in groups]
    for blocks in (iter_blocks_p if inv_free else iter_blocks)(n, k):
        v = values(summary_fields(n, k)[blocks])
        for c, group in zip(want, groups):
            c[v[0] if len(group) == 1 else v[:len(group)]] += 1
            v = v[len(group):]
    return want


def test_value_counts_match_the_definition_route():
    # a group of one expression (counted by its bare value), a joint group,
    # a group of (lhs, rhs) pairs and the audit's groups with los+rcs, over
    # the full and the inversion-free levels, against evaluator over
    # Summary(blocks), and each full level counted in one walk.  ros and the
    # pointwise pairs are counted once per parent under both steps, los+rcs
    # under the singleton step only, mak+bMaj under neither
    groups = (("mak+bInv",), ("inv-cinv", "lsb+rsb", "k"), (("bInv", "rcs_op"), ("mak", "lmak")),
              *audit_groups("los+rcs"))
    position_only = stats._value_steps(groups, tuple(stats.TABLE.items()))["position_only"]
    for group, both in ((("ros",), (True, True)), (groups[-1], (True, True)),
                        (("los+rcs",), (True, False)), (("mak+bMaj",), (False, False))):
        i = groups.index(group)
        assert (position_only["singleton"][i], position_only["append"][i]) == both, group
    for n in range(8):
        walked = level_counts(n, groups)
        assert sorted(walked) == list(range(1, n + 1)), n
        for k in range(-1, n + 2):
            for inv_free in (False, True):
                want = definition_counts(groups, n, k, inv_free)
                assert value_counts(n, k, groups, inv_free) == want, (n, k, inv_free)
                if 1 <= k <= n and not inv_free:
                    assert walked[k] == want, (n, k)
    assert value_counts(3, 2, []) == []


def test_value_counts_follow_table_changes(monkeypatch):
    # lmakP + bInv = mak fails exactly where bInv > 0: a changed row compiles
    # anew, and an unchanged one is compiled once
    groups = (("mak",), (("mak", "lmakP"), ("bInv", "rcs_op")))
    assert value_counts(4, 2, groups)[1] == {(0, 0): 14}
    with monkeypatch.context() as mp:
        mp.setitem(stats.TABLE, "lmakP", stats.TABLE["lmakP"] + "+bInv")
        want = collections.Counter((-s.binv, 0) for s in map(Summary, iter_blocks(4, 2)))
        assert value_counts(4, 2, groups)[1] == want
    hits = stats._value_steps.cache_info().hits
    assert value_counts(4, 2, [list(group) for group in groups])[1] == {(0, 0): 14}
    assert stats._value_steps.cache_info().hits == hits + 1


def test_one_walk_counts_follow_a_group_off_the_position_only_path(monkeypatch):
    # mak = ros+lcs gains k under every singleton step; with rob added it
    # reads the elements left of the gap and is counted child by child
    groups = (("mak",), ("mak+bInv",), (("mak", "lmakP"),))
    table = tuple(stats.TABLE.items())
    assert stats._value_steps(groups, table)["position_only"]["singleton"] == (True, True, True)
    with monkeypatch.context() as mp:
        mp.setitem(stats.TABLE, "mak", stats.TABLE["mak"] + "+rob")
        steps = stats._value_steps(groups, tuple(stats.TABLE.items()))
        assert steps["position_only"]["singleton"] == (False, False, False)
        for n in range(7):
            walked = level_counts(n, groups)
            for k in range(n + 2):
                for inv_free in (False, True):
                    want = definition_counts(groups, n, k, inv_free)
                    assert value_counts(n, k, groups, inv_free) == want, (n, k, inv_free)
                    if 1 <= k <= n and not inv_free:
                        assert walked[k] == want, (n, k)
        assert value_counts(4, 2, groups)[2] != {0: 14}
    assert value_counts(4, 2, groups)[2] == {0: 14}


def test_the_audit_grows_each_level_below_the_counted_one_once(monkeypatch):
    # each value-step call builds one node; one walk of level n-1 per n
    # builds every partition of [j] for 1 <= j <= n-1 once
    builds = collections.Counter()
    tree = stats._tree

    def counted(kind, step):
        def build(*args):
            builds[kind] += 1
            return step(*args)
        return build

    def counting_tree(groups):
        steps, root = tree(groups)
        return {**steps, **{kind: counted(kind, steps[kind]) for kind in stats.STEPS}}, root

    monkeypatch.setattr(stats, "_tree", counting_tree)
    report = checks.run_audit(7, 7)
    assert all(r.ok for results in report.values() for r in results)
    sizes = [sum(1 for _ in iter_blocks_all(j)) for j in range(7)]
    assert sum(sizes[j] for n in range(1, 8) for j in range(1, n)) == 6063
    assert sum(builds.values()) == 6063


def definition_gfs(field_rows, weights):
    """For each mapping of ``weights``, the sum over ``field_rows``, the
    fields of some Summaries, of prod_v v^(stat_v)."""
    out = []
    for w in weights:
        terms = {}
        for v, c in collections.Counter(map(evaluator(w.values()), field_rows)).items():
            exponents = [0] * len(DEFAULT)
            for name, e in zip(w, v):
                exponents[DEFAULT.index(name)] = e
            terms[tuple(exponents)] = c
        out.append(DEFAULT.poly(terms))
    return out


def test_streamed_levels_give_the_summary_polynomials():
    # one level on each side of KEEP_N: the walk monomials and both THM24
    # maps in one call, against Summary(blocks)
    walk = {t: t for t in WALK_EXPONENTS}
    weights = (walk, *(w for _, w in checks.THM24))
    for n in (stats.KEEP_N, stats.KEEP_N + 1):
        for k in range(n + 1):
            rows = summary_fields(n, k).values()
            assert enumerated_gf(n, k, *weights) == definition_gfs(rows, weights), (n, k)
            assert enumerated_gf(n, k) == []


def test_distribution_past_the_kept_levels_is_the_q_stirling_target():
    # (8, 4) is served by the value steps alone; the target is the
    # independent q-Stirling recurrence
    want = q_factorial(4) * q_stirling(8, 4)
    for expr in checks.SIX_STATS:
        assert distribution(8, 4, expr) == want, expr


def test_step_tables_fail_loudly_on_a_missing_field(monkeypatch):
    # a field with no entry in a step raises rather than counting as 0, on
    # the kept levels too, which read every field
    for kind, field, expr in (("singleton", "lsb", "cinvLSB"), ("append", "k", "k")):
        with monkeypatch.context() as mp:
            mp.delitem(stats.STEPS[kind].deltas, field)
            stats._value_steps.cache_clear()
            stats._kept_level.cache_clear()
            missing = f"the {kind} step has no entry for the Summary field {field!r}"
            with pytest.raises(ValueError, match=missing):
                value_counts(7, 3, [(expr,)])
            for n, e in ((7, expr), (stats.KEEP_N, expr), (stats.KEEP_N, "mak")):
                with pytest.raises(ValueError, match=missing):
                    distribution(n, 3, e)
            assert stats._kept_level.cache_info().currsize == 0
            # past the kept levels, a form that reads only fields with
            # entries still compiles
            rows = summary_fields(7, 3).values()
            assert [distribution(7, 3, "mak")] == definition_gfs(rows, [{"q": "mak"}])
        stats._value_steps.cache_clear()
        stats._kept_level.cache_clear()
    assert distribution(7, 3, "k") == 1806 * DEFAULT.var("q") ** 3
    assert distribution(stats.KEEP_N, 3, "k") == 540 * DEFAULT.var("q") ** 3


def test_kept_levels_stay_small():
    stats._kept_level.cache_clear()
    distribution(1, 1, "mak+bInv")  # compile before measuring
    stats._kept_level.cache_clear()
    tracemalloc.start()
    try:
        for n in range(stats.KEEP_N + 1):
            for k in range(n + 1):
                distribution(n, k, "mak+bInv")
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert stats._kept_level.cache_info().currsize == 28
    assert kept < 1.3e6


def test_evaluator_follows_table_changes(monkeypatch):
    s = summarize(PI)
    original = evaluator(("lmakP",))(fields(s))
    with monkeypatch.context() as mp:
        mp.setitem(stats.TABLE, "lmakP", stats.TABLE["lmakP"] + "+bInv")
        assert evaluator(("lmakP",))(fields(s)) == (original[0] + s.binv,)
    assert evaluator(("lmakP",))(fields(s)) == original


def test_audit_counts_follow_the_definition_route(monkeypatch):
    # every (n, k, statistic) count of run_audit, equidist coordinates
    # included, equals a plain count of the values over Summary(blocks)
    levels = {}
    audit_level = checks._audit_level

    def record(n, exprs):
        levels[n] = exprs, audit_level(n, exprs)
        return levels[n][1]

    monkeypatch.setattr(checks, "_audit_level", record)
    report = checks.run_audit(5, 4)
    assert all(r.ok for name in ("thm25", "conjecture-bmaj", "equidist", "prop22")
               for r in report[name])
    gfs = checks.SIX_STATS + checks.BMAJ_STATS
    coords = checks.EQUIDIST[0] + checks.EQUIDIST[1]
    assert sorted(levels) == [1, 2, 3, 4, 5]
    for n, (exprs, (counts, first_bad)) in levels.items():
        assert exprs == gfs + (coords if n <= 4 else ())
        values = evaluator(exprs)
        want: dict[int, list[collections.Counter]] = {}
        for blocks in iter_blocks_all(n):
            s = Summary(blocks)
            row = want.setdefault(s.k, [collections.Counter() for _ in exprs])
            for c, v in zip(row, values(fields(s))):
                c[v] += 1
        assert counts == {k: [dict(c) for c in row] for k, row in want.items()}, n
        assert first_bad == {}


def test_audit_reports_each_failing_pair_under_its_own_check(monkeypatch):
    # mak = lmak fails first at 2,3/1; put it in place of each pointwise pair
    # in turn: only that pair's check fails
    pointwise = checks.POINTWISE
    for check, pairs in pointwise:
        for j in range(len(pairs)):
            broken = pairs[:j] + (("mak", "lmak"),) + pairs[j + 1:]
            monkeypatch.setattr(checks, "POINTWISE", tuple(
                (c, broken if c == check else p) for c, p in pointwise))
            report = checks.run_audit(3, 0)
            for c, _ in pointwise:
                results = report[c]
                assert [r.ok for r in results] == [True, True, c != check], (check, j, c)
                if c == check:
                    assert results[2].detail == "fails at 2,3/1"


@settings(max_examples=80, deadline=None)
@given(random_moves(max_n=10))
def test_step_functions_replay_random_partitions(moves):
    steps, node = field_steps()
    for m, pos in enumerate(moves, 1):
        k = len(node[0])
        if pos <= k:
            node = steps["singleton"](node, m, pos)
        else:
            node = steps["append"](node, m, pos - k - 1)
        blocks, f = node
        assert blocks == replay(moves[:m])
        assert f == fields(summarize(blocks)), blocks
