"""Ordered-partition model: parsing, enumeration, classes, traces, forms."""

import re

import pytest

from opstats.opart import (
    BoundExceeded,
    OrderedPartition,
    _form,
    classify,
    enumerate_op,
    enumerate_p,
    format_partition,
    inv,
    iter_blocks,
    iter_blocks_all,
    iter_blocks_p,
    iter_text,
    parse,
    perm_of,
    trace,
)
from opstats.qnum import ordered_partition_count, q_eulerian_bruteforce, stirling2
from opstats.stats import composite, distribution
from opstats.xfer import WeightSpec, closed_pair, closed_series, q_gf_transfer, walk_series

EXAMPLE = "6,8/5/1,4,7/3,9/2"


def test_parse_format_roundtrip():
    pi = parse(EXAMPLE)
    assert pi.blocks == ((6, 8), (5,), (1, 4, 7), (3, 9), (2,))
    assert format_partition(pi) == EXAMPLE
    assert parse("1,2").blocks == ((1, 2),)
    assert pi.n == 9 and pi.k == 5


def test_parse_errors():
    with pytest.raises(ValueError, match="two blocks"):
        parse("1/1,2")
    with pytest.raises(ValueError, match="missing"):
        parse("1,3")
    with pytest.raises(ValueError, match="empty"):
        parse("1//2")
    with pytest.raises(ValueError, match="non-positive"):
        parse("0,1")
    with pytest.raises(ValueError, match="bad element"):
        parse("1,x")
    with pytest.raises(ValueError):
        parse("")


def test_enumerate_op_small():
    assert {format_partition(p) for p in enumerate_op(2, 2)} == {"1/2", "2/1"}
    assert sum(1 for _ in enumerate_op(3)) == 13
    assert sum(1 for _ in enumerate_op(4)) == 75
    assert list(enumerate_op(0)) == [OrderedPartition(())]


def test_enumerate_op_counts_match_stirling():
    for n in range(7):
        for k in range(n + 1):
            got = sum(1 for _ in enumerate_op(n, k))
            assert got == ordered_partition_count(n, k)


def test_enumeration_no_duplicates():
    for n in range(7):
        seen = list(iter_blocks_all(n))
        assert len(seen) == len(set(seen)) == ordered_partition_count(n)
        per_k = list(iter_blocks(n, max(n, 1) // 2 + 1)) if n else []
        assert len(per_k) == len(set(per_k))


def test_enumeration_routes_agree():
    # the per-k recursion and the all-k recursion cover the same sets
    for n in range(7):
        by_all = {}
        for blocks in iter_blocks_all(n):
            by_all.setdefault(len(blocks), set()).add(blocks)
        for k in range(n + 1):
            assert set(iter_blocks(n, k)) == by_all.get(k, set())


def test_enumerate_p():
    got = {format_partition(p) for p in enumerate_p(3, 2)}
    assert got == {"1,2/3", "1,3/2", "1/2,3"}
    assert sum(1 for _ in enumerate_p(4, 2)) == 7
    for n in range(1, 7):
        assert list(enumerate_p(n, 1)) == [OrderedPartition((tuple(range(1, n + 1)),))]
        for k in range(n + 1):
            assert sum(1 for _ in enumerate_p(n, k)) == stirling2(n, k)


def test_enumerate_p_is_canonical():
    for n in range(1, 7):
        for k in range(1, n + 1):
            for pi in enumerate_p(n, k):
                assert perm_of(pi) == tuple(range(1, k + 1))
                assert inv(pi) == 0


def test_inv_free_enumeration_keeps_the_order_of_the_full_one():
    # the inversion-free walk yields the partitions of OP_n^k whose block
    # minima increase, in the order the full walk yields them: the order of
    # ``enum --inv-free``
    for n in range(8):
        for k in range(-1, n + 2):
            want = [b for b in iter_blocks(n, k)
                    if all(x[0] < y[0] for x, y in zip(b, b[1:]))]
            assert list(iter_blocks_p(n, k)) == want, (n, k)


def test_iter_text_is_the_formatted_enumeration():
    for n in range(7):
        for k in [None, *range(n + 1)]:
            want = [(format_partition(p), p.k) for p in enumerate_op(n, k)]
            assert [("/".join(t), len(t)) for t in iter_text(n, k)] == want
            if k is not None:
                want = [(format_partition(p), p.k) for p in enumerate_p(n, k)]
                assert [("/".join(t), len(t)) for t in iter_text(n, k, True)] == want


def test_iter_text_checks_on_the_call():
    with pytest.raises(ValueError, match="no ordered partitions"):
        iter_text(3, 4)
    with pytest.raises(ValueError, match="needs k"):
        iter_text(3, None, inv_free=True)
    with pytest.raises(BoundExceeded):
        iter_text(11)
    assert next(iter_text(11, force_large=True)) == ("11", "10", "9", "8", "7", "6", "5",
                                                       "4", "3", "2", "1")


SEVEN, XYTU, ZTU = WeightSpec.seven_variable(), WeightSpec.xytu(), WeightSpec.ztu()

#: Each bounded library call as a function of (value, force_large), with the
#: name its bound goes by, the bound, and whether it is cheap forced past it.
#: The enumerations are lazy, so one element is drawn.
LIBRARY_BOUNDS = {
    "enumerate_op": (lambda v, f: next(iter(enumerate_op(v, force_large=f))), "n", 10, True),
    "enumerate_p": (lambda v, f: next(iter(enumerate_p(v, 1, force_large=f))), "n", 10, True),
    "iter_text": (lambda v, f: next(iter_text(v, force_large=f)), "n", 10, True),
    "distribution": (lambda v, f: distribution(v, 1, "inv", force_large=f), "n", 10, True),
    "q_gf_transfer": (lambda v, f: q_gf_transfer(v, SEVEN, 0, force_large=f), "k", 4, False),
    "q_gf_transfer ztu": (lambda v, f: q_gf_transfer(v, ZTU, 0, force_large=f), "k", 5, False),
    "walk_series Q": (lambda v, f: walk_series(v, SEVEN, 0, force_large=f), "k", 4, True),
    "walk_series Qxy": (lambda v, f: walk_series(v, XYTU, 0, force_large=f), "k", 5, True),
    "closed_pair": (lambda v, f: closed_pair("g", v, force_large=f), "k", 16, True),
    "closed_series": (lambda v, f: closed_series("f", v, 0, force_large=f), "k", 16, True),
    "q_eulerian_bruteforce": (lambda v, f: q_eulerian_bruteforce(v, 1), "n", 9, False),
}
#: The calls whose refusal names something other than --force-large to pass.
LIFTS = {"q_eulerian_bruteforce": "bound=10"}


def test_desk_bound():
    for label, (call, name, bound, forced) in LIBRARY_BOUNDS.items():
        with pytest.raises(BoundExceeded) as exc:
            call(bound + 1, False)
        lift = re.escape(LIFTS.get(label, "--force-large"))
        assert re.fullmatch(rf".*\b{bound + 1}\b.* exceeds its desk bound {name} <= {bound}; "
                            rf"pass {lift}", str(exc.value)), (label, str(exc.value))
        call(bound, False)
        if forced:
            call(bound + 1, True)
        # a negative value is no desk bound, but a plain usage error
        with pytest.raises(ValueError) as exc:
            call(-1, False)
        assert type(exc.value) is ValueError, label
    # forced, the enumerations really reach the forced size
    assert next(iter(enumerate_op(11, force_large=True))).n == 11
    assert next(iter(enumerate_p(11, 1, force_large=True))).n == 11


def test_classify_example():
    pi = parse("3,5/2,4,6/1/7,8")
    t = classify(pi)
    assert t.openers == {2, 3, 7}
    assert t.closers == {5, 6, 8}
    assert t.singletons == {1}
    assert t.transients == {4}


def test_classify_edge_cases():
    t = classify(parse("1/2/3"))
    assert t.singletons == {1, 2, 3}
    assert not (t.openers or t.closers or t.transients)
    t = classify(parse("1,2,3,4"))
    assert t.openers == {1} and t.closers == {4} and t.transients == {2, 3}


def test_trace_and_form_example():
    pi = parse("6/3,5,7/1,4,10/9/2,8")
    assert trace(pi, 6) == (
        ((6,), True),
        ((3, 5), False),
        ((1, 4), False),
        ((2,), False),
    )
    f = _form(pi.blocks, pi.n)
    assert f[0] == (0, 0)
    assert f[6] == (1, 3)
    assert f[10] == (5, 0)
    with pytest.raises(ValueError):
        trace(pi, 11)


def test_form_matches_trace_definition():
    # form counts openers and closers; trace restricts the blocks one by one
    for n in range(7):
        for blocks in iter_blocks_all(n):
            pi = OrderedPartition._unchecked(blocks)
            want = []
            for i in range(n + 1):
                t = trace(pi, i)
                closed = sum(1 for _, done in t if done)
                want.append((closed, len(t) - closed))
            assert _form(pi.blocks, pi.n) == tuple(want), pi


def test_form_follows_class_moves():
    # the four moves: opener (c,o)->(c,o+1), singleton -> (c+1,o),
    # transient -> (c,o), closer -> (c+1,o-1)
    for n in range(1, 8):
        for blocks in iter_blocks_all(n):
            pi = OrderedPartition._unchecked(blocks)
            t = classify(pi)
            f = _form(pi.blocks, pi.n)
            for i in range(1, n + 1):
                c, o = f[i - 1]
                if i in t.openers:
                    expect = (c, o + 1)
                elif i in t.singletons:
                    expect = (c + 1, o)
                elif i in t.transients:
                    expect = (c, o)
                else:
                    expect = (c + 1, o - 1)
                assert f[i] == expect


def test_perm_examples():
    pi = parse(EXAMPLE)
    assert perm_of(pi) == (5, 4, 1, 3, 2)
    assert inv(pi) == 8
    assert composite(pi, "cinv") == 2
    assert perm_of(parse("1,2/3/4,5")) == (1, 2, 3)
    assert inv(parse("1,2/3/4,5")) == 0
    # reversing a canonical 3-block partition maximizes inversions
    assert inv(parse("4,5/3/1,2")) == 3


def test_perm_identity_iff_inv_free():
    for n in range(1, 6):
        canonical = {p.blocks for k in range(n + 1) for p in enumerate_p(n, k)}
        for blocks in iter_blocks_all(n):
            pi = OrderedPartition._unchecked(blocks)
            assert (inv(pi) == 0) == (blocks in canonical)
