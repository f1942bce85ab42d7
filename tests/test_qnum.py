"""q-analogues: recurrences against brute force and printed values."""

import sys
import threading

import pytest

from opstats import qnum
from opstats.qnum import (
    check_zz_identity,
    ordered_partition_count,
    pq_binomial,
    pq_context,
    pq_factorial,
    pq_int,
    q_binomial,
    q_eulerian,
    q_eulerian_bruteforce,
    q_factorial,
    q_int,
    q_stirling,
    stirling2,
)
from opstats.ring import DEFAULT

Q = DEFAULT.var("q")
ONE = DEFAULT.one


def test_pq_int_examples():
    t, u, x, y = (DEFAULT.var(v) for v in "tuxy")
    assert pq_int(3, pq_context("t", "u")) == t ** 2 + t * u + u ** 2
    assert pq_int(1, pq_context("x", "y")) == ONE
    assert pq_int(2, pq_context("x", "y")) == x + y
    assert pq_int(0, pq_context("x", "y")).is_zero()


def test_one_context_per_argument_pair():
    assert qnum.q_context() is qnum.q_context()
    assert pq_context("t", "u") is pq_context("t", "u")
    assert pq_context(ONE, "z") is pq_context(ONE, "z")
    assert pq_context("t", "u") != pq_context("u", "t")
    assert qnum.q_context() == pq_context(ONE, "q")


def test_pq_factorial_binomial():
    assert q_factorial(2) == 1 + Q
    assert q_binomial(4, 2) == 1 + Q + 2 * Q ** 2 + Q ** 3 + Q ** 4
    ctx = pq_context("p", "q")
    for n in range(6):
        assert pq_binomial(n, 0, ctx) == ONE
        assert pq_binomial(n, n, ctx) == ONE
    with pytest.raises(ValueError):
        pq_binomial(2, 3, ctx)


def test_binomial_symmetry_and_specialization():
    ctx = pq_context("p", "q")
    for n in range(7):
        for k in range(n + 1):
            assert pq_binomial(n, k, ctx) == pq_binomial(n, n - k, ctx)
            assert pq_binomial(n, k, ctx).subs({"p": 1}) == q_binomial(n, k)


def test_q_stirling_printed_values():
    assert q_stirling(1, 1) == ONE
    assert q_stirling(2, 2) == Q
    assert q_stirling(4, 4) == Q ** 6
    assert q_stirling(3, 3) == Q ** 3
    for n in range(1, 7):
        assert q_stirling(n, 1) == ONE
        assert q_stirling(n, n) == Q ** (n * (n - 1) // 2)


def test_q_stirling_recurrence_values_and_erratum():
    # the recurrence values
    assert q_stirling(3, 2) == 2 * Q + Q ** 2
    assert q_stirling(4, 2) == 3 * Q + 3 * Q ** 2 + Q ** 3
    assert q_stirling(4, 3) == 3 * Q ** 3 + 2 * Q ** 4 + Q ** 5
    # and the variant table entries they are sometimes confused with
    assert q_stirling(3, 2) != 1 + Q + Q ** 2
    assert q_stirling(4, 2) != 1 + 3 * Q + 2 * Q ** 2 + Q ** 3
    assert q_stirling(4, 3) != Q ** 2 + 2 * Q ** 3 + 2 * Q ** 4 + Q ** 5


def test_q_stirling_specializes_to_integers():
    for n in range(9):
        for k in range(n + 1):
            assert q_stirling(n, k).subs({"q": 1}) == stirling2(n, k)


def test_fubini_counts():
    assert [ordered_partition_count(n) for n in range(1, 5)] == [1, 3, 13, 75]
    assert ordered_partition_count(4, 2) == 2 * 7


def test_q_eulerian_printed_values():
    assert q_eulerian(3, 1) == 2 * Q + 2 * Q ** 2
    assert q_eulerian(4, 2) == 3 * Q ** 3 + 5 * Q ** 4 + 3 * Q ** 5
    assert q_eulerian(4, 1) == 3 * Q + 5 * Q ** 2 + 3 * Q ** 3
    assert q_eulerian(2, 1) == Q
    for n in range(1, 8):
        assert q_eulerian(n, 0) == ONE


def test_q_eulerian_bruteforce_examples():
    assert q_eulerian_bruteforce(2, 1) == Q
    assert q_eulerian_bruteforce(3, 2) == Q ** 3
    assert q_eulerian_bruteforce(3, 1) == 2 * Q + 2 * Q ** 2


def test_q_eulerian_matches_bruteforce():
    for n in range(1, 7):
        for k in range(n):
            assert q_eulerian(n, k) == q_eulerian_bruteforce(n, k)


def test_q_eulerian_bruteforce_bound():
    with pytest.raises(ValueError):
        q_eulerian_bruteforce(10, 1)
    assert q_eulerian_bruteforce(4, 1, bound=4) == q_eulerian(4, 1)


def test_zz_identity_examples():
    r = check_zz_identity(3, 2)
    assert r.ok
    assert r.lhs == 2 * Q + 3 * Q ** 2 + Q ** 3
    assert r.rhs == r.lhs
    assert check_zz_identity(4, 2).ok
    for n in range(1, 6):
        assert check_zz_identity(n, n).ok


def test_zz_identity_range():
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert check_zz_identity(n, k).ok


def test_stirling_deep_rows():
    # the rows are filled in order, so n is not limited by the recursion depth
    assert q_stirling(1500, 1) == 1
    assert q_eulerian(1200, 0) == 1
    assert stirling2(1500, 1) == 1
    assert stirling2(1500, 1500) == 1
    assert stirling2(1500, 1499) == 1500 * 1499 // 2


#: (family, value function, the (n, k) it is read at up to n) of each held
#: triangle; the binomials in a two-variable context, so both Pascal powers
#: show.
XY = pq_context("x", "y")
TRIANGLES = (
    ("stirling", q_stirling, lambda n: range(n + 1)),
    ("eulerian", q_eulerian, lambda n: range(n)),
    ("binomial", lambda n, k: pq_binomial(n, k, XY), lambda n: range(n + 1)),
    ("factorial", lambda n, k: pq_factorial(n, XY), lambda n: (0,)),
)


def clear_held():
    """Forget the held rows and the values each function memoizes."""
    qnum._HELD.clear()
    for f in (q_stirling, q_eulerian, pq_factorial, pq_binomial):
        f.cache_clear()


def cold(value, n, k):
    """``value(n, k)`` from no held rows."""
    clear_held()
    return value(n, k)


def test_pascal_binomials_are_the_exact_quotients():
    clear_held()
    for ctx in (qnum.q_context(), pq_context("p", "q"), XY, pq_context(ONE, "z")):
        f = [pq_factorial(n, ctx) for n in range(13)]
        for n in range(13):
            for k in range(n + 1):
                assert pq_binomial(n, k, ctx) == f[n].divexact(f[k] * f[n - k]), (ctx, n, k)


@pytest.mark.parametrize("family, value, ks", TRIANGLES, ids=[t[0] for t in TRIANGLES])
def test_values_read_after_a_wider_table_equal_their_cold_values(family, value, ks):
    want = {(n, k): cold(value, n, k) for n in range(1, 11) for k in ks(n)}
    # narrow rows past the table, then widened a few columns at a time, in
    # both directions, so rows are read held, widened and built afresh
    clear_held()
    for n, k in ((12, 1), (7, 3), (10, 3), (5, 5), (11, 6), (9, 8)):
        if k in ks(n):
            value(n, k)
    for n, k in sorted(want, reverse=True):
        assert value(n, k) == want[n, k], (family, n, k)
    for n, k in sorted(want):
        assert value(n, k) == want[n, k], (family, n, k)


def test_deep_rows_stay_two_columns_wide():
    clear_held()
    assert q_stirling(1500, 1) == 1
    assert q_eulerian(1200, 0) == 1
    for family, rows in (("stirling", 1501), ("eulerian", 1201)):
        held = qnum._HELD[family, qnum.q_context()].rows
        assert len(held) == rows and max(map(len, held)) <= 2, family


def test_held_rows_are_filled_safely_by_racing_threads():
    want = [cold(value, n, k) for _, value, ks in TRIANGLES for n in range(1, 13) for k in ks(n)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            clear_held()
            start = threading.Barrier(8)
            results, errors = [], []

            def work(i):
                start.wait(timeout=10)
                try:
                    # each thread asks for the rows in its own order: deep
                    # and narrow first, or the table row by row
                    got = {}
                    for family, value, ks in TRIANGLES:
                        order = [(n, k) for n in range(1, 13) for k in ks(n)]
                        for n, k in (order[::-1] if i % 2 else order):
                            got[family, n, k] = value(n, k)
                    results.append([got[f, n, k] for f, _, ks in TRIANGLES
                                    for n in range(1, 13) for k in ks(n)])
                except Exception as exc:  # collected and asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert len(results) == 8 and all(r == want for r in results)
    finally:
        sys.setswitchinterval(old)
