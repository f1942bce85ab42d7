"""q-analogues: recurrences against brute force and printed values."""

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
