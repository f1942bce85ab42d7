"""Laurent-polynomial arithmetic and truncated series."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opstats.ring import (
    DEFAULT,
    InexactDivision,
    SeriesInA,
    VarRegistry,
    ensure_f,
    format_poly,
    series_from_rational,
)

REG = VarRegistry(("a", "x", "y", "q"))
A, X, Y, Q = (REG.var(v) for v in ("a", "x", "y", "q"))
ONE, ZERO = REG.one, REG.zero


def test_registry_basics():
    reg = VarRegistry(("x", "y"))
    assert reg.names == ("x", "y")
    assert reg.index("y") == 1
    with pytest.raises(ValueError):
        reg.add("x")
    assert reg.ensure("x") == 0
    assert reg.ensure("z") == 2
    with pytest.raises(KeyError):
        reg.index("w")


def test_registry_growth_keeps_old_values_comparable():
    reg = VarRegistry(("x",))
    p = reg.var("x") + 1
    reg.add("y")
    assert p == reg.var("x") + 1
    assert (p * reg.var("y")).terms == {(1, 1): 1, (0, 1): 1}


def test_add_examples():
    assert X + (-X) == ZERO
    assert (ONE + Q) + Q == ONE + 2 * Q
    # [2]_{x,y} + [1]_{x,y} = (x + y) + 1
    assert (X + Y) + ONE == 1 + X + Y


def test_constant_hashes_like_its_integer():
    assert DEFAULT.one == 1 and hash(DEFAULT.one) == hash(1)
    assert hash(DEFAULT.const(3)) == hash(3)
    assert len({DEFAULT.const(3), 3}) == 1
    assert hash(DEFAULT.zero) == hash(0)


def test_registry_mismatch_rejected():
    other = VarRegistry(("x",))
    with pytest.raises(ValueError):
        _ = X + other.var("x")


def test_mul_examples():
    assert X * REG.monomial(1, x=-1) == ONE
    assert (ONE + Q) * Q == Q + Q ** 2
    assert (ONE + Q) * (2 * Q + Q ** 2) == 2 * Q + 3 * Q ** 2 + Q ** 3


def test_pow_and_inverse():
    assert (X + Y) ** 0 == ONE
    assert X ** -2 == REG.monomial(1, x=-2)
    assert (-Y).inverse() == REG.monomial(-1, y=-1)
    with pytest.raises(InexactDivision):
        (X + Y).inverse()
    with pytest.raises(InexactDivision):
        (2 * X).inverse()


def test_divexact_examples():
    assert (Q ** 2 - 1).divexact(Q - 1) == Q + 1
    # (p^3 - q^3)/(p - q) = p^2 + pq + q^2, with x playing p
    assert (X ** 3 - Q ** 3).divexact(X - Q) == X ** 2 + X * Q + Q ** 2


def test_divexact_gaussian_binomial():
    # [4]_q! / ([2]_q! [2]_q!) via brute-force product expansion
    fact = lambda n: _prod(sum(Q ** i for i in range(m)) for m in range(1, n + 1))
    got = fact(4).divexact(fact(2) * fact(2))
    assert got == 1 + Q + 2 * Q ** 2 + Q ** 3 + Q ** 4


def _prod(factors):
    out = ONE
    for f in factors:
        out = out * f
    return out


def test_divexact_failures():
    with pytest.raises(ZeroDivisionError):
        X.divexact(ZERO)
    with pytest.raises(InexactDivision):
        (X + 1).divexact(Y + 1)
    with pytest.raises(InexactDivision):
        (2 * X).divexact(REG.const(3))
    # Laurent shifts are fine
    assert (X + 1).divexact(REG.monomial(1, x=-1)) == X ** 2 + X


def test_subs():
    p = X ** 2 * Q + 2 * X
    assert p.subs({"x": REG.one}) == Q + 2
    assert p.subs({"x": Q, "q": REG.one}) == Q ** 2 + 2 * Q
    # negative exponents need unit-monomial values
    r = X ** -1 * Q
    assert r.subs({"x": Q}) == ONE
    with pytest.raises(InexactDivision):
        r.subs({"x": Q + 1})


def test_canonical_text():
    assert format_poly(2 * Q + 3 * Q ** 2 + Q ** 3) == "2*q + 3*q^2 + 1*q^3"
    assert format_poly(ZERO) == "0"
    assert format_poly(REG.const(-7)) == "-7"
    assert format_poly(ONE - A) == "1 - 1*a"
    assert format_poly(REG.monomial(1, x=-1)) == "1*x^-1"
    assert format_poly(X + Y) == "1*x + 1*y"
    assert format_poly(X * Y - 2 * Q) == "-2*q + 1*x*y"


def test_series_from_rational_geometric():
    s = series_from_rational(ONE, ONE - A, 3)
    assert [format_poly(c) for c in s.coeffs] == ["1", "1", "1", "1"]


def test_series_from_rational_q_examples():
    two_q = ONE + Q  # [2]_q
    s = series_from_rational(A, ONE - A * two_q, 3)
    assert s.coefficient(0) == ZERO
    assert s.coefficient(1) == ONE
    assert s.coefficient(2) == two_q
    assert s.coefficient(3) == two_q * two_q

    s = series_from_rational(A ** 2 * Q, (ONE - A) * (ONE - A * two_q), 3)
    assert s.coefficient(2) == Q
    assert s.coefficient(3) == Q * (2 + Q)


def test_series_requires_unit_constant_term():
    with pytest.raises(ValueError):
        series_from_rational(ONE, A - A * A, 2)  # no constant term
    with pytest.raises(ValueError):
        series_from_rational(ONE, REG.const(2) - A, 2)  # 2 is not a unit
    # a unit monomial constant term is fine
    s = series_from_rational(ONE, X - A, 2)
    assert s.coefficient(0) == REG.monomial(1, x=-1)


def test_series_arithmetic_truncates_to_smaller():
    s3 = series_from_rational(ONE, ONE - A, 3)
    s2 = series_from_rational(ONE, ONE - A, 2)
    assert (s3 * s2).order == 2
    assert (s3 + s2).order == 2
    assert s3.agrees_with(s2)
    assert s3 != s2  # strict equality needs equal orders


def test_series_marker_excluded_from_coeffs():
    with pytest.raises(ValueError):
        SeriesInA(REG, [A])


def test_ensure_f():
    reg = VarRegistry(("a",))
    fs = ensure_f(3, reg)
    assert [str(f) for f in fs] == ["1*F1", "1*F2", "1*F3"]
    assert ensure_f(3, reg) == fs  # idempotent


# -- randomized ring properties -------------------------------------------------

exps = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
)
polys = st.dictionaries(exps, st.integers(-5, 5), max_size=4).map(REG.poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert p * ONE == p
    assert p + ZERO == p


@settings(max_examples=60, deadline=None)
@given(polys, nonzero_polys)
def test_divexact_roundtrip(p, q):
    assert (p * q).divexact(q) == p


@settings(max_examples=40, deadline=None)
@given(exps, st.sampled_from([1, -1]))
def test_unit_monomial_inverse(e, c):
    m = REG.poly({e: c})
    assert m * m.inverse() == ONE


@settings(max_examples=40, deadline=None)
@given(polys, polys, st.integers(1, 4))
def test_series_times_denominator(numer_xq, denom_tail, order):
    # force a-free numerator/denominator pieces, unit constant term
    numer = numer_xq.subs({"a": ONE})
    denom = ONE + A * denom_tail.subs({"a": ONE})
    s = series_from_rational(numer, denom, order)
    prod = s * SeriesInA.from_poly(denom, order)
    back = SeriesInA.from_poly(numer, order)
    assert prod.agrees_with(back, order)
