"""Laurent-polynomial arithmetic and truncated series."""

import sys
import threading
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opstats.ring import (
    DEFAULT,
    InexactDivision,
    SeriesInA,
    VarRegistry,
    _sum_of_products,
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
    assert dict((p * reg.var("y")).sorted_terms()) == {(1, 1): 1, (0, 1): 1}


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
    assert s3.coeffs[: s2.order + 1] == s2.coeffs
    assert s3 != s2  # strict equality needs equal orders


def test_series_marker_excluded_from_coeffs():
    with pytest.raises(ValueError):
        SeriesInA(REG, [A])


def test_ensure_f():
    reg = VarRegistry(("a",))
    fs = ensure_f(3, reg)
    assert [str(f) for f in fs] == ["1*F1", "1*F2", "1*F3"]
    assert ensure_f(3, reg) == fs  # idempotent


def test_ensure_f_is_thread_safe():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            reg = VarRegistry(("a",))
            start = threading.Barrier(8)
            results, errors = [], []

            def work():
                start.wait(timeout=10)
                try:
                    results.append(ensure_f(6, reg))
                except Exception as exc:  # collected and asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert reg.names == ("a", "F1", "F2", "F3", "F4", "F5", "F6")
            assert len(results) == 8 and all(r == results[0] for r in results)
    finally:
        sys.setswitchinterval(old)


def test_exponent_range():
    assert format_poly(X ** (2 ** 40)) == "1*x^1099511627776"
    assert format_poly(X ** -(2 ** 40) * Y ** 3) == "1*x^-1099511627776*y^3"
    big = X ** (2 ** 61)
    assert dict(big.sorted_terms()) == {(0, 2 ** 61): 1}
    assert big.divexact(X ** (2 ** 61 - 1)) == X
    for overflow in (lambda: big * big, lambda: big ** 2, lambda: X ** (2 ** 62),
                     lambda: X ** -(2 ** 62), lambda: (1 + big.inverse()) ** 2,
                     lambda: REG.poly({(0, 0, 2 ** 62): 1}),
                     lambda: REG.monomial(1, q=-(2 ** 62))):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            overflow()
    # a denominator term past the order is never multiplied out
    s = series_from_rational(ONE, big + A ** 3 * big, 2)
    assert s.coeffs == (big.inverse(), ZERO, ZERO)


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
    rest = sum((A ** n * c for n, c in enumerate(s.coeffs)), ZERO) * denom - numer
    assert all(d > order for d in rest.split_by("a"))


# -- the packed kernel against a tuple-keyed reference ---------------------------


def _ref_trim(e):
    e = list(e)
    while e and e[-1] == 0:
        e.pop()
    return tuple(e)


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = _ref_trim(a + b for a, b in zip_longest(e1, e2, fillvalue=0))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_pow(p, n):
    out = {(): 1}
    for _ in range(n):
        out = _ref_mul(out, p)
    return out


def _ref_subs(p, i, value):
    """Substitute the unit monomial ``value`` for variable ``i``."""
    (ev, cv), = value.items()
    out = {}
    for e, c in p.items():
        d = e[i] if i < len(e) else 0
        rest = _ref_trim(v if j != i else 0 for j, v in enumerate(e))
        shifted = _ref_trim(a + d * b for a, b in zip_longest(rest, ev, fillvalue=0))
        out = _ref_add(out, {shifted: c * cv ** abs(d)})
    return out


def _ref_subs_all(p, values):
    """Substitute the term dict ``values[i]`` for variable i, for each i in
    ``values``; every substituted exponent is nonnegative."""
    out = {}
    for e, c in p.items():
        term = {_ref_trim(v if j not in values else 0 for j, v in enumerate(e)): c}
        for i, value in values.items():
            d = e[i] if i < len(e) else 0
            assert d >= 0
            term = _ref_mul(term, _ref_pow(value, d))
        out = _ref_add(out, term)
    return out


def _ref_str(p, names):
    """The text form: ascending total degree, then the exponent of the
    earliest variable descending."""
    def order(item):
        e = item[0] + (0,) * (len(names) - len(item[0]))
        return (sum(e), tuple(-v for v in e))

    text = ""
    for e, c in sorted(p.items(), key=order):
        body = "".join(f"*{names[i]}" if v == 1 else f"*{names[i]}^{v}"
                       for i, v in enumerate(e) if v)
        text += (" - " if c < 0 else " + ") + f"{abs(c)}{body}"
    if not text:
        return "0"
    return ("-" if text.startswith(" - ") else "") + text[3:]


def _terms(width):
    exponent = st.integers(-3, 3) | st.sampled_from([-(2 ** 40), 2 ** 40])
    vec = st.lists(exponent, min_size=width, max_size=width).map(_ref_trim)
    return st.dictionaries(vec, st.integers(-4, 4).filter(bool), max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_kernel_matches_tuple_reference(data):
    reg = VarRegistry(("x", "y"))
    pt, qt = data.draw(_terms(2)), data.draw(_terms(2))
    p, q = reg.poly(pt), reg.poly(qt)
    reg.add("z")  # the registry grows mid-test
    rt = data.draw(_terms(3))
    r = reg.poly(rt)
    assert reg.poly(pt) == p and hash(reg.poly(pt)) == hash(p)

    def same(poly, ref):
        assert dict(poly.sorted_terms()) == ref
        assert str(poly) == _ref_str(ref, reg.names)

    same(p, pt)
    same(r, rt)
    same(p * q, _ref_mul(pt, qt))
    same(p * r, _ref_mul(pt, rt))
    same(r * p + q, _ref_add(_ref_mul(rt, pt), qt))
    same(r - p, _ref_add(rt, {e: -c for e, c in pt.items()}))
    n = data.draw(st.integers(0, 3))
    same(r ** n, _ref_pow(rt, n))
    unit = {(1, 0, -2): -1}
    same(r.subs({"y": reg.poly(unit)}), _ref_subs(rt, 1, unit))
    for d, bucket in r.split_by("y").items():
        want = {_ref_trim(v if j != 1 else 0 for j, v in enumerate(e)): c
                for e, c in rt.items() if (e[1] if len(e) > 1 else 0) == d}
        same(bucket, want)
    if rt:
        same((p * r).divexact(r), pt)

    # a signed sum of products in one accumulation, and one that cancels
    same(_sum_of_products(reg, iter([(1, p, q), (-1, r, p), (3, q, r), (0, r, r)])),
         _ref_add(_ref_add(_ref_mul(pt, qt), {e: -c for e, c in _ref_mul(rt, pt).items()}),
                  {e: 3 * c for e, c in _ref_mul(qt, rt).items()}))
    same(_sum_of_products(reg, [(2, p, r), (-1, r, p), (-1, p, r * reg.one)]), {})
    same(_sum_of_products(reg, []), {})
    # one product past the exponent range fails the whole sum
    far = reg.poly({(2 ** 61,): 1})
    with pytest.raises(ValueError):
        _sum_of_products(reg, [(1, p, q), (1, far, far)])
    with pytest.raises(ValueError):
        _sum_of_products(reg, [(1, p, VarRegistry(("x",)).one)])

    # substitution of multi-term values, and of values whose terms cancel
    small = data.draw(st.dictionaries(
        st.lists(st.integers(0, 2), min_size=3, max_size=3).map(_ref_trim),
        st.integers(-4, 4).filter(bool), max_size=4))
    s, vx, vy = reg.poly(small), data.draw(_terms(3)), data.draw(_terms(3))
    same(s.subs({"x": reg.poly(vx), "y": reg.poly(vy)}), _ref_subs_all(small, {0: vx, 1: vy}))
    same(s.subs({"z": q}), _ref_subs_all(small, {2: qt}))
    swapped = reg.poly({_ref_trim((e + (0,) * 3)[1::-1] + e[2:]): c for e, c in small.items()})
    same((s - swapped).subs({"x": reg.poly(vx), "y": reg.poly(vx)}), {})

    # the text form once the registry has grown past 16 names
    ensure_f(16, reg)
    ft = data.draw(_terms(len(reg)))
    same(reg.poly(ft), ft)
