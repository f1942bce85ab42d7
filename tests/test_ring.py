"""Laurent-polynomial arithmetic and truncated series."""

import os
import pickle
import random
import subprocess
import sys
import threading
from itertools import zip_longest

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opstats.qnum import q_poly_from_exponent_counts
from opstats.ring import (
    DEFAULT,
    DEFAULT_NAMES,
    InexactDivision,
    SeriesInA,
    _sum_of_products,
    ensure_f,
    format_poly,
    series_from_rational,
)
from opstats.stats import enumerated_gf, value_counts

A, X, Y, Q = (DEFAULT.var(v) for v in ("a", "x", "y", "q"))
ONE, ZERO = DEFAULT.one, DEFAULT.zero


def _grow(count):
    """Register the next ``count`` variables F_i of DEFAULT; their names."""
    first = len(DEFAULT) - len(DEFAULT_NAMES) + 1
    ensure_f(first + count - 1)
    return [f"F{i}" for i in range(first, first + count)]


def test_registry_basics():
    assert DEFAULT.names[:len(DEFAULT_NAMES)] == DEFAULT_NAMES
    assert DEFAULT.index("y") == 2
    assert DEFAULT.ensure("x") == 1
    with pytest.raises(KeyError):
        DEFAULT.index("w")


def test_registry_growth_keeps_old_values_comparable():
    p = X + 1
    fresh, = _grow(1)
    assert p == DEFAULT.var("x") + 1 and hash(p) == hash(DEFAULT.var("x") + 1)
    i = DEFAULT.index(fresh)
    assert dict((p * DEFAULT.var(fresh)).sorted_terms()) == {
        (0,) * i + (1,): 1, (0, 1) + (0,) * (i - 2) + (1,): 1}
    assert str(p * DEFAULT.var(fresh)) == f"1*{fresh} + 1*x*{fresh}"


def test_values_pickle():
    p = X ** -2 * Q + 3 * Y ** (2 ** 40) - 7
    assert pickle.loads(pickle.dumps(p)) == p
    assert str(pickle.loads(pickle.dumps(p))) == str(p)
    s = series_from_rational(ONE, ONE - A * (X + Q), 4)
    assert pickle.loads(pickle.dumps(s)) == s


def test_unregistered_variable_needs_ensure_f():
    # a fresh process has none of the F_i: a pickled F3 + 1 adds there, but
    # its text form asks for ensure_f instead of dropping F3 or overflowing
    code = """
import pickle, sys
from opstats.ring import DEFAULT, ensure_f
p = pickle.loads(sys.stdin.buffer.read())
assert p + 0 == p
try:
    str(p)
except ValueError as e:
    print(e)
ensure_f(3)
print(p)
"""
    f3 = ensure_f(3)[2]
    before = str(X * f3 - 2 * Q)
    _grow(40)
    assert str(X * f3 - 2 * Q) == before  # the text does not follow the registry
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    value = f3 + 1
    assert str(value) == "1 + 1*F3"  # the text this process keeps is not pickled
    done = subprocess.run([sys.executable, "-c", code], input=pickle.dumps(value),
                          capture_output=True, env=env, timeout=60)
    slot = len(DEFAULT_NAMES) + 2
    assert done.returncode == 0, done.stderr
    assert done.stdout.decode().splitlines() == [
        f"variable slot {slot} is not registered in this process; "
        "register the F_i a value uses with ensure_f before reading its terms",
        "1 + 1*F3",
    ]


def test_text_form_is_kept():
    p = X * ensure_f(3)[2] - 2 * Q
    text = str(p)
    assert str(p) is text
    _grow(40)
    assert str(p) == text == str(X * ensure_f(3)[2] - 2 * Q)


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


def test_mul_examples():
    assert X * DEFAULT.monomial(1, x=-1) == ONE
    assert (ONE + Q) * Q == Q + Q ** 2
    assert (ONE + Q) * (2 * Q + Q ** 2) == 2 * Q + 3 * Q ** 2 + Q ** 3


def test_pow_and_inverse():
    assert (X + Y) ** 0 == ONE
    assert X ** -2 == DEFAULT.monomial(1, x=-2)
    assert (-Y).inverse() == DEFAULT.monomial(-1, y=-1)
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
        (2 * X).divexact(DEFAULT.const(3))
    # Laurent shifts are fine
    assert (X + 1).divexact(DEFAULT.monomial(1, x=-1)) == X ** 2 + X


def test_subs():
    p = X ** 2 * Q + 2 * X
    assert p.subs({"x": DEFAULT.one}) == Q + 2
    assert p.subs({"x": Q, "q": DEFAULT.one}) == Q ** 2 + 2 * Q
    # negative exponents need unit-monomial values
    r = X ** -1 * Q
    assert r.subs({"x": Q}) == ONE
    with pytest.raises(InexactDivision):
        r.subs({"x": Q + 1})


def test_canonical_text():
    assert format_poly(2 * Q + 3 * Q ** 2 + Q ** 3) == "2*q + 3*q^2 + 1*q^3"
    assert format_poly(ZERO) == "0"
    assert format_poly(DEFAULT.const(-7)) == "-7"
    assert format_poly(ONE - A) == "1 - 1*a"
    assert format_poly(DEFAULT.monomial(1, x=-1)) == "1*x^-1"
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
        series_from_rational(ONE, DEFAULT.const(2) - A, 2)  # 2 is not a unit
    # a unit monomial constant term is fine
    s = series_from_rational(ONE, X - A, 2)
    assert s.coefficient(0) == DEFAULT.monomial(1, x=-1)


def test_series_arithmetic_truncates_to_smaller():
    s3 = series_from_rational(ONE, ONE - A, 3)
    s2 = series_from_rational(ONE, ONE - A, 2)
    assert s3.coeffs[: s2.order + 1] == s2.coeffs
    assert s3 != s2  # strict equality needs equal orders


def test_series_marker_excluded_from_coeffs():
    with pytest.raises(ValueError):
        SeriesInA([A])
    for marked in (DEFAULT.monomial(1, a=-1), X + DEFAULT.monomial(3, a=-2, y=5)):
        with pytest.raises(ValueError, match="marker"):
            SeriesInA([ONE, marked])
    # the marker next to negative powers of the other slots
    with pytest.raises(ValueError, match="marker"):
        SeriesInA([DEFAULT.monomial(1, x=-1, y=-1, a=-1)])
    assert SeriesInA([DEFAULT.monomial(1, x=-1, y=-1)]).order == 0
    # the check reads the low digit of each key, slot 0, which is a's
    assert DEFAULT.index("a") == 0
    for e in (1, -1, 2, -2, 2 ** 61, -(2 ** 61)):
        for others in ({}, {"x": -1}, {"t7": 2 ** 61}, {"q": -(2 ** 61), "y": 1}):
            with pytest.raises(ValueError, match="^series coefficient contains the marker 'a'$"):
                SeriesInA([ONE, X + DEFAULT.monomial(1, a=e, **others)])
            assert SeriesInA([DEFAULT.monomial(1, **others)]).order == 0


def test_ensure_f():
    fs = ensure_f(3)
    assert [str(f) for f in fs] == ["1*F1", "1*F2", "1*F3"]
    assert ensure_f(3) == fs  # idempotent
    assert DEFAULT.names[len(DEFAULT_NAMES):][:3] == ("F1", "F2", "F3")


def test_ensure_f_is_thread_safe():
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            n = len(DEFAULT) - len(DEFAULT_NAMES) + 6  # six new F_i each round
            start = threading.Barrier(8)
            results, errors = [], []

            def work():
                start.wait(timeout=10)
                try:
                    results.append(ensure_f(n))
                except Exception as exc:  # collected and asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
            assert not any(t.is_alive() for t in threads)
            assert errors == []
            assert DEFAULT.names == DEFAULT_NAMES + tuple(f"F{i}" for i in range(1, n + 1))
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
                     lambda: DEFAULT.poly({(0, 0, 2 ** 62): 1}),
                     lambda: DEFAULT.monomial(1, q=-(2 ** 62))):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            overflow()
    # a denominator term past the order is never multiplied out
    s = series_from_rational(ONE, big + A ** 3 * big, 2)
    assert s.coeffs == (big.inverse(), ZERO, ZERO)


# -- randomized ring properties -------------------------------------------------

exps = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
)
polys = st.dictionaries(exps, st.integers(-5, 5), max_size=4).map(DEFAULT.poly)
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
    m = DEFAULT.poly({e: c})
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


def _ref_order(names):
    """The canonical order of (exponent tuple, coefficient) items: ascending
    total degree, then the exponent of the earliest variable descending."""
    def order(item):
        e = item[0] + (0,) * (len(names) - len(item[0]))
        return (sum(e), tuple(-v for v in e))
    return order


def _ref_str(p, names):
    """The text form, its terms in the canonical order."""
    text = ""
    for e, c in sorted(p.items(), key=_ref_order(names)):
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


def _place(terms, slots):
    """Terms over the variables ``slots`` (exponent j belongs to variable
    slots[j]) as terms over every variable, up to the last of ``slots``."""
    def spread(e):
        full = [0] * (max(slots) + 1)
        for i, v in zip(slots, e):
            full[i] = v
        return _ref_trim(full)
    return {spread(e): c for e, c in terms.items()}


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_packed_kernel_matches_tuple_reference(data):
    # three variables: x, y and an F_i registered between the draws
    ix, iy = DEFAULT.index("x"), DEFAULT.index("y")
    pt, qt = (_place(data.draw(_terms(2)), (ix, iy)) for _ in range(2))
    p, q = DEFAULT.poly(pt), DEFAULT.poly(qt)
    fresh, = _grow(1)  # the registry grows mid-test
    slots = (ix, iy, DEFAULT.index(fresh))
    rt = _place(data.draw(_terms(3)), slots)
    r = DEFAULT.poly(rt)
    assert DEFAULT.poly(pt) == p and hash(DEFAULT.poly(pt)) == hash(p)

    def same(poly, ref):
        assert dict(poly.sorted_terms()) == ref
        assert str(poly) == _ref_str(ref, DEFAULT.names)

    same(p, pt)
    same(r, rt)
    same(p * q, _ref_mul(pt, qt))
    same(p * r, _ref_mul(pt, rt))
    same(r * p + q, _ref_add(_ref_mul(rt, pt), qt))
    same(r - p, _ref_add(rt, {e: -c for e, c in pt.items()}))
    n = data.draw(st.integers(0, 3))
    same(r ** n, _ref_pow(rt, n))
    unit = _place({(1, 0, -2): -1}, slots)
    same(r.subs({"y": DEFAULT.poly(unit)}), _ref_subs(rt, iy, unit))
    for d, bucket in r.split_by("y").items():
        want = {_ref_trim(v if j != iy else 0 for j, v in enumerate(e)): c
                for e, c in rt.items() if (e[iy] if len(e) > iy else 0) == d}
        same(bucket, want)
    if rt:
        same((p * r).divexact(r), pt)

    # a signed sum of products in one accumulation, and one that cancels
    same(_sum_of_products(iter([(1, p, q), (-1, r, p), (3, q, r), (0, r, r)])),
         _ref_add(_ref_add(_ref_mul(pt, qt), {e: -c for e, c in _ref_mul(rt, pt).items()}),
                  {e: 3 * c for e, c in _ref_mul(qt, rt).items()}))
    same(_sum_of_products([(2, p, r), (-1, r, p), (-1, p, r * ONE)]), {})
    same(_sum_of_products([]), {})
    # one product past the exponent range fails the whole sum
    far = X ** (2 ** 61)
    with pytest.raises(ValueError):
        _sum_of_products([(1, p, q), (1, far, far)])

    # substitution of multi-term values, and of values whose terms cancel
    small = data.draw(st.dictionaries(
        st.lists(st.integers(0, 2), min_size=3, max_size=3).map(_ref_trim),
        st.integers(-4, 4).filter(bool), max_size=4))
    vx, vy = (_place(data.draw(_terms(3)), slots) for _ in range(2))
    s = DEFAULT.poly(_place(small, slots))
    same(s.subs({"x": DEFAULT.poly(vx), "y": DEFAULT.poly(vy)}),
         _ref_subs_all(_place(small, slots), {ix: vx, iy: vy}))
    same(s.subs({fresh: q}), _ref_subs_all(_place(small, slots), {slots[2]: qt}))
    swapped = DEFAULT.poly(_place(small, (iy, ix, slots[2])))
    same((s - swapped).subs({"x": DEFAULT.poly(vx), "y": DEFAULT.poly(vx)}), {})

    # the text form of every variable up to F16
    ensure_f(16)
    ft = data.draw(_terms(len(DEFAULT_NAMES) + 16))
    same(DEFAULT.poly(ft), ft)


# -- the text form at scale, and packed construction ------------------------------


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_text_form_at_scale_matches_reference(data):
    # hundreds to thousands of terms over a few slots up to F16, small
    # exponents (so many terms share a total degree) with some at +-2^40,
    # coefficients +-1 or past 2^64
    ensure_f(16)
    width = len(DEFAULT_NAMES) + 16
    slots = sorted(data.draw(st.sets(st.integers(0, width - 1), min_size=5, max_size=7)))
    rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
    size = data.draw(st.integers(300, 2000))
    ref = {}
    while len(ref) < size:
        e = [rng.choice((-(2 ** 40), 2 ** 40)) if rng.random() < 0.02 else rng.randint(-2, 2)
             for _ in slots]
        c = rng.choice((1, -1, 2, -7, 2 ** 64 + 3, -(2 ** 70)))
        ref.update(_place({tuple(e): c}, slots))
    ref.pop((), None)
    ref[()] = -1  # a constant term too
    poly = DEFAULT.poly(ref)
    assert poly.sorted_terms() == sorted(ref.items(), key=_ref_order(DEFAULT.names))
    assert str(poly) == _ref_str(ref, DEFAULT.names)
    assert len({sum(e) for e in ref}) < len(ref) // 4  # many ties of total degree


def test_text_form_of_constants():
    for c in (0, 1, -1, 2 ** 70, -(2 ** 65)):
        p = DEFAULT.const(c)
        assert (str(p), p.sorted_terms()) == (str(c), [((), c)] if c else [])
    assert str(-X) == "-1*x" and str(1 - X) == "1 - 1*x"
    assert (-X).sorted_terms() == [((0, 1), -1)]


# names of up to three variables, and counts over their exponents
_count_names = st.lists(st.sampled_from(DEFAULT_NAMES), min_size=1, max_size=3, unique=True)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_packed_construction_matches_tuple_form(data):
    names = data.draw(_count_names)
    exponent = st.integers(-9, 9) | st.sampled_from([-(2 ** 61), 2 ** 61])
    value = exponent if len(names) == 1 else st.tuples(*[exponent] * len(names))
    counts = data.draw(st.dictionaries(value, st.integers(-3, 50), max_size=30))

    def tuple_form(names, counts):
        index = [DEFAULT.index(name) for name in names]
        terms = {}
        for v, m in counts.items():
            key = [0] * (max(index) + 1)
            for i, e in zip(index, v if len(index) > 1 else (v,)):
                key[i] = e
            terms[tuple(key)] = m
        return DEFAULT.poly(terms)

    got = DEFAULT.from_counts(names, counts)
    assert got == tuple_form(names, counts) and str(got) == str(tuple_form(names, counts))
    q_counts = data.draw(st.dictionaries(exponent, st.integers(-3, 50), max_size=30))
    assert q_poly_from_exponent_counts(q_counts) == tuple_form(["q"], q_counts)
    # and the polynomials enumerated_gf builds, at kept and swept levels
    n = data.draw(st.integers(0, 7))
    k = data.draw(st.integers(0, n))
    weights = [{"q": "mak-bInv"}, {"x": "inv", "t3": "2*cinv-inv", "y": "bMaj"}]
    inv_free = data.draw(st.booleans())
    want = [tuple_form(list(w), c) for w, c in
            zip(weights, value_counts(n, k, [tuple(w.values()) for w in weights], inv_free))]
    assert enumerated_gf(n, k, *weights, inv_free=inv_free) == want


def test_packed_construction_keeps_the_exponent_range():
    for counts in ({2 ** 62: 1}, {-(2 ** 62): 1}, {3: 1, 2 ** 62: 2}):
        with pytest.raises(ValueError, match="2\\*\\*62"):
            q_poly_from_exponent_counts(counts)
        with pytest.raises(ValueError, match="2\\*\\*62"):
            DEFAULT.from_counts(("x", "t7"), {(1, e): m for e, m in counts.items()})
    assert (q_poly_from_exponent_counts({2 ** 61: 1, -(2 ** 61): 1, 5: 0})
            == Q ** (2 ** 61) + Q ** -(2 ** 61))
    assert DEFAULT.from_counts(("q",), {}) == ZERO
    with pytest.raises(ValueError, match="repeats"):
        DEFAULT.from_counts(("x", "x"), {(1, 2): 1})
