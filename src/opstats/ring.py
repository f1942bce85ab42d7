"""Exact sparse multivariate Laurent-polynomial arithmetic.

A polynomial is a mapping from exponent vectors to nonzero arbitrary-precision
integer coefficients.  Exponents may be negative (Laurent), one slot per
variable registered in a :class:`VarRegistry`.

Each exponent vector is stored packed into one integer key,
``sum(e_i << (64 * i))``, with balanced (signed) digits.  The packing is
linear: the key of a product term is the sum of the two keys, the key of an
inverse is the negated key, and the constant term has key 0.  Trailing zero
exponents contribute nothing, so values built before and after the registry
grows compare equal.  The digits decode uniquely while every exponent stays
in the range ``|e| < 2**62``; each polynomial carries an upper bound on its
largest ``|e|`` (max under ``+``, sum under ``*``), and an operation whose
bound would leave the range raises :class:`ValueError` rather than return a
wrong value.  :meth:`LaurentPoly.sorted_terms` is the public way to read the
terms as exponent tuples.  A product ``p * q``, and a sum of products (a
Laplace expansion step, a substitution, a step of series long division),
goes through the one private kernel ``_sum_of_products``, which adds every
product straight into one dict.

On top of the ring sits :class:`SeriesInA`, the truncated coefficients of a
power series in the size marker ``a``, each a Laurent polynomial in the
remaining variables, and
:func:`series_from_rational`, exact expansion of ``numer/denom`` up to a
truncation order.

All values are immutable after construction; every operation is a pure
function, so values may be freely shared between threads.
"""

from __future__ import annotations

import functools
import operator
import struct
import threading
from itertools import chain
from typing import Iterable, Mapping


class InexactDivision(ArithmeticError):
    """Raised when an exact Laurent division has a nonzero remainder."""


_DIGIT = 64  # bits per exponent slot of a packed key
_MASK = (1 << _DIGIT) - 1
_HALF = 1 << (_DIGIT - 1)

#: Every exponent of every polynomial stays strictly below this in absolute
#: value, so that the sum of two exponents still fits one signed digit.
EXPONENT_LIMIT = 1 << 62


def _check_bound(bound: int) -> int:
    if bound >= EXPONENT_LIMIT:
        raise ValueError(f"an exponent could reach {bound}, past the range |e| < 2**62")
    return bound


def _pack(exps: tuple[int, ...]) -> int:
    return sum(e << (_DIGIT * i) for i, e in enumerate(exps))


@functools.cache
def _layout(width: int) -> tuple[int, struct.Struct]:
    # Half a digit in each of ``width`` slots.  Adding it leaves every slot
    # nonnegative, so no borrow crosses a slot; flipping it back leaves each
    # slot holding its exponent in two's complement.
    half = _HALF * (((1 << (_DIGIT * width)) - 1) // _MASK)
    return half, struct.Struct(f"<{width}q")


def _digits(key: int, width: int) -> tuple[int, ...]:
    """The exponents of variables 0..width-1 of a packed key that has no others."""
    half, layout = _layout(width)
    return layout.unpack(((key + half) ^ half).to_bytes(layout.size, "little"))


def _trim(exps: tuple[int, ...]) -> tuple[int, ...]:
    n = len(exps)
    while n and not exps[n - 1]:
        n -= 1
    return exps[:n]


def _unpack(key: int) -> tuple[int, ...]:
    """The exponent vector of a packed key, without trailing zeros."""
    return _trim(_digits(key, key.bit_length() // _DIGIT + 1))


def _digit(key: int, i: int) -> int:
    """Exponent of variable ``i`` in a packed key (which may have others)."""
    half = _layout(i + 1)[0]
    return (((key + half) >> (_DIGIT * i)) & _MASK) - _HALF


class _Fragments(dict):
    """The text of one variable raised to each exponent met so far, as it
    stands in a term of the text form: "" for 0, "*x" for 1, "*x^v" else."""

    __slots__ = ("name",)

    def __init__(self, name: str):
        super().__init__({0: "", 1: f"*{name}"})
        self.name = name

    def __missing__(self, v: int) -> str:
        text = self[v] = f"*{self.name}^{v}"
        return text


class VarRegistry:
    """Ordered set of variable names; the index of a name never changes.
    Registration holds a lock, so threads may grow a shared registry."""

    __slots__ = ("_names", "_index", "_lock", "_fragments")

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        self._fragments: list[_Fragments] = []
        self._lock = threading.Lock()
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        with self._lock:
            if name in self._index:
                raise ValueError(f"variable {name!r} already registered")
            return self._register(name)

    def ensure(self, name: str) -> int:
        """Index of ``name``, registering it first if necessary."""
        index = self._index.get(name)
        if index is not None:
            return index
        with self._lock:
            if name in self._index:
                return self._index[name]
            return self._register(name)

    def _register(self, name: str) -> int:
        # caller holds the lock; the text table and the name go in before
        # the index, so a reader that finds the index also finds both
        if not name or not isinstance(name, str):
            raise ValueError(f"bad variable name {name!r}")
        self._fragments.append(_Fragments(name))
        self._names.append(name)
        self._index[name] = len(self._names) - 1
        return self._index[name]

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown variable {name!r}") from None

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def __len__(self) -> int:
        return len(self._names)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def __repr__(self) -> str:
        return f"VarRegistry({self._names!r})"

    # -- constructors -------------------------------------------------------

    def const(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly._raw(self, {}, 0)
        return LaurentPoly._raw(self, {0: int(c)}, 0)

    @property
    def zero(self) -> "LaurentPoly":
        return LaurentPoly._raw(self, {}, 0)

    @property
    def one(self) -> "LaurentPoly":
        return LaurentPoly._raw(self, {0: 1}, 0)

    def var(self, name: str) -> "LaurentPoly":
        return LaurentPoly._raw(self, {1 << (_DIGIT * self.index(name)): 1}, 1)

    def monomial(self, coeff: int = 1, **exps: int) -> "LaurentPoly":
        """Monomial builder, e.g. ``reg.monomial(2, q=3, x=-1)`` is 2*q^3*x^-1."""
        if coeff == 0:
            return self.zero
        vec = [0] * len(self._names)
        for name, e in exps.items():
            vec[self.index(name)] = int(e)
        return LaurentPoly(self, {tuple(vec): coeff})

    def poly(self, terms: Mapping[tuple[int, ...], int]) -> "LaurentPoly":
        return LaurentPoly(self, terms)


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a fixed registry.

    ``terms`` maps packed exponent keys to coefficients; read it as exponent
    tuples through :meth:`sorted_terms`.
    """

    __slots__ = ("registry", "terms", "_bound", "_hash")

    def __init__(self, registry: VarRegistry, terms: Mapping[tuple[int, ...], int]):
        clean: dict[int, int] = {}
        bound = 0
        width = len(registry)
        for exps, coeff in terms.items():
            c = int(coeff)
            if c == 0:
                continue
            exps = tuple(int(e) for e in exps)
            if any(exps[width:]):
                raise ValueError("exponent vector longer than registry")
            bound = max(bound, max(map(abs, exps), default=0))
            key = _pack(exps)
            v = clean.get(key, 0) + c
            if v:
                clean[key] = v
            else:
                del clean[key]
        self.registry = registry
        self.terms = clean
        self._bound = _check_bound(bound)
        self._hash = None

    @classmethod
    def _raw(cls, registry: VarRegistry, terms: dict[int, int], bound: int) -> "LaurentPoly":
        # internal: terms already canonical (packed keys, no zeros), and no
        # exponent exceeds ``bound`` in absolute value
        self = object.__new__(cls)
        self.registry = registry
        self.terms = terms
        self._bound = bound
        self._hash = None
        return self

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_unit_monomial(self) -> bool:
        """True iff the value is invertible in the Laurent ring: one term, coefficient +-1."""
        if len(self.terms) != 1:
            return False
        return next(iter(self.terms.values())) in (1, -1)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if self.is_constant():
            return self.terms[0]
        raise ValueError("polynomial is not constant")

    def min_exponent(self, name: str) -> int:
        """Smallest exponent of ``name`` over all terms (0 for the zero poly)."""
        i = self.registry.index(name)
        if not self.terms:
            return 0
        return min(_digit(e, i) for e in self.terms)

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.registry is not self.registry:
                raise ValueError("operands belong to different registries")
            return other
        if isinstance(other, int):
            return self.registry.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # copy the larger operand and add the smaller one in
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        out = dict(large)
        get = out.get
        for e, c in small.items():
            out[e] = get(e, 0) + c
        if 0 in out.values():
            out = {e: c for e, c in out.items() if c}
        return LaurentPoly._raw(self.registry, out, max(self._bound, other._bound))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(
            self.registry, {e: -c for e, c in self.terms.items()}, self._bound
        )

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _sum_of_products(self.registry, ((1, self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        _check_bound(self._bound * n)
        result = self.registry.one
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:  # a last square would be unused, and could leave the range
                base = base * base
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit monomial (the only invertible elements here)."""
        if not self.is_unit_monomial():
            raise InexactDivision("only unit monomials are invertible")
        (e, c), = self.terms.items()
        return LaurentPoly._raw(self.registry, {-e: c}, self._bound)

    def __eq__(self, other):
        if isinstance(other, int):
            return self.is_constant() and self.constant_value() == other
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.registry is other.registry and self.terms == other.terms

    def __hash__(self):
        # a constant hashes like the integer it equals
        if self._hash is None:
            self._hash = (
                hash(self.constant_value()) if self.is_constant()
                else hash(frozenset(self.terms.items()))
            )
        return self._hash

    # -- structure -----------------------------------------------------------

    def split_by(self, name: str) -> dict[int, "LaurentPoly"]:
        """Bucket terms by the exponent of ``name``; buckets are free of it."""
        i = self.registry.index(name)
        shift = _DIGIT * i
        buckets: dict[int, dict[int, int]] = {}
        for e, c in self.terms.items():
            d = _digit(e, i)
            buckets.setdefault(d, {})[e - (d << shift)] = c
        return {d: LaurentPoly._raw(self.registry, t, self._bound) for d, t in buckets.items()}

    def subs(self, mapping: Mapping[str, "LaurentPoly | int"]) -> "LaurentPoly":
        """Simultaneous substitution of variables by polynomials.

        A variable occurring with a negative exponent may only be replaced by
        an invertible (unit-monomial) value.
        """
        reg = self.registry
        vals: dict[int, LaurentPoly] = {}
        for name, v in mapping.items():
            vals[reg.index(name)] = reg.const(v) if isinstance(v, int) else self._coerce(v)
        one = reg.one
        pow_cache: dict[tuple[int, int], LaurentPoly] = {}

        def power(i: int, exp: int) -> LaurentPoly:
            p = pow_cache.get((i, exp))
            if p is None:
                base = vals.get(i)
                if base is None:
                    base = LaurentPoly._raw(reg, {1 << (_DIGIT * i): 1}, 1)
                p = base ** exp if exp > 0 else base.inverse() ** (-exp)
                pow_cache[i, exp] = p
            return p

        def products():
            for e, c in self.terms.items():
                *head, last = [power(i, exp) for i, exp in enumerate(_unpack(e)) if exp] or [one]
                yield c, functools.reduce(operator.mul, head) if head else one, last

        return _sum_of_products(reg, products())

    # -- exact division ------------------------------------------------------

    def divexact(self, other: "LaurentPoly | int") -> "LaurentPoly":
        """Exact quotient ``self / other`` in the Laurent ring.

        Raises :class:`InexactDivision` if ``other`` does not divide ``self``;
        a wrong quotient is never returned silently.
        """
        other = self._coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        if self.is_zero():
            return self.registry.zero
        num_e = [_unpack(e) for e in self.terms]
        den_e = [_unpack(e) for e in other.terms]
        width = max(map(len, num_e + den_e))

        def normalize(es: list[tuple[int, ...]], coeffs: Iterable[int]
                      ) -> tuple[dict[tuple[int, ...], int], tuple[int, ...]]:
            padded = [e + (0,) * (width - len(e)) for e in es]
            shift = tuple(min(col) for col in zip(*padded))
            shifted = {tuple(a - b for a, b in zip(e, shift)): c for e, c in zip(padded, coeffs)}
            return shifted, shift

        # Shift both operands to ordinary polynomials (componentwise minimum
        # exponent 0); minimal exponents are additive under multiplication, so
        # divisibility is preserved and the quotient of the shifted parts is an
        # ordinary polynomial.
        num, shift_n = normalize(num_e, self.terms.values())
        den, shift_d = normalize(den_e, other.terms.values())

        def grlex(e: tuple[int, ...]):
            return (sum(e), e)

        lt_d = max(den, key=grlex)
        c_d = den[lt_d]
        quot: dict[tuple[int, ...], int] = {}
        rem = dict(num)
        while rem:
            lt_r = max(rem, key=grlex)
            c_r = rem[lt_r]
            diff = tuple(a - b for a, b in zip(lt_r, lt_d))
            if any(d < 0 for d in diff) or c_r % c_d:
                raise InexactDivision("inexact Laurent-polynomial division")
            c = c_r // c_d
            quot[diff] = quot.get(diff, 0) + c
            for e, v in den.items():
                key = tuple(a + b for a, b in zip(diff, e))
                w = rem.get(key, 0) - c * v
                if w:
                    rem[key] = w
                elif key in rem:
                    del rem[key]
        shift = tuple(a - b for a, b in zip(shift_n, shift_d))
        return LaurentPoly(
            self.registry,
            {tuple(a + b for a, b in zip(e, shift)): c for e, c in quot.items()},
        )

    # -- text form -----------------------------------------------------------

    def _sorted_rows(self) -> list[tuple[tuple[int, ...], int]]:
        # (exponent of every registry variable, coefficient) per term, each
        # key decoded once, in the order of ``sorted_terms``
        half, layout = _layout(len(self.registry))
        size, unpack = layout.size, layout.unpack
        exps = [unpack(((e + half) ^ half).to_bytes(size, "little")) for e in self.terms]
        # two sorts on C-level keys, the second one stable
        order = sorted(range(len(exps)), key=exps.__getitem__, reverse=True)
        order.sort(key=[*map(sum, exps)].__getitem__)
        coeffs = list(self.terms.values())
        return [(exps[i], coeffs[i]) for i in order]

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms as (exponent tuple without trailing zeros, coefficient), in
        canonical order: ascending total degree, then exponent on the earliest
        registry variable descending."""
        return [(_trim(exps), c) for exps, c in self._sorted_rows()]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        frags = self.registry._fragments
        text = "".join([
            f"{' - ' if c < 0 else ' + '}{-c if c < 0 else c}"
            f"{''.join(map(operator.getitem, frags, exps))}"
            for exps, c in self._sorted_rows()
        ])
        return "-" + text[3:] if text[1] == "-" else text[3:]

    def __repr__(self) -> str:
        return f"<LaurentPoly {self}>"


def _sum_of_products(
    registry: VarRegistry, products: Iterable[tuple[int, LaurentPoly, LaurentPoly]]
) -> LaurentPoly:
    """The sum of c * p * q over the (c, p, q) of ``products``, an integer and
    two polynomials of ``registry`` each.

    Every product adds into one dict, so no partial sum is copied or negated;
    zero coefficients are dropped once, at the end.  ``products`` is consumed
    lazily: a generator keeps at most one of its operand pairs alive at a
    time.  Each product's exponent bound is checked before it is formed.
    """
    out: dict[int, int] = {}
    get = out.get
    bound = 0
    for c, p, q in products:
        if p.registry is not registry or q.registry is not registry:
            raise ValueError("operands belong to different registries")
        small, large = p.terms, q.terms
        if len(small) > len(large):
            small, large = large, small
        if not small or not c:
            continue
        b = _check_bound(p._bound + q._bound)
        if b > bound:
            bound = b
        # the smaller operand runs outside; the first row of the first
        # product seeds the sums
        large = large.items()
        rows = iter(small.items())
        if not out:
            e1, c1 = next(rows)
            c1 *= c
            out = {e1 + e2: c1 * c2 for e2, c2 in large}
            get = out.get
        for e1, c1 in rows:
            c1 *= c
            for e2, c2 in large:
                key = e1 + e2
                out[key] = get(key, 0) + c1 * c2
    if 0 in out.values():
        out = {e: c for e, c in out.items() if c}
    return LaurentPoly._raw(registry, out, bound)


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form; the CLI/golden-file contract."""
    return str(p)


class SeriesInA:
    """Power series in the size marker ``a``, truncated at ``order`` inclusive.

    Coefficients are Laurent polynomials free of ``a``.  Equality is strict:
    same order and coefficients.
    """

    __slots__ = ("registry", "coeffs")

    def __init__(self, registry: VarRegistry, coeffs: Iterable[LaurentPoly]):
        coeffs = tuple(coeffs)
        idx = registry.index("a")
        for c in coeffs:
            if c.registry is not registry:
                raise ValueError("coefficient from a different registry")
            if any(_digit(e, idx) for e in c.terms):
                raise ValueError("series coefficient contains the marker 'a'")
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        self.registry = registry
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> LaurentPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient a^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, SeriesInA):
            return NotImplemented
        return self.registry is other.registry and self.coeffs == other.coeffs

    def __str__(self) -> str:
        return "; ".join(f"a^{n}: {c}" for n, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"<SeriesInA order={self.order} {self}>"


def series_from_rational(numer: LaurentPoly, denom: LaurentPoly, order: int) -> SeriesInA:
    """Expand ``numer/denom`` as a series in ``a`` up to ``order``.

    The constant term of ``denom`` in ``a`` must be a unit monomial in the
    remaining variables; the expansion is exact long division, so the
    characteristic identity ``series * denom == numer (mod a^(order+1))``
    holds on the nose.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    reg = numer.registry
    if denom.registry is not reg:
        raise ValueError("operands belong to different registries")
    num = numer.split_by("a")
    den = denom.split_by("a")
    if any(d < 0 for d in num) or any(d < 0 for d in den):
        raise ValueError("negative power of 'a' in a rational series operand")
    d0 = den.get(0)
    if d0 is None or not d0.is_unit_monomial():
        raise ValueError("denominator constant term is not a unit monomial")
    # coeffs[m] = d0^-1 num_m - sum over 1 <= j <= m of (d0^-1 d_j) coeffs[m-j]
    d0_inv = d0.inverse()
    tail = [(j, d0_inv * dj) for j, dj in den.items() if 1 <= j <= order]
    coeffs: list[LaurentPoly] = []
    for m in range(order + 1):
        coeffs.append(_sum_of_products(reg, chain(
            [(1, d0_inv, num.get(m, reg.zero))],
            ((-1, dj, coeffs[m - j]) for j, dj in tail if j <= m),
        )))
    return SeriesInA(reg, coeffs)


# Shared default registry.  The size marker a comes first; x,y and z,t,u,q are
# the specialization variables; p pairs with q for two-parameter analogues;
# t1..t7 are the seven walk-weight markers.  Generic sequence markers F1,F2,...
# are registered on demand via ensure_f().
DEFAULT_NAMES = (
    "a", "x", "y", "t", "u", "z", "q", "p",
    "t1", "t2", "t3", "t4", "t5", "t6", "t7",
)

DEFAULT = VarRegistry(DEFAULT_NAMES)


def ensure_f(n: int, registry: VarRegistry | None = None) -> list[LaurentPoly]:
    """Variables F1..Fn, registering any that are missing; F0 and below is 1."""
    reg = registry if registry is not None else DEFAULT
    out = []
    for i in range(1, n + 1):
        reg.ensure(f"F{i}")
        out.append(reg.var(f"F{i}"))
    return out
