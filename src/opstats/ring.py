"""Exact sparse multivariate Laurent-polynomial arithmetic.

A polynomial is a mapping from exponent vectors to nonzero arbitrary-precision
integer coefficients.  Exponents may be negative (Laurent), one slot per
variable registered in a :class:`VarRegistry`.  Exponent vectors are stored
trimmed of trailing zeros, so values built before and after the registry grows
compare equal.

On top of the ring sits :class:`SeriesInA`, a truncated power series in a
distinguished size-marker variable (``a`` by default) whose coefficients are
Laurent polynomials in the remaining variables, and
:func:`series_from_rational`, exact expansion of ``numer/denom`` up to a
truncation order.

All values are immutable after construction; every operation is a pure
function, so values may be freely shared between threads.
"""

from __future__ import annotations

from typing import Iterable, Mapping


class InexactDivision(ArithmeticError):
    """Raised when an exact Laurent division has a nonzero remainder."""


def _trim(exps: Iterable[int]) -> tuple[int, ...]:
    out = list(exps)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _exp_add(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
    if len(e1) < len(e2):
        e1, e2 = e2, e1
    out = list(e1)
    for i, v in enumerate(e2):
        out[i] += v
    return _trim(out)


def _exp_sub(e1: tuple[int, ...], e2: tuple[int, ...]) -> tuple[int, ...]:
    out = list(e1) + [0] * (len(e2) - len(e1))
    for i, v in enumerate(e2):
        out[i] -= v
    return _trim(out)


class VarRegistry:
    """Ordered set of variable names; the index of a name never changes."""

    __slots__ = ("_names", "_index")

    def __init__(self, names: Iterable[str] = ()):
        self._names: list[str] = []
        self._index: dict[str, int] = {}
        for name in names:
            self.add(name)

    def add(self, name: str) -> int:
        if name in self._index:
            raise ValueError(f"variable {name!r} already registered")
        if not name or not isinstance(name, str):
            raise ValueError(f"bad variable name {name!r}")
        self._index[name] = len(self._names)
        self._names.append(name)
        return self._index[name]

    def ensure(self, name: str) -> int:
        """Index of ``name``, registering it first if necessary."""
        if name in self._index:
            return self._index[name]
        return self.add(name)

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
            return LaurentPoly._raw(self, {})
        return LaurentPoly._raw(self, {(): int(c)})

    @property
    def zero(self) -> "LaurentPoly":
        return LaurentPoly._raw(self, {})

    @property
    def one(self) -> "LaurentPoly":
        return LaurentPoly._raw(self, {(): 1})

    def var(self, name: str) -> "LaurentPoly":
        i = self.index(name)
        return LaurentPoly._raw(self, {(0,) * i + (1,): 1})

    def monomial(self, coeff: int = 1, **exps: int) -> "LaurentPoly":
        """Monomial builder, e.g. ``reg.monomial(2, q=3, x=-1)`` is 2*q^3*x^-1."""
        if coeff == 0:
            return self.zero
        vec = [0] * len(self._names)
        for name, e in exps.items():
            vec[self.index(name)] = int(e)
        return LaurentPoly._raw(self, {_trim(vec): int(coeff)})

    def poly(self, terms: Mapping[tuple[int, ...], int]) -> "LaurentPoly":
        return LaurentPoly(self, terms)


class LaurentPoly:
    """Immutable sparse Laurent polynomial over a fixed registry."""

    __slots__ = ("registry", "terms", "_hash")

    def __init__(self, registry: VarRegistry, terms: Mapping[tuple[int, ...], int]):
        clean: dict[tuple[int, ...], int] = {}
        for exps, coeff in terms.items():
            c = int(coeff)
            if c == 0:
                continue
            key = _trim(exps)
            if len(key) > len(registry):
                raise ValueError("exponent vector longer than registry")
            clean[key] = clean.get(key, 0) + c
            if clean[key] == 0:
                del clean[key]
        self.registry = registry
        self.terms = clean
        self._hash = None

    @classmethod
    def _raw(cls, registry: VarRegistry, terms: dict[tuple[int, ...], int]) -> "LaurentPoly":
        # internal: terms already canonical (trimmed keys, no zeros)
        self = object.__new__(cls)
        self.registry = registry
        self.terms = terms
        self._hash = None
        return self

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def is_unit_monomial(self) -> bool:
        """True iff the value is invertible in the Laurent ring: one term, coefficient +-1."""
        if len(self.terms) != 1:
            return False
        return next(iter(self.terms.values())) in (1, -1)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant_value(self) -> int:
        if not self.terms:
            return 0
        if self.is_constant():
            return self.terms[()]
        raise ValueError("polynomial is not constant")

    def min_exponent(self, name: str) -> int:
        """Smallest exponent of ``name`` over all terms (0 for the zero poly)."""
        i = self.registry.index(name)
        if not self.terms:
            return 0
        return min(e[i] if i < len(e) else 0 for e in self.terms)

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            elif e in out:
                del out[e]
        return LaurentPoly._raw(self.registry, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._raw(self.registry, {e: -c for e, c in self.terms.items()})

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
        if not self.terms or not other.terms:
            return LaurentPoly._raw(self.registry, {})
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = _exp_add(e1, e2)
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                elif key in out:
                    del out[key]
        return LaurentPoly._raw(self.registry, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = self.registry.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit monomial (the only invertible elements here)."""
        if not self.is_unit_monomial():
            raise InexactDivision("only unit monomials are invertible")
        (e, c), = self.terms.items()
        return LaurentPoly._raw(self.registry, {_trim(-v for v in e): c})

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
        buckets: dict[int, dict[tuple[int, ...], int]] = {}
        for e, c in self.terms.items():
            d = e[i] if i < len(e) else 0
            if d:
                rest = list(e)
                rest[i] = 0
                key = _trim(rest)
            else:
                key = e
            buckets.setdefault(d, {})[key] = c
        return {d: LaurentPoly._raw(self.registry, t) for d, t in buckets.items()}

    def coefficient_of(self, name: str, exponent: int) -> "LaurentPoly":
        return self.split_by(name).get(exponent, self.registry.zero)

    def subs(self, mapping: Mapping[str, "LaurentPoly | int"]) -> "LaurentPoly":
        """Simultaneous substitution of variables by polynomials.

        A variable occurring with a negative exponent may only be replaced by
        an invertible (unit-monomial) value.
        """
        reg = self.registry
        vals: dict[int, LaurentPoly] = {}
        for name, v in mapping.items():
            vals[reg.index(name)] = reg.const(v) if isinstance(v, int) else self._coerce(v)
        out = reg.zero
        pow_cache: dict[tuple[int, int], LaurentPoly] = {}
        for e, c in self.terms.items():
            term = reg.const(c)
            for i, exp in enumerate(e):
                if exp == 0:
                    continue
                key = (i, exp)
                p = pow_cache.get(key)
                if p is None:
                    base = vals.get(i)
                    if base is None:
                        base = LaurentPoly._raw(reg, {(0,) * i + (1,): 1})
                    p = base ** exp if exp > 0 else base.inverse() ** (-exp)
                    pow_cache[key] = p
                term = term * p
            out = out + term
        return out

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
        width = max(max(len(e) for e in self.terms), max(len(e) for e in other.terms))

        def normalize(p: LaurentPoly) -> tuple[dict[tuple[int, ...], int], tuple[int, ...]]:
            shift = [min(e[i] if i < len(e) else 0 for e in p.terms) for i in range(width)]
            shifted = {}
            for e, c in p.terms.items():
                v = tuple((e[i] if i < len(e) else 0) - shift[i] for i in range(width))
                shifted[v] = c
            return shifted, tuple(shift)

        # Shift both operands to ordinary polynomials (componentwise minimum
        # exponent 0); minimal exponents are additive under multiplication, so
        # divisibility is preserved and the quotient of the shifted parts is an
        # ordinary polynomial.
        num, shift_n = normalize(self)
        den, shift_d = normalize(other)

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
        out = {_exp_add(_trim(e), shift): c for e, c in quot.items()}
        return LaurentPoly._raw(self.registry, out)

    # -- text form -----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in canonical order: ascending total degree, then exponent on
        the earliest registry variable descending."""
        width = len(self.registry)

        def key(item):
            e = item[0]
            padded = e + (0,) * (width - len(e))
            return (sum(e), tuple(-v for v in padded))

        return sorted(self.terms.items(), key=key)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        names = self.registry.names
        parts = []
        for e, c in self.sorted_terms():
            body = "".join(
                f"*{names[i]}" if v == 1 else f"*{names[i]}^{v}"
                for i, v in enumerate(e)
                if v
            )
            parts.append((c, f"{abs(c)}{body}"))
        first_c, first_s = parts[0]
        text = ("-" if first_c < 0 else "") + first_s
        for c, s in parts[1:]:
            text += (" - " if c < 0 else " + ") + s
        return text

    def __repr__(self) -> str:
        return f"<LaurentPoly {self}>"


def format_poly(p: LaurentPoly) -> str:
    """Canonical text form; the CLI/golden-file contract."""
    return str(p)


class SeriesInA:
    """Power series in one marker variable, truncated at ``order`` inclusive.

    Coefficients are Laurent polynomials free of the marker variable.
    Arithmetic between series of different orders truncates to the smaller
    order; equality is strict (same order and coefficients), use
    :meth:`agrees_with` to compare up to a common order.
    """

    __slots__ = ("registry", "var", "coeffs")

    def __init__(self, registry: VarRegistry, coeffs: Iterable[LaurentPoly], var: str = "a"):
        coeffs = tuple(coeffs)
        idx = registry.index(var)
        for c in coeffs:
            if c.registry is not registry:
                raise ValueError("coefficient from a different registry")
            if any(idx < len(e) and e[idx] for e in c.terms):
                raise ValueError(f"series coefficient contains the marker {var!r}")
        if not coeffs:
            raise ValueError("a series needs at least the order-0 coefficient")
        self.registry = registry
        self.var = var
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, n: int) -> LaurentPoly:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient a^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    @classmethod
    def from_poly(cls, poly: LaurentPoly, order: int, var: str = "a") -> "SeriesInA":
        buckets = poly.split_by(var)
        if any(d < 0 for d in buckets):
            raise ValueError(f"negative power of {var!r} in a series")
        reg = poly.registry
        return cls(reg, [buckets.get(d, reg.zero) for d in range(order + 1)], var)

    def truncate(self, order: int) -> "SeriesInA":
        if order > self.order:
            raise ValueError("cannot extend a truncated series")
        return SeriesInA(self.registry, self.coeffs[: order + 1], self.var)

    def map_coeffs(self, fn) -> "SeriesInA":
        return SeriesInA(self.registry, [fn(n, c) for n, c in enumerate(self.coeffs)], self.var)

    def subs(self, mapping: Mapping[str, LaurentPoly | int]) -> "SeriesInA":
        return self.map_coeffs(lambda _n, c: c.subs(mapping))

    def __add__(self, other: "SeriesInA") -> "SeriesInA":
        self._check(other)
        order = min(self.order, other.order)
        return SeriesInA(
            self.registry,
            [self.coeffs[n] + other.coeffs[n] for n in range(order + 1)],
            self.var,
        )

    def __sub__(self, other: "SeriesInA") -> "SeriesInA":
        self._check(other)
        order = min(self.order, other.order)
        return SeriesInA(
            self.registry,
            [self.coeffs[n] - other.coeffs[n] for n in range(order + 1)],
            self.var,
        )

    def __mul__(self, other: "SeriesInA") -> "SeriesInA":
        self._check(other)
        order = min(self.order, other.order)
        zero = self.registry.zero
        out = [zero] * (order + 1)
        for i, ci in enumerate(self.coeffs[: order + 1]):
            if ci.is_zero():
                continue
            for j in range(order + 1 - i):
                cj = other.coeffs[j]
                if not cj.is_zero():
                    out[i + j] = out[i + j] + ci * cj
        return SeriesInA(self.registry, out, self.var)

    def _check(self, other):
        if not isinstance(other, SeriesInA):
            raise TypeError("expected a SeriesInA")
        if other.registry is not self.registry or other.var != self.var:
            raise ValueError("series are not comparable")

    def __eq__(self, other):
        if not isinstance(other, SeriesInA):
            return NotImplemented
        return (
            self.registry is other.registry
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.var, self.coeffs))

    def agrees_with(self, other: "SeriesInA", through: int | None = None) -> bool:
        """Coefficientwise equality up to ``through`` (default: smaller order)."""
        self._check(other)
        if through is None:
            through = min(self.order, other.order)
        if through > min(self.order, other.order):
            raise ValueError("comparison order exceeds a truncation order")
        return all(self.coeffs[n] == other.coeffs[n] for n in range(through + 1))

    def __str__(self) -> str:
        return "; ".join(f"{self.var}^{n}: {c}" for n, c in enumerate(self.coeffs))

    def __repr__(self) -> str:
        return f"<SeriesInA order={self.order} {self}>"


def series_from_rational(
    numer: LaurentPoly, denom: LaurentPoly, order: int, var: str = "a"
) -> SeriesInA:
    """Expand ``numer/denom`` as a series in ``var`` up to ``order``.

    The constant term of ``denom`` in ``var`` must be a unit monomial in the
    remaining variables; the expansion is exact long division, so the
    characteristic identity ``series * denom == numer (mod var^(order+1))``
    holds on the nose.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    reg = numer.registry
    if denom.registry is not reg:
        raise ValueError("operands belong to different registries")
    num = numer.split_by(var)
    den = denom.split_by(var)
    if any(d < 0 for d in num) or any(d < 0 for d in den):
        raise ValueError(f"negative power of {var!r} in a rational series operand")
    d0 = den.get(0)
    if d0 is None or not d0.is_unit_monomial():
        raise ValueError("denominator constant term is not a unit monomial")
    d0_inv = d0.inverse()
    coeffs: list[LaurentPoly] = []
    for m in range(order + 1):
        acc = num.get(m, reg.zero)
        for j, dj in den.items():
            if 1 <= j <= m:
                acc = acc - dj * coeffs[m - j]
        coeffs.append(d0_inv * acc)
    return SeriesInA(reg, coeffs, var)


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
