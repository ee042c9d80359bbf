"""Exact supercommutative polynomial arithmetic over the rationals.

A polynomial ring here is a free supercommutative algebra on a finite set of
Z2-graded ("even"/"odd") variables with coefficients in Q.  All arithmetic is
exact: a coefficient is an ``int`` when it is integral and an exact
``fractions.Fraction`` otherwise, never a float.  The two compare and hash
alike, so the choice never shows in a result; it only keeps the integral
polynomials of the master identity out of ``Fraction`` normalisation.

Representation
--------------
Variables live in a :class:`VariableTable` and are referred to by integer id.
A monomial is one ``int`` that packs the variables in id order, from the
lowest bit up: each even variable has a field of :data:`EXPONENT_BITS` bits
holding its exponent, and each odd variable has one bit, set when it occurs.
Odd variables square to zero, so one bit is enough, and the constant
monomial is ``0``.  The top bit of each even field is a guard: exponents stay
below :data:`EXPONENT_LIMIT`, and a product that reaches it raises
:class:`OverflowError` instead of carrying into the next field.  A
polynomial is a dict mapping monomials to nonzero coefficients; the zero
polynomial has an empty dict.

Multiplication follows the rule of signs: interchanging two odd variables
flips the sign.  A monomial stands for its odd variables in increasing id
order, so when the odd bits of a and b are disjoint the product is the int
``a + b`` (no field carries) with the sign (-1)**(number of pairs of an odd
bit of a above an odd bit of b); a shared odd bit kills the term.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

EVEN = 0
ODD = 1

EXPONENT_BITS = 8  # the width of an even variable's field, guard bit included
EXPONENT_LIMIT = 1 << (EXPONENT_BITS - 1)  # every exponent stays below this
_FIELD = (1 << EXPONENT_BITS) - 1


def _reorder_parity(odd_a: int, odd_b: int) -> int:
    """The parity of the pairs (odd bit of a, odd bit of b) with a's bit
    above b's: the transpositions that sort the odd variables of a * b."""
    n = 0
    while odd_b:
        low = odd_b & -odd_b
        n += (odd_a >> low.bit_length()).bit_count()
        odd_b ^= low
    return n & 1


def _integral(c):
    """c (an int or a Fraction) as an int when it is integral, unchanged
    otherwise: int arithmetic stays exact and skips Fraction normalisation."""
    return c.numerator if c.denominator == 1 else c


def axpy(dst: dict, src: dict, factor) -> dict:
    """dst += factor * src in place, dropping entries that cancel; returns dst."""
    for k, c in src.items():
        s = factor * c
        if k in dst:
            s += dst[k]
        if s:
            dst[k] = s
        else:
            dst.pop(k, None)
    return dst


class VariableTable:
    """Registry of the supercommuting variables of one polynomial ring, and
    the layout of their packed monomials.

    Two polynomials may be combined only when they share a table; mixing
    tables raises :class:`ContextError`.
    """

    def __init__(self):
        self.names: list[str] = []
        self.parities: list[int] = []
        self.shifts: list[int] = []  # the lowest bit of each variable's field
        self.odd_mask = 0  # the bit of every odd variable
        self.guard_mask = 0  # the top bit of every even field
        self._bits = 0  # bits laid out so far
        self._signs: dict[int, dict] = {}  # odd bits of a -> of b -> reorder parity

    def add(self, name: str, parity: int) -> int:
        if parity not in (EVEN, ODD):
            raise ValueError(f"parity must be 0 or 1, got {parity!r}")
        self.names.append(name)
        self.parities.append(parity)
        self.shifts.append(self._bits)
        if parity == ODD:
            self.odd_mask |= 1 << self._bits
            self._bits += 1
        else:
            self.guard_mask |= 1 << (self._bits + EXPONENT_BITS - 1)
            self._bits += EXPONENT_BITS
        return len(self.names) - 1

    def __len__(self):
        return len(self.names)

    def parity(self, vid: int) -> int:
        return self.parities[vid]

    def monomial(self, vid: int) -> int:
        """The packed monomial of variable ``vid``: its field's lowest bit."""
        return 1 << self.shifts[vid]

    def decode(self, mono: int) -> tuple[tuple, tuple]:
        """``(even, odd)``: the sorted (vid, exponent) pairs of the even
        variables of ``mono``, and its odd vids in increasing order."""
        even, odd = [], []
        for vid, shift in enumerate(self.shifts):
            if self.parities[vid] == ODD:
                if mono >> shift & 1:
                    odd.append(vid)
            elif mono >> shift & _FIELD:
                even.append((vid, mono >> shift & _FIELD))
        return tuple(even), tuple(odd)

    def variable(self, vid: int) -> "SuperPolynomial":
        return SuperPolynomial(self, {self.monomial(vid): 1})

    def zero(self) -> "SuperPolynomial":
        return SuperPolynomial(self, {})

    def one(self) -> "SuperPolynomial":
        return self.constant(1)

    def constant(self, c) -> "SuperPolynomial":
        return SuperPolynomial(self, {0: Fraction(c)})


class ContextError(ValueError):
    """Raised when operands belong to different variable tables."""


class SuperPolynomial:
    """Element of a free supercommutative Q-algebra in normal form."""

    __slots__ = ("table", "terms")

    def __init__(self, table: VariableTable, terms: Mapping[int, int | Fraction]):
        self.table = table
        self.terms = {m: _integral(c) for m, c in terms.items() if c != 0}

    # -- helpers -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, SuperPolynomial):
            if other.table is not self.table:
                raise ContextError("polynomials belong to different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return self.table.constant(other)
        return NotImplemented

    def parity(self):
        """Common parity of all terms, or None for the zero polynomial.

        Raises :class:`ValueError` when the terms mix parities."""
        odd = self.table.odd_mask
        parities = {(m & odd).bit_count() & 1 for m in self.terms}
        if len(parities) > 1:
            raise ValueError("the polynomial mixes even and odd terms")
        return parities.pop() if parities else None

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {0}

    def constant_term(self) -> int | Fraction:
        return self.terms.get(0, 0)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SuperPolynomial(self.table, axpy(dict(self.terms), other.terms, 1))

    __radd__ = __add__

    def __neg__(self):
        return SuperPolynomial(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SuperPolynomial(self.table, self.mul_into({}, other))

    __rmul__ = __mul__

    def mul_into(self, terms: dict, other: "SuperPolynomial", sign: int = 1) -> dict:
        """Add sign * self * other into the monomial dict ``terms`` in place,
        dropping every coefficient that cancels to zero, and return it.

        Each product of monomials is one int add; when both carry odd
        variables, its reorder sign is read from the table's memo."""
        table = self.table
        odd, guard, signs = table.odd_mask, table.guard_mask, table._signs
        right = [(mb, mb & odd, cb) for mb, cb in other.terms.items()]
        for ma, ca in self.terms.items():
            if sign < 0:
                ca = -ca
            oa = ma & odd
            row = signs.setdefault(oa, {}) if oa else None
            for mb, ob, cb in right:
                c = ca * cb
                if row is not None and ob:
                    if oa & ob:
                        continue
                    flip = row.get(ob)
                    if flip is None:
                        flip = row[ob] = _reorder_parity(oa, ob)
                    if flip:
                        c = -c
                m = ma + mb
                if m & guard:
                    raise OverflowError(f"an exponent reached {EXPONENT_LIMIT}")
                s = terms.get(m, 0) + c
                if s:
                    terms[m] = s
                else:
                    del terms[m]
        return terms

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.table.constant(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.table is other.table and self.terms == other.terms

    # -- printing ------------------------------------------------------

    def _mono_str(self, even: tuple, odd: tuple) -> str:
        parts = []
        for vid, e in even:
            name = self.table.names[vid]
            parts.append(name if e == 1 else f"{name}^{e}")
        parts.extend(self.table.names[vid] for vid in odd)
        return "*".join(parts) if parts else "1"

    def __str__(self):
        if not self.terms:
            return "0"

        def sort_key(item):
            (even, odd), _ = item
            degree = sum(e for _, e in even) + len(odd)
            return (-degree, even, odd)

        decoded = [(self.table.decode(m), c) for m, c in self.terms.items()]
        chunks = []
        for (even, odd), c in sorted(decoded, key=sort_key):
            s = self._mono_str(even, odd)
            if s == "1":
                term = str(c)
            elif c == 1:
                term = s
            elif c == -1:
                term = f"-{s}"
            else:
                term = f"{c}*{s}"
            chunks.append(term)
        out = chunks[0]
        for term in chunks[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    __repr__ = __str__


def _signed_products(zero, products):
    """The sum of sign * a * b over (sign, a, b) in ``products``, starting
    from ``zero``.  Over polynomials every product is added into one terms
    dict (:meth:`SuperPolynomial.mul_into`) instead of copying a partial sum
    per term."""
    if not isinstance(zero, SuperPolynomial):
        acc = zero
        for sign, a, b in products:
            acc = acc + a * b if sign > 0 else acc - a * b
        return acc
    terms: dict = {}
    for sign, a, b in products:
        zero._coerce(a).mul_into(terms, zero._coerce(b), sign)
    return SuperPolynomial(zero.table, terms)


def newton_elementary(power_sums: list, K: int):
    """Elementary symmetric functions e_0..e_K from power sums p_1..p_K.

    Uses the recurrence n*e_n = sum_{i=1..n} (-1)^(i-1) p_i e_{n-i} with exact
    division by n (valid in characteristic zero).  Entries may be rationals or
    even SuperPolynomials, zero included; the two kinds must not be mixed,
    and an odd or mixed polynomial is a :class:`ValueError`.
    """
    if K < 0:
        raise ValueError("the truncation order K must be nonnegative")
    if len(power_sums) < K:
        raise ValueError(f"need power sums p_1..p_{K}, got {len(power_sums)}")
    for p in power_sums[:K]:
        if isinstance(p, SuperPolynomial) and p.parity() not in (EVEN, None):
            raise ValueError("power sums must be even elements")
    if power_sums and isinstance(power_sums[0], SuperPolynomial):
        one, zero = power_sums[0].table.one(), power_sums[0].table.zero()
    else:
        one, zero = 1, 0
    es = [one]
    for n in range(1, K + 1):
        acc = _signed_products(zero, (
            (-1 if i % 2 == 0 else 1, power_sums[i - 1], es[n - i]) for i in range(1, n + 1)
        ))
        e = acc * Fraction(1, n)  # a polynomial converts in its constructor
        es.append(e if isinstance(e, SuperPolynomial) else _integral(e))
    return es


class TruncatedSeries:
    """Power series in one even variable t, truncated at a fixed order.

    Coefficients may be rationals (``int`` or ``Fraction``, as the engine
    hands them out) or :class:`SuperPolynomial` (any type with ring
    operations).  Terms of degree > K are discarded by every
    operation; binary operations truncate to the smaller of the two orders.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable):
        if order < 0:
            raise ValueError("the truncation order must be nonnegative")
        coeffs = list(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError("need exactly order+1 coefficients")
        self.order = order
        self.coeffs = coeffs

    @classmethod
    def one(cls, order: int, one=1):
        return cls(order, [one] + [one * 0] * order)

    def _zero_like(self):
        c0 = self.coeffs[0]
        if isinstance(c0, SuperPolynomial):
            return c0.table.zero()
        return 0

    def _match(self, other: "TruncatedSeries"):
        K = min(self.order, other.order)
        return K, self.coeffs[: K + 1], other.coeffs[: K + 1]

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        K, a, b = self._match(other)
        return TruncatedSeries(K, [x - y for x, y in zip(a, b)])

    def __mul__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        K, a, b = self._match(other)
        zero = self._zero_like()
        return TruncatedSeries(K, [
            _signed_products(zero, ((1, a[n], b[k - n]) for n in range(k + 1)))
            for k in range(K + 1)
        ])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = TruncatedSeries.one(self.order, other)
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.order == other.order and all(
            x == y for x, y in zip(self.coeffs, other.coeffs)
        )

    def inverse(self) -> "TruncatedSeries":
        """Two-sided inverse up to the truncation order.

        The constant term must be an invertible scalar (a nonzero rational,
        possibly wrapped in a constant polynomial).
        """
        c0 = self.coeffs[0]
        if isinstance(c0, SuperPolynomial):
            if not c0.is_constant() or c0.constant_term() == 0:
                raise ZeroDivisionError("constant term is not an invertible scalar")
            inv0 = c0.table.constant(Fraction(1) / c0.constant_term())
        else:
            if c0 == 0:
                raise ZeroDivisionError("constant term is not an invertible scalar")
            inv0 = _integral(Fraction(1) / Fraction(c0))
        zero = self._zero_like()
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = _signed_products(
                zero, ((1, self.coeffs[i], out[n - i]) for i in range(1, n + 1))
            )
            out.append(-(inv0 * acc))
        return TruncatedSeries(self.order, out)

    def __str__(self):
        chunks = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            cs = str(c)
            if " " in cs:
                cs = f"({cs})"
            if n == 0:
                chunks.append(cs)
            elif n == 1:
                chunks.append(f"{cs}*t" if cs != "1" else "t")
            else:
                chunks.append(f"{cs}*t^{n}" if cs != "1" else f"t^{n}")
        body = " + ".join(chunks) if chunks else "0"
        return f"{body} + O(t^{self.order + 1})"

    __repr__ = __str__
