"""Vector superspaces, tensor powers, exact subspace linear algebra and
duality.

Basis words
-----------
A basis vector of the n-th tensor power of a d-dimensional superspace is a
word ``(i_1, ..., i_n)`` with letters in ``1..d``, and a vector is a plain
dict {word: coefficient}.  Words of equal length are ordered
lexicographically with the convention x_1 > x_2 > ... > x_d, i.e. the
*smallest tuple* is the *largest* monomial.  Row reduction always pivots on
the largest monomial, so a pivot rewrites to strictly smaller words; this is
the order that makes reduction operators and confluence work.

Permutations, and how they act on words with the rule of signs, live in
:mod:`hecke`: c_sigma is the Hecke representation of T_sigma for the
supersymmetry operator at q = 1.

Duality
-------
Dual tensors are stored over the same index words; the order-reversing
pairing  < x^{j_1}...x^{j_n} , x_{i_1}...x_{i_n} >  is 1 exactly when
``(j_1..j_n)`` equals the reversal of ``(i_1..i_n)``.  The reversal is
never stored in the data: :func:`dual_complement` and
:meth:`HomogAlgebra.dual_coproduct` apply it where they pair.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, lcm

from .superpoly import _integral, axpy

Word = tuple  # tuple of letters in 1..d


class SuperSpace:
    """A finite-dimensional Z2-graded vector space with a fixed graded basis.

    ``fmt`` lists the parities of the basis vectors x_1..x_d.  The standard
    format puts all even vectors first; constructors for the classical
    families emit standard format, but nothing below assumes it.
    """

    def __init__(self, fmt):
        fmt = tuple(int(x) for x in fmt)
        if any(x not in (0, 1) for x in fmt):
            raise ValueError("format entries must be 0 (even) or 1 (odd)")
        self.format = fmt
        self.dim = len(fmt)
        self.p = fmt.count(0)
        self.q = fmt.count(1)

    @classmethod
    def standard(cls, p: int, q: int) -> "SuperSpace":
        if p < 0 or q < 0:
            raise ValueError(f"dimensions p={p}, q={q} must be nonnegative")
        return cls((0,) * p + (1,) * q)

    def parity(self, letter: int) -> int:
        if not 1 <= letter <= self.dim:
            raise ValueError(f"letter {letter} lies outside 1..{self.dim}")
        return self.format[letter - 1]

    def word_parity(self, word: Word) -> int:
        if word and not 1 <= min(word) <= max(word) <= self.dim:
            raise ValueError(f"a letter of {word} lies outside 1..{self.dim}")
        return sum(self.format[i - 1] for i in word) % 2

    def words(self, n: int):
        return itertools.product(range(1, self.dim + 1), repeat=n)

    def superdim(self) -> int:
        return self.p - self.q

    def __eq__(self, other):
        return isinstance(other, SuperSpace) and self.format == other.format

    def __hash__(self):
        return hash(self.format)

    def __repr__(self):
        return f"SuperSpace({self.p}|{self.q}, format={self.format})"


# ---------------------------------------------------------------------------
# Exact elimination: one eliminator, on superpoly's sparse axpy
# ---------------------------------------------------------------------------


def scaled_ints(vec: dict) -> tuple:
    """(ints, den) with vec = ints/den: den, the lcm of vec's denominators, is
    coprime to the gcd of the ints, and zero entries are dropped."""
    if Fraction not in set(map(type, vec.values())):
        return {w: c for w, c in vec.items() if c}, 1
    den = lcm(*(c.denominator for c in vec.values()))
    return {w: c.numerator * (den // c.denominator) for w, c in vec.items() if c}, den


def scaled_view(ints: dict, den: int) -> dict:
    """ints/den exactly, each number an int when integral and a Fraction
    otherwise; ``ints`` itself, not a copy, when den is 1."""
    if den == 1:
        return ints
    return {w: c // den if c % den == 0 else Fraction(c, den) for w, c in ints.items()}


def rescale(ints: dict, den: int, other: int) -> int:
    """Scale ``ints``, held over den, in place to lcm(den, other); return it."""
    f = other // gcd(den, other)
    for w in ints:
        ints[w] *= f
    return den * f


def _reduce(rows: dict, vector: dict) -> dict:
    """Residual of a vector against fully reduced rows, each number an int
    when it is integral (sums and products of Fractions can be).

    One pass over the vector's pivot words suffices: row tails avoid
    every pivot, so subtracting a row never creates another pivot hit.
    """
    residual = {w: c for w, c in vector.items() if c}
    for p in [w for w in residual if w in rows]:
        axpy(residual, rows[p], -_integral(residual[p]))
    if Fraction in set(map(type, residual.values())):
        return {w: _integral(c) for w, c in residual.items()}
    return residual


class Subspace:
    """Subspace of V^(x n) held as a fully reduced row echelon basis.

    ``rows`` maps each pivot (the row's smallest word, i.e. largest
    monomial) to its row {word: coefficient}, with coefficient 1 at the
    pivot and no other pivot in it, so equal subspaces have equal rows.
    Inserts go to a :class:`RankCounter`; the first read of ``rows`` after
    one back-substitutes its integer rows once, into the same dict, and
    ``dim`` is the forward rank.  ``insert``, ``reduce`` and ``coordinates``
    take a dict {word: coefficient}.  Every number of a row, residual or
    coordinate is an ``int`` when it is integral and an exact ``Fraction``
    otherwise: the one place elimination output is converted, so the layers
    above convert nothing.
    """

    def __init__(self, space: SuperSpace, degree: int, rows=()):
        self.space = space
        self.degree = degree
        self._forward = RankCounter()
        self._rows: dict[Word, dict] = {}  # pivot -> reduced row
        self._stale = False
        for row in rows:
            self.insert(row)
        if not self.is_parity_homogeneous():
            raise ValueError("subspace rows must be parity-homogeneous")

    @classmethod
    def full(cls, space: SuperSpace, degree: int) -> "Subspace":
        rows = ({w: 1} for w in space.words(degree))
        return cls(space, degree, rows)

    def insert(self, row) -> bool:
        """Insert one vector; True if the rank grew.  A word whose length is
        not the degree is a ValueError."""
        degree = self.degree
        for w in row:
            if len(w) != degree:
                raise ValueError(f"every word of a row must have length {degree}")
        grew = self._forward.insert(row)
        self._stale = self._stale or grew
        return grew

    @property
    def rows(self) -> dict:
        rows = self._rows
        if self._stale:
            # a forward row's words lie at or above its lead, so the rows
            # with larger pivots, already reduced, clear all but its lead
            rows.clear()
            for lead in sorted(self._forward.rows, reverse=True):
                row = _reduce(rows, self._forward.rows[lead])
                if row[lead] != 1:
                    inv = Fraction(1, row[lead])
                    row = {w: _integral(c * inv) for w, c in row.items()}
                rows[lead] = row
            self._stale = False
        return rows

    # -- queries ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return self._forward.rank

    def reduce(self, vector) -> dict:
        """Residual of a vector after reduction by the basis rows."""
        return _reduce(self.rows, vector)

    def coordinates(self, vector) -> dict:
        """Coordinates w.r.t. the echelon rows; raises if not in the span.
        A row is 1 at its own pivot and 0 at every other, so the coordinates
        are the vector's coefficients at the pivots."""
        rows = self.rows
        if _reduce(rows, vector):
            raise ValueError("vector is not in the subspace")
        return {p: _integral(c) for p, c in vector.items() if c and p in rows}

    def is_parity_homogeneous(self) -> bool:
        sp = self.space
        for row in self.rows.values():
            if len({sp.word_parity(w) for w in row}) > 1:
                return False
        return True

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.space == other.space
            and self.degree == other.degree
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim={self.dim}, degree={self.degree}, space={self.space.p}|{self.space.q})"


def span_meet(space: SuperSpace, degree: int, basis, residual) -> Subspace:
    """span(basis) cap K, where ``residual(v)`` is v's residual modulo K:
    each kernel element of the residual map combines basis vectors into one
    vector of the meet."""
    basis = list(basis)
    out = Subspace(space, degree)
    for combo in kernel_of_vectors(residual(v) for v in basis):
        vec: dict = {}
        for k, ck in combo.items():
            axpy(vec, basis[k], ck)
        out.insert(vec)
    return out


def subspace_intersection(A: Subspace, B: Subspace) -> Subspace:
    """A cap B via the kernel of the residual map of A's basis modulo B."""
    if A.space != B.space or A.degree != B.degree:
        raise ValueError("subspaces live in different ambient tensor powers")
    return span_meet(A.space, A.degree, A.rows.values(), B.reduce)


def _divide_content(row: dict, tags) -> None:
    """Divide row and tags in place by the gcd of all their entries."""
    g = gcd(*row.values(), *tags.values()) if tags else gcd(*row.values())
    if g > 1:
        for w in row:
            row[w] //= g
        if tags:
            for t in tags:
                tags[t] //= g


class RankCounter:
    """Forward-only, fraction-free echelon (Bareiss, Math. Comp. 22, 1968):
    the one elimination loop of the package.  Ranks and kernels read its
    rows directly; :class:`Subspace` inserts through it and back-substitutes
    its rows into the canonical form only when they are read.

    Rows are primitive integer vectors; the coefficient at a row's lead
    (smallest word) need not be 1.  ``insert(vec, tags)`` scales ``vec`` once
    by the lcm of its denominators, then reduces it by row <- a*row - b*prow,
    with a, b the stored and the new lead coefficient over their gcd, and
    divides by the content before each step.  An optional dict of integer
    tags is scaled and reduced alongside the row, in place; tag either every
    insert or none.  The tags stay the integer combination of the inputs that
    equals the row, so when the row reduces to zero they are a nonzero
    integer multiple of a vanishing combination of the inputs.
    """

    def __init__(self):
        self.rows: dict = {}  # lead -> primitive integer row
        self.tags: dict = {}  # lead -> tags of that row

    def insert(self, vec, tags=None) -> bool:
        row, den = scaled_ints(vec)
        if tags is not None:
            for t in tags:
                tags[t] *= den
        while True:
            _divide_content(row, tags)
            if not row:
                return False
            lead = min(row)
            prow = self.rows.get(lead)
            if prow is None:
                self.rows[lead] = row
                if tags is not None:
                    self.tags[lead] = dict(tags)
                return True
            g = gcd(prow[lead], row[lead])
            a, b = prow[lead] // g, row[lead] // g
            if a < 0:
                a, b = -a, -b
            if a != 1:
                for w in row:
                    row[w] *= a
                if tags is not None:
                    for t in tags:
                        tags[t] *= a
            axpy(row, prow, -b)
            if tags is not None:
                axpy(tags, self.tags[lead], -b)

    @property
    def rank(self) -> int:
        return len(self.rows)


def kernel_of_vectors(vectors):
    """Kernel of the map e_k -> vectors[k], as a list of integer coefficient
    dicts: each input that reduces to zero yields its tags, a nonzero integer
    multiple of a vanishing combination of the inputs, as one kernel element."""
    rc = RankCounter()
    kernel = []
    for k, vec in enumerate(vectors):
        tags = {k: 1}
        if not rc.insert(vec, tags):
            kernel.append(tags)
    return kernel


def matrix_rank(columns) -> int:
    rc = RankCounter()
    for col in columns:
        rc.insert(col)
    return rc.rank


# ---------------------------------------------------------------------------
# Wedge dimensions and duality
# ---------------------------------------------------------------------------


def wedge_dimension(p: int, q: int, n: int) -> int:
    """Closed-form dimension of the antisymmetric n-tensors of a p|q space."""
    total = 0
    for m in range(0, n + 1):
        mp = n - m
        odd_factor = 1 if mp == 0 else comb(q + mp - 1, mp)
        total += comb(p, m) * odd_factor
    return total


def dual_complement(R: Subspace) -> Subspace:
    """The annihilator of R under the order-reversing duality pairing.

    A row of R is 1 at its own pivot and 0 at every other, so for each word
    w that is no pivot, w - sum_p R_p[w] p is orthogonal to every row under
    the plain dot product; these d^n - dim R vectors, independent by their
    words w, span the null space of R.  A dual word j pairs nonzero with a
    word i exactly when j is the reversal of i, so reversing every word of
    the null space gives the annihilator.  Dual basis vectors inherit the
    parity of the primal ones, hence the same ambient space describes the
    result.
    """
    if not R.is_parity_homogeneous():
        raise ValueError("dual complement requires a parity-homogeneous subspace")
    space, n, rows = R.space, R.degree, R.rows
    out = Subspace(space, n)
    for w in space.words(n):
        if w in rows:
            continue
        vec = {w[::-1]: 1}
        for pvt, row in rows.items():
            c = row.get(w)
            if c:
                vec[pvt[::-1]] = -c
        out.insert(vec)
    return out
