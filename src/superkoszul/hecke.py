"""Permutations in one-line notation, the Hecke algebra H_{n,q} in the T_sigma
basis, its idempotents, and Hecke operators (Yang-Baxter solutions) acting on
tensor powers of a superspace.

Conventions.  The generators satisfy (T_i + 1)(T_i - q) = 0 together with the
braid relations; the basis element T_sigma multiplies by

    T_sigma T_{sigma_i} = T_{sigma sigma_i}                 if the length grows,
    T_sigma T_{sigma_i} = q T_{sigma sigma_i} + (q-1) T_sigma  otherwise.

The parameter q is a fixed nonzero rational, not an indeterminate; idempotent
construction checks the q-integer regularity it needs and fails loudly
otherwise.

A Hecke operator is an even endomorphism R of V x V with (R + 1)(R - q) = 0
and R_12 R_23 R_12 = R_23 R_12 R_23: a :class:`YangBaxterOperator`, stored by
columns, ``R(x_i x x_j) = sum over (k, l) of R.columns[(i, j)][(k, l)] x_k x
x_l``, each entry an ``int`` if given as one and a ``Fraction`` otherwise.
It induces a representation rho of H_{n,q} on the n-th tensor power by
placing R in adjacent slots, and one routine, :func:`_act`, applies rho of
any word of generators to tensors (:class:`LinearOperator` only stores the
columns that :func:`hecke_rep` returns).  The signed symmetric-group action
of the rule of signs is the case R = :func:`supersymmetry_operator` at q = 1:

    c_sigma(v_1 x ... x v_n) = sign * v_{sigma^-1(1)} x ... x v_{sigma^-1(n)},

the sign being -1 raised to the number of inversions (i, j) of sigma with
v_i and v_j both odd.  :func:`symmetrizer_image` builds every relation space
of a Hecke operator, S_N's (the image of Y_N for the supersymmetry) included.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .superpoly import axpy
from .tensorspace import Subspace, SuperSpace, matrix_rank, subspace_intersection


class Permutation:
    """Permutation of {1..n} in one-line notation: sigma(i) = word[i-1]."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"{word} is not a permutation of 1..{len(word)}")
        self.word = word

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(range(1, n + 1))

    @classmethod
    def transposition(cls, n: int, i: int) -> "Permutation":
        """The adjacent transposition sigma_i = (i, i+1) in S_n."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"transposition index i={i} must lie in 1..{n - 1}")
        w = list(range(1, n + 1))
        w[i - 1], w[i] = w[i], w[i - 1]
        return cls(w)

    @property
    def n(self):
        return len(self.word)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition (self*other)(i) = self(other(i))."""
        return Permutation(tuple(self.word[other.word[i] - 1] for i in range(self.n)))

    def inversions(self):
        """Pairs (i, j), i < j, with sigma(i) > sigma(j); positions 1-based."""
        w = self.word
        return [
            (i + 1, j + 1)
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if w[i] > w[j]
        ]

    def length(self) -> int:
        return len(self.inversions())

    def reduced_word(self):
        """A reduced expression as a list of adjacent-transposition indices.

        Bubble sort: repeatedly swap adjacent descents.  The result has
        exactly length(sigma) letters and multiplies to sigma left-to-right:
        sigma = sigma_{i_1} * sigma_{i_2} * ... (composition as above).
        """
        w = list(self.word)
        rights = []
        changed = True
        while changed:
            changed = False
            for i in range(len(w) - 1):
                if w[i] > w[i + 1]:
                    w[i], w[i + 1] = w[i + 1], w[i]
                    rights.append(i + 1)
                    changed = True
        # w * sigma_{i_1} * ... * sigma_{i_k} = id, applied on the right,
        # so sigma = sigma_{i_k} ... sigma_{i_1} read in reverse order.
        return rights[::-1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"Permutation{self.word}"


def all_permutations(n: int):
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


class SingularParameterError(ValueError):
    """A q-integer needed for an idempotent vanishes."""


class HeckeElement:
    """Element of H_{n,q} supported on the T_sigma basis."""

    __slots__ = ("n", "q", "terms")

    def __init__(self, n: int, q, terms=None):
        q = Fraction(q)
        if q == 0:
            raise ValueError("the Hecke parameter q must be nonzero")
        self.n = n
        self.q = q
        self.terms: dict[Permutation, Fraction] = {
            s: Fraction(c) for s, c in (terms or {}).items() if c != 0
        }

    # -- constructors ---------------------------------------------------

    @classmethod
    def one(cls, n: int, q) -> "HeckeElement":
        return cls(n, q, {Permutation.identity(n): Fraction(1)})

    @classmethod
    def generator(cls, n: int, q, i: int) -> "HeckeElement":
        """T_i = T_{sigma_i}."""
        return cls(n, q, {Permutation.transposition(n, i): Fraction(1)})

    @classmethod
    def basis(cls, n: int, q, sigma: Permutation) -> "HeckeElement":
        return cls(n, q, {sigma: Fraction(1)})

    # -- linear structure -------------------------------------------------

    def _check(self, other: "HeckeElement"):
        if self.n != other.n or self.q != other.q:
            raise ValueError("Hecke elements have mismatched n or q")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HeckeElement.one(self.n, self.q).scale(other)
        self._check(other)
        terms = axpy(dict(self.terms), other.terms, 1)
        return HeckeElement(self.n, self.q, terms)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HeckeElement.one(self.n, self.q).scale(other)
        return self + other.scale(-1)

    def scale(self, c) -> "HeckeElement":
        c = Fraction(c)
        return HeckeElement(self.n, self.q, {s: c * v for s, v in self.terms.items()})

    # -- multiplication ----------------------------------------------------

    def _times_generator(self, i: int) -> "HeckeElement":
        """Right multiplication by T_i via the basis rule; the length of
        sigma sigma_i grows exactly when sigma(i) < sigma(i+1)."""
        n, q = self.n, self.q
        si = Permutation.transposition(n, i)
        terms: dict[Permutation, Fraction] = {}
        for sigma, c in self.terms.items():
            tau = sigma * si
            if sigma.word[i - 1] < sigma.word[i]:
                axpy(terms, {tau: c}, 1)
            else:
                axpy(terms, {tau: c}, q)
                axpy(terms, {sigma: c}, q - 1)
        return HeckeElement(n, q, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check(other)
        out = HeckeElement(self.n, self.q)
        for tau, c in other.terms.items():
            piece = self.scale(c)
            for i in tau.reduced_word():
                piece = piece._times_generator(i)
            out = out + piece
        return out

    def alpha(self) -> "HeckeElement":
        """The order-2 automorphism determined by T_i -> -q T_i^(-1) = q-1-T_i."""
        n, q = self.n, self.q
        out = HeckeElement(n, q)
        for sigma, c in self.terms.items():
            piece = HeckeElement.one(n, q).scale(c)
            for i in sigma.reduced_word():
                piece = piece.scale(q - 1) - piece._times_generator(i)
            out = out + piece
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = HeckeElement.one(self.n, self.q).scale(other)
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self.q == other.q and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for sigma in sorted(self.terms, key=lambda s: (s.length(), s.word)):
            c = self.terms[sigma]
            name = "1" if sigma.length() == 0 else f"T{sigma.word}"
            parts.append(f"{c}*{name}" if c != 1 else name)
        return " + ".join(parts)


def _idempotent_sum(n: int, q: Fraction, kind: str) -> list:
    """X_n (kind 'X') or Y_n (kind 'Y') of H_{n,q} up to a nonzero scalar, as
    triples (sigma, reduced word of sigma, int): the sum of all T_sigma, or
    a^L sum (-q)^(-l) T_sigma = sum a^(L-l) (-b)^l T_sigma for q = a/b, l the
    length of sigma and L = n(n-1)/2.  Both need [i]_q and [i]_{1/q} nonzero
    for i <= n; for rational q, [i]_q = (q^i - 1)/(q - 1), or i at q = 1,
    vanishes only at q = -1 with i even.
    """
    if kind not in ("X", "Y"):
        raise ValueError(f"kind must be 'X' or 'Y', not {kind!r}")
    if n < 0:
        raise ValueError(f"the rank n={n} must be nonnegative")
    a, b, L = q.numerator, q.denominator, n * (n - 1) // 2
    if a == 0:
        raise ValueError("q must be nonzero")
    if a == -b and n >= 2:
        raise SingularParameterError(f"[2]_q vanishes for q={q}; idempotents undefined")
    u, v = (1, 1) if kind == "X" else (a, -b)
    words = [(sigma, sigma.reduced_word()) for sigma in all_permutations(n)]
    return [(sigma, w, u ** (L - len(w)) * v ** len(w)) for sigma, w in words]


def q_idempotents(n: int, q) -> tuple[HeckeElement, HeckeElement]:
    """The q-symmetrizer X_n and q-antisymmetrizer Y_n of H_{n,q}.

    Each sum s of :func:`_idempotent_sum` has s T_k = lambda s (lambda = q
    for X, -1 for Y), so s s = e(s) s with e(T_sigma) = lambda^l(sigma), and
    the idempotent is s / e(s): e(s) is [n]_q! for X and a^L [n]_{1/q}! for Y.
    """
    q = Fraction(q)
    out = []
    for kind, lam in (("X", q), ("Y", -1)):
        s = _idempotent_sum(n, q, kind)
        e = sum((c * lam ** len(w) for _, w, c in s), Fraction(0))
        out.append(HeckeElement(n, q, {sigma: c for sigma, _, c in s}).scale(1 / e))
    return tuple(out)


# ---------------------------------------------------------------------------
# Linear operators on tensor powers
# ---------------------------------------------------------------------------


class LinearOperator:
    """Sparse linear endomorphism of V^(x n), stored by columns."""

    __slots__ = ("space", "degree", "columns")

    def __init__(self, space: SuperSpace, degree: int, columns: dict):
        self.space = space
        self.degree = degree
        self.columns = columns  # {word: {word: coeff}}; a missing column is zero

    def image(self) -> Subspace:
        return Subspace(self.space, self.degree, self.columns.values())

    def rank(self) -> int:
        return matrix_rank(self.columns.values())


class YangBaxterOperator(LinearOperator):
    """Candidate Hecke operator on V x V with its associated parameter q: the
    degree-2 operator whose column of x_i x x_j is ``entries[(i, j)]``."""

    __slots__ = ("q", "label")

    def __init__(self, space: SuperSpace, q, entries, label: str = ""):
        words = [word for pair, col in entries.items() for word in (pair, *col)]
        if set(map(len, words)) - {2}:
            raise ValueError("every word of the entries must have two letters")
        if not {i for word in words for i in word} <= set(range(1, space.dim + 1)):
            raise ValueError(f"a letter of the entries lies outside 1..{space.dim}")
        columns = {
            pair: {out: c if type(c) is int else Fraction(c) for out, c in col.items() if c != 0}
            for pair, col in entries.items()
        }
        LinearOperator.__init__(self, space, 2, columns)
        self.q = Fraction(q)
        self.label = label

    def is_even(self) -> bool:
        par = self.space.word_parity
        return all(par(out) == par(pair) for pair, col in self.columns.items() for out in col)

    def __repr__(self):
        return f"YangBaxterOperator({self.label or 'custom'}, q={self.q}, d={self.space.dim})"


def supersymmetry_operator(space: SuperSpace) -> YangBaxterOperator:
    """The rule-of-signs flip x_i x x_j -> (-1)^(i^ j^) x_j x x_i; q = 1."""
    entries = {}
    for i in range(1, space.dim + 1):
        for j in range(1, space.dim + 1):
            entries[(i, j)] = {(j, i): -1 if space.parity(i) * space.parity(j) else 1}
    return YangBaxterOperator(space, 1, entries, label="supersymmetry")


def dj_operator(p: int, q_dim: int, q) -> YangBaxterOperator:
    """The superized Drinfel'd-Jimbo operator on the standard p|q_dim space.

    Columns:  x_i x x_i -> q^2 (i even) or -1 (i odd) times itself;
    x_i x x_j (i < j) picks up (q^2 - 1) on itself; and x_j x x_i appears with
    coefficient (-1)^(i^ j^) q whenever i != j.  Associated parameter: q^2.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("q must be nonzero")
    space = SuperSpace.standard(p, q_dim)
    entries: dict = {}
    for i in range(1, space.dim + 1):
        for j in range(1, space.dim + 1):
            col: dict = {}
            if i == j:
                col[(i, i)] = q * q if space.parity(i) == 0 else Fraction(-1)
            else:
                if i < j:
                    col[(i, j)] = q * q - 1
                sign = -1 if space.parity(i) * space.parity(j) else 1
                col[(j, i)] = sign * q
            entries[(i, j)] = col
    return YangBaxterOperator(space, q * q, entries, label=f"dj({p}|{q_dim}, q={q})")


def _act(R: YangBaxterOperator, terms, vec: dict) -> dict:
    """rho(sum of c T_{i_1} ... T_{i_k}) applied to ``vec`` {word:
    coefficient}, for ``terms`` the pairs (word of generator indices, c).

    A word is any sequence of indices in 1..n-1: a reduced word of sigma for
    T_sigma, (1, 1) for T_1^2, () for 1.  For each index i, rightmost first,
    R acts at slots (i, i+1), so the word gives rho(T_{i_1}) ... rho(T_{i_k}).
    """
    out: dict = {}
    for word, c in terms:
        piece = vec
        for i in reversed(word):
            step: dict = {}
            for w, x in piece.items():
                head, tail = w[: i - 1], w[i + 1 :]
                for (k, l), r in R.columns.get(w[i - 1 : i + 1], {}).items():
                    axpy(step, {head + (k, l) + tail: r}, x)
            piece = step
        axpy(out, piece, c)
    return out


def _operator(R: YangBaxterOperator, n: int, terms) -> LinearOperator:
    """The operator on V^(x n) whose column of w is :func:`_act` on w."""
    cols = {w: _act(R, terms, {w: 1}) for w in R.space.words(n)}
    return LinearOperator(R.space, n, {w: col for w, col in cols.items() if col})


def hecke_rep(R: YangBaxterOperator, n: int, a: HeckeElement) -> LinearOperator:
    """The representing operator of a in H_{n,q} on V^(x n).  The element's
    parameter must match R's."""
    if a.n != n:
        raise ValueError(f"element lives in H_{a.n}, expected H_{n}")
    if a.q != R.q:
        raise ValueError(f"parameter mismatch: element has q={a.q}, operator q={R.q}")
    return _operator(R, n, [(sigma.reduced_word(), c) for sigma, c in a.terms.items()])


@dataclass
class HeckeOperatorReport:
    even: bool
    hecke_equation: bool
    yang_baxter: bool

    @property
    def passed(self) -> bool:
        return self.even and self.hecke_equation and self.yang_baxter

    def __str__(self):
        rows = [
            ("evenness", self.even),
            ("hecke equation", self.hecke_equation),
            ("yang-baxter", self.yang_baxter),
        ]
        return "\n".join(f"{name}: {'PASS' if ok else 'FAIL'}" for name, ok in rows)


def verify_hecke_operator(R: YangBaxterOperator) -> HeckeOperatorReport:
    """Exact check of evenness, of (R + 1)(R - q) = R^2 + (1 - q) R - q = 0 on
    every word of V x V, and of the braid relation R_12 R_23 R_12 - R_23 R_12
    R_23 = 0 on every word of V x V x V, both through :func:`_act`."""
    q = R.q
    hecke_ok = not _operator(R, 2, [((1, 1), 1), ((1,), 1 - q), ((), -q)]).columns
    ybe_ok = not _operator(R, 3, [((1, 2, 1), 1), ((2, 1, 2), -1)]).columns
    return HeckeOperatorReport(R.is_even(), hecke_ok, ybe_ok)


def symmetrizer_image(R: YangBaxterOperator, n: int, kind: str) -> Subspace:
    """Image of rho(X_n) (kind='X') or rho(Y_n) (kind='Y') inside V^(x n) for
    a Hecke operator R, applying a, X_n or Y_n up to a nonzero scalar with
    integer coefficients.

    R has *swap form* when R(x_i x_j) = alpha x_i x_j + beta x_j x_i with
    beta != 0 for all letters i != j, and R(x_i x_i) = gamma_i x_i x_i.  As
    a T_k = lambda a, with lambda = q for X and -1 for Y, rho(a) rho(T_k) =
    lambda rho(a): if w_k != w_(k+1), beta rho(a)(s_k w) = (lambda - alpha)
    rho(a) w, and if w_k = w_(k+1) = i, (gamma_i - lambda) rho(a) w = 0.  So
    for such an R (the supersymmetry, every :func:`dj_operator`) rho(a) of
    one weakly increasing word per letter content spans the image, less those
    with equal adjacent letters i where gamma_i != lambda; any other R acts on
    all d^n words.
    """
    terms = [(word, c) for _, word, c in _idempotent_sum(n, R.q, kind)]
    letters, cols, words = range(1, R.space.dim + 1), R.columns, R.space.words(n)
    if all(u in (p, p[::-1]) for p, col in cols.items() for u in col) and all(
        cols.get((i, j), {}).get((j, i)) for i in letters for j in letters if i != j
    ):
        lam = R.q if kind == "X" else -1
        skip = {i for i in letters if cols.get((i, i), {}).get((i, i), 0) != lam}
        words = [
            w
            for w in itertools.combinations_with_replacement(letters, n)
            if not any(w[k] == w[k + 1] and w[k] in skip for k in range(n - 1))
        ]
    return Subspace(R.space, n, [_act(R, terms, {w: 1}) for w in words])


def intersection_of_generator_images(R: YangBaxterOperator, n: int) -> Subspace:
    """The intersection of the images of rho(T_i) + 1 over i = 1..n-1."""
    out = None
    for i in range(1, n):
        im = _operator(R, n, [((i,), 1), ((), 1)]).image()
        out = im if out is None else subspace_intersection(out, im)
    return Subspace.full(R.space, n) if out is None else out
