"""N-homogeneous superalgebras A(V, R): presentations, graded components,
duals, white/black products, the endomorphism algebra, and a rewriting engine
for normal forms.

An algebra is presented by a superspace V, a degree N >= 2, and a
parity-homogeneous relation subspace R inside the N-th tensor power.  The
degree-n relation space is the sum of all placements of R,

    R_n = sum over i+j+N = n of V^(x i) x R x V^(x j),

and dim A_n = d^n - dim R_n.

Rewriting.  The row-echelon basis of R doubles as a reduction operator: each
pivot (leading) monomial rewrites to minus the tail, which is supported on
lexicographically larger words.  A word is *reduced* (the rewriting notion of
:meth:`HomogAlgebra.is_reduced` and :meth:`HomogAlgebra.count_reduced_words`)
when no length-N window is a pivot.  Rewriting terminates because every step
strictly raises the word; when the system is confluent (checked once, see
:meth:`HomogAlgebra.confluence_report`) the reduced words represent a basis
of A and rewriting gives the normal forms.  The rewrite step reads one map,
built once by :meth:`HomogAlgebra.rewrite_map`: pivot -> {tail word:
-coefficient}.  Its numbers are R's row coefficients in the form
:class:`Subspace` gives them.

The normal-form store (:meth:`HomogAlgebra._nf_ints`) holds nf(word) in
integers, (ints, den) with nf = ints/den and den > 0 coprime to the content;
rewriting fills it from the tails times the lcm of their denominators, and
the echelon route below is converted once.  The coproduct and the Koszul
slices read it; :meth:`HomogAlgebra.normal_form_word` is its exact view.

Normal forms without confluence.  u - nf(u) lies in R_|u|, so the residual
of a word modulo the echelon of R_n is an exact normal form and the
non-pivot words of R_n are a basis of A_n (a degree-truncated Groebner basis;
Bergman 1978, Mora 1994).  The algebra picks the route itself, from its
cached confluence test: :meth:`HomogAlgebra.normal_form_word`,
:meth:`HomogAlgebra.reduced_words` and :meth:`HomogAlgebra.dim_component`
take this one when rewriting is not confluent, and no caller asks.

Graded dimensions.  :meth:`HomogAlgebra.graded_component` eliminates R_n and
gives dim A_n = d^n - dim R_n for any presentation.  When the rewriting
system is confluent, the reduced words are a basis of A in every degree
(Bergman's diamond lemma; Berger, "Confluence and Koszulity", 1998), so
:meth:`HomogAlgebra.dim_component` counts them instead from degree 2N on,
with a transfer count over the last N-1 letters that needs no elimination
and no word list.  Below 2N it eliminates (N+1 reads the overlap meet); the
overlap degrees N+1..2N-1 are where the confluence test works, and the first
counted call checks the count against elimination in each of them.

Placements.  R's rows placed at window i are already the reduced echelon
basis of the placement V^(x i) x R x V^(x j), so a placement is never
eliminated: :meth:`HomogAlgebra.reduce_at` reduces modulo it in one pass,
subtracting R's rows placed at window i from the words whose window is a
pivot.  The dual components D_n and the confluence and extra-condition
tests go through it; only R_n, the sum of the placements, is eliminated.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .hecke import Permutation, YangBaxterOperator, _act, supersymmetry_operator, symmetrizer_image
from .superpoly import _integral, axpy
from .tensorspace import (
    Subspace,
    SuperSpace,
    dual_complement,
    matrix_rank,
    rescale,
    scaled_ints,
    scaled_view,
    span_meet,
)

Word = tuple


def _cached(method):
    """Memoise a :class:`HomogAlgebra` method in its instance's one dict,
    ``self._cache``, keyed by (method name, *args).  The memo is freed with
    the algebra; a call that raises stores nothing."""
    name = method.__name__

    @functools.wraps(method)
    def wrapper(self, *args):
        key = (name, *args)
        try:
            return self._cache[key]
        except KeyError:
            pass
        self._cache[key] = out = method(self, *args)
        return out

    return wrapper


class InternalInconsistencyError(AssertionError):
    """Two independent routes to the same quantity disagreed; an
    implementation bug."""


@dataclass
class ConfluenceReport:
    """Outcome of the overlap-dimension test, one entry per overlap width."""

    entries: list = field(default_factory=list)  # (i, lhs, rhs)
    passed: bool = True  # kept by add: every normal form reads it

    def add(self, i: int, lhs: int, rhs: int):
        self.entries.append((i, lhs, rhs))
        self.passed = self.passed and lhs <= rhs

    def __str__(self):
        if not self.entries:
            return "confluence: PASS (no overlaps to check)"
        lines = []
        for i, lhs, rhs in self.entries:
            verdict = "PASS" if lhs <= rhs else "FAIL"
            lines.append(f"overlap width {i}: dim(join image) = {lhs} vs dim(image sum) = {rhs}: {verdict}")
        return "\n".join(lines)


@dataclass
class ExtraConditionReport:
    """Containment checks R_{n+N,0} cap R_{n+N,n} <= R_{n+N,n-1}, 2 <= n < N."""

    entries: list = field(default_factory=list)  # (n, ok, defect_dim)

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    @property
    def vacuous(self) -> bool:
        return not self.entries

    def __str__(self):
        if not self.entries:
            return "extra condition: PASS (vacuous, quadratic case)"
        lines = []
        for n, ok, defect in self.entries:
            verdict = "PASS" if ok else f"FAIL (defect dimension {defect})"
            lines.append(f"extra condition at n={n}: {verdict}")
        return "\n".join(lines)


class HomogAlgebra:
    """A(V, R) with R a parity-homogeneous subspace of V^(x N)."""

    def __init__(self, space: SuperSpace, N: int, relations: Subspace, label: str = ""):
        if N < 2:
            raise ValueError("the relation degree N must be at least 2")
        if relations.space != space or relations.degree != N:
            raise ValueError("relations must live in the N-th tensor power of V")
        if not relations.is_parity_homogeneous():
            raise ValueError("relation subspace must be parity-homogeneous")
        self.space = space
        self.N = N
        self.R = relations
        self.label = label or f"A({space.p}|{space.q}, N={N})"
        self._cache: dict = {}  # see _cached
        self._nf_store: dict[Word, tuple] = {}  # word -> (ints, den), see _nf_ints

    # ------------------------------------------------------------------
    # presentation data
    # ------------------------------------------------------------------

    @property
    def dim_V(self) -> int:
        return self.space.dim

    @_cached
    def rewrite_map(self) -> dict:
        """pivot word -> tail dict, built once and shared, so callers must
        not change it; the reduction operator S sends a pivot monomial to
        minus the tail and fixes every other monomial."""
        return {
            pivot: {w: -c for w, c in row.items() if w != pivot}
            for pivot, row in self.R.rows.items()
        }

    @_cached
    def _rewrite_ints(self) -> dict:
        """:meth:`rewrite_map` in integers: pivot -> (tail ints, den)."""
        return {pivot: scaled_ints(tail) for pivot, tail in self.rewrite_map().items()}

    def placement_rows(self, i: int, j: int):
        """Rows of V^(x i) x R x V^(x j): R's rows placed at window i.  They
        are already a reduced echelon basis, so a placement is never
        eliminated; :meth:`reduce_at` subtracts them in one pass."""
        sp = self.space
        for prefix in sp.words(i):
            for row in self.R.rows.values():
                for suffix in sp.words(j):
                    yield {prefix + w + suffix: c for w, c in row.items()}

    def reduce_at(self, vec: dict, i: int) -> dict:
        """Residual of ``vec`` modulo the placement V^(x i) x R x V^(x j).

        From each word w whose window [i, i+N) is a pivot, with coefficient
        c, subtract c times that pivot's row placed at window i; the row's
        pivot coefficient is 1, so w drops out.  Row tails avoid every pivot,
        so one pass suffices and every pivot coefficient is read from ``vec``
        itself.
        """
        rows, N = self.R.rows, self.N
        residual = dict(vec)
        for w, c in vec.items():
            row = rows.get(w[i : i + N])
            if row is not None:
                prefix, suffix = w[:i], w[i + N :]
                axpy(residual, {prefix + t + suffix: a for t, a in row.items()}, -c)
        return residual

    def graded_component(self, n: int):
        """(R_n, dim A_n) for the degree-n component."""
        if n < 0:
            raise ValueError(f"the degree n={n} must be nonnegative")
        Rn = self._graded_relations(n)
        return Rn, self.dim_V ** n - Rn.dim

    def dim_component(self, n: int) -> int:
        """dim A_n: the number of reduced words when n >= 2N and the rewriting
        system is confluent (the diamond lemma makes them a basis), the
        elimination d^n - dim R_n otherwise.  The first counted call checks
        the count against elimination in every degree below 2N and raises
        :class:`InternalInconsistencyError` on a mismatch.

        Elimination stops at the first zero: past degree N, A_(n-1) = 0 means
        R_(n-1) = V^(x n-1), so R_n, which holds R_(n-1) x V, is all of
        V^(x n) and dim A_n = 0.  R_n needs R_(n-1) anyway, so the check adds
        no elimination.  At n = N+1 nothing is eliminated: R_n = R x V + V x R
        has dimension 2 d dim R minus that of the confluence test's meet."""
        if n < 2 * self.N or not self.confluence_report().passed:
            if n > self.N and self.dim_component(n - 1) == 0:
                return 0
            if n == self.N + 1:
                return self.dim_V ** n - 2 * self.R.dim * self.dim_V + self._overlap_meet_dim(1)
            return self.graded_component(n)[1]
        self._check_counts()
        return self.count_reduced_words(n)

    @_cached
    def _check_counts(self) -> None:
        """The count check of :meth:`dim_component`; the memo runs it once."""
        for m in range(2 * self.N):
            counted, eliminated = self.count_reduced_words(m), self.graded_component(m)[1]
            if counted != eliminated:
                raise InternalInconsistencyError(
                    f"{self.label}: {counted} reduced words of length {m} "
                    f"but dim A_{m} = {eliminated} by elimination"
                )

    def dims(self, deg_max: int) -> list[int]:
        if deg_max < 0:
            raise ValueError("deg_max must be nonnegative")
        return [self.dim_component(n) for n in range(deg_max + 1)]

    @_cached
    def _graded_relations(self, n: int) -> Subspace:
        sp, N = self.space, self.N
        if n == N:
            return self.R
        out = Subspace(sp, n)
        if n > N:
            for row in self._graded_relations(n - 1).rows.values():
                for letter in range(1, sp.dim + 1):
                    out.insert({w + (letter,): c for w, c in row.items()})
            for row in self.placement_rows(n - N, 0):
                out.insert(row)
        return out

    # ------------------------------------------------------------------
    # the dual algebra and its graded dual components
    # ------------------------------------------------------------------

    @_cached
    def dual_algebra(self) -> "HomogAlgebra":
        """A^!.  When R is the smaller side, A^! gets its overlap meets as
        numbers, so it never rebuilds R as its own dual."""
        d, N, r = self.dim_V, self.N, self.R.dim
        dual = HomogAlgebra(self.space, N, dual_complement(self.R), label=f"{self.label}!")
        if 2 * r <= d ** N:
            for i in range(1, N):
                meet = d ** (N + i) - 2 * d ** i * r + self._overlap_meet_dim(i)
                dual._cache[("_overlap_meet_dim", i)] = meet
        return dual

    @_cached
    def dual_star_component(self, n: int) -> Subspace:
        """Degree-n component of the graded dual of the dual algebra:
        the full tensor power below degree N, the intersection of all
        placements of R from degree N on."""
        sp, N = self.space, self.N
        if n < N:
            return Subspace.full(sp, n)
        if n == N:
            return self.R
        # D_n = (V x D_{n-1}) cap (R x V^(x n-N)); the lifted rows are
        # already a reduced echelon basis of V x D_{n-1}
        prev = self.dual_star_component(n - 1).rows.values()
        lifted = [
            {(letter,) + w: c for w, c in row.items()}
            for letter in range(1, sp.dim + 1)
            for row in prev
        ]
        return span_meet(sp, n, lifted, lambda v: self.reduce_at(v, 0))

    @_cached
    def dual_coproduct(self, m: int, k: int) -> tuple:
        """The (k, m-k) component of the coproduct of the dual coalgebra on
        the dual basis of D_m = (A^!_m)^*, as (table, scale): basis word b of
        A^!_m -> [(prefix u, coordinates of tail_u in D_{m-k} times scale)],
        xi_b = sum of u (x) tail_u, scale the lcm of the nf^! dens it reads.

        D_m is the annihilator of R^!_m under the reversal pairing, and holds
        xi_b = sum over words w of coef_b(nf^!(reverse w)) w, as nf^! kills
        R^!_m.  Its coefficient at reverse(c) is delta_bc for the basis words
        c, so the xi_b are a basis of D_m, and the coordinate of xi_c in
        tail_u is coef_b(nf^!(c + reverse(u))), read from A^!'s normal forms."""
        dual = self.dual_algebra()
        words = dual.reduced_words(m - k)
        entries = [(u, c, dual._nf_ints(c + u[::-1])) for u in self.space.words(k) for c in words]
        scale = lcm(*(den for _, _, (_, den) in entries))
        out: dict = {b: {} for b in dual.reduced_words(m)}
        for u, c, (ints, den) in entries:
            for b, a in ints.items():
                out[b].setdefault(u, {})[c] = a * (scale // den)
        return {b: list(parts.items()) for b, parts in out.items()}, scale

    # ------------------------------------------------------------------
    # rewriting: reduced words, confluence, normal forms
    # ------------------------------------------------------------------

    def is_reduced(self, word: Word) -> bool:
        pivots = self.R.rows
        N = self.N
        return not any(word[k : k + N] in pivots for k in range(len(word) - N + 1))

    def count_reduced_words(self, n: int) -> int:
        """The number of reduced words of length n, by a transfer count over
        their last N-1 letters: O(n d^N) integer additions, no word list."""
        if n < 0:
            raise ValueError(f"the degree n={n} must be nonnegative")
        d, N = self.dim_V, self.N
        if n < N:
            return d ** n
        pivots = self.R.rows
        # ends[s]: reduced words of the current length whose last N-1 letters are s
        ends = dict.fromkeys(self.space.words(N - 1), 1)
        for _ in range(n - N + 1):
            nxt = dict.fromkeys(ends, 0)
            for s, c in ends.items():
                for letter in range(1, d + 1):
                    if s + (letter,) not in pivots:
                        nxt[s[1:] + (letter,)] += c
            ends = nxt
        return sum(ends.values())

    @_cached
    def reduced_words(self, n: int) -> list:
        """The basis words of A_n in lexicographic order: the reduced words,
        built letter by letter from those of A_(n-1), when the rewriting
        system is confluent, else the non-pivot words of R_n, none if
        dim A_n = 0 above degree N."""
        if n < 0:
            raise ValueError(f"the degree n={n} must be nonnegative")
        if not self.confluence_report().passed:
            if n > self.N and self.dim_component(n) == 0:
                return []
            Rn = self._graded_relations(n).rows
            return [w for w in self.space.words(n) if w not in Rn]
        if n == 0:
            return [()]
        pivots, N = self.R.rows, self.N
        return [
            w + (letter,)
            for w in self.reduced_words(n - 1)
            for letter in range(1, self.dim_V + 1)
            if w[1 - N :] + (letter,) not in pivots
        ]

    @_cached
    def confluence_report(self) -> ConfluenceReport:
        """Overlap test for the reduction operator S with kernel R.

        For each overlap width i in 1..N-1, compare inside V^(x N+i):
        the image of the join of the two shifted operators (computed from
        the kernel intersection) against the span of their images (spanned
        by the monomials reduced for at least one of them).  Confluent means
        the first is no larger than the second.
        """
        report = ConfluenceReport()
        sp, N, d = self.space, self.N, self.dim_V
        pivots = self.R.rows
        for i in range(1, N):
            n = N + i
            lhs = d ** n - self._overlap_meet_dim(i)
            both_nonreduced = sum(
                1
                for w in sp.words(n)
                if w[:N] in pivots and w[i:] in pivots
            )
            rhs = d ** n - both_nonreduced
            report.add(i, lhs, rhs)
        return report

    @_cached
    def _overlap_meet_dim(self, i: int) -> int:
        """dim (R x V^i) cap (V^i x R): the rows of V^i x R are independent,
        and their residuals modulo R x V^i have the rank they add to it.  An R
        over half of V^(x N) goes through R^! (as R^!! = R): the meet is the
        annihilator of R^! x V^i + V^i x R^! (reversal pairing)."""
        d, N = self.dim_V, self.N
        if 2 * self.R.dim > d ** N:
            dual = self.dual_algebra()
            dual_sum = 2 * (d ** N - self.R.dim) * d ** i - dual._overlap_meet_dim(i)
            return d ** (N + i) - dual_sum
        right_residuals = (self.reduce_at(r, 0) for r in self.placement_rows(i, 0))
        return self.R.dim * d ** i - matrix_rank(right_residuals)

    @_cached
    def extra_condition_report(self) -> ExtraConditionReport:
        """Containment M = R x V^n cap V^n x R <= P = V^(n-1) x R x V, 2 <= n < N,
        with the defect dim M - dim(M cap P): the rank of M's residuals mod P."""
        report = ExtraConditionReport()
        sp, N = self.space, self.N
        for n in range(2, N):
            meet = span_meet(
                sp, n + N, self.placement_rows(0, n), lambda v: self.reduce_at(v, n)
            )
            defect = matrix_rank(self.reduce_at(row, n - 1) for row in meet.rows.values())
            report.entries.append((n, defect == 0, defect))
        return report

    def normal_form_word(self, word: Word) -> dict:
        """Normal form of a basis word as {basis word of A_n: coefficient},
        supported on :meth:`reduced_words`: the exact view of the store
        (:meth:`_nf_ints`), int when integral and Fraction otherwise, and the
        stored dict itself when den is 1.  A letter outside 1..d is a ValueError."""
        word = tuple(word)
        if not all(1 <= i <= self.dim_V for i in word):
            raise ValueError(f"a letter of {word} lies outside 1..{self.dim_V}")
        return scaled_view(*self._nf_ints(word))

    def _nf_ints(self, word: Word) -> tuple:
        """The store's entry (ints, den): nf(word) = ints/den, den > 0 coprime
        to the content.  A confluent system rewrites (:meth:`_rewrite_nf`);
        otherwise the residual modulo the echelon of R_n is converted once."""
        store = self._nf_store
        entry = store.get(word)
        if entry is not None:
            return entry
        if not self.confluence_report().passed:
            store[word] = scaled_ints(self._graded_relations(len(word)).reduce({word: 1}))
            return store[word]
        return self._rewrite_nf(word, self._rewrite_ints(), store)

    def _rewrite_nf(self, word: Word, rewrite: dict, store: dict) -> tuple:
        """The rewriting route of :meth:`_nf_ints`: the leftmost pivot window
        becomes its integer tail, and the placed tail words' entries are
        summed over the lcm of their dens, each filled in turn."""
        N = self.N
        entry = {word: 1}, 1
        for k in range(len(word) - N + 1):
            hit = rewrite.get(word[k : k + N])
            if hit is not None:
                tail, den = hit
                prefix, suffix = word[:k], word[k + N :]
                ints, sum_den = {}, 1
                for t, a in tail.items():
                    sub_word = prefix + t + suffix
                    sub, sub_den = store.get(sub_word) or self._rewrite_nf(sub_word, rewrite, store)
                    if sum_den % sub_den:
                        sum_den = rescale(ints, sum_den, sub_den)
                    axpy(ints, sub, a * (sum_den // sub_den))
                den *= sum_den
                if den > 1 and (g := gcd(den, *ints.values())) > 1:
                    ints, den = {w: c // g for w, c in ints.items()}, den // g
                entry = ints, den
                break
        store[word] = entry
        return entry

    def __repr__(self):
        return f"HomogAlgebra({self.label}: d={self.dim_V}, N={self.N}, dim R={self.R.dim})"


# ---------------------------------------------------------------------------
# white and black products, end(A)
# ---------------------------------------------------------------------------


def _interleave_rows(fmt1, fmt2, N, rows1, rows2):
    """Rows of c_sigma(span(rows1) x span(rows2)) inside (V x V')^(x N).

    rows1/rows2 iterate dicts over words of V^(x N) / V'^(x N).  A pair of
    words is one word of (V + V')^(x 2N), the letters of V' shifted by d1,
    and the shuffle sigma = (1, 3, ..., 2N-1, 2, 4, ..., 2N) in one-line
    notation sends v_1..v_N v'_1..v'_N to (v_1 v'_1)..(v_N v'_N) with the
    rule of signs (:func:`hecke._act` on the supersymmetry of V + V').  A
    pair (a, b) then becomes the letter (a-1)*d2 + b - d1 of V x V'.
    """
    d1, d2 = len(fmt1), len(fmt2)
    c = supersymmetry_operator(SuperSpace(fmt1 + fmt2))
    shuffle = [(Permutation([*range(1, 2 * N, 2), *range(2, 2 * N + 1, 2)]).reduced_word(), 1)]
    out = []
    for r1 in rows1:
        for r2 in rows2:
            seed = {w1 + tuple(b + d1 for b in w2): x1 * x2
                    for w1, x1 in r1.items() for w2, x2 in r2.items()}
            vec = {}
            for w, x in _act(c, shuffle, seed).items():
                vec[tuple((a - 1) * d2 + b - d1 for a, b in zip(w[::2], w[1::2]))] = x
            out.append(vec)
    return out


def homog_product(kind: str, A: HomogAlgebra, B: HomogAlgebra) -> HomogAlgebra:
    """The white (kind='white') or black (kind='black') product of A and B.

    White: relations are the shuffled image of R x V'^(x N) + V^(x N) x R'.
    Black: the shuffled image of R x R' alone.
    """
    if A.N != B.N:
        raise ValueError("products are defined only for equal relation degrees N")
    N = A.N
    fmt1, fmt2 = A.space.format, B.space.format
    # V x V': the pair (a, b) is the letter (a-1)*d2 + b, of parity a^ + b^
    W = SuperSpace([(x + y) % 2 for x in fmt1 for y in fmt2])
    full_A = [{w: 1} for w in A.space.words(N)]
    full_B = [{w: 1} for w in B.space.words(N)]
    rows_A = list(A.R.rows.values())
    rows_B = list(B.R.rows.values())
    if kind == "white":
        rows = _interleave_rows(fmt1, fmt2, N, rows_A, full_B)
        rows += _interleave_rows(fmt1, fmt2, N, full_A, rows_B)
        symbol = "o"
    elif kind == "black":
        rows = _interleave_rows(fmt1, fmt2, N, rows_A, rows_B)
        symbol = "*"
    else:
        raise ValueError(f"unknown product kind {kind!r}")
    label = f"({A.label} {symbol} {B.label})"
    return HomogAlgebra(W, N, Subspace(W, N, rows), label=label)


def end_algebra(A: HomogAlgebra) -> HomogAlgebra:
    """The universal coacting algebra: the black product of the dual with A.

    Generators z^i_j = x^i x x_j carry parity i^ + j^; the generator pair
    (i, j) is the letter (i-1)*d + j of the product space.
    """
    out = homog_product("black", A.dual_algebra(), A)
    out.label = f"end({A.label})"
    return out


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def tensor_algebra(fmt, N: int = 2) -> HomogAlgebra:
    space = fmt if isinstance(fmt, SuperSpace) else SuperSpace(fmt)
    return HomogAlgebra(space, N, Subspace(space, N), label=f"T({space.p}|{space.q})")


def quantum_superspace(fmt, q_table=None) -> HomogAlgebra:
    """Quadratic superalgebra with relations x_i x_i (i odd) and
    x_j x x_i - q_ij (-1)^(i^ j^) x_i x x_j = (1 - q_ij T_1)(x_j x x_i) for
    i < j, T_1 the rule-of-signs flip (:func:`hecke._act` on the
    supersymmetry).

    ``q_table`` maps pairs (i, j), 1 <= i < j <= d, to nonzero rationals;
    omitted pairs default to 1, and any other key raises ValueError.
    """
    space = fmt if isinstance(fmt, SuperSpace) else SuperSpace(fmt)
    d = space.dim
    q_table = dict(q_table or {})
    for i, j in q_table:
        if not 1 <= i < j <= d:
            raise ValueError(f"q-table key ({i},{j}) out of range for d={d}")
    c = supersymmetry_operator(space)
    rows = []
    for i in range(1, d + 1):
        if space.parity(i) == 1:
            rows.append({(i, i): 1})
    for i in range(1, d + 1):
        for j in range(i + 1, d + 1):
            qij = Fraction(q_table.get((i, j), 1))
            if qij == 0:
                raise ValueError(f"quantum parameter q[{i},{j}] must be nonzero")
            rows.append(_act(c, [((), 1), ((1,), -qij)], {(j, i): 1}))
    return HomogAlgebra(space, 2, Subspace(space, 2, rows), label=f"Sq({space.p}|{space.q})")


def yang_mills(fmt, G=None) -> HomogAlgebra:
    """Cubic superalgebra with one relation per generator x_j,

        sum over i, k of G[i][k] [x_i, [x_k, x_j]] = 0,

    supercommutators throughout (Connes and Dubois-Violette).  With T_2 the
    rule-of-signs swap of the last two letters and C = T_2 T_1, which moves
    the first letter to the end, [x_i, [x_k, x_j]] = (1 - C)(1 - T_2) x_i x_k
    x_j, so each relation is :func:`hecke._act` of (1 - C)(1 - T_2) for the
    supersymmetry on sum G[i][k] x_i x_k x_j.  ``G`` is either
    a list of d nonzero diagonal entries (default all ones) or a symmetric
    invertible d x d matrix vanishing across parities.  It is used as given,
    so the change of generators x -> Px carries the presentation of G to that
    of P G P^T.
    """
    space = fmt if isinstance(fmt, SuperSpace) else SuperSpace(fmt)
    d = space.dim
    if d < 2:
        raise ValueError("Yang-Mills algebras need at least two generators")
    if G is None:
        G = [1] * d
    if all(not isinstance(row, (list, tuple)) for row in G):
        diag = [Fraction(x) for x in G]
        if len(diag) != d or 0 in diag:
            raise ValueError("diagonal metric must list d nonzero entries")
        G = [[x if i == k else 0 for k in range(d)] for i, x in enumerate(diag)]
    M = [[Fraction(x) for x in row] for row in G]
    if len(M) != d or any(len(row) != d for row in M):
        raise ValueError("metric must be a d x d matrix")
    if any(M[i][k] != M[k][i] for i in range(d) for k in range(d)):
        raise ValueError("metric must be symmetric")
    if any(M[i][k] and space.format[i] != space.format[k] for i in range(d) for k in range(d)):
        raise ValueError("metric must vanish between different parities")
    if matrix_rank(dict(enumerate(row)) for row in M) < d:
        raise ValueError("metric is singular")
    c = supersymmetry_operator(space)
    brackets = [((), 1), ((2,), -1), ((2, 1), -1), ((2, 1, 2), 1)]  # (1 - C)(1 - T_2)
    seed = {(i + 1, k + 1): _integral(g) for i, row in enumerate(M) for k, g in enumerate(row) if g}
    rows = [_act(c, brackets, {ik + (j,): g for ik, g in seed.items()}) for j in range(1, d + 1)]
    return HomogAlgebra(space, 3, Subspace(space, 3, rows), label=f"YM({space.p}|{space.q})")


def n_symmetric(fmt, N: int) -> HomogAlgebra:
    """The N-symmetric superalgebra S_{R,N} of the supersymmetry R of V
    (q = 1): relations are the antisymmetric N-tensors, the image of Y_N."""
    space = fmt if isinstance(fmt, SuperSpace) else SuperSpace(fmt)
    return s_operator_algebra(supersymmetry_operator(space), N, f"S_{N}({space.p}|{space.q})")


def lambda_operator_algebra(R: YangBaxterOperator, N: int) -> HomogAlgebra:
    """Grassmann-type algebra of a Hecke operator: relations are the image
    of the q-symmetrizer in the operator's tensor representation."""
    rel = symmetrizer_image(R, N, "X")
    return HomogAlgebra(R.space, N, rel, label=f"Lambda_{N}[{R.label}]")


def s_operator_algebra(R: YangBaxterOperator, N: int, label: str = "") -> HomogAlgebra:
    """Symmetric-type algebra of a Hecke operator: relations are the image
    of the q-antisymmetrizer."""
    rel = symmetrizer_image(R, N, "Y")
    return HomogAlgebra(R.space, N, rel, label=label or f"S_{N}[{R.label}]")


def custom_algebra(fmt, N: int, relations, label: str = "") -> HomogAlgebra:
    """Algebra from explicit relations, each a list of (coeff, word) pairs."""
    space = fmt if isinstance(fmt, SuperSpace) else SuperSpace(fmt)
    rows = []
    for rel in relations:
        vec: dict = {}
        for coeff, word in rel:
            word = tuple(word)
            if len(word) != N:
                raise ValueError(f"relation word {word} must have degree N={N}")
            if any(not 1 <= i <= space.dim for i in word):
                raise ValueError(f"letters of {word} must lie in 1..{space.dim}")
            axpy(vec, {word: Fraction(coeff)}, 1)
        if vec:
            rows.append(vec)
    return HomogAlgebra(space, N, Subspace(space, N, rows), label=label or "custom")
