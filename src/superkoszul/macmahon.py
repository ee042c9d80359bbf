"""The supercommutative coefficient algebra of a generic supermatrix, the
Berezinian and elementary supersymmetric functions, supercharacters, and the
bit-exact verification of the N-generalized super master theorem.

The generic p|q supermatrix X has entries x[i,j] of parity i^ + j^ in a
supercommutative polynomial ring B.  Its characteristic coefficients e_n can
be computed two independent ways:

  * the Berezinian of 1 + tX, expanded as a truncated series by Gaussian
    elimination on the supermatrix, and
  * Newton's recurrence from the super power sums str(X^n), each summed over
    the closed walks of length n on the packed monomials below, without
    forming the matrix X^n;

:func:`char_function` runs both and refuses to return on any mismatch.  The
power-sum walk shares no code with the Berezinian elimination; the two routes
meet only in the ring arithmetic of :mod:`superpoly`.

The master identity multiplies two series in B[[t]]: the "bosonic" generating
series of diagonal expansion coefficients of products y_i = sum_j x_j (x) x[j,i]
over the reduced words of the N-symmetric superalgebra, and the alternating
subseries of the e_m with m = 0, 1 mod N.  The product must be exactly 1.

:func:`diagonal_coefficients` expands those products on a state of A (x) B
grouped by word, {reduced word: {packed monomial: coefficient}}, keyed on
the ints of :mod:`superpoly`, so the inner loop adds one variable's bit (an
odd one after a bit test and a popcount sign) and never multiplies
polynomials, and each word's normal form and prunes are settled once for
all its monomials.  Two prunes drop terms that can never come back
to the index word.  The triangular one drops every word tuple-greater than
the current prefix: a pivot is the smallest word of its relation row, so
rewriting only makes words tuple-greater.  The content one drops every word
whose letter content is too far from the prefix's to be mended by the
letters still to come: the relation rows of S_N keep the letter content, so
rewriting keeps it too.  Each word carries its content and its excess over
the prefix, so this prune costs one comparison per word and letter.
:meth:`GenericSupermatrix.power_sums` walks the same packed monomials, one
dict per current matrix index in place of the word.  A leaf of either walk
is already the terms dict of a :class:`SuperPolynomial`.

:func:`bosonic_factor` walks only one letter content per orbit of S_p x S_q,
the permutations of the letters that keep their parity: the contents that
are non-increasing on the even letters and on the odd letters.  A third
prune drops each prefix that the letters still to come cannot extend to
such a content.  These permutations keep S_N's relations and commute with
the coaction, and a block's supertrace does not depend on the basis, so the
signed sum over another content of the orbit is the representative's under
the substitution x[j,i] -> x[s j, s i] (:meth:`GenericSupermatrix.relabel`);
the proof is in :func:`bosonic_factor`.

The counit of B reads the diagonal monomials, one signed Kronecker product
builds the tensor-product matrices, and no function here bounds the
truncation order: the ``mt`` command of :mod:`cli` does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .homogeneous import HomogAlgebra, InternalInconsistencyError, n_symmetric
from .superpoly import (
    EXPONENT_LIMIT,
    _FIELD,
    SuperPolynomial,
    TruncatedSeries,
    VariableTable,
    _integral,
    axpy,
    newton_elementary,
)
from .tensorspace import SuperSpace, wedge_dimension


class GenericSupermatrix:
    """The d x d matrix of independent supercommuting generators x[i,j]."""

    def __init__(self, p: int, q: int):
        if p < 0 or q < 0 or p + q == 0:
            raise ValueError("need p, q >= 0 with p + q >= 1")
        self.p = p
        self.q = q
        self.d = p + q
        self.space = SuperSpace.standard(p, q)
        self.table = VariableTable()
        self.ids = {}
        for i in range(1, self.d + 1):
            for j in range(1, self.d + 1):
                parity = (self.space.parity(i) + self.space.parity(j)) % 2
                self.ids[(i, j)] = self.table.add(f"x[{i},{j}]", parity)
        self.entries = [
            [self.table.variable(self.ids[(i, j)]) for j in range(1, self.d + 1)]
            for i in range(1, self.d + 1)
        ]

    def entry(self, i: int, j: int) -> SuperPolynomial:
        return self.entries[i - 1][j - 1]

    def counit(self, poly: SuperPolynomial) -> int | Fraction:
        """x[i,j] -> Kronecker delta: the coefficient sum of the monomials of
        diagonal even variables only, an int when it is integral."""
        diagonal = {self.ids[(i, i)] for i in range(1, self.d + 1)}
        decoded = (self.table.decode(m) + (c,) for m, c in poly.terms.items())
        return _integral(sum(c for even, odd, c in decoded
                             if not odd and all(vid in diagonal for vid, _ in even)))

    def relabel(self, poly: SuperPolynomial, sigma) -> SuperPolynomial:
        """The substitution x[j,i] -> x[sigma(j), sigma(i)] applied to a
        polynomial in X's entries, for a permutation ``sigma`` of the letters
        1..d in one-line notation that keeps every letter's parity.

        On a packed monomial each even field moves to its image's field, one
        mask and shift for all the fields that move the same distance, and
        each odd bit to its image's bit.  The monomial's odd variables stand
        in increasing order, so the term is signed by the parity of the pairs
        of odd images that the substitution puts out of order; the images and
        sign of each odd part are worked out once per call."""
        fmt, d = self.space.format, self.d
        if sorted(sigma) != list(range(1, d + 1)) or any(
                fmt[k] != fmt[s - 1] for k, s in enumerate(sigma)):
            raise ValueError(f"{sigma} is no parity-preserving permutation of 1..{d}")
        table, odd_mask = self.table, self.table.odd_mask
        shifts: dict[int, int] = {}  # shift distance -> the even fields it moves
        odd = []
        for (j, i), vid in self.ids.items():
            src, dst = table.shifts[vid], table.shifts[self.ids[(sigma[j - 1], sigma[i - 1])]]
            if table.parity(vid):
                odd.append((src, dst))
            else:
                shifts[dst - src] = shifts.get(dst - src, 0) | _FIELD << src
        left = [(mask, k) for k, mask in shifts.items() if k >= 0]
        right = [(mask, -k) for k, mask in shifts.items() if k < 0]
        odd.sort()  # the odd variables of a monomial, lowest bit first
        images: dict[int, tuple] = {}  # odd bits -> (their images, sign)
        terms = {}
        for m, c in poly.terms.items():
            o = m & odd_mask
            image = images.get(o)
            if image is None:
                bits = flips = 0
                for src, dst in odd:
                    if o >> src & 1:
                        flips += (bits >> dst).bit_count()
                        bits |= 1 << dst
                image = images[o] = (bits, -1 if flips & 1 else 1)
            out, sign = image
            m ^= o
            for mask, k in left:
                out |= (m & mask) << k
            for mask, k in right:
                out |= (m & mask) >> k
            terms[out] = sign * c
        return SuperPolynomial(table, terms)

    def power_sums(self, K: int) -> list[SuperPolynomial]:
        """p_n = str(X^n) for n = 1..K, as sums over closed walks.

        X^n[s,s] is the sum of x[s,l_1] x[l_1,l_2] ... x[l_(n-1),s] over all
        walks of length n from s back to s.  Each start s keeps one state per
        current vertex l, {packed monomial: coefficient}; multiplying on the
        right by x[l,j] adds the variable's bit, after a bit test and a sign
        flip per odd bit above it when x[l,j] is odd.  After n steps the terms
        back at s, signed by (-1)^(s^), add up to p_n."""
        step = _steps(self, K)
        fmt, d = self.space.format, self.d
        sums: list[dict] = [{} for _ in range(K)]
        for s in range(1, d + 1):
            sign = -1 if fmt[s - 1] else 1
            state = [{} for _ in range(d)]
            state[s - 1][0] = 1
            for n in range(K):
                # the last step only needs the walks that close at s
                ends = (s,) if n == K - 1 else range(1, d + 1)
                new = [{} for _ in range(d)]
                for l, monos in enumerate(state, 1):
                    for j in ends:
                        odd, bit, above = step[(l, j)]
                        out = new[j - 1]
                        for m, c in monos.items():
                            if odd:
                                if m & bit:
                                    continue
                                if (m & above).bit_count() & 1:
                                    c = -c
                            m += bit
                            t = out.get(m, 0) + c
                            if t:
                                out[m] = t
                            else:
                                del out[m]
                state = new
                axpy(sums[n], state[s - 1], sign)
        return [SuperPolynomial(self.table, trace) for trace in sums]

    def __repr__(self):
        return f"GenericSupermatrix({self.p}|{self.q})"


def _steps(X: GenericSupermatrix, length: int) -> dict:
    """The step table that both walks over X use, for walks of at most
    ``length`` steps: x[i,j] -> (is odd, its bit in a packed monomial, the
    odd bits above it).  Each walk applies a step inline: it is the innermost
    loop, where a function call per term measurably slows the bosonic walk.

    A walk from the constant monomial raises each exponent at most once per
    step, so a walk shorter than :data:`EXPONENT_LIMIT` never reaches a
    guard bit; a longer one is refused with :class:`OverflowError`."""
    if length >= EXPONENT_LIMIT:
        raise OverflowError(f"a walk of {length} steps can pass the exponent limit {EXPONENT_LIMIT}")
    table = X.table
    return {
        ij: (table.parity(vid), table.monomial(vid),
             table.odd_mask & -(table.monomial(vid) << 1))
        for ij, vid in X.ids.items()
    }


# ---------------------------------------------------------------------------
# Berezinian of 1 + tX
# ---------------------------------------------------------------------------


def berezinian_series(X: GenericSupermatrix, K: int) -> TruncatedSeries:
    """ber(1 + tX) expanded as a truncated series, by Gaussian elimination
    without row exchanges.

    The constant term of 1 + tX is the identity, so every pivot is even with
    constant term 1: central and invertible in B[[t]].  Row operations keep
    the order M[r][k] pivot^-1 M[k][c], so odd entries never move past each
    other.  After the p even rows the trailing block is D - C A^-1 B; the even
    pivots multiply to det A, the odd ones to det(D - C A^-1 B), and
    ber = det A / det(D - C A^-1 B)."""
    one, zero = X.table.one(), X.table.zero()
    M = [
        [
            TruncatedSeries(K, ([one if i == j else zero, X.entry(i, j)] + [zero] * K)[: K + 1])
            for j in range(1, X.d + 1)
        ]
        for i in range(1, X.d + 1)
    ]
    ber = TruncatedSeries.one(K, one)
    for k in range(X.d):
        inverse = M[k][k].inverse()
        ber = ber * (inverse if X.space.parity(k + 1) else M[k][k])
        for r in range(k + 1, X.d):
            factor = M[r][k] * inverse
            for c in range(k + 1, X.d):
                M[r][c] = M[r][c] - factor * M[k][c]
    return ber


def char_function(X: GenericSupermatrix, K: int) -> list[SuperPolynomial]:
    """e_0..e_K from Newton's recurrence on p_n = str(X^n), hard-checked
    against the Berezinian expansion."""
    es = newton_elementary(X.power_sums(K), K)
    ber = berezinian_series(X, K)
    for n in range(K + 1):
        if es[n] != ber.coeffs[n]:
            raise InternalInconsistencyError(
                f"e_{n} mismatch for {X}:\n  newton:     {es[n]}\n  berezinian: {ber.coeffs[n]}"
            )
    return es


# ---------------------------------------------------------------------------
# supercharacters
# ---------------------------------------------------------------------------


def check_entry_parities(matrix, fmt) -> None:
    """Raise ValueError if a nonzero polynomial entry (i, j) of the matrix
    does not have parity i^+j^ in the given format.  Only SuperPolynomial
    entries are checked: a scalar entry is accepted at any position, so a
    scalar matrix may be even or odd."""
    for i, row in enumerate(matrix):
        for j, entry in enumerate(row):
            if isinstance(entry, SuperPolynomial):
                par = entry.parity()
                if par is not None and par != (fmt[i] + fmt[j]) % 2:
                    raise ValueError(
                        f"entry ({i + 1},{j + 1}) has parity {par}, "
                        f"expected {(fmt[i] + fmt[j]) % 2}"
                    )


def supertrace(matrix, fmt) -> object:
    """Supertrace sum_i (-1)^(i^) M[i][i] of a square matrix.

    Entries may be rationals or SuperPolynomials.  A polynomial entry (i, j)
    must have parity i^+j^, else ValueError; scalar entries are not checked,
    so scalar matrices of either parity are accepted (an odd one, with zero
    diagonal blocks, has supertrace 0).
    """
    fmt = tuple(fmt)
    d = len(matrix)
    if any(len(row) != d for row in matrix) or d != len(fmt):
        raise ValueError("matrix shape does not match the format")
    check_entry_parities(matrix, fmt)
    total = None
    for i in range(d):
        term = matrix[i][i] if fmt[i] == 0 else -matrix[i][i]
        total = term if total is None else total + term
    return total


def supercharacter(b, F, fmt) -> SuperPolynomial:
    """chi^s(f) = sum (-1)^(i^ j^) b[i][j] F[j][i] for a coaction matrix b and
    an endomorphism matrix F over a comodule with the given format."""
    fmt = tuple(fmt)
    d = len(fmt)
    if len(b) != d or len(F) != d:
        raise ValueError("matrix sizes do not match the format")
    check_entry_parities(b, fmt)
    total = None
    for i in range(d):
        for j in range(d):
            term = b[i][j] * F[j][i]
            if fmt[i] and fmt[j]:
                term = -term
            total = term if total is None else total + term
    return total


def _signed_kronecker(A, B, negate):
    """The Kronecker product of two square matrices, A[i][j] B[k][l] at
    ((i,k), (j,l)), negated where ``negate(i, j, k)`` holds."""
    m, n = range(len(A)), range(len(B))
    return [
        [-(A[i][j] * B[k][l]) if negate(i, j, k) else A[i][j] * B[k][l] for j in m for l in n]
        for i in m for k in n
    ]


def coaction_tensor(b1, fmt1, b2, fmt2):
    """Coaction matrix of a tensor product of comodules.

    Entry ((i,k), (j,l)) = (-1)^((i^+j^) k^) b1[i][j] b2[k][l]: the first
    factor's coefficient moves past the second comodule's basis vector.
    """
    fmt = [(a + b) % 2 for a in fmt1 for b in fmt2]
    return _signed_kronecker(b1, b2, lambda i, j, k: (fmt1[i] + fmt1[j]) % 2 and fmt2[k]), fmt


def endo_tensor(F, fmt1, G, parity_G: int):
    """Matrix of f (x) g on the tensor product: entries pick up the sign
    (-1)^(g^ j^) from moving g past the first factor's basis vector."""
    return _signed_kronecker(F, G, lambda i, j, k: parity_G and fmt1[j])


def generic_coaction(X: GenericSupermatrix):
    """The canonical coaction matrix (b[i][j] = x[i,j]) on the base comodule."""
    return X.entries, X.space.format


def coaction_power(X: GenericSupermatrix, n: int):
    """Coaction matrix of the n-th tensor power of the base comodule."""
    if n == 0:
        return [[X.table.one()]], (0,)
    b, fmt = generic_coaction(X)
    out, ofmt = b, list(fmt)
    for _ in range(n - 1):
        out, ofmt = coaction_tensor(out, ofmt, b, fmt)
    return out, tuple(ofmt)


# ---------------------------------------------------------------------------
# the master identity
# ---------------------------------------------------------------------------

def lambda_set(p: int, q: int, N: int, length: int) -> list[tuple]:
    """Index words of the reduced-monomial basis of the N-symmetric algebra:
    words over 1..p+q with no length-N window that increases strictly through
    the even range 1..p and then weakly through the odd range p+1..p+q."""
    if N < 2:
        raise ValueError(f"the relation degree N={N} must be at least 2")
    d = p + q

    def window_forbidden(win):
        for a, b in zip(win, win[1:]):
            if a <= p and b <= p:
                if not a < b:
                    return False
            elif a <= p < b:
                continue
            elif a > p and b > p:
                if not a <= b:
                    return False
            else:  # a > p >= b: odd before even never matches the pattern
                return False
        return True

    out = []
    for word in itertools.product(range(1, d + 1), repeat=length):
        if any(window_forbidden(word[k : k + N]) for k in range(len(word) - N + 1)):
            continue
        out.append(word)
    return out


def diagonal_coefficients(X: GenericSupermatrix, A: HomogAlgebra, length: int, *, blocks=()):
    """All diagonal coefficients X(i) over the reduced index words i of
    length 1..``length``: expand y_{i_1}...y_{i_l} in A (x) B down one prefix
    tree over the reduced words and read off, at every node, the coefficient
    of the basis word equal to the index word itself.

    ``blocks`` restricts the index words to those whose letter content is
    non-increasing along each block, a sequence of letters; by default every
    reduced word is an index word.  :func:`bosonic_factor` walks the orbit
    representatives of S_N(p|q) this way.

    The state is grouped by word: {reduced word: (monomials, content,
    excess)}, the monomials {packed monomial: coefficient} in the layout of
    :mod:`superpoly`.  Multiplying by y_i = sum_j x_j (x) x[j,i] forms
    w + (j,), its prunes and its normal form once per (word w, letter j),
    then walks the monomials of w: each adds the bit of x[j,i]; an odd
    x[j,i] first drops a monomial that holds it already and flips the sign
    once per odd bit above its own.  Each node builds one
    :class:`SuperPolynomial`, from the group of its own word; nothing else
    does.

    Triangular prune: a pivot is the smallest word of its relation row, so
    every rewrite replaces a window by tuple-greater windows and every word
    of nf(w) is tuple->= w.  A term whose word is tuple-greater than the
    prefix therefore stays greater than every word extending the prefix, and
    it is dropped as soon as it appears; nf(w) is kept sorted, so its words
    up to the new prefix are read in one pass that stops at the first word
    beyond it.

    Content prune: every relation row of A holds words of one letter content
    (checked here; :class:`ValueError` otherwise), so every rewrite keeps the
    content and every word of nf(w) has the content of w.  At a node of
    length l, a term of word w can reach the index word prefix + s of a node
    below, |s| <= ``length`` - l, only as a word of nf(w + s') with |s'| =
    |s|.  Equal contents need content(s) - content(s') = content(w) -
    content(prefix), so |s| is at least the excess of w, the positive part
    of that difference, which is half its L1 norm because both contents
    count l letters.  Each word carries its content and its excess over the
    prefix.  Appending i to the prefix lowers the excess by one exactly when
    w holds i more often than the prefix does; appending j to w then raises
    it by one exactly when w holds j at least as often as the new prefix
    does.  The pair (w, j) is dropped, before its normal form is read, when
    that excess is above the letters still to come.

    Representative prune: a prefix of content c extends to an index word
    whose content is non-increasing along a block only by at least the sum,
    over the block's letters k, of max(c at k and later letters) - c_k
    letters, so a prefix is dropped with its subtree when that shortfall is
    above the letters still to come."""
    fmt, d = X.space.format, X.d
    for row in A.R.rows.values():
        if len({tuple(sorted(w)) for w in row}) > 1:
            raise ValueError(f"{A.label}: a relation row mixes letter contents")
    step = _steps(X, length)
    table, odd_mask = X.table, X.table.odd_mask
    letters = range(1, d + 1)
    blocks = [tuple(reversed(block)) for block in blocks]
    nf_memo: dict[tuple, list] = {}
    results: dict[tuple, SuperPolynomial] = {}

    def nf(word):
        items = nf_memo.get(word)
        if items is None:
            items = nf_memo[word] = sorted(A.normal_form_word(word).items())
        return items

    def shortfall(content):
        short = 0
        for block in blocks:
            top = 0
            for k in block:
                if content[k - 1] > top:
                    top = content[k - 1]
                else:
                    short += top - content[k - 1]
        return short

    def extend(prefix, cp, state: dict):
        if prefix and not shortfall(cp):
            entry = state.get(prefix)
            results[prefix] = SuperPolynomial(table, entry[0] if entry else {})
        budget = length - len(prefix) - 1  # letters still to come below nxt
        if budget < 0:
            return
        for i in letters:
            nxt = prefix + (i,)
            if not A.is_reduced(nxt):
                continue
            cn = cp[: i - 1] + (cp[i - 1] + 1,) + cp[i:]
            if shortfall(cn) > budget:
                continue
            ti = cn[i - 1]
            # multiply the state by y_i = sum_j x_j (x) x[j,i]
            new: dict = {}
            for w, (monos, cw, excess) in state.items():
                if cw[i - 1] >= ti:
                    excess -= 1
                if excess > budget:
                    continue
                for j in letters:
                    wj = w + (j,)
                    if wj > nxt:  # so is every word of nf(wj), and every later j
                        break
                    cj = cw[j - 1]
                    if cj >= cn[j - 1]:
                        if excess == budget:
                            continue
                        ej = excess + 1
                    else:
                        ej = excess
                    buckets = []
                    cwj = None
                    for u, b in nf(wj):
                        if u > nxt:
                            break
                        entry = new.get(u)
                        if entry is None:
                            if cwj is None:
                                cwj = cw[: j - 1] + (cj + 1,) + cw[j:]
                            entry = new[u] = ({}, cwj, ej)
                        buckets.append((entry[0], b))
                    if not buckets:
                        continue
                    odd, bit, above = step[(j, i)]
                    passes = fmt[j - 1]
                    for m, c in monos.items():
                        # x_j passes the B-coefficient, whose parity is that of m's odd bits
                        a = -c if passes and (m & odd_mask).bit_count() & 1 else c
                        if odd:
                            if m & bit:
                                continue
                            if (m & above).bit_count() & 1:
                                a = -a
                        m += bit
                        for bucket, b in buckets:
                            s = bucket.get(m, 0) + a * b
                            if s:
                                bucket[m] = s
                            else:
                                del bucket[m]
            extend(nxt, cn, {u: entry for u, entry in new.items() if entry[0]})

    empty = (0,) * d
    extend((), empty, {(): ({0: 1}, empty, 0)})
    return results


def bosonic_factor(X: GenericSupermatrix, N: int, K: int) -> TruncatedSeries:
    """The generating series sum_l sum_i (-1)^(i^) X(i) t^l over the reduced
    words of the N-symmetric algebra on X's space, with coefficients in the
    generic supermatrix algebra.

    The sum is taken over letter contents: ch_a = sum (-1)^(i^) X(i) over the
    reduced words i of content a is the supertrace of the (a, a) block of the
    coaction on A_l.  A permutation s of the letters that keeps every parity
    (s in S_p x S_q) keeps S_N's relations, which are built from the signed
    symmetric-group action and so see only parities; it is an automorphism
    s_A of A, x_k -> x_(s k), and it maps A_a onto A_(sa), (sa)_(s k) = a_k.
    With s_B the substitution x[j,i] -> x[s j, s i] of B (see
    :meth:`GenericSupermatrix.relabel`), (s_A (x) s_B) delta = delta s_A on
    every generator, since y_(s i) = sum_j x_(s j) (x) x[s j, s i]; both sides
    are algebra maps, so this holds on A.  In the basis s_A(i) of A_(sa), the
    (sa, sa) block of the coaction is therefore s_B applied to the (a, a)
    block in the reduced-word basis.  Both bases consist of content-
    homogeneous elements, so they differ by a block-diagonal scalar matrix,
    and a block's supertrace does not depend on the basis: ch_(sa) =
    s_B(ch_a).  So only the index words of one content per orbit are walked,
    those non-increasing on the even letters 1..p and on the odd letters
    p+1..p+q, and every other content of the orbit is added by substitution."""
    A = n_symmetric(X.space, N)
    # the triangular prune and the is_reduced walk hold for rewriting normal
    # forms only; N-symmetric algebras are confluent
    if not A.confluence_report().passed:
        raise InternalInconsistencyError(f"{A.label}: rewriting is not confluent")
    p, d = X.p, X.d
    letters = range(1, d + 1)
    chars: dict[tuple, dict] = {}
    blocks = (range(1, p + 1), range(p + 1, d + 1))
    for word, poly in diagonal_coefficients(X, A, K, blocks=blocks).items():
        content = tuple(map(word.count, letters))
        axpy(chars.setdefault(content, {}), poly.terms, -1 if A.space.word_parity(word) else 1)
    sigmas = [even + odd for even in itertools.permutations(blocks[0])
              for odd in itertools.permutations(blocks[1])]
    sums: list[dict] = [{} for _ in range(K)]
    for content, terms in chars.items():
        orbit = {}  # (s a)_m = a_(s^-1 m): one s per content of the orbit
        for sigma in sigmas:
            orbit.setdefault(tuple(content[sigma.index(m)] for m in letters), sigma)
        ch = SuperPolynomial(X.table, terms)
        total = sums[sum(content) - 1]
        axpy(total, terms, 1)  # the identity, the first of the sigmas
        for sigma in itertools.islice(orbit.values(), 1, None):
            axpy(total, X.relabel(ch, sigma).terms, 1)
    return TruncatedSeries(K, [X.table.one()] + [SuperPolynomial(X.table, s) for s in sums])


def fermionic_factor(X: GenericSupermatrix, N: int, K: int) -> TruncatedSeries:
    """The alternating subseries of the characteristic function: coefficient
    (-1)^(m mod N) e_m at every m = 0, 1 mod N, zero elsewhere."""
    es = char_function(X, K)
    coeffs = []
    for m in range(K + 1):
        r = m % N
        if r in (0, 1):
            coeffs.append(es[m] if r == 0 else -es[m])
        else:
            coeffs.append(X.table.zero())
    return TruncatedSeries(K, coeffs)


@dataclass
class SeriesIdentityReport:
    K: int
    left: TruncatedSeries
    right: TruncatedSeries
    product: TruncatedSeries
    passed: bool

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"master identity through t^{self.K}: {status}"


def master_verify(p: int, q: int, N: int, K: int) -> SeriesIdentityReport:
    """Multiply the bosonic generating series by the alternating subseries of
    the supersymmetric functions and compare with 1, all exactly."""
    X = GenericSupermatrix(p, q)
    left = bosonic_factor(X, N, K)
    right = fermionic_factor(X, N, K)
    product = left * right
    one = TruncatedSeries.one(K, X.table.one())
    return SeriesIdentityReport(K, left, right, product, product == one)


# ---------------------------------------------------------------------------
# closed-form Hilbert series
# ---------------------------------------------------------------------------


def closed_form_hilbert(p: int, q: int, N: int, K: int, kind: str = "dim") -> TruncatedSeries:
    """Hilbert series of the N-symmetric superalgebra of a p|q space from the
    closed-form reciprocal, cross-checked against direct enumeration of the
    reduced words of ``n_symmetric``, walked letter by letter (the
    brute-force filter :func:`lambda_set` is kept as an independent reference
    for tests).

    kind='dim': coefficients count the reduced words of each length.
    kind='sdim': coefficients are the parity-signed counts.
    """
    denom = [0] * (K + 1)
    for m in range(K + 1):
        r = m % N
        if r not in (0, 1):
            continue
        if kind == "dim":
            denom[m] = (-1) ** r * wedge_dimension(p, q, m)
        elif kind == "sdim":
            if p >= q:
                denom[m] = (-1) ** r * comb(p - q, m) if m <= p - q else 0
            else:
                alpha = m - m % N
                denom[m] = (-1) ** alpha * comb(m + q - p - 1, q - p - 1)
        else:
            raise ValueError(f"unknown kind {kind!r}")
    series = TruncatedSeries(K, denom).inverse()

    # independent enumeration: the reduced words, walked letter by letter
    A = n_symmetric(SuperSpace.standard(p, q), N)
    for length in range(K + 1):
        words = A.reduced_words(length)
        if kind == "dim":
            expected = len(words)
        else:
            expected = sum(-1 if A.space.word_parity(w) else 1 for w in words)
        if series.coeffs[length] != expected:
            raise InternalInconsistencyError(
                f"closed-form {kind} coefficient at t^{length} is "
                f"{series.coeffs[length]}, enumeration gives {expected}"
            )
    return series
