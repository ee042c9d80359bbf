"""The Koszul complex of an N-homogeneous superalgebra, degreewise exactness
checking, Tor via minimal graded-free resolutions, and Hilbert-series duality.

The complex alternates two differentials built from one contraction map d
(move the leading tensor letter into the algebra factor):

    ... --d^(N-1)--> A x D_{N+1} --d--> A x D_N --d^(N-1)--> A x D_1 --d--> A x D_0

with components A x D_{nu(i)} where D_m is the degree-m graded dual of the
dual algebra (D_m = V^(x m) below degree N, the intersection of all placements
of R from degree N on) and the jump function

    nu(i) = (i/2) N       for even i,
    nu(i) = ((i-1)/2) N + 1   for odd i.

The differential into homological degree i-1 applies d once when i is odd and
N-1 times when i is even.  Since D_m lies in V^(x k) x D_{m-k}, applying d k
times to a row of D_m needs that row split only once, as the sum of
u (x) tail_u with u of length k: one component of the coproduct of the dual
coalgebra, tabulated per (m, k) by :meth:`HomogAlgebra.dual_coproduct` with
the tails in coordinates of D_{m-k}.  A slice column is then assembled from
that table and the normal forms of A alone.

Exactness in positive homological degrees, checked per total degree by exact
rank arithmetic, is the Koszul property; the checker only ever claims it up
to the requested truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .homogeneous import HomogAlgebra
from .superpoly import TruncatedSeries
from .tensorspace import RankCounter, axpy, kernel_of_vectors, matrix_rank


def jump(N: int, i: int) -> int:
    """The homological jump nu_N(i)."""
    if i < 0:
        raise ValueError("homological index must be nonnegative")
    if i % 2 == 0:
        return (i // 2) * N
    return ((i - 1) // 2) * N + 1


@dataclass
class KoszulSlice:
    """The matrix of one differential delta_i in one total degree n."""

    algebra: HomogAlgebra
    i: int
    n: int
    source_basis: list  # (reduced word, pivot of dual-star row)
    target_basis: list
    columns: dict  # source index -> {target index: coeff}

    @property
    def source_dim(self) -> int:
        return len(self.source_basis)

    @property
    def target_dim(self) -> int:
        return len(self.target_basis)

    def rank(self) -> int:
        return matrix_rank(self.columns.values())

    def compose_is_zero_with(self, next_slice: "KoszulSlice") -> bool:
        """delta_i . delta_{i+1} = 0 on the given slices."""
        index = {b: k for k, b in enumerate(self.source_basis)}
        for col in next_slice.columns.values():
            out: dict = {}
            for b, c in col.items():
                axpy(out, self.columns.get(index[b], {}), c)
            if out:
                return False
        return True


def _times(A: HomogAlgebra, w, elem: dict) -> dict:
    """w * elem in a free A-module with elem = {(reduced word u, slot h): c}:
    the sum of c * nf(w u), keyed by (reduced word v, slot h).  Integral
    normal-form coefficients enter as ints, so integral elements stay
    integral and skip Fraction normalisation."""
    out: dict = {}
    for (u, h), c in elem.items():
        for v, a in A.normal_form_word(w + u).items():
            if a.denominator == 1:
                a = a.numerator
            key = (v, h)
            s = out.get(key, 0) + c * a
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def _slice_bases(A: HomogAlgebra, i: int, n: int):
    m = jump(A.N, i)
    if n - m < 0:
        return m, []
    words = A.reduced_words(n - m)
    dual_rows = sorted(A.dual_star_component(m).rows)
    return m, [(w, pvt) for w in words for pvt in dual_rows]


def koszul_matrix(A: HomogAlgebra, i: int, n: int) -> KoszulSlice:
    """The differential delta_i : A_{n-nu(i)} x D_{nu(i)} -> previous slot.

    Bases: the basis words of A (:meth:`HomogAlgebra.reduced_words`)
    tensored with the echelon rows of the graded dual components.  The
    differential contracts the first ``steps`` letters of a D_m row into A,
    steps = nu(i) - nu(i-1).  Each row splits once, in the coproduct table
    :meth:`HomogAlgebra.dual_coproduct`, as the sum of u (x) tail_u with the
    tails in target coordinates; the column of (w, row) is then the sum of
    nf(w u) (x) coordinates(tail_u).  Integral coefficients stay ints.
    """
    if i < 1:
        raise ValueError("differentials start at homological degree 1")
    m, source = _slice_bases(A, i, n)
    m_prev, target = _slice_bases(A, i - 1, n)
    if not source:  # no column reads D_m, so it is not built
        return KoszulSlice(A, i, n, source, target, {})
    table = A.dual_coproduct(m, m - m_prev)
    columns: dict = {}
    for idx, (w, pvt) in enumerate(source):
        col: dict = {}
        for u, coords in table[pvt]:
            for v, a in A.normal_form_word(w + u).items():
                if a.denominator == 1:
                    a = a.numerator
                axpy(col, {(v, t): c for t, c in coords.items()}, a)
        if col:
            columns[idx] = col
    return KoszulSlice(A, i, n, source, target, columns)


@dataclass
class KoszulVerdict:
    passed: bool
    deg_max: int
    failures: list = field(default_factory=list)  # (i, n, defect)

    def __str__(self):
        if self.passed:
            return f"Koszul complex exact in positive degrees through total degree {self.deg_max}"
        parts = ", ".join(f"(i={i}, n={n}, defect={d})" for i, n, d in self.failures)
        return f"Koszul complex NOT exact: {parts}"


def koszul_check(A: HomogAlgebra, deg_max: int) -> KoszulVerdict:
    """Exactness of the Koszul complex in homological degrees >= 1, per total
    degree n <= deg_max: rank(delta_i) + rank(delta_{i+1}) must exhaust the
    middle term.  Exact rank arithmetic throughout; the verdict claims
    nothing beyond the truncation."""
    failures = []
    rank_cache: dict = {}

    def rank_of(i: int, n: int) -> int:
        key = (i, n)
        if key not in rank_cache:
            rank_cache[key] = koszul_matrix(A, i, n).rank()
        return rank_cache[key]

    for n in range(1, deg_max + 1):
        i = 1
        while (m := jump(A.N, i)) <= n:
            middle = len(A.reduced_words(n - m)) * A.dual_star_component(m).dim
            if middle:
                defect = middle - rank_of(i, n) - rank_of(i + 1, n)
                if defect:
                    failures.append((i, n, defect))
            i += 1
    return KoszulVerdict(not failures, deg_max, failures)


# ---------------------------------------------------------------------------
# Tor via a minimal graded-free resolution
# ---------------------------------------------------------------------------


@dataclass
class TorTable:
    """dims[i][n] = dim of the degree-n part of the i-th Tor group."""

    i_max: int
    deg_max: int
    dims: dict = field(default_factory=dict)

    def dim(self, i: int, n: int) -> int:
        return self.dims.get(i, {}).get(n, 0)

    def concentrated_degrees(self, i: int):
        return sorted(n for n, v in self.dims.get(i, {}).items() if v)

    def __str__(self):
        lines = []
        for i in range(self.i_max + 1):
            row = [self.dim(i, n) for n in range(self.deg_max + 1)]
            lines.append(f"Tor_{i}: " + " ".join(map(str, row)))
        return "\n".join(lines)


def tor_dims(A: HomogAlgebra, i_max: int, deg_max: int) -> TorTable:
    """Betti numbers of the trivial module from a minimal resolution.

    Degreewise construction: the next generator space in homological degree
    i+1 is a complement of A_+ * ker(d_i) inside ker(d_i).  Free modules are
    encoded on bases (basis word of A, generator); kernels and complements
    are exact eliminations.
    """
    table = TorTable(i_max, deg_max, {0: {0: 1}})

    # generators of F_i: list of (degree, value) where value is an element of
    # F_{i-1} as {(word, gen_index): coeff}; F_0 = A has one degree-0 generator.
    gens: list = [(0, None)]

    def module_basis(gens_list, n):
        out = []
        for g, (degg, _) in enumerate(gens_list):
            if n - degg < 0:
                continue
            out.extend((w, g) for w in A.reduced_words(n - degg))
        return out

    for i in range(0, i_max):
        # kernel of d_i per degree, then split off a minimal complement
        if i == 0:
            kernels = {
                n: [{(w, 0): 1} for w in A.reduced_words(n)]
                for n in range(1, deg_max + 1)
            }
        else:
            kernels = {}
            for n in range(1, deg_max + 1):
                basis = module_basis(gens, n)
                images = [_times(A, w, gens[g][1]) for w, g in basis]
                # basis keys are distinct and kernel tags nonzero
                kernels[n] = [
                    {basis[k]: c for k, c in combo.items()}
                    for combo in kernel_of_vectors(images)
                ]
        # (A_+ K)_n = V . K_{n-1} since K is an A-submodule; one echelon per
        # degree, with the surviving kernel vectors as the minimal generators
        new_gens: list = []
        dims_i1: dict = {}
        for n in range(1, deg_max + 1):
            radical = RankCounter()
            for letter in range(1, A.dim_V + 1):
                for z in kernels.get(n - 1, []):
                    radical.insert(_times(A, (letter,), z))
            complements = []
            for z in kernels.get(n, []):
                if radical.insert(z):
                    complements.append(z)
            if complements:
                dims_i1[n] = len(complements)
                new_gens.extend((n, z) for z in complements)
        table.dims[i + 1] = dims_i1
        gens = new_gens
        if not gens:
            break
    return table


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


def hilbert_series(A: HomogAlgebra, K: int) -> TruncatedSeries:
    """sum of dim A_n t^n, truncated at order K; see
    :meth:`HomogAlgebra.dim_component` for how each coefficient is found."""
    return TruncatedSeries(K, [Fraction(A.dim_component(n)) for n in range(K + 1)])


def alternating_dual_series(A: HomogAlgebra, K: int) -> TruncatedSeries:
    """sum over i of (-1)^i dim D_{nu(i)} t^{nu(i)} where D is the graded
    dual of the dual algebra; all other coefficients vanish.

    dim D_m = dim A^!_m, so from degree 2N on a confluent A^! gives it as a
    reduced-word count; otherwise D_m is built by intersection."""
    coeffs = [Fraction(0)] * (K + 1)
    dual = A.dual_algebra()
    i = 0
    while jump(A.N, i) <= K:
        m = jump(A.N, i)
        if m >= 2 * A.N and dual.confluence_report().passed:
            dim = dual.dim_component(m)
        else:
            dim = A.dual_star_component(m).dim
        coeffs[m] = Fraction((-1) ** i * dim)
        i += 1
    return TruncatedSeries(K, coeffs)


@dataclass
class DualityVerdict:
    passed: bool
    K: int
    series: TruncatedSeries
    dual_series: TruncatedSeries
    product: TruncatedSeries

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"Hilbert-series duality product == 1 through t^{self.K}: {status}"


def koszul_duality_check(A: HomogAlgebra, K: int) -> DualityVerdict:
    """The dimension-level duality: H_A(t) times the alternating dual series
    equals 1 through the truncation order."""
    H = hilbert_series(A, K)
    P = alternating_dual_series(A, K)
    prod = H * P
    passed = prod == TruncatedSeries.one(K)
    return DualityVerdict(passed, K, H, P, prod)
