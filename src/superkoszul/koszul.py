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
N-1 times when i is even.  The complex is defined over any basis of D_m
(Berger, J. Algebra 239, 2001); the one used here is dual to the basis words
b of A^!_m, xi_b(x) = coef_b(nf^!(reverse x)), read from A^!'s normal forms
with no meet of placements eliminated.  Since D_m lies in V^(x k) x D_{m-k},
applying d k times to xi_b needs it split only once, as the sum of
u (x) tail_u with u of length k: one component of the coproduct of the dual
coalgebra, tabulated per (m, k) by :meth:`HomogAlgebra.dual_coproduct`, whose
coordinate of xi_c in tail_u is coef_b(nf^!(c + reverse u)).  A slice column
is then assembled from that table and the normal forms of A alone.

Slices are assembled in integers: the coproduct table holds its coordinates
times one scale, A's normal forms come from its integer store, and the column
of (w, b), the sum of nf(w u) (x) tail_u(b), is an int dict over the lcm of
the dens it meets times the table's scale.  :class:`KoszulSlice` keeps the
int columns with their scales; ``columns`` is the exact view, built on
demand, and ``rank`` eliminates the int columns, as scaling does not change it.
Tor runs on the same integer products: its kernel tags are taken over the
integer images and multiplied by the image scales, and Tor_1 = V and
Tor_2 = R are read from the presentation, so the resolution starts from
F_2 = A x R with no kernel of A x V -> A eliminated (:func:`tor_dims`).

Exactness in positive homological degrees, checked per total degree by exact
rank arithmetic, is the Koszul property; the checker only ever claims it up
to the requested truncation.  Two facts hold for every presentation, so the
checker neither assembles delta_1 nor eliminates delta_2:

* delta_2 : A_{n-N} x R -> A_{n-1} x V has image the kernel of the
  multiplication mu : A_{n-1} x V -> A_n, so rank = d dim A_{n-1} - dim A_n,
  for every N-homogeneous algebra, Koszul or not.  D_N = R and D_1 = V, and
  delta_2 contracts the first N-1 letters of r in R into A, so its image is
  the image of T_{n-N} x R in A_{n-1} x V.  As
  (R)_n = (R)_{n-1} x V + T_{n-N} x R, that image is ker mu, and mu is onto.
  At n = N it reads dim R.
* the i = 1 defect is zero.  delta_1 is onto, rank = dim A_n: the prefix v'
  of a basis word v = v'x of A_n is a basis word of A_{n-1} (a prefix of a
  reduced word is reduced, and a pivot v' of R_{n-1} would make v'x a pivot
  of R_n), and nf(v'x) = {v: 1}.  So the defect at i = 1 is
  d dim A_{n-1} - dim A_n - (d dim A_{n-1} - dim A_n) = 0.

Every other slice, i > 2 with a nonzero source and target, the top slice
nu(i) = n included, is assembled.  In each total degree they are taken
top-down, from the top index t (the largest i with nu(i) <= n) to i = 3,
and each hands the slice below the leads of vectors of its image; the lead
of a vector is its smallest key (word of A, word of A^!), the order
:class:`RankCounter` pivots on.  Two facts about a complex make most of the
elimination unnecessary:

* skip lemma.  Let vectors z of im delta_{i+1}, which lies in ker delta_i,
  have pairwise distinct leads L.  Then the columns of delta_i at the
  source elements outside L span im delta_i.  For z with lead l,
  delta_i z = 0 gives delta_i e_l = -(1/z_l) sum_{k > l} z_k delta_i e_k,
  so by decreasing induction on l each e_l with l in L maps into the span
  of the columns outside L.
* lead certificate.  Nonzero columns with pairwise distinct leads are an
  echelon, so their count is their rank, exactly, and their leads are the
  set L the slice below skips.  Where two leads collide, a
  :class:`RankCounter` eliminates the same columns; its rank is exact, and
  the distinct leads of its rows are handed down instead.

The top slice skips nothing, so its certified rank is the injectivity of
the top differential, rank = dim A^!_n, checked rather than assumed.  A
slice with an empty source or target has rank 0, and a slice of rank 0
hands down no leads.  Where the middle term A_{n-nu(i)} x D_{nu(i)} is 0,
the defect is 0: delta_i has an empty source and delta_{i+1} an empty
target, and at i = 2 (so n >= N) delta_2's formula reads 0 too, as either
R = 0, or A_{n-N} = 0 with n - N >= 1, which forces A_{n-1} = A_n = 0.
:func:`koszul_matrix` builds every full slice when it is called directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .homogeneous import HomogAlgebra
from .superpoly import TruncatedSeries
from .tensorspace import RankCounter, kernel_of_vectors, matrix_rank, rescale, scaled_ints, scaled_view


def jump(N: int, i: int) -> int:
    """The homological jump nu_N(i), for N >= 2."""
    if N < 2:
        raise ValueError(f"the relation degree N={N} must be at least 2")
    if i < 0:
        raise ValueError("homological index must be nonnegative")
    if i % 2 == 0:
        return (i // 2) * N
    return ((i - 1) // 2) * N + 1


@dataclass
class KoszulSlice:
    """The matrix of one differential delta_i in one total degree n, as
    :func:`koszul_matrix` builds it: column k is int_columns[k] /
    scales.get(k, 1) over the two bases."""

    source_basis: list  # (basis word of A, basis word b of A^! naming xi_b)
    target_basis: list
    int_columns: dict  # source index -> {target basis element (word of A, word of A^!): int}
    scales: dict  # source index -> its column's scale, where that is not 1

    @property
    def source_dim(self) -> int:
        return len(self.source_basis)

    @property
    def target_dim(self) -> int:
        return len(self.target_basis)

    @property
    def columns(self) -> dict:
        """The exact matrix, built on each read."""
        return {k: scaled_view(col, self.scales.get(k, 1)) for k, col in self.int_columns.items()}

    def rank(self) -> int:
        return matrix_rank(self.int_columns.values())


def _times_ints(A: HomogAlgebra, w, pairs) -> tuple:
    """w * elem in a free A-module, with elem the sum of u (x) coords over
    the pairs (reduced word u, {slot h: c}): the sum of nf(w u) (x) coords,
    keyed by (reduced word v, slot h), as ints over the lcm of the dens of
    the normal forms it reads, (ints, scale)."""
    out: dict = {}
    scale = 1
    for u, coords in pairs:
        nf, den = A._nf_ints(w + u)
        if scale % den:
            scale = rescale(out, scale, den)
        f = scale // den
        for v, a in nf.items():
            a *= f
            for h, c in coords.items():
                key = (v, h)
                s = out.get(key, 0) + a * c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out, scale


def _by_word(elem: dict) -> list:
    """elem = {(reduced word u, slot h): int c} as the pairs (u, {h: c})
    that :func:`_times_ints` reads, one per word."""
    split: dict = {}
    for (u, h), c in elem.items():
        split.setdefault(u, {})[h] = c
    return list(split.items())


def _slice_bases(A: HomogAlgebra, i: int, n: int):
    m = jump(A.N, i)
    if n - m < 0:
        return m, []
    dual_words = A.dual_algebra().reduced_words(m)
    return m, [(w, b) for w in A.reduced_words(n - m) for b in dual_words]


def _slice_columns(A: HomogAlgebra, i: int, n: int, skip) -> tuple:
    """The column loop of delta_i at n: (source basis, {source index: int
    column}, {source index: scale, where it is not 1}), with the zero columns
    and the columns of the source elements in ``skip`` left out.  The column
    of (w, b) is :func:`_times_ints` of w and b's entry in the integer
    coproduct table, over its scale times the table's."""
    m, source = _slice_bases(A, i, n)
    columns, scales = {}, {}
    if not source:  # no column reads D_m, so it is not built
        return source, columns, scales
    table, table_scale = A.dual_coproduct(m, m - jump(A.N, i - 1))
    for idx, (w, b) in enumerate(source):
        if (w, b) in skip:
            continue
        col, scale = _times_ints(A, w, table[b])
        if col:
            columns[idx] = col
            if scale * table_scale > 1:
                scales[idx] = scale * table_scale
    return source, columns, scales


def koszul_matrix(A: HomogAlgebra, i: int, n: int) -> KoszulSlice:
    """The differential delta_i : A_{n-nu(i)} x D_{nu(i)} -> previous slot.

    Bases: the basis words of A (:meth:`HomogAlgebra.reduced_words`)
    tensored with the dual basis xi_b of D_m, one per basis word b of A^!_m.
    The differential contracts the first ``steps`` letters of xi_b into A,
    steps = nu(i) - nu(i-1).  Each xi_b splits once, in the coproduct table
    :meth:`HomogAlgebra.dual_coproduct`, as the sum of u (x) tail_u with the
    tails in coordinates on the xi_c; every column is then read by
    :func:`_slice_columns`, with nothing skipped.
    """
    if i < 1:
        raise ValueError("differentials start at homological degree 1")
    source, columns, scales = _slice_columns(A, i, n, ())
    return KoszulSlice(source, _slice_bases(A, i - 1, n)[1], columns, scales)


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
    middle term.  The verdict claims nothing beyond the truncation; its
    failures (i, n, defect) are in ascending n and, within n, ascending i.

    Each total degree is one top-down pass, from the top index t, the
    largest i with nu(i) <= n, to i = 2.  Step i takes rank(delta_i) as the
    module docstring proves it: delta_2's from the Hilbert function, 0 for
    an empty source or target, and every other slice assembled without the
    columns at the leads that step i + 1 hands down, its rank certified by
    distinct leads or eliminated.  The defect of slice i is taken in the
    same step, with rank(delta_{i+1}) carried from the step before (0 above
    t).  The i = 1 defect is zero for every presentation and is not taken.
    """
    if deg_max < 0:
        raise ValueError("deg_max must be nonnegative")
    failures = []
    dual = A.dual_algebra()

    def source_dim(i: int, n: int) -> int:
        m = jump(A.N, i)
        return len(A.reduced_words(n - m)) * len(dual.reduced_words(m))

    def rank_and_leads(i: int, n: int, above) -> tuple:
        """rank(delta_i at n) and the leads it hands down, given those of
        delta_{i+1}, ``above``."""
        if i == 2:
            return A.dim_V * len(A.reduced_words(n - 1)) - len(A.reduced_words(n)), ()
        if not source_dim(i, n) or not source_dim(i - 1, n):
            return 0, ()
        columns = _slice_columns(A, i, n, above)[1].values()
        leads = {min(col) for col in columns}
        if len(leads) == len(columns):
            return len(leads), leads
        echelon = RankCounter()
        for col in columns:
            echelon.insert(col)
        return echelon.rank, echelon.rows

    for n in range(1, deg_max + 1):
        t = 1
        while jump(A.N, t + 1) <= n:
            t += 1
        defects, rank_above, leads = [], 0, ()
        for i in range(t, 1, -1):
            rank, leads = rank_and_leads(i, n, leads)
            defects.append((i, n, source_dim(i, n) - rank - rank_above))
            rank_above = rank
        failures.extend(entry for entry in reversed(defects) if entry[2])
    return KoszulVerdict(not failures, deg_max, failures)


# ---------------------------------------------------------------------------
# Tor via a minimal graded-free resolution
# ---------------------------------------------------------------------------
#
# Tor_i(k, k) in degree n is the number of degree-n generators of F_i, the
# generators of F_{i+1} being a complement of the radical A_+ ker(d_i)
# inside ker(d_i).  F_1 = A x V and F_2 = A x R are read from the
# presentation.  From i = 1 on, degrees are taken in increasing order, so the
# radical in degree n is spanned by the products of the generators already
# found; one kernel elimination per (i, n) over those products gives both
# ker(d_{i+1}) and the radical's rank, and an echelon is built to pick a
# complement only where that rank falls short.


@dataclass
class TorTable:
    """dims[i][n] = dim of the degree-n part of the i-th Tor group."""

    i_max: int
    deg_max: int
    dims: dict = field(default_factory=dict)

    def dim(self, i: int, n: int) -> int:
        return self.dims.get(i, {}).get(n, 0)

    def __str__(self):
        lines = []
        for i in range(self.i_max + 1):
            row = [self.dim(i, n) for n in range(self.deg_max + 1)]
            lines.append(f"Tor_{i}: " + " ".join(map(str, row)))
        return "\n".join(lines)


def tor_dims(A: HomogAlgebra, i_max: int, deg_max: int) -> TorTable:
    """Betti numbers of the trivial module from a minimal resolution.

    Free modules are encoded on bases (basis word of A, generator).  Tor_1
    and Tor_2 are read from the presentation, for every N-homogeneous
    algebra, Koszul or confluent or not.  F_1 = A x V, one generator per
    letter, so Tor_1 = d in degree 1.  K^1_n = ker(mu : A_{n-1} x V -> A_n)
    is the image of A_{n-N} x R, as (R)_n = (R)_{n-1} x V + T_{n-N} x R; so
    K^1 is generated by R in degree N, minimally, since nothing lies below
    degree N and K^1_N = R (A_{N-1} = V^(x N-1)).  So Tor_2 = dim R in
    degree N, and F_2 has one generator per row r of R: r read in
    A_{N-1} x V, the word u as (u[:-1], slot of its last letter).

    From level i = 1 on, K^{i+1} is found per degree n with one kernel
    elimination over the images w * z_g, over the generators z_g of F_{i+1}
    of degree < n and the basis words w of A_{n - deg g}.  At i = 1 those
    are all read.  At i >= 2 the generators of F_{i+1} are found in the
    same pass, in increasing degree: below degree n, K^i is generated by
    the z_g found so far, so A_j K^i_{n-j} lies in the sum of the
    A_{n - deg g} z_g, and each of these lies in A_+ K^i since
    n - deg g >= 1; the images span the radical (A_+ K^i)_n.  So the kernel
    over the images is K^{i+1}_n (a degree-n generator maps outside their
    span, so it adds no kernel vector), and, as that kernel comes back as a
    basis, the radical's rank is the number of images minus its length.
    The radical lies in K^i_n, so equal dimensions mean equal spaces and no
    generator of degree n.  Otherwise the K^i_n vectors that grow an
    echelon of the images are the new generators; that greedy choice
    depends only on the radical's span.

    All in integers: image k is ints_k / scale_k (:func:`_times_ints`), so a
    kernel tag c at k over the ints is c * scale_k on basis element k, and
    the radical's echelon takes the ints, as scaling keeps a span; a row of
    R is taken as its ints (:func:`scaled_ints`) for the same reason.
    """
    if i_max < 0 or deg_max < 0:
        raise ValueError("i_max and deg_max must be nonnegative")
    table = TorTable(i_max, deg_max, {0: {0: 1}})
    if i_max:
        table.dims[1] = {1: A.dim_V} if A.dim_V and deg_max else {}
    if i_max < 2 or not table.dims[1]:
        return table
    slot = {w: h for h, w in enumerate(A.reduced_words(1))}
    gens = [  # generators of F_{i+1}: (degree, _by_word pairs in F_i)
        (A.N, _by_word({(u[:-1], slot[u[-1:]]): c for u, c in scaled_ints(row)[0].items()}))
        for row in A.R.rows.values()
    ] if deg_max >= A.N else []
    dims = table.dims[2] = {A.N: len(gens)} if gens else {}
    if i_max < 3 or not gens:
        return table
    kernels: dict = {}  # K^i per degree; none at i = 1, where F_2's generators are read
    for i in range(1, i_max):
        next_kernels: dict = {}
        for n in range(1, deg_max + 1):
            basis = [(w, g) for g, (m, _) in enumerate(gens) if m < n for w in A.reduced_words(n - m)]
            images = [_times_ints(A, w, gens[g][1]) for w, g in basis]
            kernel = kernel_of_vectors([ints for ints, _ in images])
            # basis keys are distinct and kernel tags nonzero
            next_kernels[n] = [{basis[k]: c * images[k][1] for k, c in t.items()} for t in kernel]
            if kernels and len(images) - len(kernel) < len(kernels[n]):
                radical = RankCounter()
                for ints, _ in images:
                    radical.insert(ints)
                new = [z for z in kernels[n] if radical.insert(z)]
                dims[n] = len(new)
                gens.extend((n, _by_word(z)) for z in new)
        table.dims[i + 1] = dims
        if not gens:
            break
        kernels, gens, dims = next_kernels, [], {}
    return table


# ---------------------------------------------------------------------------
# Hilbert series
# ---------------------------------------------------------------------------


def hilbert_series(A: HomogAlgebra, K: int) -> TruncatedSeries:
    """sum of dim A_n t^n, truncated at order K; see
    :meth:`HomogAlgebra.dim_component` for how each coefficient is found."""
    if K < 0:
        raise ValueError("the truncation order K must be nonnegative")
    return TruncatedSeries(K, [A.dim_component(n) for n in range(K + 1)])


def alternating_dual_series(A: HomogAlgebra, K: int) -> TruncatedSeries:
    """sum over i of (-1)^i dim D_{nu(i)} t^{nu(i)} where D is the graded
    dual of the dual algebra; all other coefficients vanish.

    dim D_m = dim A^!_m, read from :meth:`HomogAlgebra.dim_component` of
    A^!, which picks its own route."""
    if K < 0:
        raise ValueError("the truncation order K must be nonnegative")
    coeffs = [0] * (K + 1)
    dual = A.dual_algebra()
    i = 0
    while jump(A.N, i) <= K:
        m = jump(A.N, i)
        coeffs[m] = (-1) ** i * dual.dim_component(m)
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
    equals 1 through the truncation order, K >= 0."""
    H = hilbert_series(A, K)
    P = alternating_dual_series(A, K)
    prod = H * P
    passed = prod == TruncatedSeries.one(K)
    return DualityVerdict(passed, K, H, P, prod)
