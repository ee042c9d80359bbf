"""Randomized invariants of small presentations (d <= 3, N <= 3).

Each draw is a parity-homogeneous ``custom_algebra``; every check is exact,
and every degree is kept to d^n <= 729 words so elimination stays cheap.  The
last properties draw small supercommutative polynomials instead.
"""

from fractions import Fraction
from math import gcd
from operator import methodcaller

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from superkoszul import koszul
from superkoszul.hecke import (
    HeckeElement,
    all_permutations,
    dj_operator,
    hecke_rep,
    supersymmetry_operator,
)
from superkoszul.homogeneous import (
    HomogAlgebra,
    custom_algebra,
    lambda_operator_algebra,
    tensor_algebra,
    yang_mills,
)
from superkoszul.koszul import jump, koszul_check, koszul_duality_check, koszul_matrix, tor_dims
from superkoszul.macmahon import GenericSupermatrix
from superkoszul.superpoly import TruncatedSeries, VariableTable
from superkoszul.tensorspace import (
    RankCounter,
    Subspace,
    SuperSpace,
    axpy,
    dual_complement,
    kernel_of_vectors,
    matrix_rank,
    subspace_intersection,
)
from test_koszul import assembled_slices, dual_basis_vectors, reassembled

MAX_WORDS = 729
COEFFS = [Fraction(c) for c in (-2, -1, 1, 2)] + [Fraction(1, 2), Fraction(-3, 2)]

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def presentations(draw, generators=(1, 3), relations=(1, 3), words_per_relation=(1, 3),
                  degree=(2, 3)):
    """custom_algebra on generators of random parity, N in {2, 3} by default,
    and relations, each a combination of words of one parity; each pair is
    the (least, most) number drawn."""
    fmt = tuple(draw(st.lists(st.integers(0, 1), min_size=generators[0],
                              max_size=generators[1])))
    N = draw(st.integers(*degree))
    space = SuperSpace(fmt)
    words = list(space.words(N))
    rows = []
    for _ in range(draw(st.integers(*relations))):
        parity = space.word_parity(draw(st.sampled_from(words)))
        same = [w for w in words if space.word_parity(w) == parity]
        fewest, most = words_per_relation
        terms = draw(st.lists(st.sampled_from(same), min_size=min(fewest, len(same)),
                              max_size=most, unique=True))
        rows.append([(draw(st.sampled_from(COEFFS)), w) for w in terms])
    return custom_algebra(fmt, N, rows)


def degrees(A):
    """Every degree n with d^n <= MAX_WORDS, at most 9."""
    return [n for n in range(10) if A.dim_V ** n <= MAX_WORDS]


def placement(A, i, n):
    """V^(x i) x R x V^(x n-N-i), eliminated explicitly: the reference that
    window rewriting must reproduce."""
    return Subspace(A.space, n, A.placement_rows(i, n - A.N - i))


@PROPERTY_SETTINGS
@given(presentations())
def test_dim_component_and_relations_fill_the_tensor_power(A):
    for n in degrees(A):
        Rn, _ = A.graded_component(n)
        assert A.dim_component(n) + Rn.dim == A.dim_V ** n, n


@PROPERTY_SETTINGS
@given(presentations())
def test_dual_of_the_dual_is_the_algebra(A):
    assert A.dual_algebra().dual_algebra().R.rows == A.R.rows


def two_elimination_dual_complement(R):
    """The annihilator of R by two eliminations, the reference: R's rows with
    every word reversed, reduced into their own echelon, and the null space
    of that echelon."""
    space, n = R.space, R.degree
    reversed_rows = Subspace(space, n, ({w[::-1]: c for w, c in row.items()}
                                        for row in R.rows.values()))
    rows = reversed_rows.rows
    out = Subspace(space, n)
    for w in space.words(n):
        if w not in rows:
            out.insert({w: 1, **{p: -row[w] for p, row in rows.items() if w in row}})
    return out


@PROPERTY_SETTINGS
@given(presentations())
def test_dual_complement_is_the_annihilator_under_the_reversal_pairing(A):
    # <x^j, x_i> = 1 exactly when j is the reversal of i
    R = A.R
    perp = dual_complement(R)
    for f in perp.rows.values():
        for r in R.rows.values():
            assert sum(f.get(w[::-1], 0) * c for w, c in r.items()) == 0
    assert perp.dim + R.dim == A.dim_V ** A.N
    assert perp == two_elimination_dual_complement(R)


@PROPERTY_SETTINGS
@given(presentations())
def test_reduced_words_count_the_confluent_algebra(A):
    if not A.confluence_report().passed:
        return
    for n in degrees(A):
        assert A.count_reduced_words(n) == A.graded_component(n)[1], n


@PROPERTY_SETTINGS
@given(presentations(), st.data())
def test_window_rewriting_reduces_modulo_the_placement(A, data):
    N = A.N
    n = data.draw(st.sampled_from([n for n in degrees(A) if N <= n <= N + 2]))
    i = data.draw(st.integers(0, n - N))
    words = list(A.space.words(n))
    hits = [w for w in words if w[i : i + N] in A.R.rows]
    terms = data.draw(st.lists(st.sampled_from(words), max_size=4))
    terms += data.draw(st.lists(st.sampled_from(hits), min_size=1, max_size=4))
    v = {w: data.draw(st.sampled_from(COEFFS)) for w in terms}
    assert A.reduce_at(v, i) == placement(A, i, n).reduce(v)


def placed_row_residual(A, vec, i):
    """Reference for :meth:`reduce_at`: each word whose window [i, i+N) is
    a pivot subtracts its coefficient times R's row placed at window i."""
    N = A.N
    residual = dict(vec)
    for w, c in vec.items():
        row = A.R.rows.get(w[i : i + N])
        if row is not None:
            axpy(residual, {w[:i] + t + w[i + N :]: a for t, a in row.items()}, -c)
    return residual


@PROPERTY_SETTINGS
@given(presentations(), st.data())
def test_window_rewriting_matches_the_placed_row_subtraction(A, data):
    if not A.confluence_report().passed:
        return
    N = A.N
    n = data.draw(st.sampled_from([n for n in degrees(A) if N <= n <= N + 3]))
    i = data.draw(st.integers(0, n - N))
    words = list(A.space.words(n))
    hits = [w for w in words if w[i : i + N] in A.R.rows]
    terms = data.draw(st.lists(st.sampled_from(words), max_size=4))
    terms += data.draw(st.lists(st.sampled_from(hits), min_size=1, max_size=4))
    # int and Fraction entries side by side, as the engine's residuals hold
    v = {w: data.draw(st.sampled_from(COEFFS + [-3, -1, 1, 2])) for w in terms}
    assert A.reduce_at(v, i) == placed_row_residual(A, v, i)


@PROPERTY_SETTINGS
@given(presentations())
def test_dual_star_component_is_the_meet_of_all_placements(A):
    N = A.N
    for n in (n for n in degrees(A) if N <= n <= N + 2):
        meet = placement(A, 0, n)
        for i in range(1, n - N + 1):
            meet = subspace_intersection(meet, placement(A, i, n))
        assert A.dual_star_component(n) == meet, n


@PROPERTY_SETTINGS
@given(presentations())
def test_overlap_meet_from_the_dual_matches_the_explicit_meet(A):
    # a relation space over half of V^(x N) is met through its annihilator,
    # the dual's placement sum; the dual of a small R takes that route
    for X in (A, A.dual_algebra()):
        for i in (i for i in range(1, X.N) if X.N + i in degrees(X)):
            meet = subspace_intersection(placement(X, 0, X.N + i), placement(X, i, X.N + i))
            assert X._overlap_meet_dim(i) == meet.dim, (X.R.dim, i)


@PROPERTY_SETTINGS
@given(presentations(degree=(3, 3)))
def test_extra_condition_defect_is_the_codimension_of_the_middle_meet(A):
    # M = R x V^n cap V^n x R against V^(n-1) x R x V, all eliminated explicitly
    N = A.N
    expected = []
    for n in range(2, N):
        M = subspace_intersection(placement(A, 0, n + N), placement(A, n, n + N))
        defect = M.dim - subspace_intersection(M, placement(A, n - 1, n + N)).dim
        expected.append((n, defect == 0, defect))
    assert A.extra_condition_report().entries == expected


@PROPERTY_SETTINGS
@given(presentations())
def test_dual_basis_vectors_are_a_basis_of_the_dual_star_component(A):
    # xi_b, rebuilt from A^!'s normal forms, against the echelon meet
    for m in (m for m in degrees(A) if m <= A.N + 2):
        meet, xi = A.dual_star_component(m), dual_basis_vectors(A, m)
        assert len(xi) == meet.dim, m
        assert all(not meet.reduce(v) for v in xi.values()), m
        assert Subspace(A.space, m, xi.values()).dim == len(xi), m


@PROPERTY_SETTINGS
@given(presentations())
def test_dual_coproduct_reproduces_every_dual_basis_vector(A):
    for m in (m for m in degrees(A) if m <= A.N + 2):
        for k in {1, A.N - 1} & set(range(m + 1)):
            assert reassembled(A, m, k) == dual_basis_vectors(A, m), (m, k)


def memo_queries(A):
    """Every query that the per-algebra memo answers, through degree 2N, as
    calls on an algebra; the dual basis words go through the memoised dual."""
    out = [methodcaller(name) for name in ("rewrite_map", "confluence_report", "extra_condition_report")]
    out.append(lambda X: X.dual_algebra().R)
    out += [methodcaller("_overlap_meet_dim", i) for i in range(1, A.N)]
    for n in (n for n in degrees(A) if n <= 2 * A.N):
        for name in ("reduced_words", "dual_star_component", "graded_component"):
            out.append(methodcaller(name, n))
        out.append(lambda X, n=n: X.dual_algebra().reduced_words(n))
        out += [methodcaller("dual_coproduct", n, k) for k in sorted({1, A.N - 1}) if k <= n]
    return out


@PROPERTY_SETTINGS
@given(presentations())
def test_memoised_tables_do_not_depend_on_the_query_order(A):
    # a memo key that dropped the method name or an argument would hand one
    # query's table to another, and which one wins depends on the order
    queries = memo_queries(A)
    B = HomogAlgebra(A.space, A.N, Subspace(A.space, A.N, A.R.rows.values()))
    forward = [query(A) for query in queries]
    backward = [query(B) for query in reversed(queries)]
    assert forward == backward[::-1]


@PROPERTY_SETTINGS
@given(presentations())
def test_normal_forms_never_contain_a_smaller_word(A):
    # the precondition of the triangular prune in macmahon.diagonal_coefficients:
    # pivots are the smallest words of their rows, so rewriting only raises words
    if not A.confluence_report().passed:
        return
    for n in (n for n in degrees(A) if n <= A.N + 2):
        for w in A.space.words(n):
            assert all(u >= w for u in A.normal_form_word(w)), w


@PROPERTY_SETTINGS
@given(presentations())
def test_reduced_words_are_as_many_as_the_dimension(A):
    for n in degrees(A):
        assert len(A.reduced_words(n)) == A.graded_component(n)[1], n


@PROPERTY_SETTINGS
@given(presentations())
def test_reduced_words_are_the_non_pivot_words_of_the_relations_when_not_confluent(A):
    # the letter walk from degree n - 1 misses none: a pivot v of R_(n-1)
    # makes vx a pivot of R_n
    if A.confluence_report().passed:
        return
    for n in (n for n in degrees(A) if n <= A.N + 2):
        pivots = A._graded_relations(n).rows
        assert A.reduced_words(n) == [w for w in A.space.words(n) if w not in pivots], n


@PROPERTY_SETTINGS
@given(presentations())
def test_normal_forms_are_supported_on_reduced_words(A):
    for n in degrees(A):
        basis = set(A.reduced_words(n))
        for w in A.space.words(n):
            assert basis.issuperset(A.normal_form_word(w)), w


def int_when_integral(numbers):
    """Every number is an int when integral and a Fraction otherwise, never a
    float."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in numbers)


@PROPERTY_SETTINGS
@given(presentations())
def test_elimination_output_is_an_int_when_integral(A):
    # tensorspace applies the rule to what elimination and the normal forms'
    # sums make; nothing that reads rows, the rewrite map or either
    # normal-form route converts again, and the coproduct table holds ints
    # over one scale
    assert int_when_integral(c for row in A.R.rows.values() for c in row.values())
    assert int_when_integral(c for tail in A.rewrite_map().values() for c in tail.values())
    for n in (n for n in degrees(A) if n <= A.N + 2):
        for k in {1, A.N - 1} & set(range(n + 1)):
            table, scale = A.dual_coproduct(n, k)
            assert type(scale) is int and scale > 0
            for pairs in table.values():
                assert all(type(c) is int for _, coords in pairs for c in coords.values())
        Rn = A._graded_relations(n)
        for w in A.space.words(n):
            for nf in (Rn.reduce({w: 1}), A.normal_form_word(w)):
                assert int_when_integral(nf.values()), w


@PROPERTY_SETTINGS
@given(presentations())
def test_the_normal_form_store_is_reduced_and_exact(A):
    # (ints, den) per word: den > 0, coprime to the content, and ints/den is
    # the normal form, the echelon residual too when rewriting is confluent
    confluent = A.confluence_report().passed
    for n in degrees(A):
        Rn = A._graded_relations(n)
        for w in A.space.words(n):
            ints, den = A._nf_ints(w)
            assert den > 0 and gcd(den, *ints.values()) == 1, w
            assert all(type(c) is int for c in ints.values()), w
            exact = {u: Fraction(c, den) for u, c in ints.items()}
            assert exact == A.normal_form_word(w), w
            if confluent:
                assert exact == Rn.reduce({w: 1}), w


@PROPERTY_SETTINGS
@given(presentations())
def test_echelon_residual_is_the_rewriting_normal_form_when_confluent(A):
    # the residual modulo the R_n echelon is the reference for window rewriting
    if not A.confluence_report().passed:
        return
    for n in degrees(A):
        Rn = A._graded_relations(n)
        for w in A.space.words(n):
            assert Rn.reduce({w: 1}) == A.normal_form_word(w), w


@PROPERTY_SETTINGS
@given(presentations())
def test_tor_counts_the_generators_and_the_minimal_relations(A):
    # Tor_1 is V in degree 1 and Tor_2 is R, all in degree N.  tor_dims reads
    # both from the presentation; the two-elimination route finds them by
    # eliminating ker(A x V -> A), so a kernel element of that eliminator
    # that is not a true relation breaks its count
    d, N = A.dim_V, A.N
    table = tor_dims(A, 2, N + 1)
    assert table.dims[1] == {1: d}
    assert table.dims[2] == {N: A.R.dim}
    eliminated = two_elimination_tor(A, 2, N + 1)
    assert eliminated[1] == {1: d}
    assert eliminated[2] == {N: A.R.dim}


def pairs_by_word(z):
    """{(word u, generator g): c} as the pairs (u, {g: c}) that times reads."""
    pairs = {}
    for (u, g), c in z.items():
        pairs.setdefault(u, {})[g] = c
    return pairs.items()


def times(A, w, pairs):
    """w * elem in a free A-module, elem = sum of u (x) coords over the pairs
    (word u, {generator g: c}), from the exact normal forms alone: the
    reference for the engine's integer products."""
    out = {}
    for u, coords in pairs:
        for v, a in A.normal_form_word(w + u).items():
            for h, c in coords.items():
                key = (v, h)
                s = out.get(key, 0) + a * c
                if s:
                    out[key] = s
                else:
                    del out[key]
    return out


def two_elimination_tor(A, i_max, deg_max):
    """Tor dimensions by two eliminations per (i, n): the radical
    V . ker(d_i)_{n-1} as its own echelon, and ker(d_i)_n over the images of
    every basis element of F_i, degree-n generators included."""
    dims = {0: {0: 1}}
    gens = []  # generators of F_i: (degree, element of F_{i-1})
    for i in range(i_max):
        if i == 0:
            kernels = {n: [{(w, 0): 1} for w in A.reduced_words(n)] for n in range(1, deg_max + 1)}
        else:
            kernels = {}
            for n in range(1, deg_max + 1):
                basis = [(w, g) for g, (m, _) in enumerate(gens) if m <= n
                         for w in A.reduced_words(n - m)]
                images = [times(A, w, pairs_by_word(gens[g][1])) for w, g in basis]
                kernels[n] = [{basis[k]: c for k, c in tags.items()}
                              for tags in kernel_of_vectors(images)]
        gens, dims[i + 1] = [], {}
        for n in range(1, deg_max + 1):
            radical = RankCounter()
            for letter in range(1, A.dim_V + 1):
                for z in kernels.get(n - 1, []):
                    radical.insert(times(A, (letter,), pairs_by_word(z)))
            complements = [z for z in kernels[n] if radical.insert(z)]
            if complements:
                dims[i + 1][n] = len(complements)
                gens.extend((n, z) for z in complements)
        if not gens:
            break
    return dims


@PROPERTY_SETTINGS
@given(presentations())
def test_tor_matches_the_two_elimination_route(A):
    # the radical's rank is counted from the next kernel, not eliminated
    assert tor_dims(A, 3, A.N + 2).dims == two_elimination_tor(A, 3, A.N + 2)


@PROPERTY_SETTINGS
@given(presentations(generators=(2, 2), relations=(2, 3), words_per_relation=(2, 3)))
def test_tor_matches_the_two_elimination_route_on_two_generators_to_degree_n_plus_3(A):
    # two generators and several relations of several words give images of
    # unequal scales often enough that a kernel tag missing its image's scale
    # changes a Tor dimension within these degrees
    assert tor_dims(A, 3, A.N + 3).dims == two_elimination_tor(A, 3, A.N + 3)


@pytest.mark.parametrize("A", [
    tensor_algebra((0, 1), 3),  # R = 0
    custom_algebra((0, 0), 2, [[(1, w)] for w in ((1, 1), (1, 2), (2, 1), (2, 2))]),  # R = V^(x 2)
    custom_algebra((0, 0), 2, [[(1, (1, 1)), (-1, (1, 2))]]),  # not confluent
    yang_mills(SuperSpace.standard(1, 1)),
], ids=["free", "full_R", "non_confluent", "YM(1|1)"])
def test_tor_matches_the_two_elimination_route_on_every_small_bound(A):
    # the bounds below, at and just past N, where Tor_1 and Tor_2 are read
    # and where a level with no generators stops the resolution
    for i_max in range(4):
        for deg_max in range(A.N + 3):
            assert tor_dims(A, i_max, deg_max).dims == two_elimination_tor(A, i_max, deg_max), (
                i_max, deg_max)


@PROPERTY_SETTINGS
@given(presentations())
def test_tor_of_an_exact_koszul_complex_is_the_dual_coalgebra(A):
    # exact through degree n, the Koszul complex is a minimal free resolution
    # there, so Tor_i sits in degree nu(i) with the dimension of D_nu(i)
    n = min(A.N + 2, max(degrees(A)))
    if not koszul_check(A, n).passed:
        return
    table = tor_dims(A, n, n)
    for i in range(n + 1):
        for m in range(n + 1):
            want = A.dual_star_component(m).dim if m == jump(A.N, i) else 0
            assert table.dim(i, m) == want, (i, m)


@PROPERTY_SETTINGS
@given(presentations())
def test_koszul_through_degree_n_implies_the_duality_product(A):
    n = max(n for n in degrees(A) if n <= A.N + 2)
    if koszul_check(A, n).passed:
        assert koszul_duality_check(A, n).passed


@PROPERTY_SETTINGS
@given(presentations())
def test_pairing_vanishes_between_the_relations_and_the_dual_relations(A):
    # <x^j, x_i> = 1 exactly when j is the reversal of i
    for f in A.dual_algebra().R.rows.values():
        for r in A.R.rows.values():
            assert sum(f.get(w[::-1], 0) * c for w, c in r.items()) == 0


def per_pair_columns(A, i, n):
    """The columns of delta_i at total degree n, built pair by pair on the
    dual basis: split xi_b, multiply each prefix into w, and read the
    coordinates of each combined tail on the xi_c of D_{m-steps} at the
    reversed words c, checking that they rebuild the tail."""
    m, m_prev = jump(A.N, i), jump(A.N, i - 1)
    steps = m - m_prev
    source, target = dual_basis_vectors(A, m), dual_basis_vectors(A, m_prev)
    pairs = [(w, b) for w in A.reduced_words(n - m) for b in source]
    columns = {}
    for idx, (w, b) in enumerate(pairs):
        by_word = {}
        for x, c in source[b].items():
            for v, a in A.normal_form_word(w + x[:steps]).items():
                axpy(by_word.setdefault(v, {}), {x[steps:]: a * c}, 1)
        col = {}
        for v, tail in by_word.items():
            coords = {h: tail[h[::-1]] for h in target if h[::-1] in tail}
            rebuilt = {}
            for h, c in coords.items():
                axpy(rebuilt, target[h], c)
            assert rebuilt == tail, (w, b, v)
            col.update(((v, h), c) for h, c in coords.items())
        if col:
            columns[idx] = col
    return columns


def echelon_row_columns(A, i, n):
    """The same slice on the echelon rows of D_m, the basis the slices used
    before the dual basis: each tail's coordinates are solved for in the
    echelon of D_{m-steps}."""
    m, m_prev = jump(A.N, i), jump(A.N, i - 1)
    steps = m - m_prev
    source, target = A.dual_star_component(m), A.dual_star_component(m_prev)
    pairs = [(w, p) for w in A.reduced_words(n - m) for p in sorted(source.rows)]
    columns = {}
    for idx, (w, pvt) in enumerate(pairs):
        by_word = {}
        for x, c in source.rows[pvt].items():
            for v, a in A.normal_form_word(w + x[:steps]).items():
                tail = by_word.setdefault(v, {})
                tail[x[steps:]] = tail.get(x[steps:], 0) + a * c
        col = {(v, t): c for v, tail in by_word.items()
               for t, c in target.coordinates(tail).items()}
        if col:
            columns[idx] = col
    return columns


@PROPERTY_SETTINGS
@given(presentations())
def test_slices_from_the_coproduct_table_match_the_per_pair_route(A):
    for n in (n for n in degrees(A) if n <= A.N + 2):
        i = 1
        while jump(A.N, i) <= n:
            assert koszul_matrix(A, i, n).columns == per_pair_columns(A, i, n), (i, n)
            i += 1


DENOMINATOR_HEAVY = [
    # relations with denominators up to 2^12
    lambda_operator_algebra(dj_operator(1, 1, Fraction(2)), 3),
    lambda_operator_algebra(dj_operator(2, 1, Fraction(2)), 3),
    # its dual is not confluent: the dual's normal forms are echelon residuals
    yang_mills(SuperSpace.standard(2, 1)),
]


@pytest.mark.parametrize("A", DENOMINATOR_HEAVY, ids=lambda A: A.label)
def test_integer_slices_match_the_exact_per_pair_route(A):
    dual = A.dual_algebra()
    for n in range(1, 8):
        i = 2
        while jump(A.N, i) < n:
            m = jump(A.N, i)
            if A.reduced_words(n - m) and dual.reduced_words(m):
                sl = koszul_matrix(A, i, n)
                assert all(type(c) is int for col in sl.int_columns.values() for c in col.values())
                assert sl.columns == per_pair_columns(A, i, n), (i, n)
                assert sl.rank() == matrix_rank(sl.columns.values()), (i, n)
            i += 1


@PROPERTY_SETTINGS
@given(presentations())
def test_slices_have_the_rank_of_the_echelon_row_slices(A):
    for n in (n for n in degrees(A) if n <= A.N + 2):
        i = 1
        while jump(A.N, i) <= n:
            sl = koszul_matrix(A, i, n)
            assert sl.rank() == matrix_rank(echelon_row_columns(A, i, n).values()), (i, n)
            i += 1


@PROPERTY_SETTINGS
@given(presentations())
def test_delta_1_is_onto_and_each_top_slice_has_the_rank_of_its_dual_component(A):
    # delta_1 is onto A_n, so the i = 1 defect is zero, and the top
    # differential out of A_0 x D_m is the inclusion of D_m in
    # V^(x k) x D_{m-k}, the rank koszul_check certifies for it
    top = max(degrees(A))
    for n in range(1, top + 1):
        assert koszul_matrix(A, 1, n).rank() == len(A.reduced_words(n)), n
    i = 1
    while (m := jump(A.N, i)) <= top:
        assert koszul_matrix(A, i, m).rank() == A.dual_star_component(m).dim, i
        i += 1


def hilbert_delta_2_rank(A, n):
    """rank(delta_2 at n) as koszul_check reads it: the kernel of the onto
    multiplication A_{n-1} x V -> A_n."""
    return A.dim_V * len(A.reduced_words(n - 1)) - len(A.reduced_words(n))


@PROPERTY_SETTINGS
@given(presentations())
def test_delta_2_has_the_rank_read_from_the_hilbert_function(A):
    # im delta_2 is the kernel of multiplication, Koszul or not, confluent
    # or not
    for n in range(1, A.N + 3):
        assert koszul_matrix(A, 2, n).rank() == hilbert_delta_2_rank(A, n), n


@pytest.mark.parametrize("A, deg_max", [
    (yang_mills(SuperSpace.standard(1, 1)), 8),
    (yang_mills(SuperSpace.standard(2, 1)), 6),
    (custom_algebra((0, 0), 2, [[(1, (1, 1)), (-1, (1, 2))]]), 6),
], ids=["YM(1|1)", "YM(2|1)", "non-confluent"])
def test_delta_2_has_the_rank_read_from_the_hilbert_function_beyond_n_plus_2(A, deg_max):
    for n in range(1, deg_max + 1):
        assert koszul_matrix(A, 2, n).rank() == hilbert_delta_2_rank(A, n), n


def eliminating_koszul_failures(A, deg_max):
    """Reference for :func:`koszul_check`: every slice, delta_1 and the top
    slices included, assembled and eliminated."""
    failures = []
    for n in range(1, deg_max + 1):
        i = 1
        while (m := jump(A.N, i)) <= n:
            middle = len(A.reduced_words(n - m)) * A.dual_star_component(m).dim
            if middle:
                defect = middle - koszul_matrix(A, i, n).rank() - koszul_matrix(A, i + 1, n).rank()
                if defect:
                    failures.append((i, n, defect))
            i += 1
    return failures


@PROPERTY_SETTINGS
@given(presentations())
def test_koszul_check_matches_the_route_that_eliminates_every_slice(A):
    n = min(max(degrees(A)), 2 * A.N + 1)
    assert koszul_check(A, n).failures == eliminating_koszul_failures(A, n)


@pytest.mark.parametrize("fmt, deg_max", [((1, 1), 7), ((2, 1), 6), ((3, 0), 6)])
def test_yang_mills_koszul_check_matches_the_route_that_eliminates_every_slice(fmt, deg_max):
    A = yang_mills(SuperSpace.standard(*fmt))
    assert koszul_check(A, deg_max).failures == eliminating_koszul_failures(A, deg_max)


@PROPERTY_SETTINGS
@given(presentations())
def test_the_columns_left_by_the_leads_above_have_the_rank_of_the_slice(A):
    # skip lemma: the columns at the leads handed down from the slice above
    # are redundant; lead certificate: distinct leads count the rank.  A top
    # slice, nu(i) = n, skips nothing, and its rank is dim A^!_n: the top
    # differential is one to one
    deg_max = min(max(degrees(A)), 2 * A.N + 1)
    for (i, n), columns in assembled_slices(A, deg_max, pytest.MonkeyPatch()):
        rank = koszul_matrix(A, i, n).rank()
        assert matrix_rank(columns.values()) == rank, (i, n)
        if len({min(col) for col in columns.values()}) == len(columns):
            assert len(columns) == rank, (i, n)
        if jump(A.N, i) == n:
            assert rank == len(A.dual_algebra().reduced_words(n)), (i, n)


def test_a_lead_collision_sends_one_slice_to_the_rank_counter(monkeypatch):
    # two column leads of delta_3 at n = 6 collide, so that slice alone is
    # eliminated; the verdict is the one that eliminates every slice
    A = custom_algebra((0, 1), 3, [[(-1, (1, 2, 2)), (-1, (2, 1, 2))], [(-1, (2, 2, 2))]])
    eliminated = []

    class CountingRankCounter(RankCounter):
        def __init__(self):
            eliminated.append(1)
            super().__init__()

    monkeypatch.setattr(koszul, "RankCounter", CountingRankCounter)
    assert koszul_check(A, 6).failures == [(2, 5, 2), (2, 6, 4), (3, 6, 1)]
    assert len(eliminated) == 1
    assert eliminating_koszul_failures(A, 6) == [(2, 5, 2), (2, 6, 4), (3, 6, 1)]


# -- the Hecke representation --------------------------------------------------

HECKE_OPERATORS = [dj_operator(1, 1, 2), dj_operator(1, 1, Fraction(1, 3)),
                   supersymmetry_operator(SuperSpace((0, 1, 1)))]


@st.composite
def hecke_elements(draw, q):
    """An element of H_{3,q} with small integer coefficients on the T_sigma basis."""
    return HeckeElement(3, q, {sigma: draw(st.integers(-2, 2)) for sigma in all_permutations(3)})


def compose(a, b):
    """The columns of a after b, for operators given by their columns."""
    out = {}
    for w, col in b.items():
        image = {}
        for u, c in col.items():
            axpy(image, a.get(u, {}), c)
        if image:
            out[w] = image
    return out


@PROPERTY_SETTINGS
@given(st.sampled_from(HECKE_OPERATORS), st.data())
def test_hecke_representation_is_multiplicative(R, data):
    # rho(a b) = rho(a) rho(b): T_sigma acts rightmost reduced-word factor first
    a, b = data.draw(hecke_elements(R.q)), data.draw(hecke_elements(R.q))
    product = compose(hecke_rep(R, 3, a).columns, hecke_rep(R, 3, b).columns)
    assert hecke_rep(R, 3, a * b).columns == product


# -- the supercommutative ring: int and Fraction coefficients -----------------

RING = VariableTable()
for _name, _parity in [("a", 0), ("b", 0), ("u", 1), ("v", 1)]:
    RING.add(_name, _parity)
RING_COEFFS = [-3, -1, 1, 2] + COEFFS


@st.composite
def superpolynomials(draw):
    """Sums of 0..4 terms c * (a product of 0..3 variables of RING), with c an
    int or a Fraction, integral or not."""
    poly = RING.zero()
    for _ in range(draw(st.integers(0, 4))):
        term = RING.constant(draw(st.sampled_from(RING_COEFFS)))
        for vid in draw(st.lists(st.integers(0, len(RING) - 1), max_size=3)):
            term = term * RING.variable(vid)
        poly = poly + term
    return poly


def as_fractions(poly):
    """poly with every coefficient a Fraction, set past the constructor,
    which would turn the integral ones back into ints."""
    cast = RING.zero()
    cast.terms = {m: Fraction(c) for m, c in poly.terms.items()}
    return cast


def exact(terms):
    """No coefficient is a float: each is an int or a Fraction."""
    return all(type(c) in (int, Fraction) for c in terms.values())


def normalised(poly):
    """Every coefficient is an int when integral and a Fraction otherwise."""
    return int_when_integral(poly.terms.values())


@PROPERTY_SETTINGS
@given(superpolynomials(), superpolynomials(), st.sampled_from([1, -1]))
def test_int_coefficients_compute_what_fraction_coefficients_compute(f, g, sign):
    F, G = as_fractions(f), as_fractions(g)
    for got, want in [(f * g, F * G), (f + g, F + G), (f - g, F - G), (g * f, G * F)]:
        assert got == want
        assert normalised(got)
    # sign * f * g added into a copy of f's terms: accumulation and cancellation
    got = f.mul_into(dict(f.terms), g, sign)
    assert got == F.mul_into(dict(F.terms), G, sign)
    assert exact(got)


def word_normal_form(word):
    """(sign, (even (vid, exponent) pairs, odd vids)) of the product of the
    RING variables of ``word``, sorted by insertion with one sign flip per
    transposition of two odd variables; None when an odd variable repeats."""
    word, sign = list(word), 1
    for i in range(1, len(word)):
        for k in range(i, 0, -1):
            if word[k - 1] <= word[k]:
                break
            if RING.parity(word[k - 1]) and RING.parity(word[k]):
                sign = -sign
            word[k - 1], word[k] = word[k], word[k - 1]
    odd = tuple(v for v in word if RING.parity(v))
    if len(set(odd)) < len(odd):
        return None
    even = [v for v in word if not RING.parity(v)]
    return sign, (tuple((v, even.count(v)) for v in sorted(set(even))), odd)


def reference_into(terms, factor, f_words, g_words):
    """terms += factor * f * g over the word lists f, g of (coefficient,
    word) pairs, each product concatenated and normalised by
    :func:`word_normal_form`; entries that cancel are dropped."""
    for cf, wf in f_words:
        for cg, wg in g_words:
            normal = word_normal_form(wf + wg)
            if normal is not None:
                sign, mono = normal
                terms[mono] = terms.get(mono, 0) + factor * sign * cf * cg
    return {mono: c for mono, c in terms.items() if c}


def from_words(words):
    """The polynomial sum of c * (product of the RING variables of w)."""
    poly = RING.zero()
    for c, word in words:
        term = RING.constant(c)
        for vid in word:
            term = term * RING.variable(vid)
        poly = poly + term
    return poly


polynomial_words = st.lists(
    st.tuples(st.sampled_from(RING_COEFFS), st.lists(st.integers(0, len(RING) - 1), max_size=4)),
    max_size=4)


@PROPERTY_SETTINGS
@given(polynomial_words, polynomial_words, polynomial_words, st.sampled_from([1, -1]))
def test_mul_into_matches_the_word_sorting_reference(f_words, g_words, h_words, sign):
    f, g, h = from_words(f_words), from_words(g_words), from_words(h_words)
    assume(h.terms)
    h_reference = reference_into({}, 1, h_words, [(1, [])])
    assert {RING.decode(m): c for m, c in h.terms.items()} == h_reference
    got = f.mul_into(dict(h.terms), g, sign)
    assert {RING.decode(m): c for m, c in got.items()} == reference_into(
        h_reference, sign, f_words, g_words)


@PROPERTY_SETTINGS
@given(st.sampled_from(RING_COEFFS), st.lists(superpolynomials(), min_size=3, max_size=3))
def test_series_inverse_with_int_coefficients_matches_fraction_coefficients(c0, tail):
    s = TruncatedSeries(3, [RING.constant(c0), *tail])
    inverse = s.inverse()
    assert inverse == TruncatedSeries(3, [as_fractions(c) for c in s.coeffs]).inverse()
    assert all(normalised(c) for c in inverse.coeffs)
    assert s * inverse == TruncatedSeries.one(3, one=RING.one())


# -- relabelling the letters of a generic supermatrix -------------------------


@st.composite
def relabellings(draw):
    """A generic p|q supermatrix, p + q <= 4, a permutation of its letters
    that keeps every parity, and three polynomials: each a sum of 0..3 terms
    c * (a product of 0..4 entries), odd entries repeated included."""
    p = draw(st.integers(0, 3))
    q = draw(st.integers(1 if p == 0 else 0, 4 - p))
    X = GenericSupermatrix(p, q)
    sigma = (tuple(draw(st.permutations(range(1, p + 1))))
             + tuple(draw(st.permutations(range(p + 1, p + q + 1)))))
    letters = st.integers(1, p + q)
    polys = []
    for _ in range(3):
        poly = X.table.zero()
        for _ in range(draw(st.integers(0, 3))):
            term = X.table.constant(draw(st.sampled_from([-2, -1, 1, 3])))
            for i, j in draw(st.lists(st.tuples(letters, letters), max_size=4)):
                term = term * X.entry(i, j)
            poly = poly + term
        polys.append(poly)
    return X, sigma, polys


@PROPERTY_SETTINGS
@given(relabellings())
def test_relabelling_the_letters_is_a_ring_automorphism(drawn):
    X, sigma, (f, g, h) = drawn
    relabel = X.relabel
    # multiplicative, on products whose odd entries pass each other
    assert relabel(f * g * h, sigma) == relabel(f, sigma) * relabel(g, sigma) * relabel(h, sigma)
    assert relabel(f + g, sigma) == relabel(f, sigma) + relabel(g, sigma)
    identity = tuple(range(1, X.d + 1))
    assert relabel(f, identity) == f
    inverse = tuple(sorted(identity, key=lambda k: sigma[k - 1]))
    assert relabel(relabel(f, sigma), inverse) == f
