"""Koszul complexes, exactness, Tor tables, confluence, Hilbert duality."""

from fractions import Fraction

import pytest

from superkoszul import homogeneous, koszul
from superkoszul.hecke import dj_operator
from superkoszul.homogeneous import (
    HomogAlgebra,
    custom_algebra,
    lambda_operator_algebra,
    n_symmetric,
    quantum_superspace,
    tensor_algebra,
    yang_mills,
)
from superkoszul.koszul import (
    alternating_dual_series,
    hilbert_series,
    jump,
    koszul_check,
    koszul_duality_check,
    koszul_matrix,
    tor_dims,
)
from superkoszul.superpoly import TruncatedSeries
from superkoszul.tensorspace import Subspace, SuperSpace, axpy, matrix_rank, scaled_view


def test_jump_function():
    assert [jump(2, i) for i in range(6)] == [0, 1, 2, 3, 4, 5]
    assert [jump(3, i) for i in range(6)] == [0, 1, 3, 4, 6, 7]


@pytest.mark.parametrize("N", [1, 0, -2])
def test_jump_rejects_a_relation_degree_below_2(N):
    # unchecked, jump(1, 3) returned 2
    with pytest.raises(ValueError, match="at least 2"):
        jump(N, 3)


def test_first_differential_is_multiplication():
    A = n_symmetric(SuperSpace.standard(2, 0), 2)
    sl = koszul_matrix(A, 1, 3)
    # source basis (word of length 2) x (letter); the column at (w, (j,))
    # is the normal form of w + (j,)
    for idx, (w, pvt) in enumerate(sl.source_basis):
        col = sl.columns.get(idx, {})
        expected = {(u, ()): c for u, c in A.normal_form_word(w + pvt).items()}
        assert col == expected


def test_cubic_symmetric_slices_have_integer_columns():
    # the rewrite table and the coproduct table are integral on S_N, so every
    # slice column is assembled in ints
    A = n_symmetric(SuperSpace.standard(2, 1), 3)
    for n in range(1, 7):
        i = 1
        while jump(A.N, i) <= n:
            for col in koszul_matrix(A, i, n).columns.values():
                assert all(type(c) is int for c in col.values()), (i, n)
            i += 1


def compose_is_zero(d_i, d_next):
    """delta_i . delta_{i+1} = 0 on the given slices, on their exact columns."""
    index = {b: k for k, b in enumerate(d_i.source_basis)}
    columns = d_i.columns
    for col in d_next.columns.values():
        out: dict = {}
        for b, c in col.items():
            axpy(out, columns.get(index[b], {}), c)
        if out:
            return False
    return True


def concentrated_degrees(table, i):
    """The degrees n with Tor_i nonzero in degree n."""
    return sorted(n for n, v in table.dims.get(i, {}).items() if v)


def test_differentials_compose_to_zero():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    for n in range(2, 6):
        for i in range(1, 4):
            if jump(A.N, i + 1) > n:
                continue
            d_i = koszul_matrix(A, i, n)
            d_next = koszul_matrix(A, i + 1, n)
            assert compose_is_zero(d_i, d_next)


def test_cubic_differentials_compose_to_zero():
    A = n_symmetric(SuperSpace.standard(2, 1), 3)
    for n in range(3, 7):
        d1 = koszul_matrix(A, 1, n)
        d2 = koszul_matrix(A, 2, n)
        assert compose_is_zero(d1, d2)


def test_line_algebra_has_trivial_second_slot():
    A = n_symmetric(SuperSpace.standard(1, 0), 2)  # polynomial line k[x]
    sl = koszul_matrix(A, 2, 2)
    assert sl.source_dim == 0  # no antisymmetric square of a line


def dual_basis_vectors(A, m):
    """xi_b for the basis words b of A^!_m, as vectors of V^(x m): the
    coefficient of xi_b at a word w is coef_b(nf^!(reverse w))."""
    dual = A.dual_algebra()
    out = {b: {} for b in dual.reduced_words(m)}
    for w in A.space.words(m):
        for b, c in dual.normal_form_word(w[::-1]).items():
            out[b][w] = c
    return out


def reassembled(A, m, k):
    """{b: the sum of u (x) tail_u over the table entry of b}, with each
    tail rebuilt from its coordinates on the xi_c of D_{m-k}."""
    tails = dual_basis_vectors(A, m - k)
    table, scale = A.dual_coproduct(m, k)
    out = {}
    for b, parts in table.items():
        vec = out[b] = {}
        for u, coords in parts:
            for c, a in scaled_view(coords, scale).items():
                axpy(vec, {u + x: t for x, t in tails[c].items()}, a)
    return out


COPRODUCT_ALGEBRAS = [
    n_symmetric(SuperSpace.standard(2, 1), 3),
    # Lambda_3 of dj_operator(1, 1, 2) has relations with denominators up to 2^12
    lambda_operator_algebra(dj_operator(1, 1, Fraction(2)), 3),
    # the dual of YM(2|1) is not confluent: its normal forms are echelon residuals
    yang_mills(SuperSpace.standard(2, 1)),
]


def test_coproduct_table_reassembles_every_dual_row():
    # each xi_b is the sum of u (x) tail_u its table entry lists
    for A in COPRODUCT_ALGEBRAS:
        for m in range(A.N + 4):
            for k in {1, A.N - 1} & set(range(m + 1)):
                assert reassembled(A, m, k) == dual_basis_vectors(A, m), (A.label, m, k)


def test_coproduct_table_checks_that_every_tail_is_in_the_dual():
    # the table lists tails by their coordinates on the xi_c, so each tail
    # lies in D_{m-k}, the echelon meet of the placements
    for A in COPRODUCT_ALGEBRAS:
        for m in range(A.N + 4):
            for k in {1, A.N - 1} & set(range(m + 1)):
                meet, xi = A.dual_star_component(m - k), dual_basis_vectors(A, m - k)
                table, scale = A.dual_coproduct(m, k)
                for parts in table.values():
                    for u, coords in parts:
                        tail: dict = {}
                        for c, a in scaled_view(coords, scale).items():
                            axpy(tail, xi[c], a)
                        assert tail and not meet.reduce(tail), (A.label, m, k, u)


def test_koszul_check_reads_neither_the_echelon_dual_nor_its_coordinates(monkeypatch):
    # D_m and its coproduct come from A^!'s normal forms, so the verdict
    # path eliminates no meet of placements and solves for no coordinates
    calls = []
    dual_star, coordinates = HomogAlgebra.dual_star_component, Subspace.coordinates

    def counted_dual_star(self, n):
        calls.append(("dual_star_component", n))
        return dual_star(self, n)

    def counted_coordinates(self, vector):
        calls.append(("coordinates", self.degree))
        return coordinates(self, vector)

    monkeypatch.setattr(HomogAlgebra, "dual_star_component", counted_dual_star)
    monkeypatch.setattr(Subspace, "coordinates", counted_coordinates)
    for A in (*COPRODUCT_ALGEBRAS, yang_mills(SuperSpace.standard(1, 1))):
        koszul_check(A, 7)
    assert calls == []
    A.dual_star_component(3).coordinates({})  # the counters are live
    assert calls == [("dual_star_component", 3), ("coordinates", 3)]


def test_koszul_check_passes_for_small_symmetric_algebras():
    assert koszul_check(n_symmetric(SuperSpace.standard(2, 0), 2), 6).passed
    assert koszul_check(n_symmetric(SuperSpace.standard(2, 1), 3), 8).passed


def test_koszul_check_runs_without_confluence():
    A = custom_algebra((0, 0), 2, [[(1, (1, 1)), (-1, (1, 2))]])
    assert not A.confluence_report().passed
    assert koszul_check(A, 6).passed
    assert koszul_duality_check(A, 6).passed


@pytest.mark.parametrize("A, deg_max, assembles", [
    (n_symmetric(SuperSpace.standard(2, 1), 3), 8, True),
    # YM(1|1) has D_4 = 0, so every slice with a nonzero source is delta_1
    # or delta_2, and nothing is built
    (yang_mills(SuperSpace.standard(1, 1)), 7, False),
    (n_symmetric(SuperSpace.standard(1, 0), 2), 6, False),  # k[x]: D_2 = 0
])
def test_koszul_check_assembles_every_slice_above_delta_2_once(A, deg_max, assembles, monkeypatch):
    # delta_1 is never needed and delta_2 has its rank read from the Hilbert
    # function; every (i, n) with i > 2 and a nonzero source and target, the
    # top slices nu(i) = n included, is built exactly once
    built = [key for key, _ in assembled_slices(A, deg_max, monkeypatch)]
    assert bool(built) == assembles
    dual = A.dual_algebra()

    def nonempty(i, n):
        m = jump(A.N, i)
        return m <= n and bool(A.reduced_words(n - m)) and bool(dual.reduced_words(m))

    expected = [(i, n) for n in range(1, deg_max + 1) for i in range(n + 1, 2, -1)
                if nonempty(i, n) and nonempty(i - 1, n)]
    assert built == expected


def assembled_slices(A, deg_max, monkeypatch):
    """[((i, n), columns)] of every slice that koszul_check assembles, in
    its order, with the columns it assembles there, the skipped ones left
    out."""
    built = []

    def recording_slice_columns(A, i, n, skip):
        source, columns, scales = slice_columns(A, i, n, skip)
        built.append(((i, n), columns))
        return source, columns, scales

    slice_columns = koszul._slice_columns
    with monkeypatch.context() as patch:
        patch.setattr(koszul, "_slice_columns", recording_slice_columns)
        koszul_check(A, deg_max)
    return built


def slice_ranks(A, deg_max, monkeypatch):
    """{(i, n): rank} of the columns koszul_check assembles, the skipped ones
    left out: by the skip lemma, the rank of the whole slice."""
    built = assembled_slices(A, deg_max, monkeypatch)
    return {key: matrix_rank(columns.values()) for key, columns in built}


# taken from the Fraction slice assembly, before the slices were built in ints
PINNED_SLICE_RANKS = [
    (yang_mills(SuperSpace.standard(1, 1)), 7,
     {(2, 4): 4, (2, 5): 6, (2, 6): 8, (2, 7): 10}),
    (lambda_operator_algebra(dj_operator(2, 1, Fraction(2)), 3), 8,
     {(2, 4): 12, (2, 5): 36, (3, 5): 27, (2, 6): 72, (3, 6): 68, (2, 7): 180,
      (3, 7): 156, (4, 7): 24, (2, 8): 396, (3, 8): 360, (4, 8): 72, (5, 8): 45,
      # the top slices, each of rank dim A^!_n
      (3, 4): 9, (4, 6): 13, (5, 7): 15}),
]


@pytest.mark.parametrize("A, deg_max, ranks", PINNED_SLICE_RANKS, ids=["YM(1|1)", "L3 dj(2|1)"])
def test_interior_slice_ranks_are_pinned(A, deg_max, ranks, monkeypatch):
    assert {key: koszul_matrix(A, *key).rank() for key in ranks} == ranks
    dual = A.dual_algebra()
    assert all(r == len(dual.reduced_words(n)) for (i, n), r in ranks.items() if jump(A.N, i) == n)
    # the delta_2 ranks are read from the Hilbert function, not assembled
    assert slice_ranks(A, deg_max, monkeypatch) == {(i, n): r for (i, n), r in ranks.items() if i > 2}


def test_dual_algebra_gets_the_overlap_meets_as_numbers(monkeypatch):
    # A^! reads its meets from A's, so R is never rebuilt as the dual of R^!
    calls = []
    complement = homogeneous.dual_complement

    def counted_complement(R):
        calls.append(R.degree)
        return complement(R)

    monkeypatch.setattr(homogeneous, "dual_complement", counted_complement)
    assert koszul_check(yang_mills(SuperSpace.standard(2, 2)), 6).passed
    assert calls == [3]


SWEEP_ALGEBRAS = [
    build(SuperSpace.standard(p, q), N)
    for build in (n_symmetric, lambda S, N: lambda_operator_algebra(dj_operator(S.p, S.q, 2), N))
    for N in (2, 3)
    for p in range(4) for q in range(4) if 1 <= p + q <= 3
]
YANG_MILLS = [yang_mills(SuperSpace.standard(p, q)) for p in range(4) for q in range(4) if 2 <= p + q <= 4]


@pytest.mark.parametrize("A", SWEEP_ALGEBRAS + YANG_MILLS, ids=lambda A: A.label)
def test_seeded_dual_meets_match_the_meets_through_the_double_dual(A):
    # an unseeded copy of A^! finds its meets itself, through A^!! when R^!
    # is the larger side
    d, N = A.dim_V, A.N
    dual = A.dual_algebra()
    fresh = HomogAlgebra(A.space, N, dual.R)
    for i in range(1, N):
        seeded = 2 * A.R.dim <= d ** N
        assert (("_overlap_meet_dim", i) in dual._cache) == seeded
        assert dual._overlap_meet_dim(i) == fresh._overlap_meet_dim(i), i


@pytest.mark.parametrize("A", SWEEP_ALGEBRAS, ids=lambda A: A.label)
def test_sweep_algebras_certify_every_slice_without_elimination(A, monkeypatch):
    # no two column leads collide on these algebras to degree 8, the top
    # slices included
    monkeypatch.setattr(koszul, "RankCounter", None)
    assert koszul_check(A, 8).passed


def test_mixed_yang_mills_1_1_is_not_exact_where_duality_breaks():
    A = yang_mills(SuperSpace.standard(1, 1))
    assert not A.confluence_report().passed
    verdict = koszul_check(A, 7)
    assert verdict.failures == [(2, 5, 2), (2, 6, 4), (2, 7, 6)]
    assert koszul_check(A, 8).failures == [(2, 5, 2), (2, 6, 4), (2, 7, 6), (2, 8, 8)]
    product = koszul_duality_check(A, 7).product
    first_break = next(n for n in range(1, 8) if product.coeffs[n] != 0)
    assert verdict.failures[0][1] == first_break == 5


@pytest.mark.parametrize("A", [
    n_symmetric(SuperSpace.standard(2, 2), 3),
    lambda_operator_algebra(dj_operator(2, 2, 2), 3),
], ids=lambda A: A.label)
def test_cubic_algebras_on_four_letters_are_koszul_through_degree_9(A, monkeypatch):
    # every interior slice is certified by its column leads: none is eliminated
    monkeypatch.setattr(koszul, "RankCounter", None)
    assert koszul_check(A, 9).failures == []


def test_mixed_yang_mills_2_1_is_koszul_through_degree_6():
    A = yang_mills(SuperSpace.standard(2, 1))
    assert not A.confluence_report().passed
    assert koszul_check(A, 6).passed
    assert concentrated_degrees(tor_dims(A, 4, 6), 3) == []


def test_non_koszul_detected_by_exactness():
    # the cubic monomial relation x y x overlaps itself (x y x y x), which
    # pushes homology into the second slot at total degree 5
    A = custom_algebra((0, 0), 3, [[(1, (1, 2, 1))]], label="self-overlap")
    assert A.confluence_report().passed
    verdict = koszul_check(A, 6)
    assert not verdict.passed
    assert (2, 5, 1) in verdict.failures
    # duality shadow breaks as well
    assert not koszul_duality_check(A, 6).passed
    # while the non-overlapping relation x x y stays Koszul at these degrees
    B = custom_algebra((0, 0), 3, [[(1, (1, 1, 2))]], label="no-overlap")
    assert koszul_check(B, 6).passed


# -- Tor -----------------------------------------------------------------------


def test_tor_of_the_polynomial_line():
    A = n_symmetric(SuperSpace.standard(1, 0), 2)
    table = tor_dims(A, 3, 5)
    assert table.dim(0, 0) == 1
    assert table.dim(1, 1) == 1
    assert concentrated_degrees(table, 2) == []
    assert concentrated_degrees(table, 3) == []


def test_tor_of_the_even_yang_mills_algebra():
    # Koszul of global dimension 3 (Connes-Dubois-Violette), through order 7
    Y = yang_mills(SuperSpace.standard(3, 0))
    assert tor_dims(Y, 4, 7).dims == {0: {0: 1}, 1: {1: 3}, 2: {3: 3}, 3: {4: 1}, 4: {}}


@pytest.mark.parametrize("p, q", [(3, 0), (0, 3)])
def test_tor_of_the_yang_mills_algebras_on_three_generators_through_order_9(p, q):
    # global dimension 3: nothing past Tor_3 in degree 4 through order 9
    Y = yang_mills(SuperSpace.standard(p, q))
    assert tor_dims(Y, 4, 9).dims == {0: {0: 1}, 1: {1: 3}, 2: {3: 3}, 3: {4: 1}, 4: {}}


def test_tor_of_the_mixed_yang_mills_algebra_through_order_7():
    # Tor_3 sits in degree 5, not nu(3) = 4, and Tor_4 in degree 7, not nu(4) = 6
    Y = yang_mills(SuperSpace.standard(1, 1))
    assert tor_dims(Y, 4, 7).dims == {0: {0: 1}, 1: {1: 2}, 2: {3: 2}, 3: {5: 2}, 4: {7: 2}}


def test_tor_of_the_cubic_symmetric_2_1_algebra_through_order_7():
    # Koszul, so Tor_i is D_nu(i) in degree nu(i) = 1, 3, 4, 6, 7
    A = n_symmetric(SuperSpace.standard(2, 1), 3)
    assert tor_dims(A, 5, 7).dims == {
        0: {0: 1}, 1: {1: 3}, 2: {3: 4}, 3: {4: 4}, 4: {6: 4}, 5: {7: 4}
    }
    assert [A.dual_star_component(jump(3, i)).dim for i in range(1, 6)] == [3, 4, 4, 4, 4]


@pytest.mark.parametrize("N, dims", [
    (2, {0: {0: 1}, 1: {1: 3}, 2: {2: 5}, 3: {3: 7}, 4: {4: 9}}),
    (3, {0: {0: 1}, 1: {1: 3}, 2: {3: 7}, 3: {4: 9}, 4: {6: 13}}),
])
def test_tor_of_lambda_dj_2_1_where_the_images_have_scales(N, dims):
    # the normal forms of Lambda_N(dj(2|1, q=2)) have denominators, so the
    # resolution's integer images carry scales > 1 that the kernel tags must
    # take on; the tables come from the exact-value products
    A = lambda_operator_algebra(dj_operator(2, 1, Fraction(2)), N)
    assert tor_dims(A, 4, 6).dims == dims


@pytest.mark.parametrize("call, bounds", [
    (tor_dims, (-1, 3)),
    (tor_dims, (2, -1)),
    (koszul_check, (-2,)),
    (hilbert_series, (-1,)),
    (alternating_dual_series, (-1,)),
    (HomogAlgebra.dims, (-3,)),
    (koszul_duality_check, (-2,)),
], ids=["tor_i_max", "tor_deg_max", "koszul_deg_max", "hilbert_order", "dual_series_order",
        "dims_deg_max", "duality_order"])
def test_negative_bounds_are_rejected(call, bounds):
    with pytest.raises(ValueError, match="must be nonnegative"):
        call(n_symmetric(SuperSpace.standard(1, 1), 2), *bounds)


def test_tor_two_lives_in_relation_degrees():
    for A in (
        n_symmetric(SuperSpace.standard(1, 1), 3),
        quantum_superspace(SuperSpace.standard(2, 0), {(1, 2): Fraction(3)}),
    ):
        table = tor_dims(A, 2, 6)
        assert all(n >= A.N for n in concentrated_degrees(table, 2))


def test_tor_concentration_matches_koszulity():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    assert koszul_check(A, 6).passed
    table = tor_dims(A, 4, 6)
    for i in range(5):
        degs = concentrated_degrees(table, i)
        assert all(n == jump(A.N, i) for n in degs)


# -- confluence and the extra condition ------------------------------------------


def test_confluence_passes_for_the_symmetric_family():
    for (p, q) in [(1, 1), (2, 1), (0, 2)]:
        for N in (2, 3):
            assert n_symmetric(SuperSpace.standard(p, q), N).confluence_report().passed


def test_confluence_passes_for_quantum_superspace():
    A = quantum_superspace(SuperSpace.standard(2, 1), {(1, 2): Fraction(2), (1, 3): Fraction(5), (2, 3): Fraction(1, 3)})
    assert A.confluence_report().passed


def test_engineered_overlap_fails_confluence():
    # x1 x x1 rewrites to x1 x x2: the cube x1 x1 x1 resolves two ways to
    # different normal forms, and the dimension count confirms the failure
    A = custom_algebra((0, 0), 2, [[(1, (1, 1)), (-1, (1, 2))]])
    report = A.confluence_report()
    assert not report.passed
    # oracle: reduced words of length 3 over-count the true dimension
    _, dim3 = A.graded_component(3)
    reduced = [w for w in A.space.words(3) if A.is_reduced(w)]
    assert len(reduced) != dim3


def test_extra_condition_vacuous_for_quadratic_algebras():
    A = n_symmetric(SuperSpace.standard(2, 0), 2)
    report = A.extra_condition_report()
    assert report.passed and report.vacuous


def test_extra_condition_for_cubic_hecke_type_algebras():
    for (p, q) in [(2, 0), (1, 1), (0, 2)]:
        A = n_symmetric(SuperSpace.standard(p, q), 3)
        report = A.extra_condition_report()
        assert report.passed


def test_extra_condition_for_operator_algebras():
    from superkoszul.hecke import dj_operator
    from superkoszul.homogeneous import lambda_operator_algebra

    for (p, q) in [(2, 0), (1, 1), (0, 2)]:
        A = lambda_operator_algebra(dj_operator(p, q, Fraction(2)), 3)
        assert A.extra_condition_report().passed


def test_extra_condition_failure_is_detectable():
    # relations x1x1x2 and x2x1x1: the word x1x1x2x1x1 lies in both outer
    # placements but not in the middle one
    A = custom_algebra((0, 0), 3, [[(1, (1, 1, 2))], [(1, (2, 1, 1))]])
    report = A.extra_condition_report()
    assert not report.passed


def test_extra_condition_on_yang_mills_duals_fails():
    # the duals of Yang-Mills algebras are never Koszul; the extra condition
    # detects this directly
    for (p, q) in [(3, 0), (1, 1)]:
        dual = yang_mills(SuperSpace.standard(p, q)).dual_algebra()
        assert not dual.extra_condition_report().passed


def test_extra_condition_defect_is_a_dimension():
    # dim M - dim(M cap V^(n-1) x R x V); counting the meet rows with a
    # nonzero residual instead reads 3, 13 and 154 on these three
    A = custom_algebra((1, 0), 3, [[(-1, (2, 1, 1)), (1, (1, 2, 1)), (1, (1, 1, 2))],
                                   [(-1, (1, 1, 1))], [(-1, (1, 1, 2))]])
    assert A.extra_condition_report().entries == [(2, False, 2)]
    assert "FAIL (defect dimension 2)" in str(A.extra_condition_report())
    for (p, q), defect in [((1, 1), 6), ((3, 0), 21)]:
        dual = yang_mills(SuperSpace.standard(p, q)).dual_algebra()
        assert dual.extra_condition_report().entries == [(2, False, defect)]


# -- Hilbert series and duality ---------------------------------------------------


def test_hilbert_series_of_the_line():
    A = n_symmetric(SuperSpace.standard(1, 0), 2)
    H = hilbert_series(A, 6)
    assert all(c == 1 for c in H.coeffs)
    P = alternating_dual_series(A, 6)
    assert (H * P) == TruncatedSeries.one(6)


def test_hilbert_series_of_even_yang_mills():
    Y = yang_mills(SuperSpace.standard(3, 0))
    assert [int(c) for c in hilbert_series(Y, 4).coeffs] == [1, 3, 9, 24, 64]
    assert koszul_duality_check(Y, 6).passed


def test_hilbert_series_of_the_super_plane():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    H = hilbert_series(A, 6)
    assert [int(c) for c in H.coeffs] == [1, 2, 2, 2, 2, 2, 2]
    # (1+t)/(1-t) expanded
    expected = TruncatedSeries(6, [Fraction(1)] + [Fraction(2)] * 6)
    assert H == expected


def test_dual_series_eliminates_nothing_above_the_first_zero(monkeypatch):
    # the dual of YM(2|2) has A^!_4 = 0, so R^!_4 is all of V^(x 4) and every
    # later component is 0 without eliminating 4^6 or 4^7 words; dim A^!_4
    # itself is read from the overlap meet of R^!, as R^!_4 = R^! x V + V x R^!
    calls = []
    graded_component = HomogAlgebra.graded_component

    def counted(self, n):
        calls.append(n)
        return graded_component(self, n)

    monkeypatch.setattr(HomogAlgebra, "graded_component", counted)
    series = alternating_dual_series(yang_mills(SuperSpace.standard(2, 2)), 8)
    assert series.coeffs == [1, -4, 0, 4, 0, 0, 0, 0, 0]
    assert max(calls) == 3


@pytest.mark.parametrize("p, q", [(2, 1), (1, 2), (1, 1)])
def test_dimensions_after_the_first_zero_match_elimination(p, q):
    # the shortcut against the full elimination of R_n, degree by degree
    dual = yang_mills(SuperSpace.standard(p, q)).dual_algebra()
    dims = dual.dims(7)
    assert dims[:4] == [1, p + q, (p + q) ** 2, p + q] and dims[4:] == [0] * 4
    assert dims == [dual.graded_component(n)[1] for n in range(8)]


@pytest.mark.parametrize("p, q, top", [(2, 1, 7), (1, 2, 7), (2, 2, 6)])
def test_basis_words_after_the_first_zero_match_elimination(p, q, top):
    # reduced_words stops at the first zero on the echelon route, as
    # dim_component does, and dim A^!_4 = 0 needs no R^!_4; checked against
    # the non-pivot words of R_n
    dual = yang_mills(SuperSpace.standard(p, q)).dual_algebra()
    assert not dual.confluence_report().passed
    words = [dual.reduced_words(n) for n in range(top + 1)]
    assert [len(w) for w in words][4:] == [0] * (top - 3)
    assert max(key[1] for key in dual._cache if key[0] == "_graded_relations") == 3
    for n in range(top + 1):
        Rn = dual._graded_relations(n).rows
        assert words[n] == [w for w in dual.space.words(n) if w not in Rn], n


def test_duality_fails_for_the_mixed_yang_mills_algebra():
    M = yang_mills(SuperSpace.standard(1, 1))
    check = koszul_duality_check(M, 6)
    assert not check.passed
    # alternating sums of products of dimensions vanish for Koszul algebras;
    # here the degree-5 coefficient survives
    assert check.product.coeffs[5] != 0


def test_koszul_duality_for_verified_algebras():
    for A in (
        n_symmetric(SuperSpace.standard(0, 2), 2),
        n_symmetric(SuperSpace.standard(1, 1), 3),
        tensor_algebra(SuperSpace.standard(1, 1), 2),
    ):
        assert koszul_duality_check(A, 7).passed
