"""Koszul complexes, exactness, Tor tables, confluence, Hilbert duality."""

from fractions import Fraction

import pytest

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
from superkoszul.tensorspace import Subspace, SuperSpace, axpy


def test_jump_function():
    assert [jump(2, i) for i in range(6)] == [0, 1, 2, 3, 4, 5]
    assert [jump(3, i) for i in range(6)] == [0, 1, 3, 4, 6, 7]


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


def test_differentials_compose_to_zero():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    for n in range(2, 6):
        for i in range(1, 4):
            if jump(A.N, i + 1) > n:
                continue
            d_i = koszul_matrix(A, i, n)
            d_next = koszul_matrix(A, i + 1, n)
            assert d_i.compose_is_zero_with(d_next)


def test_cubic_differentials_compose_to_zero():
    A = n_symmetric(SuperSpace.standard(2, 1), 3)
    for n in range(3, 7):
        d1 = koszul_matrix(A, 1, n)
        d2 = koszul_matrix(A, 2, n)
        assert d1.compose_is_zero_with(d2)


def test_line_algebra_has_trivial_second_slot():
    A = n_symmetric(SuperSpace.standard(1, 0), 2)  # polynomial line k[x]
    sl = koszul_matrix(A, 2, 2)
    assert sl.source_dim == 0  # no antisymmetric square of a line


def test_coproduct_table_reassembles_every_dual_row():
    # Lambda_3 of dj_operator(1, 1, 2) has dual rows with denominators up to 2^12
    for A in (
        n_symmetric(SuperSpace.standard(2, 1), 3),
        lambda_operator_algebra(dj_operator(1, 1, Fraction(2)), 3),
    ):
        for m in range(A.N + 4):
            for k in {1, A.N - 1} & set(range(m + 1)):
                rows, tails = A.dual_star_component(m).rows, A.dual_star_component(m - k).rows
                table = A.dual_coproduct(m, k)
                assert table.keys() == rows.keys()
                for pvt, parts in table.items():
                    row: dict = {}
                    for u, coords in parts:
                        for t, c in coords.items():
                            axpy(row, {u + x: a for x, a in tails[t].items()}, c)
                    assert row == rows[pvt], (A.label, m, k, pvt)


def test_coproduct_table_checks_that_every_tail_is_in_the_dual(monkeypatch):
    # V^(x 3) is not inside V x D_2 = V x R, so some tail leaves D_2
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    dual_star = A.dual_star_component
    monkeypatch.setattr(
        A, "dual_star_component", lambda n: Subspace.full(A.space, 3) if n == 3 else dual_star(n)
    )
    with pytest.raises(ValueError, match="not in the subspace"):
        koszul_matrix(A, 3, 3)


def test_koszul_check_passes_for_small_symmetric_algebras():
    assert koszul_check(n_symmetric(SuperSpace.standard(2, 0), 2), 6).passed
    assert koszul_check(n_symmetric(SuperSpace.standard(2, 1), 3), 8).passed


def test_koszul_check_runs_without_confluence():
    A = custom_algebra((0, 0), 2, [[(1, (1, 1)), (-1, (1, 2))]])
    assert not A.confluence_report().passed
    assert koszul_check(A, 6).passed
    assert koszul_duality_check(A, 6).passed


@pytest.mark.parametrize("A, deg_max, interior", [
    (n_symmetric(SuperSpace.standard(2, 1), 3), 8, True),
    (yang_mills(SuperSpace.standard(1, 1)), 7, True),
    (n_symmetric(SuperSpace.standard(1, 0), 2), 6, False),  # k[x]: D_2 = 0
])
def test_koszul_check_eliminates_only_interior_slices(A, deg_max, interior, monkeypatch):
    # delta_1, the top slices nu(i) = n and the slices with an empty source
    # have ranks read from the presentation, so none of them is built
    built = []

    def counting_koszul_matrix(A, i, n):
        built.append((i, n))
        return koszul_matrix(A, i, n)

    monkeypatch.setattr("superkoszul.koszul.koszul_matrix", counting_koszul_matrix)
    koszul_check(A, deg_max)
    assert bool(built) == interior
    assert len(set(built)) == len(built)
    for i, n in built:
        m = jump(A.N, i)
        assert 1 < i and m < n, (i, n)
        assert A.reduced_words(n - m) and A.dual_star_component(m).dim, (i, n)


def test_mixed_yang_mills_1_1_is_not_exact_where_duality_breaks():
    A = yang_mills(SuperSpace.standard(1, 1))
    assert not A.confluence_report().passed
    verdict = koszul_check(A, 7)
    assert verdict.failures == [(2, 5, 2), (2, 6, 4), (2, 7, 6)]
    product = koszul_duality_check(A, 7).product
    first_break = next(n for n in range(1, 8) if product.coeffs[n] != 0)
    assert verdict.failures[0][1] == first_break == 5


def test_mixed_yang_mills_2_1_is_koszul_through_degree_6():
    A = yang_mills(SuperSpace.standard(2, 1))
    assert not A.confluence_report().passed
    assert koszul_check(A, 6).passed
    assert tor_dims(A, 4, 6).concentrated_degrees(3) == []


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
    assert table.concentrated_degrees(2) == []
    assert table.concentrated_degrees(3) == []


def test_tor_of_the_even_yang_mills_algebra():
    # Koszul of global dimension 3 (Connes-Dubois-Violette), through order 7
    Y = yang_mills(SuperSpace.standard(3, 0))
    assert tor_dims(Y, 4, 7).dims == {0: {0: 1}, 1: {1: 3}, 2: {3: 3}, 3: {4: 1}, 4: {}}


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
        assert all(n >= A.N for n in table.concentrated_degrees(2))


def test_tor_concentration_matches_koszulity():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    assert koszul_check(A, 6).passed
    table = tor_dims(A, 4, 6)
    for i in range(5):
        degs = table.concentrated_degrees(i)
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
    # later component is 0 without eliminating 4^6 or 4^7 words
    calls = []
    graded_component = HomogAlgebra.graded_component

    def counted(self, n):
        calls.append(n)
        return graded_component(self, n)

    monkeypatch.setattr(HomogAlgebra, "graded_component", counted)
    series = alternating_dual_series(yang_mills(SuperSpace.standard(2, 2)), 8)
    assert series.coeffs == [1, -4, 0, 4, 0, 0, 0, 0, 0]
    assert max(calls) == 4


@pytest.mark.parametrize("p, q", [(2, 1), (1, 2), (1, 1)])
def test_dimensions_after_the_first_zero_match_elimination(p, q):
    # the shortcut against the full elimination of R_n, degree by degree
    dual = yang_mills(SuperSpace.standard(p, q)).dual_algebra()
    dims = dual.dims(7)
    assert dims[:4] == [1, p + q, (p + q) ** 2, p + q] and dims[4:] == [0] * 4
    assert dims == [dual.graded_component(n)[1] for n in range(8)]


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
