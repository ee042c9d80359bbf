"""Presentations, graded components, duals, products, and rewriting."""

from fractions import Fraction
from itertools import product
from math import comb

import pytest

from superkoszul.hecke import dj_operator, supersymmetry_operator, symmetrizer_image
from superkoszul.homogeneous import (
    ConfluenceReport,
    InternalInconsistencyError,
    custom_algebra,
    end_algebra,
    homog_product,
    lambda_operator_algebra,
    n_symmetric,
    quantum_superspace,
    s_operator_algebra,
    tensor_algebra,
    yang_mills,
)
from superkoszul.tensorspace import (
    Subspace,
    SuperSpace,
    axpy,
    dual_complement,
    wedge_dimension,
)


def quantum_dim(p, q, n):
    # ordered monomials: r even letters with repetition, n-r distinct odd ones
    total = 0
    for r in range(n + 1):
        even_count = comb(r + p - 1, p - 1) if p else (1 if r == 0 else 0)
        total += even_count * comb(q, n - r)
    return total


def test_quantum_superspace_dimensions():
    A = quantum_superspace(SuperSpace.standard(1, 1))
    assert A.dim_component(2) == 2
    for p in range(3):
        for q in range(3):
            if not 1 <= p + q <= 3:
                continue
            B = quantum_superspace(SuperSpace.standard(p, q), {(1, 2): Fraction(7, 2)} if p + q >= 2 else None)
            for n in range(5):
                assert B.dim_component(n) == quantum_dim(p, q, n), (p, q, n)


def test_tensor_algebra_is_free():
    T = tensor_algebra(SuperSpace.standard(1, 1), 2)
    assert T.dims(5) == [2 ** n for n in range(6)]


def test_cubic_symmetric_algebra_on_two_even_generators_is_free():
    S = n_symmetric(SuperSpace.standard(2, 0), 3)
    assert S.R.dim == 0
    assert S.dims(4) == [1, 2, 4, 8, 16]


def test_dimension_complement_identity():
    A = quantum_superspace(SuperSpace.standard(1, 2))
    for n in range(5):
        Rn, dim = A.graded_component(n)
        assert dim + Rn.dim == A.dim_V ** n


# -- duals ---------------------------------------------------------------------


def test_dual_of_free_algebra_is_truncated():
    T = tensor_algebra(SuperSpace.standard(1, 1), 3)
    assert T.dual_algebra().dims(5) == [1, 2, 4, 0, 0, 0]


def test_dual_of_quantum_superspace():
    # coefficientwise, the dual relations agree with the flipped-format
    # quantum superspace at parameters (-1)^(i^+j^) q_ij
    fmt = (0, 1)
    q12 = Fraction(1, 2)
    A = quantum_superspace(SuperSpace(fmt), {(1, 2): q12})
    flipped = quantum_superspace(
        SuperSpace(tuple(1 - x for x in fmt)),
        {(1, 2): q12 * (-1) ** (fmt[0] + fmt[1])},
    )
    assert dual_complement(A.R).rows == flipped.R.rows


def test_double_dual_restores_the_relations():
    A = n_symmetric(SuperSpace.standard(2, 1), 2)
    assert A.dual_algebra().dual_algebra().R == A.R


def test_dual_star_components_of_the_symmetric_algebra():
    for (p, q), N in [((1, 1), 2), ((2, 1), 3), ((0, 2), 2)]:
        S = n_symmetric(SuperSpace.standard(p, q), N)
        flip = supersymmetry_operator(S.space)
        for n in range(N):
            assert S.dual_star_component(n).dim == (p + q) ** n
        for n in range(N, 7):
            assert S.dual_star_component(n) == symmetrizer_image(flip, n, "Y")


def test_dual_star_dims_equal_dual_algebra_dims():
    A = quantum_superspace(SuperSpace.standard(1, 1), {(1, 2): Fraction(3)})
    dual = A.dual_algebra()
    for n in range(6):
        assert A.dual_star_component(n).dim == dual.dim_component(n)


def test_yang_mills_dual_components():
    Y = yang_mills(SuperSpace.standard(3, 0))
    assert [Y.dual_star_component(n).dim for n in range(7)] == [1, 3, 9, 3, 1, 0, 0]


# -- products ------------------------------------------------------------------


def test_white_product_with_the_line_preserves_dimensions():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    line = tensor_algebra(SuperSpace((0,)), 2)  # k[t], the unit of the white product
    W = homog_product("white", line, A)
    assert [W.dim_component(n) for n in range(6)] == [A.dim_component(n) for n in range(6)]


def test_black_product_of_free_algebras_is_free():
    T1 = tensor_algebra(SuperSpace.standard(1, 0), 2)
    T2 = tensor_algebra(SuperSpace.standard(0, 1), 2)
    assert homog_product("black", T1, T2).R.dim == 0


def test_product_duality_exchange():
    # dimensions of (A o A)^! agree with A^! * A^! through degree 4
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    lhs = homog_product("white", A, A).dual_algebra()
    rhs = homog_product("black", A.dual_algebra(), A.dual_algebra())
    for n in range(5):
        assert lhs.dim_component(n) == rhs.dim_component(n)


def test_product_duality_exchange_swaps_the_factors():
    # for distinct factors the dual of the white product matches the black
    # product taken in the opposite order
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    B = quantum_superspace(SuperSpace.standard(2, 0), {(1, 2): Fraction(3)})
    lhs = homog_product("white", A, B).dual_algebra()
    rhs = homog_product("black", B.dual_algebra(), A.dual_algebra())
    for n in range(5):
        assert lhs.dim_component(n) == rhs.dim_component(n)


def test_segre_dimension_law():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    B = quantum_superspace(SuperSpace.standard(2, 0), {(1, 2): Fraction(5)})
    # dim (A o B)_n = dim A_n * dim B_n
    P = homog_product("white", A, B)
    for n in range(6):
        assert P.dim_component(n) == A.dim_component(n) * B.dim_component(n), n


def test_mismatched_degrees_rejected():
    line = tensor_algebra(SuperSpace((0,)), 2)
    with pytest.raises(ValueError):
        homog_product("white", line, yang_mills(SuperSpace.standard(2, 0)))


@pytest.mark.parametrize(
    "method", ["dim_component", "count_reduced_words", "graded_component", "reduced_words"]
)
def test_a_negative_degree_is_rejected(method):
    # unchecked, the first three gave the float d ** -1 and reduced_words recursed
    A = n_symmetric(SuperSpace.standard(2, 1), 2)
    with pytest.raises(ValueError, match="must be nonnegative"):
        getattr(A, method)(-1)


def test_end_of_free_algebra_is_free():
    E = end_algebra(tensor_algebra(SuperSpace.standard(1, 1), 2))
    assert E.dims(3) == [1, 4, 16, 64]


def test_end_of_polynomial_line():
    E = end_algebra(n_symmetric(SuperSpace.standard(1, 0), 2))
    assert E.dims(4) == [1, 1, 1, 1, 1]


def test_end_of_the_even_plane():
    E = end_algebra(n_symmetric(SuperSpace.standard(2, 0), 2))
    assert E.dim_component(2) == 16 - 3


# -- rewriting ------------------------------------------------------------------


def test_rewrite_map_of_the_even_plane():
    A = n_symmetric(SuperSpace.standard(2, 0), 2)
    assert A.rewrite_map() == {(1, 2): {(2, 1): Fraction(1)}}


def test_rewrite_map_lowers_pivots_and_spans_R():
    for A in (
        n_symmetric(SuperSpace.standard(1, 1), 2),
        n_symmetric(SuperSpace.standard(2, 1), 3),
        quantum_superspace(SuperSpace.standard(1, 2), {(1, 2): Fraction(3, 4)}),
        yang_mills(SuperSpace.standard(2, 0)),
    ):
        rewrite = A.rewrite_map()
        assert set(rewrite) == set(A.R.rows)
        rows = []
        for pivot, tail in rewrite.items():
            # tails are supported on strictly smaller monomials, none a pivot
            assert all(u > pivot and u not in rewrite for u in tail)
            row = {w: -c for w, c in tail.items()}
            row[pivot] = Fraction(1)
            rows.append(row)
        # pivot minus tail recovers the relation subspace
        assert Subspace(A.space, A.N, rows) == A.R


def test_rewrite_map_of_an_odd_line():
    A = n_symmetric(SuperSpace.standard(0, 1), 2)
    assert A.rewrite_map() == {(1, 1): {}}


def test_free_algebra_has_no_rewrites():
    assert tensor_algebra(SuperSpace.standard(1, 1), 2).rewrite_map() == {}


def test_normal_form_sorts_commuting_generators():
    A = n_symmetric(SuperSpace.standard(2, 0), 2)
    assert A.normal_form_word((1, 2, 1)) == {(2, 1, 1): Fraction(1)}
    word = (1, 2, 2, 1)
    assert A.normal_form_word(word) == {(2, 2, 1, 1): Fraction(1)}


def test_normal_form_kills_odd_squares():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    assert A.normal_form_word((2, 2)) == {}


def test_reduced_words_are_fixed_points():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    for w in A.reduced_words(4):
        assert A.normal_form_word(w) == {w: Fraction(1)}


@pytest.mark.parametrize("word", [(3, 3), (1, 3), (0, 1), (1, -1, 2)])
def test_normal_form_rejects_a_letter_outside_1_to_d(word):
    # unchecked, (3, 3) came back as its own normal form {(3, 3): 1}
    with pytest.raises(ValueError, match="outside 1..2"):
        n_symmetric(SuperSpace((0, 1)), 2).normal_form_word(word)


def test_normal_form_is_idempotent_and_a_congruence():
    A = n_symmetric(SuperSpace.standard(2, 1), 2)
    Rn, _ = A.graded_component(3)
    for w in A.space.words(3):
        nf = A.normal_form_word(w)
        diff = dict(nf)
        diff[w] = diff.get(w, Fraction(0)) - 1
        assert not Rn.reduce(diff)
        for u in nf:
            assert A.normal_form_word(u) == {u: 1}


@pytest.mark.parametrize("A", [
    n_symmetric(SuperSpace.standard(2, 1), 3),
    yang_mills(SuperSpace.standard(3, 0)),
], ids=["S3(2|1)", "YM(3|0)"])
def test_integral_presentations_have_integer_normal_forms(A):
    assert A.confluence_report().passed
    for n in range(7):
        for w in A.space.words(n):
            assert all(type(c) is int for c in A.normal_form_word(w).values()), w


def test_rewriting_strategy_does_not_matter_when_confluent():
    # window rewriting agrees with the residual modulo the echelon of R_5
    A = n_symmetric(SuperSpace.standard(1, 2), 3)
    R5 = A.graded_component(5)[0]
    for w in A.space.words(5):
        assert A.normal_form_word(w) == R5.reduce({w: 1})


def test_reduced_word_count_matches_graded_dimension():
    for algebra in (
        n_symmetric(SuperSpace.standard(2, 1), 3),
        quantum_superspace(SuperSpace.standard(1, 2), {(1, 2): Fraction(2)}),
    ):
        for n in range(6):
            assert len(algebra.reduced_words(n)) == algebra.graded_component(n)[1]
            assert algebra.count_reduced_words(n) == len(algebra.reduced_words(n))


def _overlapping_rewrite():
    # x1 x1 - x1 x2: irreducible words avoid x1 x1 (Fibonacci counts) while
    # dim A_n = n + 1, so the rewriting system is not confluent
    return custom_algebra((0, 0), 2, [[(1, (1, 1)), (-1, (1, 2))]])


def test_dim_component_eliminates_when_not_confluent():
    A = _overlapping_rewrite()
    assert not A.confluence_report().passed
    assert [A.count_reduced_words(n) for n in range(7)] == [1, 2, 3, 5, 8, 13, 21]
    assert [A.dim_component(n) for n in range(7)] == [A.graded_component(n)[1] for n in range(7)]
    assert A.dims(6) == [1, 2, 3, 4, 5, 6, 7]


def test_count_is_cross_checked_against_elimination(monkeypatch):
    A = _overlapping_rewrite()
    monkeypatch.setattr(A, "confluence_report", lambda: ConfluenceReport())
    assert A.dim_component(3) == 4  # below 2N: elimination, no cross-check
    with pytest.raises(InternalInconsistencyError, match="length 3"):
        A.dim_component(4)


@pytest.mark.parametrize("p, top, dims", [
    (3, 4, [1, 3, 9, 1, 0, 0, 0, 0, 0]),
    (2, 3, [1, 2, 4, 0, 0, 0, 0, 0, 0]),
])
def test_count_check_stops_at_the_first_zero(p, top, dims, monkeypatch):
    # past A_m = 0 every word of V^(x n) is a pivot of R_n, so neither side
    # of the check is eliminated there
    A = n_symmetric(SuperSpace.standard(p, 0), 3).dual_algebra()
    asked = []
    graded_component = A.graded_component
    monkeypatch.setattr(A, "graded_component", lambda n: asked.append(n) or graded_component(n))
    assert A.dims(8) == dims
    assert max(asked) == top


def test_internal_inconsistency_error_is_still_importable_from_macmahon():
    from superkoszul import macmahon

    assert macmahon.InternalInconsistencyError is InternalInconsistencyError


def test_non_confluent_algebra_has_echelon_normal_forms():
    A = custom_algebra((0, 0), 2, [[(1, (1, 1)), (-1, (1, 2))]])
    assert not A.confluence_report().passed
    for n in range(7):
        assert len(A.reduced_words(n)) == n + 1, n
    word = (1, 1, 1)
    nf = A.normal_form_word(word)
    assert set(nf) <= set(A.reduced_words(3))
    assert nf != {word: 1}
    diff = dict(nf)
    diff[word] = diff.get(word, 0) - 1
    assert not A.graded_component(3)[0].reduce(diff)


# -- built-in families ----------------------------------------------------------


def test_n_symmetric_relation_dimension():
    A = n_symmetric(SuperSpace.standard(1, 1), 2)
    assert A.R.dim == wedge_dimension(1, 1, 2) == 2


def test_yang_mills_presentation_of_the_heisenberg_flavor():
    # two even generators: relations [x,[x,y]] and [y,[y,x]]
    Y = yang_mills(SuperSpace.standard(2, 0))
    assert Y.R.dim == 2
    expected = custom_algebra(
        (0, 0),
        3,
        [
            [(1, (1, 1, 2)), (-2, (1, 2, 1)), (1, (2, 1, 1))],
            [(1, (2, 2, 1)), (-2, (2, 1, 2)), (1, (1, 2, 2))],
        ],
    )
    assert Y.R == expected.R


@pytest.mark.parametrize("p, q, relations", [
    # one even, one odd generator: [x1,[x1,x2]] and [x2,[x2,x1]] with x2 odd
    (1, 1, [
        [(1, (1, 1, 2)), (-2, (1, 2, 1)), (1, (2, 1, 1))],
        [(1, (1, 2, 2)), (-1, (2, 2, 1))],
    ]),
    # two odd generators
    (0, 2, [
        [(1, (1, 1, 2)), (-1, (2, 1, 1))],
        [(1, (1, 2, 2)), (-1, (2, 2, 1))],
    ]),
])
def test_yang_mills_presentation_with_odd_generators(p, q, relations):
    sp = SuperSpace.standard(p, q)
    Y = yang_mills(sp)
    assert Y.R == custom_algebra(sp, 3, relations).R


def test_yang_mills_accepts_a_non_diagonal_metric():
    G = [[0, 1], [1, 0]]
    Y = yang_mills(SuperSpace.standard(2, 0), G)
    assert Y.R.dim == 2


def _substitute(row, P):
    """The row with every letter x_i replaced by sum_a P[a][i] x_a."""
    out: dict = {}
    for word, c in row.items():
        terms = {(): Fraction(c)}
        for i in word:
            terms = {
                t + (a + 1,): v * P[a][i - 1]
                for t, v in terms.items()
                for a in range(len(P))
                if P[a][i - 1]
            }
        axpy(out, terms, 1)
    return out


@pytest.mark.parametrize("p, q, G, P", [
    (3, 0, [[0, 1, 0], [1, 0, 0], [0, 0, 1]], [[1, 2, 0], [0, 1, 3], [1, 0, 1]]),
    (2, 2, [[2, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]],
     [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]),
    (1, 2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]], [[2, 0, 0], [0, 1, 1], [0, 1, 2]]),
])
def test_yang_mills_metric_transforms_by_congruence(p, q, G, P):
    # x -> Px carries the relations of G onto those of P G P^T
    sp = SuperSpace.standard(p, q)
    d = p + q
    PGPt = [
        [sum(P[i][a] * G[a][b] * P[k][b] for a in range(d) for b in range(d)) for k in range(d)]
        for i in range(d)
    ]
    substituted = Subspace(sp, 3, [_substitute(r, P) for r in yang_mills(sp, G).R.rows.values()])
    assert substituted == yang_mills(sp, PGPt).R


def test_end_algebra_rows_are_pinned():
    E = end_algebra(n_symmetric(SuperSpace.standard(1, 1), 2))
    assert E.R.rows == {
        (1, 2): {(1, 2): 1, (2, 1): -1},
        (2, 2): {(2, 2): 1},
        (1, 4): {(3, 2): 1, (4, 1): -1, (1, 4): 1, (2, 3): 1},
        (2, 4): {(4, 2): -1, (2, 4): 1},
    }


def test_white_product_rows_are_pinned():
    # both factors have an odd letter, so the interleave signs show
    S = n_symmetric(SuperSpace.standard(1, 1), 2)
    Q = quantum_superspace(SuperSpace.standard(1, 1), {(1, 2): Fraction(2)})
    half = Fraction(-1, 2)
    assert homog_product("white", S, Q).R.rows == {
        (1, 3): {(1, 3): 1, (3, 1): -1},
        (1, 4): {(1, 4): 1, (4, 1): half},
        (2, 3): {(2, 3): 1, (4, 1): 1},
        (2, 4): {(2, 4): 1},
        (3, 3): {(3, 3): 1},
        (3, 4): {(3, 4): 1},
        (4, 3): {(4, 3): 1},
        (4, 4): {(4, 4): 1},
        (2, 2): {(2, 2): 1},
        (1, 2): {(2, 1): half, (1, 2): 1},
        (4, 2): {(4, 2): 1},
        (3, 2): {(4, 1): half, (3, 2): 1},
    }


def test_black_product_rows_are_pinned_at_n_2():
    # x_2 and y_1 are odd; the letter (a - 1) * 2 + b is x_a y_b
    S = n_symmetric((0, 1), 2)
    T = n_symmetric((1, 0), 2)
    assert homog_product("black", S, T).R.rows == {
        (1, 3): {(1, 3): 1, (3, 1): 1},
        (1, 4): {(1, 4): 1, (2, 3): 1, (3, 2): 1, (4, 1): -1},
        (3, 3): {(3, 3): 1},
        (3, 4): {(3, 4): 1, (4, 3): 1},
    }


def test_black_product_rows_are_pinned_at_n_3():
    S = n_symmetric((0, 1), 3)
    T = n_symmetric((1, 0), 3)
    assert homog_product("black", S, T).R.rows == {
        (1, 3, 3): {(1, 3, 3): 1, (3, 1, 3): 1, (3, 3, 1): 1},
        (1, 3, 4): {
            (1, 3, 4): 1, (1, 4, 3): 1, (2, 3, 3): 1, (3, 1, 4): 1, (3, 2, 3): 1,
            (3, 3, 2): 1, (3, 4, 1): -1, (4, 1, 3): -1, (4, 3, 1): -1,
        },
        (3, 3, 3): {(3, 3, 3): 1},
        (3, 3, 4): {(3, 3, 4): 1, (3, 4, 3): 1, (4, 3, 3): 1},
    }


def test_white_product_rows_are_pinned_at_n_3():
    S = n_symmetric((0, 1), 3)
    T = n_symmetric((1, 0), 3)
    assert homog_product("white", S, T).R.rows == {
        (1, 1, 1): {(1, 1, 1): 1},
        (1, 1, 2): {(1, 1, 2): 1, (1, 2, 1): -1, (2, 1, 1): 1},
        (1, 1, 3): {(1, 1, 3): 1},
        (1, 1, 4): {(1, 1, 4): 1, (1, 2, 3): 1, (2, 1, 3): -1},
        (1, 3, 1): {(1, 3, 1): 1},
        (1, 3, 2): {(1, 3, 2): 1, (1, 4, 1): -1, (2, 3, 1): -1},
        (1, 3, 3): {(1, 3, 3): 1},
        (1, 3, 4): {(1, 3, 4): 1, (3, 2, 3): -1, (3, 4, 1): 1, (4, 1, 3): 1, (4, 3, 1): 1},
        (1, 4, 3): {(1, 4, 3): 1, (3, 2, 3): 1, (3, 4, 1): -1},
        (1, 4, 4): {(1, 4, 4): 1, (3, 2, 4): 1, (3, 4, 2): -1},
        (2, 3, 3): {(2, 3, 3): 1, (4, 1, 3): -1, (4, 3, 1): -1},
        (2, 3, 4): {(2, 3, 4): 1, (4, 1, 4): -1, (4, 3, 2): -1},
        (2, 4, 3): {(2, 4, 3): 1, (4, 2, 3): -1, (4, 4, 1): 1},
        (2, 4, 4): {(2, 4, 4): 1, (4, 2, 4): -1, (4, 4, 2): 1},
        (3, 1, 1): {(3, 1, 1): 1},
        (3, 1, 2): {(3, 1, 2): 1, (3, 2, 1): -1, (4, 1, 1): 1},
        (3, 1, 3): {(3, 1, 3): 1},
        (3, 1, 4): {(3, 1, 4): 1, (3, 2, 3): 1, (4, 1, 3): -1},
        (3, 3, 1): {(3, 3, 1): 1},
        (3, 3, 2): {(3, 3, 2): 1, (3, 4, 1): -1, (4, 3, 1): -1},
        (3, 3, 3): {(3, 3, 3): 1},
        (3, 3, 4): {(3, 3, 4): 1},
        (3, 4, 3): {(3, 4, 3): 1},
        (3, 4, 4): {(3, 4, 4): 1},
        (4, 3, 3): {(4, 3, 3): 1},
        (4, 3, 4): {(4, 3, 4): 1},
        (4, 4, 3): {(4, 4, 3): 1},
        (4, 4, 4): {(4, 4, 4): 1},
    }


def test_yang_mills_rows_are_pinned_for_a_non_diagonal_metric_and_an_odd_letter():
    Y = yang_mills((0, 0, 1), [[1, 2, 0], [2, 3, 0], [0, 0, 1]])
    assert Y.R.rows == {
        (1, 1, 2): {
            (1, 1, 2): 1, (1, 2, 1): -2, (1, 3, 3): 2, (2, 1, 1): 1, (2, 3, 3): 3,
            (3, 3, 1): -2, (3, 3, 2): -3,
        },
        (1, 1, 3): {
            (1, 1, 3): 1, (1, 2, 3): 2, (1, 3, 1): -2, (1, 3, 2): -4, (2, 1, 3): 2,
            (2, 2, 3): 3, (2, 3, 1): -4, (2, 3, 2): -6, (3, 1, 1): 1, (3, 1, 2): 2,
            (3, 2, 1): 2, (3, 2, 2): 3,
        },
        (1, 2, 2): {
            (1, 2, 2): 1, (1, 3, 3): 1, (2, 1, 2): -2, (2, 2, 1): 1, (2, 3, 3): 2,
            (3, 3, 1): -1, (3, 3, 2): -2,
        },
    }


def test_quantum_superspace_rows_are_pinned_with_every_parameter_set():
    # x_3 x_2 - q_23 (-1) x_2 x_3 with q_23 = -5 reduces to x_2 x_3 - x_3 x_2 / 5
    A = quantum_superspace((0, 1, 1), {(1, 2): 2, (1, 3): Fraction(1, 3), (2, 3): -5})
    assert A.R.rows == {
        (1, 2): {(1, 2): 1, (2, 1): Fraction(-1, 2)},
        (1, 3): {(1, 3): 1, (3, 1): -3},
        (2, 2): {(2, 2): 1},
        (2, 3): {(2, 3): 1, (3, 2): Fraction(-1, 5)},
        (3, 3): {(3, 3): 1},
    }


@pytest.mark.parametrize("key", [(2, 1), (1, 5), (0, 1), (1, 1)])
def test_quantum_superspace_rejects_a_key_outside_the_table(key):
    # a key outside 1 <= i < j <= d names no relation; it is never dropped
    with pytest.raises(ValueError, match="out of range"):
        quantum_superspace((0, 1), {key: 2})


def test_yang_mills_rejects_bad_metric():
    with pytest.raises(ValueError):
        yang_mills(SuperSpace.standard(1, 1), [[1, 1], [1, 1]])  # parity-mixing entry
    with pytest.raises(ValueError):
        yang_mills(SuperSpace.standard(2, 0), [0, 1])  # singular diagonal
    with pytest.raises(ValueError, match="singular"):
        yang_mills(SuperSpace.standard(2, 0), [[1, 1], [1, 1]])


def test_hecke_operator_algebras_match_the_symmetric_family():
    sp = SuperSpace.standard(1, 1)
    S = s_operator_algebra(supersymmetry_operator(sp), 2)
    assert S.R == n_symmetric(sp, 2).R


@pytest.mark.parametrize("N", [2, 3])
@pytest.mark.parametrize(
    "fmt", [fmt for d in (1, 2, 3) for fmt in product((0, 1), repeat=d)], ids=str
)
def test_n_symmetric_is_the_s_algebra_of_the_supersymmetry(fmt, N):
    A = n_symmetric(fmt, N)
    S = s_operator_algebra(supersymmetry_operator(SuperSpace(fmt)), N)
    assert A.R.rows == S.R.rows
    assert A.label == f"S_{N}({fmt.count(0)}|{fmt.count(1)})"


def test_lambda_algebra_of_a_scalar_operator():
    A = lambda_operator_algebra(dj_operator(1, 0, Fraction(2)), 2)
    assert A.dims(4) == [1, 1, 0, 0, 0]  # truncated line: x^2 = 0


def test_custom_algebra_validation():
    with pytest.raises(ValueError):
        custom_algebra((0, 0), 3, [[(1, (1, 2))]])  # degree != N
    with pytest.raises(ValueError):
        custom_algebra((0, 0), 2, [[(1, (1, 3))]])  # letter out of range


def test_custom_algebra_drops_zero_terms():
    A = custom_algebra((0, 0), 2, [[(0, (1, 2)), (1, (1, 2)), (-1, (2, 1))], [(0, (1, 1))]])
    assert A.R.rows == {(1, 2): {(1, 2): 1, (2, 1): -1}}
