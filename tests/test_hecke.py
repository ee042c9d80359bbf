"""Hecke algebra arithmetic, idempotents, and Yang-Baxter operators."""

import itertools
import random
from fractions import Fraction

import pytest

from superkoszul.hecke import (
    HeckeElement,
    Permutation,
    SingularParameterError,
    YangBaxterOperator,
    all_permutations,
    dj_operator,
    hecke_rep,
    intersection_of_generator_images,
    q_idempotents,
    supersymmetry_operator,
    symmetrizer_image,
    verify_hecke_operator,
)
from superkoszul.tensorspace import Subspace, SuperSpace, axpy, wedge_dimension

QS = (Fraction(1), Fraction(2), Fraction(1, 2))


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


def test_quadratic_relation_of_a_generator():
    q = Fraction(3)
    T1 = HeckeElement.generator(2, q, 1)
    assert T1 * T1 == T1.scale(q - 1) + HeckeElement.one(2, q).scale(q)


def test_length_additive_product():
    q = Fraction(2)
    T1 = HeckeElement.generator(3, q, 1)
    T2 = HeckeElement.generator(3, q, 2)
    s1s2 = Permutation.transposition(3, 1) * Permutation.transposition(3, 2)
    assert T1 * T2 == HeckeElement.basis(3, q, s1s2)


def test_specialization_at_one_is_the_group_algebra():
    for sigma in all_permutations(3):
        for tau in all_permutations(3):
            prod = HeckeElement.basis(3, 1, sigma) * HeckeElement.basis(3, 1, tau)
            assert prod == HeckeElement.basis(3, 1, sigma * tau)


def test_star_is_an_anti_automorphism():
    def inverse(sigma):
        return Permutation(sorted(range(1, sigma.n + 1), key=lambda i: sigma.word[i - 1]))

    def star(a):  # the involution T_sigma -> T_{sigma^-1}
        return HeckeElement(a.n, a.q, {inverse(s): c for s, c in a.terms.items()})

    rng = random.Random(23)
    q = Fraction(1, 2)
    perms = all_permutations(3)
    for _ in range(20):
        a = HeckeElement.basis(3, q, rng.choice(perms)).scale(rng.randint(1, 3))
        b = HeckeElement.basis(3, q, rng.choice(perms)).scale(rng.randint(-3, -1))
        assert star(a * b) == star(b) * star(a)


def test_symmetrizer_in_rank_two():
    q = Fraction(2)
    X2, Y2 = q_idempotents(2, q)
    expected = (HeckeElement.one(2, q) + HeckeElement.generator(2, q, 1)).scale(
        Fraction(1, 3)  # 1/(1+q)
    )
    assert X2 == expected


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("n", [2, 3, 4])
def test_idempotent_laws(n, q):
    X, Y = q_idempotents(n, q)
    assert X * X == X
    assert Y * Y == Y
    assert not (X * Y).terms
    assert X.alpha() == Y
    for sigma in all_permutations(n):
        T = HeckeElement.basis(n, q, sigma)
        assert X * T == X.scale(q ** sigma.length())
        assert T * X == X.scale(q ** sigma.length())
        assert Y * T == Y.scale(Fraction(-1) ** sigma.length())
        assert T * Y == Y.scale(Fraction(-1) ** sigma.length())


def test_singular_parameter_is_rejected():
    with pytest.raises(SingularParameterError):
        q_idempotents(2, Fraction(-1))  # [2]_q = 1 + q = 0


def test_idempotents_reject_a_negative_rank():
    with pytest.raises(ValueError, match="must be nonnegative"):
        q_idempotents(-1, 2)


def test_hecke_elements_compare_with_scalars_and_are_unhashable():
    assert HeckeElement.one(2, 1) == 1
    with pytest.raises(TypeError):
        hash(HeckeElement.one(2, 1))


# -- operators -----------------------------------------------------------------


@pytest.mark.parametrize("p, q_dim", [(-3, 1), (1, -1)])
def test_dj_rejects_a_negative_count(p, q_dim):
    with pytest.raises(ValueError, match="must be nonnegative"):
        dj_operator(p, q_dim, 2)


def test_dj_scalar_cases():
    even_line = dj_operator(1, 0, Fraction(3))
    assert even_line.columns[(1, 1)] == {(1, 1): Fraction(9)}
    odd_line = dj_operator(0, 1, Fraction(3))
    assert odd_line.columns[(1, 1)] == {(1, 1): Fraction(-1)}


def test_dj_at_one_is_the_supersymmetry():
    R = dj_operator(1, 1, 1)
    c = supersymmetry_operator(SuperSpace.standard(1, 1))
    assert R.columns == c.columns


@pytest.mark.parametrize("p,q_dim", [(p, q) for p in range(4) for q in range(4) if 1 <= p + q <= 3])
def test_built_in_operators_verify(p, q_dim):
    assert verify_hecke_operator(supersymmetry_operator(SuperSpace.standard(p, q_dim))).passed
    for q in QS:
        assert verify_hecke_operator(dj_operator(p, q_dim, q)).passed


def test_scaled_supersymmetry_fails_the_quadratic_relation():
    c = supersymmetry_operator(SuperSpace.standard(1, 1))
    doubled = {pair: {out: 2 * x for out, x in col.items()} for pair, col in c.columns.items()}
    bad = YangBaxterOperator(c.space, 1, doubled)
    report = verify_hecke_operator(bad)
    assert not report.hecke_equation
    assert report.yang_baxter  # scaling preserves the braid relation


def test_swapped_letters_on_both_factors_fail_the_braid_relation_alone():
    # R = g x g, g swapping the two even letters: R^2 = 1 gives the Hecke
    # equation at q = 1, but R_12 R_23 R_12 = 1 x g x g and R_23 R_12 R_23 =
    # g x g x 1
    g = {1: 2, 2: 1}
    pairs = [(i, j) for i in (1, 2) for j in (1, 2)]
    R = YangBaxterOperator(SuperSpace((0, 0)), 1, {(i, j): {(g[i], g[j]): 1} for i, j in pairs})
    report = verify_hecke_operator(R)
    assert report.even and report.hecke_equation
    assert not report.yang_baxter
    assert str(report) == "evenness: PASS\nhecke equation: PASS\nyang-baxter: FAIL"


@pytest.mark.parametrize("n, i", [(2, 0), (2, 2), (3, -1), (3, 0), (3, 3)])
def test_transposition_index_outside_1_to_n_minus_1_is_rejected(n, i):
    # unchecked, i = 0 swapped the last and first letters: T_(w0) for n = 3
    with pytest.raises(ValueError, match="must lie in"):
        Permutation.transposition(n, i)
    with pytest.raises(ValueError, match="must lie in"):
        HeckeElement.generator(n, 2, i)


@pytest.mark.parametrize(
    "entries", [{(1, 2): {(2, 1, 1): 1}}, {(1,): {(1, 1): 1}}, {(1, 2): {(2,): 1}}]
)
def test_operator_words_of_other_than_two_letters_are_rejected(entries):
    with pytest.raises(ValueError, match="two letters"):
        YangBaxterOperator(SuperSpace((0, 1)), 1, entries)


def test_symmetrizer_image_rank_on_a_1_1_space():
    # image of the symmetrizer is the symmetric square; its dimension is the
    # tensor square minus the antisymmetric part
    sp = SuperSpace.standard(1, 1)
    c = supersymmetry_operator(sp)
    im = symmetrizer_image(c, 2, "X")
    assert im.dim == sp.dim ** 2 - wedge_dimension(1, 1, 2) == 2


def test_antisymmetrizer_image_is_the_wedge():
    # the image of Y_n for the supersymmetry against the closed form, on
    # every space of dimension 1 to 3 and in degrees 0 to 4
    for p, q_dim in [(p, q) for p in range(4) for q in range(4) if 1 <= p + q <= 3]:
        c = supersymmetry_operator(SuperSpace.standard(p, q_dim))
        for n in range(5):
            assert symmetrizer_image(c, n, "Y").dim == wedge_dimension(p, q_dim, n)


def image_on_all_words(R, n, kind):
    """The reference image: rho(X_n) or rho(Y_n) on all d^n words."""
    X, Y = q_idempotents(n, R.q)
    return hecke_rep(R, n, X if kind == "X" else Y).image()


def forced_orbit_route(R, n, kind):
    """The span of rho(X_n) or rho(Y_n) on the weakly increasing words, less
    those with equal adjacent letters i where R(x_i x_i) != lambda x_i x_i:
    the image exactly when R has swap form."""
    X, Y = q_idempotents(n, R.q)
    lam = R.q if kind == "X" else -1
    columns = hecke_rep(R, n, X if kind == "X" else Y).columns
    pairs = [(i, i) for i in range(1, R.space.dim + 1) if R.columns.get((i, i)) != {(i, i): lam}]
    words = [
        w
        for w in itertools.combinations_with_replacement(range(1, R.space.dim + 1), n)
        if not any(w[k : k + 2] in pairs for k in range(n - 1))
    ]
    return Subspace(R.space, n, [columns.get(w, {}) for w in words])


@pytest.mark.parametrize(
    "p, q_dim",
    [(p, q) for p in range(4) for q in range(4) if 1 <= p + q <= 3] + [(2, 2), (3, 1), (1, 3)],
)
def test_symmetrizer_image_matches_the_image_on_all_words(p, q_dim):
    # the supersymmetry and dj have swap form, so the image is built from one
    # weakly increasing word per letter content
    sp = SuperSpace.standard(p, q_dim)
    dj = [dj_operator(p, q_dim, q) for q in (2, Fraction(1, 3), 3, -1)]
    for R in [supersymmetry_operator(sp), *dj]:
        for n in (n for n in range(5) if sp.dim ** n <= 300):
            for kind in "XY":
                assert symmetrizer_image(R, n, kind) == image_on_all_words(R, n, kind)


def conjugated_dj():
    """dj(2|0, q=2) conjugated by g x g, g = [[1, 2], [3, 5]]: a Hecke operator
    whose columns mix every word, so it has no swap form."""
    R = dj_operator(2, 0, 2)
    g, g_inv = ((1, 2), (3, 5)), ((-5, 2), (3, -1))

    def on_pairs(m):  # m x m on V x V
        cols = {
            (i, j): {(k, l): m[k - 1][i - 1] * m[l - 1][j - 1] for k in (1, 2) for l in (1, 2)}
            for i in (1, 2)
            for j in (1, 2)
        }
        return cols

    conj = compose(on_pairs(g), compose(R.columns, on_pairs(g_inv)))
    return YangBaxterOperator(R.space, R.q, conj, label="conjugated dj")


def test_operators_without_swap_form_act_on_all_words():
    # the orbit route, forced on these two operators, spans too little
    conj = conjugated_dj()
    assert verify_hecke_operator(conj).passed
    no_swap = YangBaxterOperator(
        SuperSpace((0, 0)), 1, {(1, 1): {(1, 1): 1}, (2, 1): {(1, 2): 1}, (2, 2): {(2, 2): 1}}
    )
    for R, short, full in ((conj, 1, 3), (no_swap, 3, 4)):
        assert forced_orbit_route(R, 2, "X").dim == short
        assert symmetrizer_image(R, 2, "X").dim == full
        for n in range(5):
            for kind in "XY":
                assert symmetrizer_image(R, n, kind) == image_on_all_words(R, n, kind)


def test_symmetrizer_image_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        symmetrizer_image(supersymmetry_operator(SuperSpace.standard(1, 1)), 2, "Z")


@pytest.mark.parametrize(
    "op",
    [
        supersymmetry_operator(SuperSpace.standard(1, 1)),
        supersymmetry_operator(SuperSpace.standard(2, 0)),
        dj_operator(1, 1, Fraction(2)),
        dj_operator(2, 0, Fraction(1, 2)),
        dj_operator(0, 2, Fraction(2)),
    ],
)
def test_symmetrizer_image_is_intersection_of_generator_images(op):
    for n in (2, 3, 4):
        assert symmetrizer_image(op, n, "X") == intersection_of_generator_images(op, n)


def test_twisted_partner_representation():
    # the partner -q R^-1 = (q-1) - R, again a Hecke operator for the same q,
    # represents through the order-2 automorphism
    R = dj_operator(1, 1, Fraction(2))
    minus_q_inverse = {
        w: axpy({w: R.q - 1}, R.columns.get(w, {}), -1) for w in R.space.words(2)
    }
    partner = YangBaxterOperator(R.space, R.q, minus_q_inverse)
    X3, Y3 = q_idempotents(3, R.q)
    for el in (X3, Y3, HeckeElement.generator(3, R.q, 2)):
        assert hecke_rep(partner, 3, el).columns == hecke_rep(R, 3, el.alpha()).columns


def test_parameter_mismatch_is_rejected():
    R = dj_operator(1, 1, Fraction(2))  # associated parameter 4
    with pytest.raises(ValueError):
        hecke_rep(R, 2, HeckeElement.generator(2, Fraction(2), 1))
