"""Generic supermatrices, Berezinians, supercharacters, the master identity."""

import random
from fractions import Fraction

import pytest

from superkoszul.hecke import hecke_rep, q_idempotents, supersymmetry_operator
from superkoszul.homogeneous import custom_algebra, n_symmetric
from superkoszul.macmahon import (
    GenericSupermatrix,
    berezinian_series,
    bosonic_factor,
    char_function,
    closed_form_hilbert,
    coaction_power,
    coaction_tensor,
    diagonal_coefficients,
    endo_tensor,
    fermionic_factor,
    generic_coaction,
    lambda_set,
    master_verify,
    supercharacter,
    supertrace,
)
from superkoszul.superpoly import EXPONENT_BITS, TruncatedSeries
from superkoszul.tensorspace import SuperSpace


def test_generic_supermatrix_parities():
    def parity(X, i, j):
        return X.table.parity(X.ids[(i, j)])

    X = GenericSupermatrix(1, 1)
    assert parity(X, 1, 1) == 0 and parity(X, 2, 2) == 0
    assert parity(X, 1, 2) == 1 and parity(X, 2, 1) == 1
    assert parity(GenericSupermatrix(2, 0), 1, 2) == 0
    assert parity(GenericSupermatrix(0, 1), 1, 1) == 0


def test_berezinian_of_a_pure_even_line():
    X = GenericSupermatrix(1, 0)
    ber = berezinian_series(X, 3)
    x = X.entry(1, 1)
    assert ber.coeffs[0] == 1 and ber.coeffs[1] == x
    assert ber.coeffs[2].is_zero() and ber.coeffs[3].is_zero()


def test_berezinian_of_a_pure_odd_line():
    X = GenericSupermatrix(0, 1)
    ber = berezinian_series(X, 4)
    x = X.entry(1, 1)
    acc = X.table.one()
    for n in range(5):
        assert ber.coeffs[n] == acc
        acc = acc * (-x)


def test_berezinian_of_the_1_1_matrix():
    X = GenericSupermatrix(1, 1)
    a, b = X.entry(1, 1), X.entry(1, 2)
    c, d = X.entry(2, 1), X.entry(2, 2)
    es = char_function(X, 2)  # hard-checks the two routes against each other
    assert es[1] == a - d
    assert es[2] == d * d - a * d - b * c


def test_characteristic_coefficients_at_the_identity():
    # counit sends the matrix to the identity, where the characteristic
    # function is (1+t)^(p-q)
    from math import comb

    for (p, q) in [(2, 0), (2, 1), (1, 1), (1, 2)]:
        X = GenericSupermatrix(p, q)
        es = char_function(X, 4)
        for n in range(5):
            value = X.counit(es[n])
            if p >= q:
                assert value == comb(p - q, n)
            else:
                assert value == (-1) ** n * comb(q - p + n - 1, n)


def test_pure_even_second_coefficient_is_the_determinant():
    X = GenericSupermatrix(2, 0)
    es = char_function(X, 2)
    det = X.entry(1, 1) * X.entry(2, 2) - X.entry(1, 2) * X.entry(2, 1)
    assert es[2] == det


# Besides order 5 on p, q <= 2: all four-generator formats at order 4 (up to
# four even and four odd pivots), and orders 0 and 1, where the entries of
# 1 + tX are cut to one or two coefficients.
@pytest.mark.parametrize(
    "p,q,K",
    [pytest.param(p, q, 5, id=f"{p}-{q}") for p in range(3) for q in range(3) if p + q >= 1]
    + [pytest.param(p, 4 - p, 4, id=f"{p}-{4 - p}-K4") for p in range(5)]
    + [pytest.param(p, q, K, id=f"{p}-{q}-K{K}") for p, q in ((1, 1), (2, 1)) for K in (0, 1)],
)
def test_dual_route_equality_to_order_five(p, q, K):
    es = char_function(GenericSupermatrix(p, q), K)  # raises on any mismatch
    assert len(es) == K + 1


@pytest.mark.parametrize("p,q", [(3, 0), (2, 1), (1, 2), (0, 3)])
def test_dual_route_equality_three_generators_to_order_six(p, q):
    char_function(GenericSupermatrix(p, q), 6)


FORMATS_3 = [(p, q) for p in range(4) for q in range(4) if 1 <= p + q <= 3]


def test_supertrace_counit_is_the_superdimension():
    X = GenericSupermatrix(2, 1)
    p1 = X.power_sums(1)[0]
    assert X.counit(p1) == 1  # p - q


def test_counit_follows_the_number_rule():
    # an int when the value is integral, a Fraction otherwise, never a float
    X = GenericSupermatrix(1, 1)
    x11 = X.entry(1, 1)
    assert type(X.counit(2 * x11)) is int and X.counit(2 * x11) == 2
    assert type(X.counit(x11 * Fraction(1, 2))) is Fraction
    half_trace = X.counit(x11 * Fraction(1, 2) + X.entry(2, 2) * Fraction(1, 2))
    assert type(half_trace) is int and half_trace == 1
    assert type(X.counit(X.entry(1, 2))) is int  # an odd entry counts 0


@pytest.mark.parametrize("p,q", [pytest.param(p, q, id=f"{p}-{q}") for p, q in FORMATS_3])
def test_every_power_sum_counit_is_the_superdimension(p, q):
    # the counit sends X to the identity, and str(1^n) = sdim = p - q
    X = GenericSupermatrix(p, q)
    assert [X.counit(pn) for pn in X.power_sums(6)] == [p - q] * 6


def matrix_power_sums(X, K):
    """str(X^n) for n = 1..K through SuperPolynomial matrix products."""
    d, zero = X.d, X.table.zero()
    sums, power = [], X.entries
    for _ in range(K):
        sums.append(supertrace(power, X.space.format))
        power = [
            [sum((power[i][l] * X.entries[l][j] for l in range(d)), zero) for j in range(d)]
            for i in range(d)
        ]
    return sums


@pytest.mark.parametrize(
    "p,q,K",
    [pytest.param(p, q, 5, id=f"{p}-{q}") for p, q in FORMATS_3]
    + [pytest.param(2, 2, 6, id="2-2")],
)
def test_power_sums_by_closed_walks_match_the_matrix_powers(p, q, K):
    X = GenericSupermatrix(p, q)
    assert X.power_sums(K) == matrix_power_sums(X, K)


def test_power_sum_of_the_1_1_matrix():
    X = GenericSupermatrix(1, 1)
    p1, p2 = X.power_sums(2)
    a, b = X.entry(1, 1), X.entry(1, 2)
    c, d = X.entry(2, 1), X.entry(2, 2)
    assert p1 == a - d
    assert p2 == a * a + b * c + b * c - d * d


# -- supercharacters --------------------------------------------------------------


def rand_homog_matrix(rng, fmt, parity):
    d = len(fmt)
    return [
        [
            Fraction(rng.randint(-4, 4)) if (fmt[i] + fmt[j]) % 2 == parity else Fraction(0)
            for j in range(d)
        ]
        for i in range(d)
    ]


def test_parity_inconsistent_entries_are_rejected():
    X = GenericSupermatrix(1, 1)
    b, fmt = generic_coaction(X)
    b = [list(row) for row in b]
    b[0][1] = X.entry(1, 1)  # an even entry at an odd position
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(2)] for i in range(2)]
    with pytest.raises(ValueError, match=r"entry \(1,2\) has parity 0, expected 1"):
        supercharacter(b, ident, fmt)
    with pytest.raises(ValueError, match=r"entry \(1,2\) has parity 0, expected 1"):
        supertrace(b, fmt)


def test_supercharacter_of_the_identity():
    X = GenericSupermatrix(2, 1)
    b, fmt = generic_coaction(X)
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    chi = supercharacter(b, ident, fmt)
    expected = X.entry(1, 1) + X.entry(2, 2) - X.entry(3, 3)
    assert chi == expected


def test_counit_of_supercharacter_is_supertrace():
    rng = random.Random(101)
    for (p, q) in [(1, 1), (2, 1)]:
        X = GenericSupermatrix(p, q)
        b, fmt = generic_coaction(X)
        for _ in range(100):
            F = rand_homog_matrix(rng, fmt, rng.randint(0, 1))
            assert X.counit(supercharacter(b, F, fmt)) == supertrace(F, fmt)


def test_supercharacter_multiplicativity():
    rng = random.Random(202)
    for (p, q) in [(1, 1), (2, 1)]:
        X = GenericSupermatrix(p, q)
        b, fmt = generic_coaction(X)
        bb, ffmt = coaction_tensor(b, fmt, b, fmt)
        for _ in range(100):
            parity_f, parity_g = rng.randint(0, 1), rng.randint(0, 1)
            F = rand_homog_matrix(rng, fmt, parity_f)
            G = rand_homog_matrix(rng, fmt, parity_g)
            FG = endo_tensor(F, fmt, G, parity_g)
            assert supercharacter(bb, FG, ffmt) == supercharacter(b, F, fmt) * supercharacter(b, G, fmt)


def test_supercharacter_additivity_on_block_coactions():
    rng = random.Random(303)
    X = GenericSupermatrix(1, 1)
    b, fmt = generic_coaction(X)
    d = len(fmt)
    zero = X.table.zero()
    big_b = [
        [
            b[i % d][j % d] if (i < d) == (j < d) else zero
            for j in range(2 * d)
        ]
        for i in range(2 * d)
    ]
    big_fmt = fmt + fmt
    for _ in range(100):
        parity = rng.randint(0, 1)
        F = rand_homog_matrix(rng, fmt, parity)
        G = rand_homog_matrix(rng, fmt, parity)
        upper = rand_homog_matrix(rng, fmt, parity)
        big_F = [
            [
                (F[i][j] if i < d and j < d else
                 G[i - d][j - d] if i >= d and j >= d else
                 upper[i][j - d] if i < d <= j else Fraction(0))
                for j in range(2 * d)
            ]
            for i in range(2 * d)
        ]
        lhs = supercharacter(big_b, big_F, big_fmt)
        rhs = supercharacter(b, F, fmt) + supercharacter(b, G, fmt)
        assert lhs == rhs


def test_fermionic_coefficients_are_antisymmetrizer_characters():
    # the m-th coefficient of the characteristic function is the
    # supercharacter of the antisymmetrizer projection on the m-th power
    for (p, q) in [(1, 1), (2, 0)]:
        X = GenericSupermatrix(p, q)
        es = char_function(X, 3)
        sp = X.space
        for m in (1, 2, 3):
            bb, ffmt = coaction_power(X, m)
            words = list(sp.words(m))
            index = {w: k for k, w in enumerate(words)}
            Y = q_idempotents(m, 1)[1]
            cols = hecke_rep(supersymmetry_operator(sp), m, Y).columns
            F = [[Fraction(0)] * len(words) for _ in range(len(words))]
            for w, col in cols.items():
                for u, c in col.items():
                    F[index[u]][index[w]] = c
            assert supercharacter(bb, F, ffmt) == es[m]


# -- index words and the master identity ---------------------------------------------


def test_lambda_words_for_the_super_line_pair():
    assert lambda_set(1, 1, 2, 2) == [(1, 1), (2, 1)]
    assert lambda_set(1, 0, 2, 4) == [(1, 1, 1, 1)]


@pytest.mark.parametrize("N", [1, 0, -1])
def test_lambda_words_reject_a_relation_degree_below_2(N):
    # unchecked, lambda_set(1, 1, 1, 2) returned []
    with pytest.raises(ValueError, match="at least 2"):
        lambda_set(1, 1, N, 2)


def test_lambda_words_are_the_reduced_words():
    # the brute-force filter and the letter-by-letter walk of closed_form_hilbert
    for (p, q, N) in [(1, 1, 2), (2, 1, 3), (0, 2, 2), (2, 2, 2)]:
        A = n_symmetric(SuperSpace.standard(p, q), N)
        for length in range(6):
            assert A.reduced_words(length) == lambda_set(p, q, N, length)


def test_lambda_words_count_matches_graded_dimension():
    for (p, q) in [(1, 1), (2, 1), (0, 2)]:
        for N in (2, 3):
            A = n_symmetric(SuperSpace.standard(p, q), N)
            for length in range(6):
                assert len(lambda_set(p, q, N, length)) == A.graded_component(length)[1]


def test_diagonal_coefficients_of_the_line():
    X = GenericSupermatrix(1, 0)
    A = n_symmetric(SuperSpace.standard(1, 0), 2)
    x = X.entry(1, 1)
    power = X.table.one()
    for length in (1, 2, 3):
        power = power * x
        diag = diagonal_coefficients(X, A, length)
        assert {w: c for w, c in diag.items() if len(w) == length} == {(1,) * length: power}


def test_bosonic_factor_low_orders():
    X = GenericSupermatrix(1, 1)
    series = bosonic_factor(X, 2, 2)
    assert series.coeffs[0] == 1
    assert series.coeffs[1] == X.entry(1, 1) - X.entry(2, 2)  # the supertrace


def test_bosonic_factor_counit_counts_words():
    X = GenericSupermatrix(1, 1)
    series = bosonic_factor(X, 3, 4)
    for length in range(5):
        signed = sum(
            (-1) ** (sum(1 for a in w if a > 1) % 2)
            for w in lambda_set(1, 1, 3, length)
        )
        assert X.counit(series.coeffs[length]) == signed


# the nine (p, q, N) of the benchmark's master_theorem workload
MASTER_CASES = [(1, 0, 2), (2, 0, 2), (0, 2, 2), (1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 0, 3),
                (2, 2, 2), (2, 1, 3)]


@pytest.mark.parametrize("p,q,N", MASTER_CASES)
def test_bosonic_factor_at_the_identity_is_the_superdimension_series(p, q, N):
    # coefficient l is the supertrace of X on A_l; at X = 1 that is sdim A_l
    K = 5
    X = GenericSupermatrix(p, q)
    series = bosonic_factor(X, N, K)
    sdim = closed_form_hilbert(p, q, N, K, kind="sdim")
    assert [X.counit(c) for c in series.coeffs] == sdim.coeffs


@pytest.mark.parametrize("p,q,N", MASTER_CASES)
def test_bosonic_factor_on_the_diagonal_is_the_signed_word_content(p, q, N):
    # off-diagonal entries set to zero, y_a = x_a (x) x[a,a] and each reduced
    # word i contributes (-1)^(parity of i) prod_k x[i_k,i_k]
    K = 5
    X = GenericSupermatrix(p, q)
    series = bosonic_factor(X, N, K)
    # the bits of the x[a,a] exponent fields: a monomial of diagonal entries
    # only sets no other bit
    diagonal = sum((bit << EXPONENT_BITS) - bit
                   for bit in (X.table.monomial(X.ids[(a, a)]) for a in range(1, X.d + 1)))
    for length in range(K + 1):
        expected = X.table.zero()
        for word in lambda_set(p, q, N, length):
            monomial = X.table.one()
            for a in word:
                monomial = monomial * X.entry(a, a)
            expected = expected + (-monomial if sum(a > p for a in word) % 2 else monomial)
        diagonal_part = {m: c for m, c in series.coeffs[length].terms.items() if not m & ~diagonal}
        assert diagonal_part == expected.terms, length


def diagonal_coefficients_by_words(X, A, length):
    """Reference for the walk, with no prune: y_{i_1}...y_{i_l} is the sum
    over letter words j of nf(x_{j_1}...x_{j_l}) (x) x[j_1,i_1]...x[j_l,i_l],
    signed once for every odd x_{j_k} that passes an odd product of earlier
    B-coefficients; X(i) is the coefficient of the basis word i."""
    fmt = X.space.format
    out = {}
    for l in range(1, length + 1):
        for j in A.space.words(l):
            for i, b in A.normal_form_word(j).items():
                sign, parity, monomial = 1, 0, X.table.one()
                for jk, ik in zip(j, i):
                    if fmt[jk - 1] and parity:
                        sign = -sign
                    parity ^= X.table.parity(X.ids[(jk, ik)])
                    monomial = monomial * X.entry(jk, ik)
                out[i] = out.get(i, X.table.zero()) + monomial * (sign * b)
    return out


@pytest.mark.parametrize("p,q,N", MASTER_CASES)
def test_diagonal_coefficients_match_the_expansion_over_all_letter_words(p, q, N):
    K = 4
    X = GenericSupermatrix(p, q)
    A = n_symmetric(SuperSpace.standard(p, q), N)
    walk = diagonal_coefficients(X, A, K)
    reference = diagonal_coefficients_by_words(X, A, K)
    assert set(walk) == {w for n in range(1, K + 1) for w in A.reduced_words(n)}
    assert set(reference) <= set(walk)
    for word, poly in walk.items():
        assert poly == reference.get(word, X.table.zero()), word


def non_increasing_on_each_parity(word, p, d):
    counts = [word.count(a) for a in range(1, d + 1)]
    return counts[:p] == sorted(counts[:p], reverse=True) and \
        counts[p:] == sorted(counts[p:], reverse=True)


@pytest.mark.parametrize("p,q,N,K", [(p, q, N, 5) for p, q, N in MASTER_CASES] + [
    (2, 1, 2, 5), (2, 2, 2, 4), (3, 0, 3, 5), (1, 2, 3, 5), (2, 1, 3, 6)])
def test_bosonic_factor_over_content_orbits_is_the_full_walk(p, q, N, K):
    # the orbit route against the parity-signed sum over every reduced word
    X = GenericSupermatrix(p, q)
    A = n_symmetric(X.space, N)
    walk = diagonal_coefficients(X, A, K)
    full = [X.table.zero() for _ in range(K + 1)]
    for word, poly in walk.items():
        full[len(word)] += -poly if A.space.word_parity(word) else poly
    assert bosonic_factor(X, N, K).coeffs[1:] == full[1:]
    # the walk restricted to the orbit representatives keeps their coefficients
    blocks = (range(1, p + 1), range(p + 1, p + q + 1))
    assert diagonal_coefficients(X, A, K, blocks=blocks) == {
        w: poly for w, poly in walk.items() if non_increasing_on_each_parity(w, p, p + q)}


def test_relabelling_signs_swapped_odd_entries_and_refuses_a_parity_change():
    X = GenericSupermatrix(1, 1)
    with pytest.raises(ValueError, match="parity-preserving"):
        X.relabel(X.entry(1, 2), (2, 1))
    with pytest.raises(ValueError, match="parity-preserving"):
        X.relabel(X.entry(1, 2), (1, 1))
    # swapping the even letters 1, 2 of 2|1 swaps the odd x[1,3], x[2,3]
    Y = GenericSupermatrix(2, 1)
    product = Y.entry(1, 3) * Y.entry(2, 3)
    assert Y.relabel(product, (2, 1, 3)) == Y.entry(2, 3) * Y.entry(1, 3) == -product
    assert Y.relabel(Y.entry(1, 1) * Y.entry(1, 2), (2, 1, 3)) == Y.entry(2, 2) * Y.entry(2, 1)


@pytest.mark.parametrize("p,q,N", MASTER_CASES)
def test_normal_forms_of_the_n_symmetric_algebra_keep_the_letter_content(p, q, N):
    # the precondition of the content prune, on every word through degree N + 2
    A = n_symmetric(SuperSpace.standard(p, q), N)
    for n in range(N + 3):
        for w in A.space.words(n):
            assert all(sorted(u) == sorted(w) for u in A.normal_form_word(w)), w


def test_diagonal_coefficients_refuse_relations_that_mix_letter_contents():
    X = GenericSupermatrix(2, 0)
    mixed = custom_algebra((0, 0), 2, [[(1, (1, 1)), (1, (2, 2))]])
    with pytest.raises(ValueError, match="letter contents"):
        diagonal_coefficients(X, mixed, 2)
    # a content-homogeneous relation is accepted: x_1 x_2 = 2 x_2 x_1
    plane = custom_algebra((0, 0), 2, [[(1, (1, 2)), (-2, (2, 1))]])
    assert set(diagonal_coefficients(X, plane, 2)) == {(1,), (2,), (1, 1), (2, 1), (2, 2)}


@pytest.mark.parametrize("p,q,N", [(1, 0, 2), (0, 1, 2), (1, 1, 2), (1, 1, 3), (2, 0, 3)])
def test_master_identity_small(p, q, N):
    assert master_verify(p, q, N, 4).passed


@pytest.mark.parametrize("p,q,N", MASTER_CASES + [(1, 2, 2), (1, 2, 3)])
def test_master_identity_to_order_five(p, q, N):
    # the reordering signs of odd entries first reach the bosonic factor of
    # (2|1, N=3) at order 5, and of (2|2, N=2), (1|2, N=2), (1|2, N=3) at 4
    assert master_verify(p, q, N, 5).passed


@pytest.mark.parametrize("p,q,N,K,left_terms", [
    (2, 2, 2, 7, [1, 4, 14, 38, 83, 150, 240, 352]),
    (2, 1, 3, 6, [1, 3, 6, 16, 32, 55, 92]),
])
def test_master_identity_on_the_two_largest_benchmark_cases(p, q, N, K, left_terms):
    # the term counts of the bosonic factor, coefficient by coefficient
    report = master_verify(p, q, N, K)
    assert report.passed
    assert [len(c.terms) for c in report.left.coeffs] == left_terms


def test_master_identity_fermionic_factor_signs():
    X = GenericSupermatrix(1, 0)
    right = fermionic_factor(X, 3, 4)
    es = char_function(X, 4)
    assert right.coeffs[0] == es[0]
    assert right.coeffs[1] == -es[1]
    assert right.coeffs[2].is_zero()
    assert right.coeffs[3] == es[3]
    assert right.coeffs[4] == -es[4]


# -- integral coefficients ------------------------------------------------------


def coefficient_types(polys):
    """The types of every coefficient of every polynomial in ``polys``."""
    return {type(c) for poly in polys for c in poly.terms.values()}


@pytest.mark.parametrize("p,q,K", [(1, 1, 5), (2, 1, 4), (0, 2, 5), (2, 0, 4)])
def test_generic_supermatrix_series_have_int_coefficients(p, q, K):
    X = GenericSupermatrix(p, q)
    assert coefficient_types(X.power_sums(K)) == {int}
    assert coefficient_types(berezinian_series(X, K).coeffs) == {int}
    assert coefficient_types(char_function(X, K)) == {int}
    assert coefficient_types(bosonic_factor(X, 2, K).coeffs) == {int}


@pytest.mark.parametrize("p,q,N", [(2, 1, 3), (2, 2, 2)])
def test_master_identity_factors_and_product_have_int_coefficients(p, q, N):
    report = master_verify(p, q, N, 5)
    assert report.passed
    assert coefficient_types(report.product.coeffs) == {int}
    assert coefficient_types(report.left.coeffs + report.right.coeffs) == {int}


# -- closed-form Hilbert series -----------------------------------------------------


def test_closed_form_dim_series_matches_components():
    for (p, q, N) in [(1, 1, 2), (2, 1, 2), (1, 2, 3)]:
        series = closed_form_hilbert(p, q, N, 6, kind="dim")
        A = n_symmetric(SuperSpace.standard(p, q), N)
        assert [int(c) for c in series.coeffs] == A.dims(6)


def test_sdim_series_of_balanced_spaces_is_one():
    for N in (2, 3):
        series = closed_form_hilbert(1, 1, N, 6, kind="sdim")
        assert series == TruncatedSeries.one(6)


def test_sdim_series_of_the_odd_line():
    series = closed_form_hilbert(0, 1, 2, 5, kind="sdim")
    assert [int(c) for c in series.coeffs] == [1, -1, 0, 0, 0, 0]
