"""Tensor powers, the signed permutation action, and exact subspaces."""

import random
from fractions import Fraction
from math import gcd

import pytest

from superkoszul import tensorspace
from superkoszul.hecke import (
    HeckeElement,
    Permutation,
    YangBaxterOperator,
    all_permutations,
    hecke_rep,
    supersymmetry_operator,
    symmetrizer_image,
)
from superkoszul.macmahon import supertrace
from superkoszul.superpoly import VariableTable, axpy
from superkoszul.tensorspace import (
    RankCounter,
    Subspace,
    SuperSpace,
    dual_complement,
    kernel_of_vectors,
    matrix_rank,
    subspace_intersection,
    wedge_dimension,
)


def int_when_integral(numbers):
    """Every number is an int when integral and a Fraction otherwise, never a
    float."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in numbers)


@pytest.mark.parametrize("p, q", [(-1, 2), (2, -1)])
def test_standard_space_rejects_a_negative_count(p, q):
    with pytest.raises(ValueError, match="must be nonnegative"):
        SuperSpace.standard(p, q)


def test_letters_outside_the_basis_are_rejected():
    # unchecked, letter 0 would read format[-1], the last basis vector's parity
    sp = SuperSpace((0, 1))
    for letter in (0, 3):
        with pytest.raises(ValueError):
            sp.parity(letter)
        with pytest.raises(ValueError):
            sp.word_parity((1, letter))
    assert sp.word_parity(()) == 0
    for entries in ({(1, 2): {(0, 2): 1}}, {(0, 2): {(2, 1): 1}}, {(1, 2): {(2, 3): 1}}):
        with pytest.raises(ValueError):
            hecke_rep(YangBaxterOperator(sp, 1, entries), 2, HeckeElement.one(2, 1))
    with pytest.raises(ValueError):
        Subspace(sp, 2, [{(0, 5): 1}])


def test_words_of_the_wrong_length_are_rejected():
    # unchecked, an algebra on such rows reported dims 1, 2, 3, 4
    with pytest.raises(ValueError, match="length 2"):
        Subspace(SuperSpace((0, 1)), 2, [{(1, 2, 1): 1}])
    with pytest.raises(ValueError, match="length 2"):
        Subspace(SuperSpace((0, 1)), 2).insert({(1, 2, 1): 1})


def signed_action(sp, sigma):
    """The columns of rho(T_sigma) for the supersymmetry of ``sp`` at q = 1:
    the signed action c_sigma on every basis word."""
    n = sigma.n
    return hecke_rep(supersymmetry_operator(sp), n, HeckeElement.basis(n, 1, sigma)).columns


def test_swap_of_two_odd_vectors_picks_up_a_sign():
    sp = SuperSpace((1, 1))
    assert signed_action(sp, Permutation((2, 1)))[(1, 2)] == {(2, 1): -1}


def test_swap_of_two_even_vectors_has_no_sign():
    sp = SuperSpace((0, 0))
    assert signed_action(sp, Permutation((2, 1)))[(1, 2)] == {(2, 1): 1}


def test_action_is_a_representation():
    rng = random.Random(2)
    sp = SuperSpace((0, 1, 1))
    perms = all_permutations(4)
    c = {sigma: signed_action(sp, sigma) for sigma in perms}
    for _ in range(25):
        sigma, tau = rng.choice(perms), rng.choice(perms)
        word = tuple(rng.randint(1, 3) for _ in range(4))
        ((image, sign),) = c[tau][word].items()
        assert {w: sign * x for w, x in c[sigma][image].items()} == c[sigma * tau][word]


def test_generators_satisfy_braid_and_involution():
    sp = SuperSpace((0, 1))
    s1 = signed_action(sp, Permutation.transposition(3, 1))
    s2 = signed_action(sp, Permutation.transposition(3, 2))

    def act(c, vec):
        out = {}
        for w, x in vec.items():
            axpy(out, c[w], x)
        return out

    for word in sp.words(3):
        v = {word: 1}
        assert act(s1, act(s1, v)) == v
        assert act(s1, act(s2, act(s1, v))) == act(s2, act(s1, act(s2, v)))


# c_sigma for sigma = (3, 1, 2) on the format (0, 1, 1): word -> sign, image.
# Position j of the image carries the letter from position sigma^-1(j), and the
# sign is -1 to the number of inversions (i, j) of sigma whose two letters are
# odd.  sigma is no involution, so acting by sigma^-1 instead would differ.
PINNED_312 = """
    111 +111  112 +121  113 +131  121 +211  122 +221  123 +231  131 +311  132 +321  133 +331
    211 +112  212 -122  213 -132  221 -212  222 +222  223 +232  231 -312  232 +322  233 +332
    311 +113  312 -123  313 -133  321 -213  322 +223  323 +233  331 -313  332 +323  333 +333
"""


def test_signed_action_is_pinned_on_a_non_involution():
    sp = SuperSpace((0, 1, 1))
    columns = signed_action(sp, Permutation((3, 1, 2)))
    fields = PINNED_312.split()
    pinned = {
        tuple(map(int, word)): {tuple(map(int, image[1:])): int(image[0] + "1")}
        for word, image in zip(fields[::2], fields[1::2])
    }
    assert len(pinned) == 27
    assert {w: columns[w] for w in sp.words(3)} == pinned


def rule_of_signs(sigma, word, sp):
    """c_sigma on one word, written out: position sigma(i) of the image takes
    the letter at position i, and the sign is -1 to the number of inversions
    of sigma whose two letters are odd."""
    image = [0] * sigma.n
    for i, letter in enumerate(word):
        image[sigma.word[i] - 1] = letter
    odd = sum(sp.parity(word[i - 1]) * sp.parity(word[j - 1]) for i, j in sigma.inversions())
    return {tuple(image): -1 if odd % 2 else 1}


@pytest.mark.parametrize("fmt", [(0, 1), (1, 1, 0), (0, 1, 1)])
@pytest.mark.parametrize("n", [2, 3])
def test_perm_action_is_the_hecke_representation_of_the_supersymmetry(fmt, n):
    """The permutation action by the rule of signs equals rho(T_sigma) for the
    ordinary supersymmetry at q = 1; with sigma^-1 in place of sigma they
    differ."""
    sp = SuperSpace(fmt)
    for sigma in all_permutations(n):
        columns = signed_action(sp, sigma)
        for w in sp.words(n):
            assert columns[w] == rule_of_signs(sigma, w, sp)


def test_length_counts_inversions():
    sigma = Permutation((3, 1, 2))
    assert sigma.length() == 2
    assert sigma.inversions() == [(1, 2), (1, 3)]
    word = sigma.reduced_word()
    assert len(word) == 2
    prod = Permutation.identity(3)
    for i in word:
        prod = prod * Permutation.transposition(3, i)
    assert prod == sigma


# -- antisymmetric tensors ----------------------------------------------------


def wedge(sp, n):
    """The antisymmetric n-tensors: the image of Y_n for the supersymmetry."""
    return symmetrizer_image(supersymmetry_operator(sp), n, "Y")


@pytest.mark.parametrize("p,q", [(p, q) for p in range(5) for q in range(5) if 1 <= p + q <= 4])
def test_antisymmetrizer_dimensions_match_closed_form(p, q):
    sp = SuperSpace.standard(p, q)
    for n in range(6):
        assert wedge(sp, n).dim == wedge_dimension(p, q, n)


def test_wedge_generating_function():
    # (1+t)^p / (1-t)^q expanded: check a mixed case against the dimensions
    p, q, K = 2, 1, 6
    from math import comb

    # direct convolution of (1+t)^p with 1/(1-t)^q
    binom_part = [Fraction(comb(p, m)) for m in range(K + 1)]
    geom_part = [Fraction(comb(q + s - 1, s)) if s else Fraction(1) for s in range(K + 1)]
    series = [
        sum(binom_part[m] * geom_part[n - m] for m in range(n + 1))
        for n in range(K + 1)
    ]
    assert series == [wedge_dimension(p, q, n) for n in range(K + 1)]


def test_pure_odd_cube_is_spanned_by_the_repeated_word():
    sp = SuperSpace.standard(0, 1)
    im = wedge(sp, 3)
    assert im.dim == 1
    assert im.rows == {(1, 1, 1): {(1, 1, 1): Fraction(1)}}


# -- subspace arithmetic ------------------------------------------------------


def rand_subspace(rng, sp, degree, rows=2):
    out = Subspace(sp, degree)
    words = list(sp.words(degree))
    for _ in range(rows):
        parity = rng.randint(0, 1)
        pool = [w for w in words if sp.word_parity(w) == parity]
        vec = {}
        for w in rng.sample(pool, min(3, len(pool))):
            c = rng.randint(-3, 3)
            if c:
                vec[w] = Fraction(c)
        if vec:
            out.insert(vec)
    return out


def test_sum_and_intersection_idempotent():
    rng = random.Random(9)
    sp = SuperSpace.standard(2, 1)
    A = rand_subspace(rng, sp, 2)
    assert Subspace(sp, 2, [*A.rows.values(), *A.rows.values()]) == A
    assert subspace_intersection(A, A) == A


def test_dimension_formula_for_sum_and_intersection():
    rng = random.Random(13)
    sp = SuperSpace.standard(2, 1)
    for _ in range(20):
        A = rand_subspace(rng, sp, 2)
        B = rand_subspace(rng, sp, 2)
        s = Subspace(sp, 2, [*A.rows.values(), *B.rows.values()])
        c = subspace_intersection(A, B)
        assert s.dim + c.dim == A.dim + B.dim
        for big, small in ((s, A), (s, B), (A, c), (B, c)):
            assert not any(big.reduce(row) for row in small.rows.values())


def test_two_sided_placements_intersect_to_wedge():
    # relations of the cubic symmetric algebra: (R x V) cap (V x R) is the
    # degree-4 antisymmetric space, trivial for 3 generators, a line for 4
    for d, expected in ((3, 0), (4, 1)):
        sp = SuperSpace.standard(d, 0)
        R = wedge(sp, 3)
        left = Subspace(sp, 4)
        right = Subspace(sp, 4)
        for row in R.rows.values():
            for letter in range(1, d + 1):
                left.insert({w + (letter,): c for w, c in row.items()})
                right.insert({(letter,) + w: c for w, c in row.items()})
        cap = subspace_intersection(left, right)
        assert cap.dim == expected
        assert cap == wedge(sp, 4)


# -- the eliminator --------------------------------------------------------------


def rand_vectors(rng, sp, degree, count, width=3):
    words = list(sp.words(degree))
    return [
        {w: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for w in rng.sample(words, width)}
        for _ in range(count)
    ]


def test_subspace_rows_do_not_depend_on_insertion_order():
    rng = random.Random(21)
    sp = SuperSpace((0, 0, 0))
    for _ in range(15):
        vectors = rand_vectors(rng, sp, 2, rng.randint(1, 7))
        reference = Subspace(sp, 2, vectors)
        for _ in range(3):
            rng.shuffle(vectors)
            assert Subspace(sp, 2, vectors).rows == reference.rows


def test_subspace_is_fully_reduced():
    rng = random.Random(22)
    sp = SuperSpace.standard(2, 1)
    for _ in range(20):
        S = rand_subspace(rng, sp, 3, rows=rng.randint(1, 8))
        for pivot, row in S.rows.items():
            assert pivot == min(row)
            assert row[pivot] == 1
            assert all(w not in S.rows for w in row if w != pivot)


def test_reduce_and_coordinates_reassemble_the_vector():
    rng = random.Random(23)
    sp = SuperSpace((0, 0, 0))
    for _ in range(20):
        S = Subspace(sp, 2, rand_vectors(rng, sp, 2, rng.randint(1, 6)))
        v = rand_vectors(rng, sp, 2, 1, width=4)[0]
        residual = S.reduce(v)
        assert not set(residual) & set(S.rows)
        in_span = {w: c for w, c in v.items() if c}
        for w, c in residual.items():
            in_span[w] = in_span.get(w, 0) - c
        coords = S.coordinates(in_span)
        # Fraction inputs, integral ones among them, come back as ints
        assert int_when_integral([*residual.values(), *coords.values()])
        total = dict(residual)
        for p, c in coords.items():
            for w, a in S.rows[p].items():
                total[w] = total.get(w, 0) + c * a
        assert {w: c for w, c in total.items() if c} == {w: c for w, c in v.items() if c}
        assert not S.reduce(in_span)
        if residual:
            assert S.reduce(v)
            with pytest.raises(ValueError):
                S.coordinates(v)


def test_kernel_combinations_vanish_and_count_the_nullity():
    rng = random.Random(24)
    sp = SuperSpace((0, 0, 0))
    for _ in range(20):
        vectors = rand_vectors(rng, sp, 2, rng.randint(1, 12), width=2)
        kernel = kernel_of_vectors(vectors)
        assert len(kernel) == len(vectors) - matrix_rank(vectors)
        for combo in kernel:
            assert combo
            image: dict = {}
            for k, ck in combo.items():
                for w, c in vectors[k].items():
                    image[w] = image.get(w, 0) + ck * c
            assert not any(image.values())


def test_matrix_rank_equals_subspace_dimension():
    rng = random.Random(25)
    sp = SuperSpace((0, 0, 0))
    for _ in range(20):
        vectors = rand_vectors(rng, sp, 2, rng.randint(0, 12), width=rng.randint(1, 4))
        assert matrix_rank(vectors) == Subspace(sp, 2, vectors).dim


INTEGER_ELIMINATOR_FORMATS = [(0, 1), (1, 1), (0, 0, 1), (0, 1, 1), (1, 1, 1)]


def mixed_coefficient(rng):
    """An int, or a Fraction whose denominator is a power of 2 up to 2^12."""
    if rng.random() < 0.5:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return Fraction(rng.choice([-5, -3, -1, 1, 3, 7]), 2 ** rng.randint(0, 12))


def mixed_vectors(rng, fmt, degree, count):
    """``count`` vectors in one parity class of V^(x degree), entries mixing
    int and Fraction; about half are combinations of earlier vectors, so the
    kernel is nontrivial and the combined entries carry large denominators."""
    sp = SuperSpace(fmt)
    parity = rng.randint(0, 1)
    words = [w for w in sp.words(degree) if sp.word_parity(w) == parity]
    if not words:
        words = [w for w in sp.words(degree) if sp.word_parity(w) != parity]
    vectors = []
    for _ in range(count):
        if vectors and rng.random() < 0.5:
            vec: dict = {}
            for base in rng.sample(vectors, min(len(vectors), rng.randint(1, 3))):
                c = mixed_coefficient(rng)
                for w, a in base.items():
                    vec[w] = vec.get(w, 0) + c * a
        else:
            support = rng.sample(words, rng.randint(1, min(4, len(words))))
            vec = {w: mixed_coefficient(rng) for w in support}
        vectors.append(vec)
    return sp, vectors


@pytest.mark.parametrize("seed", range(6))
def test_integer_eliminator_rank_is_the_subspace_dimension_in_any_order(seed):
    rng = random.Random(300 + seed)
    for fmt in INTEGER_ELIMINATOR_FORMATS:
        degree = rng.randint(1, 3)
        sp, vectors = mixed_vectors(rng, fmt, degree, rng.randint(1, 10))
        rank = matrix_rank(vectors)
        assert rank == Subspace(sp, degree, vectors).dim
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert matrix_rank(shuffled) == rank


@pytest.mark.parametrize("seed", range(6))
def test_integer_eliminator_kernel_is_an_integral_basis_of_the_relations(seed):
    rng = random.Random(400 + seed)
    for fmt in INTEGER_ELIMINATOR_FORMATS:
        degree = rng.randint(1, 3)
        _, vectors = mixed_vectors(rng, fmt, degree, rng.randint(1, 10))
        before = [dict(v) for v in vectors]
        kernel = kernel_of_vectors(vectors)
        assert vectors == before
        assert len(kernel) == len(vectors) - matrix_rank(vectors)
        for combo in kernel:
            assert combo and all(type(c) is int and c for c in combo.values())
            image: dict = {}
            for k, ck in combo.items():
                for w, c in vectors[k].items():
                    image[w] = image.get(w, 0) + ck * c
            assert not any(image.values())
        assert matrix_rank(kernel) == len(kernel)


def test_integer_eliminator_stores_primitive_integer_rows():
    rng = random.Random(500)
    for fmt in INTEGER_ELIMINATOR_FORMATS:
        _, vectors = mixed_vectors(rng, fmt, 3, 10)
        rc = RankCounter()
        for vec in vectors:
            rc.insert(vec)
        for lead, row in rc.rows.items():
            assert lead == min(row)
            assert all(type(c) is int for c in row.values())
            assert gcd(*row.values()) == 1


def gauss_jordan(vectors) -> dict:
    """Reference for ``Subspace.rows``: textbook Gauss-Jordan over Fractions,
    one column at a time in increasing word order, so each pivot is the
    smallest word of its row; returns {pivot: row}."""
    rest = [{w: Fraction(c) for w, c in v.items() if c} for v in vectors]
    basis: list = []
    for col in sorted({w for v in rest for w in v}):
        pick = next((r for r in rest if col in r), None)
        if pick is None:
            continue
        rest.remove(pick)
        pick = {w: c / pick[col] for w, c in pick.items()}
        for r in rest + basis:
            c = r.get(col)
            if c:
                for w, a in pick.items():
                    r[w] = r.get(w, 0) - c * a
                    if not r[w]:
                        del r[w]
        basis.append(pick)
    return {min(row): row for row in basis}


@pytest.mark.parametrize("seed", range(6))
def test_subspace_rows_are_the_gauss_jordan_form_in_any_order(seed):
    rng = random.Random(600 + seed)
    for fmt in INTEGER_ELIMINATOR_FORMATS:
        degree = rng.randint(1, 3)
        sp, vectors = mixed_vectors(rng, fmt, degree, rng.randint(1, 10))
        reference = gauss_jordan(vectors)
        for _ in range(3):
            rng.shuffle(vectors)
            rows = Subspace(sp, degree, vectors).rows
            assert rows == reference
            assert int_when_integral(c for row in rows.values() for c in row.values())


@pytest.mark.parametrize("seed", range(4))
def test_inserts_after_a_read_refresh_the_same_rows_dict(seed):
    rng = random.Random(700 + seed)
    for fmt in INTEGER_ELIMINATOR_FORMATS:
        degree = rng.randint(1, 3)
        sp, vectors = mixed_vectors(rng, fmt, degree, rng.randint(1, 10))
        S = Subspace(sp, degree)
        held = S.rows
        for k, vec in enumerate(vectors):
            S.insert(vec)
            if rng.random() < 0.5:
                assert S.rows is held
                assert held == gauss_jordan(vectors[: k + 1])
        assert S.rows is held
        assert held == gauss_jordan(vectors)


def test_dim_is_the_rank_before_any_row_is_reduced(monkeypatch):
    rng = random.Random(800)
    back_substituted = []
    reduce_rows = tensorspace._reduce
    monkeypatch.setattr(
        tensorspace, "_reduce", lambda rows, v: back_substituted.append(v) or reduce_rows(rows, v)
    )
    for fmt in INTEGER_ELIMINATOR_FORMATS:
        degree = rng.randint(1, 3)
        sp, vectors = mixed_vectors(rng, fmt, degree, rng.randint(1, 10))
        S = Subspace(sp, degree)
        for vec in vectors:
            S.insert(vec)
        dim = S.dim
        assert not back_substituted
        assert dim == len(S.rows) == matrix_rank(vectors)
        back_substituted.clear()


def test_subspace_requires_parity_homogeneous_rows():
    sp = SuperSpace((0, 1))
    with pytest.raises(ValueError):
        Subspace(sp, 1, [{(1,): Fraction(1), (2,): Fraction(1)}])


def test_subspace_is_unhashable():
    # a mutable subspace would leave a dict slot stale after one insert
    with pytest.raises(TypeError):
        hash(Subspace.full(SuperSpace((0, 1)), 1))


# -- duality -------------------------------------------------------------------


def test_dual_of_zero_and_full():
    sp = SuperSpace.standard(1, 1)
    zero = Subspace(sp, 2)
    assert dual_complement(zero).dim == 4
    assert dual_complement(Subspace.full(sp, 2)).dim == 0


def test_dual_complement_dimensions_and_involution():
    rng = random.Random(17)
    sp = SuperSpace.standard(1, 2)
    for _ in range(15):
        R = rand_subspace(rng, sp, 2)
        perp = dual_complement(R)
        assert R.dim + perp.dim == sp.dim ** 2
        assert dual_complement(perp) == R


def test_quantum_superspace_dual_basis():
    # relations x2 x x2 and x2 x x1 - q (-1)^(1^ 2^) x1 x x2 for a 1|1 space;
    # the annihilator under the order-reversing pairing is spanned by
    # x1 x x1 and x1 x x2 + q (-1)^(1^ 2^) x2 x x1
    q = Fraction(5, 3)
    sp = SuperSpace((0, 1))
    sign = -1 if sp.parity(1) * sp.parity(2) else 1
    R = Subspace(sp, 2, [
        {(2, 2): Fraction(1)},
        {(2, 1): Fraction(1), (1, 2): -q * sign},
    ])
    perp = dual_complement(R)
    # annihilator line x1 x x2 + q (-1)^(1^ 2^) x2 x x1 up to normalization
    expected = Subspace(sp, 2, [
        {(1, 1): Fraction(1)},
        {(2, 1): Fraction(1), (1, 2): q * sign},
    ])
    assert perp == expected
    # pairing check: every dual row annihilates every relation under reversal
    for row in perp.rows.values():
        for rel in R.rows.values():
            val = sum(row.get(w[::-1], Fraction(0)) * c for w, c in rel.items())
            assert val == 0


# -- supertrace -----------------------------------------------------------------


def test_supertrace_of_identity_is_superdimension():
    fmt = (0, 0, 1)
    ident = [[Fraction(1) if i == j else Fraction(0) for j in range(3)] for i in range(3)]
    assert supertrace(ident, fmt) == 1  # p - q = 2 - 1


def test_supertrace_of_generic_matrix():
    table = VariableTable()
    a = table.add("a", 0)
    b = table.add("b", 1)
    c = table.add("c", 1)
    d = table.add("d", 0)
    A = [[table.variable(a), table.variable(b)], [table.variable(c), table.variable(d)]]
    fmt = (0, 1)
    assert supertrace(A, fmt) == table.variable(a) - table.variable(d)
    # square the matrix by hand: str(X^2) = a^2 + 2bc - d^2
    sq = [
        [A[0][0] * A[0][0] + A[0][1] * A[1][0], A[0][0] * A[0][1] + A[0][1] * A[1][1]],
        [A[1][0] * A[0][0] + A[1][1] * A[1][0], A[1][0] * A[0][1] + A[1][1] * A[1][1]],
    ]
    bc = table.variable(b) * table.variable(c)
    aa = table.variable(a) * table.variable(a)
    dd = table.variable(d) * table.variable(d)
    assert supertrace(sq, fmt) == aa + bc + bc - dd


def test_supertrace_rejects_parity_violation():
    table = VariableTable()
    u = table.add("u", 1)
    bad = [[table.variable(u)]]
    with pytest.raises(ValueError):
        supertrace(bad, (0,))


def test_supertrace_accepts_an_odd_scalar_matrix():
    # scalar entries are not parity-checked; an odd scalar matrix has zero
    # diagonal blocks, hence supertrace 0
    assert supertrace([[0, 5], [7, 0]], (0, 1)) == 0
