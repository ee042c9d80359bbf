"""Acceptance suite: one test per criterion, every check exact over Q.

Each test prints a `criterion N: PASS/FAIL` line (run with -s to see them all;
failures surface the line in the captured output).  Run time is a couple of
minutes on a laptop; the heavy parts are the degree-8 Koszul sweeps.

Criterion 4c asserts the classical claim that the mixed Yang-Mills algebras
fail the extra condition.  It currently fails: the two outer placements of
the relation space intersect trivially in degree five, so the containment
holds vacuously (cross-checked by three independent eliminations, with the
relation vectors validated against the dual pairing they must satisfy).  The
assertion is kept as stated rather than weakened.  Non-Koszulity of the 1|1
mixed algebra is nevertheless certified exactly: the Hilbert duality product
deviates from 1 at order 5, which this test asserts as a supplementary fact.
"""

import random
from fractions import Fraction
from math import comb

from superkoszul.hecke import (
    HeckeElement,
    dj_operator,
    intersection_of_generator_images,
    q_idempotents,
    supersymmetry_operator,
    symmetrizer_image,
    verify_hecke_operator,
)
from superkoszul.homogeneous import (
    lambda_operator_algebra,
    n_symmetric,
    quantum_superspace,
    yang_mills,
)
from superkoszul.koszul import (
    hilbert_series,
    koszul_check,
    koszul_duality_check,
    tor_dims,
)
from superkoszul.macmahon import (
    GenericSupermatrix,
    char_function,
    closed_form_hilbert,
    coaction_tensor,
    endo_tensor,
    generic_coaction,
    lambda_set,
    master_verify,
    supercharacter,
    supertrace,
)
from superkoszul.superpoly import TruncatedSeries
from superkoszul.tensorspace import (
    SuperSpace,
    wedge_dimension,
)

FORMATS_3 = [(p, q) for p in range(4) for q in range(4) if 1 <= p + q <= 3]
FORMATS_2 = [(p, q) for p in range(3) for q in range(3) if 1 <= p + q <= 2]

_cache: dict = {}


def symmetric_algebra(p, q, N):
    key = ("S", p, q, N)
    if key not in _cache:
        _cache[key] = n_symmetric(SuperSpace.standard(p, q), N)
    return _cache[key]


def operator_algebra(p, q, N):
    key = ("L", p, q, N)
    if key not in _cache:
        _cache[key] = lambda_operator_algebra(dj_operator(p, q, 2), N)
    return _cache[key]


def report(name, ok):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_criterion_1_master_theorem():
    cases = [(1, 0, 2), (2, 0, 2), (0, 2, 2), (1, 1, 2), (2, 1, 2), (1, 1, 3), (2, 0, 3)]
    ok = all(master_verify(p, q, N, 6).passed for (p, q, N) in cases)
    assert report("1 (master theorem, K=6)", ok)


def test_criterion_2_berezinian_consistency():
    ok = True
    for p in range(3):
        for q in range(3):
            if p + q == 0:
                continue
            char_function(GenericSupermatrix(p, q), 5)  # raises on mismatch
    X = GenericSupermatrix(1, 1)
    es = char_function(X, 2)
    a, b = X.entry(1, 1), X.entry(1, 2)
    c, d = X.entry(2, 1), X.entry(2, 2)
    ok = es[2] == d * d - a * d - b * c
    assert report("2 (berezinian = newton route, K=5)", ok)


def test_criterion_3_dimension_tables():
    ok = True
    for p in range(5):
        for q in range(5):
            if not 1 <= p + q <= 4:
                continue
            sp = SuperSpace.standard(p, q)
            for n in range(6):
                wedge = symmetrizer_image(supersymmetry_operator(sp), n, "Y")
                ok &= wedge.dim == wedge_dimension(p, q, n)
    for (p, q) in FORMATS_3:
        table = {
            (i, j): Fraction(2 + i + j, 1 + i)
            for i in range(1, p + q + 1)
            for j in range(i + 1, p + q + 1)
        }
        A = quantum_superspace(SuperSpace.standard(p, q), table)
        for n in range(7):
            expected = sum(
                (comb(r + p - 1, p - 1) if p else (1 if r == 0 else 0)) * comb(q, n - r)
                for r in range(n + 1)
            )
            ok &= A.dim_component(n) == expected
    for (p, q) in FORMATS_3:
        for N in (2, 3):
            S = symmetric_algebra(p, q, N)
            dual = S.dual_algebra()
            d = p + q
            for n in range(7):
                expected = d ** n if n < N else wedge_dimension(p, q, n)
                ok &= dual.dim_component(n) == expected
                ok &= S.dual_star_component(n).dim == expected
    assert report("3 (dimension tables)", ok)


def test_criterion_4a_koszulity_of_symmetric_algebras():
    ok = True
    for N in (2, 3):
        for (p, q) in FORMATS_3:
            ok &= koszul_check(symmetric_algebra(p, q, N), 8).passed
    assert report("4a (S_2, S_3 Koszul through degree 8)", ok)


def test_criterion_4b_koszulity_of_operator_algebras():
    ok = True
    for N in (2, 3):
        for (p, q) in FORMATS_2:
            ok &= koszul_check(operator_algebra(p, q, N), 6).passed
    assert report("4b (Hecke-operator algebras Koszul through degree 6)", ok)


def test_criterion_4c_mixed_yang_mills_extra_condition():
    """Classical claim: the extra condition fails for the mixed algebras.

    The engine finds the two outer placements intersect in 0, so the
    containment holds vacuously; this assertion is expected to fail and is
    kept as stated.  See the module docstring.
    """
    failed_as_stated = True
    for (p, q) in [(1, 1), (2, 1)]:
        rep = yang_mills(SuperSpace.standard(p, q)).extra_condition_report()
        failed_as_stated &= not rep.passed
    # supplementary, engine-verified certificate that the 1|1 algebra is not
    # Koszul: the duality product deviates from 1 at order 5
    duality = koszul_duality_check(yang_mills(SuperSpace.standard(1, 1)), 6)
    assert not duality.passed and duality.product.coeffs[5] != 0
    report("4c (mixed Yang-Mills extra condition FAIL as stated)", failed_as_stated)
    assert failed_as_stated, (
        "the extra condition was expected to FAIL for mixed Yang-Mills; "
        "the outer placements intersect trivially so the condition passes "
        "vacuously (verified by independent eliminations)"
    )


def test_criterion_4d_even_yang_mills_resolution():
    Y = yang_mills(SuperSpace.standard(3, 0))
    table = tor_dims(Y, 4, 6)
    ok = (
        table.dims[0] == {0: 1}
        and table.dims[1] == {1: 3}
        and table.dims[2] == {3: 3}
        and table.dims[3] == {4: 1}
    )
    ok &= [int(c) for c in hilbert_series(Y, 4).coeffs] == [1, 3, 9, 24, 64]
    assert report("4d (even Yang-Mills Tor = 1,3,3,1 and H = 1,3,9,24,64)", ok)


def test_criterion_5_koszul_duality_mod_t9():
    ok = True
    for N in (2, 3):
        for (p, q) in FORMATS_3:
            ok &= koszul_duality_check(symmetric_algebra(p, q, N), 8).passed
        for (p, q) in FORMATS_2:
            ok &= koszul_duality_check(operator_algebra(p, q, N), 8).passed
    for (p, q) in [(3, 0), (0, 3)]:
        ok &= koszul_duality_check(yang_mills(SuperSpace.standard(p, q)), 8).passed
    assert report("5 (duality product = 1 mod t^9)", ok)


def test_criterion_6_hecke_layer():
    ok = True
    for q in (Fraction(1), Fraction(2), Fraction(1, 2)):
        for n in (2, 3, 4):
            one = HeckeElement.one(n, q)
            gens = [HeckeElement.generator(n, q, i) for i in range(1, n)]
            for T in gens:
                ok &= (T + one) * (T - one.scale(q)) == HeckeElement(n, q)
            for i in range(len(gens) - 1):
                ok &= gens[i] * gens[i + 1] * gens[i] == gens[i + 1] * gens[i] * gens[i + 1]
            for i in range(len(gens)):
                for j in range(i + 2, len(gens)):
                    ok &= gens[i] * gens[j] == gens[j] * gens[i]
            X, Y = q_idempotents(n, q)
            ok &= X.alpha() == Y
            from superkoszul.hecke import all_permutations

            for sigma in all_permutations(n):
                T = HeckeElement.basis(n, q, sigma)
                ok &= X * T == X.scale(q ** sigma.length())
                ok &= T * X == X.scale(q ** sigma.length())
                ok &= Y * T == Y.scale(Fraction(-1) ** sigma.length())
                ok &= T * Y == Y.scale(Fraction(-1) ** sigma.length())
    # image of the symmetrizer = intersection of shifted images, n <= 4
    operators = [
        supersymmetry_operator(SuperSpace.standard(1, 1)),
        supersymmetry_operator(SuperSpace.standard(0, 2)),
        dj_operator(1, 1, Fraction(2)),
        dj_operator(2, 0, Fraction(1, 2)),
        dj_operator(2, 1, Fraction(2)),
    ]
    for R in operators:
        for n in (2, 3, 4):
            ok &= symmetrizer_image(R, n, "X") == intersection_of_generator_images(R, n)
    for (p, q_dim) in FORMATS_3:
        for q0 in (Fraction(1), Fraction(2), Fraction(1, 2)):
            ok &= verify_hecke_operator(dj_operator(p, q_dim, q0)).passed
    assert report("6 (Hecke layer)", ok)


def test_criterion_7_supercharacter_laws():
    rng = random.Random(20260810)

    def rand_matrix(fmt, parity):
        d = len(fmt)
        return [
            [
                Fraction(rng.randint(-5, 5)) if (fmt[i] + fmt[j]) % 2 == parity else Fraction(0)
                for j in range(d)
            ]
            for i in range(d)
        ]

    ok = True
    for (p, q) in [(1, 1), (2, 1)]:
        X = GenericSupermatrix(p, q)
        b, fmt = generic_coaction(X)
        bb, ffmt = coaction_tensor(b, fmt, b, fmt)
        d = len(fmt)
        zero = X.table.zero()
        big_b = [
            [b[i % d][j % d] if (i < d) == (j < d) else zero for j in range(2 * d)]
            for i in range(2 * d)
        ]
        big_fmt = fmt + fmt
        for _ in range(100):
            pf, pg = rng.randint(0, 1), rng.randint(0, 1)
            F, G = rand_matrix(fmt, pf), rand_matrix(fmt, pg)
            ok &= X.counit(supercharacter(b, F, fmt)) == supertrace(F, fmt)
            FG = endo_tensor(F, fmt, G, pg)
            ok &= supercharacter(bb, FG, ffmt) == supercharacter(b, F, fmt) * supercharacter(b, G, fmt)
            H = rand_matrix(fmt, pf)
            upper = rand_matrix(fmt, pf)
            big_F = [
                [
                    (F[i][j] if i < d and j < d else
                     H[i - d][j - d] if i >= d and j >= d else
                     upper[i][j - d] if i < d <= j else Fraction(0))
                    for j in range(2 * d)
                ]
                for i in range(2 * d)
            ]
            ok &= supercharacter(big_b, big_F, big_fmt) == supercharacter(b, F, fmt) + supercharacter(b, H, fmt)
    assert report("7 (supercharacter laws, 100 random cases each)", ok)


def test_criterion_8_closed_form_hilbert_series():
    ok = True
    for (p, q) in FORMATS_3:
        for N in (2, 3):
            # closed_form_hilbert hard-checks itself against enumeration
            dim_series = closed_form_hilbert(p, q, N, 6, kind="dim")
            sdim_series = closed_form_hilbert(p, q, N, 6, kind="sdim")
            A = symmetric_algebra(p, q, N)
            for length in range(7):
                ok &= int(dim_series.coeffs[length]) == len(lambda_set(p, q, N, length))
                ok &= len(lambda_set(p, q, N, length)) == A.graded_component(length)[1]
            if p == q:
                ok &= sdim_series == TruncatedSeries.one(6)
    assert report("8 (closed-form Hilbert series)", ok)
