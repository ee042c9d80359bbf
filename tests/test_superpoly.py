"""Supercommutative polynomial and truncated-series arithmetic."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from superkoszul.homogeneous import n_symmetric
from superkoszul.koszul import koszul_duality_check
from superkoszul.macmahon import GenericSupermatrix, check_entry_parities, closed_form_hilbert
from superkoszul.superpoly import (
    EXPONENT_LIMIT,
    SuperPolynomial,
    TruncatedSeries,
    VariableTable,
    newton_elementary,
)
from superkoszul.tensorspace import SuperSpace


def make_table(evens, odds):
    table = VariableTable()
    for name in evens:
        table.add(name, 0)
    for name in odds:
        table.add(name, 1)
    return table


def decoded(poly):
    """poly's terms keyed by (even (vid, exponent) pairs, odd vids), the
    monomials the packed ints stand for."""
    return {poly.table.decode(m): c for m, c in poly.terms.items()}


def test_odd_variables_anticommute_and_square_to_zero():
    table = make_table([], ["u", "v"])
    u, v = table.variable(0), table.variable(1)
    assert u * v == -(v * u)
    assert decoded(v * u) == {((), (0, 1)): Fraction(-1)}
    assert (v * u).terms == {table.monomial(0) + table.monomial(1): -1}
    assert (u * u).is_zero()


def test_mixed_product_cancellation():
    # (a + u)(a - u) = a^2 because the cross terms cancel and u^2 = 0
    table = make_table(["a"], ["u"])
    a, u = table.variable(0), table.variable(1)
    assert (a + u) * (a - u) == a * a


def test_tables_do_not_mix():
    t1 = make_table(["a"], [])
    t2 = make_table(["a"], [])
    with pytest.raises(ValueError):
        t1.variable(0) * t2.variable(0)


def rand_poly(rng, table, n_terms=3, max_deg=2):
    out = table.zero()
    n_vars = len(table)
    for _ in range(n_terms):
        term = table.constant(rng.randint(-3, 3))
        for _ in range(rng.randint(0, max_deg)):
            term = term * table.variable(rng.randrange(n_vars))
        out = out + term
    return out


def rand_homogeneous(rng, table, parity):
    while True:
        p = rand_poly(rng, table)
        terms = {m: c for m, c in p.terms.items() if len(table.decode(m)[1]) % 2 == parity}
        if terms:
            return SuperPolynomial(table, terms)


def test_ring_laws_on_random_polynomials():
    rng = random.Random(7)
    table = make_table(["a", "b"], ["u", "v", "w"])
    for _ in range(40):
        x, y, z = (rand_poly(rng, table) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


def test_supercommutativity_on_homogeneous_elements():
    rng = random.Random(11)
    table = make_table(["a"], ["u", "v", "w"])
    for _ in range(40):
        px, py = rng.randint(0, 1), rng.randint(0, 1)
        x = rand_homogeneous(rng, table, px)
        y = rand_homogeneous(rng, table, py)
        sign = -1 if px and py else 1
        assert x * y == (y * x) * Fraction(sign)


def test_mul_into_adds_signed_products_and_drops_cancelled_terms():
    rng = random.Random(13)
    table = make_table(["a", "b"], ["u", "v", "w"])
    for _ in range(40):
        x, y, z = (rand_poly(rng, table) for _ in range(3))
        terms: dict = {}
        x.mul_into(terms, y)
        z.mul_into(terms, y, -1)
        assert SuperPolynomial(table, terms) == x * y - z * y
        assert 0 not in terms.values()
        x.mul_into(terms, y, -1)
        z.mul_into(terms, y)
        assert terms == {}


def test_series_product_over_polynomials_is_the_convolution():
    rng = random.Random(17)
    table = make_table(["a"], ["u", "v"])
    for _ in range(10):
        s = TruncatedSeries(3, [rand_poly(rng, table) for _ in range(4)])
        r = TruncatedSeries(3, [rand_poly(rng, table) for _ in range(4)])
        expected = [
            sum((s.coeffs[n] * r.coeffs[k - n] for n in range(k + 1)), table.zero())
            for k in range(4)
        ]
        assert (s * r).coeffs == expected


def test_an_exponent_that_reaches_the_guard_bit_raises_and_never_carries():
    # squaring x doubles its exponent; y's field sits just above x's, so a
    # carry out of x's field would show as a y
    table = make_table(["x", "y"], ["u"])
    x, y, u = (table.variable(vid) for vid in range(3))
    power, e = x, 1
    while True:
        try:
            square = power * power
        except OverflowError:
            break
        e *= 2
        assert decoded(square) == {(((0, e),), ()): 1}
        power = square
    assert e < EXPONENT_LIMIT <= 2 * e
    with pytest.raises(OverflowError):
        (power * y) * (power * u)


def test_walks_longer_than_the_exponent_limit_are_refused():
    with pytest.raises(OverflowError):
        GenericSupermatrix(1, 0).power_sums(EXPONENT_LIMIT)


# -- truncated series -------------------------------------------------------


def test_geometric_series_inverse():
    s = TruncatedSeries(3, [Fraction(1), Fraction(-1), Fraction(0), Fraction(0)])
    assert s.inverse().coeffs == [1, 1, 1, 1]


def test_inverse_with_odd_coefficient():
    # (1 + u t)^-1 = 1 - u t exactly: u^2 = 0 kills the t^2 term
    table = make_table([], ["u"])
    u = table.variable(0)
    s = TruncatedSeries(2, [table.one(), u, table.zero()])
    inv = s.inverse()
    assert inv.coeffs[0] == table.one()
    assert inv.coeffs[1] == -u
    assert inv.coeffs[2].is_zero()
    assert s * inv == TruncatedSeries.one(2, one=table.one(), zero=table.zero())


def test_inverse_of_quartic_denominator():
    # 1/(1 - 3t + 3t^3 - t^4): the recurrence a_n = 3a_{n-1} - 3a_{n-3} + a_{n-4}
    denom = TruncatedSeries(4, [Fraction(c) for c in (1, -3, 0, 3, -1)])
    inv = denom.inverse()
    assert inv.coeffs == [1, 3, 9, 24, 64]
    assert denom * inv == TruncatedSeries.one(4)


def test_series_inverse_is_two_sided():
    rng = random.Random(3)
    for _ in range(10):
        coeffs = [Fraction(rng.randint(1, 4))] + [
            Fraction(rng.randint(-4, 4)) for _ in range(5)
        ]
        s = TruncatedSeries(5, coeffs)
        assert s * s.inverse() == TruncatedSeries.one(5)
        assert s.inverse() * s == TruncatedSeries.one(5)


def test_singular_constant_term_rejected():
    s = TruncatedSeries(2, [Fraction(0), Fraction(1), Fraction(0)])
    with pytest.raises(ZeroDivisionError):
        s.inverse()


def test_negative_truncation_order_is_rejected():
    with pytest.raises(ValueError, match="order must be nonnegative"):
        TruncatedSeries(-1, [])
    with pytest.raises(ValueError, match="order must be nonnegative"):
        TruncatedSeries.one(-1)
    # closed_form_hilbert builds its series before it inverts it
    with pytest.raises(ValueError, match="order must be nonnegative"):
        closed_form_hilbert(1, 1, 2, -1)


def test_newton_rejects_a_negative_bound():
    with pytest.raises(ValueError, match="must be nonnegative"):
        newton_elementary([1, 2], -1)


def test_polynomials_and_series_compare_with_scalars_and_are_unhashable():
    table = make_table(["s"], ["a"])
    assert table.constant(2) == 2
    assert TruncatedSeries.one(3) == 1
    for value in (table.constant(2), table.variable(1), TruncatedSeries.one(3)):
        with pytest.raises(TypeError):
            hash(value)


def test_binary_operations_truncate_to_smaller_order():
    a = TruncatedSeries(4, [Fraction(1)] * 5)
    b = TruncatedSeries(2, [Fraction(1)] * 3)
    assert (a * b).order == 2
    assert (a + b).order == 2


def test_scalar_series_coefficients_are_ints_when_integral():
    def kinds(series):
        return {type(c) for c in series.coeffs}

    assert kinds(TruncatedSeries.one(3)) == {int}
    duality = koszul_duality_check(n_symmetric(SuperSpace.standard(1, 1), 2), 4)
    assert duality.passed
    for series in (duality.series, duality.dual_series, duality.product):
        assert kinds(series) == {int}
    assert kinds(closed_form_hilbert(1, 1, 2, 4)) == {int}
    assert kinds(closed_form_hilbert(1, 2, 3, 6, kind="sdim")) == {int}
    assert kinds(TruncatedSeries(2, [1, -2, 0]) * 3) == {int}
    assert kinds(TruncatedSeries(2, [1, -2, 0]) * Fraction(4, 2)) == {int}
    # a constant term that is not a unit of Z gives exact Fractions, never floats
    assert TruncatedSeries(2, [2, 1, 0]).inverse().coeffs == [
        Fraction(1, 2), Fraction(-1, 4), Fraction(1, 8)
    ]
    assert kinds(TruncatedSeries(2, [2, 1, 0]).inverse()) == {Fraction}
    assert (TruncatedSeries(1, [1, 3]) * Fraction(1, 2)).coeffs == [Fraction(1, 2), Fraction(3, 2)]
    assert kinds(TruncatedSeries(1, [1, 3]) * Fraction(1, 2)) == {Fraction}


# -- Newton's recurrence ----------------------------------------------------


def test_mixed_parity_polynomials_are_rejected_and_zero_is_accepted():
    table = make_table(["x"], ["u"])
    x, u = table.variable(0), table.variable(1)
    assert table.zero().parity() is None and x.parity() == 0 and u.parity() == 1
    with pytest.raises(ValueError, match="mixes even and odd"):
        (x + u).parity()
    with pytest.raises(ValueError, match="mixes even and odd"):
        newton_elementary([x + u, 0 * x], 2)
    with pytest.raises(ValueError, match="must be even"):
        newton_elementary([u, 0 * x], 2)
    assert newton_elementary([x, 0 * x], 2)[2] == x * x * Fraction(1, 2)
    with pytest.raises(ValueError, match="mixes even and odd"):
        check_entry_parities([[x + u]], (0,))
    check_entry_parities([[table.zero(), u], [u, x]], (0, 1))
    with pytest.raises(ValueError, match="parity 1, expected 0"):
        check_entry_parities([[u]], (0,))


def test_newton_single_variable():
    table = make_table(["s"], [])
    s = table.variable(0)
    es = newton_elementary([s], 1)
    assert es[0] == 1 and es[1] == s


def test_newton_identity_matrix_power_sums():
    # two even eigenvalues both 1: p_n = 2, e_n = binomial(2, n)
    es = newton_elementary([Fraction(2), Fraction(2)], 2)
    assert es == [1, 2, 1]


def test_newton_matches_elementary_symmetric_of_eigenvalues():
    # independent oracle: elementary symmetric polynomials by enumeration
    rng = random.Random(5)
    for _ in range(10):
        eigs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(4)]
        K = 4
        power_sums = [sum(x ** n for x in eigs) for n in range(1, K + 1)]
        es = newton_elementary(power_sums, K)
        for n in range(K + 1):
            expected = sum(
                (prod_of(c) for c in combinations(eigs, n)), Fraction(0)
            ) if n else Fraction(1)
            assert es[n] == expected


def prod_of(xs):
    out = Fraction(1)
    for x in xs:
        out *= x
    return out


# -- int coefficients -------------------------------------------------------


def test_integral_coefficients_are_stored_as_ints():
    table = make_table(["a"], ["u"])
    a, u = table.variable(0), table.variable(1)
    p = (a + Fraction(1, 2)) * (a + Fraction(3, 2)) - u * table.constant(Fraction(4, 2))
    assert p == 2 * a + a * a + Fraction(3, 4) - 2 * u
    assert decoded(p) == {
        (((0, 1),), ()): 2,
        (((0, 2),), ()): 1,
        ((), ()): Fraction(3, 4),
        ((), (1,)): -2,
    }
    assert all(type(c) is (Fraction if c.denominator > 1 else int) for c in p.terms.values())


def test_constant_stores_the_exact_value():
    table = make_table(["a"], [])
    assert decoded(table.constant(Fraction(6, 3))) == {((), ()): 2}
    assert type(table.constant(Fraction(6, 3)).terms[0]) is int
    assert decoded(table.constant("1/3")) == {((), ()): Fraction(1, 3)}
    assert decoded(table.constant(0.5)) == {((), ()): Fraction(1, 2)}
    assert table.constant(0) == table.zero()


def test_inverse_of_the_polynomial_constant_three_is_exactly_a_third():
    table = make_table(["a"], [])
    a = table.variable(0)
    inv = TruncatedSeries(2, [table.constant(3), a, table.zero()]).inverse()
    assert decoded(inv.coeffs[0]) == {((), ()): Fraction(1, 3)}
    assert inv.coeffs[1] == a * Fraction(-1, 9)
    assert inv.coeffs[2] == a * a * Fraction(1, 27)


def test_inverse_of_the_polynomial_constant_minus_one_is_the_int_minus_one():
    table = make_table(["a"], [])
    a = table.variable(0)
    inv = TruncatedSeries(2, [table.constant(-1), a, table.zero()]).inverse()
    assert [type(c) for c in inv.coeffs[0].terms.values()] == [int]
    assert inv.coeffs[0].constant_term() == -1
    # 1 / (-1 + a t) = -(1 + a t + a^2 t^2 + ...)
    assert inv.coeffs[1] == -a and inv.coeffs[2] == -(a * a)


def test_newton_on_polynomial_power_sums_keeps_a_non_integral_coefficient():
    # p_1 = x, p_2 = 0 is no matrix's power sums: e_2 = (x^2 - 0) / 2
    table = make_table(["x"], [])
    x = table.variable(0)
    es = newton_elementary([x, table.zero()], 2)
    assert es[1] == x and decoded(es[1]) == {(((0, 1),), ()): 1}
    assert es[2] == x * x * Fraction(1, 2)
    assert decoded(es[2]) == {(((0, 2),), ()): Fraction(1, 2)}
    assert type(es[2].terms[table.monomial(0) * 2]) is Fraction


def test_newton_on_scalar_power_sums_gives_ints_when_integral():
    # two eigenvalues 1: e_1 = 2 and e_2 = (2 * 2 - 2) / 2 = 1 are ints
    es = newton_elementary([2, 2], 2)
    assert es == [1, 2, 1]
    assert [type(e) for e in es] == [int, int, int]
    # p_1 = 1, p_2 = 2: e_2 = (1 - 2) / 2 stays a Fraction
    es = newton_elementary([1, 2], 2)
    assert es == [1, 1, Fraction(-1, 2)]
    assert [type(e) for e in es] == [int, int, Fraction]
