"""Polynomial algebra: product, powers, transform, derivatives, lemmas."""
import random
from fractions import Fraction

import pytest

from krawtchouk import balgebra
from krawtchouk.balgebra import ConstPoly, HomPoly, b_product, mu_family
from krawtchouk.bnary import beta, bpow, gamma, gauss, sigma

from bcalculus import (
    NU_LINEAR,
    ONE,
    X,
    Y,
    ZERO,
    b_derivative,
    b_power,
    binv_derivative,
    constant,
    evaluate,
    mu_linear,
    nu_family,
    poly_sum,
    scale,
)
from conftest import (
    BASES,
    delta_closed,
    delta_sum,
    epsilon_closed,
    epsilon_sum,
    polys_equal,
    rand_const_poly,
    shift_param,
)

LAMS = range(-2, 7)


def b_transform(a: ConstPoly, b) -> HomPoly:
    """sum_i a_i Y^[i] * X^[r-i] with monomial powers taken in the algebra."""
    r = a.degree
    parts = []
    for i, ai in enumerate(a.coeffs):
        term = b_product(b_power(Y, i, b), b_power(X, r - i, b), b)
        parts.append(scale(term, ai))
    return poly_sum(parts)


def test_scalar_product_commutes():
    rng = random.Random(1)
    alpha = constant(Fraction(5, 2))
    for b in BASES:
        g = rand_const_poly(rng, 3)
        left = b_product(alpha, g, b)
        right = b_product(g, alpha, b)
        want = scale(g, Fraction(5, 2))
        assert polys_equal(left, want) and polys_equal(right, want)


def test_monomial_products():
    for b in BASES:
        xy = b_product(X, Y, b)
        assert xy.coeffs_at(0) == (0, 1, 0)
        yx = b_product(Y, X, b)
        assert yx.coeffs_at(0) == (0, Fraction(b), 0)  # non-commutativity


def test_same_degree_distributivity():
    rng = random.Random(2)
    for b in BASES:
        a = rand_const_poly(rng, 3)
        c = rand_const_poly(rng, 3)
        g = rand_const_poly(rng, 2)
        lhs = b_product(poly_sum([a, c]), g, b)
        rhs = poly_sum([b_product(a, g, b), b_product(c, g, b)])
        assert polys_equal(lhs, rhs)
        lhs = b_product(g, poly_sum([a, c]), b)
        rhs = poly_sum([b_product(g, a, b), b_product(g, c, b)])
        assert polys_equal(lhs, rhs)


def test_b_power_base_cases():
    rng = random.Random(3)
    a = rand_const_poly(rng, 2)
    assert b_power(a, 0, 2) is ONE
    assert polys_equal(b_power(a, 1, 2), a)


def test_nu_squared_coefficients():
    for b in BASES:
        got = b_power(NU_LINEAR, 2, b)
        assert got.coeffs_at(4) == (1, -(1 + Fraction(b)), Fraction(b))
    assert nu_family(2, 2).coeffs == (1, -3, 2)
    assert nu_family(2, -2).coeffs == (1, 1, -2)
    assert nu_family(1, 7).coeffs == (1, -1)


def test_mu_squared_coefficients():
    for b, c in ((2, 3), (-2, Fraction(1, 2))):
        b, c = Fraction(b), Fraction(c)
        got = b_power(mu_linear(b, c), 2, b)
        for lam in LAMS:
            cbl = c * bpow(b, lam)
            assert got.coeffs_at(lam) == (1, (1 + b) * (cbl - 1), (cbl - 1) * (cbl - b))


def test_mu_family_examples():
    assert mu_family(0, 2, 3) .coeffs_at(5) == (1,)
    m1 = mu_family(1, 2, 3)
    for lam in LAMS:
        assert m1.coeff(1, lam) == 3 * bpow(2, lam) - 1
    # 3-bit Hamming space enumerator: binomial row times (q-1)^u at q=2
    omega3 = mu_family(3, 1, 2)
    assert omega3.coeffs_at(3) == (1, 3, 3, 1)


def test_closed_forms_equal_iterated_powers():
    for b, c in ((2, 3), (-2, Fraction(1, 2)), (3, -1), (-3, Fraction(2, 3))):
        for k in range(7):
            assert polys_equal(mu_family(k, b, c), b_power(mu_linear(b, c), k, b), range(0, 7))
            assert polys_equal(nu_family(k, b), b_power(NU_LINEAR, k, b), range(0, 7))


def test_b_transform_examples():
    assert b_transform(constant(1), 2).coeffs_at(0) == (1,)
    assert b_transform(ConstPoly((1, 0)), 2).coeffs_at(0) == (1, 0)
    # Y^[2] = Y * Y carries coefficient b^(1*1) = b on Y^2
    for b in BASES:
        got = b_transform(ConstPoly((0, 0, 1)), b)
        assert got.coeffs_at(0) == (0, 0, Fraction(b))


def test_b_transform_monomial_powers():
    # Y^[i] * X^[r-i] = b^(sigma(i) + i(r-i)) Y^i X^(r-i)
    r = 4
    for b in BASES:
        for i in range(r + 1):
            term = b_product(b_power(Y, i, b), b_power(X, r - i, b), b)
            want = [Fraction(0)] * (r + 1)
            want[i] = bpow(b, sigma(i) + i * (r - i))
            assert list(term.coeffs_at(0)) == want


def test_b_derivative_basics():
    rng = random.Random(4)
    f = rand_const_poly(rng, 3)
    assert b_derivative(f, 0, 2) is f
    x_sq = ConstPoly((1, 0, 0))
    got = b_derivative(x_sq, 1, 2)
    assert got.coeffs_at(0) == (3, 0)  # beta(2,1,2) = 3 on X
    assert b_derivative(f, 5, 2) is ZERO
    with pytest.raises(ValueError):
        b_derivative(f, -1, 2)


def test_b_derivative_is_classical_at_base_one():
    # b = 1: coefficient i gets the falling factorial (r-i)(r-i-1)...
    f = ConstPoly((2, 5, 7, 1))  # degree 3
    got = b_derivative(f, 2, 1)
    assert got.coeffs_at(0) == (2 * 6, 5 * 2)


def test_binv_derivative_basics():
    rng = random.Random(5)
    g = rand_const_poly(rng, 3)
    assert binv_derivative(g, 0, 2) is g
    y_sq = ConstPoly((0, 0, 1))
    got = binv_derivative(y_sq, 1, 2)
    assert got.coeffs_at(0) == (0, Fraction(3, 2))  # b^(1-2) beta(2,1,2) Y
    assert binv_derivative(g, 4, 2) is ZERO


def test_derivative_closed_forms():
    for b, c in ((2, 3), (-2, Fraction(1, 2)), (-3, 2)):
        b, c = Fraction(b), Fraction(c)
        for k in range(7):
            for phi in range(k + 1):
                got = b_derivative(mu_family(k, b, c), phi, b)
                want = scale(mu_family(k - phi, b, c), beta(k, phi, b))
                assert polys_equal(got, want, range(0, 7))

                got = b_derivative(nu_family(k, b), phi, b)
                want = scale(nu_family(k - phi, b), beta(k, phi, b))
                assert polys_equal(got, want, range(0, 7))

                got = binv_derivative(nu_family(k, b), phi, b)
                want = scale(nu_family(k - phi, b), (-1) ** phi * beta(k, phi, b))
                assert polys_equal(got, want, range(0, 7))

                # mu^[k]{phi} shifts the parameter and carries gamma(lam, phi)
                got = binv_derivative(mu_family(k, b, c), phi, b)
                shifted = shift_param(mu_family(k - phi, b, c), -phi)
                factor = bpow(b, -sigma(phi)) * beta(k, phi, b)
                want = HomPoly(
                    k - phi,
                    lambda lam, shifted=shifted, factor=factor, phi=phi: [
                        factor * gamma(lam, phi, b, c) * v for v in shifted.coeffs_at(lam)
                    ],
                )
                assert polys_equal(got, want, range(0, 7))


def test_evaluate_basics():
    assert evaluate(ONE, 9, 4, 0) == 1
    for b in BASES:
        for j in range(1, 7):
            assert evaluate(nu_family(j, b), 1, 1, 3) == 0
    for b, c in ((2, 3), (-2, Fraction(1, 2))):
        for k in range(5):
            for lam in range(0, 5):
                want = (Fraction(c) * bpow(b, lam)) ** k
                assert evaluate(mu_family(k, b, c), 1, 1, lam) == want


def test_nu_derivative_evaluation_lemma():
    for b in BASES:
        for j in range(7):
            for ell in range(j + 1):
                value = evaluate(b_derivative(nu_family(j, b), ell, b), 1, 1, 2)
                want = beta(j, j, b) if ell == j else 0
                assert value == want


def test_rho_mu_evaluation_lemma():
    rng = random.Random(6)
    for b, c in ((2, 3), (-2, Fraction(1, 2)), (3, -2)):
        for _ in range(40):
            rho = rand_const_poly(rng, rng.randint(0, 4))
            s = rng.randint(0, 4)
            lam = rng.randint(0, 6)
            got = evaluate(b_product(rho, mu_family(s, b, c), b), 1, 1, lam)
            want = (Fraction(c) * bpow(b, lam)) ** s * evaluate(rho, 1, 1, lam)
            assert got == want


def _leibniz_terms_b(f, g, phi, b, r):
    terms = []
    for ell in range(phi + 1):
        if ell > f.degree or phi - ell > g.degree:
            continue
        t = b_product(b_derivative(f, ell, b), b_derivative(g, phi - ell, b), b)
        terms.append(scale(t, gauss(phi, ell, b) * bpow(b, (phi - ell) * (r - ell))))
    return terms


def test_leibniz_b():
    rng = random.Random(7)
    for _ in range(60):
        b = rng.choice(BASES)
        r, s = rng.randint(0, 5), rng.randint(0, 5)
        f, g = rand_const_poly(rng, r), rand_const_poly(rng, s)
        prod = b_product(f, g, b)
        for phi in range(min(r + s, 4) + 1):
            lhs = b_derivative(prod, phi, b)
            terms = _leibniz_terms_b(f, g, phi, b, r)
            assert terms, "duplicated degrees guarantee at least one term"
            assert polys_equal(lhs, poly_sum(terms))


def test_leibniz_binv():
    rng = random.Random(8)
    for _ in range(60):
        b = rng.choice(BASES)
        r, s = rng.randint(0, 5), rng.randint(0, 5)
        f, g = rand_const_poly(rng, r), rand_const_poly(rng, s)
        prod = b_product(f, g, b)
        for phi in range(min(r + s, 4) + 1):
            lhs = binv_derivative(prod, phi, b)
            terms = []
            for ell in range(phi + 1):
                if ell > r or phi - ell > s:
                    continue
                second = shift_param(binv_derivative(g, phi - ell, b), -ell)
                t = b_product(binv_derivative(f, ell, b), second, b)
                terms.append(scale(t, gauss(phi, ell, b) * bpow(b, ell * (s - phi + ell))))
            assert polys_equal(lhs, poly_sum(terms))


def test_leibniz_binv_needs_parameter_shift():
    # with genuinely lambda-dependent coefficients the unshifted sum is wrong
    b, c = Fraction(2), Fraction(3)
    f = nu_family(2, b)
    g = mu_family(2, b, c)
    prod = b_product(f, g, b)
    phi = 1
    lhs = binv_derivative(prod, phi, b)
    unshifted = []
    shifted = []
    for ell in range(phi + 1):
        coeff = gauss(phi, ell, b) * bpow(b, ell * (g.degree - phi + ell))
        d_f = binv_derivative(f, ell, b)
        d_g = binv_derivative(g, phi - ell, b)
        unshifted.append(scale(b_product(d_f, d_g, b), coeff))
        shifted.append(scale(b_product(d_f, shift_param(d_g, -ell), b), coeff))
    assert polys_equal(lhs, poly_sum(shifted))
    assert not polys_equal(lhs, poly_sum(unshifted))


def test_delta_lemma():
    for b, c in ((2, 3), (-2, Fraction(1, 2)), (3, Fraction(-2, 3))):
        for lam in range(0, 9):
            for phi in range(6):
                for j in range(phi + 1):
                    assert delta_sum(lam, phi, j, b, c) == delta_closed(lam, phi, j, b, c)


def test_epsilon_lemma():
    for b in BASES:
        for big_lam in range(0, 9):
            for phi in range(min(big_lam, 5) + 1):
                for i in range(phi + 1):
                    assert epsilon_sum(big_lam, phi, i, b) == epsilon_closed(big_lam, phi, i, b)


def test_coefficients_memoised_and_pure():
    calls = []

    def row(lam):
        calls.append(lam)
        return [Fraction(u + lam) for u in range(3)]

    p = HomPoly(2, row)
    assert p.coeff(1, 4) == 5
    assert p.coeff(1, 4) == 5
    assert p.coeff(2, 4) == 6
    assert p.coeffs_at(4) == (4, 5, 6)
    assert calls.count(4) == 1  # one row per lambda, whichever entry is read
    assert p.coeff(9, 0) == 0  # out of range without calling the row map
    assert p.coeff(-1, 0) == 0
    assert 0 not in calls
    with pytest.raises(ValueError):
        HomPoly(2, lambda lam: [Fraction(1)] * 2).coeffs_at(0)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: ConstPoly([0.1]), "a coefficient"),
        (lambda: ConstPoly([1, "2"]), "a coefficient"),
        (lambda: HomPoly(1.5, lambda lam: [1, 1]), "degree"),
        (lambda: HomPoly(True, lambda lam: [1, 1]), "degree"),
        (lambda: mu_family(2.0, 2, 3), "k"),
        (lambda: mu_family(2, 2.0, 3), "the base b"),
        (lambda: b_product(ConstPoly([1, 1]), ConstPoly([1, 2]), 2.0), "the base b"),
    ],
)
def test_floats_strings_and_bools_are_rejected_not_converted(call, name):
    # ConstPoly([0.1]) held the float's binary value 3602879701896397/2^55,
    # and the others were accepted
    with pytest.raises(ValueError, match=f"^{name} must be an (integer|int or Fraction)"):
        call()


def test_int_and_fraction_arguments_give_fraction_coefficients():
    half = Fraction(1, 2)
    assert ConstPoly([1, half]).coeffs == (1, half)
    for poly in (ConstPoly([1, half]), mu_family(2, half, 3), b_product(ConstPoly([1, 1]), ConstPoly([1, 2]), 2)):
        assert all(type(v) is Fraction for v in poly.coeffs_at(2))


def test_mu_family_computes_its_gaussian_row_once(monkeypatch):
    calls = []

    def counted(x, k, b):
        calls.append((x, k))
        return gauss(x, k, b)

    monkeypatch.setattr(balgebra, "gauss", counted)
    for k in range(6):
        calls.clear()
        mu = mu_family(k, 2, 3)
        rows = [mu.coeffs_at(lam) for lam in LAMS]
        assert len(calls) == k + 1
        assert rows == [
            tuple(gauss(k, u, 2) * gamma(lam, u, 2, 3) for u in range(k + 1)) for lam in LAMS
        ]
