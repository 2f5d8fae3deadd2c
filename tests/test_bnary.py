"""b-nary combinatorics: definitional examples and the identity suite."""
import random
import re
from fractions import Fraction

import pytest

from krawtchouk.bnary import as_int, beta, bpow, gamma, gamma_rows, gauss, gauss_rows, sigma
from krawtchouk.eigenvalues import c_poly, delsarte_p
from krawtchouk.macwilliams import TransformInput, maximal_distribution, moment_b, moment_binv
from krawtchouk.oracle import char_eigenvalue
from krawtchouk.schemes import make_scheme, xi

from conftest import BASES


def test_sigma_values():
    assert sigma(0) == 0
    assert sigma(1) == 0
    assert sigma(4) == 6
    with pytest.raises(ValueError):
        sigma(-1)


def test_gauss_examples():
    assert gauss(5, 0, 7) == 1
    assert gauss(2, 1, 2) == 3
    assert gauss(4, 2, 1) == 6
    assert gauss(2, 1, -2) == -1
    assert gauss(3, 5, 2) == 0  # k > x
    assert gauss(0, 0, 3) == 1


def test_gauss_rejects_bad_input():
    with pytest.raises(ValueError):
        gauss(2, 1, 0)
    with pytest.raises(ValueError):
        gauss(-1, 0, 2)
    with pytest.raises(ValueError):
        gauss(1, -1, 2)


def test_gauss_rational_base():
    # skew schemes with even t use c = 1/q; fractional bases must stay exact
    assert gauss(2, 1, Fraction(1, 2)) == Fraction(3, 2)


def test_beta_examples():
    assert beta(9, 0, 3) == 1
    assert beta(3, 2, 2) == 21
    assert beta(4, 2, 1) == 12  # falling factorial 4*3
    assert beta(0, 1, 5) == 0
    # negative first argument evaluates via exact negative powers
    assert beta(-1, 1, 2) == (Fraction(1, 2) - 1) / (2 - 1)


def test_gamma_examples():
    assert gamma(5, 0, 7, 9) == 1
    assert gamma(2, 2, 1, 3) == 4
    assert gamma(2, 1, -2, -1) == -5


def test_as_int():
    assert as_int(Fraction(6, 2)) == 3
    with pytest.raises(ValueError):
        as_int(Fraction(1, 2))


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: gauss(2.0, 1, 2), "x"),
        (lambda: beta(2.0, 1, 2), "x"),
        (lambda: gamma(2.0, 1, 2, 3), "x"),
        (lambda: gauss(2, 1.0, 2), "k"),
        (lambda: sigma(2.5), "i"),
        (lambda: sigma(True), "i"),
        (lambda: gauss(3, 1, "1/2"), "the base b"),
        (lambda: beta(2, 1, "3"), "the base b"),
        (lambda: gamma(2, 1, True, 3), "the base b"),
        (lambda: gamma(2, 1, 2, 0.5), "the constant c"),
        (lambda: bpow(0.5, 2), "the base b"),
        (lambda: bpow(2, 2.0), "e"),
        (lambda: as_int(2.0), "value"),
    ],
)
def test_floats_strings_and_bools_are_rejected_not_converted(call, name):
    # before bnary.check_int and bnary.exact each of these returned a value
    # (a float for a float x) or failed with a TypeError
    with pytest.raises(ValueError, match=f"^{name} must be an (integer|int or Fraction)"):
        call()


_HAM23 = make_scheme("hamming", 2, n=3)
_TIN = TransformInput((1, 0, 0, 1), 2, _HAM23)
# (argument name, call with the argument, an int out of its range)
_INTEGER_ARGUMENTS = {
    "c_poly k": ("k", lambda v: c_poly(v, 1, _HAM23), 4),
    "c_poly x": ("x", lambda v: c_poly(1, v, _HAM23), 4),
    "delsarte_p k": ("k", lambda v: delsarte_p(v, 1, _HAM23), -1),
    "delsarte_p x": ("x", lambda v: delsarte_p(1, v, _HAM23), -1),
    "char_eigenvalue k": ("k", lambda v: char_eigenvalue(_HAM23, v, 0), 4),
    "char_eigenvalue x": ("x", lambda v: char_eigenvalue(_HAM23, 0, v), -1),
    "TransformInput entry": ("a distribution entry", lambda v: TransformInput((1, 0, 0, v), 2, _HAM23), -1),
    "TransformInput code_size": ("code size", lambda v: TransformInput((1, 0, 0, 1), v, _HAM23), 0),
    "maximal_distribution d_s": ("d_s", lambda v: maximal_distribution(_HAM23, v, 2), 5),
    "maximal_distribution code_size": ("code size", lambda v: maximal_distribution(_HAM23, 2, v), 0),
    "moment_b phi": ("phi", lambda v: moment_b(_TIN, v), 4),
    "moment_binv phi": ("phi", lambda v: moment_binv(_TIN, v), -1),
    "xi omega": ("omega", lambda v: xi(_HAM23, v), 4),
    "make_scheme skew t": ("dimension t", lambda v: make_scheme("skew", 2, t=v), 1),
}


@pytest.mark.parametrize("value", [True, 1.0, "1", "out of range"], ids=["bool", "float", "str", "out of range"])
@pytest.mark.parametrize("argument", list(_INTEGER_ARGUMENTS))
def test_every_integer_argument_has_one_message_shape(argument, value):
    # bnary.check_int words every rejected integer argument the same way
    name, call, out_of_range = _INTEGER_ARGUMENTS[argument]
    shape = rf"^{re.escape(name)} must be an integer( >= -?\d+| in -?\d+\.\.\d+)?, got "
    with pytest.raises(ValueError, match=shape):
        call(out_of_range if value == "out of range" else value)


def test_int_and_fraction_arguments_give_fractions():
    half = Fraction(1, 2)
    for value in (gauss(3, 1, 2), gauss(3, 1, half), beta(3, 2, half), gamma(2, 1, 2, half), bpow(half, -2)):
        assert type(value) is Fraction
    assert (gauss(3, 1, half), gamma(2, 1, 2, half), bpow(half, -2)) == (Fraction(7, 4), 1, 4)
    assert type(as_int(Fraction(4, 2))) is int


def test_integer_tables_match_rational_forms():
    n = 7
    for b in (1, 2, 3, 4, 9, -2, -3):
        # c = 1/q when b = q^2 is the skew scheme with even t: c b^m is
        # integral for m >= 1 only, and row 0 must not form c b^0
        cs = (1, 2, -1, 3) + ((Fraction(1, 2),) if b == 4 else (Fraction(1, 3),) if b == 9 else ())
        rows = gauss_rows(n, b)
        assert [len(row) for row in rows] == list(range(1, n + 2))
        for x, row in enumerate(rows):
            assert row == [gauss(x, k, b) for k in range(x + 1)], (b, x)
            assert all(type(v) is int for v in row)
        for c in cs:
            table = gamma_rows(n, b, c)
            assert [len(row) for row in table] == list(range(1, n + 2))
            for m, row in enumerate(table):
                assert row == [gamma(m, u, b, c) for u in range(m + 1)], (b, c, m)
                assert all(type(v) is int for v in row)
    assert gauss_rows(0, 5) == gamma_rows(0, 5, Fraction(1, 5)) == [[1]]
    assert gamma_rows(2, 4, Fraction(1, 2))[0] == [1]


@pytest.mark.parametrize("b", [True, 2.0, Fraction(1, 2), 0, Fraction(0), "2"])
def test_integer_tables_reject_bad_base(b):
    with pytest.raises(ValueError):
        gauss_rows(3, b)
    with pytest.raises(ValueError):
        gamma_rows(3, b, 1)


def test_integer_tables_reject_bad_size_and_constant():
    for n in (-1, True, 2.0):
        with pytest.raises(ValueError):
            gauss_rows(n, 2)
        with pytest.raises(ValueError):
            gamma_rows(n, 2, 1)
    for c in (True, 0.5):
        with pytest.raises(ValueError):
            gamma_rows(3, 2, c)
    with pytest.raises(ValueError):
        gamma_rows(3, 3, Fraction(1, 2))  # c b = 3/2 is not an integer


def _random_cases(count=250, seed=5):
    rng = random.Random(seed)
    for _ in range(count):
        b = rng.choice(BASES + (4,))
        x = rng.randint(0, 8)
        k = rng.randint(0, x)
        yield b, x, k, rng


def test_gauss_symmetry_and_swap():
    for b, x, k, rng in _random_cases():
        assert gauss(x, k, b) == gauss(x, x - k, b)
        i = rng.randint(0, x - k)
        assert gauss(x, i, b) * gauss(x - i, k, b) == gauss(x, k, b) * gauss(x - k, i, b)


def test_product_sum_expansions():
    for b, x, k, rng in _random_cases(count=150):
        y = Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))
        prod = Fraction(1)
        for i in range(x):
            prod *= y - bpow(b, i)
        expansion = sum(
            (-1) ** (x - j) * bpow(b, sigma(x - j)) * gauss(x, j, b) * y ** j
            for j in range(x + 1)
        )
        assert prod == expansion
        total = Fraction(0)
        for j in range(x + 1):
            inner = Fraction(1)
            for i in range(j):
                inner *= y - bpow(b, i)
            total += gauss(x, j, b) * inner
        assert total == y ** x


def test_delta_orthogonality():
    for b, j, i, rng in _random_cases(count=150):
        got = sum(
            (-1) ** (k - i) * bpow(b, sigma(k - i)) * gauss(k, i, b) * gauss(j, k, b)
            for k in range(i, j + 1)
        )
        assert got == (1 if i == j else 0)


def test_pascal_identities():
    for b, x, k, rng in _random_cases():
        if x == 0 or k == 0:
            continue
        g = gauss(x, k, b)
        assert g == gauss(x - 1, k, b) + bpow(b, x - k) * gauss(x - 1, k - 1, b)
        assert g == gauss(x - 1, k - 1, b) + bpow(b, k) * gauss(x - 1, k, b)
        if b != 1:
            assert g == (bpow(b, x - k + 1) - 1) / (bpow(b, k) - 1) * gauss(x, k - 1, b)
            assert g == (bpow(b, x) - 1) / (bpow(b, k) - 1) * gauss(x - 1, k - 1, b)
            if k < x:
                assert g == (bpow(b, x) - 1) / (bpow(b, x - k) - 1) * gauss(x - 1, k, b)


def test_pascal_at_binomial_base():
    for x in range(1, 9):
        for k in range(1, x + 1):
            assert gauss(x, k, 1) == gauss(x - 1, k, 1) + gauss(x - 1, k - 1, 1)


def test_beta_manipulation_lemma():
    for b, x, k, rng in _random_cases(count=150):
        assert beta(x, k, b) == gauss(x, k, b) * beta(k, k, b)
        assert beta(x, x, b) == gauss(x, k, b) * beta(k, k, b) * beta(x - k, x - k, b)
        assert beta(x, k, b) * beta(x - k, 1, b) == beta(x, k + 1, b)


def test_gamma_identities():
    rng = random.Random(6)
    for _ in range(200):
        b = rng.choice(BASES)
        c = Fraction(rng.choice((-3, -1, 1, 2, 3, 5)), rng.choice((1, 2, 3)))
        x = rng.randint(-2, 8)
        k = rng.randint(0, 6)
        lhs = gamma(x, k, b, c)
        rhs = bpow(b, sigma(k))
        for i in range(k):
            rhs *= c * bpow(b, x - i) - 1
        assert lhs == rhs
        assert gamma(x + 1, k + 1, b, c) == (c * bpow(b, x + 1) - 1) * bpow(b, k) * lhs
        assert gamma(x, k + 1, b, c) == (c * bpow(b, x) - bpow(b, k)) * lhs
