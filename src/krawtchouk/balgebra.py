"""Homogeneous bivariate polynomial algebra with a parameter-shifting product.

A HomPoly of degree r represents sum_u a_u(lambda) Y^u X^(r-u) where each
coefficient is a function of an integer parameter lambda.  The product below
convolves coefficients with the second factor taken at shifted parameter
lambda - i, which is why a polynomial is a map lambda -> coefficient row,
memoised one row per lambda, rather than one stored vector.  Each operation
computes its lambda-free factors once, when it is built, and builds a row
from its operands' rows.  Row maps must be pure, so the memo writes are
idempotent and values stay safe to evaluate from concurrent readers.  Degrees
are ints, and coefficients and bases ints or Fractions (bnary.check_int, exact).

In production only schemes.omega_enumerator evaluates a HomPoly (mu_family
at lambda = n, as its cross-check).  macwilliams.transform_functional sums
the b-product at lambda = n over bnary's integer tables; the tests compare
it with b_product here on the rational closed forms.  The rest of the
paper's b-calculus (powers, sums, the derivatives in X and Y) is a test
reference and is kept with the tests.
"""
from __future__ import annotations

from fractions import Fraction

from .bnary import bpow, check_int, exact, gamma, gauss

_ZERO = Fraction(0)


class HomPoly:
    """Immutable homogeneous polynomial with lambda-dependent coefficients.

    row_fn(lam) gives the degree + 1 coefficients at lam, by power of Y.
    """

    __slots__ = ("degree", "_row_fn", "_rows")

    def __init__(self, degree: int, row_fn):
        self.degree = check_int("degree", degree, 0)
        self._row_fn = row_fn
        self._rows = {}

    def coeff(self, u: int, lam: int) -> Fraction:
        """Coefficient of Y^u X^(degree-u) at parameter lam; 0 out of range."""
        if u < 0 or u > self.degree:
            return _ZERO
        return self.coeffs_at(lam)[u]

    def coeffs_at(self, lam: int) -> tuple:
        """All coefficients (index 0..degree) evaluated at one parameter."""
        row = self._rows.get(lam)
        if row is None:
            row = tuple(self._row_fn(lam))
            if len(row) != self.degree + 1:
                raise ValueError(f"row of {len(row)} coefficients for degree {self.degree}")
            self._rows[lam] = row
        return row


class ConstPoly(HomPoly):
    """HomPoly whose coefficients do not depend on the parameter."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(exact("a coefficient", v) for v in coeffs)
        if not coeffs:
            raise ValueError("need at least the degree-0 coefficient")
        self.coeffs = coeffs
        super().__init__(len(coeffs) - 1, lambda lam: coeffs)


def b_product(a: HomPoly, g: HomPoly, b) -> HomPoly:
    """Product with coefficient c_u(l) = sum_i b^(i*s) a_i(l) g_{u-i}(l-i).

    s is the degree of the second factor; the product is not commutative.
    """
    b = exact("the base b", b)
    s = g.degree
    powers = [bpow(b, i * s) for i in range(a.degree + 1)]

    def row(lam):
        out = [_ZERO] * (a.degree + s + 1)
        for i, ai in enumerate(a.coeffs_at(lam)):
            if ai:
                ai *= powers[i]
                for j, gj in enumerate(g.coeffs_at(lam - i), i):
                    out[j] += ai * gj
        return out

    return HomPoly(a.degree + s, row)


def mu_family(k: int, b, c) -> HomPoly:
    """Closed form of the k-th power of X + (c*b^lambda - 1)Y.

    Coefficient of Y^u X^(k-u) is [k choose u]_b * gamma_{b,c}(lambda, u).
    """
    check_int("k", k, 0)
    gausses = [gauss(k, u, b) for u in range(k + 1)]
    return HomPoly(k, lambda lam: [g * gamma(lam, u, b, c) for u, g in enumerate(gausses)])
