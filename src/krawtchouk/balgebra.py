"""Homogeneous bivariate polynomial algebra with a parameter-shifting product.

A HomPoly of degree r represents sum_u a_u(lambda) Y^u X^(r-u) where each
coefficient is a function of an integer parameter lambda.  The product below
convolves coefficients with the second factor taken at shifted parameter
lambda - i, which is why a polynomial is a map lambda -> coefficient row,
memoised one row per lambda, rather than one stored vector.  Each operation
computes its lambda-free factors once, when it is built, and builds a row
from its operands' rows.  Row maps must be pure, so the memo writes are
idempotent and values stay safe to evaluate from concurrent readers.

In production only schemes.omega_enumerator evaluates a HomPoly (mu_family
at lambda = n, as its cross-check).  macwilliams.transform_functional sums
the b-product at lambda = n over bnary's integer tables; the tests compare
it with b_product here, which uses the rational gauss, gamma and beta.
"""
from __future__ import annotations

from fractions import Fraction

from .bnary import beta, bpow, gamma, gauss, sigma

_ZERO = Fraction(0)


class HomPoly:
    """Immutable homogeneous polynomial with lambda-dependent coefficients.

    row_fn(lam) gives the degree + 1 coefficients at lam, by power of Y.
    """

    __slots__ = ("degree", "_row_fn", "_rows")

    def __init__(self, degree: int, row_fn):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
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
        coeffs = tuple(Fraction(v) for v in coeffs)
        if not coeffs:
            raise ValueError("need at least the degree-0 coefficient")
        self.coeffs = coeffs
        super().__init__(len(coeffs) - 1, lambda lam: coeffs)


def constant(value) -> ConstPoly:
    return ConstPoly((value,))


ONE = constant(1)
ZERO = constant(0)
X = ConstPoly((1, 0))
Y = ConstPoly((0, 1))


def b_product(a: HomPoly, g: HomPoly, b) -> HomPoly:
    """Product with coefficient c_u(l) = sum_i b^(i*s) a_i(l) g_{u-i}(l-i).

    s is the degree of the second factor; the product is not commutative.
    """
    b = Fraction(b)
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


def b_power(a: HomPoly, k: int, b) -> HomPoly:
    """Iterated product a * a * ... * a (k factors); k = 0 gives the constant 1."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return ONE
    out = a
    for _ in range(k - 1):
        out = b_product(a, out, b)
    return out


def poly_sum(polys) -> HomPoly:
    """Sum of same-degree polynomials (the only sums the algebra admits)."""
    polys = list(polys)
    if not polys:
        raise ValueError("empty sum")
    degree = polys[0].degree
    if any(p.degree != degree for p in polys):
        raise ValueError("summands must share one degree")
    return HomPoly(degree, lambda lam: map(sum, zip(*(p.coeffs_at(lam) for p in polys))))


def scale(a: HomPoly, value) -> HomPoly:
    value = Fraction(value)
    return HomPoly(a.degree, lambda lam: [value * v for v in a.coeffs_at(lam)])


def mu_family(k: int, b, c) -> HomPoly:
    """Closed form of the k-th power of X + (c*b^lambda - 1)Y.

    Coefficient of Y^u X^(k-u) is [k choose u]_b * gamma_{b,c}(lambda, u).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    gausses = [gauss(k, u, b) for u in range(k + 1)]
    return HomPoly(k, lambda lam: [g * gamma(lam, u, b, c) for u, g in enumerate(gausses)])


def mu_linear(b, c) -> HomPoly:
    """The degree-1 polynomial X + (c*b^lambda - 1)Y itself."""
    b = Fraction(b)
    c = Fraction(c)
    return HomPoly(1, lambda lam: (Fraction(1), c * bpow(b, lam) - 1))


def nu_family(k: int, b) -> ConstPoly:
    """Closed form of the k-th power of X - Y: (-1)^u b^sigma(u) [k choose u]_b."""
    if k < 0:
        raise ValueError("k must be >= 0")
    b = Fraction(b)
    coeffs = [
        (-1) ** u * bpow(b, sigma(u)) * gauss(k, u, b) for u in range(k + 1)
    ]
    return ConstPoly(coeffs)


NU_LINEAR = ConstPoly((1, -1))


def b_derivative(f: HomPoly, phi: int, b) -> HomPoly:
    """phi-th derivative in X: coefficient i picks up beta_b(r-i, phi).

    At b = 1 the beta factor is the falling factorial, i.e. the ordinary
    d^phi/dX^phi.  Differentiating past the degree yields the zero polynomial.
    """
    if phi < 0:
        raise ValueError("phi must be >= 0")
    if phi == 0:
        return f
    r = f.degree
    if phi > r:
        return ZERO
    factors = [beta(r - i, phi, b) for i in range(r - phi + 1)]
    return HomPoly(r - phi, lambda lam: [v * w for v, w in zip(f.coeffs_at(lam), factors)])


def binv_derivative(g: HomPoly, phi: int, b) -> HomPoly:
    """phi-th derivative in Y, scaled by inverse powers of b.

    The coefficient landing on Y^(i-phi) X^(s-i) is
    g_i(lambda) * b^(phi(1-i)+sigma(phi)) * beta_b(i, phi).
    """
    if phi < 0:
        raise ValueError("phi must be >= 0")
    if phi == 0:
        return g
    s = g.degree
    if phi > s:
        return ZERO
    b = Fraction(b)
    sp = sigma(phi)
    factors = [bpow(b, phi * (1 - i) + sp) * beta(i, phi, b) for i in range(phi, s + 1)]
    return HomPoly(s - phi, lambda lam: [v * w for v, w in zip(g.coeffs_at(lam)[phi:], factors)])


def evaluate(f: HomPoly, x, y, lam: int) -> Fraction:
    """Value sum_u f_u(lam) y^u x^(degree-u)."""
    x = Fraction(x)
    y = Fraction(y)
    total = _ZERO
    for u, cu in enumerate(f.coeffs_at(lam)):
        if cu:
            total += cu * y ** u * x ** (f.degree - u)
    return total
