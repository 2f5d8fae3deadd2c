"""Homogeneous bivariate polynomial algebra with a parameter-shifting product.

A HomPoly of degree r represents sum_u a_u(lambda) Y^u X^(r-u) where each
coefficient is a function of an integer parameter lambda.  The product below
convolves coefficients with the second factor taken at shifted parameter
lambda - i, which is why coefficients are kept as evaluable maps rather than
stored vectors: closed-form families supply shifted values for free, and
parameter-independent coefficient vectors satisfy the contract trivially.

Coefficient maps must be pure; evaluations are memoised per (u, lambda),
and because the maps are pure the memo writes are idempotent, so values
stay safe to evaluate from concurrent readers.

In production only schemes.omega_enumerator evaluates a HomPoly (mu_family
at lambda = n, as its cross-check).  macwilliams.transform_functional sums
the b-product at lambda = n directly in integers; the tests compare it with
b_product here and check the algebra's identities.
"""
from __future__ import annotations

from fractions import Fraction

from .bnary import beta, bpow, gamma, gauss, sigma

_ZERO = Fraction(0)


class HomPoly:
    """Immutable homogeneous polynomial with lambda-dependent coefficients."""

    __slots__ = ("degree", "_fn", "_cache")

    def __init__(self, degree: int, coeff_fn):
        if degree < 0:
            raise ValueError("degree must be >= 0")
        self.degree = degree
        self._fn = coeff_fn
        self._cache = {}

    def coeff(self, u: int, lam: int) -> Fraction:
        """Coefficient of Y^u X^(degree-u) at parameter lam; 0 out of range."""
        if u < 0 or u > self.degree:
            return _ZERO
        key = (u, lam)
        v = self._cache.get(key)
        if v is None:
            v = Fraction(self._fn(u, lam))
            self._cache[key] = v
        return v

    def coeffs_at(self, lam: int) -> tuple:
        """All coefficients (index 0..degree) evaluated at one parameter."""
        return tuple(self.coeff(u, lam) for u in range(self.degree + 1))


class ConstPoly(HomPoly):
    """HomPoly whose coefficients do not depend on the parameter."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(Fraction(v) for v in coeffs)
        if not coeffs:
            raise ValueError("need at least the degree-0 coefficient")
        self.coeffs = coeffs
        super().__init__(len(coeffs) - 1, lambda u, lam: coeffs[u])


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

    def fn(u, lam):
        lo = max(0, u - s)
        hi = min(u, a.degree)
        total = _ZERO
        for i in range(lo, hi + 1):
            ai = a.coeff(i, lam)
            if ai:
                total += bpow(b, i * s) * ai * g.coeff(u - i, lam - i)
        return total

    return HomPoly(a.degree + g.degree, fn)


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
    return HomPoly(degree, lambda u, lam: sum(p.coeff(u, lam) for p in polys))


def scale(a: HomPoly, value) -> HomPoly:
    value = Fraction(value)
    return HomPoly(a.degree, lambda u, lam: value * a.coeff(u, lam))


def shift_param(a: HomPoly, d: int) -> HomPoly:
    """The polynomial lambda -> a(X, Y; lambda + d)."""
    return HomPoly(a.degree, lambda u, lam: a.coeff(u, lam + d))


def mu_family(k: int, b, c) -> HomPoly:
    """Closed form of the k-th power of X + (c*b^lambda - 1)Y.

    Coefficient of Y^u X^(k-u) is [k choose u]_b * gamma_{b,c}(lambda, u).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    return HomPoly(k, lambda u, lam: gauss(k, u, b) * gamma(lam, u, b, c))


def mu_linear(b, c) -> HomPoly:
    """The degree-1 polynomial X + (c*b^lambda - 1)Y itself."""
    b = Fraction(b)
    c = Fraction(c)
    return HomPoly(1, lambda u, lam: Fraction(1) if u == 0 else c * bpow(b, lam) - 1)


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


def b_transform(a: ConstPoly, b) -> HomPoly:
    """sum_i a_i Y^[i] * X^[r-i] with monomial powers taken in the algebra."""
    r = a.degree
    parts = []
    for i, ai in enumerate(a.coeffs):
        term = b_product(b_power(Y, i, b), b_power(X, r - i, b), b)
        parts.append(scale(term, ai))
    return poly_sum(parts)


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
    return HomPoly(r - phi, lambda i, lam: f.coeff(i, lam) * beta(r - i, phi, b))


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

    def fn(j, lam):
        i = j + phi
        return g.coeff(i, lam) * bpow(b, phi * (1 - i) + sp) * beta(i, phi, b)

    return HomPoly(s - phi, fn)


def evaluate(f: HomPoly, x, y, lam: int) -> Fraction:
    """Value sum_u f_u(lam) y^u x^(degree-u)."""
    x = Fraction(x)
    y = Fraction(y)
    total = _ZERO
    for u in range(f.degree + 1):
        cu = f.coeff(u, lam)
        if cu:
            total += cu * y ** u * x ** (f.degree - u)
    return total


# The two sums below feed the parameter-shifted moment computations; they are
# exposed for identity testing, not as general API.

def delta_sum(lam: int, phi: int, j: int, b, c) -> Fraction:
    """sum_i (-1)^i [j choose i]_b b^sigma(i) gamma(lam - i, phi)."""
    b = Fraction(b)
    total = _ZERO
    for i in range(j + 1):
        term = gauss(j, i, b) * bpow(b, sigma(i)) * gamma(lam - i, phi, b, c)
        total += -term if i % 2 else term
    return total


def delta_closed(lam: int, phi: int, j: int, b, c) -> Fraction:
    """prod_{i<j}(b^phi - b^i) * gamma(lam-j, phi-j) * (c b^(lam-j))^j."""
    b = Fraction(b)
    c = Fraction(c)
    total = Fraction(1)
    for i in range(j):
        total *= bpow(b, phi) - b ** i
    return total * gamma(lam - j, phi - j, b, c) * (c * bpow(b, lam - j)) ** j


def epsilon_sum(big_lam: int, phi: int, i: int, b) -> Fraction:
    """sum_l [i,l][Lam-i,phi-l] b^(l(Lam-phi)) (-1)^l b^sigma(l) prod(b^(phi-l)-b^j)."""
    b = Fraction(b)
    total = _ZERO
    for ell in range(i + 1):
        prod = Fraction(1)
        for j in range(i - ell):
            prod *= bpow(b, phi - ell) - b ** j
        term = (
            gauss(i, ell, b)
            * gauss(big_lam - i, phi - ell, b)
            * bpow(b, ell * (big_lam - phi) + sigma(ell))
            * prod
        )
        total += -term if ell % 2 else term
    return total


def epsilon_closed(big_lam: int, phi: int, i: int, b) -> Fraction:
    """(-1)^i b^sigma(i) [Lam - i choose Lam - phi]_b."""
    b = Fraction(b)
    value = bpow(b, sigma(i)) * gauss(big_lam - i, big_lam - phi, b)
    return -value if i % 2 else value
