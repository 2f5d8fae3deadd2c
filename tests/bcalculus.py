"""The paper's b-calculus over the library's HomPoly: the test reference.

Powers and sums in the b-algebra, the closed forms of the powers of
X + (c b^lambda - 1)Y and X - Y, the derivatives in X and Y, and evaluation
at a point.  The moment identities are derived from these; the library
computes them as integer sums (macwilliams.moment_b, moment_binv), and the
tests compare the two.  Each operation builds rows from its operands' rows,
as balgebra's do.
"""
from __future__ import annotations

from fractions import Fraction

from krawtchouk.balgebra import ConstPoly, HomPoly, b_product
from krawtchouk.bnary import beta, bpow, gauss, sigma

_ZERO = Fraction(0)


def constant(value) -> ConstPoly:
    return ConstPoly((value,))


ONE = constant(1)
ZERO = constant(0)
X = ConstPoly((1, 0))
Y = ConstPoly((0, 1))


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
