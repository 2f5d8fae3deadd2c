"""MacWilliams transform of weight distributions, moments, maximal codes.

The transform is computed along two independent routes: multiplication by
the exact integer eigenmatrix, and expansion of the weight enumerator in the
polynomial algebra.  Integrality of the output is enforced, not rounded; a
non-integer or negative dual count means the input distribution is not the
weight distribution of a linear code in the scheme.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .balgebra import b_product, mu_family, nu_family
from .bnary import bpow, gamma, gauss, is_int, sigma
from .eigenvalues import SchemeParams, eigenmatrix


class UnrealizableDistribution(ValueError):
    """The transform produced a non-integer or negative dual count."""


@dataclass(frozen=True)
class TransformInput:
    """A weight distribution attached to a code size within one scheme."""

    dist: tuple
    code_size: int
    params: SchemeParams

    def __post_init__(self):
        n = self.params.n
        dist = tuple(self.dist)
        object.__setattr__(self, "dist", dist)
        if len(dist) != n + 1:
            raise ValueError(f"distribution must have {n + 1} entries")
        if not all(is_int(v) for v in dist):
            raise ValueError("distribution entries must be integers")
        if any(v < 0 for v in dist):
            raise ValueError("distribution entries must be nonnegative")
        if not is_int(self.code_size):
            raise ValueError(f"code size must be an integer, got {self.code_size!r}")
        if self.code_size < 1:
            raise ValueError("code size must be positive")
        if sum(dist) != self.code_size:
            raise ValueError(
                f"distribution sums to {sum(dist)}, expected |C| = {self.code_size}"
            )
        if self.params.space_size % self.code_size:
            raise ValueError("code size must divide the space size")

    def dual_size(self) -> int:
        return self.params.space_size // self.code_size


def _as_counts(values) -> list:
    out = []
    for k, v in enumerate(values):
        v = Fraction(v)
        if v.denominator != 1 or v < 0:
            raise UnrealizableDistribution(
                f"dual count at weight {k} is {v}; input is not the weight "
                "distribution of a linear code in this scheme"
            )
        out.append(v.numerator)
    return out


def transform_eigen(tin: TransformInput) -> list:
    """Dual distribution via the eigenmatrix: c' = (1/|C|) c P."""
    p = eigenmatrix(tin.params).entries
    n = tin.params.n
    raw = [
        Fraction(sum(tin.dist[i] * p[i][k] for i in range(n + 1)), tin.code_size)
        for k in range(n + 1)
    ]
    return _as_counts(raw)


def transform_functional(tin: TransformInput) -> list:
    """Dual distribution via the polynomial algebra.

    Expands (1/|C|) sum_i c_i (X-Y)^[i] * (X + (c b^n - 1)Y)^[n-i] with the
    parameter set to the class count and reads off the coefficients.
    """
    params = tin.params
    b, c, n = params.b, params.c, params.n
    acc = [Fraction(0)] * (n + 1)
    for i, ci in enumerate(tin.dist):
        if ci == 0:
            continue
        prod = b_product(nu_family(i, b), mu_family(n - i, b, c), b)
        for k in range(n + 1):
            acc[k] += ci * prod.coeff(k, n)
    return _as_counts(v / tin.code_size for v in acc)


def moment_b(tin: TransformInput, phi: int) -> tuple:
    """Both sides of the X-derivative moment identity at order phi.

    lhs = sum_{i<=n-phi} [n-i, phi] c_i
    rhs = (c b^n)^(n-phi)/|C'| * sum_{i<=phi} [n-i, n-phi] c'_i
    """
    params = tin.params
    n, b = params.n, params.b
    if not 0 <= phi <= n:
        raise ValueError(f"phi must lie in 0..{n}")
    dual = transform_eigen(tin)
    lhs = sum(
        (gauss(n - i, phi, b) * tin.dist[i] for i in range(n - phi + 1)),
        Fraction(0),
    )
    tail = sum(
        (gauss(n - i, n - phi, b) * dual[i] for i in range(phi + 1)), Fraction(0)
    )
    rhs = params.cbn() ** (n - phi) * tail / tin.dual_size()
    return lhs, rhs


def moment_binv(tin: TransformInput, phi: int) -> tuple:
    """Both sides of the Y-derivative moment identity at order phi.

    lhs = sum_{i>=phi} b^(phi(n-i)) [i, phi] c_i
    rhs = (c b^n)^(n-phi)/|C'| *
          sum_{i<=phi} (-1)^i b^(sigma(i)+i(phi-i)) [n-i, n-phi] gamma(n-i, phi-i) c'_i
    """
    params = tin.params
    n, b, c = params.n, params.b, params.c
    if not 0 <= phi <= n:
        raise ValueError(f"phi must lie in 0..{n}")
    dual = transform_eigen(tin)
    lhs = sum(
        (
            bpow(b, phi * (n - i)) * gauss(i, phi, b) * tin.dist[i]
            for i in range(phi, n + 1)
        ),
        Fraction(0),
    )
    tail = Fraction(0)
    for i in range(phi + 1):
        term = (
            bpow(b, sigma(i) + i * (phi - i))
            * gauss(n - i, n - phi, b)
            * gamma(n - i, phi - i, b, c)
            * dual[i]
        )
        tail += -term if i % 2 else term
    rhs = params.cbn() ** (n - phi) * tail / tin.dual_size()
    return lhs, rhs


def maximal_distribution(params: SchemeParams, d_s: int, code_size: int) -> list:
    """Weight distribution of a maximal code with minimum distance d_s.

    Maximality means d + d' = n + 2; under that assumption the distribution
    is forced:  c_0 = 1, zeros below d_s, and for 0 <= w <= n - d_s

        c_{d_s+w} = sum_i (-1)^(w-i) b^sigma(w-i) [d_s+w, d_s+i] [n, d_s+w]
                    ((c b^n)^(d_s+i) / |C'| - 1).

    Parameters yielding negative or fractional counts are rejected: either
    no maximal code exists with them, or the inputs are inconsistent.
    """
    n, b = params.n, params.b
    if not 1 <= d_s <= n + 1:
        raise ValueError(f"d_s must lie in 1..{n + 1}")
    if code_size < 1 or params.space_size % code_size:
        raise ValueError("code size must divide the space size")
    dual_size = params.space_size // code_size
    cbn = params.cbn()

    counts = [Fraction(0)] * (n + 1)
    counts[0] = Fraction(1)
    for w in range(n - d_s + 1):
        total = Fraction(0)
        for i in range(w + 1):
            term = (
                bpow(b, sigma(w - i))
                * gauss(d_s + w, d_s + i, b)
                * gauss(n, d_s + w, b)
                * (cbn ** (d_s + i) / dual_size - 1)
            )
            total += -term if (w - i) % 2 else term
        counts[d_s + w] = total
    try:
        out = _as_counts(counts)
    except UnrealizableDistribution as exc:
        raise UnrealizableDistribution(
            f"no maximal code with d_s={d_s}, |C|={code_size} in this scheme: {exc}"
        ) from None
    if sum(out) != code_size:
        raise UnrealizableDistribution(
            f"maximal-code counts sum to {sum(out)}, expected {code_size}"
        )
    return out


def forward_triangular(y, b) -> list:
    """x_j = sum_{i<=j} [l-i choose l-j] y_i for l = len(y) - 1."""
    y = [Fraction(v) for v in y]
    ell = len(y) - 1
    return [
        sum((gauss(ell - i, ell - j, b) * y[i] for i in range(j + 1)), Fraction(0))
        for j in range(ell + 1)
    ]


def invert_triangular(x, b) -> list:
    """Inverse of forward_triangular:

    y_i = sum_{j<=i} (-1)^(i-j) b^sigma(i-j) [l-j choose l-i] x_j.
    """
    x = [Fraction(v) for v in x]
    b = Fraction(b)
    ell = len(x) - 1
    out = []
    for i in range(ell + 1):
        total = Fraction(0)
        for j in range(i + 1):
            term = bpow(b, sigma(i - j)) * gauss(ell - j, ell - i, b) * x[j]
            total += -term if (i - j) % 2 else term
        out.append(total)
    return out
