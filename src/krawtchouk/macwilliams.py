"""MacWilliams transform of weight distributions, moments, maximal codes.

The transform is computed along two independent routes: multiplication by
the exact integer eigenmatrix, and the paper's functional transform, the
b-product of (X-Y)^[i] and (X + (c b^lambda - 1)Y)^[n-i] evaluated at
lambda = n, summed in plain integers.  Integrality of the output is
enforced, not rounded; a non-integer or negative dual count means the input
distribution is not the weight distribution of a linear code in the scheme.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bnary import as_int, bpow, gamma, gauss, is_int, sigma
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


def _as_counts(values, size=1) -> list:
    """The exact quotients v / size as counts; else the input is unrealizable."""
    out = []
    for k, v in enumerate(values):
        count, rem = divmod(v, size)
        if rem or count < 0:
            raise UnrealizableDistribution(
                f"dual count at weight {k} is {Fraction(v, size)}; input is not "
                "the weight distribution of a linear code in this scheme"
            )
        out.append(count)
    return out


def transform_eigen(tin: TransformInput) -> list:
    """Dual distribution via the eigenmatrix: c' = (1/|C|) c P."""
    p = eigenmatrix(tin.params).entries
    n = tin.params.n
    raw = [sum(tin.dist[i] * p[i][k] for i in range(n + 1)) for k in range(n + 1)]
    return _as_counts(raw, tin.code_size)


def transform_functional(tin: TransformInput) -> list:
    """Dual distribution via the functional transform of the paper.

    The dual enumerator is the b-product sum
    (1/|C|) sum_i c_i (X-Y)^[i] * (X + (c b^lambda - 1)Y)^[n-i] at lambda = n.
    Expanding each product there gives, in integers,

        |C| c'_k = sum_i c_i sum_j (-1)^j b^(sigma(j) + j(n-i))
                   [i, j]_b [n-i, k-j]_b gamma(n-j, k-j).

    The Gaussian rows come from the q-Pascal rule
    [x, k] = [x-1, k-1] + b^k [x-1, k], valid for every base b here
    (1, q, q^2 and -q), and gamma(n-j, m) is the running product of
    c b^(n-j) - b^l for l < m, an integer whenever n - j >= 1.
    """
    params = tin.params
    n, b = params.n, as_int(params.b)
    rows = [[1]]
    for x in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([1] + [prev[k - 1] + b ** k * prev[k] for k in range(1, x + 1)])
    gammas = [[1]]  # gammas[m][u] = gamma(m, u) for u <= m; j = n reads gamma(0, 0)
    cbx = as_int(params.c * b)
    for m in range(1, n + 1):
        row = [1]
        for ell in range(m):
            row.append(row[-1] * (cbx - b ** ell))
        gammas.append(row)
        cbx *= b
    acc = [0] * (n + 1)
    for i, ci in enumerate(tin.dist):
        if ci == 0:
            continue
        left, right = rows[i], rows[n - i]
        for j in range(i + 1):
            coef = ci * b ** (sigma(j) + j * (n - i)) * left[j]
            if j % 2:
                coef = -coef
            gam = gammas[n - j]
            for k in range(j, j + n - i + 1):
                acc[k] += coef * right[k - j] * gam[k - j]
    return _as_counts(acc, tin.code_size)


def moment_b(tin: TransformInput, phi: int) -> tuple:
    """Both sides of the X-derivative moment identity at order phi.

    lhs = sum_{i<=n-phi} [n-i, phi] c_i
    rhs = (c b^n)^(n-phi)/|C'| * sum_{i<=phi} [n-i, n-phi] c'_i
    """
    params = tin.params
    n, b = params.n, params.b
    if not is_int(phi) or not 0 <= phi <= n:
        raise ValueError(f"phi must be an integer in 0..{n}, got {phi!r}")
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
    if not is_int(phi) or not 0 <= phi <= n:
        raise ValueError(f"phi must be an integer in 0..{n}, got {phi!r}")
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
    if not is_int(d_s) or not 1 <= d_s <= n + 1:
        raise ValueError(f"d_s must be an integer in 1..{n + 1}, got {d_s!r}")
    if not is_int(code_size):
        raise ValueError(f"code size must be an integer, got {code_size!r}")
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
