"""MacWilliams transform of weight distributions, moments, maximal codes.

The transform is computed along two independent routes: multiplication by
the exact integer eigenmatrix, and the paper's functional transform, the
b-product of (X-Y)^[i] and (X + (c b^lambda - 1)Y)^[n-i] evaluated at
lambda = n, summed in plain integers.  Integrality of the output is
enforced, not rounded; a non-integer or negative dual count means the input
distribution is not the weight distribution of a linear code in the scheme.
The moment identities and the maximal-code distribution are integer sums
too, over the Gaussian and gamma tables of bnary; the moment sides are
returned as Fractions.
"""
from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .bnary import as_int, bpow, gamma_rows, gauss, gauss_rows, is_int, sigma
from .eigenvalues import SchemeParams, eigenmatrix


class UnrealizableDistribution(ValueError):
    """The transform produced a non-integer or negative dual count."""


class TransformInput(Record):
    """A weight distribution attached to a code size within one scheme.

    dist is stored as a tuple of nonnegative ints summing to code_size, and
    code_size must divide |X|; anything else raises ValueError.
    """

    __slots__ = ("dist", "code_size", "params")

    def __init__(self, dist, code_size, params):
        n = params.n
        dist = tuple(dist)
        if len(dist) != n + 1:
            raise ValueError(f"distribution must have {n + 1} entries")
        if not all(is_int(v) for v in dist):
            raise ValueError("distribution entries must be integers")
        if any(v < 0 for v in dist):
            raise ValueError("distribution entries must be nonnegative")
        if not is_int(code_size):
            raise ValueError(f"code size must be an integer, got {code_size!r}")
        if code_size < 1:
            raise ValueError("code size must be positive")
        if sum(dist) != code_size:
            raise ValueError(f"distribution sums to {sum(dist)}, expected |C| = {code_size}")
        if params.space_size % code_size:
            raise ValueError("code size must divide the space size")
        self._fill(dist, code_size, params)

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

    The Gaussian rows and the gamma products come from the integer tables
    gauss_rows and gamma_rows; gamma(n-j, m) is an integer even for skew
    schemes with even t, where c = 1/q but c b^(n-j) is integral.
    """
    params = tin.params
    n, b = params.n, as_int(params.b)
    rows = gauss_rows(n, b)
    gammas = gamma_rows(n, b, params.c)
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

    Both sums are taken in integers over the gauss_rows table (c b^n is an
    integer in every family); the sides are returned as Fractions.
    """
    params = tin.params
    n = params.n
    if not is_int(phi) or not 0 <= phi <= n:
        raise ValueError(f"phi must be an integer in 0..{n}, got {phi!r}")
    dual = transform_eigen(tin)
    rows = gauss_rows(n, params.b)
    lhs = sum(rows[n - i][phi] * tin.dist[i] for i in range(n - phi + 1))
    tail = sum(rows[n - i][n - phi] * dual[i] for i in range(phi + 1))
    cbn = as_int(params.cbn())
    return Fraction(lhs), Fraction(cbn ** (n - phi) * tail, tin.dual_size())


def moment_binv(tin: TransformInput, phi: int) -> tuple:
    """Both sides of the Y-derivative moment identity at order phi.

    lhs = sum_{i>=phi} b^(phi(n-i)) [i, phi] c_i
    rhs = (c b^n)^(n-phi)/|C'| *
          sum_{i<=phi} (-1)^i b^(sigma(i)+i(phi-i)) [n-i, n-phi] gamma(n-i, phi-i) c'_i

    Both sums are taken in integers over the gauss_rows and gamma_rows
    tables; the sides are returned as Fractions.
    """
    params = tin.params
    n = params.n
    if not is_int(phi) or not 0 <= phi <= n:
        raise ValueError(f"phi must be an integer in 0..{n}, got {phi!r}")
    dual = transform_eigen(tin)
    b = as_int(params.b)
    rows = gauss_rows(n, b)
    gammas = gamma_rows(n, b, params.c)
    lhs = sum(
        b ** (phi * (n - i)) * rows[i][phi] * tin.dist[i] for i in range(phi, n + 1)
    )
    tail = 0
    for i in range(phi + 1):
        term = (
            b ** (sigma(i) + i * (phi - i))
            * rows[n - i][n - phi]
            * gammas[n - i][phi - i]
            * dual[i]
        )
        tail += -term if i % 2 else term
    cbn = as_int(params.cbn())
    return Fraction(lhs), Fraction(cbn ** (n - phi) * tail, tin.dual_size())


def maximal_distribution(params: SchemeParams, d_s: int, code_size: int) -> list:
    """Weight distribution of a maximal code with minimum distance d_s.

    Maximality means d + d' = n + 2; under that assumption the distribution
    is forced:  c_0 = 1, zeros below d_s, and for 0 <= w <= n - d_s

        c_{d_s+w} = sum_i (-1)^(w-i) b^sigma(w-i) [d_s+w, d_s+i] [n, d_s+w]
                    ((c b^n)^(d_s+i) / |C'| - 1).

    Each count is summed in integers as |C'| c_{d_s+w}, with
    (c b^n)^(d_s+i) - |C'| in the last factor, and then divided exactly.
    Parameters yielding negative or fractional counts are rejected: either
    no maximal code exists with them, or the inputs are inconsistent.
    """
    n = params.n
    if not is_int(d_s) or not 1 <= d_s <= n + 1:
        raise ValueError(f"d_s must be an integer in 1..{n + 1}, got {d_s!r}")
    if not is_int(code_size):
        raise ValueError(f"code size must be an integer, got {code_size!r}")
    if code_size < 1 or params.space_size % code_size:
        raise ValueError("code size must divide the space size")
    dual_size = params.space_size // code_size
    b = as_int(params.b)
    cbn = as_int(params.cbn())
    rows = gauss_rows(n, b)

    counts = [0] * (n + 1)
    counts[0] = dual_size
    for w in range(n - d_s + 1):
        total = 0
        for i in range(w + 1):
            term = (
                b ** sigma(w - i)
                * rows[d_s + w][d_s + i]
                * rows[n][d_s + w]
                * (cbn ** (d_s + i) - dual_size)
            )
            total += -term if (w - i) % 2 else term
        counts[d_s + w] = total
    try:
        out = _as_counts(counts, dual_size)
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
