"""MacWilliams transform of weight distributions, moments, maximal codes.

The transform is computed along two independent routes: multiplication by
the exact integer eigenmatrix, and the paper's functional transform, the
b-product of (X-Y)^[i] and (X + (c b^lambda - 1)Y)^[n-i] evaluated at
lambda = n, summed in plain integers.  Integrality of the output is
enforced, not rounded; a non-integer or negative dual count means the input
distribution is not the weight distribution of a linear code in the scheme.
The moment identities and the maximal-code distribution are integer sums
too, over the scheme's Gaussian and gamma tables (eigenvalues.tables); the
moment sides are returned as Fractions.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from ._record import Record
from .bnary import as_int, check_int, sigma
from .eigenvalues import SchemeParams, eigenmatrix, tables


class UnrealizableDistribution(ValueError):
    """No linear code in the scheme has the distribution: a dual count is
    not a nonnegative integer, or a maximal code fails its certificate."""


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
        for v in dist:
            check_int("a distribution entry", v, 0)
        _check_code_size(code_size, params.space_size)
        if sum(dist) != code_size:
            raise ValueError(f"distribution sums to {sum(dist)}, expected |C| = {code_size}")
        self._fill(dist, code_size, params)

    def dual_size(self) -> int:
        return self.params.space_size // self.code_size


def _check_code_size(code_size, space_size: int) -> None:
    """A code size is a positive int dividing |X|; ValueError otherwise."""
    if space_size % check_int("code size", code_size, 1):
        raise ValueError("code size must divide the space size")


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
    """Dual distribution via the eigenmatrix: c' = (1/|C|) c P, one pass per nonzero c_i."""
    acc = [0] * (tin.params.n + 1)
    for ci, row in zip(tin.dist, eigenmatrix(tin.params)):
        if ci:
            acc = [a + ci * v for a, v in zip(acc, row)]
    return _as_counts(acc, tin.code_size)


@functools.lru_cache(maxsize=1)  # one dual per moment pair, not a result cache
def _dual(tin: TransformInput) -> tuple:
    """transform_eigen(tin) as a tuple, shared by the moments of one input."""
    return tuple(transform_eigen(tin))


def transform_functional(tin: TransformInput) -> list:
    """Dual distribution via the functional transform of the paper.

    The dual enumerator is the b-product sum
    (1/|C|) sum_i c_i (X-Y)^[i] * (X + (c b^lambda - 1)Y)^[n-i] at lambda = n.
    Expanding each product there gives, in integers,

        |C| c'_k = sum_j sum_u gamma(n-j, u) inner_j[u],  k = j + u,
        inner_j[u] = sum_{i>=j} c_i (-1)^j b^(sigma(j) + j(n-i)) [i, j]_b [n-i, u]_b,

    so gamma multiplies each inner sum once.  j runs up to the largest i with
    c_i != 0.  The Gaussian rows and the gamma products come from the
    scheme's integer tables; gamma(n-j, u) is an integer even for skew
    schemes with even t, where c = 1/q but c b^(n-j) is integral.
    """
    params = tin.params
    n, b = params.n, params.b
    rows, gammas = tables(params)
    weights = [(i, ci) for i, ci in enumerate(tin.dist) if ci]
    acc = [0] * (n + 1)
    for j in range(weights[-1][0] + 1):
        inner = [0] * (n - j + 1)
        s = sigma(j)
        for i, ci in weights:
            if i < j:
                continue
            coef = ci * b ** (s + j * (n - i)) * rows[i][j]
            if j % 2:
                coef = -coef
            for u, g in enumerate(rows[n - i]):
                inner[u] += coef * g
        for k, (g, v) in enumerate(zip(gammas[n - j], inner), j):
            acc[k] += g * v
    return _as_counts(acc, tin.code_size)


def _moment_rhs(tin: TransformInput, phi: int):
    """Check phi; then tail -> (c b^n)^(n-phi) tail / |C'|, either moment's right-hand side.

    c b^n is an integer in every family.
    """
    n = tin.params.n
    check_int("phi", phi, 0, n)
    scale = as_int(tin.params.cbn()) ** (n - phi)
    return lambda tail: Fraction(scale * tail, tin.dual_size())


def moment_b(tin: TransformInput, phi: int) -> tuple:
    """Both sides of the X-derivative moment identity at order phi.

    lhs = sum_{i<=n-phi} [n-i, phi] c_i
    rhs = (c b^n)^(n-phi)/|C'| * sum_{i<=phi} [n-i, n-phi] c'_i

    Both sums are taken in integers over the Gaussian table; the sides are
    returned as Fractions.
    """
    rhs = _moment_rhs(tin, phi)
    n, dual, rows = tin.params.n, _dual(tin), tables(tin.params)[0]
    lhs = sum(rows[n - i][phi] * tin.dist[i] for i in range(n - phi + 1))
    tail = sum(rows[n - i][n - phi] * dual[i] for i in range(phi + 1))
    return Fraction(lhs), rhs(tail)


def moment_binv(tin: TransformInput, phi: int) -> tuple:
    """Both sides of the Y-derivative moment identity at order phi.

    lhs = sum_{i>=phi} b^(phi(n-i)) [i, phi] c_i
    rhs = (c b^n)^(n-phi)/|C'| *
          sum_{i<=phi} (-1)^i b^(sigma(i)+i(phi-i)) [n-i, n-phi] gamma(n-i, phi-i) c'_i

    Both sums are taken in integers over the Gaussian and gamma tables; the
    sides are returned as Fractions.
    """
    rhs = _moment_rhs(tin, phi)
    n, b, dual = tin.params.n, tin.params.b, _dual(tin)
    rows, gammas = tables(tin.params)
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
    return Fraction(lhs), rhs(tail)


def maximal_distribution(params: SchemeParams, d_s: int, code_size: int) -> list:
    """Weight distribution of a maximal code with minimum distance d_s.

    Maximality means d + d' = n + 2; under that assumption the distribution
    is forced:  c_0 = 1, zeros below d_s, and for 0 <= w <= n - d_s

        c_{d_s+w} = sum_i (-1)^(w-i) b^sigma(w-i) [d_s+w, d_s+i] [n, d_s+w]
                    ((c b^n)^(d_s+i) / |C'| - 1).

    Each count is summed in integers as |C'| c_{d_s+w}, with
    (c b^n)^(d_s+i) - |C'| in the last factor, and then divided exactly.
    The counts are returned only with a certificate that a code with them
    is maximal: they sum to |C|, c_{d_s} >= 1 (for d_s <= n), and their
    MacWilliams transform is a nonnegative integer vector that is 0 on
    weights 1..n+1-d_s, so d' = n + 2 - d_s.  Anything else raises
    UnrealizableDistribution: no maximal code has these parameters.
    """
    n = params.n
    check_int("d_s", d_s, 1, n + 1)
    _check_code_size(code_size, params.space_size)
    dual_size = params.space_size // code_size
    b = params.b
    cbn = as_int(params.cbn())
    rows = tables(params)[0]
    spows = [b ** sigma(j) for j in range(n - d_s + 1)]  # b^sigma(j), once per call, not per term

    counts = [0] * (n + 1)
    counts[0] = dual_size
    for w in range(n - d_s + 1):
        total = 0
        for i in range(w + 1):
            term = (
                spows[w - i]
                * rows[d_s + w][d_s + i]
                * rows[n][d_s + w]
                * (cbn ** (d_s + i) - dual_size)
            )
            total += -term if (w - i) % 2 else term
        counts[d_s + w] = total
    try:
        out = _as_counts(counts, dual_size)
        if sum(out) != code_size:
            raise UnrealizableDistribution(f"counts sum to {sum(out)}, expected {code_size}")
        if d_s <= n and not out[d_s]:
            raise UnrealizableDistribution(f"the count at weight {d_s} is 0")
        dual = transform_eigen(TransformInput(out, code_size, params))
        for k in range(1, n + 2 - d_s):
            if dual[k]:
                raise UnrealizableDistribution(
                    f"the dual has {dual[k]} words of weight {k}, below d' = {n + 2 - d_s}"
                )
    except UnrealizableDistribution as exc:
        raise UnrealizableDistribution(
            f"no maximal code with d_s={d_s}, |C|={code_size} in this scheme: {exc}"
        ) from None
    return out

