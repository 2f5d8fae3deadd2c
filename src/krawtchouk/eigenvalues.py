"""b-Krawtchouk eigenvalue polynomials and scheme eigenmatrices.

Two closed forms are implemented for the eigenvalues of a Krawtchouk
association scheme: the b-Krawtchouk sum C_k(x, n) and Delsarte's
generalised Krawtchouk sum P_k(x, n).  They are equal as functions but
their individual terms cancel differently, so they serve as independent
references.  The eigenmatrix uses neither: it is built in integers from the
valencies by the defining recurrence and checked against P P = |X| I.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction

from .bnary import as_int, bpow, gamma, gamma_rows, gauss, gauss_rows, is_int, sigma


@dataclass(frozen=True)
class SchemeParams:
    """Parameters (b, c, n, |X|) of one concrete Krawtchouk association scheme.

    kind is one of "hamming", "bilinear", "gabidulin", "skew", "hermitian";
    dims holds the kind-specific raw integers ((n,), (m, n) or (t,)).
    """

    kind: str
    q: int
    dims: tuple
    b: Fraction
    c: Fraction
    n: int
    space_size: int

    def cbn(self) -> Fraction:
        """The recurring quantity c * b^n."""
        return self.c * bpow(self.b, self.n)


def c_value(k: int, x: int, n: int, b, c) -> Fraction:
    """b-Krawtchouk polynomial C_k(x, n) for raw parameters b, c."""
    b = Fraction(b)
    c = Fraction(c)
    total = Fraction(0)
    for j in range(k + 1):
        term = (
            bpow(b, j * (n - x) + sigma(j))
            * gauss(x, j, b)
            * gauss(n - x, k - j, b)
            * gamma(n - j, k - j, b, c)
        )
        total += -term if j % 2 else term
    return total


def delsarte_value(k: int, x: int, n: int, b, c) -> Fraction:
    """Delsarte's generalised Krawtchouk polynomial P_k(x, n)."""
    b = Fraction(b)
    cbn = Fraction(c) * bpow(b, n)
    total = Fraction(0)
    for j in range(k + 1):
        term = (
            cbn ** j
            * bpow(b, sigma(k - j))
            * gauss(n - j, n - k, b)
            * gauss(n - x, j, b)
        )
        total += -term if (k - j) % 2 else term
    return total


def _check_range(k: int, x: int, n: int) -> None:
    if not (is_int(k) and is_int(x)):
        raise ValueError(f"k and x must be integers, got k={k!r}, x={x!r}")
    if not (0 <= k <= n and 0 <= x <= n):
        raise ValueError(f"require 0 <= k, x <= n, got k={k}, x={x}, n={n}")


def c_poly(k: int, x: int, params: SchemeParams) -> Fraction:
    """Scheme eigenvalue C_k(x, n) at the scheme's (b, c, n)."""
    _check_range(k, x, params.n)
    return c_value(k, x, params.n, params.b, params.c)


def delsarte_p(k: int, x: int, params: SchemeParams) -> Fraction:
    """Scheme eigenvalue in Delsarte's form at the scheme's (b, c, n)."""
    _check_range(k, x, params.n)
    return delsarte_value(k, x, params.n, params.b, params.c)


@dataclass(frozen=True)
class Eigenmatrix:
    """Integer eigenmatrix P with entries[i][k] = P_k(i, n); here P = Q."""

    entries: tuple
    params: SchemeParams


def eigenmatrix(params: SchemeParams) -> Eigenmatrix:
    """Build the (n+1) x (n+1) eigenmatrix by the defining recurrence.

    Row x is the valency row of the scheme with n - x classes, carried up
    x times by C_{k+1}(x+1, n+1) = b^{k+1} C_{k+1}(x, n) - b^k C_k(x, n).
    The result must satisfy P P = |X| I; a failure signals an arithmetic
    bug rather than bad input, hence ArithmeticError.  Matrices are
    immutable and cached per parameter set.
    """
    return _eigenmatrix_cached(params)


@functools.lru_cache(maxsize=16)  # bounded: one process may see many schemes
def _eigenmatrix_cached(params: SchemeParams) -> Eigenmatrix:
    n, b = params.n, as_int(params.b)
    gauss_m, gamma_m = gauss_rows(n, b), gamma_rows(n, b, params.c)
    rows = []
    for x in range(n + 1):
        m = n - x
        row = [g * h for g, h in zip(gauss_m[m], gamma_m[m])]
        for _ in range(x):
            row.append(0)  # C_k(x, m) = 0 for k > m
            row = row[:1] + [
                b ** k * row[k] - b ** (k - 1) * row[k - 1] for k in range(1, len(row))
            ]
        rows.append(tuple(row))
    size = params.space_size
    cols = list(zip(*rows))
    for i, row in enumerate(rows):
        for j, col in enumerate(cols):
            if sum(u * v for u, v in zip(row, col)) != (size if i == j else 0):
                raise ArithmeticError(f"eigenmatrix fails P·P = |X|·I at ({i}, {j})")
    return Eigenmatrix(entries=tuple(rows), params=params)


def check_recurrence(params: SchemeParams, max_n: int) -> list:
    """Exhaustively check the defining recurrence with the scheme's (b, c).

    Verifies C_{k+1}(x+1, n+1) = b^{k+1} C_{k+1}(x, n) - b^k C_k(x, n) for
    all 0 <= x, k <= n < max_n.  Returns the list of violations (expected
    empty), each as a (n, x, k, lhs, rhs) tuple.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    b, c = params.b, params.c
    violations = []
    for n in range(max_n):
        for x in range(n + 1):
            for k in range(n + 1):
                lhs = c_value(k + 1, x + 1, n + 1, b, c)
                rhs = bpow(b, k + 1) * c_value(k + 1, x, n, b, c) - bpow(
                    b, k
                ) * c_value(k, x, n, b, c)
                if lhs != rhs:
                    violations.append((n, x, k, lhs, rhs))
    return violations
