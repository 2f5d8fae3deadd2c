"""b-Krawtchouk eigenvalue polynomials and scheme eigenmatrices.

Two closed forms are implemented for the eigenvalues of a Krawtchouk
association scheme: the b-Krawtchouk sum C_k(x, n) and Delsarte's
generalised Krawtchouk sum P_k(x, n).  They are equal as functions but
their individual terms cancel differently, so they serve as independent
references.  The eigenmatrix uses neither: it is built in integers from the
valencies by the defining recurrence and checked by O(n^2) invariants (row
sums, reciprocity); P P = |X| I is left to the tests.
The library's integer sums read each scheme's Gaussian and gamma tables
from tables(params).  check_recurrence and hermitian_recurrence_equiv hold
C_k(x, n) to the same recurrence step.
"""
from __future__ import annotations

import functools
from fractions import Fraction

from ._record import Record
from .bnary import bpow, gamma, gamma_rows, gauss, gauss_rows, is_int, sigma


class SchemeParams(Record):
    """Parameters (b, c, n, |X|) of one concrete Krawtchouk association scheme.

    kind is one of "hamming", "bilinear", "gabidulin", "skew", "hermitian";
    dims holds the kind-specific raw integers ((n,), (m, n) or (t,)); b is
    an int (1, q, q^2 or -q), c a Fraction, and q, n and space_size ints.
    """

    __slots__ = ("kind", "q", "dims", "b", "c", "n", "space_size")

    def __init__(self, kind, q, dims, b, c, n, space_size):
        self._fill(kind, q, dims, b, c, n, space_size)

    def cbn(self) -> Fraction:
        """The recurring quantity c * b^n, a Fraction."""
        return self.c * self.b ** self.n


def c_value(k: int, x: int, n: int, b, c) -> Fraction:
    """b-Krawtchouk polynomial C_k(x, n) for raw parameters b, c."""
    b = Fraction(b)
    c = Fraction(c)
    total = Fraction(0)
    for j in range(k + 1):
        term = (
            bpow(b, j * (n - x) + sigma(j))
            * _gauss(x, j, b)
            * _gauss(n - x, k - j, b)
            * _gamma(n - j, k - j, b, c)
        )
        total += -term if j % 2 else term
    return total


# A table of C_k(x, n) (_c_table) asks c_value for each Gaussian and gamma
# many times over; these bounded caches evaluate each of them once.
@functools.lru_cache(maxsize=1024)
def _gauss(x: int, k: int, b: Fraction) -> Fraction:
    return gauss(x, k, b)


@functools.lru_cache(maxsize=1024)
def _gamma(x: int, k: int, b: Fraction, c: Fraction) -> Fraction:
    return gamma(x, k, b, c)


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


def eigenmatrix(params: SchemeParams) -> tuple:
    """The (n+1) x (n+1) eigenmatrix as a tuple of rows, row i = (P_k(i, n))_k.

    Row x is the valency row of the scheme with n - x classes, carried up
    x times by C_{k+1}(x+1, n+1) = b^{k+1} C_{k+1}(x, n) - b^k C_k(x, n).
    The result is checked by O(n^2) invariants (row sums, reciprocity) that
    every eigenmatrix with P P = |X| I satisfies (here P = Q); a failure
    signals an arithmetic bug rather than bad input, hence ArithmeticError.
    Matrices are immutable and cached per parameter set.
    """
    return _eigenmatrix_cached(params)


@functools.lru_cache(maxsize=16)  # bounded, like the eigenmatrix cache
def tables(params: SchemeParams) -> tuple:
    """The integer tables ([x, k]_b, gamma(m, u)) for x, m <= n, built once per scheme.

    Every caller shares them, so they are tuples of tuples, read and never changed.
    """
    n, b = params.n, params.b
    return tuple(map(tuple, gauss_rows(n, b))), tuple(map(tuple, gamma_rows(n, b, params.c)))


def _step(row: list, b) -> list:
    """C_.(x, n) -> C_.(x+1, n+1) by the defining recurrence; row[k] = C_k(x, n)."""
    return row[:1] + [b ** k * row[k] - b ** (k - 1) * row[k - 1] for k in range(1, len(row))]


def _check_invariants(rows, params: SchemeParams) -> None:
    """Exact O(n^2) facts of an eigenmatrix with P P = |X| I; ArithmeticError if one fails.

    Column 0 is all ones; row x sums to |X| at x = 0 and to 0 otherwise (the
    eigenvalues of the all-ones matrix); and with xi = row 0, reciprocity
    xi_x P_k(x) = xi_k P_x(k) holds, since P = Q and v = m = xi (Delsarte
    1973).  Row 0 and xi_vector read the same table, so the x = 0 row sum is
    what holds the valencies to |X|.
    """

    def fail(fault):
        raise ArithmeticError(f"eigenmatrix fails P·P = |X|·I: {fault}")

    xi = rows[0]
    for x, row in enumerate(rows):
        if row[0] != 1:
            fail(f"column 0 is not 1 in row {x}")
        if sum(row) != (params.space_size if x == 0 else 0):
            fail(f"row {x} has the wrong sum")
        for k in range(x):
            if xi[x] * row[k] != xi[k] * rows[k][x]:
                fail(f"reciprocity at ({x}, {k})")


@functools.lru_cache(maxsize=16)  # bounded: one process may see many schemes
def _eigenmatrix_cached(params: SchemeParams) -> tuple:
    n, b = params.n, params.b
    gauss_m, gamma_m = tables(params)
    rows = []
    for x in range(n + 1):
        m = n - x
        row = [g * h for g, h in zip(gauss_m[m], gamma_m[m])]
        for _ in range(x):
            row = _step(row + [0], b)  # C_k(x, m) = 0 for k > m
        rows.append(tuple(row))
    _check_invariants(rows, params)
    return tuple(rows)


def _c_table(max_n: int, b, c) -> list:
    """rows[n][x][k] = C_k(x, n) for x <= n <= max_n, k <= n + 1 (C_{n+1} evaluated, not 0)."""
    return [
        [[c_value(k, x, n, b, c) for k in range(n + 2)] for x in range(n + 1)]
        for n in range(max_n + 1)
    ]


def _recurrence_sides(rows: list, b):
    """(n, x, k, lhs, rhs) of the defining recurrence for 0 <= x, k <= n < len(rows) - 1."""
    for n in range(len(rows) - 1):
        for x in range(n + 1):
            stepped = _step(rows[n][x], b)
            for k in range(n + 1):
                yield n, x, k, rows[n + 1][x + 1][k + 1], stepped[k + 1]


def check_recurrence(params: SchemeParams, max_n: int) -> list:
    """Exhaustively check the defining recurrence with the scheme's (b, c).

    Verifies C_{k+1}(x+1, n+1) = b^{k+1} C_{k+1}(x, n) - b^k C_k(x, n) for
    all 0 <= x, k <= n < max_n, evaluating each C_k(x, n) once.  Returns the
    list of violations (expected empty), each as a (n, x, k, lhs, rhs) tuple.
    """
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    rows = _c_table(max_n, params.b, params.c)
    return [v for v in _recurrence_sides(rows, params.b) if v[3] != v[4]]


def hermitian_recurrence_equiv(q: int, t_max: int) -> list:
    """Check the two Hermitian recurrences agree exactly, value for value.

    For b = -q, c = -1 and all 0 <= x, k <= t < t_max this verifies both
        C_{k+1}(x+1, t+1) = C_{k+1}(x, t+1) + b^(2t+1-x) C_k(x, t)
        C_{k+1}(x+1, t+1) = b^(k+1) C_{k+1}(x, t) - b^k C_k(x, t)
    and that the two right-hand sides match term for term.  Returns the
    violation list (expected empty).
    """
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    b = Fraction(-q)
    rows = _c_table(t_max, b, Fraction(-1))
    violations = []
    for t, x, k, lhs, delsarte in _recurrence_sides(rows, b):
        schmidt = rows[t + 1][x][k + 1] + bpow(b, 2 * t + 1 - x) * rows[t][x][k]
        if not (lhs == schmidt == delsarte):
            violations.append((t, x, k, lhs, schmidt, delsarte))
    return violations
