"""Exact b-nary combinatorics: Gaussian coefficients, beta and gamma products.

Everything here is evaluated at a concrete base b (and constant c), never
symbolically, and floats are never introduced.  gauss, beta, gamma and bpow
take b and c as an int or a Fraction (check_int and exact, the one argument
rule, reject a float, str or bool rather than convert it) and compute with
exact rationals; the base b = 1 is a special branch wherever the generic
product would divide by zero: Gaussian coefficients degenerate to binomial
coefficients and the beta product to the falling factorial.  gauss_rows and
gamma_rows build whole tables in plain integers for a nonzero int base, the
case of every scheme family; the rational functions are their references.
The library reads the tables through one bounded per-scheme cache,
eigenvalues.tables.
"""
from __future__ import annotations

import math
from fractions import Fraction


def sigma(i: int) -> int:
    """Triangular number i(i-1)/2, defined for i >= 0."""
    return check_int("i", i, 0) * (i - 1) // 2


def bpow(b, e: int) -> Fraction:
    """Exact integer power of a nonzero rational; negative exponents allowed."""
    b, e = exact("the base b", b), check_int("e", e)
    if b == 0 and e < 0:
        raise ZeroDivisionError("0 cannot be raised to a negative power")
    return b ** e


def _args(x: int, k: int, b, x_lo=None) -> Fraction:
    """Check gauss's, beta's and gamma's x (>= x_lo), k >= 0 and nonzero b; b as a Fraction."""
    check_int("x", x, x_lo)
    check_int("k", k, 0)
    if (b := exact("the base b", b)) == 0:
        raise ValueError("the base b must be nonzero")
    return b


def gauss(x: int, k: int, b) -> Fraction:
    """b-nary Gaussian coefficient: prod_{i<k} (b^x - b^i)/(b^k - b^i).

    Returns 1 for k = 0 (empty product) and 0 for k > x.  At b = 1 this is
    the ordinary binomial coefficient (the limit of the product).
    """
    b = _args(x, k, b, 0)
    if k == 0:
        return Fraction(1)
    if k > x:
        return Fraction(0)
    if b == 1:
        return Fraction(math.comb(x, k))
    num = Fraction(1)
    den = Fraction(1)
    for i in range(k):
        num *= b ** x - b ** i
        den *= b ** k - b ** i
    return num / den


def beta(x: int, k: int, b) -> Fraction:
    """b-nary beta product: prod_{i<k} [x-i choose 1]_b.

    Each factor is (b^(x-i) - 1)/(b - 1), which at b = 1 becomes x - i, so
    the whole product is the falling factorial there.  The argument x may be
    any integer; negative exponents are evaluated exactly.
    """
    b = _args(x, k, b)
    total = Fraction(1)
    for i in range(k):
        if b == 1:
            total *= x - i
        else:
            total *= (b ** (x - i) - 1) / (b - 1)
    return total


def gamma(x: int, k: int, b, c) -> Fraction:
    """b-nary gamma product: prod_{i<k} (c*b^x - b^i), 1 for k = 0."""
    b = _args(x, k, b)
    cbx = exact("the constant c", c) * b ** x
    total = Fraction(1)
    for i in range(k):
        total *= cbx - b ** i
    return total


def _check_table(n, b) -> None:
    """Reject a table size n that is not an int >= 0 and a base b that is not a nonzero int."""
    check_int("table size n", n, 0)
    if not is_int(b) or b == 0:
        raise ValueError(f"the base b must be a nonzero integer, got {b!r}")


def gauss_rows(n: int, b: int) -> list:
    """Integer table rows[x][k] = [x, k]_b for 0 <= k <= x <= n.

    Built by the q-Pascal rule [x, k] = [x-1, k-1] + b^k [x-1, k], a
    polynomial identity in b, so every nonzero int base works: b = 1
    gives Pascal's triangle, and negative bases need no special case.
    """
    _check_table(n, b)
    pows = [b ** k for k in range(n + 1)]
    rows = [[1]]
    for x in range(1, n + 1):
        prev = rows[-1] + [0]
        rows.append([1] + [prev[k - 1] + pows[k] * prev[k] for k in range(1, x + 1)])
    return rows


def gamma_rows(n: int, b: int, c) -> list:
    """Integer table rows[m][u] = gamma(m, u) for 0 <= u <= m <= n.

    Row m holds the running products of c b^m - b^l for l < u.  c b^m must
    be an integer for m >= 1 (ValueError otherwise); c itself need not be:
    skew schemes with even t have c = 1/q, and row 0 is the empty product 1
    without forming c b^0.
    """
    _check_table(n, b)
    exact("the constant c", c)
    pows = [b ** ell for ell in range(n)]
    rows = [[1]]
    cbm = as_int(c * b) if n else 0
    for m in range(1, n + 1):
        row = [1]
        for ell in range(m):
            row.append(row[-1] * (cbm - pows[ell]))
        rows.append(row)
        cbm *= b
    return rows


def as_int(v) -> int:
    """Convert an exact rational known to be integral; raises otherwise."""
    f = exact("value", v)
    if f.denominator != 1:
        raise ValueError(f"expected an integer value, got {f}")
    return f.numerator


def is_int(v) -> bool:
    """True for an int that is not a bool, the only accepted integer input."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_int(name: str, v, lo=None, hi=None) -> int:
    """v if it is an int (not a bool) in lo..hi, else ValueError naming it; hi needs lo."""
    if is_int(v) and (lo is None or lo <= v) and (hi is None or v <= hi):
        return v
    bound = "" if lo is None else f" >= {lo}" if hi is None else f" in {lo}..{hi}"
    raise ValueError(f"{name} must be an integer{bound}, got {v!r}")


def exact(name: str, v) -> Fraction:
    """Fraction(v) for an int (not a bool) or a Fraction, else ValueError naming it."""
    if is_int(v) or isinstance(v, Fraction):
        return Fraction(v)
    raise ValueError(f"{name} must be an int or Fraction, got {v!r}")
