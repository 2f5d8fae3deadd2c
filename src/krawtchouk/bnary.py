"""Exact b-nary combinatorics: Gaussian coefficients, beta and gamma products.

Everything here is evaluated at a concrete rational base b (and constant c),
never symbolically.  All arithmetic is exact rational arithmetic; floats are
never introduced.  The base b = 1 is a special branch wherever the generic
product would divide by zero: Gaussian coefficients degenerate to binomial
coefficients and the beta product to the falling factorial.
"""
from __future__ import annotations

import math
from fractions import Fraction


def sigma(i: int) -> int:
    """Triangular number i(i-1)/2, defined for i >= 0."""
    if i < 0:
        raise ValueError(f"sigma requires i >= 0, got {i}")
    return i * (i - 1) // 2


def bpow(b, e: int) -> Fraction:
    """Exact integer power of a nonzero rational; negative exponents allowed."""
    b = Fraction(b)
    if b == 0 and e < 0:
        raise ZeroDivisionError("0 cannot be raised to a negative power")
    return b ** e


def gauss(x: int, k: int, b) -> Fraction:
    """b-nary Gaussian coefficient: prod_{i<k} (b^x - b^i)/(b^k - b^i).

    Returns 1 for k = 0 (empty product) and 0 for k > x.  At b = 1 this is
    the ordinary binomial coefficient (the limit of the product).
    """
    if x < 0 or k < 0:
        raise ValueError(f"gauss requires x, k >= 0, got x={x}, k={k}")
    b = Fraction(b)
    if b == 0:
        raise ValueError("gauss requires b != 0")
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
    if k < 0:
        raise ValueError(f"beta requires k >= 0, got {k}")
    b = Fraction(b)
    if b == 0:
        raise ValueError("beta requires b != 0")
    total = Fraction(1)
    for i in range(k):
        if b == 1:
            total *= x - i
        else:
            total *= (bpow(b, x - i) - 1) / (b - 1)
    return total


def gamma(x: int, k: int, b, c) -> Fraction:
    """b-nary gamma product: prod_{i<k} (c*b^x - b^i), 1 for k = 0."""
    if k < 0:
        raise ValueError(f"gamma requires k >= 0, got {k}")
    b = Fraction(b)
    c = Fraction(c)
    if b == 0:
        raise ValueError("gamma requires b != 0")
    cbx = c * bpow(b, x)
    total = Fraction(1)
    for i in range(k):
        total *= cbx - b ** i
    return total


def as_int(v) -> int:
    """Convert an exact rational known to be integral; raises otherwise."""
    f = Fraction(v)
    if f.denominator != 1:
        raise ValueError(f"expected an integer value, got {f}")
    return f.numerator


def is_int(v) -> bool:
    """True for an int that is not a bool, the only accepted integer input."""
    return isinstance(v, int) and not isinstance(v, bool)
