"""Shared helpers for the test suite.

Randomised identity checks use seeded random.Random instances so every run
exercises the same instances; all comparisons are exact.  The b-algebra
and triangular-inversion helpers below are references that only tests use,
so they live here rather than in the library.
"""
from __future__ import annotations

import contextlib
import random
import signal

from fractions import Fraction

import pytest

from krawtchouk.balgebra import ConstPoly, HomPoly
from krawtchouk.bnary import bpow, gamma, gauss, sigma
from krawtchouk.schemes import make_scheme

BASES = (-3, -2, 2, 3)


def rand_const_poly(rng: random.Random, degree: int, lo: int = -4, hi: int = 4) -> ConstPoly:
    return ConstPoly([rng.randint(lo, hi) for _ in range(degree + 1)])


def polys_equal(f, g, lams=range(-2, 7)) -> bool:
    """Coefficientwise equality at a window of parameter values."""
    if f.degree != g.degree:
        return False
    return all(f.coeffs_at(lam) == g.coeffs_at(lam) for lam in lams)


def shift_param(a: HomPoly, d: int) -> HomPoly:
    """The polynomial lambda -> a(X, Y; lambda + d)."""
    return HomPoly(a.degree, lambda lam: a.coeffs_at(lam + d))


# The two sums below feed the parameter-shifted moment computations; each is
# checked against its closed form.

def delta_sum(lam: int, phi: int, j: int, b, c) -> Fraction:
    """sum_i (-1)^i [j choose i]_b b^sigma(i) gamma(lam - i, phi)."""
    b = Fraction(b)
    total = Fraction(0)
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
    total = Fraction(0)
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


def forward_triangular(y, b) -> list:
    """x_j = sum_{i<=j} [l-i choose l-j] y_i for l = len(y) - 1.

    invert_triangular is its inverse.
    """
    y = [Fraction(v) for v in y]
    ell = len(y) - 1
    return [
        sum((gauss(ell - i, ell - j, b) * y[i] for i in range(j + 1)), Fraction(0))
        for j in range(ell + 1)
    ]


def invert_triangular(x, b) -> list:
    """Inverse of the map x_j = sum_{i<=j} [l-i choose l-j] y_i, l = len(x) - 1:

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


def desk_schemes(max_n: int = 4):
    """One small scheme per (kind, q) pair, for structural sweeps."""
    out = []
    for q in (2, 3):
        out.append(make_scheme("hamming", q, n=min(max_n, 4)))
        out.append(make_scheme("bilinear", q, m=2, n=2))
        out.append(make_scheme("bilinear", q, m=3, n=2))
        out.append(make_scheme("gabidulin", q, m=2, n=2))
        out.append(make_scheme("skew", q, t=4))
        out.append(make_scheme("skew", q, t=5))
        out.append(make_scheme("hermitian", q, t=2))
        out.append(make_scheme("hermitian", q, t=3))
    return out


@contextlib.contextmanager
def within_seconds(limit: float):
    """Raise TimeoutError, instead of hanging, if the block runs too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {limit} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, limit)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng():
    return random.Random(20240817)
