"""Shared helpers for the test suite.

Randomised identity checks use seeded random.Random instances so every run
exercises the same instances; all comparisons are exact.
"""
from __future__ import annotations

import contextlib
import random
import signal

import pytest

from krawtchouk.balgebra import ConstPoly
from krawtchouk.schemes import make_scheme

BASES = (-3, -2, 2, 3)


def rand_const_poly(rng: random.Random, degree: int, lo: int = -4, hi: int = 4) -> ConstPoly:
    return ConstPoly([rng.randint(lo, hi) for _ in range(degree + 1)])


def polys_equal(f, g, lams=range(-2, 7)) -> bool:
    """Coefficientwise equality at a window of parameter values."""
    if f.degree != g.degree:
        return False
    return all(f.coeffs_at(lam) == g.coeffs_at(lam) for lam in lams)


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
