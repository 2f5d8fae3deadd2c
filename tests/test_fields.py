"""Finite field tables and the linear algebra built on them."""
import itertools
import random

import pytest

from krawtchouk.fields import (
    GF,
    factor_prime_power,
    field,
    is_prime_power,
    matrix_rank,
    nullspace,
    row_reduce,
)


def subfield_elements(gf: GF, sub_order: int) -> list:
    """Elements fixed by a -> a^sub_order, i.e. the copy of GF(sub_order)."""
    return [a for a in range(gf.order) if gf.pow(a, sub_order) == a]


def test_prime_power_detection():
    assert factor_prime_power(8) == (2, 3)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(7) == (7, 1)
    assert factor_prime_power(12) is None
    assert not is_prime_power(1)
    assert is_prime_power(16)


def test_supported_orders_construct():
    for order in (2, 3, 4, 5, 7, 8, 9, 16):
        gf = field(order)
        assert gf.order == order
        # construction exhaustively checked the axioms; spot the identities
        assert gf.add(0, 5 % order) == 5 % order
        assert gf.mul(1, order - 1) == order - 1


def test_rejections():
    with pytest.raises(ValueError):
        GF(6)
    with pytest.raises(ValueError):
        GF(32)


def test_inverses_exact():
    for order in (4, 8, 9, 16):
        gf = field(order)
        for a in range(1, order):
            assert gf.mul(a, gf.inv(a)) == 1
        with pytest.raises(ZeroDivisionError):
            gf.inv(0)


def test_prime_field_is_plain_modular():
    gf = field(7)
    for a in range(7):
        for b in range(7):
            assert gf.add(a, b) == (a + b) % 7
            assert gf.mul(a, b) == (a * b) % 7


def test_frobenius_and_conjugation():
    f4 = field(4)
    # Frobenius fixes exactly the prime field
    assert [a for a in range(4) if f4.frobenius(a) == a] == [0, 1]
    # conjugation a -> a^2 is an involution on F_4
    for a in range(4):
        assert f4.conj(f4.conj(a, 2), 2) == a
    assert subfield_elements(f4, 2) == [0, 1]

    f9 = field(9)
    assert subfield_elements(f9, 3) == [0, 1, 2]


def test_abs_trace():
    f4 = field(4)
    traces = [f4.abs_trace(a) for a in range(4)]
    assert all(t in (0, 1) for t in traces)
    assert traces.count(0) == 2 and traces.count(1) == 2
    assert traces[0] == 0

    f8 = field(8)
    assert sorted({f8.abs_trace(a) for a in range(8)}) == [0, 1]


def test_pow_negative_exponent():
    f5 = field(5)
    assert f5.pow(2, -1) == 3
    assert f5.pow(2, 0) == 1


def test_row_reduce_and_rank():
    gf = field(2)
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert matrix_rank(rows, gf) == 2
    reduced, pivots = row_reduce(rows, gf)
    assert pivots == [0, 1]
    assert reduced == [[1, 0, 1], [0, 1, 1]]

    f3 = field(3)
    assert matrix_rank([[1, 2], [0, 1]], f3) == 2
    assert matrix_rank([[1, 2], [2, 1]], f3) == 1  # second row is twice the first


def test_nullspace():
    gf = field(2)
    rows = [[1, 1, 0], [0, 1, 1]]
    basis = nullspace(rows, gf, 3)
    assert basis == [(1, 1, 1)]
    # empty equation set: the whole space
    assert len(nullspace([], gf, 3)) == 3
    # full-rank square system: trivial kernel
    assert nullspace([[1, 0], [0, 1]], gf, 2) == []


def _reference_rank(rows, gf) -> int:
    return len(row_reduce(rows, gf)[0])


def test_xor_rank_matches_row_reduce_on_every_small_binary_matrix():
    gf = field(2)
    assert matrix_rank([], gf) == _reference_rank([], gf) == 0
    assert matrix_rank([[], []], gf) == _reference_rank([[], []], gf) == 0
    checked = 0
    for r in range(1, 4):
        for c in range(1, 5):
            for bits in itertools.product((0, 1), repeat=r * c):
                rows = [list(bits[i * c : (i + 1) * c]) for i in range(r)]
                assert matrix_rank(rows, gf) == _reference_rank(rows, gf), rows
                checked += 1
    assert checked == sum(2 ** (r * c) for r in range(1, 4) for c in range(1, 5))


def test_xor_rank_matches_row_reduce_on_random_binary_matrices():
    gf = field(2)
    rng = random.Random(2024)
    ranks = set()
    for _ in range(400):
        r, c = rng.randint(0, 9), rng.randint(1, 12)
        rows = [[rng.randrange(2) for _ in range(c)] for _ in range(r)]
        for _ in range(rng.randint(0, 2)):  # zero rows anywhere
            rows.insert(rng.randint(0, len(rows)), [0] * c)
        if rows and rng.random() < 0.3:  # a repeated row
            rows.append(list(rng.choice(rows)))
        rank = matrix_rank(rows, gf)
        assert rank == _reference_rank(rows, gf), rows
        ranks.add(rank)
    assert ranks == set(range(10))
