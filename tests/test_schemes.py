"""Scheme catalog: parameters, weight counts, enumerators, recurrences."""
from fractions import Fraction

import pytest

from krawtchouk.eigenvalues import c_poly
from krawtchouk.schemes import (
    hermitian_recurrence_equiv,
    make_scheme,
    omega_enumerator,
    scheme_from_json,
    scheme_to_json,
    xi,
    xi_vector,
)

from conftest import desk_schemes


def test_make_scheme_table_rows():
    h = make_scheme("hamming", 2, n=7)
    assert (h.b, h.c, h.n, h.space_size) == (1, 2, 7, 128)

    s = make_scheme("skew", 2, t=4)
    assert (s.b, s.c, s.n, s.space_size) == (4, Fraction(1, 2), 2, 64)

    s5 = make_scheme("skew", 2, t=5)
    assert (s5.b, s5.c, s5.n, s5.space_size) == (4, 2, 2, 1024)

    he = make_scheme("hermitian", 2, t=3)
    assert (he.b, he.c, he.n, he.space_size) == (-2, -1, 3, 512)
    assert he.cbn() == 8

    bi = make_scheme("bilinear", 3, m=3, n=2)
    assert (bi.b, bi.c, bi.n, bi.space_size) == (3, 3, 2, 729)


def test_space_size_is_cbn_power():
    for params in desk_schemes():
        assert params.cbn() ** params.n == params.space_size


def test_make_scheme_rejections():
    with pytest.raises(ValueError):
        make_scheme("bilinear", 2, m=1, n=2)
    with pytest.raises(ValueError):
        make_scheme("gabidulin", 2, m=2, n=3)
    with pytest.raises(ValueError):
        make_scheme("hamming", 1, n=3)
    with pytest.raises(ValueError):
        make_scheme("hamming", 2)
    with pytest.raises(ValueError):
        make_scheme("skew", 2, t=1)
    with pytest.raises(ValueError):
        make_scheme("cyclic", 2, n=3)
    # the algebraic core accepts non-prime-power q
    assert make_scheme("hamming", 6, n=2).space_size == 36


def test_make_scheme_rejects_bools():
    # bool is an int subclass; True must not pass for n = 1 or q = 1
    with pytest.raises(ValueError):
        make_scheme("hamming", 2, n=True)
    with pytest.raises(ValueError):
        make_scheme("hamming", True, n=3)
    with pytest.raises(ValueError):
        make_scheme("bilinear", 2, m=2, n=True)
    with pytest.raises(ValueError):
        make_scheme("skew", 2, t=True)
    with pytest.raises(ValueError):
        scheme_from_json({"kind": "hamming", "q": 2, "n": True})


def test_xi_examples():
    assert xi_vector(make_scheme("hamming", 2, n=3)) == [1, 3, 3, 1]
    assert xi_vector(make_scheme("skew", 2, t=4)) == [1, 35, 28]
    assert xi_vector(make_scheme("hermitian", 2, t=2)) == [1, 5, 10]
    with pytest.raises(ValueError):
        xi(make_scheme("hamming", 2, n=3), 4)


def test_xi_partitions_space_and_matches_valencies():
    for params in desk_schemes():
        vec = xi_vector(params)
        assert sum(vec) == params.space_size
        assert all(v > 0 for v in vec)
        for w, count in enumerate(vec):
            assert c_poly(w, 0, params) == count


def test_omega_enumerator():
    one_bit = omega_enumerator(make_scheme("hamming", 2, n=1))
    assert one_bit.coeffs == (1, 1)

    bi = omega_enumerator(make_scheme("bilinear", 2, m=2, n=2))
    assert bi.coeffs == (1, 9, 6)

    for params in desk_schemes():
        assert sum(omega_enumerator(params).coeffs) == params.space_size


def test_hermitian_recurrence_equivalence():
    assert hermitian_recurrence_equiv(2, 5) == []
    assert hermitian_recurrence_equiv(3, 4) == []
    with pytest.raises(ValueError):
        hermitian_recurrence_equiv(2, 1)


def test_scheme_json_round_trip():
    for params in desk_schemes():
        assert scheme_from_json(scheme_to_json(params)) == params


def test_scheme_json_rejections():
    with pytest.raises(ValueError):
        scheme_from_json({"kind": "hamming"})
    with pytest.raises(ValueError):
        scheme_from_json({"kind": "hamming", "q": 2, "t": 3})
    with pytest.raises(ValueError):
        scheme_from_json({"kind": "bilinear", "q": 2, "m": 2, "n": 2, "extra": 1})
    with pytest.raises(ValueError):
        scheme_from_json([1, 2])
