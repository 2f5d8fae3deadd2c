"""Scheme catalog: parameters, weight counts, enumerators, recurrences."""
from fractions import Fraction

import pytest

from krawtchouk.eigenvalues import c_poly, hermitian_recurrence_equiv
from krawtchouk.schemes import (
    FAMILIES,
    KINDS,
    MAX_CLASSES,
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


def test_b_is_an_int_and_cbn_a_fraction_in_every_family():
    for params in desk_schemes():
        assert type(params.b) is int, params
        assert type(params.cbn()) is Fraction, params


def test_family_table_covers_every_kind():
    assert tuple(FAMILIES) == KINDS == ("hamming", "bilinear", "gabidulin", "skew", "hermitian")


def test_space_size_is_cbn_power():
    for params in desk_schemes():
        assert params.cbn() ** params.n == params.space_size


@pytest.mark.parametrize(
    "kind, dims",
    [("hamming", {"n": 65}), ("bilinear", {"m": 65, "n": 65})],
    ids=["hamming", "bilinear"],
)
def test_make_scheme_enforces_the_class_bound(kind, dims):
    assert MAX_CLASSES == 64
    with pytest.raises(ValueError, match="class count 65 exceeds the supported 64"):
        make_scheme(kind, 2, **dims)
    assert make_scheme(kind, 2, **{key: 64 for key in dims}).n == 64


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
    with pytest.raises(ValueError):
        make_scheme("hamming", 2, n=3, t=9)
    # the algebraic core accepts non-prime-power q
    assert make_scheme("hamming", 6, n=2).space_size == 36


@pytest.mark.parametrize("kind", ["Hamming", "HAMMING", 5, ["hamming"]])
def test_kind_must_be_exactly_a_family_key(kind):
    # rejected at the boundary, never case-folded or converted with str()
    with pytest.raises(ValueError, match="unknown scheme kind"):
        make_scheme(kind, 2, n=3)
    with pytest.raises(ValueError, match="unknown scheme kind"):
        scheme_from_json({"kind": kind, "q": 2, "n": 3})


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
    for bad in (True, 1.0, Fraction(1)):
        with pytest.raises(ValueError, match="must be an integer"):
            xi(make_scheme("hamming", 2, n=3), bad)


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
