"""Brute-force oracle: weights, codes, duals, character sums, axioms."""
import random
from collections import Counter

import pytest

from krawtchouk import oracle
from krawtchouk.eigenvalues import c_poly
from krawtchouk.macwilliams import TransformInput, transform_eigen, transform_functional
from krawtchouk.oracle import (
    SPACE_GUARD,
    CodeSpec,
    SchemeSpace,
    char_eigenvalue,
    code_from_json,
    code_to_json,
    dual_code,
    enumerate_code,
    random_code,
    reduced_generators,
    space_for,
    verify_scheme_axioms,
    weight_distribution,
)
from krawtchouk.schemes import make_scheme, xi_vector

from conftest import desk_schemes

HAM23 = make_scheme("hamming", 2, n=3)
HAM27 = make_scheme("hamming", 2, n=7)
SKEW24 = make_scheme("skew", 2, t=4)
HERM22 = make_scheme("hermitian", 2, t=2)
BILIN22 = make_scheme("bilinear", 2, m=2, n=2)

HAMMING_74_GENS = (
    (1, 0, 0, 0, 0, 1, 1),
    (0, 1, 0, 0, 1, 0, 1),
    (0, 0, 1, 0, 1, 1, 0),
    (0, 0, 0, 1, 1, 1, 1),
)


def full_space_code(params):
    space = space_for(params)
    gens = []
    for c in range(space.dim):
        e = [0] * space.dim
        e[c] = 1
        gens.append(tuple(e))
    return CodeSpec(params=params, generators=tuple(gens))


def test_weight_examples():
    assert space_for(HAM23).weight((0, 0, 0)) == 0
    assert space_for(BILIN22).weight((1, 0, 0, 1)) == 2  # 2x2 identity
    # alternating 4x4 with only the (1,2)/(2,1) pair set: rank 2, skew weight 1
    sp = space_for(SKEW24)
    coords = [0] * sp.dim
    coords[sp._pairs.index((1, 2))] = 1
    assert sp.weight(tuple(coords)) == 1
    mat = sp.matrix(tuple(coords))
    assert mat[1][2] == 1 and mat[2][1] == 1 and all(mat[i][i] == 0 for i in range(4))


def test_weight_rejects_invalid():
    with pytest.raises(ValueError):
        space_for(HAM23).weight((0, 0))
    with pytest.raises(ValueError):
        space_for(HAM23).weight((0, 0, 5))


def test_hermitian_structure():
    sp = space_for(make_scheme("hermitian", 2, t=3))
    rng = random.Random(0)
    ext = sp.ext
    for _ in range(20):
        coords = tuple(rng.randrange(2) for _ in range(sp.dim))
        mat = sp.matrix(coords)
        for i in range(3):
            assert mat[i][i] in (0, 1)  # diagonal fixed by conjugation
            for j in range(3):
                assert mat[j][i] == ext.conj(mat[i][j], 2)


def test_gabidulin_expansion_rank():
    sp = space_for(make_scheme("gabidulin", 2, m=2, n=2))
    # (1, g) with g outside F_2 expands to the identity: rank 2
    assert sp.weight((1, 2)) == 2
    assert sp.weight((1, 1)) == 1
    assert sp.weight((0, 0)) == 0


def test_enumerate_code_edges():
    zero = CodeSpec(params=HAM23, generators=())
    assert list(enumerate_code(zero)) == [(0, 0, 0)]
    one_gen = CodeSpec(params=HAM23, generators=((1, 1, 0),))
    assert sorted(enumerate_code(one_gen)) == [(0, 0, 0), (1, 1, 0)]
    assert one_gen.code_size == 2


def test_enumerate_hamming_74():
    code = CodeSpec(params=HAM27, generators=HAMMING_74_GENS)
    words = list(enumerate_code(code))
    assert len(words) == len(set(words)) == 16
    weights = Counter(space_for(HAM27).weight(w) for w in words)
    assert weights == Counter({0: 1, 3: 7, 4: 7, 7: 1})
    assert weight_distribution(code) == [1, 0, 0, 7, 7, 0, 0, 1]


def test_dependent_generators_rejected():
    with pytest.raises(ValueError):
        CodeSpec(params=HAM23, generators=((1, 1, 0), (1, 1, 0)))


def test_dual_of_trivial_codes():
    for params in (HAM23, SKEW24, HERM22, BILIN22):
        full = full_space_code(params)
        zero = CodeSpec(params=params, generators=())
        assert dual_code(full).generators == ()
        assert weight_distribution(dual_code(zero)) == xi_vector(params)


def test_dual_repetition_is_even_weight():
    for n in range(3, 8):
        params = make_scheme("hamming", 2, n=n)
        rep = CodeSpec(params=params, generators=((1,) * n,))
        dual = dual_code(rep)
        assert len(dual.generators) == n - 1
        sp = space_for(params)
        assert all(sp.weight(w) % 2 == 0 for w in enumerate_code(dual))


def test_dual_is_involution():
    rng = random.Random(14)
    for params in (HAM23, SKEW24, HERM22, BILIN22):
        for _ in range(5):
            code = random_code(params, rng)
            again = dual_code(dual_code(code))
            assert reduced_generators(again) == reduced_generators(code)
            assert len(code.generators) + len(dual_code(code).generators) == space_for(
                params
            ).dim


def test_full_space_distribution_matches_xi():
    cases = [make_scheme("hamming", q, n=n) for q in (2, 3) for n in range(1, 9)]
    cases += [BILIN22, make_scheme("bilinear", 2, m=3, n=2)]
    cases += [make_scheme("gabidulin", 2, m=2, n=2), SKEW24, HERM22]
    cases += [make_scheme("hermitian", 2, t=3)]
    for params in cases:
        assert weight_distribution(full_space_code(params)) == xi_vector(params)


def test_char_eigenvalue_examples():
    for k in range(HAM23.n + 1):
        assert char_eigenvalue(HAM23, k, 0) == xi_vector(HAM23)[k]
    assert char_eigenvalue(HAM23, 1, 1) == 1
    assert char_eigenvalue(SKEW24, 1, 1) == 3  # q^3 - q^2 - 1 at q = 2


def test_char_eigenvalue_rejects_odd_characteristic():
    with pytest.raises(ValueError):
        char_eigenvalue(make_scheme("hamming", 3, n=2), 1, 1)


def test_char_eigenvalue_matches_c_poly():
    for params in (HAM23, SKEW24, HERM22, BILIN22):
        for k in range(params.n + 1):
            for x in range(params.n + 1):
                assert char_eigenvalue(params, k, x) == c_poly(k, x, params)


def test_scheme_axioms():
    for params in (HAM23, BILIN22, HERM22, SKEW24):
        report = verify_scheme_axioms(params)
        assert report["ok"], report["violations"]
        assert report["valencies"] == xi_vector(params)


def test_weight_table_matches_weight():
    cases = desk_schemes() + [
        make_scheme("hamming", 4, n=3),
        make_scheme("gabidulin", 2, m=3, n=2),
    ]
    for params in cases:
        sp = SchemeSpace(params)
        if params.space_size > SPACE_GUARD:
            with pytest.raises(ValueError):
                sp.weight_table()
            continue
        table = sp.weight_table()
        assert len(table) == params.space_size
        assert all(table[e] == sp.weight(e) for e in sp.elements())
        assert [len(b) for b in sp.weight_buckets()] == xi_vector(params)


def _axioms_with_weight(monkeypatch, params, weight):
    """verify_scheme_axioms on a fresh space whose weight function is replaced."""

    class FaultySpace(SchemeSpace):
        def weight(self, coords):
            return weight(self.validate(coords))

    monkeypatch.setattr(oracle, "space_for", FaultySpace)
    return verify_scheme_axioms(params)


def test_scheme_axioms_report_asymmetric_weight(monkeypatch):
    # counting only the coordinates equal to 1 gives weight(-e) != weight(e) at q = 3
    report = _axioms_with_weight(
        monkeypatch, make_scheme("hamming", 3, n=2), lambda e: e.count(1)
    )
    assert not report["ok"]
    assert any("not symmetric" in v for v in report["violations"])


def test_scheme_axioms_report_nonconstant_intersection_numbers(monkeypatch):
    # symmetric (characteristic 2) and zero only at zero, but moving (1, 1, 0)
    # into the weight-1 class makes the relations no association scheme
    def weight(e):
        return 1 if e == (1, 1, 0) else sum(e)

    report = _axioms_with_weight(monkeypatch, make_scheme("hamming", 2, n=3), weight)
    assert not report["ok"]
    assert "intersection numbers not constant on relation 1" in report["violations"]
    assert not any("symmetric" in v or "diagonal" in v for v in report["violations"])


def test_random_code_reproducible():
    a = random_code(HAM23, random.Random(42))
    b = random_code(HAM23, random.Random(42))
    assert a == b


def test_random_codes_transform_consistency():
    rng = random.Random(99)
    for params in (HAM23, SKEW24, HERM22):
        for _ in range(6):
            code = random_code(params, rng)
            dist = weight_distribution(code)
            tin = TransformInput(
                dist=tuple(dist), code_size=code.code_size, params=params
            )
            expected = weight_distribution(dual_code(code))
            assert transform_eigen(tin) == expected
            assert transform_functional(tin) == expected


def test_code_json_round_trip():
    code = CodeSpec(params=HAM27, generators=HAMMING_74_GENS)
    obj = code_to_json(code)
    assert obj["scheme"] == {"kind": "hamming", "q": 2, "n": 7}
    assert code_from_json(obj) == code


def test_oracle_rejects_non_prime_power_q():
    with pytest.raises(ValueError):
        space_for(make_scheme("hamming", 6, n=2))
