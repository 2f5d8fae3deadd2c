"""Brute-force oracle: weights, codes, duals, character sums, axioms."""
import random
from collections import Counter

import pytest

from krawtchouk import oracle
from krawtchouk.eigenvalues import c_poly
from krawtchouk.fields import GF, row_reduce
from krawtchouk.macwilliams import TransformInput, transform_eigen, transform_functional
from krawtchouk.oracle import (
    SPACE_GUARD,
    CodeSpec,
    SchemeSpace,
    char_eigenvalue,
    dual_code,
    enumerate_code,
    random_code,
    space_for,
    verify_scheme_axioms,
    weight_distribution,
)
from krawtchouk.schemes import KINDS, make_scheme, scheme_from_json, scheme_to_json, xi_vector

from conftest import desk_schemes, within_seconds

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


def reduced_generators(code: CodeSpec) -> tuple:
    """Canonical RREF generator set, for span-equality comparisons."""
    space = space_for(code.params)
    rows, _ = row_reduce(list(code.generators), space.gf)
    return tuple(tuple(r) for r in rows)


def code_to_json(code: CodeSpec) -> dict:
    return {
        "scheme": scheme_to_json(code.params),
        "generators": [list(g) for g in code.generators],
    }


def code_from_json(obj: dict) -> CodeSpec:
    params = scheme_from_json(obj["scheme"])
    return CodeSpec(params=params, generators=tuple(tuple(g) for g in obj["generators"]))


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
    coords[oracle._upper_pairs(4).index((1, 2))] = 1
    assert sp.weight(tuple(coords)) == 1
    mat = sp.matrix(tuple(coords))
    assert mat[1][2] == 1 and mat[2][1] == 1 and all(mat[i][i] == 0 for i in range(4))


def test_weight_rejects_invalid():
    with pytest.raises(ValueError):
        space_for(HAM23).weight((0, 0))
    with pytest.raises(ValueError):
        space_for(HAM23).weight((0, 0, 5))


@pytest.mark.parametrize(
    "coords",
    [(1.7, 0, True), (1.0, 0, 0), ("1", 0, 0), (True, 0, 0)],
    ids=["mixed", "float", "str", "bool"],
)
def test_coordinates_must_be_ints(coords):
    # floats, strings and bools are rejected, not coerced with int()
    with pytest.raises(ValueError, match="must be ints"):
        space_for(HAM23).validate(coords)
    with pytest.raises(ValueError, match="must be ints"):
        space_for(HAM23).weight(coords)
    with pytest.raises(ValueError, match="must be ints"):
        code_from_json({"scheme": {"kind": "hamming", "q": 2, "n": 3}, "generators": [coords]})


def test_hermitian_structure():
    sp = space_for(make_scheme("hermitian", 2, t=3))
    rng = random.Random(0)
    ext = sp.rank_field
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


def test_char_eigenvalue_odd_characteristic_matches_c_poly():
    ham32 = make_scheme("hamming", 3, n=2)
    assert [char_eigenvalue(ham32, k, 1) for k in range(3)] == [1, 1, -2]
    for params in (ham32, make_scheme("skew", 3, t=3)):
        for k in range(params.n + 1):
            for x in range(params.n + 1):
                assert char_eigenvalue(params, k, x) == c_poly(k, x, params)


def test_char_eigenvalue_rejects_unequal_trace_counts(monkeypatch):
    # moving (1, 0) into the weight-2 class breaks invariance under negation at
    # q = 3: over the weight-1 class the traces of the pairing with (2, 0) are
    # 0, 0 and 1, so the character sum is no integer
    _patch_weight(monkeypatch, lambda e: 2 if e == (1, 0) else 2 - e.count(0))
    with pytest.raises(AssertionError, match=r"unequal trace counts \[2, 1, 0\]"):
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


def _patch_weight(monkeypatch, weight):
    """Make oracle.space_for build fresh spaces whose weight function is replaced."""

    class FaultySpace(SchemeSpace):
        def weight(self, coords):
            return weight(self.validate(coords))

    monkeypatch.setattr(oracle, "space_for", FaultySpace)


def _axioms_with_weight(monkeypatch, params, weight):
    """verify_scheme_axioms on a fresh space whose weight function is replaced."""
    _patch_weight(monkeypatch, weight)
    return verify_scheme_axioms(params)


def test_scheme_axioms_report_asymmetric_weight(monkeypatch):
    # counting only the coordinates equal to 1 gives weight(-e) != weight(e) at q = 3
    report = _axioms_with_weight(
        monkeypatch, make_scheme("hamming", 3, n=2), lambda e: e.count(1)
    )
    assert not report["ok"]
    assert any("not symmetric" in v for v in report["violations"])


@pytest.mark.parametrize("bad", [4, -1])
def test_scheme_axioms_report_out_of_range_weight(monkeypatch, bad):
    def weight(e):
        return bad if e == (1, 1, 1) else sum(e)

    report = _axioms_with_weight(monkeypatch, make_scheme("hamming", 2, n=3), weight)
    assert not report["ok"]
    assert report["violations"] == [f"weight {bad} out of range at (1, 1, 1)"]
    assert report["checked_relations"] == 0
    assert report["valencies"] == [1, 3, 3, 0]


@pytest.mark.parametrize("bad", [4, -1])
def test_weight_distribution_rejects_out_of_range_weight(monkeypatch, bad):
    _patch_weight(monkeypatch, lambda e: bad if e == (1, 1, 1) else sum(e))
    repetition = CodeSpec(params=HAM23, generators=((1, 1, 1),))
    with pytest.raises(ArithmeticError, match=rf"weight {bad} out of range at \(1, 1, 1\)"):
        weight_distribution(repetition)


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
    # digit expansions between F_q and its extensions need prime q
    with pytest.raises(ValueError):
        space_for(make_scheme("gabidulin", 4, m=2, n=2))
    with pytest.raises(ValueError):
        space_for(make_scheme("hermitian", 4, t=2))
    # at m = 1 the coordinates are F_4 itself, so no expansion is needed
    assert verify_scheme_axioms(make_scheme("gabidulin", 4, m=1, n=1))["ok"]


def test_oracle_rejects_large_q_before_factoring():
    q = 2 ** 61 - 1  # prime, so trial division would run for hours
    with within_seconds(1):
        with pytest.raises(ValueError, match="exceeds the supported 16"):
            space_for(make_scheme("hamming", q, n=1))
        with pytest.raises(ValueError, match="exceeds the supported 16"):
            GF(q)


def test_model_table_covers_every_kind():
    assert tuple(oracle._MODELS) == KINDS


def _index(space, coords) -> int:
    """The place of an element in elements() order."""
    i = 0
    for v in coords:
        i = i * space.gf.order + v
    return i


# odd characteristic (q = 3, 9) and extension coordinate fields (F_9, F_16)
INDEX_CASES = [
    params
    for params in desk_schemes() + [make_scheme("hamming", 9, n=3), make_scheme("gabidulin", 2, m=4, n=2)]
    if params.space_size <= SPACE_GUARD
]


@pytest.mark.parametrize("params", INDEX_CASES, ids=lambda p: f"{p.kind}-q{p.q}-{p.dims}")
def test_whole_space_vectors_match_per_element_arithmetic(params):
    space = SchemeSpace(params)
    elements = list(space.elements())
    assert [_index(space, e) for e in elements] == list(range(len(elements)))
    rng = random.Random(f"{params.kind}{params.q}{params.dims}")
    picks = [space.zero, elements[-1]] + [rng.choice(elements) for _ in range(3)]
    for xx in picks:
        expected = [_index(space, space.sub(xx, z)) for z in elements]
        assert space._difference_indices(xx) == expected
    for y in picks:
        expected = [space.gf.abs_trace(space.pairing(z, y)) for z in elements]
        assert space._traces(y) == expected


def test_index_cases_cover_odd_and_extension_fields():
    orders = {(p.kind, space_for(p).gf.order) for p in INDEX_CASES}
    assert {("hamming", 3), ("hamming", 9), ("skew", 3), ("gabidulin", 16), ("hermitian", 3)} <= orders


@pytest.mark.parametrize(
    "params",
    [make_scheme("hamming", 3, n=4), make_scheme("bilinear", 2, m=3, n=2), HERM22],
    ids=["hamming-q3", "bilinear-q2", "hermitian-q2"],
)
def test_axioms_and_character_sums_weigh_each_element_once(monkeypatch, params):
    calls = Counter()

    class CountingSpace(SchemeSpace):
        def weight(self, coords):
            calls["weight"] += 1
            return super().weight(coords)

        def _traces(self, y):
            calls["traces"] += 1
            return super()._traces(y)

    space = CountingSpace(params)
    monkeypatch.setattr(oracle, "space_for", lambda p: space)
    assert verify_scheme_axioms(params)["ok"]
    n = params.n
    for _ in range(2):
        for k in range(n + 1):
            for x in range(n + 1):
                assert char_eigenvalue(params, k, x) == c_poly(k, x, params)
    assert calls["weight"] == params.space_size
    # at most two representatives per weight x, built once per space
    assert n + 1 < calls["traces"] <= 2 * (n + 1)
