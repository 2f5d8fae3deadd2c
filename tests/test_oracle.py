"""Brute-force oracle: weights, codes, duals, character sums, axioms."""
import itertools
import random
import tracemalloc
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

from conftest import desk_schemes, pow_trace, within_seconds

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
                assert mat[j][i] == ext.pow(mat[i][j], 2)


def test_gabidulin_expansion_rank():
    sp = space_for(make_scheme("gabidulin", 2, m=2, n=2))
    # (1, g) with g outside F_2 expands to the identity: rank 2
    assert sp.weight((1, 2)) == 2
    assert sp.weight((1, 1)) == 1
    assert sp.weight((0, 0)) == 0


def _expansion(space, coords):
    """The m x n matrix over F_q whose column j is coordinate j's base-q digits."""
    m, n = space.params.dims
    q = space.rank_field.order
    cols = []
    for v in coords:
        digits = []
        for _ in range(m):
            digits.append(v % q)
            v //= q
        cols.append(digits)
    return [[cols[j][i] for j in range(n)] for i in range(m)]


@pytest.mark.parametrize(
    "q, m, n", [(2, 2, 2), (2, 3, 2), (2, 3, 3), (2, 4, 3), (3, 2, 2)],
    ids=lambda v: str(v),
)
def test_gabidulin_weight_is_the_rank_of_the_expansion(q, m, n):
    sp = space_for(make_scheme("gabidulin", q, m=m, n=n))
    for coords in sp.elements():
        # row_reduce, not the GF(2) XOR path that weight takes at q = 2
        assert sp.weight(coords) == len(row_reduce(_expansion(sp, coords), sp.rank_field)[0])


def test_gram_matrix_is_checked_on_first_use():
    sp = oracle.SchemeSpace(HAM23)  # a fresh space, outside the cache
    sp._pairing = lambda space, u, v: 0
    with pytest.raises(AssertionError, match="degenerate"):
        sp.gram_vector((1, 0, 0))


def test_enumerate_code_edges():
    zero = CodeSpec(params=HAM23, generators=())
    assert list(enumerate_code(zero)) == [(0, 0, 0)]
    one_gen = CodeSpec(params=HAM23, generators=((1, 1, 0),))
    assert sorted(enumerate_code(one_gen)) == [(0, 0, 0), (1, 1, 0)]
    assert one_gen.code_size == 2


def product_words(code: CodeSpec):
    """Every codeword formed from scratch as sum s_i g_i over all scalar tuples."""
    space = space_for(code.params)
    mul = space.gf.mul_table
    for scalars in itertools.product(range(space.gf.order), repeat=len(code.generators)):
        acc = space.zero
        for s, g in zip(scalars, code.generators):
            if s:
                acc = space.add(acc, tuple(mul[s][a] for a in g))
        yield acc


# F_4, F_8, F_9 and F_16 coordinates, and odd characteristic in every rank family
WALK_CASES = [make_scheme("hamming", q, n=3) for q in (4, 8, 9, 16)] + [
    make_scheme("gabidulin", 2, m=2, n=2),
    make_scheme("gabidulin", 3, m=2, n=2),
    make_scheme("bilinear", 3, m=2, n=2),
    make_scheme("hermitian", 3, t=2),
    make_scheme("skew", 3, t=3),
]


@pytest.mark.parametrize("params", WALK_CASES, ids=lambda p: f"{p.kind}-q{p.q}-{p.dims}")
def test_enumerate_code_walk_matches_the_product_reference(params):
    rng = random.Random(f"walk {params.kind} {params.q} {params.dims}")
    for _ in range(10):
        code = random_code(params, rng)
        words = list(enumerate_code(code))
        assert len(words) == len(set(words)) == code.code_size
        assert set(words) == set(product_words(code))


@pytest.mark.parametrize(
    "params",
    [make_scheme("hamming", 2, n=5), make_scheme("hamming", 4, n=3), make_scheme("skew", 3, t=3)],
    ids=["hamming-q2", "hamming-q4", "skew-q3"],
)
def test_enumerate_code_adds_once_per_word(monkeypatch, params):
    calls = Counter()

    class CountingSpace(SchemeSpace):
        def add(self, u, v):
            calls["add"] += 1
            return super().add(u, v)

    space = CountingSpace(params)
    monkeypatch.setattr(oracle, "space_for", lambda p: space)
    rng = random.Random(7)
    for _ in range(5):
        code = random_code(params, rng)
        calls.clear()
        assert sum(1 for _ in enumerate_code(code)) == code.code_size
        assert calls["add"] == code.code_size - 1


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


@pytest.mark.parametrize("index", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_char_eigenvalue_rejects_non_int_indices(index):
    # 1.0 and True equal the Counter key 1, so they would read weight 1's counts
    with pytest.raises(ValueError, match=r"^k must be an integer in 0\.\.3, got "):
        char_eigenvalue(HAM23, index, 0)
    with pytest.raises(ValueError, match=r"^x must be an integer in 0\.\.3, got "):
        char_eigenvalue(HAM23, 0, index)


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


def weight_table(space) -> dict:
    """Element -> weight for every element of the space, read off the by-index list."""
    space.weight_buckets()
    return dict(zip(space.elements(), space._by_index))


def test_weight_table_matches_weight():
    cases = desk_schemes() + [
        make_scheme("hamming", 4, n=3),
        make_scheme("gabidulin", 2, m=3, n=2),
    ]
    for params in cases:
        sp = SchemeSpace(params)
        if params.space_size > SPACE_GUARD:
            with pytest.raises(ValueError):
                weight_table(sp)
            continue
        table = weight_table(sp)
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


def _sub(space, u, v) -> tuple:
    add, neg = space.gf.add_table, space.gf.neg_table
    return tuple(add[a][neg[b]] for a, b in zip(u, v))


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
    assert [space.element(i) for i in range(len(elements))] == elements
    rng = random.Random(f"{params.kind}{params.q}{params.dims}")
    picks = [space.zero, elements[-1]] + [rng.choice(elements) for _ in range(3)]
    for xx in picks:
        expected = [_index(space, _sub(space, xx, z)) for z in elements]
        assert space._difference_indices(xx) == expected
    for y in picks:
        expected = [pow_trace(space.gf, space.pairing(z, y)) for z in elements]
        assert space._traces(y) == expected


@pytest.mark.parametrize("params", INDEX_CASES, ids=lambda p: f"{p.kind}-q{p.q}-{p.dims}")
def test_translated_pairs_have_the_table_of_pairs_with_zero(params):
    # the relations depend on x - y only, which is why the axioms check samples pairs (0, y)
    space = SchemeSpace(params)
    weights = space._by_index

    def table(xx, yy):
        rows = ([weights[i] for i in space._difference_indices(v)] for v in (xx, yy))
        return Counter(zip(*rows))

    rng = random.Random(f"translate {params.kind}{params.q}{params.dims}")
    for _ in range(3):
        z, y = (space.element(rng.randrange(params.space_size)) for _ in range(2))
        assert table(z, space.add(z, y)) == table(space.zero, y)


@pytest.mark.parametrize(
    "params",
    [make_scheme("hamming", 2, n=12), make_scheme("bilinear", 2, m=4, n=3),
     make_scheme("gabidulin", 2, m=4, n=3)],
    ids=["hamming-q2-n12", "bilinear-q2-4x3", "gabidulin-q2-4x3"],
)
def test_weight_table_keeps_no_tuple_per_element(params):
    space = SchemeSpace(params)
    space.weight(space.zero)  # warm the field's and the rank path's own caches
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert [len(b) for b in space.weight_buckets()] == xi_vector(params)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained <= 16 * params.space_size


def test_character_sum_reports_an_empty_weight_class(monkeypatch):
    # the weight-2 elements are given weight 3, so class 2 has no representative
    _patch_weight(monkeypatch, lambda e: 3 if sum(e) == 2 else sum(e))
    with pytest.raises(ArithmeticError, match="no element of weight 2"):
        char_eigenvalue(HAM23, 0, 2)


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
