"""Transforms, moments, maximal codes and the triangular inversion."""
import random
from fractions import Fraction

import pytest

from krawtchouk import macwilliams
from krawtchouk.bnary import gamma, gauss
from krawtchouk.cli import main
from krawtchouk.eigenvalues import delsarte_p
from krawtchouk.macwilliams import (
    TransformInput,
    UnrealizableDistribution,
    maximal_distribution,
    moment_b,
    moment_binv,
    transform_eigen,
    transform_functional,
)
from krawtchouk.schemes import make_scheme, xi_vector

from conftest import desk_schemes, forward_triangular, invert_triangular

HAM23 = make_scheme("hamming", 2, n=3)
HAM27 = make_scheme("hamming", 2, n=7)
HAMMING_74 = (1, 0, 0, 7, 7, 0, 0, 1)
SIMPLEX_73 = [1, 0, 0, 0, 7, 0, 0, 0]


def _tin(params, dist):
    return TransformInput(dist=tuple(dist), code_size=sum(dist), params=params)


def test_input_validation():
    with pytest.raises(ValueError):
        TransformInput(dist=(1, 0, 0), code_size=1, params=HAM23)
    with pytest.raises(ValueError):
        TransformInput(dist=(1, 0, 0, 0), code_size=2, params=HAM23)
    with pytest.raises(ValueError):
        TransformInput(dist=(1, -1, 2, 0), code_size=2, params=HAM23)
    with pytest.raises(ValueError):
        TransformInput(dist=(1, 1, 1, 0), code_size=3, params=HAM23)  # 3 does not divide 8


def test_input_rejects_non_integers():
    with pytest.raises(ValueError):
        TransformInput(dist=(1, 0, 0, 1.9), code_size=2, params=HAM23)
    with pytest.raises(ValueError):
        TransformInput(dist=(1, 0, 0, 1.0), code_size=2, params=HAM23)
    with pytest.raises(ValueError):
        TransformInput(dist=(1, 0, 0, Fraction(1)), code_size=2, params=HAM23)
    with pytest.raises(ValueError):
        TransformInput(dist=(True, 0, 0, 1), code_size=2, params=HAM23)
    with pytest.raises(ValueError):
        TransformInput(dist=(1, 0, 0, 0), code_size=True, params=HAM23)
    with pytest.raises(ValueError):
        TransformInput(dist=(1, 0, 0, 1), code_size=2.0, params=HAM23)
    # bools and floats are rejected as inputs, not reported as "no maximal code"
    with pytest.raises(ValueError, match="d_s must be an integer"):
        maximal_distribution(HAM23, True, 2)
    with pytest.raises(ValueError, match="code size must be an integer"):
        maximal_distribution(HAM23, 2, 2.0)
    # maximal_distribution and TransformInput share one code-size rule
    for size in (0, -4):
        with pytest.raises(ValueError, match="code size must be an integer >= 1, got "):
            maximal_distribution(HAM23, 2, size)
        with pytest.raises(ValueError, match="code size must be an integer >= 1, got "):
            TransformInput(dist=(1, 0, 0, 0), code_size=size, params=HAM23)
    tin = _tin(HAM23, (1, 0, 0, 1))
    for fn in (moment_b, moment_binv):
        with pytest.raises(ValueError):
            fn(tin, True)


def test_transform_trivial_pairs():
    for params in desk_schemes():
        if params.space_size > 1 << 16:
            continue
        full = xi_vector(params)
        zero = [1] + [0] * params.n
        assert transform_eigen(_tin(params, full)) == zero
        assert transform_eigen(_tin(params, zero)) == full
        assert transform_functional(_tin(params, full)) == zero
        assert transform_functional(_tin(params, zero)) == full


def test_transform_repetition_code():
    tin = _tin(HAM23, (1, 0, 0, 1))
    assert transform_eigen(tin) == [1, 0, 3, 0]
    assert transform_functional(tin) == [1, 0, 3, 0]


def test_transform_hamming_74():
    tin = _tin(HAM27, HAMMING_74)
    assert transform_eigen(tin) == SIMPLEX_73
    assert transform_functional(tin) == SIMPLEX_73


def test_transform_involution():
    for params, dist in (
        (HAM23, (1, 0, 3, 0)),
        (HAM27, HAMMING_74),
        (make_scheme("skew", 2, t=4), (1, 3, 0)),
        (make_scheme("hermitian", 2, t=2), (1, 1, 2)),
    ):
        tin = _tin(params, dist)
        dual = transform_eigen(tin)
        back = transform_eigen(_tin(params, dual))
        assert back == list(dist)


def test_transform_rejects_unrealizable():
    with pytest.raises(UnrealizableDistribution):
        transform_eigen(_tin(HAM23, (1, 3, 0, 0)))
    with pytest.raises(UnrealizableDistribution):
        transform_functional(_tin(HAM23, (1, 3, 0, 0)))


def _fraction_dual(tin):
    """(1/|C|) sum_i c_i P_k(i) from Delsarte's closed form, in Fractions."""
    params, n = tin.params, tin.params.n
    return [
        sum(ci * delsarte_p(k, i, params) for i, ci in enumerate(tin.dist)) / tin.code_size
        for k in range(n + 1)
    ]


def _leading_block(params, k):
    """Weights of the elements supported on the first k coordinates (columns)."""
    dims = {"n": k} if params.kind == "hamming" else {"m": params.dims[0], "n": k}
    return xi_vector(make_scheme(params.kind, params.q, **dims)) + [0] * (params.n - k)


def test_row_pass_matches_the_fraction_reference_on_sparse_distributions():
    cases = [(HAM27, HAMMING_74), (HAM27, SIMPLEX_73)]
    for q in (2, 3):
        for params in (
            make_scheme("hamming", q, n=6),
            make_scheme("bilinear", q, m=4, n=3),
            make_scheme("gabidulin", q, m=3, n=3),
        ):
            cases += [(params, _leading_block(params, k)) for k in range(1, params.n + 1)]
        cases.append((make_scheme("hamming", q, n=5), [1, 0, 0, 0, 0, q - 1]))  # repetition
    for params, dist in cases:
        tin = _tin(params, dist)
        want = _fraction_dual(tin)
        assert transform_eigen(tin) == want, (params, dist)
        assert transform_functional(tin) == want, (params, dist)


def test_both_routes_on_the_edges_of_a_large_hermitian_scheme():
    params = make_scheme("hermitian", 16, t=12)
    full = xi_vector(params)
    zero = [1] + [0] * params.n
    for transform in (transform_eigen, transform_functional):
        assert transform(_tin(params, full)) == zero
        assert transform(_tin(params, zero)) == full


@pytest.fixture
def eigen_calls(monkeypatch):
    """The inputs transform_eigen is called with, starting from an empty dual cache."""
    calls = []
    real = macwilliams.transform_eigen

    def counting(tin):
        calls.append(tin)
        return real(tin)

    monkeypatch.setattr(macwilliams, "transform_eigen", counting)
    macwilliams._dual.cache_clear()
    yield calls
    macwilliams._dual.cache_clear()


def test_one_dual_per_moment_pair(eigen_calls):
    tin = _tin(HAM27, HAMMING_74)
    for phi in range(HAM27.n + 1):
        moment_b(tin, phi)
        moment_binv(tin, phi)
    assert len(eigen_calls) == 1
    again = _tin(make_scheme("hamming", 2, n=7), HAMMING_74)  # equal, built apart
    assert again == tin and again is not tin
    assert moment_b(again, 3) == moment_b(tin, 3)
    moment_binv(again, 3)
    assert len(eigen_calls) == 1
    moment_b(_tin(HAM27, SIMPLEX_73), 3)
    moment_binv(_tin(HAM27, SIMPLEX_73), 3)
    assert eigen_calls[1:] == [_tin(HAM27, SIMPLEX_73)]
    assert isinstance(macwilliams._dual(_tin(HAM27, SIMPLEX_73)), tuple)  # not mutable
    moment_b(tin, 3)  # one entry only: the first input's dual is gone
    assert len(eigen_calls) == 3


def test_verify_moments_transforms_once_per_trial(eigen_calls, capsys):
    scheme = '{"kind":"hamming","q":2,"n":4}'
    assert main(["verify", "--scheme-json", scheme, "--suite", "moments", "--trials", "1"]) == 0
    assert '"ok": true' in capsys.readouterr().out
    assert len(eigen_calls) == 1  # not 2 (n + 1) = 10


def test_moment_b_zero_order_counts_code():
    tin = _tin(HAM23, (1, 0, 3, 0))
    lhs, rhs = moment_b(tin, 0)
    assert lhs == rhs == 4
    lhs, rhs = moment_binv(tin, 0)
    assert lhs == rhs == 4


def test_moment_repetition_example():
    tin = _tin(HAM23, (1, 0, 0, 1))
    lhs, rhs = moment_b(tin, 1)
    assert lhs == gauss(3, 1, 1) * 1 + gauss(0, 1, 1) * 1 == 3
    assert rhs == 3


def test_moment_corollaries_below_dual_distance():
    # phi below the dual minimum distance pins the right-hand side
    for params, dist in (
        (HAM27, HAMMING_74),
        (make_scheme("skew", 2, t=4), (1, 3, 0)),
        (make_scheme("hermitian", 2, t=2), (1, 1, 2)),
    ):
        tin = _tin(params, dist)
        dual = transform_eigen(tin)
        d_dual = next((i for i in range(1, params.n + 1) if dual[i]), params.n + 1)
        dual_size = tin.dual_size()
        n, b, c = params.n, params.b, params.c
        for phi in range(min(d_dual, params.n + 1)):
            lhs, rhs = moment_b(tin, phi)
            assert lhs == rhs
            assert rhs == params.cbn() ** (n - phi) * gauss(n, phi, b) / dual_size
            lhs, rhs = moment_binv(tin, phi)
            assert lhs == rhs
            assert rhs == params.cbn() ** (n - phi) * gauss(n, phi, b) * gamma(
                n, phi, b, c
            ) / dual_size


def test_moment_binv_top_order_on_even_t_skew():
    # c = 1/2 here; phi = n reaches the i = n term, which needs gamma(0, 0) = 1
    # without forming the non-integral c b^0
    params = make_scheme("skew", 2, t=4)
    for dist, expected in (((1, 0, 0), 0), ((1, 3, 0), 0), (xi_vector(params), 28)):
        lhs, rhs = moment_binv(_tin(params, dist), params.n)
        assert lhs == rhs == expected
        assert type(lhs) is type(rhs) is Fraction


def test_moment_bounds_checked():
    tin = _tin(HAM23, (1, 0, 3, 0))
    with pytest.raises(ValueError):
        moment_b(tin, 4)
    with pytest.raises(ValueError):
        moment_binv(tin, -1)


def test_hamming_alternating_sum_corollary():
    # phi = n: sum_i (-1)^i (q-1)^(n-i) c_i = 0 whenever the dual diameter < n
    for q, dist in ((2, (1, 3, 3, 1)), (3, (1, 0, 0, 8, 0))):
        params = make_scheme("hamming", q, n=len(dist) - 1)
        tin = _tin(params, dist)
        dual = transform_eigen(tin)
        diameter = max(i for i in range(params.n + 1) if dual[i])
        assert diameter < params.n
        total = sum(
            (-1) ** i * (q - 1) ** (params.n - i) * dist[i]
            for i in range(params.n + 1)
        )
        assert total == 0


def test_maximal_tetracode():
    params = make_scheme("hamming", 3, n=4)
    assert maximal_distribution(params, 3, 9) == [1, 0, 0, 8, 0]


def test_maximal_full_space():
    params = make_scheme("hamming", 2, n=4)
    assert maximal_distribution(params, 1, 16) == xi_vector(params)


def test_maximal_mrd():
    params = make_scheme("gabidulin", 2, m=2, n=2)
    assert maximal_distribution(params, 2, 4) == [1, 0, 3]


def test_maximal_rejects_impossible_parameters():
    params = make_scheme("hamming", 2, n=4)
    # |C| = 2 with d = 2 violates maximality: counts go negative
    with pytest.raises(UnrealizableDistribution):
        maximal_distribution(params, 2, 2)
    with pytest.raises(ValueError):
        maximal_distribution(params, 0, 4)
    with pytest.raises(ValueError):
        maximal_distribution(params, 2, 3)


# (scheme, d_s, |C|) whose forced counts the MacWilliams transform alone
# does not reject: the dual is fractional, negative or has a word below
# weight n + 2 - d_s, or no word has weight d_s
SPURIOUS_MAXIMAL = [
    (HAM23, 3, 8),  # [1, 0, 0, 7]: one word of weight 3 exists, not 7
    (HAM23, 2, 2),
    (make_scheme("bilinear", 2, m=3, n=2), 1, 8),
    (make_scheme("gabidulin", 3, m=2, n=2), 1, 9),
    (make_scheme("skew", 2, t=5), 1, 32),
    (make_scheme("hermitian", 3, t=2), 2, 9),
]


def _is_maximal(params, d_s, dist):
    """The certificate, with the dual from the functional route."""
    n = params.n
    try:
        dual = transform_functional(TransformInput(dist, sum(dist), params))
    except UnrealizableDistribution:
        return False
    return (d_s > n or dist[d_s] >= 1) and not any(dual[1 : n + 2 - d_s])


def test_maximal_rejects_distributions_no_code_has():
    for params, d_s, size in SPURIOUS_MAXIMAL:
        with pytest.raises(UnrealizableDistribution, match=f"^no maximal code with d_s={d_s}, "):
            maximal_distribution(params, d_s, size)
    found = set()
    for params in (make_scheme("hamming", 2, n=4), make_scheme("bilinear", 2, m=3, n=2)):
        sizes = [2 ** e for e in range(params.space_size.bit_length())]
        for d_s in range(1, params.n + 2):
            for size in sizes:
                try:
                    dist = maximal_distribution(params, d_s, size)
                except UnrealizableDistribution:
                    continue
                assert _is_maximal(params, d_s, dist), (params, d_s, size, dist)
                found.add((params.kind, d_s, size))
    # repetition, parity and whole-space codes; the MRD codes of every distance
    assert {("hamming", 4, 2), ("hamming", 2, 8), ("hamming", 1, 16)} <= found
    assert {("bilinear", 1, 64), ("bilinear", 2, 8), ("bilinear", 3, 1)} <= found


def test_invert_triangular_trivial_and_unit():
    assert invert_triangular([Fraction(5)], 2) == [Fraction(5)]
    ell = 4
    unit = [1] + [0] * ell
    image = forward_triangular(unit, 3)
    assert image == [gauss(ell, ell - j, 3) for j in range(ell + 1)]
    assert invert_triangular(image, 3) == [Fraction(v) for v in unit]


def test_invert_triangular_round_trip():
    rng = random.Random(9)
    for b in (-2, 2, 3):
        for _ in range(40):
            ell = rng.randint(0, 6)
            y = [rng.randint(-9, 9) for _ in range(ell + 1)]
            assert invert_triangular(forward_triangular(y, b), b) == [
                Fraction(v) for v in y
            ]
