"""The generator's closed forms against the brute-force oracle.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench/test_generate.py
"""
import pytest

from krawtchouk.fields import field
from krawtchouk.oracle import CodeSpec, dual_code, space_for, weight_distribution
from krawtchouk.schemes import make_scheme

from generate import codes, maximal_cases, scheme, weight_counts

DESK = [
    ("hamming", 2, {"n": 4}),
    ("hamming", 3, {"n": 3}),
    ("hamming", 4, {"n": 3}),
    ("bilinear", 2, {"m": 3, "n": 2}),
    ("bilinear", 3, {"m": 2, "n": 2}),
    ("gabidulin", 2, {"m": 3, "n": 2}),
    ("gabidulin", 3, {"m": 2, "n": 2}),
    ("skew", 2, {"t": 4}),
    ("skew", 2, {"t": 5}),
    ("skew", 3, {"t": 4}),
    ("hermitian", 2, {"t": 2}),
    ("hermitian", 2, {"t": 3}),
    ("hermitian", 3, {"t": 2}),
]


def _unit(dim, c):
    return tuple(1 if i == c else 0 for i in range(dim))


def _oracle_code(params, name):
    """The oracle's CodeSpec for one of the generator's named codes."""
    space = space_for(params)
    if name == "zero":
        coords = []
    elif name == "whole":
        coords = range(space.dim)
    else:
        k = int(name.removeprefix("lead"))
        if params.kind == "bilinear":
            m, n = params.dims
            coords = [i * n + j for i in range(m) for j in range(k)]
        else:
            coords = range(k)
    return CodeSpec(params=params, generators=tuple(_unit(space.dim, c) for c in coords))


@pytest.mark.parametrize("kind,q,dims", DESK, ids=lambda v: str(v))
def test_codes_and_duals_match_oracle(kind, q, dims):
    s = scheme(kind, q, **dims)
    params = make_scheme(kind, q, **dims)
    assert (s.n, s.size) == (params.n, params.space_size)
    assert s.cbn == params.cbn()
    for code in codes(s):
        spec = _oracle_code(params, code.name)
        assert spec.code_size == code.size, code.name
        assert weight_distribution(spec) == list(code.dist), code.name
        assert weight_distribution(dual_code(spec)) == list(code.dual), code.name


@pytest.mark.parametrize("kind,q,dims", DESK, ids=lambda v: str(v))
def test_weight_counts_partition_the_space(kind, q, dims):
    s = scheme(kind, q, **dims)
    assert sum(weight_counts(s)) == s.size


def test_hamming_maximal_cases_match_oracle():
    params = make_scheme("hamming", 3, n=4)
    repetition = CodeSpec(params=params, generators=((1, 1, 1, 1),))
    by_d = {d: (size, dist) for d, size, dist in maximal_cases(scheme("hamming", 3, n=4))}
    assert by_d[4] == (repetition.code_size, weight_distribution(repetition))
    parity = dual_code(repetition)
    assert by_d[2] == (parity.code_size, weight_distribution(parity))


@pytest.mark.parametrize("q,m,n", [(2, 3, 3), (2, 4, 3), (3, 2, 2)])
def test_mrd_distribution_matches_gabidulin_codes(q, m, n):
    """Gabidulin codes are MRD: rows (g_j^(q^i)) over F_(q^m), g_j independent over F_q."""
    params = make_scheme("gabidulin", q, m=m, n=n)
    gf = field(q ** m)
    basis = [q ** j for j in range(n)]  # 1, alpha, alpha^2, ... in digit encoding
    by_d = {d: (size, dist) for d, size, dist in maximal_cases(scheme("gabidulin", q, m=m, n=n))}
    for k in range(1, n + 1):
        rows = tuple(tuple(gf.pow(g, q ** i) for g in basis) for i in range(k))
        code = CodeSpec(params=params, generators=rows)
        assert by_d[n - k + 1] == (code.code_size, weight_distribution(code))
