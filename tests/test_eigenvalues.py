"""Eigenvalue polynomials: both closed forms, recurrence, eigenmatrix."""
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from krawtchouk import bnary, eigenvalues
from krawtchouk.bnary import gamma, gamma_rows, gauss, gauss_rows
from krawtchouk.eigenvalues import (
    c_poly,
    c_value,
    check_recurrence,
    delsarte_p,
    delsarte_value,
    eigenmatrix,
    hermitian_recurrence_equiv,
)
from krawtchouk.macwilliams import (
    TransformInput,
    maximal_distribution,
    moment_b,
    moment_binv,
    transform_functional,
)
from krawtchouk.schemes import make_scheme, xi_vector

from conftest import desk_schemes

SKEW2 = make_scheme("skew", 2, t=4)
HAM23 = make_scheme("hamming", 2, n=3)


def test_c_poly_initial_values():
    for params in desk_schemes():
        for x in range(params.n + 1):
            assert c_poly(0, x, params) == 1
        for k in range(params.n + 1):
            expected = gauss(params.n, k, params.b) * gamma(
                params.n, k, params.b, params.c
            )
            assert c_poly(k, 0, params) == expected


def test_c_poly_skew_table_value():
    assert c_poly(1, 1, SKEW2) == 3


def test_table_one_reproduction():
    # the skew t=4 entry q^3 - q^2 - 1 across substituted q
    for q, want in ((2, 3), (3, 17), (5, 99)):
        params = make_scheme("skew", q, t=4)
        assert c_poly(1, 1, params) == want
        assert delsarte_p(1, 1, params) == want


def test_delsarte_examples():
    assert delsarte_p(0, 2, SKEW2) == 1
    assert delsarte_p(1, 1, SKEW2) == 3
    assert delsarte_p(1, 1, HAM23) == 1  # (q-1)(n-x) - x at q=2, n=3


def test_range_rejected():
    with pytest.raises(ValueError):
        c_poly(3, 0, SKEW2)
    with pytest.raises(ValueError):
        delsarte_p(0, -1, SKEW2)
    # indices are not coerced: a bool or float is rejected, not read as 0/1
    for bad in (True, 1.0, Fraction(1)):
        for form in (c_poly, delsarte_p):
            with pytest.raises(ValueError, match="must be integers"):
                form(bad, 1, HAM23)
            with pytest.raises(ValueError, match="must be integers"):
                form(1, bad, HAM23)


def test_forms_agree_on_desk_schemes():
    for params in desk_schemes():
        for k in range(params.n + 1):
            for x in range(params.n + 1):
                assert c_poly(k, x, params) == delsarte_p(k, x, params)


def test_eigenmatrix_one_bit():
    assert eigenmatrix(make_scheme("hamming", 2, n=1)) == ((1, 1), (1, -1))


def test_eigenmatrix_structure():
    for params in desk_schemes():
        em = eigenmatrix(params)
        assert list(em[0]) == xi_vector(params)
        assert all(row[0] == 1 for row in em)


def test_eigenmatrix_involution_and_orthogonality():
    for params in desk_schemes():
        em = eigenmatrix(params)
        v = xi_vector(params)
        m = params.n + 1
        size = params.space_size
        for i in range(m):
            for j in range(m):
                prod = sum(em[i][t] * em[t][j] for t in range(m))
                assert prod == (size if i == j else 0)
        for k in range(m):
            for ell in range(m):
                s = sum(v[i] * em[i][k] * em[i][ell] for i in range(m))
                assert s == (size * v[k] if k == ell else 0)


def test_eigenmatrix_check_rejects_corrupt_valency(monkeypatch):
    params = make_scheme("hamming", 3, n=4)

    def corrupt_gamma_rows(n, b, c):
        rows = gamma_rows(n, b, c)
        rows[params.n][2] += 1
        return rows

    monkeypatch.setattr(eigenvalues, "gamma_rows", corrupt_gamma_rows)
    # the corrupt table must be built here and must not outlive the test
    eigenvalues.tables.cache_clear()
    eigenvalues._eigenmatrix_cached.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=re.escape("P·P = |X|·I")):
            eigenmatrix(params)
    finally:
        monkeypatch.undo()
        eigenvalues.tables.cache_clear()
        eigenvalues._eigenmatrix_cached.cache_clear()
    assert eigenmatrix(params)[0] == tuple(xi_vector(params))


def test_tables_are_shared_tuples_of_the_integer_tables():
    params = make_scheme("skew", 2, t=4)  # c = 1/2: row 0 of gamma must not form c
    eigenvalues.tables.cache_clear()
    gauss_t, gamma_t = eigenvalues.tables(params)
    assert eigenvalues.tables(params) is eigenvalues.tables(make_scheme("skew", 2, t=4))
    for table, rows in ((gauss_t, gauss_rows(2, 4)), (gamma_t, gamma_rows(2, 4, Fraction(1, 2)))):
        assert type(table) is tuple and all(type(row) is tuple for row in table)
        assert list(map(list, table)) == rows
    em = eigenmatrix(params)
    assert type(em) is tuple and all(type(row) is tuple for row in em)


def test_each_scheme_builds_its_tables_once(monkeypatch):
    # every module of the package that binds a table builder counts its calls
    calls = Counter()
    for name in ("gauss_rows", "gamma_rows"):
        builder = getattr(bnary, name)

        def counted(*args, _name=name, _builder=builder):
            calls[_name] += 1
            return _builder(*args)

        for module in list(sys.modules.values()):
            if module.__name__.startswith("krawtchouk") and getattr(module, name, None) is builder:
                monkeypatch.setattr(module, name, counted)
    params = make_scheme("bilinear", 2, m=4, n=3)
    eigenvalues.tables.cache_clear()
    eigenvalues._eigenmatrix_cached.cache_clear()
    try:
        for _ in range(3):
            eigenmatrix(params)
            whole = TransformInput(xi_vector(params), params.space_size, params)
            transform_functional(whole)
            for phi in range(params.n + 1):
                assert moment_b(whole, phi)[0] == moment_b(whole, phi)[1]
                assert moment_binv(whole, phi)[0] == moment_binv(whole, phi)[1]
            assert maximal_distribution(params, 2, 2 ** 8)[0] == 1
    finally:
        eigenvalues.tables.cache_clear()
        eigenvalues._eigenmatrix_cached.cache_clear()
    assert calls == {"gauss_rows": 1, "gamma_rows": 1}


def test_check_recurrence_examples():
    assert check_recurrence(make_scheme("hamming", 2, n=3), 6) == []
    assert check_recurrence(make_scheme("hermitian", 2, t=2), 5) == []
    assert check_recurrence(make_scheme("skew", 3, t=4), 4) == []


def test_check_recurrence_rejects_bad_bound():
    with pytest.raises(ValueError):
        check_recurrence(SKEW2, 0)


def test_check_recurrence_evaluates_each_closed_form_once(monkeypatch):
    seen = Counter()

    def counted(k, x, n, b, c):
        seen[k, x, n] += 1
        return c_value(k, x, n, b, c)

    monkeypatch.setattr(eigenvalues, "c_value", counted)
    assert check_recurrence(make_scheme("skew", 2, t=5), 6) == []
    assert max(seen.values()) == 1
    # C_{n+1}(x, n) is evaluated, not assumed to vanish
    assert all((n + 1, x, n) in seen for n in range(6) for x in range(n + 1))


def test_c_table_evaluates_each_gaussian_and_gamma_once(monkeypatch):
    seen = {"gauss": Counter(), "gamma": Counter()}

    def counted(name, fn):
        def wrapper(*args):
            seen[name][args] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(eigenvalues, "gauss", counted("gauss", gauss))
    monkeypatch.setattr(eigenvalues, "gamma", counted("gamma", gamma))
    eigenvalues._gauss.cache_clear()
    eigenvalues._gamma.cache_clear()
    try:
        assert check_recurrence(make_scheme("hermitian", 2, t=3), 5) == []
        # c_value's sums over this table ask for 756 Gaussians, 42 of them distinct
        assert len(seen["gauss"]) == 42 and len(seen["gamma"]) == 28
        assert check_recurrence(make_scheme("skew", 2, t=5), 6) == []
        assert hermitian_recurrence_equiv(3, 5) == []
        assert max(seen["gauss"].values()) == max(seen["gamma"].values()) == 1
    finally:
        eigenvalues._gauss.cache_clear()
        eigenvalues._gamma.cache_clear()


def test_one_corrupt_closed_form_is_reported_where_it_enters(monkeypatch):
    def corrupt(k, x, n, b, c):
        value = c_value(k, x, n, b, c)
        return value + 1 if (k, x, n) == (2, 1, 3) else value

    monkeypatch.setattr(eigenvalues, "c_value", corrupt)
    # C_2(1, 3) is the left side at (n, x, k) = (2, 0, 1) and enters the
    # right side at (3, 1, 1) and (3, 1, 2); the Schmidt form also reads it
    # at (2, 1, 1)
    found = check_recurrence(make_scheme("hermitian", 2, t=4), 5)
    assert [v[:3] for v in found] == [(2, 0, 1), (3, 1, 1), (3, 1, 2)]
    assert all(lhs != rhs for *_, lhs, rhs in found)
    found = hermitian_recurrence_equiv(2, 5)
    assert [v[:3] for v in found] == [(2, 0, 1), (2, 1, 1), (3, 1, 1), (3, 1, 2)]
    assert all(not (lhs == schmidt == delsarte) for *_, lhs, schmidt, delsarte in found)


def test_recurrence_detects_wrong_base():
    # the recurrence with a deliberately perturbed base must fail somewhere
    from fractions import Fraction

    from krawtchouk.bnary import bpow

    b, c = Fraction(2), Fraction(3)
    bad = 0
    for n in range(1, 4):
        for x in range(n + 1):
            for k in range(n + 1):
                lhs = c_value(k + 1, x + 1, n + 1, b, c)
                rhs = bpow(b + 1, k + 1) * c_value(k + 1, x, n, b, c) - bpow(
                    b + 1, k
                ) * c_value(k, x, n, b, c)
                bad += lhs != rhs
    assert bad > 0


def test_raw_forms_match_at_generic_parameters():
    from fractions import Fraction

    for b, c in ((2, 3), (-2, Fraction(1, 2)), (3, Fraction(-2, 3)), (1, 5)):
        for n in range(6):
            for k in range(n + 1):
                for x in range(n + 1):
                    assert c_value(k, x, n, b, c) == delsarte_value(k, x, n, b, c)
