"""Acceptance criteria, one test per criterion, all comparisons exact.

Every criterion prints a single pass line (visible with pytest -s); a
failure surfaces as the corresponding test failing.  Randomised criteria
use fixed seeds so the corpus is reproducible.
"""
import functools
import random
import re
from fractions import Fraction

import pytest

from krawtchouk import eigenvalues, macwilliams
from krawtchouk.balgebra import b_product, mu_family
from krawtchouk.bnary import beta, bpow, gamma, gauss, is_int, sigma
from krawtchouk.eigenvalues import (
    c_poly,
    check_recurrence,
    delsarte_p,
    eigenmatrix,
    hermitian_recurrence_equiv,
)
from krawtchouk.macwilliams import (
    TransformInput,
    UnrealizableDistribution,
    maximal_distribution,
    moment_b,
    moment_binv,
    transform_eigen,
    transform_functional,
)
from krawtchouk.oracle import (
    SPACE_GUARD,
    CodeSpec,
    char_eigenvalue,
    dual_code,
    random_code,
    verify_scheme_axioms,
    weight_distribution,
)
from krawtchouk.schemes import FAMILIES, make_scheme, xi_vector

from bcalculus import (
    NU_LINEAR,
    b_derivative,
    b_power,
    binv_derivative,
    evaluate,
    mu_linear,
    nu_family,
    poly_sum,
    scale,
)
from conftest import (
    BASES,
    delta_closed,
    delta_sum,
    desk_schemes,
    epsilon_closed,
    epsilon_sum,
    forward_triangular,
    invert_triangular,
    polys_equal,
    rand_const_poly,
    shift_param,
)


def _report(number, text):
    print(f"criterion {number}: PASS - {text}")


def _all_kind_schemes(q_values=(2, 3)):
    out = []
    for q in q_values:
        for n in range(1, 6):
            out.append(make_scheme("hamming", q, n=n))
            for m in (n, n + 1):
                out.append(make_scheme("bilinear", q, m=m, n=n))
                out.append(make_scheme("gabidulin", q, m=m, n=n))
        for t in range(2, 12):
            out.append(make_scheme("skew", q, t=t))
        for t in range(1, 6):
            out.append(make_scheme("hermitian", q, t=t))
    return out


CHAR2_PARAMS = (
    [make_scheme("hamming", 2, n=n) for n in range(1, 7)]
    + [
        make_scheme("bilinear", 2, m=2, n=2),
        make_scheme("bilinear", 2, m=3, n=2),
        make_scheme("gabidulin", 2, m=2, n=2),
        make_scheme("skew", 2, t=4),
        make_scheme("hermitian", 2, t=2),
        make_scheme("hermitian", 2, t=3),
    ]
)

CORPUS_PARAMS = [
    make_scheme("hamming", 2, n=6),
    make_scheme("hamming", 3, n=6),
    make_scheme("bilinear", 2, m=2, n=2),
    make_scheme("bilinear", 2, m=3, n=2),
    make_scheme("gabidulin", 2, m=2, n=2),
    make_scheme("skew", 2, t=4),
    make_scheme("hermitian", 2, t=2),
    make_scheme("hermitian", 2, t=3),
]

CODES_PER_SCHEME = 20


@pytest.fixture(scope="module")
def code_corpus():
    """Seeded random code/dual pairs with brute-forced distributions."""
    rng = random.Random(1729)
    corpus = []
    for params in CORPUS_PARAMS:
        for _ in range(CODES_PER_SCHEME):
            code = random_code(params, rng)
            dist = weight_distribution(code)
            dual_dist = weight_distribution(dual_code(code))
            corpus.append((params, code, dist, dual_dist))
    return corpus


# one scheme per family at q=4 with n in 8..11, the eigenmatrix sizes of
# the benchmark's CLI decks
Q4_DECK_SIZES = [
    make_scheme("hamming", 4, n=11),
    make_scheme("bilinear", 4, m=10, n=9),
    make_scheme("gabidulin", 4, m=8, n=8),
    make_scheme("skew", 4, t=21),
    make_scheme("hermitian", 4, t=10),
]


def test_criterion_01_eigenvalue_form_equality():
    # the eigenmatrix is built by the recurrence; both closed forms must
    # reproduce every entry
    compared = 0
    for params in _all_kind_schemes() + Q4_DECK_SIZES:
        em = eigenmatrix(params)
        for k in range(params.n + 1):
            for x in range(params.n + 1):
                assert em[x][k] == c_poly(k, x, params) == delsarte_p(k, x, params)
                compared += 1
    _report(1, f"eigenmatrix and both forms agree on {compared} (k, x, scheme) triples")


def test_criterion_02_table_one_reproduction():
    expected = {2: 3, 3: 17, 5: 99}
    for q, value in expected.items():
        params = make_scheme("skew", q, t=4)
        assert c_poly(1, 1, params) == value == q ** 3 - q ** 2 - 1
    _report(2, "skew C_1(1,2) = q^3 - q^2 - 1 at q in {2, 3, 5}")


def test_criterion_03_recurrence_suites():
    for q in (2, 3):
        for params in (
            make_scheme("hamming", q, n=5),
            make_scheme("bilinear", q, m=5, n=5),
            make_scheme("gabidulin", q, m=6, n=5),
            make_scheme("skew", q, t=10),
            make_scheme("skew", q, t=11),
            make_scheme("hermitian", q, t=5),
        ):
            assert check_recurrence(params, 6) == []
        assert hermitian_recurrence_equiv(q, 5) == []
    _report(3, "defining recurrence and both Hermitian recurrences hold exactly")


def test_criterion_04_structural_eigenmatrix_checks():
    checked = 0
    for params in _all_kind_schemes():
        if params.n > 4:
            continue
        em = eigenmatrix(params)
        v = xi_vector(params)
        m = params.n + 1
        size = params.space_size
        assert list(em[0]) == v
        assert all(row[0] == 1 for row in em)
        for i in range(m):
            for j in range(m):
                assert sum(em[i][t] * em[t][j] for t in range(m)) == (
                    size if i == j else 0
                )
        for k in range(m):
            for ell in range(m):
                total = sum(v[i] * em[i][k] * em[i][ell] for i in range(m))
                assert total == (size * v[k] if k == ell else 0)
        checked += 1
    _report(4, f"row/column structure, involution and orthogonality on {checked} schemes")


# one small scheme per family for the corruption sweeps
SMALL_PER_FAMILY = [
    make_scheme("hamming", 3, n=4),
    make_scheme("bilinear", 2, m=4, n=3),
    make_scheme("gabidulin", 3, m=3, n=3),
    make_scheme("skew", 2, t=7),
    make_scheme("hermitian", 2, t=4),
]

PP_FAILS = re.escape("P·P = |X|·I")


def _moved(rows, x, k, delta, k_back=None):
    """rows with delta added at [x][k], and taken back at [x][k_back] if given."""
    out = [list(row) for row in rows]
    out[x][k] += delta
    if k_back is not None:
        out[x][k_back] -= delta
    return tuple(map(tuple, out))


def test_eigenmatrix_invariants_hold_on_every_scheme():
    for params in _all_kind_schemes() + Q4_DECK_SIZES:
        eigenvalues._check_invariants(eigenmatrix(params), params)


def test_eigenmatrix_invariants_reject_interior_corruption():
    rejected = 0
    for params in SMALL_PER_FAMILY:
        em = eigenmatrix(params)
        for x in range(1, params.n + 1):
            for k in range(1, params.n + 1):
                for delta in (1, -1):
                    with pytest.raises(ArithmeticError, match=PP_FAILS):
                        eigenvalues._check_invariants(_moved(em, x, k, delta), params)
                    rejected += 1
    assert rejected == 2 * sum(p.n ** 2 for p in SMALL_PER_FAMILY)


def test_each_eigenmatrix_invariant_rejects_on_its_own():
    # each corruption keeps the row sums where it can, so that the named
    # invariant is the one that fires
    params = make_scheme("hamming", 3, n=4)
    em = eigenmatrix(params)
    for rows, fault in (
        (_moved(em, 2, 0, 1, k_back=1), "column 0 is not 1 in row 2"),
        (_moved(em, 0, 2, 1), "row 0 has the wrong sum"),
        (_moved(em, 3, 3, 1), "row 3 has the wrong sum"),
        (_moved(em, 2, 2, 1, k_back=1), "reciprocity at (2, 1)"),
        (_moved(em, 1, 1, 1, k_back=3), "reciprocity at (3, 1)"),
    ):
        with pytest.raises(ArithmeticError, match=PP_FAILS + ": " + re.escape(fault) + "$"):
            eigenvalues._check_invariants(rows, params)


def test_criterion_05_first_principles_eigenvalues():
    # every characteristic: the desk spaces within the guard, plus q = 5 and
    # q = 9 (a proper extension of F_3, so the absolute trace is not the identity)
    odd = [make_scheme("hamming", 5, n=3), make_scheme("hamming", 9, n=3)]
    desk = [p for p in desk_schemes() if p.space_size <= SPACE_GUARD]
    pairs = 0
    for params in dict.fromkeys(CHAR2_PARAMS + desk + odd):
        for k in range(params.n + 1):
            for x in range(params.n + 1):
                assert char_eigenvalue(params, k, x) == c_poly(k, x, params)
                pairs += 1
    _report(5, f"character sums equal the eigenvalue polynomials on {pairs} (k, x) pairs")


def test_criterion_06_macwilliams_oracle_equivalence(code_corpus):
    for params, code, dist, dual_dist in code_corpus:
        tin = TransformInput(dist=tuple(dist), code_size=code.code_size, params=params)
        assert transform_eigen(tin) == dual_dist
        assert transform_functional(tin) == dual_dist
    _report(
        6,
        f"both transform routes equal brute-forced duals on {len(code_corpus)} codes "
        f"({CODES_PER_SCHEME} per parameter set)",
    )


def test_functional_transform_matches_b_product_per_weight(monkeypatch):
    # The integer route against the b-algebra it expands: (X-Y)^[i] *
    # (X + (c b^lambda - 1)Y)^[n-i] at lambda = n.  Each weight i is checked
    # alone (the unit distribution with |C| = 1, division bypassed), so a wrong
    # sign or power in one term cannot cancel against another.
    monkeypatch.setattr(macwilliams, "_as_counts", lambda totals, size: list(totals))
    for params in _all_kind_schemes() + Q4_DECK_SIZES:
        n, b, c = params.n, params.b, params.c
        for i in range(n + 1):
            unit = [0] * (n + 1)
            unit[i] = 1
            got = transform_functional(TransformInput(unit, 1, params))
            prod = b_product(nu_family(i, b), mu_family(n - i, b, c), b)
            assert got == [prod.coeff(k, n) for k in range(n + 1)], (params, i)


@pytest.mark.parametrize(
    "params, dist, size, value",
    [
        (make_scheme("hamming", 2, n=3), (1, 3, 0, 0), 4, "3/2"),
        (make_scheme("hamming", 2, n=3), (0, 0, 0, 1), 1, "-3"),
        (make_scheme("hamming", 2, n=3), (0, 0, 1, 3), 4, "-5/2"),
        (make_scheme("skew", 2, t=4), (0, 0, 2), 2, "-5"),
    ],
    ids=["fraction", "negative", "negative-fraction", "skew-even-t"],
)
def test_functional_transform_rejects_unrealizable(params, dist, size, value):
    message = (
        f"dual count at weight 1 is {value}; input is not the weight "
        "distribution of a linear code in this scheme"
    )
    tin = TransformInput(dist, size, params)
    for transform in (transform_functional, transform_eigen):
        with pytest.raises(UnrealizableDistribution, match=f"^{re.escape(message)}$"):
            transform(tin)


# The Fraction bodies of moment_b, moment_binv and maximal_distribution from
# before the integer tables: the references that the integer sums must
# reproduce value for value, type for type and message for message.  The
# Gaussian coefficients are memoised only to keep the sweep fast.
_ref_gauss = functools.lru_cache(maxsize=None)(gauss)


def _fraction_moment_b(tin, phi):
    params = tin.params
    n, b = params.n, params.b
    if not is_int(phi) or not 0 <= phi <= n:
        raise ValueError(f"phi must be an integer in 0..{n}, got {phi!r}")
    dual = transform_eigen(tin)
    lhs = sum(
        (_ref_gauss(n - i, phi, b) * tin.dist[i] for i in range(n - phi + 1)),
        Fraction(0),
    )
    tail = sum(
        (_ref_gauss(n - i, n - phi, b) * dual[i] for i in range(phi + 1)), Fraction(0)
    )
    rhs = params.cbn() ** (n - phi) * tail / tin.dual_size()
    return lhs, rhs


def _fraction_moment_binv(tin, phi):
    params = tin.params
    n, b, c = params.n, params.b, params.c
    if not is_int(phi) or not 0 <= phi <= n:
        raise ValueError(f"phi must be an integer in 0..{n}, got {phi!r}")
    dual = transform_eigen(tin)
    lhs = sum(
        (
            bpow(b, phi * (n - i)) * _ref_gauss(i, phi, b) * tin.dist[i]
            for i in range(phi, n + 1)
        ),
        Fraction(0),
    )
    tail = Fraction(0)
    for i in range(phi + 1):
        term = (
            bpow(b, sigma(i) + i * (phi - i))
            * _ref_gauss(n - i, n - phi, b)
            * gamma(n - i, phi - i, b, c)
            * dual[i]
        )
        tail += -term if i % 2 else term
    rhs = params.cbn() ** (n - phi) * tail / tin.dual_size()
    return lhs, rhs


def _fraction_maximal(params, d_s, code_size):
    n, b = params.n, params.b
    if not is_int(d_s) or not 1 <= d_s <= n + 1:
        raise ValueError(f"d_s must be an integer in 1..{n + 1}, got {d_s!r}")
    if not is_int(code_size):
        raise ValueError(f"code size must be an integer, got {code_size!r}")
    if code_size < 1 or params.space_size % code_size:
        raise ValueError("code size must divide the space size")
    dual_size = params.space_size // code_size
    cbn = params.cbn()

    counts = [Fraction(0)] * (n + 1)
    counts[0] = Fraction(1)
    for w in range(n - d_s + 1):
        total = Fraction(0)
        for i in range(w + 1):
            term = (
                bpow(b, sigma(w - i))
                * _ref_gauss(d_s + w, d_s + i, b)
                * _ref_gauss(n, d_s + w, b)
                * (cbn ** (d_s + i) / dual_size - 1)
            )
            total += -term if (w - i) % 2 else term
        counts[d_s + w] = total
    try:
        out = macwilliams._as_counts(counts)
        if sum(out) != code_size:
            raise UnrealizableDistribution(f"counts sum to {sum(out)}, expected {code_size}")
        if d_s <= n and not out[d_s]:
            raise UnrealizableDistribution(f"the count at weight {d_s} is 0")
        # the certificate's dual, c P / |C| in Fractions
        rows = eigenmatrix(params)
        dual = macwilliams._as_counts(
            sum((Fraction(ci) * row[k] for ci, row in zip(out, rows)), Fraction(0)) / code_size
            for k in range(n + 1)
        )
        for k in range(1, n + 2 - d_s):
            if dual[k]:
                raise UnrealizableDistribution(
                    f"the dual has {dual[k]} words of weight {k}, below d' = {n + 2 - d_s}"
                )
    except UnrealizableDistribution as exc:
        raise UnrealizableDistribution(
            f"no maximal code with d_s={d_s}, |C|={code_size} in this scheme: {exc}"
        ) from None
    return out


def _outcome(fn, *args):
    """A call's values with their types, or its error type and message."""
    try:
        values = fn(*args)
    except ValueError as exc:  # UnrealizableDistribution included
        return type(exc), str(exc)
    return values, [type(v) for v in values]


LARGE_SKEW = [make_scheme("skew", 2, t=32), make_scheme("skew", 2, t=33)]


def test_integer_moments_and_maximal_match_fraction_reference():
    pinned = 0
    for params in _all_kind_schemes() + Q4_DECK_SIZES + LARGE_SKEW:
        n, q = params.n, params.q
        e = FAMILIES[params.kind][1](*params.dims)  # |X| = q^e = (c b^n)^n
        if e > 64:
            # every k would cost the Fraction reference 30 s; keep the powers
            # of c b^n = q^(e/n), where the MRD-like codes lie
            # (|C'| = (c b^n)^(d_s - 1)), and the sizes a factor q above them
            ks = sorted({j * e // n + d for j in range(n + 1) for d in (0, 1)})
        else:
            ks = range(e + 1)
        realizable = []
        for d_s in range(n + 3):
            for k in ks:
                if not 0 <= k <= e:
                    continue
                got = _outcome(maximal_distribution, params, d_s, q ** k)
                assert got == _outcome(_fraction_maximal, params, d_s, q ** k), (params, d_s, k)
                if not isinstance(got[0], type) and len(realizable) < 3:
                    realizable.append((got[0], q ** k))
                pinned += 1
        inputs = [((1,) + (0,) * n, 1), (xi_vector(params), params.space_size), *realizable]
        for dist, size in inputs:
            tin = TransformInput(dist, size, params)
            for phi in range(-1, n + 2):
                for fn, ref in ((moment_b, _fraction_moment_b), (moment_binv, _fraction_moment_binv)):
                    got = _outcome(fn, tin, phi)
                    assert got == _outcome(ref, tin, phi), (params, dist, phi, fn.__name__)
                    pinned += 1
    _report("pin", f"{pinned} integer moment and maximal-code outcomes equal the Fraction forms")


def test_criterion_07_named_codes():
    ham7 = make_scheme("hamming", 2, n=7)
    hamming_74 = CodeSpec(
        params=ham7,
        generators=(
            (1, 0, 0, 0, 0, 1, 1),
            (0, 1, 0, 0, 1, 0, 1),
            (0, 0, 1, 0, 1, 1, 0),
            (0, 0, 0, 1, 1, 1, 1),
        ),
    )
    dist = weight_distribution(hamming_74)
    assert dist == [1, 0, 0, 7, 7, 0, 0, 1]
    simplex = weight_distribution(dual_code(hamming_74))
    assert simplex == [1, 0, 0, 0, 7, 0, 0, 0]
    tin = TransformInput(dist=tuple(dist), code_size=16, params=ham7)
    assert transform_eigen(tin) == transform_functional(tin) == simplex

    for n in range(3, 8):
        params = make_scheme("hamming", 2, n=n)
        rep = CodeSpec(params=params, generators=((1,) * n,))
        rep_dist = weight_distribution(rep)
        assert rep_dist == [1] + [0] * (n - 1) + [1]
        even = weight_distribution(dual_code(rep))
        assert all(c == 0 for i, c in enumerate(even) if i % 2)
        tin = TransformInput(dist=tuple(rep_dist), code_size=2, params=params)
        assert transform_eigen(tin) == transform_functional(tin) == even
    _report(7, "[7,4] Hamming <-> simplex and repetition <-> even-weight distributions")


def test_criterion_08_moment_identities(code_corpus):
    balanced = 0
    corollaries = 0
    for params, code, dist, dual_dist in code_corpus:
        n, b, c = params.n, params.b, params.c
        tin = TransformInput(dist=tuple(dist), code_size=code.code_size, params=params)
        dual_size = tin.dual_size()
        d_dual = next((i for i in range(1, n + 1) if dual_dist[i]), n + 1)
        for phi in range(n + 1):
            lhs, rhs = moment_b(tin, phi)
            assert lhs == rhs
            lhs2, rhs2 = moment_binv(tin, phi)
            assert lhs2 == rhs2
            balanced += 2
            if phi < d_dual:
                assert rhs == params.cbn() ** (n - phi) * gauss(n, phi, b) / dual_size
                assert rhs2 == params.cbn() ** (n - phi) * gauss(n, phi, b) * gamma(
                    n, phi, b, c
                ) / dual_size
                corollaries += 2
        # swapping the roles of code and dual must balance as well
        tin_dual = TransformInput(
            dist=tuple(dual_dist), code_size=dual_size, params=params
        )
        for phi in range(n + 1):
            lhs, rhs = moment_b(tin_dual, phi)
            assert lhs == rhs
            balanced += 1
        if params.kind == "hamming":
            diameter = max(i for i in range(n + 1) if dual_dist[i])
            if diameter < n:
                q = params.q
                total = sum(
                    (-1) ** i * (q - 1) ** (n - i) * dist[i] for i in range(n + 1)
                )
                assert total == 0
                corollaries += 1
    _report(
        8,
        f"{balanced} moment identities balanced and {corollaries} corollary forms held",
    )


def test_criterion_09_algebra_property_suite():
    rng = random.Random(271828)
    lam_window = range(-2, 7)

    instances = 0
    for _ in range(50):
        b = rng.choice(BASES)
        r, s = rng.randint(0, 5), rng.randint(0, 5)
        f, g = rand_const_poly(rng, r), rand_const_poly(rng, s)
        prod = b_product(f, g, b)
        for phi in range(5):
            lhs = b_derivative(prod, phi, b)
            terms = [
                scale(
                    b_product(b_derivative(f, ell, b), b_derivative(g, phi - ell, b), b),
                    gauss(phi, ell, b) * bpow(b, (phi - ell) * (r - ell)),
                )
                for ell in range(phi + 1)
                if ell <= r and phi - ell <= s
            ]
            if terms:
                assert polys_equal(lhs, poly_sum(terms), lam_window)
            else:
                assert all(not any(lhs.coeffs_at(l)) for l in lam_window)
            instances += 1
    assert instances >= 200

    instances = 0
    for _ in range(50):
        b = rng.choice(BASES)
        r, s = rng.randint(0, 5), rng.randint(0, 5)
        f, g = rand_const_poly(rng, r), rand_const_poly(rng, s)
        prod = b_product(f, g, b)
        for phi in range(5):
            lhs = binv_derivative(prod, phi, b)
            terms = [
                scale(
                    b_product(
                        binv_derivative(f, ell, b),
                        shift_param(binv_derivative(g, phi - ell, b), -ell),
                        b,
                    ),
                    gauss(phi, ell, b) * bpow(b, ell * (s - phi + ell)),
                )
                for ell in range(phi + 1)
                if ell <= r and phi - ell <= s
            ]
            if terms:
                assert polys_equal(lhs, poly_sum(terms), lam_window)
            else:
                assert all(not any(lhs.coeffs_at(l)) for l in lam_window)
            instances += 1
    assert instances >= 200

    c_values = (Fraction(3), Fraction(1, 2), Fraction(-1), Fraction(-2, 3))
    closed_form_checks = [0, 0, 0, 0]
    for b, c in zip(BASES, c_values):
        for k in range(7):
            assert polys_equal(mu_family(k, b, c), b_power(mu_linear(b, c), k, b), range(0, 7))
            assert polys_equal(nu_family(k, b), b_power(NU_LINEAR, k, b), range(0, 7))
            for phi in range(k + 1):
                got = b_derivative(mu_family(k, b, c), phi, b)
                assert polys_equal(got, scale(mu_family(k - phi, b, c), beta(k, phi, b)), lam_window)
                closed_form_checks[0] += len(lam_window)

                got = b_derivative(nu_family(k, b), phi, b)
                assert polys_equal(got, scale(nu_family(k - phi, b), beta(k, phi, b)), lam_window)
                closed_form_checks[1] += len(lam_window)

                got = binv_derivative(mu_family(k, b, c), phi, b)
                shifted = shift_param(mu_family(k - phi, b, c), -phi)
                factor = bpow(b, -sigma(phi)) * beta(k, phi, b)
                for lam in lam_window:
                    want = tuple(
                        factor * gamma(lam, phi, b, c) * shifted.coeff(u, lam)
                        for u in range(k - phi + 1)
                    )
                    assert got.coeffs_at(lam) == want
                closed_form_checks[2] += len(lam_window)

                got = binv_derivative(nu_family(k, b), phi, b)
                want = scale(nu_family(k - phi, b), (-1) ** phi * beta(k, phi, b))
                assert polys_equal(got, want, lam_window)
                closed_form_checks[3] += len(lam_window)
    assert all(v >= 200 for v in closed_form_checks)

    evaluations = 0
    for b in BASES:
        for j in range(7):
            for ell in range(j + 1):
                value = evaluate(b_derivative(nu_family(j, b), ell, b), 1, 1, 3)
                assert value == (beta(j, j, b) if ell == j else 0)
                evaluations += 1
    for b, c in zip(BASES, c_values):
        for _ in range(50):
            rho = rand_const_poly(rng, rng.randint(0, 4))
            s = rng.randint(0, 4)
            lam = rng.randint(0, 6)
            got = evaluate(b_product(rho, mu_family(s, b, c), b), 1, 1, lam)
            assert got == (Fraction(c) * bpow(b, lam)) ** s * evaluate(rho, 1, 1, lam)
            evaluations += 1
    assert evaluations >= 200

    lemma_checks = 0
    for b, c in zip(BASES, c_values):
        for lam in range(0, 9):
            for phi in range(6):
                for j in range(phi + 1):
                    assert delta_sum(lam, phi, j, b, c) == delta_closed(lam, phi, j, b, c)
                    lemma_checks += 1
        for big_lam in range(0, 9):
            for phi in range(min(big_lam, 5) + 1):
                for i in range(phi + 1):
                    assert epsilon_sum(big_lam, phi, i, b) == epsilon_closed(big_lam, phi, i, b)
                    lemma_checks += 1
    assert lemma_checks >= 400

    combinatorics = 0
    for _ in range(250):
        b = rng.choice(BASES + (4,))
        x = rng.randint(0, 8)
        k = rng.randint(0, x)
        i = rng.randint(0, x - k)
        assert gauss(x, k, b) == gauss(x, x - k, b)
        assert gauss(x, i, b) * gauss(x - i, k, b) == gauss(x, k, b) * gauss(x - k, i, b)
        assert beta(x, k, b) == gauss(x, k, b) * beta(k, k, b)
        assert beta(x, k, b) * beta(x - k, 1, b) == beta(x, k + 1, b)
        y = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        assert sum(
            (-1) ** (x - j) * bpow(b, sigma(x - j)) * gauss(x, j, b) * y ** j
            for j in range(x + 1)
        ) == _falling_product(y, x, b)
        combinatorics += 1
    assert combinatorics >= 200

    _report(9, "Leibniz rules, closed forms, evaluation and delta/epsilon lemmas, "
               "and the combinatorial identity list, each on 200+ exact instances")


def _falling_product(y, x, b):
    prod = Fraction(1)
    for i in range(x):
        prod *= y - bpow(b, i)
    return prod


def test_criterion_10_maximal_codes():
    tetra_params = make_scheme("hamming", 3, n=4)
    tetracode = CodeSpec(params=tetra_params, generators=((1, 1, 1, 0), (0, 1, 2, 1)))
    brute = weight_distribution(tetracode)
    assert brute == [1, 0, 0, 8, 0]
    assert maximal_distribution(tetra_params, 3, 9) == brute

    mrd_params = make_scheme("gabidulin", 2, m=2, n=2)
    mrd = CodeSpec(params=mrd_params, generators=((1, 2),))
    brute = weight_distribution(mrd)
    assert brute == [1, 0, 3]
    assert maximal_distribution(mrd_params, 2, 4) == brute

    rng = random.Random(31415)
    round_trips = 0
    for _ in range(100):
        b = rng.choice((-2, 2, 3))
        ell = rng.randint(0, 6)
        y = [Fraction(rng.randint(-9, 9)) for _ in range(ell + 1)]
        assert invert_triangular(forward_triangular(y, b), b) == y
        round_trips += 1
    assert round_trips == 100
    _report(10, "maximal-code formula matches brute force; 100 inversion round trips")


def test_criterion_11_scheme_axioms():
    for params in (
        make_scheme("hamming", 2, n=3),
        make_scheme("bilinear", 2, m=2, n=2),
        make_scheme("hermitian", 2, t=2),
        make_scheme("skew", 2, t=4),
    ):
        report = verify_scheme_axioms(params)
        assert report["ok"], report["violations"]
    _report(11, "association scheme axioms verified on all four desk-scale spaces")
