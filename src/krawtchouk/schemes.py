"""Catalog of the five concrete Krawtchouk association scheme families.

Each family is one record of FAMILIES, which make_scheme and the JSON form
read; no code here branches on the kind.
"""
from __future__ import annotations

from fractions import Fraction

from .bnary import check_int
from .eigenvalues import SchemeParams, tables


def _hamming(q, n):
    return 1, Fraction(q), n


def _rank_metric(q, m, n):
    if m < n:
        raise ValueError(f"bilinear and gabidulin schemes require m >= n, got m={m}, n={n}")
    return q, Fraction(q) ** (m - n), n


def _skew(q, t):
    check_int("dimension t", t, 2)
    c = Fraction(q) if t % 2 else Fraction(1, q)
    return q * q, c, t // 2


def _hermitian(q, t):
    return -q, Fraction(-1), t


# kind -> (dimension keys in dims order, exponent e of |X| = q^e as a function
# of the dims, rule (q, *dims) -> (b, c, n) with b an int and c a Fraction).
# Together they implement this parameter table:
#
#     kind        b     c                      classes n      |X|
#     hamming     1     q                      n              q^n
#     bilinear    q     q^(m-n), m >= n        n              q^(mn)
#     gabidulin   q     q^(m-n), m >= n        n              q^(mn)
#     skew        q^2   q (t odd), 1/q (even)  floor(t/2)     q^(t(t-1)/2)
#     hermitian   -q    -1                     t              q^(t^2)
#
# In every case |X| = (c b^n)^n exactly, which make_scheme asserts.
FAMILIES = {
    "hamming": (("n",), lambda n: n, _hamming),
    "bilinear": (("m", "n"), lambda m, n: m * n, _rank_metric),
    "gabidulin": (("m", "n"), lambda m, n: m * n, _rank_metric),
    "skew": (("t",), lambda t: t * (t - 1) // 2, _skew),
    "hermitian": (("t",), lambda t: t * t, _hermitian),
}
KINDS = tuple(FAMILIES)
MAX_SPACE_BITS = 16384  # |X| <= 2^MAX_SPACE_BITS
MAX_CLASSES = 64  # n <= MAX_CLASSES: the eigenmatrix is (n+1)^2 integers of ~log2|X| bits


def make_scheme(kind: str, q: int, **dims) -> SchemeParams:
    """Instantiate scheme parameters; dims are n=, m=/n= or t= per kind.

    kind must be a str that is exactly a FAMILIES key; it is not case-folded.
    q must be an integer >= 2; primality of q as a prime power matters only
    to the brute-force oracle, which validates it separately when building
    the underlying field.  The dimension keywords must be exactly the
    family's keys, each a positive integer, and |X| must not exceed
    2^MAX_SPACE_BITS; that bound is checked before any power of q is formed.
    The class count n must not exceed MAX_CLASSES.
    """
    if not isinstance(kind, str) or kind not in FAMILIES:
        raise ValueError(f"unknown scheme kind {kind!r}")
    check_int("q", q, 2)
    keys, exponent, rule = FAMILIES[kind]
    missing, extra = set(keys) - set(dims), set(dims) - set(keys)
    if missing or extra:
        raise ValueError(
            f"{kind} scheme: missing dimensions {sorted(missing)}, unexpected {sorted(extra)}"
        )
    raw = tuple(dims[key] for key in keys)
    for key, v in zip(keys, raw):
        check_int(f"dimension {key}", v, 1)
    e = exponent(*raw)
    # q >= 2^(bits-1), so the first test rejects without forming q^e; once it
    # passes, q^e < 2^(2 MAX_SPACE_BITS) is cheap to form and compare exactly.
    if e * (q.bit_length() - 1) > MAX_SPACE_BITS or (size := q ** e) > 1 << MAX_SPACE_BITS:
        raise ValueError(f"space size exceeds the supported 2^{MAX_SPACE_BITS}")
    b, c, n = rule(q, *raw)
    if n > MAX_CLASSES:
        raise ValueError(f"class count {n} exceeds the supported {MAX_CLASSES}")
    params = SchemeParams(kind=kind, q=q, dims=raw, b=b, c=c, n=n, space_size=size)
    assert params.cbn() ** n == size, "space size must equal (c b^n)^n"
    return params


def xi(params: SchemeParams, omega: int) -> int:
    """Number of ambient elements of weight omega: [n,w]_b * gamma(n,w)."""
    return xi_vector(params)[check_int("omega", omega, 0, params.n)]


def xi_vector(params: SchemeParams) -> list:
    """The weight counts xi(0..n), read off row n of the integer tables."""
    gauss_m, gamma_m = tables(params)
    counts = [g * h for g, h in zip(gauss_m[params.n], gamma_m[params.n])]
    for omega, count in enumerate(counts):
        if count < 0:
            raise ArithmeticError(f"negative weight count {count} at omega={omega}")
    return counts


def omega_enumerator(params: SchemeParams) -> ConstPoly:
    """Weight enumerator of the full space, cross-checked two ways.

    The coefficients are the weight counts xi; they must agree with the
    closed-form power of the fundamental polynomial evaluated at the class
    count, and sum to |X|.
    """
    # the one user of the b-algebra here; importing it with the module would
    # make every CLI process compile it
    from .balgebra import ConstPoly, mu_family

    counts = xi_vector(params)
    mu_n = mu_family(params.n, params.b, params.c)
    for w, count in enumerate(counts):
        if mu_n.coeff(w, params.n) != count:
            raise ArithmeticError(
                f"enumerator cross-check failed at weight {w}: "
                f"{mu_n.coeff(w, params.n)} != {count}"
            )
    if sum(counts) != params.space_size:
        raise ArithmeticError("weight counts do not partition the space")
    return ConstPoly(counts)


def scheme_to_json(params: SchemeParams) -> dict:
    """JSON form {"kind": ..., "q": ..., dims...} accepted back by scheme_from_json."""
    keys = FAMILIES[params.kind][0]
    return {"kind": params.kind, "q": params.q, **dict(zip(keys, params.dims))}


def scheme_from_json(obj: dict) -> SchemeParams:
    if not isinstance(obj, dict) or "kind" not in obj or "q" not in obj:
        raise ValueError("scheme spec needs 'kind' and 'q'")
    dims = {k: v for k, v in obj.items() if k not in ("kind", "q")}
    return make_scheme(obj["kind"], obj["q"], **dims)
