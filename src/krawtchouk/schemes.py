"""Catalog of the five concrete Krawtchouk association scheme families.

Each family is one record of FAMILIES, which make_scheme and the JSON form
read; no code here branches on the kind.
"""
from __future__ import annotations

from fractions import Fraction

from .bnary import bpow, gamma_rows, gauss_rows, is_int
from .eigenvalues import SchemeParams, c_value


def _hamming(q, n):
    return Fraction(1), Fraction(q), n


def _rank_metric(q, m, n):
    if m < n:
        raise ValueError(f"bilinear and gabidulin schemes require m >= n, got m={m}, n={n}")
    return Fraction(q), Fraction(q) ** (m - n), n


def _skew(q, t):
    if t < 2:
        raise ValueError("skew scheme needs t >= 2")
    c = Fraction(q) if t % 2 else Fraction(1, q)
    return Fraction(q) ** 2, c, t // 2


def _hermitian(q, t):
    return Fraction(-q), Fraction(-1), t


# kind -> (dimension keys in dims order, exponent e of |X| = q^e as a function
# of the dims, rule (q, *dims) -> (b, c, n)).  Together they implement this
# parameter table:
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


def make_scheme(kind: str, q: int, **dims) -> SchemeParams:
    """Instantiate scheme parameters; dims are n=, m=/n= or t= per kind.

    q must be an integer >= 2; primality of q as a prime power matters only
    to the brute-force oracle, which validates it separately when building
    the underlying field.  The dimension keywords must be exactly the
    family's keys, each a positive integer, and |X| must not exceed
    2^MAX_SPACE_BITS; that bound is checked before any power of q is formed.
    """
    kind = kind.lower()
    if kind not in FAMILIES:
        raise ValueError(f"unknown scheme kind {kind!r}")
    if not is_int(q) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")
    keys, exponent, rule = FAMILIES[kind]
    missing, extra = set(keys) - set(dims), set(dims) - set(keys)
    if missing or extra:
        raise ValueError(
            f"{kind} scheme: missing dimensions {sorted(missing)}, unexpected {sorted(extra)}"
        )
    raw = tuple(dims[key] for key in keys)
    for key, v in zip(keys, raw):
        if not is_int(v) or v < 1:
            raise ValueError(f"dimension {key} must be a positive integer, got {v!r}")
    e = exponent(*raw)
    # q >= 2^(bits-1), so the first test rejects without forming q^e; once it
    # passes, q^e < 2^(2 MAX_SPACE_BITS) is cheap to form and compare exactly.
    if e * (q.bit_length() - 1) > MAX_SPACE_BITS or (size := q ** e) > 1 << MAX_SPACE_BITS:
        raise ValueError(f"space size exceeds the supported 2^{MAX_SPACE_BITS}")
    b, c, n = rule(q, *raw)
    params = SchemeParams(kind=kind, q=q, dims=raw, b=b, c=c, n=n, space_size=size)
    assert params.cbn() ** n == size, "space size must equal (c b^n)^n"
    return params


def xi(params: SchemeParams, omega: int) -> int:
    """Number of ambient elements of weight omega: [n,w]_b * gamma(n,w)."""
    if not is_int(omega) or not 0 <= omega <= params.n:
        raise ValueError(f"omega must be an integer in 0..{params.n}, got {omega!r}")
    return xi_vector(params)[omega]


def xi_vector(params: SchemeParams) -> list:
    """The weight counts xi(0..n), read off row n of the integer tables."""
    n, b = params.n, params.b
    gauss_n, gamma_n = gauss_rows(n, b)[n], gamma_rows(n, b, params.c)[n]
    counts = [g * h for g, h in zip(gauss_n, gamma_n)]
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
    return make_scheme(str(obj["kind"]), obj["q"], **dims)


def hermitian_recurrence_equiv(q: int, t_max: int) -> list:
    """Check the two Hermitian recurrences agree exactly, value for value.

    For b = -q, c = -1 and all 0 <= x, k <= t < t_max this verifies both
        C_{k+1}(x+1, t+1) = C_{k+1}(x, t+1) + b^(2t+1-x) C_k(x, t)
        C_{k+1}(x+1, t+1) = b^(k+1) C_{k+1}(x, t) - b^k C_k(x, t)
    and that the two right-hand sides match term for term.  Returns the
    violation list (expected empty).
    """
    if t_max < 2:
        raise ValueError("t_max must be >= 2")
    b = Fraction(-q)
    c = Fraction(-1)
    violations = []
    for t in range(t_max):
        for x in range(t + 1):
            for k in range(t + 1):
                lhs = c_value(k + 1, x + 1, t + 1, b, c)
                schmidt = c_value(k + 1, x, t + 1, b, c) + bpow(
                    b, 2 * t + 1 - x
                ) * c_value(k, x, t, b, c)
                delsarte = bpow(b, k + 1) * c_value(k + 1, x, t, b, c) - bpow(
                    b, k
                ) * c_value(k, x, t, b, c)
                if not (lhs == schmidt == delsarte):
                    violations.append((t, x, k, lhs, schmidt, delsarte))
    return violations
