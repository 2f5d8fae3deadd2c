"""Catalog of the four concrete Krawtchouk association scheme families.

The parameter table:

    kind        b     c                      classes n      |X|
    hamming     1     q                      n              q^n
    bilinear    q     q^(m-n), m >= n        n              q^(mn)
    gabidulin   q     q^(m-n), m >= n        n              q^(mn)
    skew        q^2   q (t odd), 1/q (even)  floor(t/2)     q^(t(t-1)/2)
    hermitian   -q    -1                     t              q^(t^2)

In every case |X| = (c b^n)^n exactly, which is asserted at construction.
"""
from __future__ import annotations

from fractions import Fraction

from .balgebra import ConstPoly, mu_family
from .bnary import as_int, bpow, gamma, gauss, is_int
from .eigenvalues import SchemeParams, c_value

KINDS = ("hamming", "bilinear", "gabidulin", "skew", "hermitian")


def make_scheme(kind: str, q: int, **dims) -> SchemeParams:
    """Instantiate scheme parameters; dims are n=, m=/n= or t= per kind.

    q must be an integer >= 2; primality of q as a prime power matters only
    to the brute-force oracle, which validates it separately when building
    the underlying field.
    """
    kind = kind.lower()
    if kind not in KINDS:
        raise ValueError(f"unknown scheme kind {kind!r}")
    if not is_int(q) or q < 2:
        raise ValueError(f"q must be an integer >= 2, got {q!r}")

    if kind == "hamming":
        n = _pos_int(dims, "n")
        b, c = Fraction(1), Fraction(q)
        raw = (n,)
        size = q ** n
    elif kind in ("bilinear", "gabidulin"):
        m = _pos_int(dims, "m")
        n = _pos_int(dims, "n")
        if m < n:
            raise ValueError(f"{kind} requires m >= n, got m={m}, n={n}")
        b, c = Fraction(q), Fraction(q) ** (m - n)
        raw = (m, n)
        size = q ** (m * n)
    elif kind == "skew":
        t = _pos_int(dims, "t")
        n = t // 2
        if n < 1:
            raise ValueError("skew scheme needs t >= 2")
        b = Fraction(q) ** 2
        c = Fraction(q) if t % 2 else Fraction(1, q)
        raw = (t,)
        size = q ** (t * (t - 1) // 2)
    else:  # hermitian
        t = _pos_int(dims, "t")
        n = t
        b, c = Fraction(-q), Fraction(-1)
        raw = (t,)
        size = q ** (t * t)

    params = SchemeParams(kind=kind, q=q, dims=raw, b=b, c=c, n=n, space_size=size)
    assert params.cbn() ** n == size, "space size must equal (c b^n)^n"
    return params


def _pos_int(dims: dict, key: str) -> int:
    if key not in dims:
        raise ValueError(f"missing dimension {key!r}")
    v = dims[key]
    if not is_int(v) or v < 1:
        raise ValueError(f"dimension {key} must be a positive integer, got {v!r}")
    return v


def xi(params: SchemeParams, omega: int) -> int:
    """Number of ambient elements of weight omega: [n,w]_b * gamma(n,w)."""
    if not 0 <= omega <= params.n:
        raise ValueError(f"omega must lie in 0..{params.n}")
    value = gauss(params.n, omega, params.b) * gamma(
        params.n, omega, params.b, params.c
    )
    count = as_int(value)
    if count < 0:
        raise ArithmeticError(f"negative weight count {count} at omega={omega}")
    return count


def xi_vector(params: SchemeParams) -> list:
    return [xi(params, w) for w in range(params.n + 1)]


def omega_enumerator(params: SchemeParams) -> ConstPoly:
    """Weight enumerator of the full space, cross-checked two ways.

    The coefficients are the weight counts xi; they must agree with the
    closed-form power of the fundamental polynomial evaluated at the class
    count, and sum to |X|.
    """
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
    obj = {"kind": params.kind, "q": params.q}
    if params.kind == "hamming":
        obj["n"] = params.dims[0]
    elif params.kind in ("bilinear", "gabidulin"):
        obj["m"], obj["n"] = params.dims
    else:
        obj["t"] = params.dims[0]
    return obj


def scheme_from_json(obj: dict) -> SchemeParams:
    if not isinstance(obj, dict) or "kind" not in obj or "q" not in obj:
        raise ValueError("scheme spec needs 'kind' and 'q'")
    kind = str(obj["kind"]).lower()
    if kind not in KINDS:
        raise ValueError(f"unknown scheme kind {obj['kind']!r}")
    q = obj["q"]
    if kind == "hamming":
        keys = {"n"}
    elif kind in ("bilinear", "gabidulin"):
        keys = {"m", "n"}
    else:
        keys = {"t"}
    extra = set(obj) - keys - {"kind", "q"}
    missing = keys - set(obj)
    if extra or missing:
        raise ValueError(
            f"scheme spec for {kind}: missing {sorted(missing)}, unexpected {sorted(extra)}"
        )
    return make_scheme(kind, q, **{k: obj[k] for k in keys})


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
