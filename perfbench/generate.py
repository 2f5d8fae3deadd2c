"""Seeded request streams and their expected answers, in plain integers.

Nothing here imports the library.  Expected values come from integer
Gaussian binomials (the q-Pascal rule) and closed-form weight counts, so a
wrong library answer cannot also be the expected one.  `test_generate.py`
checks these formulas against the brute-force oracle on desk-scale schemes.

A stream is an endless iterator of request dicts.  Requests are dealt from
a "deck": one fixed list of cells (an operation on a family, or a suite on
a fixed scheme) that the seed reshuffles each time it runs out, and the
seed also draws the parameters inside each cell (q, n, code, phi, d,
trials).  Every seed therefore gives the same mix of work.
"""
from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass

# -- integer scheme model ------------------------------------------------------


@dataclass(frozen=True)
class Scheme:
    """One scheme as integers: base b, class count n, c*b^n and |X|."""

    kind: str
    q: int
    dims: tuple  # ((key, value), ...) in the CLI's JSON order
    b: int
    n: int
    cbn: int
    size: int

    def to_json(self) -> dict:
        return {"kind": self.kind, "q": self.q, **dict(self.dims)}


def scheme(kind: str, q: int, **dims) -> Scheme:
    if kind == "hamming":
        n = dims["n"]
        return Scheme(kind, q, (("n", n),), 1, n, q, q ** n)
    if kind in ("bilinear", "gabidulin"):
        m, n = dims["m"], dims["n"]
        return Scheme(kind, q, (("m", m), ("n", n)), q, n, q ** m, q ** (m * n))
    t = dims["t"]
    if kind == "skew":
        cbn = q ** t if t % 2 else q ** (t - 1)
        return Scheme(kind, q, (("t", t),), q * q, t // 2, cbn, q ** (t * (t - 1) // 2))
    if kind == "hermitian":
        return Scheme(kind, q, (("t", t),), -q, t, -((-q) ** t), q ** (t * t))
    raise ValueError(f"unknown kind {kind!r}")


@functools.lru_cache(maxsize=None)
def gaussian_row(n: int, b: int) -> tuple:
    """Row n of the Gaussian-binomial triangle at integer base b (q-Pascal)."""
    row = [1]
    for x in range(1, n + 1):
        row = [1] + [row[j - 1] + b ** j * row[j] for j in range(1, x)] + [1]
    return tuple(row)


def gaussian(n: int, k: int, b: int) -> int:
    return gaussian_row(n, b)[k] if 0 <= k <= n else 0


def weight_counts(s: Scheme) -> list:
    """Number of elements of each weight: [n, w]_b * prod_{i<w} (c b^n - b^i)."""
    return [
        gaussian(s.n, w, s.b) * math.prod(s.cbn - s.b ** i for i in range(w))
        for w in range(s.n + 1)
    ]


def rank_counts(q: int, m: int, k: int, n: int) -> list:
    """Rank distribution of all m x k matrices over F_q, padded to length n+1."""
    return [
        gaussian(k, w, q) * math.prod(q ** m - q ** i for i in range(w)) if w <= k else 0
        for w in range(n + 1)
    ]


# -- codes with known duals ------------------------------------------------------


@dataclass(frozen=True)
class Code:
    """A linear code's weight distribution, its size and its dual's distribution."""

    name: str
    dist: tuple
    size: int
    dual: tuple


def zero_code(s: Scheme) -> Code:
    return Code("zero", (1,) + (0,) * s.n, 1, tuple(weight_counts(s)))


def whole_space(s: Scheme) -> Code:
    return Code("whole", tuple(weight_counts(s)), s.size, (1,) + (0,) * s.n)


def leading_block(s: Scheme, k: int) -> Code:
    """Elements supported on the first k coordinates (columns for matrices).

    Under the oracle's pairings the dual is the set supported on the last
    n - k coordinates, so both distributions have closed forms.
    """
    if not 0 <= k <= s.n:
        raise ValueError(f"k must lie in 0..{s.n}")
    if s.kind == "hamming":
        q, n = s.q, s.n

        def counts(j):
            return tuple(math.comb(j, w) * (q - 1) ** w for w in range(n + 1))

        return Code(f"lead{k}", counts(k), q ** k, counts(n - k))
    if s.kind in ("bilinear", "gabidulin"):
        q, m, n = s.q, dict(s.dims)["m"], s.n
        return Code(
            f"lead{k}",
            tuple(rank_counts(q, m, k, n)),
            q ** (m * k),
            tuple(rank_counts(q, m, n - k, n)),
        )
    raise ValueError(f"no leading-block code for {s.kind}")


def codes(s: Scheme) -> list:
    """Every code the generator knows for this scheme."""
    out = [zero_code(s), whole_space(s)]
    if s.kind in ("hamming", "bilinear", "gabidulin"):
        out += [leading_block(s, k) for k in range(1, s.n)]
    return out


def mrd_distribution(s: Scheme, d: int) -> list:
    """Delsarte's weight distribution of an MRD code of minimum rank d."""
    q, m, n = s.q, dict(s.dims)["m"], s.n
    out = [1] + [0] * n
    for w in range(n - d + 1):
        out[d + w] = gaussian(n, d + w, q) * sum(
            (-1) ** (w - i)
            * q ** ((w - i) * (w - i - 1) // 2)
            * gaussian(d + w, d + i, q)
            * (q ** (m * (i + 1)) - 1)
            for i in range(w + 1)
        )
    return out


def maximal_cases(s: Scheme) -> list:
    """(d, code size, expected distribution) of codes meeting d + d' = n + 2."""
    n, q = s.n, s.q
    out = [(n + 1, 1, [1] + [0] * n), (1, s.size, weight_counts(s))]
    if s.kind in ("bilinear", "gabidulin"):
        m = dict(s.dims)["m"]
        out += [(d, q ** (m * (n - d + 1)), mrd_distribution(s, d)) for d in range(2, n + 1)]
    elif s.kind == "hamming" and n >= 2:
        repetition = [1] + [0] * (n - 1) + [q - 1]
        parity = [
            math.comb(n, w) * ((q - 1) ** w + (-1) ** w * (q - 1)) // q for w in range(n + 1)
        ]
        out += [(n, q, repetition), (2, q ** (n - 1), parity)]
    return out


def moment_lhs(s: Scheme, dist, phi: int) -> tuple:
    """Left sides of the X- and Y-derivative moment identities at order phi."""
    n, b = s.n, s.b
    lhs_b = sum(gaussian(n - i, phi, b) * dist[i] for i in range(n - phi + 1))
    lhs_binv = sum(b ** (phi * (n - i)) * gaussian(i, phi, b) * dist[i] for i in range(phi, n + 1))
    return lhs_b, lhs_binv


# -- parameter draws -------------------------------------------------------------


def draw_scheme(rng: random.Random, kind: str, n_lo: int, n_hi: int) -> Scheme:
    """A scheme of the given family with n in [n_lo, n_hi] and q in {2, 3, 4}."""
    q = rng.choice((2, 3, 4))
    n = rng.randint(n_lo, n_hi)
    if kind == "hamming":
        return scheme(kind, q, n=n)
    if kind in ("bilinear", "gabidulin"):
        return scheme(kind, q, m=n + rng.randint(0, 3), n=n)
    if kind == "skew":
        return scheme(kind, q, t=2 * n + rng.randint(0, 1))
    return scheme(kind, q, t=n)


KINDS = ("hamming", "bilinear", "gabidulin", "skew", "hermitian")


def _deal(rng: random.Random, deck: list, make):
    """Endless stream: shuffle the deck, make one request per cell, repeat."""
    while True:
        cells = list(deck)
        rng.shuffle(cells)
        for cell in cells:
            yield make(rng, *cell)


# -- cli-algebra -------------------------------------------------------------------

# The eigenmatrix build grows fast with n (about 0.3 s at n=12 and 3 s at
# n=24 for the rank families), so those cells keep n near 8..11 and hamming
# near 12..24; cheap commands (info, maximal) go to n=24, and hamming to 40.
# Each request must stay short enough that one run holds the 100+ requests
# a p90 with ten samples beyond it needs.
_ALGEBRA_SIZES = {
    ("heavy", "hamming"): (12, 24),
    ("heavy", "rank"): (8, 11),
    ("light", "hamming"): (12, 40),
    ("light", "rank"): (12, 24),
}
_ALGEBRA_DECK = (
    [(op, kind, half) for op in ("eigenmatrix", "transform", "moments") for kind in KINDS for half in (0, 1)]
    + [(op, kind, None) for op in ("info", "maximal") for kind in KINDS]
)


def request(rng, op: str, s: Scheme, code: str = "any") -> dict:
    """One algebra request on scheme s, with its seeded inputs.

    code picks the transformed code: "zero", "whole", "lead" (a leading
    block of about half the coordinates) or "any" of `codes(s)`.
    """
    req = {"op": op, "scheme": s}
    if code == "zero":
        req["code"] = zero_code(s)
    elif code == "whole":
        req["code"] = whole_space(s)
    elif code == "lead":
        req["code"] = leading_block(s, rng.randint(s.n // 2 - 1, s.n // 2 + 1))
    elif op in ("transform", "moments"):
        req["code"] = rng.choice(codes(s))
    if op == "moments":
        req["phi"] = rng.randint(0, s.n)
    if op == "maximal":
        req["d"], req["size"], req["expect"] = rng.choice(maximal_cases(s))
    return req


def _algebra_request(rng, op, kind, half):
    """half 0 or 1 draws n from the lower or upper half of a heavy cell's range."""
    tier = "light" if half is None else "heavy"
    lo, hi = _ALGEBRA_SIZES[tier, "hamming" if kind == "hamming" else "rank"]
    if half is not None:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if half == 0 else (mid + 1, hi)
    return request(rng, op, draw_scheme(rng, kind, lo, hi))


# -- cli-oracle --------------------------------------------------------------------

# One cell per (suite, scheme), on characteristic-2 schemes with |X| <= 4096
# where every suite runs.  Cells cost about 0.1-0.5 s, of which about 0.1 s
# is process start.  The costs are placed so that latency_p90_s falls among
# cells whose cost the seed does not move: the axioms suite and the eigen
# suite on 4096 points do a fixed amount of work, so they form the top
# sixth, while transform and moments (random codes, seeded trials) stay on
# spaces of at most 1024 points below them.  skew t=5 is left out of the
# axioms suite, where it alone would take about a second.
_AXIOM_SCHEMES = [
    ("hamming", 2, {"n": 9}), ("hamming", 4, {"n": 5}), ("bilinear", 2, {"m": 3, "n": 3}),
    ("gabidulin", 2, {"m": 3, "n": 3}), ("hermitian", 2, {"t": 3}),
]
_EIGEN_SCHEMES = [
    ("hamming", 2, {"n": 12}), ("hamming", 4, {"n": 6}), ("bilinear", 2, {"m": 4, "n": 3}),
    ("gabidulin", 2, {"m": 4, "n": 3}), ("skew", 2, {"t": 5}), ("hermitian", 2, {"t": 3}),
]
_CODE_SCHEMES = [
    ("hamming", 2, {"n": 10}), ("hamming", 4, {"n": 5}), ("bilinear", 2, {"m": 3, "n": 3}),
    ("bilinear", 4, {"m": 2, "n": 2}), ("gabidulin", 2, {"m": 3, "n": 3}),
    ("skew", 2, {"t": 5}), ("hermitian", 2, {"t": 3}),
]
_ORACLE_DECK = (
    [("axioms", *cell) for cell in _AXIOM_SCHEMES]
    + [("eigen", *cell) for cell in _EIGEN_SCHEMES]
    + [(suite, *cell) for suite in ("transform", "moments") for cell in _CODE_SCHEMES]
    + [("recurrence", "skew", 2, {"t": 5}), ("recurrence", "hermitian", 2, {"t": 3})]
    + [("all", "hamming", 2, {"n": 6}), ("all", "hermitian", 2, {"t": 2})]
)


def _oracle_request(rng, suite, kind, q, dims):
    return {
        "op": "verify",
        "scheme": scheme(kind, q, **dims),
        "suite": suite,
        "trials": rng.randint(3, 6),
        "seed": rng.randrange(1 << 30),
    }


# -- library-session ---------------------------------------------------------------

# Fixed, so that set-up does the same work for every seed.  The cost of
# transform_functional grows with the number of nonzero weights, from about
# 2 ms for the zero code to 100 ms for the whole space, so each transform
# cell fixes its code class and the seed moves only the block size, phi and d.
SESSION_SCHEMES = (
    scheme("hamming", 3, n=20),
    scheme("bilinear", 2, m=18, n=16),
    scheme("gabidulin", 3, m=16, n=16),
    scheme("skew", 2, t=33),
    scheme("hermitian", 3, t=16),
)
_SESSION_DECK = (
    [("transform", s, code) for s in SESSION_SCHEMES for code in ("zero", "whole")]
    + [("transform", s, "lead") for s in SESSION_SCHEMES if s.kind in ("hamming", "bilinear", "gabidulin")]
    + [("moments", s) for s in SESSION_SCHEMES] * 3
    + [("maximal", s) for s in SESSION_SCHEMES if s.kind in ("bilinear", "gabidulin")]
)


_DECKS = {
    "cli-algebra": (_ALGEBRA_DECK, _algebra_request),
    "cli-oracle": (_ORACLE_DECK, _oracle_request),
    "library-session": (_SESSION_DECK, request),
}
WORKLOADS = tuple(_DECKS)


def deck_size(workload: str) -> int:
    """Requests per deck; a run that stops at a deck boundary runs whole decks."""
    return len(_DECKS[workload][0])


def stream(workload: str, seed: int):
    """Endless seeded request stream for one workload."""
    deck, make = _DECKS[workload]
    return _deal(random.Random(f"{workload}-{seed}"), deck, make)


def cli_argv(req: dict) -> list:
    """Command-line arguments of `python -m krawtchouk.cli` for one request."""
    s = req["scheme"]
    sj = ["--scheme-json", json.dumps(s.to_json())]
    op = req["op"]
    if op in ("info", "eigenmatrix"):
        return ["scheme", op, *sj]
    if op in ("transform", "moments"):
        code = req["code"]
        argv = [op, *sj, "--weights", json.dumps(list(code.dist)), "--code-size", str(code.size)]
        if op == "transform":
            return argv + ["--method", "both"]
        return argv + ["--phi", str(req["phi"])]
    if op == "maximal":
        return ["maximal", *sj, "--d", str(req["d"]), "--code-size", str(req["size"])]
    if op == "verify":
        return [
            "verify", *sj, "--suite", req["suite"],
            "--trials", str(req["trials"]), "--seed", str(req["seed"]),
        ]
    raise ValueError(f"unknown op {op!r}")
