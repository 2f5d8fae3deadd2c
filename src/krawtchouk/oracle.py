"""Brute-force ground truth: scheme elements, codes, duals, character sums.

Elements of every scheme are handled as coordinate vectors over the field
the codes are linear over (F_q, or F_{q^m} for the vector rank space), with
the structural shape (matrix, alternating matrix, conjugate-symmetric
matrix) reconstructed on demand for weight computation.  The per-kind facts
of that model live in one table, _MODELS, kept apart from schemes.FAMILIES
so that the oracle shares no per-kind code with the algebra it checks.
Everything here is exhaustive; it exists to verify the algebraic side.

Each space keeps one whole-space table: the weight of every element, each
computed once, listed by the element's place i = sum_c coords[c] q^(d-1-c)
in elements() order.  Its weight buckets are lists of such indices.  The
axiom and character-sum checks build whole-space vectors one coordinate at
a time (index(x - z) and AbsTr(pairing(z, y)) for every z) and count pairs
with collections.Counter; element(i) forms a tuple only for a representative,
a sampled element or a violation message.
"""
from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

from ._record import Record
from .bnary import check_int, is_int
from .eigenvalues import SchemeParams
from .fields import field, matrix_rank, nullspace

ENUM_GUARD = 1 << 20
SPACE_GUARD = 1 << 12
AXIOM_SAMPLES = 4  # pairs (0, y) spread over each relation in verify_scheme_axioms


@functools.lru_cache(maxsize=16)
def _upper_pairs(t: int) -> list:
    """The positions (i, j), i < j, of a t x t matrix, in coordinate order."""
    return [(i, j) for i in range(t) for j in range(i + 1, t)]


def _vector(space, coords):
    return list(coords)


def _rows(space, coords):
    m, n = space.params.dims
    return [list(coords[i * n : (i + 1) * n]) for i in range(m)]


def _digit_rows(space, coords):
    # row j is coordinate j's base-q digits (the field's own encoding for
    # prime q): the n x m transpose of the expansion, of the same rank.  At
    # m = 1 any q passes, and n = 1: the one row is nonzero exactly at rank 1
    digits = space.gf.digits
    return [digits[v] for v in coords]


def _alternating(space, coords):
    (t,) = space.params.dims
    neg = space.gf.neg_table
    mat = [[0] * t for _ in range(t)]
    for (i, j), v in zip(_upper_pairs(t), coords):
        mat[i][j] = v
        mat[j][i] = neg[v]
    return mat


def _conj_symmetric(space, coords):
    # diagonal in F_q, upper entries are digit pairs in F_{q^2}; conjugation
    # a -> a^q is the Frobenius a -> a^p, since SchemeSpace admits prime q only
    (t,) = space.params.dims
    q, conj = space.gf.order, space.rank_field.frob_table
    mat = [[0] * t for _ in range(t)]
    for i in range(t):
        mat[i][i] = coords[i]
    for idx, (i, j) in enumerate(_upper_pairs(t)):
        s, u = coords[t + 2 * idx], coords[t + 2 * idx + 1]
        mat[i][j] = s + u * q
        mat[j][i] = conj[mat[i][j]]
    return mat


def _dot(space, u, v):
    add, mul = space.gf.add_table, space.gf.mul_table
    total = 0
    for a, b in zip(u, v):
        total = add[total][mul[a][b]]
    return total


def _trace_form(space, u, v):
    a, bmat = space.matrix(u), space.matrix(v)
    add, mul = space.rank_field.add_table, space.rank_field.mul_table
    total = 0
    for i in range(len(a)):
        for j in range(len(a)):
            total = add[total][mul[a[i][j]][bmat[j][i]]]
    if total >= space.gf.order:
        raise ArithmeticError("hermitian trace form left the base field")
    return total


# kind -> (rule (q, *dims) -> (coordinate field order, rank field order or
# None for the Hamming count, coordinate count), element -> matrix builder,
# rank divisor, pairing).  The weight is the rank of the built matrix over
# the rank field, divided by the divisor.  Duality pairings per kind:
#   hamming     sum x_i y_i over F_q
#   bilinear    Trace(A B^T), i.e. the entrywise dot product
#   gabidulin   sum x_i y_i over F_{q^m}
#   skew        sum over i<j of A_ij B_ij (equals Trace(A B^T)/2 away from
#               characteristic 2, where the full trace form vanishes on
#               alternating matrices and this is the nondegenerate form)
#   hermitian   Trace(A B), which lands in F_q for conjugate-symmetric inputs
# A Gram-matrix nondegeneracy assertion guards each choice.
_MODELS = {
    "hamming": (lambda q, n: (q, None, n), _vector, 1, _dot),
    "bilinear": (lambda q, m, n: (q, q, m * n), _rows, 1, _dot),
    "gabidulin": (lambda q, m, n: (q ** m, q, n), _digit_rows, 1, _dot),
    "skew": (lambda q, t: (q, q, t * (t - 1) // 2), _alternating, 2, _dot),
    "hermitian": (lambda q, t: (q, q * q, t * t), _conj_symmetric, 1, _trace_form),
}


class SchemeSpace:
    """Coordinate model of one scheme's ambient space."""

    def __init__(self, params: SchemeParams):
        kind, q = params.kind, params.q
        if kind not in _MODELS:
            raise ValueError(f"unknown kind {kind!r}")
        self.params = params
        shape, self._builder, self._divisor, self._pairing = _MODELS[kind]
        order, rank_order, self.dim = shape(q, *params.dims)
        # F_{q^k} elements are read as base-q digit strings, which is the
        # field's own encoding only for prime q
        if {order, rank_order} - {q, None} and field(q).k != 1:
            raise ValueError(f"{kind} oracle supports prime q only")
        self.gf = field(order)
        self.rank_field = field(rank_order) if rank_order else None

        assert self.gf.order ** self.dim == params.space_size
        self.zero = (0,) * self.dim
        self._trace_tallies = {}  # x -> per-representative Counter of (weight, trace)

    # -- structure ----------------------------------------------------------

    def validate(self, coords) -> tuple:
        coords = tuple(coords)
        if len(coords) != self.dim:
            raise ValueError(f"element needs {self.dim} coordinates")
        if not all(map(is_int, coords)):
            raise ValueError(f"coordinates must be ints, got {coords}")
        if coords and (min(coords) < 0 or max(coords) >= self.gf.order):
            raise ValueError("coordinate out of field range")
        return coords

    def elements(self):
        """Every element of the space; guarded against silly sizes."""
        if self.params.space_size > SPACE_GUARD:
            raise ValueError(f"space of size {self.params.space_size} too large to enumerate")
        return itertools.product(range(self.gf.order), repeat=self.dim)

    def element(self, i: int) -> tuple:
        """The i-th element of elements(): the base-q digits of i, most significant first."""
        q, d = self.gf.order, self.dim
        return tuple(i // q ** (d - 1 - c) % q for c in range(d))

    def add(self, u, v):
        add = self.gf.add_table
        return tuple(add[a][b] for a, b in zip(u, v))

    def matrix(self, coords):
        """The element in its natural matrix/vector shape."""
        return self._builder(self, coords)

    def weight(self, coords) -> int:
        """Scheme weight: Hamming count or the appropriate matrix rank."""
        coords = self.validate(coords)
        if self.rank_field is None:
            return self.dim - coords.count(0)
        rank = matrix_rank(self.matrix(coords), self.rank_field)
        if rank % self._divisor:
            raise ArithmeticError(f"matrix rank {rank} is not a multiple of {self._divisor}")
        return rank // self._divisor

    # -- duality ------------------------------------------------------------

    def pairing(self, u, v) -> int:
        """Scheme bilinear form; an element of the coordinate field."""
        return self._pairing(self, u, v)

    @functools.cached_property
    def _gram(self):
        """The pairings of unit vectors, built and checked nondegenerate on first use."""
        units = []
        for c in range(self.dim):
            e = [0] * self.dim
            e[c] = 1
            units.append(tuple(e))
        gram = [[self.pairing(units[r], units[c]) for c in range(self.dim)] for r in range(self.dim)]
        if matrix_rank(gram, self.gf) != self.dim:
            raise AssertionError(
                f"duality form for {self.params.kind} is degenerate; pairing choice is wrong"
            )
        return gram

    def gram_vector(self, y):
        """Row of pairings pairing(e_c, y), so pairing(x, y) = x . gram_vector."""
        return [_dot(self, row, y) for row in self._gram]

    @functools.cached_property
    def _by_index(self) -> list:
        """weight(element(i)) for every i, each computed once through `weight`."""
        return [self.weight(e) for e in self.elements()]

    def weight_buckets(self) -> list:
        """Per weight 0..n, the indices of its elements in elements() order (built per call).

        An index whose weight lies outside 0..n is in no bucket.
        """
        n = self.params.n
        buckets = [[] for _ in range(n + 1)]
        for i, w in enumerate(self._by_index):
            if 0 <= w <= n:
                buckets[w].append(i)
        return buckets

    # -- whole-space vectors, indexed like elements() ------------------------

    def _difference_indices(self, xx) -> list:
        """index(xx - z) for every z, in elements() order."""
        q = self.gf.order
        add, neg = self.gf.add_table, self.gf.neg_table
        out = [0]
        for a in xx:
            row = [add[a][neg[r]] for r in range(q)]
            out = [t * q + r for t in out for r in row]
        return out

    def _traces(self, y) -> list:
        """AbsTr(pairing(z, y)) for every z, in elements() order; the trace is additive."""
        gf = self.gf
        p, mul, trace = gf.p, gf.mul_table, gf.trace_table
        out = [0]
        for g in self.gram_vector(y):
            row = [trace[mul[a][g]] for a in range(gf.order)]
            out = [(t + r) % p for t in out for r in row]
        return out

    def _trace_tally(self, x) -> list:
        """Per representative y of weight x: Counter of (weight(e), AbsTr(pairing(e, y))).

        The representatives are the first element of weight x in elements()
        order and, if it is not the only one, the last.  Cached per x.
        """
        tallies = self._trace_tallies.get(x)
        if tallies is None:
            weights = self._by_index
            if x not in weights:
                raise ArithmeticError(f"no element of weight {x}")
            first, last = weights.index(x), len(weights) - 1 - weights[::-1].index(x)
            reps = [first] if first == last else [first, last]
            tallies = [Counter(zip(weights, self._traces(self.element(i)))) for i in reps]
            self._trace_tallies[x] = tallies
        return tallies


def space_for(params: SchemeParams) -> SchemeSpace:
    """The cached coordinate model of a scheme's space."""
    return _space_cached(params)


# Bounded, since each enumerated space holds the weights of up to
# SPACE_GUARD elements in its by-index list.  space_for stays a
# plain function in front of it, which is what perfbench's tracer can wrap.
@functools.lru_cache(maxsize=16)
def _space_cached(params: SchemeParams) -> SchemeSpace:
    return SchemeSpace(params)


class CodeSpec(Record):
    """A linear code given by independent generators in coordinate form."""

    __slots__ = ("params", "generators")

    def __init__(self, params, generators):
        space = space_for(params)
        gens = tuple(space.validate(g) for g in generators)
        if gens and matrix_rank(list(gens), space.gf) != len(gens):
            raise ValueError("generators must be linearly independent")
        self._fill(params, gens)

    @property
    def code_size(self) -> int:
        return space_for(self.params).gf.order ** len(self.generators)


def enumerate_code(code: CodeSpec):
    """Yield every codeword exactly once, one addition per word.

    The code is walked as an F_p-space, spanned by x^t g for each generator g
    and t < k, where x^t is the field element p^t.  Step i adds spanning
    vector K-1-v, where p^v is the largest power of p dividing i: the modular
    p-ary Gray code, which visits each of the p^K combinations once.
    """
    space = space_for(code.params)
    if code.code_size > ENUM_GUARD:
        raise ValueError(f"code of size {code.code_size} exceeds enumeration guard")
    gf = space.gf
    p, mul = gf.p, gf.mul_table
    span = [tuple(mul[p ** t][a] for a in g) for g in code.generators for t in range(gf.k)]
    word = space.zero
    yield word
    for i in range(1, code.code_size):
        v = 0
        while i % p == 0:
            i //= p
            v += 1
        word = space.add(word, span[-1 - v])
        yield word


def dual_code(code: CodeSpec) -> CodeSpec:
    """Annihilator of the code under the scheme's bilinear form."""
    space = space_for(code.params)
    rows = [space.gram_vector(g) for g in code.generators]
    basis = nullspace(rows, space.gf, space.dim)
    dual = CodeSpec(params=code.params, generators=tuple(basis))
    if len(code.generators) + len(dual.generators) != space.dim:
        raise AssertionError("dual dimension mismatch; form is degenerate")
    return dual


def weight_distribution(code: CodeSpec) -> list:
    space = space_for(code.params)
    n = code.params.n
    counts = [0] * (n + 1)
    for word in enumerate_code(code):
        w = space.weight(word)
        if not 0 <= w <= n:
            raise ArithmeticError(f"weight {w} out of range at {word}")
        counts[w] += 1
    return counts


def char_eigenvalue(params: SchemeParams, k: int, x: int) -> int:
    """First-principles eigenvalue: an additive character sum over weight k.

    Counts N_a, the elements e of weight k whose pairing with a representative
    y of weight x has absolute trace a in F_p.  Sum zeta^a N_a is an integer
    exactly when all N_a with a != 0 are equal, and is then N_0 - N_1; that
    condition, and independence of a second representative, are asserted.
    """
    space = space_for(params)
    n = params.n
    check_int("k", k, 0, n)
    check_int("x", x, 0, n)
    sums = []
    for tally in space._trace_tally(x):
        counts = [tally[k, a] for a in range(space.gf.p)]
        if len(set(counts[1:])) != 1:
            raise AssertionError(f"unequal trace counts {counts} at (k={k}, x={x})")
        sums.append(counts[0] - counts[1])
    if len(set(sums)) != 1:
        raise AssertionError(
            f"character sum depends on the representative at (k={k}, x={x})"
        )
    return sums[0]


def verify_scheme_axioms(params: SchemeParams, seed: int = 0) -> dict:
    """Check the association scheme axioms on the full space.

    Builds the relations R_i = {(x, y) : weight(x - y) = i} and checks that
    R_0 is the diagonal, the relations are symmetric and partition the pair
    set, intersection numbers are constant over sampled pairs per relation,
    and the row sums of the intersection table give the valencies.
    Returns a report dict with a "violations" list (expected empty).
    """
    space = space_for(params)
    n = params.n
    violations = []
    by_index = space._by_index
    buckets = space.weight_buckets()

    def weights_from(xx):
        """weight(xx - z) for every z, in elements() order."""
        return [by_index[i] for i in space._difference_indices(xx)]

    # element 0 of elements() is the zero vector, and w0[i] is the weight of -element(i)
    w0 = weights_from(space.zero)
    for i, (w, w_neg) in enumerate(zip(by_index, w0)):
        if (w == 0) != (i == 0):
            violations.append(f"weight-0 class is not the diagonal at {space.element(i)}")
        if w_neg != w:
            violations.append(f"weight is not symmetric at {space.element(i)}")
        if not 0 <= w <= n:
            violations.append(f"weight {w} out of range at {space.element(i)}")

    # intersection numbers are indexed by weight, so they need every weight in range
    in_range = all(0 <= w <= n for w in by_index)
    relations = range(n + 1) if in_range else range(0)
    rng = random.Random(seed)
    for kk in relations:
        if not buckets[kk]:
            violations.append(f"empty relation at distance {kk}")
            continue
        # each relation is a set of differences x - y (a translation scheme,
        # Delsarte 1973), so a pair (z, z + y) has the table of (0, y): every
        # sample is paired with zero, and z runs over the whole space
        ys = _spread(buckets[kk], AXIOM_SAMPLES) + [rng.choice(buckets[kk]) for _ in range(2)]
        tables = [Counter(zip(w0, weights_from(space.element(y)))) for y in ys]
        if any(t != tables[0] for t in tables[1:]):
            violations.append(f"intersection numbers not constant on relation {kk}")
        row_sums = [0] * (n + 1)
        for (i, _), count in tables[0].items():
            row_sums[i] += count
        for i in range(n + 1):
            if row_sums[i] != len(buckets[i]):
                violations.append(
                    f"row sum of intersection table at (i={i}, k={kk}) is not v_i"
                )

    return {
        "kind": params.kind,
        "valencies": [len(b) for b in buckets],
        "checked_relations": len(relations),
        "violations": violations,
        "ok": not violations,
    }


def _spread(seq, count):
    step = max(1, len(seq) // count)
    return list(seq[::step][:count])


def random_code(params: SchemeParams, rng) -> CodeSpec:
    """A uniformly drawn linear code of a uniformly drawn dimension."""
    space = space_for(params)
    dim = rng.randint(0, space.dim)
    gens = []
    while len(gens) < dim:
        cand = tuple(rng.randrange(space.gf.order) for _ in range(space.dim))
        if matrix_rank(gens + [cand], space.gf) > len(gens):
            gens.append(cand)
    return CodeSpec(params=params, generators=tuple(gens))
