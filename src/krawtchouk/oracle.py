"""Brute-force ground truth: scheme elements, codes, duals, character sums.

Elements of every scheme are handled as coordinate vectors over the field
the codes are linear over (F_q, or F_{q^m} for the vector rank space), with
the structural shape (matrix, alternating matrix, conjugate-symmetric
matrix) reconstructed on demand for weight computation.  The per-kind facts
of that model live in one table, _MODELS, kept apart from schemes.FAMILIES
so that the oracle shares no per-kind code with the algebra it checks.
Everything here is exhaustive; it exists to verify the algebraic side.

Each space, the first time it is enumerated, computes every element's
weight once and keeps it in the weight buckets and in a list indexed by
the element's place i in elements() order, i = sum_c coords[c] q^(d-1-c).  The axiom and character-sum checks work on
those indices: they build whole-space vectors one coordinate at a time
(index(x - z) for every z, and AbsTr(pairing(z, y)) for every z) and count
pairs with collections.Counter, instead of forming one tuple per element.
Tuples stay at every public boundary.
"""
from __future__ import annotations

import functools
import itertools
import random
from collections import Counter

from ._record import Record
from .bnary import is_int
from .eigenvalues import SchemeParams
from .fields import MAX_ORDER, field, is_prime_power, matrix_rank, nullspace

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


def _digit_columns(space, coords):
    # expand each F_{q^m} entry into its base-q digit column
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


def _alternating(space, coords):
    (t,) = space.params.dims
    gf = space.gf
    mat = [[0] * t for _ in range(t)]
    for (i, j), v in zip(_upper_pairs(t), coords):
        mat[i][j] = v
        mat[j][i] = gf.neg(v)
    return mat


def _conj_symmetric(space, coords):
    # diagonal in F_q, upper entries are digit pairs in F_{q^2}
    (t,) = space.params.dims
    q, ext = space.gf.order, space.rank_field
    mat = [[0] * t for _ in range(t)]
    for i in range(t):
        mat[i][i] = coords[i]
    for idx, (i, j) in enumerate(_upper_pairs(t)):
        s, u = coords[t + 2 * idx], coords[t + 2 * idx + 1]
        mat[i][j] = s + u * q
        mat[j][i] = ext.conj(mat[i][j], q)
    return mat


def _dot(space, u, v):
    gf = space.gf
    total = 0
    for a, b in zip(u, v):
        total = gf.add(total, gf.mul(a, b))
    return total


def _trace_form(space, u, v):
    a, bmat = space.matrix(u), space.matrix(v)
    ext = space.rank_field
    total = 0
    for i in range(len(a)):
        for j in range(len(a)):
            total = ext.add(total, ext.mul(a[i][j], bmat[j][i]))
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
    "gabidulin": (lambda q, m, n: (q ** m, q, n), _digit_columns, 1, _dot),
    "skew": (lambda q, t: (q, q, t * (t - 1) // 2), _alternating, 2, _dot),
    "hermitian": (lambda q, t: (q, q * q, t * t), _conj_symmetric, 1, _trace_form),
}


class SchemeSpace:
    """Coordinate model of one scheme's ambient space."""

    def __init__(self, params: SchemeParams):
        if params.q > MAX_ORDER:  # before factoring, which is trial division
            raise ValueError(f"field order {params.q} exceeds the supported {MAX_ORDER}")
        if not is_prime_power(params.q):
            raise ValueError(f"oracle requires q to be a prime power, got {params.q}")
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
        self._gram = self._gram_matrix()
        if matrix_rank(self._gram, self.gf) != self.dim:
            raise AssertionError(
                f"duality form for {kind} is degenerate; pairing choice is wrong"
            )
        self._buckets = None
        self._by_index = None  # weight of the i-th element of elements()
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

    def add(self, u, v):
        add = self.gf.add_table
        return tuple(add[a][b] for a, b in zip(u, v))

    def sub(self, u, v):
        add, neg = self.gf.add_table, self.gf.neg_table
        return tuple(add[a][neg[b]] for a, b in zip(u, v))

    def smul(self, s, u):
        mul = self.gf.mul_table
        return tuple(mul[s][a] for a in u)

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

    def _gram_matrix(self):
        units = []
        for c in range(self.dim):
            e = [0] * self.dim
            e[c] = 1
            units.append(tuple(e))
        return [[self.pairing(units[r], units[c]) for c in range(self.dim)] for r in range(self.dim)]

    def gram_vector(self, y):
        """Row of pairings pairing(e_c, y), so pairing(x, y) = x . gram_vector."""
        gf = self.gf
        out = []
        for row in self._gram:
            acc = 0
            for g, yv in zip(row, y):
                acc = gf.add(acc, gf.mul(g, yv))
            out.append(acc)
        return out

    def weight_buckets(self):
        """All elements of the space grouped by weight (cached).

        The first call computes each element's weight once, through
        `weight`, and fills the by-index weight list alongside the buckets.
        An element whose weight lies outside 0..n is in the list only.
        """
        if self._buckets is None:
            n = self.params.n
            buckets = [[] for _ in range(n + 1)]
            by_index = []
            for e in self.elements():
                w = self.weight(e)
                by_index.append(w)
                if 0 <= w <= n:
                    buckets[w].append(e)
            self._buckets, self._by_index = buckets, by_index
        return self._buckets

    def weight_table(self) -> dict:
        """Element -> weight for every element of the space, built on demand.

        Holds the raw `weight` value of each element, so a lookup gives
        exactly what `weight` would return.
        """
        self.weight_buckets()
        return dict(zip(self.elements(), self._by_index))

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
        p, mul = gf.p, gf.mul_table
        out = [0]
        for g in self.gram_vector(y):
            row = [gf.abs_trace(mul[a][g]) for a in range(gf.order)]
            out = [(t + r) % p for t in out for r in row]
        return out

    def _trace_tally(self, x) -> list:
        """Per representative y of weight x: Counter of (weight(e), AbsTr(pairing(e, y))).

        The representatives are the first element of the weight-x bucket
        and, if it holds more than one, the last.  Cached per x.
        """
        tallies = self._trace_tallies.get(x)
        if tallies is None:
            bucket = self.weight_buckets()[x]
            reps = [bucket[0]] if len(bucket) == 1 else [bucket[0], bucket[-1]]
            tallies = [Counter(zip(self._by_index, self._traces(y))) for y in reps]
            self._trace_tallies[x] = tallies
        return tallies


def space_for(params: SchemeParams) -> SchemeSpace:
    """The cached coordinate model of a scheme's space."""
    return _space_cached(params)


# Bounded, since each enumerated space holds up to SPACE_GUARD elements in
# its buckets and their weights in its by-index list.  space_for stays a
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
    """Yield every codeword exactly once."""
    space = space_for(code.params)
    if code.code_size > ENUM_GUARD:
        raise ValueError(f"code of size {code.code_size} exceeds enumeration guard")
    gens = code.generators
    if not gens:
        yield space.zero
        return
    for scalars in itertools.product(range(space.gf.order), repeat=len(gens)):
        acc = space.zero
        for s, g in zip(scalars, gens):
            if s:
                acc = space.add(acc, space.smul(s, g))
        yield acc


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
    if not (0 <= k <= n and 0 <= x <= n):
        raise ValueError(f"require 0 <= k, x <= {n}")
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
    buckets = space.weight_buckets()
    by_index = space._by_index

    def weights_from(xx):
        """weight(xx - z) for every z, in elements() order."""
        return [by_index[i] for i in space._difference_indices(xx)]

    # element 0 of elements() is the zero vector
    for i, ((e, w), w_neg) in enumerate(zip(zip(space.elements(), by_index), weights_from(space.zero))):
        if (w == 0) != (i == 0):
            violations.append(f"weight-0 class is not the diagonal at {e}")
        if w_neg != w:
            violations.append(f"weight is not symmetric at {e}")
        if not 0 <= w <= n:
            violations.append(f"weight {w} out of range at {e}")

    # intersection numbers are indexed by weight, so they need every weight in range
    in_range = all(0 <= w <= n for w in by_index)
    relations = range(n + 1) if in_range else range(0)
    rng = random.Random(seed)
    elements = [e for bucket in buckets for e in bucket]
    for kk in relations:
        if not buckets[kk]:
            violations.append(f"empty relation at distance {kk}")
            continue
        pairs = [(space.zero, y) for y in _spread(buckets[kk], AXIOM_SAMPLES)]
        for _ in range(2):
            z = rng.choice(elements)
            y = rng.choice(buckets[kk])
            pairs.append((z, space.add(y, z)))
        # every weight is in range here, so z runs over the whole space
        tables = [Counter(zip(weights_from(xx), weights_from(yy))) for xx, yy in pairs]
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
    if len(seq) <= count:
        return list(seq)
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
