"""Small finite fields GF(p^k) with dense arithmetic tables, p^k <= 16.

Elements are integers 0..p^k-1 whose base-p digits are the coefficients of
the residue polynomial (little-endian), so the prime field is always the
subset {0, ..., p-1}.  Field axioms are checked exhaustively at
construction; the sizes involved make that instantaneous.
"""
from __future__ import annotations

MAX_ORDER = 16

# Monic irreducible moduli, little-endian coefficient tuples over F_p.
_MODULI = {
    (2, 2): (1, 1, 1),          # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),       # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),    # x^4 + x + 1
    (3, 2): (1, 0, 1),          # x^2 + 1
}


def factor_prime_power(n: int):
    """Return (p, k) with n = p^k and p prime, or None."""
    if n < 2:
        return None
    p = None
    for d in range(2, n + 1):
        if n % d == 0:
            p = d
            break
    m, k = n, 0
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        return None
    return p, k


class GF:
    """Finite field of the given order; its dense tables are its arithmetic.

    add_table[a][b], mul_table[a][b], neg_table[a], inv_table[a] (0 at 0),
    frob_table[a] = a^p and trace_table[a], the absolute trace to F_p.  pow
    is for any other exponent.
    """

    def __init__(self, order: int):
        if order > MAX_ORDER:  # before factoring, which is trial division
            raise ValueError(f"field order {order} exceeds the supported {MAX_ORDER}")
        fp = factor_prime_power(order)
        if fp is None:
            raise ValueError(f"{order} is not a prime power")
        self.order = order
        self.p, self.k = fp
        # the field's encoding: digits[a] is a's base-p digits, little-endian
        self.digits = tuple(
            tuple(a // self.p ** i % self.p for i in range(self.k)) for a in range(order)
        )
        self.modulus = _MODULI[(self.p, self.k)] if self.k > 1 else None
        self._build_tables()
        self._check_axioms()

    # -- construction -----------------------------------------------------

    def _undigits(self, ds) -> int:
        v = 0
        for d in reversed(ds):
            v = v * self.p + (d % self.p)
        return v

    def _build_tables(self):
        p, k, n = self.p, self.k, self.order
        self.add_table = [[0] * n for _ in range(n)]
        self.mul_table = [[0] * n for _ in range(n)]
        for a, da in enumerate(self.digits):
            for b, db in enumerate(self.digits):
                self.add_table[a][b] = self._undigits(
                    [(x + y) % p for x, y in zip(da, db)]
                )
                # schoolbook product then reduce by the modulus
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    if x:
                        for j, y in enumerate(db):
                            prod[i + j] = (prod[i + j] + x * y) % p
                for deg in range(2 * k - 2, k - 1, -1):  # empty at k = 1
                    coef = prod[deg]
                    if coef:
                        prod[deg] = 0
                        for j in range(k):
                            prod[deg - k + j] = (prod[deg - k + j] - coef * self.modulus[j]) % p
                self.mul_table[a][b] = self._undigits(prod[:k])
        self.neg_table = [self._undigits([(-d) % p for d in da]) for da in self.digits]
        self.inv_table = [0] * n
        for a in range(1, n):
            for b in range(1, n):
                if self.mul_table[a][b] == 1:
                    self.inv_table[a] = b
                    break
            else:
                raise ArithmeticError(f"element {a} has no inverse; bad modulus?")
        # a^p generates the automorphisms over F_p; AbsTr(a) = a + a^p + ... + a^(p^(k-1))
        frob = self.frob_table = [self.pow(a, p) for a in range(n)]
        traces, conj = [0] * n, list(range(n))
        for _ in range(k):
            traces = [self.add_table[t][c] for t, c in zip(traces, conj)]
            conj = [frob[c] for c in conj]
        if max(traces) >= p:
            raise ArithmeticError("trace left the prime field")
        self.trace_table = traces

    def _check_axioms(self):
        n = self.order
        add, mul = self.add_table, self.mul_table
        for a in range(n):
            for b in range(n):
                if add[a][b] != add[b][a] or mul[a][b] != mul[b][a]:
                    raise ArithmeticError("commutativity failure")
                for c in range(n):
                    if add[add[a][b]][c] != add[a][add[b][c]]:
                        raise ArithmeticError("additive associativity failure")
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise ArithmeticError("multiplicative associativity failure")
                    if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                        raise ArithmeticError("distributivity failure")

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            if a == 0:
                raise ZeroDivisionError("0 has no inverse")
            a, e = self.inv_table[a], -e
        out = 1
        while e:
            if e & 1:
                out = self.mul_table[out][a]
            a = self.mul_table[a][a]
            e >>= 1
        return out


_FIELD_CACHE = {}


def field(order: int) -> GF:
    gf = _FIELD_CACHE.get(order)
    if gf is None:
        gf = GF(order)
        _FIELD_CACHE[order] = gf
    return gf


# -- linear algebra over a GF -----------------------------------------------

def row_reduce(rows, gf: GF):
    """Reduced row echelon form; returns (reduced nonzero rows, pivot cols)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    width = len(rows[0])
    add, neg, mul, inv = gf.add_table, gf.neg_table, gf.mul_table, gf.inv_table
    pivots = []
    r = 0
    for col in range(width):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        scale = mul[inv[rows[r][col]]]
        rows[r] = [scale[v] for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                # v - f w, as v + (-f) w
                scale = mul[neg[rows[i][col]]]
                rows[i] = [add[v][scale[w]] for v, w in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def matrix_rank(rows, gf: GF) -> int:
    """Rank of the rows over gf.

    Over GF(2) each row is packed into an int, one bit per column, and
    reduced by XOR against the basis in insertion order: min(v, v ^ b)
    clears b's leading bit from v when it is set, and no later basis entry
    has that bit, since each was reduced against the ones before it.  What
    is left of v is zero exactly when the row lies in the span.  Every other
    order goes through row_reduce.
    """
    if gf.order != 2:
        return len(row_reduce(rows, gf)[0])
    basis = []
    for row in rows:
        v = 0
        for bit in row:
            v = v << 1 | bit
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


def nullspace(rows, gf: GF, width: int) -> list:
    """Basis of {x in GF^width : M x^T = 0} for the given equation rows."""
    reduced, pivots = row_reduce(rows, gf)
    free = [c for c in range(width) if c not in pivots]
    neg = gf.neg_table
    basis = []
    for fc in free:
        vec = [0] * width
        vec[fc] = 1
        for row, pc in zip(reduced, pivots):
            vec[pc] = neg[row[fc]]
        basis.append(tuple(vec))
    return basis
