"""Order-by-order deformation of CYBE solutions in associative algebras.

Tensors over an algebra A are dicts {index tuple: Fraction} over a fixed
basis; slots without content hold the unit.  They follow
scalars.add_term (no key holds a zero coefficient) and are added and
scaled with liealg.tensor_add/tensor_smul.  The maps here are CYBE, the
six-term bracket and the four-slot coboundary, which sum liealg's tables
CYBE, DELTA3 and DELTA4 over the placed commutator t_comm(place, place);
the rest of the homotopy family; and the residuals of the order-N
quantization equations.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .liealg import CYBE, DELTA3, DELTA4, coboundary, tensor_add, tensor_smul
from .scalars import add_term, distribute


class AssocAlgebra:
    """Associative unital algebra by structure constants.

    mult[(i, j)] = {k: c} meaning e_i e_j = sum c e_k; unit: the vector
    of the identity element.
    """

    def __init__(self, dim, names, mult, unit):
        self.dim = dim
        self.names = names
        self.mult = {k: dict(v) for k, v in mult.items()}
        self.unit = dict(unit)
        self._validate()

    def mul_basis(self, i, j):
        return self.mult.get((i, j), {})

    def mul(self, u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in self.mul_basis(i, j).items():
                    add_term(out, k, a * b * c)
        return out

    def _validate(self):
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.mul(self.mul_basis(i, j), {k: Fraction(1)})
                    rhs = self.mul({i: Fraction(1)}, self.mul_basis(j, k))
                    if lhs != rhs:
                        raise ValueError("not associative at (%d,%d,%d)" % (i, j, k))
            if self.mul(self.unit, {i: Fraction(1)}) != {i: Fraction(1)} or \
               self.mul({i: Fraction(1)}, self.unit) != {i: Fraction(1)}:
                raise ValueError("unit law fails at %d" % i)


def matrix_algebra(n):
    """M_n(Q) on the basis e_{ij}, index i*n+j."""
    mult = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        mult[(i * n + j, k * n + l)] = {i * n + l: Fraction(1)}
    unit = {i * n + i: Fraction(1) for i in range(n)}
    names = ["e%d%d" % (i + 1, j + 1) for i in range(n) for j in range(n)]
    return AssocAlgebra(n * n, names, mult, unit)


# ---------------------------------------------------------------------------
# tensor calculus in A^(x n)
# ---------------------------------------------------------------------------

def place(alg, t, spots, n):
    """Embed a tensor into n slots, units elsewhere."""
    out = {}
    unit_items = list(alg.unit.items())
    for k, c in t.items():
        slots = [unit_items] * n
        for spot, comp in zip(spots, k):
            slots[spot - 1] = ((comp, 1),)
        for idx, cc in distribute(slots, c):
            add_term(out, idx, cc)
    return out


def t_mul(alg, t, u):
    """Componentwise product of two tensors of equal degree."""
    out = {}
    for k1, c1 in t.items():
        for k2, c2 in u.items():
            slots = (alg.mul_basis(i, j).items() for i, j in zip(k1, k2))
            for key, c in distribute(slots, c1 * c2):
                add_term(out, key, c)
    return out


def t_comm(alg, t, u):
    return tensor_add(t_mul(alg, t, u), tensor_smul(Fraction(-1), t_mul(alg, u, t)))


def random_tensor(alg, degree, rng, span):
    out = {}
    for _ in range(4):
        idx = tuple(rng.randrange(alg.dim) for _ in range(degree))
        add_term(out, idx, Fraction(rng.randint(-span, span)))
    return out


# ---------------------------------------------------------------------------
# the maps of the deformation complex
# ---------------------------------------------------------------------------

def _placed_comm(alg, r, x, n):
    """The placed bracket (s, t) -> [r^(s), x^(t)] in A^(x n)."""
    return lambda s, t: t_comm(alg, place(alg, r, s, n), place(alg, x, t, n))


def cybe(alg, r):
    """[r12,r13] + [r12,r23] + [r13,r23] in A^(x3)."""
    return coboundary(CYBE, _placed_comm(alg, r, r, 3))


def bbrack(alg, r, R):
    """Six-term bracket [[r, R]]: the linearization of CYBE."""
    return coboundary(DELTA3, _placed_comm(alg, r, R, 3))


def delta_p(alg, R, rho, p):
    """The homotopy family delta_p, p = 0..3 (zero outside that range).

    delta_3 is the tetrahedron identity: the two maximal chains of braid
    moves from 12 13 14 23 24 34 to its reverse.  delta_1 is its linear
    term (the t-linear part at R = 1 + t r): the table liealg.DELTA4.
    """
    if p == 0 or p >= 4:
        return {}
    if p == 1:
        return coboundary(DELTA4, _placed_comm(alg, R, rho, 4))
    P = lambda spots: place(alg, R, spots, 4)
    Q = lambda spots: place(alg, rho, spots, 4)
    mul = lambda *ts: _chain_mul(alg, ts)
    add = lambda *ts: functools.reduce(tensor_add, ts)
    neg = lambda t: tensor_smul(-1, t)
    r12, r13, r14 = P((1, 2)), P((1, 3)), P((1, 4))
    r23, r24, r34 = P((2, 3)), P((2, 4)), P((3, 4))
    if p == 2:
        return add(
            mul(add(mul(r12, r13), mul(r12, r14), mul(r13, r14)), Q((2, 3, 4))),
            neg(mul(Q((2, 3, 4)), add(mul(r14, r13), mul(r14, r12), mul(r13, r12)))),
            neg(mul(r23, r24, Q((1, 3, 4)))),
            neg(mul(add(r23, r24), Q((1, 3, 4)), r12)),
            mul(r12, Q((1, 3, 4)), add(r23, r24)),
            mul(Q((1, 3, 4)), r24, r23),
            neg(mul(r23, r13, Q((1, 2, 4)))),
            neg(mul(add(r13, r23), Q((1, 2, 4)), r34)),
            mul(r34, Q((1, 2, 4)), add(r13, r23)),
            mul(Q((1, 2, 4)), r13, r23),
            mul(add(mul(r34, r24), mul(r34, r14), mul(r24, r14)), Q((1, 2, 3))),
            neg(mul(Q((1, 2, 3)), add(mul(r14, r24), mul(r14, r34), mul(r24, r34)))))
    # p == 3
    return add(
        mul(r12, r13, r14, Q((2, 3, 4))),
        neg(mul(Q((2, 3, 4)), r14, r13, r12)),
        neg(mul(r23, r24, Q((1, 3, 4)), r12)),
        mul(r12, Q((1, 3, 4)), r24, r23),
        neg(mul(r23, r13, Q((1, 2, 4)), r34)),
        mul(r34, Q((1, 2, 4)), r13, r23),
        mul(r34, r24, r14, Q((1, 2, 3))),
        neg(mul(Q((1, 2, 3)), r14, r24, r34)))


def _chain_mul(alg, ts):
    out = ts[0]
    for t in ts[1:]:
        out = t_mul(alg, out, t)
    return out


def _ordered_triple(alg, a, b, c):
    """a^12 b^13 c^23 - c^23 b^13 a^12 in A^(x3)."""
    a12 = place(alg, a, (1, 2), 3)
    b13 = place(alg, b, (1, 3), 3)
    c23 = place(alg, c, (2, 3), 3)
    return tensor_add(_chain_mul(alg, (a12, b13, c23)),
                      tensor_smul(Fraction(-1), _chain_mul(alg, (c23, b13, a12))))


def aryeh_residual(alg, R, p):
    """delta_p(R, R12R13R23 - R23R13R12) + delta_{p+1}(R, CYBE(R))."""
    return tensor_add(delta_p(alg, R, _ordered_triple(alg, R, R, R), p),
                      delta_p(alg, R, cybe(alg, R), p + 1))


def recursion_residual(alg, r, rseq, N):
    """Residual of the order-N equation.

    rseq: [R_1, ..., R_k] with R_1 = r.  Computes [[r, R_{N-1}]] +
    sum_{p,q,s <= N-2, p+q+s = N} (R_p^12 R_q^13 R_s^23 - reverse) with
    R_0 = 1; zero certifies the equation.
    """
    full = [None] + list(rseq)
    out = bbrack(alg, r, full[N - 1]) if N - 1 < len(full) else {}

    def R(i):
        if i == 0:
            u = {}
            for a, ca in alg.unit.items():
                for b, cb in alg.unit.items():
                    u[(a, b)] = ca * cb
            return u
        return full[i]

    for p in range(0, N - 1):
        for q in range(0, N - 1):
            s = N - p - q
            if s < 0 or s > N - 2:
                continue
            out = tensor_add(out, _ordered_triple(alg, R(p), R(q), R(s)))
    return out


def half_r_squared(alg, r):
    """(1/2) r^2 in A x A (componentwise square)."""
    return tensor_smul(Fraction(1, 2), t_mul(alg, r, r))


def random_r(alg, rng):
    return random_tensor(alg, 2, rng, 2)
