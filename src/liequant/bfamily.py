"""Families (B_pq) of multilinear Lie polynomials with associativity control.

Index convention: the table key (p, q) means p first-group arguments and q
second-group arguments, matching the product formula and the associativity
equations.  (The degree-3 display in the source normalization uses the
transposed labels; `PAPER3_B21`/`PAPER3_B12` below carry the values under
this convention.)

Boundary entries B_10 = B_01 = id and B_p0 = B_0p = 0 (p != 1) are implicit;
the table stores only p, q >= 1.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from . import linalg
from .freealg import (LiePoly, leftnormed_basis, lie_bracket, substitute,
                      substitute_letters, cbh, lie_to_json, lie_from_json)
from .liealg import tensor_add, tensor_smul
from .scalars import add_term, distribute, scalar_from_json, scalar_str


class Obstructed(ValueError):
    """A degree-by-degree system has no solution; str(e) is the degree.
    reason and witness, when given, name the failed check and one (key, c)
    term of what it left nonzero."""

    def __init__(self, degree, reason=None, witness=None):
        super().__init__(degree)
        self.degree = degree
        self.reason = reason
        self.witness = witness


@functools.lru_cache(maxsize=None)
def compositions(n, k):
    """All k-tuples of nonnegative integers summing to n."""
    if k == 0:
        return ((),) if n == 0 else ()
    return tuple((first,) + rest for first in range(n + 1)
                 for rest in compositions(n - first, k - 1))


@functools.lru_cache(maxsize=None)
def positive_compositions(n, k):
    return tuple(c for c in compositions(n, k) if all(c))


class BFamily:
    """The entries B_pq, with the memos of everything computed from them.

    The memos live and die with the family, so no family can be handed
    another one's results.
    """

    def __init__(self, lam, max_degree, table):
        self.lam = Fraction(lam) if not hasattr(lam, "coeffs") else lam
        self.max_degree = max_degree
        self.table = dict(table)
        self._letter_evals = {}
        self._letter_products = {}
        self._letter_antipodes = ({}, {})     # S, S^-1
        self.lambdas = None                   # rmatrix.LambdaTable, grown on demand

    def entry(self, p, q):
        """B_pq as a LiePoly in p+q generators (0..p-1 | p..p+q-1).  An
        entry past max_degree is not known, so reading one raises
        ValueError instead of taking it as zero."""
        if (p, q) in ((1, 0), (0, 1)):
            return LiePoly.gen(0)
        if p == 0 or q == 0:
            return LiePoly()
        if p + q > self.max_degree:
            raise ValueError("entry (%d, %d) is past the family's max_degree %d"
                             % (p, q, self.max_degree))
        return self.table.get((p, q)) or LiePoly()

    def eval(self, p, q, args, carrier=LiePoly):
        """B_pq evaluated on carrier elements (first p = first group)."""
        if p + q == 1:
            return args[0]
        return substitute(self.entry(p, q), args, carrier)

    def eval_block(self, p, q, letters):
        """Block rule of deformed_word_product on LiePoly letters: the one
        new letter B_pq(letters)."""
        val = self.eval(p, q, letters)
        return ((val, 1),) if val else ()

    # -- Lie letters: tuples of labels, each the left-normed monomial on them

    def letter_eval(self, p, q, letters):
        """B_pq on Lie letters, as a LiePoly; memoized on (p, q) and the
        letters' order type (`freealg.substitute_letters`)."""
        return substitute_letters(self.entry(p, q), letters, self._letter_evals, (p, q))

    def letter_mul(self, u, v):
        """Deformed product of two words of Lie letters; memoized."""
        hit = self._letter_products.get((u, v))
        if hit is None:
            hit = deformed_word_product(
                u, v, lambda p, q, ls: self.letter_eval(p, q, ls).terms.items())
            self._letter_products[(u, v)] = hit
        return hit

    def letter_antipode(self, w, inverse=False):
        """S(w), or S^-1(w), on a word of Lie letters: {word: coeff}."""
        mul = (lambda a, b: self.letter_mul(b, a)) if inverse else self.letter_mul
        return word_antipode(w, mul, self._letter_antipodes[inverse])

    def dual(self):
        """The involution: reverse both argument groups in every entry."""
        table = {}
        for (p, q), e in self.table.items():
            mapping = {i: p - 1 - i for i in range(p)}
            mapping.update({p + j: p + q - 1 - j for j in range(q)})
            table[(p, q)] = e.relabel(mapping)
        return BFamily(self.lam, self.max_degree, table)


def scale(r, B):
    if r == 0:
        raise ValueError("scaling by zero is not allowed")
    table = {}
    for (p, q), e in B.table.items():
        table[(p, q)] = (r ** (p + q - 1)) * e
    return BFamily(r * B.lam, B.max_degree, table)


# ---------------------------------------------------------------------------
# associativity residuals
# ---------------------------------------------------------------------------

def assoc_residual(B, p, q, r):
    """LHS minus RHS of the associativity equation at (p, q, r).

    Generators: x = 0..p-1, y = p..p+q-1, z = p+q..p+q+r-1.  Zero output
    certifies the equation.
    """
    if not (p > 0 and q > 0 and r > 0):
        raise ValueError("p, q, r must be positive")
    if p + q + r > B.max_degree:
        raise ValueError("degree out of range")
    xs = tuple(LiePoly.gen(i) for i in range(p))
    ys = tuple(LiePoly.gen(p + i) for i in range(q))
    zs = tuple(LiePoly.gen(p + q + i) for i in range(r))
    lhs = LiePoly()
    for w, c in deformed_word_product(xs, ys, B.eval_block):
        lhs = lhs + c * B.eval(len(w), r, w + zs)
    rhs = LiePoly()
    for w, c in deformed_word_product(ys, zs, B.eval_block):
        rhs = rhs + c * B.eval(p, len(w), xs + w)
    return lhs - rhs


def violations(B):
    """(p, q, r, residual) for each associativity equation B breaks,
    lowest degree first."""
    for n in range(3, B.max_degree + 1):
        for p in range(1, n - 1):
            for q in range(1, n - p):
                res = assoc_residual(B, p, q, n - p - q)
                if res:
                    yield p, q, n - p - q, res


def all_residuals_zero(B):
    return not any(violations(B))


# ---------------------------------------------------------------------------
# solving
# ---------------------------------------------------------------------------

# degree-3 entries of the normalized family (first-group size first):
# B_21(x,x'|y) = ([x,[x',y]] + [x',[x,y]])/24 on generators (x,x',y) = (0,1,2),
# B_12(x|y,y') = ([y,[y',x]] + [y',[y,x]])/24 on generators (x,y,y') = (0,1,2).
def _nested(a, b, c):
    return lie_bracket(LiePoly.gen(a), lie_bracket(LiePoly.gen(b), LiePoly.gen(c)))


PAPER3_B21 = Fraction(1, 24) * (_nested(0, 1, 2) + _nested(1, 0, 2))
PAPER3_B12 = Fraction(1, 24) * (_nested(1, 2, 0) + _nested(2, 1, 0))


def _unknown_slots(n):
    """Coordinate slots ((p, q), monomial) for degree-n entries, ordered."""
    slots = []
    for p in range(1, n):
        q = n - p
        for mono in leftnormed_basis(range(n)):
            slots.append(((p, q), mono))
    return slots


def _residuals(B, n):
    """The degree-n associativity residuals of B as {(p, q, r, mono): c}."""
    f = {}
    for p in range(1, n - 1):
        for q in range(1, n - p):
            for mono, c in assoc_residual(B, p, q, n - p - q).terms.items():
                f[(p, q, n - p - q, mono)] = c
    return f


def shuffles(u, v):
    """The words of Sh(len(u), len(v)): u and v interleaved, each in order."""
    n = len(u) + len(v)
    for pos in itertools.combinations(range(n), len(u)):
        iu, iv = iter(u), iter(v)
        yield tuple(next(iu) if i in pos else next(iv) for i in range(n))


def _shuffle_sum(e, u, v):
    """The sum over Sh(len(u), len(v)) of e with its letters u + v, in
    order, replaced by each shuffle of u and v."""
    return sum((e.relabel(dict(zip((*u, *v), w))) for w in shuffles(u, v)), LiePoly())


def _shuffle_column(slot):
    """The column of L_n at slot ((a, b), mono), n = a + b: the degree-n
    residuals of B_ab = mono with every other entry of degree n zero.

    A degree-n entry E = B_ab meets the degree-n equations only with
    generator letters: +E(sigma(x, y) | z) in each (p, q, b) with
    p + q = a and -E(x | tau(y, z)) in each (a, q, r) with q + r = b,
    summed over the shuffles sigma and tau.
    """
    (a, b), mono = slot
    e = LiePoly({mono: Fraction(1)})
    col = {}
    for p in range(1, a):
        for m, c in _shuffle_sum(e, range(p), range(p, a)).terms.items():
            add_term(col, (p, a - p, b, m), c)
    for q in range(1, b):
        for m, c in _shuffle_sum(e, range(a, a + q), range(a + q, a + b)).terms.items():
            add_term(col, (a, q, b - q, m), -c)
    return col


def _add_slots(table, coords):
    """Add c * mono to entry pq of table for each ((pq, mono), c)."""
    by_entry = {}
    for (pq, mono), c in coords:
        add_term(by_entry.setdefault(pq, {}), mono, c)
    for pq, terms in by_entry.items():
        e = table.get(pq, LiePoly()) + LiePoly(terms)
        if e:
            table[pq] = e
        else:
            table.pop(pq, None)


def solve_bfamily(lam, N, gauge):
    """Solve the associativity equations degree by degree up to N.

    gauge "rref-zero": free variables of each degree's exact linear system
    are set to zero under the fixed ((p,q), monomial) ordering.  gauge
    "paper3": additionally pins the degree-3 entries to the explicit
    normalized values (requires lam = 1/2).  When degree n has no
    solution, raises Obstructed(n, "assoc", (key, c)): key is an equation
    term (p, q, r, monomial) left unsatisfied and c its residual.
    """
    if N < 2:
        raise ValueError("N >= 2 required")
    if gauge not in ("rref-zero", "paper3"):
        raise ValueError("unknown gauge mode %r" % (gauge,))
    if gauge == "paper3" and lam != Fraction(1, 2):
        raise ValueError("paper3 gauge requires lam = 1/2")
    lam = Fraction(lam)
    b11 = lam * LiePoly.leftnormed((0, 1))
    table = {(1, 1): b11}
    pins = {}
    if gauge == "paper3":
        for (p, q), target in (((2, 1), PAPER3_B21), ((1, 2), PAPER3_B12)):
            for mono in leftnormed_basis(range(3)):
                pins[((p, q), mono)] = target.terms.get(mono, Fraction(0))

    # Degree n is one linear system.  The degree-n entries enter the
    # degree-n equations through the shuffle operator L_n, which does not
    # depend on B, and the constant term is the degree-n residual of the
    # lower degrees.  In front of L_n, one column per kernel relation D
    # of degree n-1's own columns (L_{n-1} and its pins) reopens that
    # degree's free part: D meets the degree-n equations only through
    # B_11, and only linearly for n >= 4, so the degree-n residual of
    # {B_11, D} is its exact column.  The pins are extra rows, and every
    # free variable is zero.  Through degree 4 this is the joint solve of
    # all degrees with every free variable zero.
    reopened = []       # degree n-1's kernel directions, as [(slot, c)]
    for n in range(3, N + 1):
        slots = _unknown_slots(n)
        cols = []
        for d in reopened:
            alone = {(1, 1): b11}
            _add_slots(alone, d)
            cols.append(_residuals(BFamily(lam, n, alone), n))
        target = {key: -c for key, c in _residuals(BFamily(lam, n, table), n).items()}
        for slot in slots:
            if slot in pins:
                # the pin row first, so the echelon pivots on it and an
                # inconsistency is left on the equations
                cols.append({slot: Fraction(1), **_shuffle_column(slot)})
                add_term(target, slot, pins[slot])
            else:
                cols.append(_shuffle_column(slot))
        ech = linalg.rref(cols, len(cols))
        try:
            x = ech.solve(target)
        except linalg.InconsistentSystem as e:
            key, c = next(iter(e.residual.items()))
            raise Obstructed(n, "assoc", (key, -c)) from e
        k = len(reopened)
        _add_slots(table, [(slot, x[i] * c) for i, d in enumerate(reopened)
                           if i in x for slot, c in d])
        _add_slots(table, [(slot, x[k + j]) for j, slot in enumerate(slots)
                           if k + j in x])
        if n < N:
            reopened = [[(slots[j], c) for j, c in rel.items()]
                        for rel in linalg.nullspace(cols[k:], len(slots))]
    fam = BFamily(lam, N, table)
    assert all_residuals_zero(fam)
    return fam


# ---------------------------------------------------------------------------
# gauge group
# ---------------------------------------------------------------------------

class GaugeSeq:
    """Sequence (P_n), P_1 = x; entries multilinear LiePoly in n generators."""

    def __init__(self, table, max_degree):
        self.table = dict(table)
        self.max_degree = max_degree

    def entry(self, n):
        """P_n; as for BFamily.entry, an entry past max_degree is not
        known, so reading one raises ValueError instead of taking it as
        zero."""
        if n == 1:
            return LiePoly.gen(0)
        if n > self.max_degree:
            raise ValueError("entry %d is past the gauge's max_degree %d"
                             % (n, self.max_degree))
        return self.table.get(n) or LiePoly()

    def eval(self, n, args):
        """P_n evaluated on LiePoly arguments."""
        if n == 1:
            return args[0]
        return substitute(self.entry(n), args)


def gauge_mul(P, Q):
    """Group law: (P*Q)_n = sum P_alpha(Q-blocks)."""
    N = min(P.max_degree, Q.max_degree)
    table = {}
    for n in range(2, N + 1):
        acc = LiePoly()
        for blocks in _gauge_blocks(Q, [LiePoly.gen(i) for i in range(n)]):
            acc = acc + P.eval(len(blocks), list(blocks))
        if acc:
            table[n] = acc
    return GaugeSeq(table, N)


def _live(p, q):
    """False when B_pq is zero by definition: B_00 = 0, and B_p0 = B_0p = 0
    for p != 1."""
    return bool(p and q) or p + q == 1


def _live_partners(pc, b):
    """The compositions qc of b, in lexicographic order, that pair with pc
    into `_live` blocks only: a 0 in pc takes a 1, a part >= 2 a part
    >= 1, and a 1 any part."""
    if not pc:
        return [()] if b == 0 else []
    p, rest = pc[0], pc[1:]
    # each later part that (r, 0) leaves dead takes at least 1
    high = b - sum(not _live(r, 0) for r in rest)
    return [(q,) + tail for q in range(high + 1) if _live(p, q)
            for tail in _live_partners(rest, b - q)]


@functools.lru_cache(maxsize=None)
def _live_blocks(a, b):
    """The live block sequences of deformed_word_product for word lengths
    a and b, in its order: each a tuple of blocks (pb, qb, ox, oy), the
    block sizes and their offsets into the two words."""
    out = []
    for k in range(1, a + b + 1):
        for pc in compositions(a, k):
            ox = tuple(itertools.accumulate(pc, initial=0))
            for qc in _live_partners(pc, b):
                out.append(tuple(zip(pc, qc, ox, itertools.accumulate(qc, initial=0))))
    return tuple(out)


def deformed_word_product(u, v, block):
    """Product of two words under a B-family.

    The sum over pairs of equal-length compositions (pc, qc) of len(u) and
    len(v); each block pair (p, q) becomes a new letter given by
    block(p, q, letters) as (letter, coeff) pairs, where letters are the
    block's p letters of u followed by its q letters of v.  Only block
    sequences whose blocks are all live are walked: (1, 0), (0, 1) and
    p, q >= 1.  B_00, B_p0 and B_0p (p >= 2) are zero by definition, and
    block must give no term on them, so the dropped sequences are exactly
    the zero ones; an entry that is zero only because p + q exceeds the
    family's max_degree is still evaluated.  The sequences come by number
    of blocks k, then pc, then qc, each in lexicographic order, and are
    memoized per (len(u), len(v)).  The empty word is the unit.  Returns
    [(word, coeff)], repeats allowed.
    """
    if not u or not v:
        return [(u + v, 1)]
    out = []
    for blocks in _live_blocks(len(u), len(v)):
        out.extend(distribute(block(pb, qb, u[ox:ox + pb] + v[oy:oy + qb])
                              for pb, qb, ox, oy in blocks))
    return out


def word_antipode(w, mul, memo):
    """Antipode of a word for deconcatenation and the product mul.

    S(w) = -sum_{i<|w|} S(w[:i]) w[i:], with mul(u, v) -> [(word, coeff)];
    called with the opposite product it gives S^-1, the antipode of H^op.
    Memoized per word in memo (owned by the owner of mul); returns
    {word: coeff}, which callers must not change.
    """
    hit = memo.get(w)
    if hit is None:
        hit = {} if w else {(): 1}
        for i in range(len(w)):
            for head, c in word_antipode(w[:i], mul, memo).items():
                for word, cw in mul(head, w[i:]):
                    add_term(hit, word, -c * cw)
        memo[w] = hit
    return hit


def _gauge_blocks(P, word):
    """i_P applied to a word of carrier letters: its block-words (coefficient 1)."""
    n = len(word)
    out = []
    for k in range(1, n + 1):
        for nc in positive_compositions(n, k):
            letters = []
            off = 0
            ok = True
            for nb in nc:
                val = P.eval(nb, list(word[off:off + nb]))
                off += nb
                if not val:
                    ok = False
                    break
                letters.append(val)
            if ok:
                out.append(tuple(letters))
    return out


def gauge_act(P, B):
    """Left action of the gauge group on families.

    Defined by transporting the product along the canonical isomorphism:
    (P*B)_pq = pr( i_P( m_B( i_{P^{-1}}(x-word), i_{P^{-1}}(y-word) ) ) ),
    so that Sh-products transported by i_P have (P*B) as their family and
    (P*Q)*B = P*(Q*B).
    """
    if P.max_degree < B.max_degree:
        raise ValueError("gauge sequence does not cover the family degree")
    Pinv = gauge_inverse(P)
    table = {}
    for n in range(2, B.max_degree + 1):
        for p in range(1, n):
            q = n - p
            gens = [LiePoly.gen(i) for i in range(n)]
            u, v = tuple(gens[:p]), tuple(gens[p:])
            acc = LiePoly()
            for wu in _gauge_blocks(Pinv, u):
                for wv in _gauge_blocks(Pinv, v):
                    for w, cw in deformed_word_product(wu, wv, B.eval_block):
                        # pr of i_P on a word (L_1...L_k) is P_k(L_1,...,L_k)
                        acc = acc + cw * P.eval(len(w), list(w))
            if acc:
                table[(p, q)] = acc
    return BFamily(B.lam, B.max_degree, table)


def gauge_inverse(P):
    """Inverse for the gauge group law, degree by degree."""
    N = P.max_degree
    inv = GaugeSeq({}, N)
    for n in range(2, N + 1):
        # (P * inv)_n = P_n + [terms in inv_k, k<n] + inv_n  must vanish
        partial = gauge_mul(P, inv)
        e = partial.entry(n)
        if e:
            inv.table[n] = inv.entry(n) - e
    assert not any(map(gauge_mul(P, inv).entry, range(2, N + 1)))
    return inv


def _degree_terms(B, n):
    """The degree-n entries of B as {(p, q, monomial): c}."""
    return {(p, n - p, m): c for p in range(1, n)
            for m, c in B.entry(p, n - p).terms.items()}


def connecting_gauge(B_from, B_to):
    """A gauge P with gauge_act(P, B_from) == B_to, degree by degree.

    At degree n, P_n moves each degree-n entry (p, q) by its shuffle sum
    over Sh(p, q) and leaves the lower degrees alone.  In front of those
    columns, one column per kernel direction D of degree n-1's shuffle
    sums reopens that degree: id + D leaves every degree below n alone
    and moves degree n linearly (D's square has degree 2n - 3 > n for
    n >= 4; at n = 3 the column is empty).  Each degree is one exact
    solve with every free variable zero; the result is checked exactly.
    When degree n has no solution, raises Obstructed(n, "gauge",
    (key, c)): key is a term (p, q, monomial) of B_to minus the gauged
    B_from left unreached, and c its coefficient.  That means only that
    no gauge extends the lower degrees as chosen with just the degree-
    (n-1) directions reopened; in general it does not prove the families
    inequivalent.
    """
    N = min(B_from.max_degree, B_to.max_degree)
    P = GaugeSeq({}, N)
    cur = B_from
    reopened = []       # degree n-1's kernel directions, as LiePolys
    for n in range(2, N + 1):
        monos = leftnormed_basis(range(n))
        # the degree-n action reads no entry above degree n
        low = BFamily(cur.lam, n, cur.table)
        here = _degree_terms(cur, n)
        cols = [tensor_add(_degree_terms(gauge_act(GaugeSeq({n - 1: d}, n), low), n),
                           tensor_smul(-1, here)) for d in reopened]
        for mono in monos:
            e = LiePoly({mono: Fraction(1)})
            cols.append({(p, n - p, m): c for p in range(1, n)
                         for m, c in _shuffle_sum(e, range(p), range(p, n)).terms.items()})
        try:
            x = linalg.rref(cols, len(cols)).solve(
                tensor_add(_degree_terms(B_to, n), tensor_smul(-1, here)))
        except linalg.InconsistentSystem as e:
            raise Obstructed(n, "gauge", next(iter(e.residual.items()))) from e
        k = len(reopened)
        d_star = sum((x[i] * d for i, d in enumerate(reopened) if i in x), LiePoly())
        p_n = LiePoly({monos[j]: x[k + j] for j in range(len(monos)) if k + j in x})
        step = GaugeSeq({n - 1: d_star, n: p_n}, N)
        P = gauge_mul(step, P)
        cur = gauge_act(step, cur)
        if n < N:
            reopened = [LiePoly({monos[j]: c for j, c in rel.items()})
                        for rel in linalg.nullspace(cols[k:], len(monos))]
    chk = gauge_act(P, B_from)
    assert all(_degree_terms(chk, n) == _degree_terms(B_to, n) for n in range(2, N + 1))
    return P


# ---------------------------------------------------------------------------
# CBH check
# ---------------------------------------------------------------------------

def cbh_check(B):
    """Compare B_pq(x..x|y..y) with the CBH table; report per (p, q)."""
    tab = cbh(B.max_degree)
    report = {}
    x, y = LiePoly.gen(0), LiePoly.gen(1)
    for n in range(1, B.max_degree + 1):
        for p in range(0, n + 1):
            q = n - p
            if p == 0 or q == 0:
                continue
            diag = B.eval(p, q, [x] * p + [y] * q)
            report[(p, q)] = (diag == tab[(p, q)])
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def bfamily_to_json(B):
    return {"lambda": scalar_str(B.lam), "max_degree": B.max_degree,
            "entries": [{"p": p, "q": q, "poly": lie_to_json(e)}
                        for (p, q), e in sorted(B.table.items())]}


def bfamily_from_json(d):
    """Inverse of bfamily_to_json; raises ValueError unless max_degree is
    an integer and every entry (p, q) has p, q >= 1, p + q <= max_degree,
    appears once and is multilinear in the generators 0..p+q-1."""
    n = d["max_degree"]
    if type(n) is not int:
        raise ValueError("max_degree %r is not an integer" % (n,))
    table = {}
    for e in d["entries"]:
        p, q = e["p"], e["q"]
        if type(p) is not int or type(q) is not int or min(p, q) < 1 or p + q > n:
            raise ValueError("entry (%r, %r) outside p, q >= 1, p + q <= %d" % (p, q, n))
        if (p, q) in table:
            raise ValueError("entry (%d, %d) given twice" % (p, q))
        poly = lie_from_json(e["poly"])
        if any(sorted(w) != list(range(p + q)) for w in poly.terms):
            raise ValueError("entry (%d, %d) is not multilinear in %d generators"
                             % (p, q, p + q))
        table[(p, q)] = poly
    return BFamily(scalar_from_json(d["lambda"]), n, table)


def stored_family(degree):
    """The paper3 family (lambda = 1/2) to `degree`: the prefix of the
    degree-6 family stored in data/bfamily_paper3.jsonl, one header line
    and then one bfamily_to_json entry per line, ordered by p + q.  It
    reads no line past the first entry above `degree`, and raises
    ValueError above the stored degree.  The prefixes of degree <= 3 and
    the whole file equal solve_bfamily(1/2, degree, "paper3"); those of
    degree 4 and 5 do not, because a solve to degree n sets the free part
    of degree n to zero and the degree-6 solve reopened it."""
    import json
    import os
    with open(os.path.join(os.path.dirname(__file__), "data", "bfamily_paper3.jsonl")) as fh:
        header = json.loads(next(fh))
        if degree > header["max_degree"]:
            raise ValueError("degree %d is above %d, the degree of the stored family"
                             % (degree, header["max_degree"]))
        entries = []
        for line in fh:
            e = json.loads(line)
            if e["p"] + e["q"] > degree:
                break
            entries.append(e)
    return bfamily_from_json({**header, "max_degree": degree, "entries": entries})


def stored_varrho(degree):
    """rho_1..rho_degree of the stored paper3 family: the universal
    solution solve_varrho(stored_family(degree + 1), degree), read from
    data/varrho_paper3.jsonl, one rmatrix.uelem_to_json line per degree
    from 1.  The solution is unique at the universal level, so it is a
    constant of the family; it raises ValueError above the stored degree 4."""
    import json
    import os
    from .rmatrix import uelem_from_json
    varrho = {}
    with open(os.path.join(os.path.dirname(__file__), "data", "varrho_paper3.jsonl")) as fh:
        for n, line in enumerate(fh, 1):
            if n > degree:
                break
            varrho[n] = uelem_from_json(json.loads(line))
    if len(varrho) < degree:
        raise ValueError("degree %d is above %d, the degree of the stored rho"
                         % (degree, len(varrho)))
    return varrho
