"""Deformed shuffle Hopf algebras of a Lie algebra and their tensor duals.

ShElem: word-indexed elements of the deformed shuffle algebra of g, with
truncated hbar-series coefficients.  The deformed tensor Hopf algebra T(g)
of a Lie bialgebra g is the free associative algebra on the basis of g
(elements are freealg.AssocPoly, the product is concatenation); only its
coproduct t_comul is deformed.  That coproduct is B_pq read on the double
D = g + g*: TensContext.dual_block evaluates B_pq on dual-basis letters
and pairs the value with e_x, and the same blocks serve quantize's phi/psi.
ShTensor: small tensor powers of ShElem legs.
"""

from __future__ import annotations

import itertools

from .scalars import (HSeries, LinComb, add_term, as_series, distribute, lincomb,
                      scalar_from_json, scalar_str, surviving_pairs)
from .bfamily import WordAlgebra, positive_compositions


class ShContext(WordAlgebra):
    """A Lie algebra together with a B-family: the deformed word algebra
    on its basis words, whose block rule is b_eval, with a memo of the B
    evaluations (the same words recur massively in tensor work).  The
    product is defined over Q, so every memo holds ints and Fractions; a
    one-letter block is its letter with the int coefficient 1.  `order`
    is the order of the series the constructors build."""

    def __init__(self, alg, bfam, order):
        super().__init__(lambda p, q, idx: self.b_eval(p, q, idx).items())
        self.alg = alg
        self.bfam = bfam
        self.order = order
        self._bcache = {}

    # in the class's own namespace, where the benchmark tracer finds it
    word_mul = WordAlgebra.word_mul

    def b_eval(self, p, q, idx):
        """B_pq on basis elements (tuple idx, first p = first group), each
        its letter with the int coefficient 1.  A one-letter block (p + q
        = 1) is B_10 = B_01 = id: that letter, so the shuffle part of a
        word product multiplies ints; a longer block sums c times the
        algebra's memoized left-normed bracket of idx along each word w
        of B_pq."""
        key = (p, q, idx)
        hit = self._bcache.get(key)
        if hit is None:
            if p + q == 1:
                hit = {idx[0]: 1}
            else:
                leftnormed = self.alg.leftnormed
                hit = lincomb((c, leftnormed(tuple(idx[a] for a in w)))
                              for w, c in self.bfam.entry(p, q).terms.items())
            self._bcache[key] = hit
        return hit


def _norm_terms(terms, order):
    """Tuple keys and hbar-series coefficients, zeros dropped."""
    out = {}
    for k, c in (terms or {}).items():
        c = as_series(c, order)
        if c:
            out[tuple(k)] = c
    return out


class ShElem(LinComb):
    """Element of the deformed shuffle algebra: dict word -> HSeries."""

    def __init__(self, ctx, terms=None):
        self.ctx = ctx
        self.terms = _norm_terms(terms, ctx.order)

    def _like(self, terms):
        # LinComb's maps keep tuple keys and HSeries values: drop zeros only
        out = ShElem.__new__(ShElem)
        out.ctx = self.ctx
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    @staticmethod
    def unit(ctx, c=1):
        return ShElem(ctx, {(): as_series(c, ctx.order)})

    @staticmethod
    def word(ctx, letters, c=1):
        return ShElem(ctx, {tuple(letters): as_series(c, ctx.order)})

    def counit(self):
        return self.terms.get((), as_series(0, self.ctx.order))

    def pr(self):
        """Degree-1 component as a vector over the algebra basis."""
        return {w[0]: c for w, c in self.terms.items() if len(w) == 1}

    def __repr__(self):
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            name = "(" + " ".join(self.ctx.alg.basis_names[i] for i in w) + ")"
            bits.append("[%s]%s" % (self.terms[w], name))
        return " + ".join(bits) if bits else "0"


def sh_mul(a, b):
    """Product of the deformed shuffle algebra (sum over composition pairs)."""
    ctx = a.ctx
    out = {}
    for wa, ca, wb, cb in surviving_pairs(a.terms, b.terms):
        c = ca * cb
        for w, cw in ctx.word_mul(wa, wb).items():
            add_term(out, w, c * cw)
    return a._like(out)


def sh_comul(a):
    """Deconcatenation coproduct, as a 2-leg ShTensor."""
    return ShTensor(a.ctx, 1, {(w,): c for w, c in a.terms.items()}).comul_leg(0)


def sh_antipode(a):
    """The antipode, memoized per word on the context."""
    out = {}
    for w, c in a.terms.items():
        for x, cx in a.ctx.antipode(w).items():
            add_term(out, x, c * cx)
    return a._like(out)


# ---------------------------------------------------------------------------
# tensor powers of the shuffle algebra
# ---------------------------------------------------------------------------

class ShTensor(LinComb):
    """Element of Sh(g)^(x legs): dict (word, ..., word) -> HSeries."""

    def __init__(self, ctx, legs, terms=None):
        self.ctx = ctx
        self.legs = legs
        self.terms = _norm_terms(terms, ctx.order)

    def _like(self, terms, legs=None):
        # as ShElem._like: the terms are normalized but for zeros
        out = ShTensor.__new__(ShTensor)
        out.ctx = self.ctx
        out.legs = self.legs if legs is None else legs
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    def mul(self, other):
        """Legwise product (all legs commute past each other)."""
        word_mul = self.ctx.word_mul
        out = ShTensor(self.ctx, self.legs, {})
        for k1, c1, k2, c2 in surviving_pairs(self.terms, other.terms):
            legs = (word_mul(w1, w2).items() for w1, w2 in zip(k1, k2))
            for key, c in distribute(legs, c1 * c2):
                add_term(out.terms, key, c)
        return out

    def hcoeff(self, k):
        """Coefficient of hbar^k: plain-rational ShTensor data."""
        out = {}
        for key, c in self.terms.items():
            v = c.coeff(k)
            if v:
                out[key] = v
        return out


# ---------------------------------------------------------------------------
# Hopf axioms report
# ---------------------------------------------------------------------------

def all_words(dim, max_len):
    out = [()]
    for n in range(1, max_len + 1):
        out.extend(itertools.product(range(dim), repeat=n))
    return out


def hopf_report(alg, bfam, deg, hord):
    """Check all Hopf axioms on basis words up to tensor degree deg, and
    return the failures: a (kind, (words, key, order)) pair per failed
    check, naming the checked words, then the first term of lhs - rhs and
    the hbar valuation of its coefficient (an empty list when all hold).

    Each pair product u v (|u| + |v| <= deg) and each antipode image S(u)
    is computed once and read by every check that needs it.  Every input
    word has coefficient 1 and the structure maps are defined over Q, so
    every compared coefficient is a constant series: the verdict and the
    witnesses do not depend on hord, and every witness order is 0."""
    ctx = ShContext(alg, bfam, hord)
    failures = []

    def check(kind, words, *sides):
        """Record the first (lhs, rhs) of sides that differ."""
        for lhs, rhs in sides:
            if lhs != rhs:
                key, c = next(iter((lhs - rhs).terms.items()))
                failures.append((kind, (words, key, c.valuation())))
                return

    words = all_words(alg.dim, deg)
    nonempty = [w for w in words if w]
    elems = {u: ShElem.word(ctx, u) for u in words}
    comuls = {u: sh_comul(a) for u, a in elems.items()}
    prods = {(u, v): sh_mul(elems[u], elems[v])
             for u in nonempty for v in nonempty if len(u) + len(v) <= deg}
    antis = {u: sh_antipode(a) for u, a in elems.items()}
    # associativity
    for u, v in prods:
        for w in nonempty:
            if len(u) + len(v) + len(w) > deg:
                continue
            check("associativity", (u, v, w),
                  (sh_mul(prods[u, v], elems[w]), sh_mul(elems[u], prods[v, w])))
    # coassociativity and counit
    for u in words:
        a, comul = elems[u], comuls[u]
        check("coassociativity", u, (comul.comul_leg(0), comul.comul_leg(1)))
        left = ShElem(ctx, {w2: c for (w1, w2), c in comul.terms.items() if not w1})
        right = ShElem(ctx, {w1: c for (w1, w2), c in comul.terms.items() if not w2})
        check("counit", u, (left, a), (right, a))
    # bialgebra compatibility Delta(uv) = Delta(u)Delta(v)
    for (u, v), prod in prods.items():
        check("bialgebra", (u, v), (sh_comul(prod), comuls[u].mul(comuls[v])))
    # antipode axioms, and S^-1 inverts S
    for u in words:
        a = elems[u]
        conv, conv2 = {}, {}
        for (w1, w2), c in comuls[u].terms.items():
            for x, cx in sh_mul(antis[w1], ShElem.word(ctx, w2, c)).terms.items():
                add_term(conv, x, cx)
            for x, cx in sh_mul(ShElem.word(ctx, w1, c), antis[w2]).terms.items():
                add_term(conv2, x, cx)
        target = ShElem.unit(ctx, a.counit()) if u == () else ShElem(ctx, {})
        check("antipode", u, (a._like(conv), target), (a._like(conv2), target))
        check("antipode-inverse", u,
              (sh_antipode(ShElem(ctx, ctx.antipode(u, inverse=True))), a))
    return failures


# ---------------------------------------------------------------------------
# the deformed tensor algebra T(g)
# ---------------------------------------------------------------------------

class TensContext:
    """The coproduct of T(g) for a Lie bialgebra g, read on its double
    D = g + g*, with a B-family; the generator coproduct is cached, and
    B_pq on D is read through the memo of the context's own Sh(D)
    (self.sh)."""

    def __init__(self, double, bfam, order):
        self.double = double
        self.bfam = bfam
        self.order = order
        self.sh = ShContext(double.algebra, bfam, self.order)
        self._gen_comul = {}
        self._dual_blocks = {}

    def dual_block(self, p, q, x, left=(), right=()):
        """{idx: <B_pq(left, e^idx..., right), e_x>} over the dual-basis
        letters e^idx between the g-letters left and right (tuples of
        basis indices): the e^x coordinate of B_pq evaluated on the double.
        One pass over the index tuples reads each value once and scatters
        its dual coordinates into the context's memo, keyed by x; the
        blocks are shared, so no caller may mutate one."""
        key = (p, q, left, right)
        blocks = self._dual_blocks.get(key)
        if blocks is None:
            d = self.double.base.algebra.dim
            blocks = self._dual_blocks[key] = {}
            for idx in itertools.product(range(d), repeat=p + q - len(left) - len(right)):
                letters = left + tuple(d + i for i in idx) + right
                for k, c in self.sh.b_eval(p, q, letters).items():
                    if k >= d:
                        blocks.setdefault(k - d, {})[idx] = c
        return blocks.get(x, {})

    def generator_comul(self, i):
        """Delta(e_i) = sum_{p,q} hbar^(p+q-1) <B_pq(e^idx), e_i>
        e_idx[:p] x e_idx[p:], summed over the dual blocks of e_i with
        p + q <= order + 1: the weight truncates every later block to zero."""
        hit = self._gen_comul.get(i)
        if hit is None:
            hit = {}
            maxn = min(self.bfam.max_degree, self.order + 1)
            for p in range(maxn + 1):
                for q in range(maxn + 1 - p):
                    if p + q == 0:
                        continue
                    h = HSeries.hpow(p + q - 1, 1, self.order)
                    for idx, c in self.dual_block(p, q, i).items():
                        add_term(hit, (idx[:p], idx[p:]), h * c)
            self._gen_comul[i] = hit
        return hit


def t_comul(ctx, x):
    """Coproduct of the deformed tensor algebra on an AssocPoly x over the
    basis of g (algebra-map extension): {(word, word): coeff}."""
    result = {}
    for w, c in x.terms.items():
        gens = (ctx.generator_comul(i).items() for i in w)
        for key, cc in distribute(gens, c):
            add_term(result, (sum((v1 for v1, _ in key), ()),
                              sum((v2 for _, v2 in key), ())), cc)
    return result


# ---------------------------------------------------------------------------
# Hopf pairing  Sh(g*) x T(g)
# ---------------------------------------------------------------------------

class PoleSeries:
    """hbar^(-pole) * series, for pairing values with a finite pole."""

    def __init__(self, pole, series):
        self.pole = pole
        self.series = series

    def __repr__(self):
        return "h^-%d*(%s)" % (self.pole, self.series)


def pairing(xi, x):
    """<(xi_1...xi_m), x_1 x...x x_n> = hbar^-n delta_{nm} prod <xi_i, x_i>.

    xi: ShElem over the dual basis of g (so letter i pairs to delta_ij
    with the g-basis), x: AssocPoly over g.  Returns a PoleSeries.
    """
    order = xi.ctx.order
    acc = {}
    for w1, c1 in xi.terms.items():
        for w2, c2 in x.terms.items():
            if w1 == w2:
                n = len(w1)
                acc[n] = acc.get(n, as_series(0, order)) + c1 * c2
    if not acc:
        return PoleSeries(0, as_series(0, order))
    pole = max(acc)
    total = as_series(0, order)
    for n, c in acc.items():
        total = total + c.shift(pole - n)
    return PoleSeries(pole, total)


# ---------------------------------------------------------------------------
# QFSH filter
# ---------------------------------------------------------------------------

def qfsh_delta(a, n):
    """delta_n = (id - eps)^(xn) o Delta^(n): splits into n nonempty blocks;
    delta_0 is the counit, the empty word's coefficient on 0 legs."""
    ctx = a.ctx
    out = {}
    for w, c in a.terms.items():
        for pc in positive_compositions(len(w), n):
            key = []
            off = 0
            for pb in pc:
                key.append(w[off:off + pb])
                off += pb
            add_term(out, tuple(key), c)
    return ShTensor(ctx, n, out)


def qfsh_member(a):
    """x in (Sh^w)' iff each degree-k part is divisible by hbar^k."""
    for w, c in a.terms.items():
        k = len(w)
        if k == 0:
            continue
        val = c.valuation()
        if val is not None and val < min(k, a.ctx.order + 1):
            return False
    return True


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def sh_to_json(a):
    return {"terms": [{"word": list(w), "coeff": scalar_str(c)}
                      for w, c in sorted(a.terms.items())]}


def sh_from_json(ctx, d):
    return ShElem(ctx, {tuple(t["word"]): scalar_from_json(t["coeff"], ctx.order)
                        for t in d["terms"]})
