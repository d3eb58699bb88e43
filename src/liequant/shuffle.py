"""Deformed shuffle Hopf algebras of a Lie algebra and their tensor duals.

ShElem: word-indexed elements of the deformed shuffle algebra of g, with
truncated hbar-series coefficients.  TensElem: elements of the deformed
tensor Hopf algebra T(g) of a Lie bialgebra g (undeformed concatenation
product, deformed coproduct).  T(g)'s coproduct is B_pq read on the double
D = g + g*: TensContext.dual_block evaluates B_pq on dual-basis letters
and pairs the value with e_x, and the same blocks serve quantize's phi/psi.
ShTensor: small tensor powers of ShElem legs.
"""

from __future__ import annotations

import itertools

from .scalars import (HSeries, LinComb, add_term, as_series, distribute,
                      scalar_from_json, scalar_str, surviving_pairs)
from .bfamily import deformed_word_product, positive_compositions, word_antipode


class ShContext:
    """A Lie algebra together with a B-family; caches B evaluations, word
    products and antipodes (the same words recur massively in tensor work)."""

    def __init__(self, alg, bfam, order):
        self.alg = alg
        self.bfam = bfam
        self.order = order
        self._bcache = {}
        self._mulcache = {}
        self._antipodes = ({}, {})     # S, S^-1

    def b_eval(self, p, q, idx):
        """B_pq on basis elements (tuple idx, first p = first group)."""
        key = (p, q, idx)
        hit = self._bcache.get(key)
        if hit is None:
            args = [self.alg.basis(i) for i in idx]
            hit = self.bfam.eval(p, q, args, self.alg)
            self._bcache[key] = hit
        return hit

    def word_mul(self, wa, wb):
        """Cached product of two basis words: dict word -> HSeries."""
        hit = self._mulcache.get((wa, wb))
        if hit is None:
            acc = {}
            for w, c in deformed_word_product(
                    wa, wb, lambda p, q, idx: self.b_eval(p, q, idx).items()):
                add_term(acc, w, c)
            hit = {w: as_series(c, self.order) for w, c in acc.items()}
            self._mulcache[(wa, wb)] = hit
        return hit

    def antipode(self, w, inverse=False):
        """S(w), or S^-1(w), on a basis word: {word: coeff}."""
        def mul(u, v):
            return (self.word_mul(v, u) if inverse else self.word_mul(u, v)).items()
        return word_antipode(w, mul, self._antipodes[inverse])


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
        return ShElem(self.ctx, terms)

    @staticmethod
    def unit(ctx, c=1):
        return ShElem(ctx, {(): as_series(c, ctx.order)})

    @staticmethod
    def word(ctx, letters, c=1):
        return ShElem(ctx, {tuple(letters): as_series(c, ctx.order)})

    @staticmethod
    def letter(ctx, i):
        return ShElem(ctx, {(i,): as_series(1, ctx.order)})

    def counit(self):
        return self.terms.get((), as_series(0, self.ctx.order))

    def pr(self):
        """Degree-1 component as a vector over the algebra basis."""
        return {w[0]: c for w, c in self.terms.items() if len(w) == 1}

    def component(self, k):
        return ShElem(self.ctx, {w: c for w, c in self.terms.items() if len(w) == k})

    def reverse(self):
        """The word-reversal automorphism Psi."""
        return ShElem(self.ctx, {tuple(reversed(w)): c for w, c in self.terms.items()})

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
    return ShElem(ctx, out)


def sh_comul(a):
    """Deconcatenation coproduct, as a 2-leg ShTensor."""
    return ShTensor(a.ctx, 1, {(w,): c for w, c in a.terms.items()}).comul_leg(0)


def sh_antipode(a):
    """The antipode, memoized per word on the context."""
    out = {}
    for w, c in a.terms.items():
        for x, cx in a.ctx.antipode(w).items():
            add_term(out, x, c * cx)
    return ShElem(a.ctx, out)


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
        return ShTensor(self.ctx, self.legs if legs is None else legs, terms)

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


class HopfReport:
    def __init__(self):
        self.failures = []

    def ok(self):
        return not self.failures

    def add(self, kind, witness):
        self.failures.append((kind, witness))

    def __repr__(self):
        return "HopfReport(ok)" if self.ok() else "HopfReport(%d failures: %s...)" % (
            len(self.failures), self.failures[:3])


def hopf_report(alg, bfam, deg, hord):
    """Check all Hopf axioms on basis words up to tensor degree deg."""
    ctx = ShContext(alg, bfam, hord)
    rep = HopfReport()
    words = all_words(alg.dim, deg)
    nonempty = [w for w in words if w]
    # associativity
    for u in nonempty:
        for v in nonempty:
            if len(u) + len(v) > deg:
                continue
            for w in nonempty:
                if len(u) + len(v) + len(w) > deg:
                    continue
                a, b, c = (ShElem.word(ctx, x) for x in (u, v, w))
                if sh_mul(sh_mul(a, b), c) != sh_mul(a, sh_mul(b, c)):
                    rep.add("associativity", (u, v, w))
    # coassociativity and counit
    for u in words:
        a = ShElem.word(ctx, u)
        if sh_comul(a).comul_leg(0) != sh_comul(a).comul_leg(1):
            rep.add("coassociativity", u)
        left = ShElem(ctx, {})
        right = ShElem(ctx, {})
        for (w1, w2), c in sh_comul(a).terms.items():
            if not w1:
                left = left + ShElem.word(ctx, w2, c)
            if not w2:
                right = right + ShElem.word(ctx, w1, c)
        if left != a or right != a:
            rep.add("counit", u)
    # bialgebra compatibility Delta(uv) = Delta(u)Delta(v)
    for u in nonempty:
        for v in nonempty:
            if len(u) + len(v) > deg:
                continue
            a, b = ShElem.word(ctx, u), ShElem.word(ctx, v)
            lhs = ShTensor(ctx, 2, {})
            for w, c in sh_mul(a, b).terms.items():
                lhs = lhs + c * sh_comul(ShElem.word(ctx, w))
            rhs = sh_comul(a).mul(sh_comul(b))
            if lhs != rhs:
                rep.add("bialgebra", (u, v))
    # antipode axioms, and S^-1 inverts S
    for u in words:
        a = ShElem.word(ctx, u)
        conv = ShElem(ctx, {})
        conv2 = ShElem(ctx, {})
        for (w1, w2), c in sh_comul(a).terms.items():
            conv = conv + c * sh_mul(sh_antipode(ShElem.word(ctx, w1)),
                                     ShElem.word(ctx, w2))
            conv2 = conv2 + c * sh_mul(ShElem.word(ctx, w1),
                                       sh_antipode(ShElem.word(ctx, w2)))
        target = ShElem.unit(ctx, a.counit()) if u == () else ShElem(ctx, {})
        if conv != target or conv2 != target:
            rep.add("antipode", u)
        if sh_antipode(ShElem(ctx, ctx.antipode(u, inverse=True))) != a:
            rep.add("antipode-inverse", u)
    return rep


# ---------------------------------------------------------------------------
# the deformed tensor algebra T(g)
# ---------------------------------------------------------------------------

class TensElem(LinComb):
    """Element of the deformed tensor Hopf algebra T(g)."""

    def __init__(self, ctx, terms=None):
        self.ctx = ctx              # a TensContext
        self.terms = _norm_terms(terms, ctx.order)

    def _like(self, terms):
        return TensElem(self.ctx, terms)

    @staticmethod
    def unit(ctx, c=1):
        return TensElem(ctx, {(): as_series(c, ctx.order)})

    @staticmethod
    def word(ctx, letters, c=1):
        return TensElem(ctx, {tuple(letters): as_series(c, ctx.order)})

    def __mul__(self, other):
        """Concatenation (the algebra structure is undeformed)."""
        out = {}
        for w1, c1, w2, c2 in surviving_pairs(self.terms, other.terms):
            add_term(out, w1 + w2, c1 * c2)
        return TensElem(self.ctx, out)


class TensContext:
    """T(g) of a Lie bialgebra g, read on its double D = g + g*, with a
    B-family; the generator coproduct is cached, and B_pq on D is read
    through the memo of the context's own Sh(D) (self.sh)."""

    def __init__(self, double, bfam, order):
        self.double = double
        self.bfam = bfam
        self.order = order
        self.sh = ShContext(double.algebra, bfam, self.order)
        self._gen_comul = {}

    def dual_block(self, p, q, x, left=(), right=()):
        """{idx: <B_pq(left, e^idx..., right), e_x>} over the dual-basis
        letters e^idx between the g-letters left and right (tuples of
        basis indices): the e^x coordinate of B_pq evaluated on the double."""
        d = self.double.base.algebra.dim
        out = {}
        for idx in itertools.product(range(d), repeat=p + q - len(left) - len(right)):
            letters = left + tuple(d + i for i in idx) + right
            c = self.sh.b_eval(p, q, letters).get(d + x)
            if c:
                out[idx] = c
        return out

    def generator_comul(self, i):
        """Delta(e_i) = sum_{p,q} hbar^(p+q-1) <B_pq(e^idx), e_i>
        e_idx[:p] x e_idx[p:], summed over the dual blocks of e_i."""
        hit = self._gen_comul.get(i)
        if hit is None:
            hit = {}
            maxn = self.bfam.max_degree
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
    """Coproduct of the deformed tensor algebra (algebra-map extension)."""
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
    with the g-basis), x: TensElem over g.  Returns a PoleSeries.
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
    """delta_n = (id - eps)^(xn) o Delta^(n): splits into n nonempty blocks."""
    ctx = a.ctx
    out = {}
    for w, c in a.terms.items():
        if n == 0:
            continue
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
