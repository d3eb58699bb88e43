"""Test-only constructions on the shuffle algebra: the undeformed shuffle
product and its first-order Poisson term, the deformed word product over
every pair of compositions, the count of order-preserving surjections
behind the QFSH filter, symmetrized words, and the shuffle layer as it
was when its memos held constant hbar-series (`SeriesShContext`,
`series_sh_mul`, `series_sh_antipode`, `per_word_hopf_report`)."""

import itertools
import math
from collections import Counter

from liequant.bfamily import compositions, deformed_word_product, shuffles
from liequant.scalars import add_term, as_series, distribute, surviving_pairs
from liequant.shuffle import ShContext, ShElem, ShTensor, all_words, sh_comul


def shuffle0(ctx, u, v):
    """Plain shuffle product of two words (no deformation)."""
    return ShElem(ctx, Counter(shuffles(u, v)))


def poisson_m1(ctx, u, v):
    """First-order Poisson term: bracket one letter of u with one of v,
    shuffling the prefixes and the suffixes separately."""
    out = ShElem(ctx, {})
    u, v = tuple(u), tuple(v)
    for i in range(len(u)):
        for j in range(len(v)):
            br = ctx.alg.bracket(ctx.alg.basis(u[i]), ctx.alg.basis(v[j]))
            if not br:
                continue
            pre = shuffle0(ctx, u[:i], v[:j])
            suf = shuffle0(ctx, u[i + 1:], v[j + 1:])
            for wp, cp in pre.terms.items():
                for ws, cs in suf.terms.items():
                    for m, cb in br.items():
                        add_term(out.terms, wp + (m,) + ws, cp * cs * cb)
    return out


def _all_block_sequences(a, b):
    """Every pair of compositions of a and b into the same number of
    parts, without an empty block (0, 0), as tuples of blocks (pb, qb, ox,
    oy): by number of parts, then pc, then qc, each lexicographically."""
    for k in range(1, a + b + 1):
        for pc in compositions(a, k):
            for qc in compositions(b, k):
                if any(pb + qb == 0 for pb, qb in zip(pc, qc)):
                    continue
                yield tuple(zip(pc, qc, itertools.accumulate(pc, initial=0),
                                itertools.accumulate(qc, initial=0)))


def live_block_sequences(a, b):
    """The block sequences of the full loop whose blocks are all live:
    (1, 0), (0, 1), or both sizes at least 1."""
    return tuple(s for s in _all_block_sequences(a, b)
                 if all((pb, qb) in ((1, 0), (0, 1)) or min(pb, qb) >= 1
                        for pb, qb, _, _ in s))


def word_product_all_pairs(u, v, block):
    """The deformed word product as a walk over every pair of compositions,
    dead blocks included: [(word, coeff)] in the order of the block
    sequences, repeats kept."""
    if not u or not v:
        return [(u + v, 1)]
    out = []
    for blocks in _all_block_sequences(len(u), len(v)):
        out.extend(distribute(block(pb, qb, u[ox:ox + pb] + v[oy:oy + qb])
                              for pb, qb, ox, oy in blocks))
    return out


def ordered_surjection_count(n, k):
    """Order-preserving surjections {1..k} -> {1..n}: C(k-1, n-1)."""
    if n < 1 or k < n:
        return 0
    return math.comb(k - 1, n - 1)


def sym_word(ctx, letters):
    """Symmetrized tensor of the given letters."""
    out = {}
    for p in itertools.permutations(letters):
        add_term(out, p, as_series(1, ctx.order))
    return ShElem(ctx, out)


def is_symmetric(a):
    for w, c in a.terms.items():
        for p in itertools.permutations(range(len(w))):
            wp = tuple(w[i] for i in p)
            if a.terms.get(wp, as_series(0, a.ctx.order)) != c:
                return False
    return True


class SeriesShContext(ShContext):
    """ShContext whose word-product memo holds every coefficient as a
    constant series at the context's order; its antipode memos follow."""

    def word_mul(self, wa, wb):
        hit = self._products.get((wa, wb))
        if hit is None:
            acc = {}
            for w, c in deformed_word_product(wa, wb, self.block):
                add_term(acc, w, c)
            hit = {w: as_series(c, self.order) for w, c in acc.items()}
            self._products[(wa, wb)] = hit
        return hit


def series_sh_mul(a, b):
    ctx = a.ctx
    out = {}
    for wa, ca, wb, cb in surviving_pairs(a.terms, b.terms):
        c = ca * cb
        for w, cw in ctx.word_mul(wa, wb).items():
            add_term(out, w, c * cw)
    return ShElem(ctx, out)


def series_sh_antipode(a):
    out = {}
    for w, c in a.terms.items():
        for x, cx in a.ctx.antipode(w).items():
            add_term(out, x, c * cx)
    return ShElem(a.ctx, out)


def per_word_hopf_report(alg, bfam, deg, hord):
    """The failures [(kind, words)] of the Hopf axioms on basis words up to
    degree deg, each product scaled and summed word by word."""
    ctx = SeriesShContext(alg, bfam, hord)
    failures = []
    words = all_words(alg.dim, deg)
    nonempty = [w for w in words if w]
    for u in nonempty:
        for v in nonempty:
            if len(u) + len(v) > deg:
                continue
            for w in nonempty:
                if len(u) + len(v) + len(w) > deg:
                    continue
                a, b, c = (ShElem.word(ctx, x) for x in (u, v, w))
                if series_sh_mul(series_sh_mul(a, b), c) != series_sh_mul(a, series_sh_mul(b, c)):
                    failures.append(("associativity", (u, v, w)))
    for u in words:
        a = ShElem.word(ctx, u)
        if sh_comul(a).comul_leg(0) != sh_comul(a).comul_leg(1):
            failures.append(("coassociativity", u))
        left = ShElem(ctx, {})
        right = ShElem(ctx, {})
        for (w1, w2), c in sh_comul(a).terms.items():
            if not w1:
                left = left + ShElem.word(ctx, w2, c)
            if not w2:
                right = right + ShElem.word(ctx, w1, c)
        if left != a or right != a:
            failures.append(("counit", u))
    for u in nonempty:
        for v in nonempty:
            if len(u) + len(v) > deg:
                continue
            a, b = ShElem.word(ctx, u), ShElem.word(ctx, v)
            lhs = ShTensor(ctx, 2, {})
            for w, c in series_sh_mul(a, b).terms.items():
                lhs = lhs + c * sh_comul(ShElem.word(ctx, w))
            if lhs != sh_comul(a).mul(sh_comul(b)):
                failures.append(("bialgebra", (u, v)))
    for u in words:
        a = ShElem.word(ctx, u)
        conv = ShElem(ctx, {})
        conv2 = ShElem(ctx, {})
        for (w1, w2), c in sh_comul(a).terms.items():
            conv = conv + c * series_sh_mul(series_sh_antipode(ShElem.word(ctx, w1)),
                                            ShElem.word(ctx, w2))
            conv2 = conv2 + c * series_sh_mul(ShElem.word(ctx, w1),
                                              series_sh_antipode(ShElem.word(ctx, w2)))
        target = ShElem.unit(ctx, a.counit()) if u == () else ShElem(ctx, {})
        if conv != target or conv2 != target:
            failures.append(("antipode", u))
        if series_sh_antipode(ShElem(ctx, ctx.antipode(u, inverse=True))) != a:
            failures.append(("antipode-inverse", u))
    return failures
