"""Test-only constructions on the shuffle algebra: the undeformed shuffle
product and its first-order Poisson term, the deformed word product over
every pair of compositions, the count of order-preserving surjections
behind the QFSH filter, and symmetrized words."""

import itertools
import math
from collections import Counter

from liequant.bfamily import compositions, shuffles
from liequant.scalars import add_term, as_series, distribute
from liequant.shuffle import ShElem


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
