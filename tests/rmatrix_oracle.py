"""Independent oracle for the universal R-matrix terms: solve the
coproduct identities degree by degree over a basis of the universal
2-leg space, instead of running the lambda-table recursion.  Also the
degree-one part Ln of the product of n generator letters, and R'_j
assembled over the compositions of j, the sum that the table's one-step
recursion groups by its last part."""

import itertools
from fractions import Fraction

from liequant import linalg
from liequant.bfamily import deformed_word_product, positive_compositions
from liequant.freealg import LiePoly
from liequant.rmatrix import (NonUnique, independent_subset, pair_elem,
                              _shift_pids)
from liequant.scalars import add_term
from liequant.unitensor import UElem, canonical, u_mul


def Ln(bfam, n):
    """Degree-one part of the product (x_1)...(x_n), as a LiePoly."""
    words = [((LiePoly.gen(0),), 1)]
    for i in range(1, n):
        words = [(w2, c * c2) for w, c in words
                 for w2, c2 in deformed_word_product(w, (LiePoly.gen(i),),
                                                     bfam.eval_block)]
    out = LiePoly()
    for w, c in words:
        if len(w) == 1:
            out = out + c * w[0]
    return out


def rprime_by_compositions(tab, j):
    """R'_j = sum over the compositions (m_1..m_k) of j of the legwise
    (deformed product x concatenation) products lambda_(m_1) ... lambda_(m_k)
    of the table's entries, each with its pids raised past those before it."""
    if j == 0:
        return UElem.unit(2)
    total = UElem.zero(2)
    for k in range(1, j + 1):
        for comp in positive_compositions(j, k):
            cur = None
            off = 0
            for m in comp:
                factor = _shift_pids(tab.entries.get(m, UElem.zero(2)), off)
                off += m
                cur = factor if cur is None else u_mul(
                    cur, factor, (tab.bfam.letters, "conc"))
            total = total + cur
    return total


class NoSolution(ValueError):
    pass


def _ordered_set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    rest = items[1:]
    for k in range(0, len(rest) + 1):
        for comb in itertools.combinations(rest, k):
            block = [first] + list(comb)
            remaining = [x for x in rest if x not in comb]
            for tail in _ordered_set_partitions(remaining):
                # insert block at every position
                for pos in range(len(tail) + 1):
                    yield tail[:pos] + [block] + tail[pos:]


def _leg_structures(pids, side):
    """All words of Lie basis letters on the given atoms."""
    out = []
    for parts in _ordered_set_partitions(pids):
        options = [()]
        for block in parts:
            atoms = sorted((p, side) for p in block)
            lo, rest = atoms[0], atoms[1:]
            monos = [(lo,) + perm for perm in itertools.permutations(rest)]
            options = [w + (m,) for w in options for m in monos]
        out.extend(options)
    return out


def _pr_leg(x, leg):
    """Keep only the terms whose given leg has exactly one letter."""
    return UElem(x.legs, {k: c for k, c in x.terms.items() if len(k[leg]) == 1})


def universal_basis_deg(n):
    """Basis of the universal 2-leg space of degree n: raw generators
    whose classes modulo relabeling are independent."""
    pids = list(range(n))
    return independent_subset([UElem(2, {(awords, bwords): Fraction(1)})
                               for awords in _leg_structures(pids, 0)
                               for bwords in _leg_structures(pids, 1)],
                              canonical)


def rmatrix_by_solving(bfam, N):
    """Solve the coproduct identities for R_n degree by degree.

    Constraints: R_0 = 1, R_1 = the elementary pair, both coproduct
    identities, and vanishing of the (pr x pr)-part for n >= 2.  The
    solution is asserted unique; this is the independent oracle for
    rmatrix_terms.
    """
    sh = bfam.letters
    rlist = [UElem.unit(2), pair_elem(0)]
    for n in range(2, N + 1):
        basis = universal_basis_deg(n)

        def residuals(cand):
            rows = {}
            full = rlist + [cand]
            lhs1 = cand.comul_leg(0)
            rhs1 = UElem.zero(3)
            lhs2 = cand.comul_leg(1)
            rhs2 = UElem.zero(3)
            for k in range(0, n + 1):
                x = full[k].place((1, 3), 3)
                y = _shift_pids(full[n - k], k).place((2, 3), 3)
                rhs1 = rhs1 + u_mul(x, y, (sh, sh, sh))
                y2 = _shift_pids(full[n - k], k).place((1, 2), 3)
                rhs2 = rhs2 + u_mul(x, y2, (sh, sh, sh))
            r1 = canonical(lhs1 - rhs1)
            r2 = canonical(lhs2 - rhs2)
            pp = canonical(_pr_leg(_pr_leg(cand, 0), 1))
            for tag, r in (("d1", r1), ("d2", r2), ("pp", pp)):
                for key, c in r.terms.items():
                    rows[(tag, key)] = c
            return rows

        base = residuals(UElem.zero(2))
        cols = []
        for e in basis:
            col = residuals(e)
            for key, c in base.items():
                add_term(col, key, -c)
            cols.append(col)
        ech = linalg.rref(cols, len(cols))
        try:
            x = ech.solve({key: -c for key, c in base.items()})
        except linalg.InconsistentSystem:
            raise NoSolution(n)
        if ech.kernel:
            raise NonUnique(n)
        rn = UElem.zero(2)
        for i, c in x.items():
            rn = rn + c * basis[i]
        rlist.append(rn)
    return rlist
