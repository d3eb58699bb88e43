"""End-to-end quantization of a finite-dimensional Lie bialgebra.

Pipeline: canonical r-matrix of the double -> rho (universal solution
instantiated) -> R-matrix terms in the deformed shuffle algebra of the
double -> the morphism ell, relation extraction, semiclassical and QFSH
checks.  The QYBE residual is exact modulo hbar^(order+1); ell and the
relations modulo hbar^(rel_order+1), the highest order that the given
varrho determines.  No hbar-product runs past the order its result
keeps: ell seeds every word's chain with the word's coefficient, so the
shuffle products skip the term pairs whose valuations sum past the
order, and phi/psi stop the blocks of each term pair at the order of its
coefficient.  phi/psi read the same dual blocks of B_pq on the double
(shuffle.TensContext.dual_block) as T(g)'s coproduct.
"""

from __future__ import annotations

import itertools

from .scalars import HSeries, add_term, distribute
from .bfamily import compositions
from .freealg import AssocPoly
from .liealg import build_double
from .shuffle import (ShElem, ShTensor, sh_mul, sh_comul,
                      TensContext, t_comul, all_words, qfsh_member)
from .rmatrix import lambda_table
from .unitensor import UElem, instantiate_tensor
from .universal import instantiate
from . import linalg


class QYBEFail(ValueError):
    """The QYBE residual is nonzero; str(e) is its lowest hbar order.
    witness is the first residual term at that order, as (key, order)."""

    def __init__(self, order, witness):
        super().__init__(order)
        self.order = order
        self.witness = witness


class NotInKernel(ValueError):
    pass


class Quantization:
    """Carrier for the quantization data of one bialgebra at one order."""

    def __init__(self, bfam, bia, order, varrho):
        self.bfam = bfam
        self.bia = bia
        self.order = order
        self.double = build_double(bia)
        # the QYBE residual reads R to order; ell_generator grows the
        # shared table to rel_order + 1 itself
        self.table = lambda_table(bfam, order)
        self.varrho = varrho
        # the hbar^<=k parts of ell and of the relations need rho_<=k+1
        self.rel_order = min(order, max(varrho) - 1)
        self.rho = self._rho_at_order(order, varrho)
        # rho = hbar r + O(hbar^2); r != r21, so a swap of kappa's sides fails here
        h1 = {ij: c.coeff(1) for ij, c in self.rho.items() if c.coeff(1)}
        assert order < 1 or h1 == self.double.r, "rho's hbar^1 part is not r"
        # one context of each kind, so their memos are shared; T(g)'s dual
        # blocks and Sh(D)'s word products read one memo of B_pq on D
        self.tens_ctx = TensContext(self.double, bfam, order)
        self.sh_ctx = self.tens_ctx.sh
        self._ell_gen = None

    # -- rho = sum hbar^n kappa(varrho_n)(r) ------------------------------

    def _rho_at_order(self, order, varrho):
        D = self.double
        out = {}
        for n, v in varrho.items():
            if n > order:
                continue
            for ij, c in instantiate(v, D.algebra, D.r).items():
                add_term(out, ij, HSeries.hpow(n, c, order))
        return out

    # -- R-matrix ----------------------------------------------------------

    def r_matrix(self, rho, order, second_len=None):
        """R = sum_n R_n instantiated at rho, mod hbar^(order+1), as one
        {(word, word): coeff} table over the double.  With second_len,
        only the terms whose second leg has that many letters; they are
        picked before instantiating, which keeps each leg's letter count.
        The lambda table raises ValueError when it stops below order."""
        out = {}
        for n in range(order + 1):
            rn = self.table.rmatrix(n)
            if second_len is not None:
                rn = UElem(2, {k: c for k, c in rn.terms.items()
                               if len(k[1]) == second_len})
            for k, c in instantiate_tensor(rn, self.double.algebra, rho).items():
                add_term(out, k, c)
        return out

    def qybe_residual(self, rho=None):
        """R12 R13 R23 - R23 R13 R12 in three legs, mod hbar^(order+1)."""
        R = ShTensor(self.sh_ctx, 2, self.r_matrix(
            self.rho if rho is None else rho, self.order))
        r12 = R.place((1, 2), 3)
        r13 = R.place((1, 3), 3)
        r23 = R.place((2, 3), 3)
        lhs = r12.mul(r13).mul(r23)
        rhs = r23.mul(r13).mul(r12)
        return lhs - rhs

    def check_qybe(self, rho=None):
        res = self.qybe_residual(rho)
        if res:
            order = min(c.valuation() for c in res.terms.values())
            key = min(k for k, c in res.terms.items() if c.valuation() == order)
            raise QYBEFail(order, (key, order))
        return True

    # -- the morphism ell --------------------------------------------------

    def ell_generator(self, i):
        """ell(e_i) mod hbar^(rel_order+1): contraction of the length-one
        second legs of R.

        The hbar^-1 of the pairing drops one order, so the R-terms are
        built mod hbar^(rel_order+2), from rho_<=rel_order+1, which varrho
        holds, with the lambda table grown to that degree here.
        """
        if self._ell_gen is None:
            d = self.bia.algebra.dim
            top = self.rel_order
            lambda_table(self.bfam, top + 1)
            gens = [{} for _ in range(d)]
            R = self.r_matrix(self._rho_at_order(top + 1, self.varrho), top + 1,
                              second_len=1)
            for (wa, wb), c in R.items():
                j = wb[0] - d
                assert 0 <= j < d, "second leg escaped the dual part"
                assert all(k < d for k in wa), "first leg escaped the primal part"
                add_term(gens[j], wa, HSeries(c.shift(-1).coeffs, top))
            self._ell_gen = [ShElem(self.sh_ctx, g) for g in gens]
        return self._ell_gen[i]

    def ell(self, x):
        """ell on the deformed tensor algebra (x an AssocPoly over the
        basis of g), mod hbar^(rel_order+1): the antimorphism extension.
        Each word's chain starts from its coefficient, so a product pair
        whose valuations sum past the order is skipped (sh_mul is
        bilinear over the truncated series)."""
        out = ShElem(self.sh_ctx, {})
        for w, c in x.terms.items():
            cur = ShElem.unit(self.sh_ctx, c)
            for i in reversed(w):
                cur = sh_mul(cur, self.ell_generator(i))
            out = out + cur
        return out

    # -- phi/psi: the dual blocks of the family entries -------------------

    def phi(self, xelem, y):
        """phi: Sh(g) x T(g) -> T(g), adjoint to left multiplication."""
        return self._phipsi(xelem, y, False)

    def psi(self, xelem, y):
        """psi: adjoint to right multiplication (gamma blocks)."""
        return self._phipsi(xelem, y, True)

    def _phipsi(self, xelem, y, xi_right):
        ctx = self.tens_ctx
        out = AssocPoly()
        for xw, cx in xelem.terms.items():
            for yw, cy in y.terms.items():
                c = cx * cy
                if not c:
                    continue
                # a block weighted hbar^(k-1) past the order of c is zero
                kmax = min(c.order, ctx.order) + 1 - c.valuation()
                for lam in compositions(len(xw), len(yw)):
                    offs = itertools.accumulate(lam, initial=0)
                    steps = (self._phipsi_step(xw[o:o + li], yi, xi_right, kmax)
                             for li, yi, o in zip(lam, yw, offs))
                    for key, cc in distribute(steps, c):
                        add_term(out.terms, sum(key, ()), cc)
        return out

    def _phipsi_step(self, xw, yi, xi_right, kmax):
        """The (index tuple, coeff) pairs that one block of phi/psi takes
        the letters xw and the letter yi to: the hbar^(k-1)-weighted dual
        blocks of B_{k,|xw|} (beta), or of B_{|xw|,k} with xi_right
        (gamma), for k <= kmax."""
        ctx = self.tens_ctx
        li = len(xw)
        step = []
        for k in range(1, min(self.bfam.max_degree - li, kmax) + 1):
            blk = (ctx.dual_block(li, k, yi, left=xw) if xi_right
                   else ctx.dual_block(k, li, yi, right=xw))
            h = HSeries.hpow(k - 1, 1, ctx.order)
            step.extend((idx, h * c) for idx, c in blk.items())
        return step

    # -- relations ----------------------------------------------------------

    def relation(self, i, j):
        """The kernel element attached to x = e_i, y = e_j.

        sum y^(1) phi(ell(y^(2)), x) - sum psi(ell(y^(1)), x) y^(2);
        reduces mod hbar to y x x - x x y - [x,y] and lies in Ker(ell).
        Every term carries x, seeded at rel_order, and ell is computed
        there, so the relation is computed mod hbar^(rel_order+1)
        throughout.  The coproduct coefficient c enters ell as the
        coefficient of its word, where it cuts the products short."""
        x = AssocPoly.word((i,), HSeries.const(1, self.rel_order))
        out = AssocPoly()
        for (w1, w2), c in t_comul(self.tens_ctx, AssocPoly.gen(j)).items():
            lhs = self.phi(self.ell(AssocPoly.word(w2, c)), x)
            out = out + AssocPoly.word(w1) * lhs
            rhs = self.psi(self.ell(AssocPoly.word(w1, c)), x)
            out = out - rhs * AssocPoly.word(w2)
        return out

    def extract_relations(self):
        """All basis relations mod hbar^(rel_order+1), the highest order
        that rho determines; asserts kernel membership there."""
        d = self.bia.algebra.dim
        rels = {}
        for i in range(d):
            for j in range(d):
                if i == j:
                    continue
                k = self.relation(i, j)
                if self.ell(k):
                    raise NotInKernel((i, j))
                rels[(i, j)] = k
        return rels

    # -- semiclassical limit -------------------------------------------------

    def semiclassical_check(self, i):
        """(1/hbar)(Delta - Delta')(ell(e_i)) == (ell x ell)(delta(e_i)) mod hbar.

        Reads the hbar^1 coefficient of ell, so it needs rel_order >= 1
        (rho_2 in varrho); below that it raises ValueError."""
        if self.rel_order < 1:
            raise ValueError("semiclassical_check reads ell mod hbar^2, but rel_order "
                             "is %d: varrho determines ell only mod hbar" % self.rel_order)
        co = sh_comul(self.ell_generator(i))
        lhs = (co - co.place((2, 1), 2)).hcoeff(1)
        rhs = {}
        for (a, b), c in self.bia.delta(self.bia.algebra.basis(i)).items():
            ea = self.ell_generator(a)
            eb = self.ell_generator(b)
            for wa, ca in ea.terms.items():
                for wb, cb in eb.terms.items():
                    add_term(rhs, (wa, wb), (c * ca * cb).coeff(0))
        return lhs == rhs

    # -- QFSH ----------------------------------------------------------------

    def image_membership(self, x, max_word_deg):
        """Exact linear test for x in Im(ell) mod hbar^(rel_order+1), the
        order ell keeps, over the images of the words of length <=
        max_word_deg."""
        top = self.rel_order
        images = [self.ell(AssocPoly.word(w))
                  for w in all_words(self.bia.algebra.dim, max_word_deg)]
        # hbar-graded unknowns: coefficients hbar^s * word for each image
        cols = []
        for im in images:
            for shift in range(top + 1):
                col = {}
                for w, c in im.terms.items():
                    for k in range(top + 1 - shift):
                        add_term(col, (w, k + shift), c.coeff(k))
                cols.append(col)
        target = {}
        for w, c in x.terms.items():
            for k in range(top + 1):
                add_term(target, (w, k), c.coeff(k))
        try:
            linalg.rref(cols, len(cols)).solve(target)
            return True
        except linalg.InconsistentSystem:
            return False

    def qfsh_membership(self, x, max_word_deg):
        """x in O_hbar iff x in Im(ell) and x passes the divisibility filter."""
        return qfsh_member(x) and self.image_membership(x, max_word_deg)
