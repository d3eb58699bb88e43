"""End-to-end quantization of a finite-dimensional Lie bialgebra.

Pipeline: canonical r-matrix of the double -> rho (universal solution
instantiated) -> R-matrix terms in the deformed shuffle algebra of the
double -> the morphism ell, relation extraction, semiclassical and QFSH
checks.  Everything is exact modulo hbar^(order+1).
"""

from __future__ import annotations

import itertools

from .scalars import HSeries, add_term, as_series, distribute, pr_legs
from .bfamily import compositions
from .liealg import build_double
from .shuffle import (ShContext, ShElem, ShTensor, sh_mul, sh_comul,
                      LieCoalgebra, TensContext, TensElem, t_comul,
                      qfsh_member)
from .rmatrix import lambda_table
from .unitensor import instantiate_tensor
from .universal import solve_varrho, varrho_one, instantiate, univ_qybe_residual
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

    def __init__(self, bfam, bia, order=3, varrho=None, table_degree=None):
        self.bfam = bfam
        self.bia = bia
        self.order = order
        self.double = build_double(bia)
        if table_degree is None:
            table_degree = max(order + 1, 2)
        self.table = lambda_table(bfam, table_degree)
        if varrho is None:
            # ell needs one internal hbar order beyond the truncation, so
            # the universal solution is carried one degree further
            varrho = solve_varrho(bfam, max(order + 1, 1))
        self.varrho = varrho
        self.rho = self._rho_at_order(order, varrho)
        self._rterms = None
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

    def r_terms(self, rho=None):
        """[R_0..R_order] as 2-leg ShTensors over the double."""
        if rho is None and self._rterms is not None:
            return self._rterms
        use = self.rho if rho is None else rho
        ctx = ShContext(self.double.algebra, self.bfam, self.order)
        out = []
        for n in range(self.order + 1):
            t = instantiate_tensor(self.table.rmatrix(n), self.double.algebra,
                                   use, self.order)
            out.append(ShTensor(ctx, 2, t))
        if rho is None:
            self._rterms = out
        return out

    def big_r(self, rho=None):
        terms = self.r_terms(rho)
        R = terms[0]
        for t in terms[1:]:
            R = R + t
        return R

    def qybe_residual(self, rho=None):
        """R12 R13 R23 - R23 R13 R12 in three legs, mod hbar^(order+1)."""
        R = self.big_r(rho)
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

    def equivalence_report(self, rho=None):
        """Per hbar order: (full residual vanishes, pr-residual vanishes)."""
        res = self.qybe_residual(rho)
        out = {}
        for k in range(self.order + 1):
            full = res.hcoeff(k)
            out[k] = (not full, not pr_legs(full))
        return out

    def malta_check(self, varrho_subset=None):
        """Instantiated universal residual == concrete pr-residual.

        With varrho_subset (e.g. only the first entry) both sides are
        nonzero and must still agree, which exercises the identity beyond
        the trivial zero case.
        """
        vr = self.varrho if varrho_subset is None else varrho_subset
        D = self.double
        res = self.qybe_residual(self._rho_at_order(self.order, vr))
        concrete_pr = pr_legs(res.terms)
        universal = {}
        for d in range(1, self.order + 1):
            resd = univ_qybe_residual(self.bfam, vr, d)
            if not resd:
                continue
            for idx, c in instantiate(resd, D.algebra, D.r).items():
                add_term(universal, idx, HSeries.hpow(d, c, self.order))
        return concrete_pr == universal

    # -- the morphism ell --------------------------------------------------

    def sh_ctx(self):
        return ShContext(self.double.algebra, self.bfam, self.order)

    def ell_generator(self, i):
        """ell(e_i): contraction of the length-one second legs of R.

        The hbar^-1 of the pairing promotes one extra order, so the
        R-terms are evaluated internally at order+1 and re-truncated.
        """
        if self._ell_gen is None:
            d = self.bia.algebra.dim
            hi = self.order + 1
            rho_hi = self._rho_at_order(hi, self.varrho)
            gens = [{} for _ in range(d)]
            for n in range(min(hi, self.table.max_degree) + 1):
                t = instantiate_tensor(self.table.rmatrix(n),
                                       self.double.algebra, rho_hi, hi)
                for (wa, wb), c in t.items():
                    if len(wb) != 1:
                        continue
                    j = wb[0] - d
                    assert 0 <= j < d, "second leg escaped the dual part"
                    assert all(k < d for k in wa), "first leg escaped the primal part"
                    low = c.shift(-1).coeffs[: self.order + 1]
                    add_term(gens[j], wa, HSeries(low, self.order))
            ctx = self.sh_ctx()
            self._ell_gen = [ShElem(ctx, g) for g in gens]
        return self._ell_gen[i]

    def ell(self, x):
        """ell on the deformed tensor algebra: antimorphism extension."""
        ctx = self.sh_ctx()
        out = ShElem(ctx, {})
        for w, c in x.terms.items():
            cur = ShElem.unit(ctx)
            for i in reversed(w):
                cur = sh_mul(cur, self.ell_generator(i))
            out = out + c * cur
        return out

    # -- duals of the family entries ---------------------------------------

    def dual_block(self, p, q, xs, x, xi_right=False):
        """<B_pq(xi's | xs), x> read off in the dual basis of the xi's
        (beta_pq), or <B_pq(xs | xi's), x> with xi_right (gamma_pq)."""
        D = self.double
        d = self.bia.algebra.dim
        out = {}
        own = [dict(v) for v in xs]
        for idx in itertools.product(range(d), repeat=q if xi_right else p):
            xis = [D.algebra.basis(d + i) for i in idx]
            args = own + xis if xi_right else xis + own
            val = self.bfam.eval(p, q, args, D.algebra.carrier())
            # pairing <val, e_x> picks the e^x-component of val
            coeff = as_series(0, self.order) + val.get(d + x, 0)
            if coeff:
                out[idx] = coeff
        return out

    def phi(self, xelem, y):
        """phi: Sh(g) x T(g) -> T(g), adjoint to left multiplication."""
        return self._phipsi(xelem, y, False)

    def psi(self, xelem, y):
        """psi: adjoint to right multiplication (gamma blocks)."""
        return self._phipsi(xelem, y, True)

    def _phipsi(self, xelem, y, xi_right):
        ctx = y.ctx
        out = TensElem(ctx, {})
        for xw, cx in xelem.terms.items():
            for yw, cy in y.terms.items():
                for lam in compositions(len(xw), len(yw)):
                    offs = itertools.accumulate(lam, initial=0)
                    steps = (self._phipsi_step(xw[o:o + li], yi, xi_right, ctx.order)
                             for li, yi, o in zip(lam, yw, offs))
                    for key, c in distribute(steps, cx * cy):
                        add_term(out.terms, sum(key, ()), c)
        return out

    def _phipsi_step(self, xw, yi, xi_right, order):
        """The (index tuple, coeff) pairs that one block of phi/psi takes
        the letters xw and the letter yi to: the hbar^(k-1)-weighted dual
        blocks of B_{k,|xw|} (beta), or of B_{|xw|,k} with xi_right (gamma)."""
        xs = [self.bia.algebra.basis(i) for i in xw]
        li = len(xw)
        step = []
        for k in range(1, min(self.bfam.max_degree - li, order + 1) + 1):
            pq = (li, k) if xi_right else (k, li)
            blk = self.dual_block(*pq, xs, yi, xi_right)
            if blk:
                h = HSeries.hpow(k - 1, 1, order)
                step.extend((idx, h * c) for idx, c in blk.items())
        return step

    # -- relations ----------------------------------------------------------

    def tens_ctx(self):
        return TensContext(LieCoalgebra.from_bialgebra(self.bia), self.bfam,
                           self.order)

    def relation(self, i, j):
        """The kernel element attached to x = e_i, y = e_j.

        sum y^(1) phi(ell(y^(2)), x) - sum psi(ell(y^(1)), x) y^(2);
        reduces mod hbar to y x x - x x y - [x,y] and lies in Ker(ell)."""
        ctx = self.tens_ctx()
        x = TensElem.word(ctx, (i,))
        out = TensElem(ctx, {})
        for (w1, w2), c in t_comul(ctx, TensElem.word(ctx, (j,))).items():
            lhs = self.phi(self.ell(TensElem.word(ctx, w2)), x)
            out = out + c * (TensElem.word(ctx, w1) * lhs)
            rhs = self.psi(self.ell(TensElem.word(ctx, w1)), x)
            out = out - c * (rhs * TensElem.word(ctx, w2))
        return out

    def extract_relations(self):
        """All basis relations; asserts kernel membership mod hbar^(order+1)."""
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
        """(1/hbar)(Delta - Delta')(ell(e_i)) == (ell x ell)(delta(e_i)) mod hbar."""
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

    def image_membership(self, x, max_word_deg=None):
        """Exact linear test for x in Im(ell) at the truncated order."""
        ctx = self.sh_ctx()
        d = self.bia.algebra.dim
        deg = max_word_deg if max_word_deg is not None else max(
            (len(w) for w in x.terms), default=0) + self.order
        words = [()]
        for n in range(1, deg + 1):
            words.extend(itertools.product(range(d), repeat=n))
        tctx = self.tens_ctx()
        images = [self.ell(TensElem.word(tctx, w)) for w in words]
        # hbar-graded unknowns: coefficients hbar^s * word for each image
        cols = []
        for im in images:
            for shift in range(self.order + 1):
                col = {}
                for w, c in im.terms.items():
                    for k in range(self.order + 1 - shift):
                        add_term(col, (w, k + shift), c.coeff(k))
                cols.append(col)
        target = {}
        for w, c in x.terms.items():
            for k in range(self.order + 1):
                add_term(target, (w, k), c.coeff(k))
        try:
            linalg.rref(cols, len(cols)).solve(target)
            return True
        except linalg.InconsistentSystem:
            return False

    def qfsh_membership(self, x, max_word_deg=None):
        """x in O_hbar iff x in Im(ell) and x passes the divisibility filter."""
        return qfsh_member(x) and self.image_membership(x, max_word_deg)
