"""Test-only checks of a Quantization: per hbar order, the full QYBE
residual against its degree-one projection, and the concrete projected
residual against the instantiated universal residual; and ell and phi/psi
as products that run every hbar order through (`ell_chain`,
`phipsi_uncapped`), with no pair skipped on its valuation."""

import itertools

from liequant.bfamily import compositions
from liequant.scalars import HSeries, add_term, distribute, pr_legs
from liequant.freealg import AssocPoly
from liequant.shuffle import ShElem, sh_mul
from liequant.universal import univ_qybe_residual
from class_oracle import instantiate


def equivalence_report(Q, rho=None):
    """Per hbar order: (full residual vanishes, pr-residual vanishes)."""
    res = Q.qybe_residual(rho)
    out = {}
    for k in range(Q.order + 1):
        full = res.hcoeff(k)
        out[k] = (not full, not pr_legs(full))
    return out


def malta_check(Q, varrho_subset=None):
    """Instantiated universal residual == concrete pr-residual.

    With varrho_subset (e.g. only the first entry) both sides are
    nonzero and must still agree, which exercises the identity beyond
    the trivial zero case.
    """
    vr = Q.varrho if varrho_subset is None else varrho_subset
    D = Q.double
    res = Q.qybe_residual(Q._rho_at_order(Q.order, vr))
    concrete_pr = pr_legs(res.terms)
    universal = {}
    for d in range(1, Q.order + 1):
        resd = univ_qybe_residual(Q.bfam, vr, d)
        if not resd:
            continue
        for idx, c in instantiate(resd, D.algebra, D.r).items():
            add_term(universal, idx, HSeries.hpow(d, c, Q.order))
    return concrete_pr == universal


def ell_chain(Q, x):
    """ell as the antimorphism extension: each word's chain starts from
    the unit, is multiplied by the generators' images in reverse order,
    and only then by the word's coefficient."""
    out = ShElem(Q.sh_ctx, {})
    for w, c in x.terms.items():
        cur = ShElem.unit(Q.sh_ctx)
        for i in reversed(w):
            cur = sh_mul(cur, Q.ell_generator(i))
        out = out + c * cur
    return out


def phipsi_uncapped(Q, xelem, y, xi_right):
    """phi (psi with xi_right) with every block B_{k,|xw|} (B_{|xw|,k})
    up to k = order + 1, whatever the hbar valuation of the term pair."""
    out = {}
    for xw, cx in xelem.terms.items():
        for yw, cy in y.terms.items():
            for lam in compositions(len(xw), len(yw)):
                offs = itertools.accumulate(lam, initial=0)
                steps = [_uncapped_step(Q, xw[o:o + li], yi, xi_right)
                         for li, yi, o in zip(lam, yw, offs)]
                for key, c in distribute(steps, cx * cy):
                    add_term(out, sum(key, ()), c)
    return AssocPoly(out)


def _uncapped_step(Q, xw, yi, xi_right):
    ctx = Q.tens_ctx
    li = len(xw)
    step = []
    for k in range(1, min(Q.bfam.max_degree - li, ctx.order + 1) + 1):
        blk = (ctx.dual_block(li, k, yi, left=xw) if xi_right
               else ctx.dual_block(k, li, yi, right=xw))
        h = HSeries.hpow(k - 1, 1, ctx.order)
        step.extend((idx, h * c) for idx, c in blk.items())
    return step


def truncated(elem, n):
    """The terms of elem mod hbar^(n+1), as {key: (c_0, ..., c_n)}."""
    out = {}
    for k, c in elem.terms.items():
        low = tuple(c.coeff(i) for i in range(n + 1))
        if any(low):
            out[k] = low
    return out
