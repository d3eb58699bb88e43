"""Independent oracle for the morphism ell: pair a tensor word directly
against the assembled R-matrix terms, instead of the antimorphism
extension of the generators' images that `Quantization.ell` uses."""

from fractions import Fraction

from liequant.scalars import HSeries
from liequant.shuffle import ShElem
from liequant.unitensor import instantiate_tensor


def ell_direct(Q, x):
    """ell(x) for the Quantization Q by direct pairing against R.

    The hbar^-k pole of a degree-k contraction needs the R-terms at
    internal order Q.order + k; requires Q.table.max_degree >= Q.order + k.
    """
    ctx = Q.sh_ctx()
    d = Q.bia.algebra.dim
    kmax = max((len(w) for w in x.terms), default=0)
    hi = Q.order + kmax
    if Q.table.max_degree < hi:
        raise ValueError("lambda table too small for a direct degree-%d pairing" % kmax)
    rho_hi = Q._rho_at_order(hi, Q.varrho)
    out = ShElem(ctx, {})
    for n in range(hi + 1):
        t = instantiate_tensor(Q.table.rmatrix(n), Q.double.algebra, rho_hi, hi)
        for w, c in x.terms.items():
            chi = HSeries(list(c.coeffs) + [Fraction(0)] * kmax, hi)
            for (wa, wb), cr in t.items():
                if len(wb) != len(w) or tuple(k - d for k in wb) != w:
                    continue
                shifted = (chi * cr).shift(-len(w))
                low = HSeries(shifted.coeffs[: Q.order + 1], Q.order)
                if low:
                    out = out + ShElem(ctx, {wa: low})
    return out
