"""Independent oracle for the morphism ell: pair a tensor word directly
against the assembled R-matrix terms, instead of the antimorphism
extension of the generators' images that `Quantization.ell` uses."""

from fractions import Fraction

from liequant.rmatrix import lambda_table
from liequant.scalars import HSeries, as_series
from liequant.shuffle import ShElem
from liequant.unitensor import instantiate_tensor


def ell_direct(Q, x):
    """ell(x) for the Quantization Q by direct pairing against R.

    The hbar^-k pole of a degree-k contraction needs the R-terms at
    internal order Q.order + k, so this builds its own lambda table to
    that degree; requires Q.bfam.max_degree >= Q.order + k.
    """
    ctx = Q.sh_ctx
    d = Q.bia.algebra.dim
    kmax = max((len(w) for w in x.terms), default=0)
    hi = Q.order + kmax
    if Q.bfam.max_degree < hi:
        raise ValueError("B-family too short for a direct degree-%d pairing" % kmax)
    table = lambda_table(Q.bfam, hi)
    rho_hi = Q._rho_at_order(hi, Q.varrho)
    out = ShElem(ctx, {})
    for n in range(hi + 1):
        t = instantiate_tensor(table.rmatrix(n), Q.double.algebra, rho_hi)
        for w, c in x.terms.items():
            # a rational coefficient is a constant series
            chi = HSeries(list(as_series(c, Q.order).coeffs) + [Fraction(0)] * kmax, hi)
            for (wa, wb), cr in t.items():
                if len(wb) != len(w) or tuple(k - d for k in wb) != w:
                    continue
                shifted = (chi * cr).shift(-len(w))
                low = HSeries(shifted.coeffs[: Q.order + 1], Q.order)
                if low:
                    out = out + ShElem(ctx, {wa: low})
    return out
