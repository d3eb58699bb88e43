"""Test-only checks of a Quantization's QYBE residual: per hbar order,
the full residual against its degree-one projection, and the concrete
projected residual against the instantiated universal residual."""

from liequant.scalars import HSeries, add_term, pr_legs
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
