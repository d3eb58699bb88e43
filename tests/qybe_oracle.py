"""Independent oracle for the universal QYBE residual: the full triple
loop over every term of R12, R13 and R23, with no grouping by word
lengths and no skipped slot, as `universal.univ_qybe_residual` was
written before it learned to skip the slots that are zero by
definition."""

from liequant.rmatrix import _shift_pids, lambda_table
from liequant.universal import _triple, normal_order, r_terms_with_rho
from liequant.unitensor import UElem


def full_qybe_residual(bfam, varrho, N):
    """Degree-N component of pr^(x3)(R12 R13 R23 - R23 R13 R12), every
    term triple of every degree triple evaluated in both orderings."""
    rterms = r_terms_with_rho(lambda_table(bfam, N), varrho, N)
    rterms13 = [_shift_pids(t, 2000) for t in rterms]
    rterms23 = [_shift_pids(t, 4000) for t in rterms]
    acc = {}
    for d12 in range(0, N + 1):
        for d13 in range(0, N + 1 - d12):
            d23 = N - d12 - d13
            for (u12, v12), c1 in rterms[d12].terms.items():
                for (u13, v13), c2 in rterms13[d13].terms.items():
                    for (u23, v23), c3 in rterms23[d23].terms.items():
                        c = c1 * c2 * c3
                        _triple(acc, bfam, ((u12, u13), (v12, u23), (v13, v23)), c)
                        _triple(acc, bfam, ((u13, u12), (u23, v12), (v23, v13)), -c)
    return normal_order(UElem(3, acc))
