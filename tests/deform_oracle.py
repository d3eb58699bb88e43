"""Test-only constructions on the associative deformation complex: the
coboundary kappa of an element of A, the obstruction term of the
order-N equation with its hypotheses checked, and the unit-expanding
placement that deform.place replaced."""

from fractions import Fraction

from liequant.deform import _ordered_triple, bbrack, delta_p, place, t_comm
from liequant.liealg import tensor_add, tensor_smul
from liequant.scalars import add_term, distribute


def expanded_place(alg, t, spots, n):
    """deform.place with the unit written out: 1 = sum_i u_i e_i in every
    free slot and in every None of t's keys, so no key holds None."""
    out = {}
    unit_items = list(alg.unit.items())
    for k, c in t.items():
        slots = [unit_items] * n
        for spot, comp in zip(spots, k):
            if comp is not None:
                slots[spot - 1] = ((comp, 1),)
        for idx, cc in distribute(slots, c):
            add_term(out, idx, cc)
    return out


def kappa_cob(alg, r, x):
    """kappa(x) = [r, x x 1 + 1 x x] for x in A (x: {index: coeff})."""
    xt = {(i,): c for i, c in x.items()}
    x1 = place(xt, (1,), 2)
    x2 = place(xt, (2,), 2)
    return t_comm(alg, r, tensor_add(x1, x2))


def obstruction_check(alg, r, rseq, N):
    """Prop-style test term: delta(r | sum_{p,q,s>0} R_p12 R_q13 R_s23 - rev).

    Verifies the hypotheses (the order-i equations with positive indices,
    i <= N-2) before computing; raises ValueError on violation.
    """
    full = [None] + list(rseq)
    for i in range(1, N - 1):
        lhs = bbrack(alg, r, full[i])
        rhs = {}
        for p in range(1, i + 1):
            for q in range(1, i + 1):
                s = i + 1 - p - q
                if s < 1:
                    continue
                rhs = tensor_add(rhs, tensor_smul(
                    Fraction(-1), _ordered_triple(alg, full[p], full[q], full[s])))
        if tensor_add(lhs, tensor_smul(Fraction(-1), rhs)):
            raise ValueError("order-%d hypothesis violated" % (i + 1))
    test = {}
    for p in range(1, N):
        for q in range(1, N):
            s = N - p - q
            if s < 1:
                continue
            if p >= len(full) or q >= len(full) or s >= len(full):
                continue
            test = tensor_add(test, _ordered_triple(alg, full[p], full[q], full[s]))
    return delta_p(alg, r, test, 1)
